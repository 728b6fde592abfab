"""Degree-parameter random graph model.

Each node i carries a real parameter b_i and edge {i, j} appears
independently with probability expit(b_i + b_j).  The degree sequence is
sufficient, and the maximum-likelihood equations match observed degrees to
their expectations.  The maximizer fails to exist for boundary degree
sequences; fits report that instead of returning a spurious vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import expit

from .core import (
    TOL_SCORE,
    Fit,
    NullHypothesis,
    UndirectedGraph,
    as_model_params,
    newton_ascent,
    nonexistent_fit,
    pair_indices,
)


def _pair_logits(beta: np.ndarray) -> np.ndarray:
    return beta[:, None] + beta[None, :]


def edge_probabilities(beta) -> np.ndarray:
    """Matrix of edge probabilities expit(b_i + b_j), zero diagonal."""
    b = as_model_params(beta, "beta")
    p = expit(_pair_logits(b))
    np.fill_diagonal(p, 0.0)
    return p


def log_likelihood(beta, g: UndirectedGraph, classes=None) -> float:
    """Log-likelihood of the graph g, which enters only through its degree sequence.

    With ``classes``, the class index of each node, beta holds one value per
    class.  Without it, nodes of equal parameter form the classes: their pair
    terms are identical, so every evaluation runs over the m distinct values
    in O(m^2).
    """
    b = as_model_params(beta, "beta")
    if classes is None:
        if b.size != g.n:
            raise ValueError(f"parameter length {b.size} does not match n={g.n}")
        b, classes = np.unique(b, return_inverse=True)
    w = np.bincount(classes, minlength=b.size).astype(float)
    totals = np.bincount(classes, weights=g.degrees, minlength=b.size)
    f = np.logaddexp(0.0, _pair_logits(b))
    # each unordered pair once: all ordered pairs of distinct nodes, halved
    return float(b @ totals - 0.5 * (w @ f @ w - w @ np.diag(f)))


def expected_degrees(beta, classes=None) -> np.ndarray:
    """Expected degree of each node; with ``classes`` (see log_likelihood), of one node per class."""
    b = as_model_params(beta, "beta")
    per_node = classes is None
    if per_node:
        b, classes = np.unique(b, return_inverse=True)
    p = expit(_pair_logits(b))
    e = p @ np.bincount(classes, minlength=b.size) - np.diag(p)
    return e[classes] if per_node else e


def score(beta, g: UndirectedGraph) -> np.ndarray:
    """Gradient of the log-likelihood: observed minus expected degrees."""
    b = as_model_params(beta, "beta")
    if b.size != g.n:
        raise ValueError(f"parameter length {b.size} does not match n={g.n}")
    return g.degrees - expected_degrees(b)


def fisher_info(beta, classes=None) -> np.ndarray:
    """Covariance matrix of the degree sequence.

    Off-diagonal entries are the pair variances; each diagonal entry is the
    row sum of the others, so the result is diagonally balanced.  With
    ``classes`` (see log_likelihood) it is the covariance of the class degree
    totals, the information in one parameter per class.
    """
    b = as_model_params(beta, "beta")
    w = np.ones(b.size) if classes is None else np.bincount(classes, minlength=b.size).astype(float)
    pi = _pair_logits(b)
    v = expit(pi) * expit(-pi)
    own = np.diag(v).copy()
    # variance of one node's degree, then the covariances of the class totals
    node = v @ w - own
    v *= w[:, None]
    v *= w
    np.fill_diagonal(v, w * node + w * (w - 1.0) * own)
    return v


@dataclass(frozen=True)
class ModelDiagnostics:
    """Curvature extremes of the pair variances and the implied consistency radius."""

    b_n: float
    c_n: float
    consistency_radius: float


def bn_cn(beta) -> ModelDiagnostics:
    """Reciprocal pair-variance extremes b_n >= c_n >= 4.

    For a pair with logit x the reciprocal variance is (1+e^x)^2/e^x, which
    equals 2 + 2 cosh(x) and grows with |x|.
    """
    b = as_model_params(beta, "beta")
    n = b.size
    if n < 2:
        raise ValueError("need at least two parameters")
    iu = np.triu_indices(n, k=1)
    x = np.abs(_pair_logits(b)[iu])
    b_n = 2.0 + 2.0 * math.cosh(float(x.max()))
    c_n = 2.0 + 2.0 * math.cosh(float(x.min()))
    radius = 3.0 * n * b_n / (2.0 * n - 1.0) * math.sqrt(math.log(n) / n)
    return ModelDiagnostics(b_n=b_n, c_n=c_n, consistency_radius=radius)


def _saturated(beta: np.ndarray, tol: float) -> bool:
    # a pair logit at -log(tol) leaves a residual of about tol, which the
    # score test cannot tell from zero, so the point cannot be certified as
    # an interior maximizer; joint escape directions stall exactly there.
    # The extreme pair logits are the sums of the two smallest and two largest.
    s = np.sort(beta)
    return max(abs(s[0] + s[1]), abs(s[-1] + s[-2])) >= -math.log(tol)


def _fit_classes(g: UndirectedGraph, r: int, pinned: Optional[np.ndarray], *, tol: float) -> Fit:
    """Damped Newton ascent with one parameter per class of nodes.

    The first r nodes are pinned to ``pinned``, or tied to one unknown value
    when ``pinned`` is None; nodes r.. are free.  Free nodes of equal degree
    share the maximizer (the likelihood is strictly concave and unchanged by
    swapping them), so each degree forms one class, and a step solves an
    m-by-m system over the m fitted classes.  The result is expanded to n
    entries and certified once on the n-node functions, which group nodes of
    equal value themselves.  Reduced coordinates are the free nodes one by
    one and the tied block summed.
    """
    d = g.degrees
    tied = pinned is None and r > 0
    degs, classes = np.unique(d[r:], return_inverse=True)
    fixed = np.zeros(0)
    if tied:
        classes = np.concatenate([np.zeros(r, dtype=int), classes + 1])
    elif r > 0:
        fixed, head = np.unique(pinned, return_inverse=True)
        classes = np.concatenate([head, classes + fixed.size])
    mult = np.bincount(classes).astype(float)
    totals = np.bincount(classes, weights=d)
    # reduced score = class score over per: one node's share, or the whole tied block
    per = mult[fixed.size:].copy()
    if tied:
        per[0] = 1.0
    # a batch of one: the evaluators see the single row of values
    values, _, _, iters = newton_ascent(
        lambda b, _: np.array([log_likelihood(b[0], g, classes)]),
        lambda b, _: (totals - mult * expected_degrees(b[0], classes))[None],
        lambda b, _: fisher_info(b[0], classes=classes)[None],
        np.zeros((1, per.size)), fixed, per, tol,
    )
    beta = values[0, classes]
    iters = int(iters[0])
    score_n = d - expected_degrees(beta)
    reduced = np.concatenate([[score_n[:r].sum()] if tied else [], score_n[r:]])
    gnorm = float(np.abs(reduced).max())
    converged = gnorm <= tol
    if converged and _saturated(beta, tol):
        return nonexistent_fit(beta, iters)
    return Fit(beta, log_likelihood(beta, g), iters, converged, True, gnorm)


def fit_mle(g: UndirectedGraph, *, tol: float = TOL_SCORE) -> Fit:
    """Fit all n parameters by Newton steps over the degree classes.

    A degree of 0 or n-1 means the maximizer does not exist and is reported
    without iterating.
    """
    d = g.degrees
    n = g.n
    if np.any(d == 0) or np.any(d == n - 1):
        return nonexistent_fit(np.zeros(n))
    return _fit_classes(g, 0, None, tol=tol)


def fit_restricted_specified(g: UndirectedGraph, null: NullHypothesis, *, tol: float = TOL_SCORE) -> Fit:
    """Fit with the first r parameters pinned to the null values."""
    if null.kind != "specified":
        raise ValueError("null must be of the specified kind")
    null.validate_for("beta", g.n)
    n = g.n
    r = null.r
    if r == 0:
        return fit_mle(g, tol=tol)
    d = g.degrees
    base = np.zeros(n)
    base[:r] = null.values
    if r == n:
        return Fit(base, log_likelihood(base, g), 0, True, True, 0.0)
    if np.any(d[r:] == 0) or np.any(d[r:] == n - 1):
        return nonexistent_fit(base)
    return _fit_classes(g, r, null.values, tol=tol)


def fit_restricted_homogeneous(g: UndirectedGraph, r: int, *, tol: float = TOL_SCORE) -> Fit:
    """Fit with the first r parameters tied to a common unknown value."""
    if not 1 <= r <= g.n:
        raise ValueError(f"r must be in [1, {g.n}], got {r}")
    n = g.n
    d = g.degrees
    block = int(d[:r].sum())
    if block == 0 or block == r * (n - 1):
        return nonexistent_fit(np.zeros(n))
    if np.any(d[r:] == 0) or np.any(d[r:] == n - 1):
        return nonexistent_fit(np.zeros(n))
    return _fit_classes(g, r, None, tol=tol)


def simulate_graph(beta, rng: np.random.Generator) -> UndirectedGraph:
    """Draw one graph with independent edges at probabilities expit(b_i + b_j)."""
    b = as_model_params(beta, "beta")
    n = b.size
    if n < 3:
        raise ValueError("need at least three nodes")
    i, j = pair_indices(n)
    p = expit(b[i] + b[j])
    drawn = np.flatnonzero(rng.random(p.size) < p)
    return UndirectedGraph.from_edges(n, np.column_stack((i[drawn], j[drawn])))
