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
from typing import NamedTuple, Optional, Union

import numpy as np
from scipy.special import expit

from .core import (
    TOL_SCORE,
    ClassModel,
    Fit,
    NullHypothesis,
    UndirectedGraph,
    as_model_params,
    fit_by_classes,
    nonexistent_fit,
    pair_indices,
    sum_bins,
)


def _pair_logits(beta: np.ndarray) -> np.ndarray:
    return beta[..., :, None] + beta[..., None, :]


def _others(x: np.ndarray, mult: np.ndarray) -> np.ndarray:
    """Per class, the sum of x over one node's pairs: every other node of every class."""
    return (x @ mult[..., None])[..., 0] - np.diagonal(x, axis1=-2, axis2=-1)


def edge_probabilities(beta) -> np.ndarray:
    """Matrix of edge probabilities expit(b_i + b_j), zero diagonal."""
    b = as_model_params(beta, "beta")
    p = expit(_pair_logits(b))
    np.fill_diagonal(p, 0.0)
    return p


class Tallies(NamedTuple):
    """Node counts ``mult`` and degree totals ``totals`` (..., c) of classes of nodes.

    The leading axes, if any, stack graphs.
    """

    mult: np.ndarray
    totals: np.ndarray


def class_tallies(degrees, classes: np.ndarray) -> Tallies:
    """Tallies of a degree sequence over the class index of each node.

    A (k, n) stack of degree sequences takes one (k, n) map, a row per
    sequence, and gives (k, c) tallies.
    """
    d = np.asarray(degrees, dtype=float)
    c = int(classes.max()) + 1
    return Tallies(sum_bins(np.ones(d.shape), classes, c), sum_bins(d, classes, c))


def log_likelihood(beta, data: Union[UndirectedGraph, Tallies]):
    """Log-likelihood of a graph, which enters only through its degree sequence.

    With a graph, beta holds one value per node, and nodes of equal value
    form the classes: their pair terms are identical, so every evaluation
    runs over the m distinct values in O(m^2).  With Tallies, beta holds one
    value per class, and a stack of tallies with one row of beta each gives
    one log-likelihood per row.
    """
    graph = isinstance(data, UndirectedGraph)
    b = as_model_params(beta, "beta", stacked=not graph)
    if graph:
        if b.size != data.n:
            raise ValueError(f"parameter length {b.size} does not match n={data.n}")
        b, classes = np.unique(b, return_inverse=True)
        data = class_tallies(data.degrees, classes)
    mult, totals = data
    f = np.logaddexp(0.0, _pair_logits(b))
    # each unordered pair once: all ordered pairs of distinct nodes, halved
    ll = (b * totals).sum(axis=-1) - 0.5 * (mult * _others(f, mult)).sum(axis=-1)
    return float(ll) if graph else ll


def expected_degrees(beta, mult: Optional[np.ndarray] = None) -> np.ndarray:
    """Expected degree of each node.

    With the class multiplicities ``mult``, beta holds one value per class
    (see log_likelihood) and the result is one node's expected degree per
    class, row by row for a stack.
    """
    per_node = mult is None
    b = as_model_params(beta, "beta", stacked=not per_node)
    if per_node:
        b, classes = np.unique(b, return_inverse=True)
        mult = np.bincount(classes).astype(float)
    e = _others(expit(_pair_logits(b)), mult)
    return e[classes] if per_node else e


def score(beta, g: UndirectedGraph) -> np.ndarray:
    """Gradient of the log-likelihood: observed minus expected degrees."""
    b = as_model_params(beta, "beta")
    if b.size != g.n:
        raise ValueError(f"parameter length {b.size} does not match n={g.n}")
    return g.degrees - expected_degrees(b)


def fisher_info(beta, mult: Optional[np.ndarray] = None) -> np.ndarray:
    """Covariance matrix of the degree sequence.

    Off-diagonal entries are the pair variances; each diagonal entry is the
    row sum of the others, so the result is diagonally balanced.  With the
    class multiplicities ``mult`` (see expected_degrees) it is the
    covariance of the class degree totals, the information in one parameter
    per class, row by row for a stack.
    """
    b = as_model_params(beta, "beta", stacked=True)
    w = np.ones(b.shape) if mult is None else mult
    pi = _pair_logits(b)
    v = expit(pi) * expit(-pi)
    own = np.diagonal(v, axis1=-2, axis2=-1).copy()
    # variance of one node's degree, then the covariances of the class totals
    node = _others(v, w)
    v *= w[..., :, None]
    v *= w[..., None, :]
    diag = np.arange(b.shape[-1])
    v[..., diag, diag] = w * node + w * (w - 1.0) * own
    return v


def degree_variances(beta) -> np.ndarray:
    """Variance of each node's degree, the diagonal of fisher_info, in O(m^2) over the m distinct values."""
    b, classes = np.unique(as_model_params(beta, "beta"), return_inverse=True)
    pi = _pair_logits(b)
    return _others(expit(pi) * expit(-pi), np.bincount(classes).astype(float))[classes]


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


def _saturated(beta: np.ndarray, degrees: np.ndarray, tol: float) -> np.ndarray:
    # a pair logit at -log(tol) leaves a residual of about tol, which the
    # score test cannot tell from zero, so the point cannot be certified as
    # an interior maximizer; joint escape directions stall exactly there.
    # The extreme pair logits are the sums of the two smallest and two largest.
    s = np.sort(beta, axis=-1)
    return np.maximum(np.abs(s[..., 0] + s[..., 1]), np.abs(s[..., -1] + s[..., -2])) >= -math.log(tol)


def class_model() -> ClassModel:
    """The graph model's functions for core.fit_by_classes, read anew on each call so wrappers take effect."""
    return ClassModel(
        lambda data, rows: np.array([data[t] for t in rows]),
        class_tallies,
        log_likelihood,
        lambda b, t: t.totals - t.mult * expected_degrees(b, t.mult),
        lambda b, t: fisher_info(b, t.mult),
        _saturated,
    )


def _by_degree(g, graphs: list, ready: list, r: int, pinned: Optional[np.ndarray], tol: float):
    """Fit the graphs whose entry of ``ready`` is None with one parameter per class of nodes.

    The first r nodes are pinned to ``pinned``, nodes of equal pinned value
    sharing a fixed class, or tied to one unknown value when ``pinned`` is
    None; nodes r.. are free.  Free nodes of equal degree share the
    maximizer (the likelihood is strictly concave and unchanged by swapping
    them), so each degree forms one class.  One Fit for a graph ``g``, the
    Fits of a list.
    """
    tied = pinned is None and r > 0
    fixed, head = np.zeros(0), np.zeros(r, dtype=int)
    if r > 0 and not tied:
        fixed, head = np.unique(pinned, return_inverse=True)
    first = int(tied) + fixed.size
    maps = [
        np.concatenate([head, np.unique(x.degrees[r:], return_inverse=True)[1] + first]) if f is None else None
        for x, f in zip(graphs, ready)
    ]
    fits = fit_by_classes(class_model(), [x.degrees for x in graphs], maps, [fixed] * len(graphs), tied, ready, tol)
    return fits[0] if isinstance(g, UndirectedGraph) else fits


def _boundary(d: np.ndarray, n: int) -> bool:
    return bool(np.any((d == 0) | (d == n - 1)))


def fit_mle(g, *, tol: float = TOL_SCORE):
    """Fit all n parameters by Newton steps over the degree classes.

    ``g`` is a graph, which gives one Fit, or a sequence of graphs, which
    gives their Fits, fitted together.  A degree of 0 or n-1 means the
    maximizer does not exist and is reported without iterating.
    """
    graphs = [g] if isinstance(g, UndirectedGraph) else list(g)
    ready = [nonexistent_fit(np.zeros(x.n)) if _boundary(x.degrees, x.n) else None for x in graphs]
    return _by_degree(g, graphs, ready, 0, None, tol)


def fit_restricted_specified(g, null: NullHypothesis, *, tol: float = TOL_SCORE):
    """Fit with the first r parameters pinned to the null values; ``g`` as in fit_mle."""
    if null.kind != "specified":
        raise ValueError("null must be of the specified kind")
    r = null.r
    if r == 0:
        return fit_mle(g, tol=tol)
    graphs = [g] if isinstance(g, UndirectedGraph) else list(g)
    ready: list = []
    for x in graphs:
        null.validate_for("beta", x.n)
        base = np.zeros(x.n)
        base[:r] = null.values
        if r == x.n:
            ready.append(Fit(base, log_likelihood(base, x), 0, True, True, 0.0))
        else:
            ready.append(nonexistent_fit(base) if _boundary(x.degrees[r:], x.n) else None)
    return _by_degree(g, graphs, ready, r, null.values, tol)


def fit_restricted_homogeneous(g, r: int, *, tol: float = TOL_SCORE):
    """Fit with the first r parameters tied to a common unknown value; ``g`` as in fit_mle."""
    graphs = [g] if isinstance(g, UndirectedGraph) else list(g)
    ready: list = []
    for x in graphs:
        n = x.n
        if not 1 <= r <= n:
            raise ValueError(f"r must be in [1, {n}], got {r}")
        block = int(x.degrees[:r].sum())
        lost = block == 0 or block == r * (n - 1) or _boundary(x.degrees[r:], n)
        ready.append(nonexistent_fit(np.zeros(n)) if lost else None)
    return _by_degree(g, graphs, ready, r, None, tol)


def simulate_graph(beta, rng):
    """Draw a graph with independent edges at probabilities expit(b_i + b_j).

    ``rng`` is one Generator, which gives an UndirectedGraph, or a sequence
    of them, which gives a list of graphs, the i-th drawn from rng[i]
    exactly as one graph from it.
    """
    b = as_model_params(beta, "beta")
    n = b.size
    if n < 3:
        raise ValueError("need at least three nodes")
    i, j = pair_indices(n)
    p = expit(b[i] + b[j])
    one = isinstance(rng, np.random.Generator)
    graphs = []
    for gen in [rng] if one else rng:
        drawn = np.flatnonzero(gen.random(p.size) < p)
        # the pairs i < j come distinct and in order, as from_edges leaves them
        graphs.append(UndirectedGraph(n, np.column_stack((i[drawn], j[drawn]))))
    return graphs[0] if one else graphs
