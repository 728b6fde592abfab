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
from typing import Optional, Union

import numpy as np
from scipy.special import expit

from .core import (
    TOL_SCORE,
    ClassModel,
    NullHypothesis,
    Tallies,
    UndirectedGraph,
    as_model_params,
    class_maps,
    class_tallies,
    fit_by_classes,
    pair_expected,
    pair_information,
    pair_log_likelihood,
    pair_rows,
    pair_variances,
)

LARGEST_LOGIT = math.acosh(np.finfo(float).max / 2)  # 2 + 2 cosh(x) is finite up to here


def edge_probabilities(beta) -> np.ndarray:
    """Matrix of edge probabilities expit(b_i + b_j), zero diagonal."""
    b = as_model_params(beta, "beta")
    p = expit(b[:, None] + b[None, :])
    np.fill_diagonal(p, 0.0)
    return p


def _node_classes(b: np.ndarray, degrees=0.0) -> tuple[np.ndarray, np.ndarray, Tallies]:
    """The distinct values of a node vector, each node's class, and the class tallies.

    Nodes of equal value have identical pair terms, so an n-node evaluation
    runs over the m distinct values in O(m^2).
    """
    values, classes = np.unique(b, return_inverse=True)
    return values, classes, class_tallies(Tallies(np.broadcast_to(degrees, b.shape), 1), classes)


def log_likelihood(beta, data: Union[UndirectedGraph, Tallies]):
    """Log-likelihood of a graph, which enters only through its degree sequence.

    With a graph, beta holds one value per node, grouped into classes of
    equal value.  With Tallies, beta holds one value per class, unchecked,
    and a stack of tallies with one row of beta each gives one
    log-likelihood per row.
    """
    if isinstance(data, Tallies):
        return pair_log_likelihood(beta, data, 1)
    b, _, data = _node_classes(as_model_params(beta, "beta", data.n), data.degrees)
    return float(pair_log_likelihood(b, data, 1))


def expected_degrees(beta, tallies: Optional[Tallies] = None) -> np.ndarray:
    """Expected degree of each node.

    With Tallies, beta holds one value per class (see log_likelihood) and
    the result is each class's expected degree total, row by row for a stack;
    beta is then unchecked.
    """
    if tallies is not None:
        return pair_expected(beta, tallies, 1)
    values, classes, t = _node_classes(as_model_params(beta, "beta"))
    return (pair_expected(values, t, 1) / np.bincount(classes))[classes]


def score(beta, g: UndirectedGraph) -> np.ndarray:
    """Gradient of the log-likelihood: observed minus expected degrees."""
    return g.degrees - expected_degrees(as_model_params(beta, "beta", g.n))


def fisher_info(beta, tallies: Optional[Tallies] = None) -> np.ndarray:
    """Covariance matrix of the degree sequence.

    Off-diagonal entries are the pair variances; each diagonal entry is the
    row sum of the others, so the result is diagonally balanced.  With
    Tallies (see expected_degrees) it is the covariance of the class degree
    totals, the information in one parameter per class, row by row for a
    stack.
    """
    if tallies is not None:
        return pair_information(beta, tallies, 1)
    b = as_model_params(beta, "beta")
    return pair_information(b, class_tallies(Tallies(np.zeros(b.size), 1), np.arange(b.size)), 1)


def degree_variances(beta) -> np.ndarray:
    """Variance of each node's degree, the diagonal of fisher_info, in O(m^2) over the m distinct values."""
    values, classes, t = _node_classes(as_model_params(beta, "beta"))
    return ((pair_variances(values, 1) * t.totals).sum(axis=-1) / np.bincount(classes))[classes]


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
    i, j = np.triu_indices(n, k=1)
    x = np.abs(b[i] + b[j])
    if x.max() > LARGEST_LOGIT:
        raise ValueError(f"pair logit {x.max():.6g} is too large: its reciprocal variance 2 + 2 cosh overflows")
    b_n = 2.0 + 2.0 * math.cosh(float(x.max()))
    c_n = 2.0 + 2.0 * math.cosh(float(x.min()))
    radius = 3.0 * n * b_n / (2.0 * n - 1.0) * math.sqrt(math.log(n) / n)
    return ModelDiagnostics(b_n=b_n, c_n=c_n, consistency_radius=radius)


def class_model() -> ClassModel:
    """The graph model's functions for core.fit_by_classes, read anew on each call so wrappers take effect."""
    return ClassModel(log_likelihood, expected_degrees, fisher_info, 1)


def _fit(g, lead, tied: int, tol: float, check=None):
    """Fit with the first nodes fixed at ``lead`` and the next ``tied`` tied (core.class_maps).

    ``g`` is a graph, which gives one Fit, or the degree stack
    Tallies(degrees, 1) of k graphs on the same nodes, degrees of shape
    (k, n) as simulate_graph draws them, which gives their Fits, fitted
    together.  ``check(n)`` validates the constraint for n nodes.  Every
    pair of nodes is one trial, so free nodes of equal degree share a class.
    """
    one = isinstance(g, UndirectedGraph)
    degrees = g.degrees[None] if one else g.degrees
    if check is not None:
        check(degrees.shape[1])
    maps, fixed = class_maps(degrees, lead, tied, True)
    fits = fit_by_classes(class_model(), Tallies(degrees, 1), maps, fixed, tied > 0, False, tol)
    return fits[0] if one else fits


def fit_mle(g, *, tol: float = TOL_SCORE):
    """Fit all n parameters by Newton steps over the degree classes.

    ``g`` is a graph, which gives one Fit, or a degree stack (see _fit),
    which gives its members' Fits, fitted together.  A degree of 0 or n-1
    means the maximizer does not exist and is reported without iterating.
    """
    return _fit(g, [], 0, tol)


def fit_restricted_specified(g, null: NullHypothesis, *, tol: float = TOL_SCORE):
    """Fit with the first r parameters pinned to the null values; ``g`` as in fit_mle."""
    if null.kind != "specified":
        raise ValueError("null must be of the specified kind")
    return _fit(g, null.values, 0, tol, lambda n: null.validate_for("beta", n))


def fit_restricted_homogeneous(g, r: int, *, tol: float = TOL_SCORE):
    """Fit with the first r parameters tied to a common unknown value; ``g`` as in fit_mle."""

    def check(n):
        if not 1 <= r <= n:
            raise ValueError(f"r must be in [1, {n}], got {r}")

    return _fit(g, [], r, tol, check)


def simulate_graph(beta, rng):
    """Draw a graph with independent edges at probabilities expit(b_i + b_j).

    ``rng`` is one Generator, which gives an UndirectedGraph, or a sequence
    of them, which gives the degree stack Tallies(degrees, 1) of their
    graphs, degrees of shape (len(rng), n), row t drawn from rng[t] exactly
    as one graph from it.  The pairs i < j are drawn in row order, a block
    of whole rows at a time (at most core.PAIR_BLOCK pairs, or one row,
    core.pair_rows), each generator's uniforms for a block in turn: a draw
    holds its edges, or its degree rows, and one block, never an array of
    n^2 entries.
    """
    b = as_model_params(beta, "beta")
    n = b.size
    if n < 3:
        raise ValueError("need at least three nodes")
    one = isinstance(rng, np.random.Generator)
    gens = [rng] if one else list(rng)
    edges, degrees = [], np.zeros((len(gens), n), dtype=np.int64)
    for top, i, j, starts in pair_rows(n):
        end = top + starts.size
        p = expit(b[i] + b[j])
        for t, gen in enumerate(gens):
            keep = gen.random(p.size) < p
            drawn = np.flatnonzero(keep)  # faster than masking i and j with keep
            if one:
                edges.append(np.column_stack((i[drawn], j[drawn])))
            else:
                degrees[t, top:end] += np.add.reduceat(keep, starts)
                degrees[t] += np.bincount(j[drawn], minlength=n)
    # the pairs i < j come distinct and in order, as from_edges leaves them
    return UndirectedGraph(n, np.concatenate(edges)) if one else Tallies(degrees, 1)
