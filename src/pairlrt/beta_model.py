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
    Fit,
    NullHypothesis,
    Tallies,
    UndirectedGraph,
    as_model_params,
    fit_by_classes,
    nonexistent_fit,
    pair_expected,
    pair_indices,
    pair_information,
    pair_log_likelihood,
    pair_variances,
    sum_bins,
)


def edge_probabilities(beta) -> np.ndarray:
    """Matrix of edge probabilities expit(b_i + b_j), zero diagonal."""
    b = as_model_params(beta, "beta")
    p = expit(b[:, None] + b[None, :])
    np.fill_diagonal(p, 0.0)
    return p


def class_tallies(degrees, classes: np.ndarray) -> Tallies:
    """Degree totals and node pairs of classes of nodes, over the class index of each node.

    ``totals`` counts the node pairs between two classes, mult (x) mult -
    diag(mult) for the class sizes mult.  A (k, n) stack of degree
    sequences takes one (k, n) map, a row per sequence, and gives a stack.
    """
    d = np.asarray(degrees, dtype=float)
    c = int(classes.max()) + 1
    mult = sum_bins(np.ones(d.shape), classes, c)
    pairs = mult[..., :, None] * mult[..., None, :]
    diag = np.arange(c)
    pairs[..., diag, diag] -= mult
    return Tallies(sum_bins(d, classes, c), pairs)


def _node_classes(b: np.ndarray, degrees=0.0) -> tuple[np.ndarray, np.ndarray, Tallies]:
    """The distinct values of a node vector, each node's class, and the class tallies.

    Nodes of equal value have identical pair terms, so an n-node evaluation
    runs over the m distinct values in O(m^2).
    """
    values, classes = np.unique(b, return_inverse=True)
    return values, classes, class_tallies(np.broadcast_to(degrees, b.shape), classes)


def log_likelihood(beta, data: Union[UndirectedGraph, Tallies]):
    """Log-likelihood of a graph, which enters only through its degree sequence.

    With a graph, beta holds one value per node, grouped into classes of
    equal value.  With Tallies, beta holds one value per class, and a stack
    of tallies with one row of beta each gives one log-likelihood per row.
    """
    graph = isinstance(data, UndirectedGraph)
    b = as_model_params(beta, "beta", stacked=not graph)
    if graph:
        if b.size != data.n:
            raise ValueError(f"parameter length {b.size} does not match n={data.n}")
        b, _, data = _node_classes(b, data.degrees)
        return float(pair_log_likelihood(b, data, 1))
    return pair_log_likelihood(b, data, 1)


def expected_degrees(beta, tallies: Optional[Tallies] = None) -> np.ndarray:
    """Expected degree of each node.

    With Tallies, beta holds one value per class (see log_likelihood) and
    the result is each class's expected degree total, row by row for a stack.
    """
    b = as_model_params(beta, "beta", stacked=tallies is not None)
    if tallies is not None:
        return pair_expected(b, tallies, 1)
    values, classes, t = _node_classes(b)
    return (pair_expected(values, t, 1) / np.bincount(classes))[classes]


def score(beta, g: UndirectedGraph) -> np.ndarray:
    """Gradient of the log-likelihood: observed minus expected degrees."""
    b = as_model_params(beta, "beta")
    if b.size != g.n:
        raise ValueError(f"parameter length {b.size} does not match n={g.n}")
    return g.degrees - expected_degrees(b)


def fisher_info(beta, tallies: Optional[Tallies] = None) -> np.ndarray:
    """Covariance matrix of the degree sequence.

    Off-diagonal entries are the pair variances; each diagonal entry is the
    row sum of the others, so the result is diagonally balanced.  With
    Tallies (see expected_degrees) it is the covariance of the class degree
    totals, the information in one parameter per class, row by row for a
    stack.
    """
    b = as_model_params(beta, "beta", stacked=tallies is not None)
    if tallies is None:
        tallies = class_tallies(np.zeros(b.size), np.arange(b.size))
    return pair_information(b, tallies, 1)


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
    i, j = pair_indices(n)
    x = np.abs(b[i] + b[j])
    b_n = 2.0 + 2.0 * math.cosh(float(x.max()))
    c_n = 2.0 + 2.0 * math.cosh(float(x.min()))
    radius = 3.0 * n * b_n / (2.0 * n - 1.0) * math.sqrt(math.log(n) / n)
    return ModelDiagnostics(b_n=b_n, c_n=c_n, consistency_radius=radius)


def class_model() -> ClassModel:
    """The graph model's functions for core.fit_by_classes, read anew on each call so wrappers take effect."""
    return ClassModel(
        lambda data, rows: np.array([data[t] for t in rows]),
        class_tallies,
        log_likelihood,
        lambda b, t: t.degrees - expected_degrees(b, t),
        fisher_info,
        1,
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
