"""Paired-comparison model with merit parameters on a reference scale.

Subject i beats subject j in a single comparison with probability
expit(b_i - b_j); the k_ij comparisons of a pair are independent.  The first
subject is the reference and its parameter is fixed at zero, so fits move
n-1 free coordinates.  The maximizer exists exactly when the directed win
graph is strongly connected.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components
from scipy.special import expit

from .core import TOL_SCORE, ComparisonTable, Fit, NullHypothesis, as_model_params, newton_ascent, nonexistent_fit


def _pair_diffs(beta: np.ndarray) -> np.ndarray:
    return beta[:, None] - beta[None, :]


def win_probabilities(beta) -> np.ndarray:
    """Matrix of single-comparison win probabilities expit(b_i - b_j), zero diagonal."""
    b = as_model_params(beta, "bt")
    p = expit(_pair_diffs(b))
    np.fill_diagonal(p, 0.0)
    return p


def _class_totals(table: ComparisonTable, classes, size: int) -> np.ndarray:
    """Comparison counts between each ordered pair of classes, those within a class on the diagonal."""
    if classes is None:
        if size != table.n:
            raise ValueError(f"parameter length {size} does not match n={table.n}")
        return table.totals
    pair = classes[:, None] * size + classes
    return np.bincount(pair.ravel(), weights=table.totals.ravel(), minlength=size * size).reshape(size, size)


def bt_log_likelihood(beta, table: ComparisonTable, classes=None) -> float:
    """Log-likelihood of the win counts.

    With ``classes``, the class index of each subject, beta holds one value
    per class, the reference's class first.
    """
    b = as_model_params(beta, "bt")
    k = _class_totals(table, classes, b.size)
    wins = table.degrees if classes is None else np.bincount(classes, weights=table.degrees, minlength=b.size)
    # each comparison appears under both orders of its pair, hence the half
    return float(b @ wins - 0.5 * np.sum(k * np.logaddexp(b[:, None], b[None, :])))


def bt_expected_wins(beta, table: ComparisonTable, classes=None) -> np.ndarray:
    """Expected wins of each subject; with ``classes`` (see bt_log_likelihood), each class's total."""
    b = as_model_params(beta, "bt")
    return (_class_totals(table, classes, b.size) * expit(_pair_diffs(b))).sum(axis=1)


def bt_score(beta, table: ComparisonTable) -> np.ndarray:
    """Gradient in the free coordinates (subjects 2..n)."""
    b = as_model_params(beta, "bt")
    return (table.degrees - bt_expected_wins(b, table))[1:]


def bt_fisher_info(beta, table: ComparisonTable, classes=None) -> np.ndarray:
    """Information matrix for the free coordinates.

    Off-diagonal (i, j) holds -k_ij v_ij; the diagonal sums k_ij v_ij over
    every opponent including the reference subject.  With ``classes`` (see
    bt_log_likelihood) it is the information in one value per class, for
    every class: k sums the comparisons between two classes, and those
    within a class carry no information.
    """
    b = as_model_params(beta, "bt")
    d = _pair_diffs(b)
    w = _class_totals(table, classes, b.size) * expit(d) * expit(-d)
    np.fill_diagonal(w, 0.0)
    full = -w
    np.fill_diagonal(full, w.sum(axis=1))
    return full[1:, 1:] if classes is None else full


def strongly_connected(table: ComparisonTable) -> bool:
    """True when the directed graph with an arc i -> j for each win is strongly connected."""
    adj = csr_matrix((table.wins > 0).astype(np.int8))
    ncomp, _ = connected_components(adj, directed=True, connection="strong")
    return int(ncomp) == 1


def _bt_saturated(beta: np.ndarray, table: ComparisonTable, tol: float) -> bool:
    # a compared pair whose merit difference reaches -log(tol) leaves a win
    # residual the score test cannot tell from zero; a tied block escaping
    # jointly stalls there without tripping the coordinate cap
    iu = np.triu_indices(beta.size, k=1)
    active = table.totals[iu] > 0
    if not np.any(active):
        return False
    return bool(np.abs(_pair_diffs(beta)[iu][active]).max() >= -math.log(tol))


def _fit_classes(table: ComparisonTable, classes: np.ndarray, fixed: np.ndarray, theta: np.ndarray, tol: float) -> Fit:
    """Newton ascent from ``theta`` over the classes after the ``fixed`` ones.

    Each free subject is its own class and a tied block is one class, so the
    reduced coordinates are the free subjects one by one and the block summed.
    """
    wins = np.bincount(classes, weights=table.degrees)
    values, ll, gnorm, iters = newton_ascent(
        lambda b: bt_log_likelihood(b, table, classes),
        lambda b: wins - bt_expected_wins(b, table, classes),
        lambda b: bt_fisher_info(b, table, classes),
        theta, fixed, np.ones(theta.size), tol,
    )
    beta = values[classes]
    converged = gnorm <= tol
    if converged and _bt_saturated(beta, table, tol):
        return nonexistent_fit(beta, iters)
    return Fit(beta, ll, iters, converged, True, gnorm)


def bt_fit_mle(table: ComparisonTable, *, tol: float = TOL_SCORE) -> Fit:
    """Fit the n-1 free merit parameters.

    Existence is decided up front by strong connectivity.  Newton steps
    start from zero on every subject but the reference.
    """
    n = table.n
    if not strongly_connected(table):
        return nonexistent_fit(np.zeros(n))
    return _fit_classes(table, np.arange(n), np.zeros(1), np.zeros(n - 1), tol)


def bt_fit_restricted(table: ComparisonTable, null: NullHypothesis, *, tol: float = TOL_SCORE) -> Fit:
    """Fit under a null constraint on subjects 1..r.

    Specified nulls pin subjects 2..r to given offsets from the reference;
    homogeneous nulls tie subjects 2..r to one common unknown level, while
    the reference stays at zero.
    """
    null.validate_for("bt", table.n)
    n = table.n
    r = null.r
    d = table.degrees
    k_row = table.totals.sum(axis=1)
    free_boundary = np.any(d[r:] == 0) or np.any(d[r:] == k_row[r:])
    if null.kind == "specified":
        base = np.concatenate([[0.0], null.values, np.zeros(n - r)])
        if r == n:
            return Fit(base, bt_log_likelihood(base, table), 0, True, True, 0.0)
        if free_boundary:
            return nonexistent_fit(base)
        # the reference and the pinned subjects are fixed classes, every other subject its own
        return _fit_classes(table, np.arange(n), base[:r], np.zeros(n - r), tol)
    # Cross-block win totals decide existence for the block's shared level.
    tied = np.arange(1, r)
    outside = np.concatenate(([0], np.arange(r, n)))
    cross_total = int(table.totals[np.ix_(tied, outside)].sum())
    cross_wins = int(table.wins[np.ix_(tied, outside)].sum())
    if free_boundary or (cross_total > 0 and cross_wins in (0, cross_total)):
        return nonexistent_fit(np.zeros(n))
    # class 0 is the reference, class 1 the tied block, then one class per tail subject
    classes = np.concatenate([[0], np.ones(r - 1, dtype=int), np.arange(2, n - r + 2)])
    return _fit_classes(table, classes, np.zeros(1), np.zeros(n - r + 1), tol)


def simulate_comparisons(beta, k, rng: np.random.Generator) -> ComparisonTable:
    """Draw win counts for every pair with totals k (a scalar or a symmetric matrix)."""
    b = as_model_params(beta, "bt")
    n = b.size
    if n < 3:
        raise ValueError("need at least three subjects")
    totals = np.full((n, n), k) if np.isscalar(k) else np.asarray(k)
    if totals.shape != (n, n):
        raise ValueError("totals matrix shape must match the parameter length")
    if not np.array_equal(totals, totals.T) or np.any(totals < 0):
        raise ValueError("comparison counts must be symmetric and nonnegative")
    if not np.all(np.isfinite(totals) & (totals == np.round(totals))):
        raise ValueError("comparison counts must be whole numbers")
    totals = totals.astype(np.int64)
    np.fill_diagonal(totals, 0)
    iu = np.triu_indices(n, k=1)
    p = expit(_pair_diffs(b)[iu])
    upper = rng.binomial(totals[iu], p)
    wins = np.zeros((n, n), dtype=np.int64)
    wins[iu] = upper
    wins.T[iu] = totals[iu] - upper
    return ComparisonTable(wins)
