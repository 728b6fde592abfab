"""Paired-comparison model with merit parameters on a reference scale.

Subject i beats subject j in a single comparison with probability
expit(b_i - b_j); the k_ij comparisons of a pair are independent.  The first
subject is the reference and its parameter is fixed at zero, so fits move
n-1 free coordinates.  The maximizer exists exactly when the directed win
graph is strongly connected.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Union

import numpy as np
from scipy.special import expit

from .core import (
    TOL_SCORE,
    ClassModel,
    ComparisonTable,
    Fit,
    NullHypothesis,
    as_model_params,
    fit_by_classes,
    nonexistent_fit,
    pair_indices,
    sum_bins,
)


def _pair_diffs(beta: np.ndarray) -> np.ndarray:
    return beta[..., :, None] - beta[..., None, :]


class Tallies(NamedTuple):
    """Win totals (..., c) and comparison counts (..., c, c) of classes of subjects.

    Comparisons within a class sit on the diagonal of ``totals``.  The
    leading axes, if any, stack tables.  A ComparisonTable has the same two
    fields, with one class per subject.
    """

    degrees: np.ndarray
    totals: np.ndarray


def class_tallies(wins: np.ndarray, classes: np.ndarray) -> Tallies:
    """Tallies of a win matrix, or a stack of them, over the class index of each subject.

    ``classes`` is one map for every matrix or one map per matrix.  The
    comparison counts are summed into classes along columns, then along
    rows, which is exact since they are integers.
    """
    w = np.asarray(wins)
    c = int(classes.max()) + 1
    cols = classes[..., None, :]
    half = sum_bins(w + np.swapaxes(w, -1, -2), cols, c)
    # half[i, a] sums subject i's comparisons with class a; the counts are symmetric
    return Tallies(sum_bins(w.sum(axis=-1), classes, c), sum_bins(np.swapaxes(half, -1, -2), cols, c))


def _params(beta, table: Union[ComparisonTable, Tallies]) -> np.ndarray:
    b = as_model_params(beta, "bt", stacked=True)
    if b.shape[-1] != table.totals.shape[-1]:
        raise ValueError(f"parameter length {b.shape[-1]} does not match n={table.totals.shape[-1]}")
    return b


def bt_log_likelihood(beta, table: Union[ComparisonTable, Tallies]):
    """Log-likelihood of the win counts.

    Beta holds one value per subject of a ComparisonTable, or one per class
    of Tallies, the reference's class first.  With a stack of tallies and
    one row of beta per table, the result holds one log-likelihood per row.
    """
    b = _params(beta, table)
    c = b.shape[-1]
    i, j = pair_indices(c)
    # np.take lays a stack's pairs out row by row (an index gather would lay
    # them out column by column), so each table's sum below adds its terms in
    # the same order alone or in a stack
    bi, bj = np.take(b, i, axis=-1), np.take(b, j, axis=-1)
    pairs = np.take(table.totals.reshape(table.totals.shape[:-2] + (c * c,)), i * c + j, axis=-1)
    # each comparison of a pair i < j adds log(e^b_i + e^b_j), one exp per pair;
    # the diagonal counts each comparison within a class twice, and each adds b_i + log 2
    lse = np.maximum(bi, bj) + np.log1p(np.exp(-np.abs(bi - bj)))
    within = 0.5 * np.diagonal(table.totals, axis1=-2, axis2=-1)
    wins = (b[..., None, :] @ (table.degrees - within)[..., :, None])[..., 0, 0]
    return wins - (pairs * lse).sum(axis=-1) - math.log(2.0) * within.sum(axis=-1)


def bt_expected_wins(beta, table: Union[ComparisonTable, Tallies]) -> np.ndarray:
    """Expected wins of each subject, or each class's total (see bt_log_likelihood)."""
    b = _params(beta, table)
    p = _pair_diffs(b)
    expit(p, out=p)
    p *= table.totals
    return p.sum(axis=-1)


def bt_score(beta, table: ComparisonTable) -> np.ndarray:
    """Gradient in the free coordinates (subjects 2..n)."""
    b = as_model_params(beta, "bt")
    return (table.degrees - bt_expected_wins(b, table))[1:]


def bt_fisher_info(beta, table: Union[ComparisonTable, Tallies]) -> np.ndarray:
    """Information matrix over every subject or class (see bt_log_likelihood).

    Off-diagonal (i, j) holds -k_ij v_ij; the diagonal sums k_ij v_ij over
    every opponent.  k counts the comparisons between two classes, and those
    within a class carry no information.  The free coordinates of a table
    are the block past the reference's row and column.
    """
    b = _params(beta, table)
    p = expit(_pair_diffs(b))
    w = table.totals * p
    # expit(-d) is p transposed, since b_j - b_i is exactly -(b_i - b_j)
    w *= np.swapaxes(p, -1, -2)
    diag = np.arange(b.shape[-1])
    w[..., diag, diag] = 0.0
    row = w.sum(axis=-1)
    w *= -1.0
    w[..., diag, diag] = row
    return w


def strongly_connected(wins):
    """True when the directed graph with an arc i -> j for each win is strongly connected.

    ``wins`` is a ComparisonTable, a win matrix, or a stack of win matrices,
    which gives one answer per matrix.  The graph is strongly connected when
    the reference reaches every subject and every subject reaches it: both
    sets grow along the arcs, one batched product a step, until no table's
    sets change.
    """
    w = wins.wins if isinstance(wins, ComparisonTable) else np.asarray(wins)
    arcs = (w > 0).astype(np.float32)
    ways = np.stack([arcs, np.swapaxes(arcs, -1, -2)], axis=-3)
    seen = np.zeros(ways.shape[:-1], dtype=np.float32)
    seen[..., 0] = 1.0
    for _ in range(w.shape[-1] - 1):
        grown = np.minimum(seen + (seen[..., None, :] @ ways)[..., 0, :], 1.0)
        if np.array_equal(grown, seen):
            break
        seen = grown
    every = seen.all(axis=(-2, -1))
    return bool(every) if every.ndim == 0 else every


def _bt_saturated(beta: np.ndarray, wins: np.ndarray, tol: float) -> np.ndarray:
    # a compared pair whose merit difference reaches -log(tol) leaves a win
    # residual the score test cannot tell from zero; a tied block escaping
    # jointly stalls there without tripping the coordinate cap
    i, j = pair_indices(beta.shape[-1])
    compared = (wins[..., i, j] + wins[..., j, i]) > 0
    gap = np.where(compared, np.abs(beta[..., i] - beta[..., j]), -np.inf)
    return gap.max(axis=-1) >= -math.log(tol)


def class_model() -> ClassModel:
    """The comparison model's functions for core.fit_by_classes, read anew on each call so wrappers take effect."""
    return ClassModel(
        class_tallies, bt_log_likelihood, lambda b, t: t.degrees - bt_expected_wins(b, t), bt_fisher_info, _bt_saturated
    )


def bt_fit_mle(data: Union[ComparisonTable, np.ndarray], *, tol: float = TOL_SCORE):
    """Fit the n-1 free merit parameters of a table, or of each win matrix of a (k, n, n) stack.

    Existence is decided up front by strong connectivity.  Newton steps
    start from zero on every subject but the reference, each its own class;
    a stack's tables are fitted together, and a table gives one Fit, a
    stack its Fits.
    """
    one = isinstance(data, ComparisonTable)
    wins = data.wins[None] if one else np.asarray(data)
    n = wins.shape[-1]
    ready = [None if e else nonexistent_fit(np.zeros(n)) for e in strongly_connected(wins)]
    fits = fit_by_classes(class_model(), wins, [np.arange(n)] * len(wins), np.zeros(1), False, ready, tol)
    return fits[0] if one else fits


def bt_fit_restricted(
    data: Union[ComparisonTable, np.ndarray], null: NullHypothesis, *, tol: float = TOL_SCORE
):
    """Fit under a null constraint on subjects 1..r, for a table or a stack (see bt_fit_mle).

    Specified nulls pin subjects 2..r to given offsets from the reference;
    homogeneous nulls tie subjects 2..r to one common unknown level, while
    the reference stays at zero.
    """
    one = isinstance(data, ComparisonTable)
    wins = data.wins[None] if one else np.asarray(data)
    n = wins.shape[-1]
    null.validate_for("bt", n)
    r = null.r
    d = wins.sum(axis=-1)
    k_row = d + wins.sum(axis=-2)
    free_boundary = ((d[:, r:] == 0) | (d[:, r:] == k_row[:, r:])).any(axis=1)
    if null.kind == "specified":
        base = np.concatenate([[0.0], null.values, np.zeros(n - r)])
        if r == n:
            ll = bt_log_likelihood(np.tile(base, (len(wins), 1)), class_tallies(wins, np.arange(n)))
            ready = [Fit(base.copy(), float(value), 0, True, True, 0.0) for value in ll]
        else:
            ready = [nonexistent_fit(base) if lost else None for lost in free_boundary]
        # the reference and the pinned subjects are fixed classes, every other subject its own
        fits = fit_by_classes(class_model(), wins, [np.arange(n)] * len(wins), base[:r], False, ready, tol)
        return fits[0] if one else fits
    # Cross-block win totals decide existence for the block's shared level.
    tied = np.arange(1, r)
    outside = np.concatenate(([0], np.arange(r, n)))
    cross_wins = wins[:, tied][:, :, outside].sum(axis=(1, 2))
    cross_total = cross_wins + wins[:, outside][:, :, tied].sum(axis=(1, 2))
    lost = free_boundary | ((cross_total > 0) & ((cross_wins == 0) | (cross_wins == cross_total)))
    ready = [nonexistent_fit(np.zeros(n)) if x else None for x in lost]
    # class 0 is the reference, class 1 the tied block, then one class per tail subject
    classes = np.concatenate([[0], np.ones(r - 1, dtype=int), np.arange(2, n - r + 2)])
    fits = fit_by_classes(class_model(), wins, [classes] * len(wins), np.zeros(1), True, ready, tol)
    return fits[0] if one else fits


def simulate_comparisons(beta, k, rng):
    """Draw win counts for every pair with totals k (a scalar or a symmetric matrix).

    ``rng`` is one Generator, which gives a ComparisonTable, or a sequence
    of them, which gives a (len(rng), n, n) stack of win matrices, the i-th
    drawn from rng[i] exactly as one table from it.
    """
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
    i, j = pair_indices(n)
    pair_totals = totals[i, j].astype(np.int64)
    p = expit(b[i] - b[j])
    one = isinstance(rng, np.random.Generator)
    upper = np.array([g.binomial(pair_totals, p) for g in ([rng] if one else rng)])
    wins = np.zeros((len(upper), n, n), dtype=np.int64)
    wins[:, i, j] = upper
    wins[:, j, i] = pair_totals - upper
    return ComparisonTable(wins[0]) if one else wins
