"""Paired-comparison model with merit parameters on a reference scale.

Subject i beats subject j in a single comparison with probability
expit(b_i - b_j); the k_ij comparisons of a pair are independent.  The first
subject is the reference and its parameter is fixed at zero, so fits move
n-1 free coordinates.  The maximizer exists exactly when the directed win
graph is strongly connected.
"""

from __future__ import annotations

from typing import Union

import numpy as np
from scipy.special import expit

from .core import (
    TOL_SCORE,
    ClassModel,
    ComparisonTable,
    Fit,
    NullHypothesis,
    Tallies,
    as_model_params,
    fit_by_classes,
    nonexistent_fit,
    pair_expected,
    pair_indices,
    pair_information,
    pair_log_likelihood,
    sum_bins,
)


def subject_tallies(data) -> Tallies:
    """Per-subject tallies of a ComparisonTable or a (k, n, n) stack of win matrices, as a stack.

    Tallies are returned as they are.
    """
    if isinstance(data, Tallies):
        return data
    if isinstance(data, ComparisonTable):
        return Tallies(data.degrees[None], data.totals)
    w = np.asarray(data)
    return Tallies(w.sum(axis=-1), w + np.swapaxes(w, -1, -2))


def class_tallies(table, classes: np.ndarray) -> Tallies:
    """Tallies of a table, or of a stack's tables, over the class index of each subject.

    ``table`` is a ComparisonTable or per-subject Tallies, and ``classes``
    one map for every table or one map per table.  The comparison counts
    are summed into classes by products with each map's 0/1 membership
    matrix, which is exact since they are integers; tables that share their
    counts are not copied per map.
    """
    c = int(classes.max()) + 1
    member = (classes[..., :, None] == np.arange(c)).astype(float)
    counts = np.swapaxes(member, -1, -2) @ np.asarray(table.totals, dtype=float) @ member
    return Tallies(sum_bins(table.degrees, classes, c), counts)


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
    return pair_log_likelihood(_params(beta, table), table, -1)


def bt_expected_wins(beta, table: Union[ComparisonTable, Tallies]) -> np.ndarray:
    """Expected wins of each subject, or each class's total (see bt_log_likelihood)."""
    return pair_expected(_params(beta, table), table, -1)


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
    return pair_information(_params(beta, table), table, -1)


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


def class_model() -> ClassModel:
    """The comparison model's functions for core.fit_by_classes, read anew on each call so wrappers take effect."""
    return ClassModel(
        lambda t, rows: Tallies(t.degrees[rows], t.totals if t.totals.ndim == 2 else t.totals[rows]),
        class_tallies, bt_log_likelihood, lambda b, t: t.degrees - bt_expected_wins(b, t), bt_fisher_info, -1,
    )


def _fit_classes(data, t: Tallies, plain: tuple, merged: tuple, tied: bool, ready: list, tol: float):
    """Fit the tables of ``t`` that ``ready`` leaves open; one Fit for a ComparisonTable ``data``, else Fits.

    ``plain`` and ``merged`` are (head, fixed) pairs: ``head`` maps the
    leading subjects to the first classes, the fixed ones first, which hold
    the values ``fixed``.  When every pair of a table is compared the same
    k > 0 times, free subjects of equal win total share the maximizer (the
    likelihood is strictly concave and unchanged by swapping them), so such
    a table takes ``merged`` and one class per free win total; any other
    takes ``plain`` and one class per free subject.
    """
    (k, n), r = t.degrees.shape, plain[0].size
    i, j = pair_indices(n)
    pairs = t.totals[..., i, j]
    balanced = np.broadcast_to((pairs[..., 0] > 0) & (pairs == pairs[..., :1]).all(axis=-1), (k,))[:, None]
    # the rank of each free win total among its table's distinct ones
    order = np.argsort(t.degrees[:, r:], axis=1)
    rises = np.diff(np.take_along_axis(t.degrees[:, r:], order, axis=1), axis=1) > 0
    rank = np.zeros((k, n - r), dtype=int)
    np.put_along_axis(rank, order[:, 1:], np.cumsum(rises, axis=1), axis=1)
    maps = np.concatenate([
        np.where(balanced, merged[0], plain[0]),
        np.where(balanced, rank + merged[0].max() + 1, np.arange(n - r) + plain[0].max() + 1),
    ], axis=1)
    fixed = [merged[1] if b else plain[1] for b in balanced[:, 0]]
    fits = fit_by_classes(class_model(), t, maps, fixed, tied, ready, tol)
    return fits[0] if isinstance(data, ComparisonTable) else fits


def bt_fit_mle(data, *, tol: float = TOL_SCORE):
    """Fit the n-1 free merit parameters of a table, or of each table of a stack.

    ``data`` is a ComparisonTable, which gives one Fit, or a (k, n, n)
    stack of win matrices or the per-subject Tallies of k tables, which
    give their Fits, fitted together.  Existence is decided up front by
    strong connectivity, which Tallies, holding no direction of wins, are
    taken to have.  Newton steps start from zero on every subject but the
    reference, with one class per free subject or, in a table whose pairs
    are all compared equally often, per free win total.
    """
    t = subject_tallies(data)
    k, n = t.degrees.shape
    wins = data.wins[None] if isinstance(data, ComparisonTable) else data
    connected = np.ones(k, dtype=bool) if isinstance(data, Tallies) else strongly_connected(wins)
    ready = [None if e else nonexistent_fit(np.zeros(n)) for e in connected]
    lead = (np.zeros(1, dtype=int), np.zeros(1))
    return _fit_classes(data, t, lead, lead, False, ready, tol)


def bt_fit_restricted(data, null: NullHypothesis, *, tol: float = TOL_SCORE):
    """Fit under a null constraint on subjects 1..r, for a table or a stack (see bt_fit_mle).

    Specified nulls pin subjects 2..r to given offsets from the reference;
    homogeneous nulls tie subjects 2..r to one common unknown level, while
    the reference stays at zero.  Existence is decided from the win and
    pair totals.
    """
    t = subject_tallies(data)
    d = t.degrees
    n = d.shape[1]
    null.validate_for("bt", n)
    r = null.r
    played = np.broadcast_to(t.totals.sum(axis=-1), d.shape)
    free_boundary = ((d[:, r:] == 0) | (d[:, r:] == played[:, r:])).any(axis=1)
    if null.kind == "specified":
        base = np.concatenate([[0.0], null.values, np.zeros(n - r)])
        if r == n:
            ll = bt_log_likelihood(np.tile(base, (len(d), 1)), class_tallies(t, np.arange(n)))
            ready = [Fit(base.copy(), float(value), 0, True, True, 0.0) for value in ll]
        else:
            ready = [nonexistent_fit(base) if lost else None for lost in free_boundary]
        # the reference and the pinned subjects are fixed classes; a balanced table merges
        # equal pinned values, numbered by first appearance so the reference's class is first
        _, first, inverse = np.unique(base[:r], return_index=True, return_inverse=True)
        merged = (np.argsort(np.argsort(first))[inverse], base[np.sort(first)])
        return _fit_classes(data, t, (np.arange(r), base[:r]), merged, False, ready, tol)
    # Cross-block win totals decide existence for the block's shared level: the
    # block's wins over the rest are its win total less one per comparison within it
    within = t.totals[..., 1:r, 1:r].sum(axis=(-2, -1))
    cross_wins = d[:, 1:r].sum(axis=1) - within // 2
    cross_total = played[:, 1:r].sum(axis=1) - within
    lost = free_boundary | ((cross_total > 0) & ((cross_wins == 0) | (cross_wins == cross_total)))
    # class 0 is the reference, class 1 the tied block, then the free classes
    lead = (np.concatenate([[0], np.ones(r - 1, dtype=int)]), np.zeros(1))
    return _fit_classes(data, t, lead, lead, True, [nonexistent_fit(np.zeros(n)) if x else None for x in lost], tol)


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
