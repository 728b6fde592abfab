"""Paired-comparison model with merit parameters on a reference scale.

Subject i beats subject j in a single comparison with probability
expit(b_i - b_j); the k_ij comparisons of a pair are independent.  The first
subject is the reference and its parameter is fixed at zero, so fits move
n-1 free coordinates.  The maximizer exists exactly when the directed win
graph is strongly connected.
"""

from __future__ import annotations

import itertools
import math
from typing import Optional, Union

import numpy as np
from scipy.special import expit

from .core import (
    TOL_SCORE,
    ClassModel,
    ComparisonTable,
    NullHypothesis,
    Tallies,
    as_model_params,
    class_maps,
    fit_by_classes,
    nonexistent_fit,
    pair_expected,
    pair_information,
    pair_log_likelihood,
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
    return ClassModel(bt_log_likelihood, bt_expected_wins, bt_fisher_info, -1)


def _fit(data, null: Optional[NullHypothesis], tol: float, connected=True):
    """Fit a table, or each table of a stack, under ``null``, or with only the reference fixed when it is None.

    One Fit for a ComparisonTable ``data``, else Fits.  The reference and
    any pinned subjects are fixed and a homogeneous null's subjects 2..r
    tied (core.class_maps).  A table whose pairs are all compared the same
    k > 0 times is balanced, and its free subjects of equal win total share
    a class; when every table is balanced with one k, their tallies hold k
    alone, which core.class_tallies sums by class sizes.  A table that is
    not ``connected`` has no maximizer.
    """
    t = subject_tallies(data)
    k, n = t.degrees.shape
    lead, tied = np.zeros(1), 0
    if null is not None:
        null.validate_for("bt", n)
        if null.kind == "specified":
            lead = np.concatenate([lead, null.values])
        else:
            tied = null.r - 1
    i, j = np.triu_indices(n, k=1)
    pairs = t.totals[..., i, j]
    maps, fixed = class_maps(t.degrees, lead, tied, (pairs[..., 0] > 0) & (pairs == pairs[..., :1]).all(axis=-1))
    if pairs.size and pairs.flat[0] > 0 and np.all(pairs == pairs.flat[0]):
        t = Tallies(t.degrees, pairs.flat[0])  # one count for every pair: class_tallies sums by class sizes
    ready = [None if e else nonexistent_fit(np.zeros(n)) for e in np.broadcast_to(connected, (k,))]
    fits = fit_by_classes(class_model(), t, maps, fixed, tied > 0, ready, tol)
    return fits[0] if isinstance(data, ComparisonTable) else fits


def bt_fit_mle(data, *, tol: float = TOL_SCORE):
    """Fit the n-1 free merit parameters of a table, or of each table of a stack.

    ``data`` is a ComparisonTable, which gives one Fit, or a (k, n, n)
    stack of win matrices or the per-subject Tallies of k tables, which
    give their Fits, fitted together.  Existence is decided up front by
    strong connectivity, which Tallies, holding no direction of wins, are
    taken to have.  The reference is fixed at zero.
    """
    return _fit(data, None, tol, isinstance(data, Tallies) or strongly_connected(data))


def bt_fit_restricted(data, null: NullHypothesis, *, tol: float = TOL_SCORE):
    """Fit under a null constraint on subjects 1..r, for a table or a stack (see bt_fit_mle).

    Specified nulls pin subjects 2..r to given offsets from the reference;
    homogeneous nulls tie subjects 2..r to one common unknown level, while
    the reference stays at zero.  Existence is decided up front from the
    class totals (core.fit_by_classes).
    """
    return _fit(data, null, tol)


def comparison_counts(k, n: int) -> np.ndarray:
    """The n-by-n matrix of comparisons per pair that k gives, a scalar or a matrix.

    A ValueError names k unless its counts are symmetric, nonnegative whole numbers.
    """
    totals = np.full((n, n), k) if np.isscalar(k) else np.asarray(k)
    if totals.shape != (n, n):
        raise ValueError(f"comparison counts 'k' must be a number or an {n}-by-{n} matrix, got shape {totals.shape}")
    if totals.dtype.kind not in "iuf" or not np.all(np.isfinite(totals) & (totals == np.round(totals))):
        raise ValueError("comparison counts 'k' must be whole numbers")
    if not np.array_equal(totals, totals.T) or np.any(totals < 0):
        raise ValueError("comparison counts 'k' must be symmetric and nonnegative")
    return totals


def _inversion_row(g, doubles, n, s, q, qn, bound) -> list:
    """numpy's inversion loop run pair by pair for one generator, on ``doubles`` and then on g.random()."""
    stream = itertools.chain(doubles.tolist(), iter(g.random, None))
    out = []
    for count, sc, qc, start, top in zip(n.tolist(), s.tolist(), q.tolist(), qn.tolist(), bound.tolist()):
        x, px, u = 0, start, next(stream)
        while u > px:
            x += 1
            if x > top:
                x, px, u = 0, start, next(stream)
            else:
                u -= px
                px = ((count - x + 1) * sc * px) / (x * qc)
        out.append(x)
    return out


def _binomial_rows(counts: np.ndarray, p: np.ndarray, gens: list) -> np.ndarray:
    """The draws [g.binomial(counts, p) for g in gens], bit for bit, each g left as that call leaves it.

    Generator.binomial (random_binomial in numpy's distributions.c) draws
    the pairs in turn.  A pair with n = 0 or p = 0 is 0 and reads nothing.
    The others draw X ~ Bin(n, s), s = min(p, 1 - p), and give n - X when
    p > 1/2.  When n s <= 30 that is an inversion of one double u: from
    X = 0 and px = exp(n log1p(-s)), while u > px, X += 1, u -= px and
    px = (n - X + 1) s px / (X q), q = 1 - s.  A pair whose X passes
    min(n, n s + 10 sqrt(n s q + 1)) starts again on a fresh double.
    Here each generator's doubles come in one g.random call and the loop
    runs on all of them at once.  exp and log1p are the C library's,
    through the math module, as numpy's C code calls them; numpy's
    vectorised ones may differ in the last bit.  A row that starts a pair
    again is redone alone from its doubles, then reads on from its
    generator.  With any pair at n s > 30, numpy's other sampler, each
    row is one g.binomial call.
    """
    flip = p > 0.5
    s = np.where(flip, 1.0 - p, p)
    if np.any(s * counts > 30.0):
        return np.array([g.binomial(counts, p) for g in gens], dtype=np.int64).reshape(len(gens), counts.size)
    reads = np.flatnonzero((counts > 0) & (p != 0))
    n, s, m = counts[reads], s[reads], reads.size
    q = 1.0 - s
    qn = np.fromiter(map(math.exp, (n * np.fromiter(map(math.log1p, (-s).tolist()), float, m)).tolist()), float, m)
    mean = n * s
    bound = np.minimum(n, mean + 10.0 * np.sqrt(mean * q + 1.0)).astype(np.int64)
    u = np.array([g.random(m) for g in gens]).reshape(len(gens), m)
    # an entry still going takes step X = step, px is the same for a pair in
    # every row, and an entry that stops keeps X whatever left does after
    left, px = u.copy(), qn
    going = left > px
    x = going.astype(np.int8)  # X <= bound < 30 + 10 sqrt(31)
    redo = np.zeros(len(gens), dtype=bool)
    step, low = 1, bound.min(initial=0)
    while going.any():
        if step > low:
            over = going & (step > bound)
            redo |= over.any(axis=1)
            going &= ~over
        left -= px
        px = ((n - step + 1) * s * px) / (step * q)
        going &= left > px
        x += going
        step += 1
    for r in np.flatnonzero(redo):
        x[r] = _inversion_row(gens[r], u[r], n, s, q, qn, bound)
    out = np.zeros((len(gens), counts.size), dtype=np.int64)
    out[:, reads] = np.where(flip[reads], n - x, x)
    return out


def simulate_comparisons(beta, k, rng):
    """Draw win counts for every pair with totals k (a scalar or a symmetric matrix).

    ``rng`` is one Generator, which gives a ComparisonTable, or a sequence
    of them, which gives a (len(rng), n, n) stack of win matrices, the i-th
    drawn from rng[i] exactly as one table from it: each generator draws
    its upper-triangle pairs in row order as one Generator.binomial call
    would, with the same bits and the same state after (_binomial_rows).
    """
    b = as_model_params(beta, "bt")
    n = b.size
    if n < 3:
        raise ValueError("need at least three subjects")
    totals = comparison_counts(k, n)
    i, j = np.triu_indices(n, k=1)
    pair_totals = totals[i, j].astype(np.int64)
    p = expit(b[i] - b[j])
    one = isinstance(rng, np.random.Generator)
    upper = _binomial_rows(pair_totals, p, [rng] if one else list(rng))
    wins = np.zeros((len(upper), n, n), dtype=np.int64)
    wins[:, i, j] = upper
    wins[:, j, i] = pair_totals - upper
    return ComparisonTable(wins[0]) if one else wins
