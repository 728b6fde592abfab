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
from typing import NamedTuple, Optional, Union

import numpy as np
from scipy.special import expit

from . import core
from .core import (
    MAX_TABLE_COMPARISONS,
    TOL_SCORE,
    ClassModel,
    ComparisonTable,
    NullHypothesis,
    Tallies,
    as_model_params,
    class_maps,
    fit_by_classes,
    pair_expected,
    pair_information,
    pair_log_likelihood,
    pair_rows,
)

DRAW_BLOCK = 32  # generators that simulate_comparisons draws together, at most


class ComparisonStack(NamedTuple):
    """Tables drawn on one design, as their win totals: Tallies(wins (k, n), totals) and a mask of the strongly connected ones.

    ``totals`` is the design's pair counts, a number for every pair or an
    (n, n) matrix (comparison_counts); simulate_comparisons draws a stack
    for a list of generators.
    """

    tallies: Tallies
    connected: np.ndarray


def _params(beta, table: Union[ComparisonTable, Tallies]):
    return beta if isinstance(table, Tallies) else as_model_params(beta, "bt", table.n)


def bt_log_likelihood(beta, table: Union[ComparisonTable, Tallies]):
    """Log-likelihood of the win counts.

    Beta holds one value per subject of a ComparisonTable, or, unchecked,
    one per class of Tallies, the reference's class first.  A stack of
    tallies with one row of beta each gives one log-likelihood per row.
    """
    return pair_log_likelihood(_params(beta, table), table, -1)


def bt_expected_wins(beta, table: Union[ComparisonTable, Tallies]) -> np.ndarray:
    """Expected wins of each subject, or each class's total (see bt_log_likelihood)."""
    return pair_expected(_params(beta, table), table, -1)


def bt_score(beta, table: ComparisonTable) -> np.ndarray:
    """Gradient in the free coordinates (subjects 2..n)."""
    return (table.degrees - bt_expected_wins(beta, table))[1:]


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


def landau_connected(wins: np.ndarray, k) -> np.ndarray:
    """Whether each table of win totals ``wins`` (..., n), every pair compared k times, is strongly connected.

    A set of m subjects wins at least its k m(m-1)/2 comparisons within,
    and exactly that when it beats no one outside, so a table is strongly
    connected iff its m lowest win totals sum to more than k m(m-1)/2 for
    every 1 <= m < n (Landau 1953).
    """
    m = np.arange(1, wins.shape[-1])
    return (np.cumsum(np.sort(wins, axis=-1), axis=-1)[..., :-1] > k * (m * (m - 1) // 2)).all(axis=-1)


def class_model() -> ClassModel:
    """The comparison model's functions for core.fit_by_classes, read anew on each call so wrappers take effect."""
    return ClassModel(bt_log_likelihood, bt_expected_wins, bt_fisher_info, -1)


def shared_count(totals):
    """A design's pair counts ``totals`` as the one count every pair i != j shares, if any, else as given.

    A design is balanced iff this is a number above zero.
    """
    if np.ndim(totals) == 0:
        return totals
    pairs = totals[np.triu_indices(len(totals), k=1)]
    return pairs[0] if pairs.size and np.all(pairs == pairs[0]) else totals


def _fit(data, null: Optional[NullHypothesis], tol: float):
    """Fit a table, or each table of a stack, under ``null``, or with only the reference fixed when it is None.

    One Fit for a ComparisonTable ``data``, else Fits.  The reference and
    any pinned subjects are fixed and a homogeneous null's subjects 2..r
    tied (core.class_maps).  A stack's pair counts are one number or one
    (n, n) matrix, else a ValueError.  On a balanced design (shared_count)
    free subjects of equal win total share a class, and the tallies hold
    the one count, summed by class sizes.  Without a null, a table that is
    not strongly connected has no maximizer.
    """
    if isinstance(data, ComparisonTable):
        t, connected = Tallies(data.degrees[None], data.totals), null is not None or strongly_connected(data)
    else:
        t, connected = data.tallies, null is not None or data.connected
    k, n = t.degrees.shape
    if np.ndim(t.totals) and np.shape(t.totals) != (n, n):
        raise ValueError(f"a stack's pair counts must be a number or an {n}-by-{n} matrix, got {np.shape(t.totals)}")
    lead, tied = np.zeros(1), 0
    if null is not None:
        null.validate_for("bt", n)
        if null.kind == "specified":
            lead = np.concatenate([lead, null.values])
        else:
            tied = null.r - 1
    count = shared_count(t.totals)
    maps, fixed = class_maps(t.degrees, lead, tied, np.ndim(count) == 0 and count > 0)
    fits = fit_by_classes(class_model(), Tallies(t.degrees, count), maps, fixed, tied > 0, ~np.asarray(connected), tol)
    return fits[0] if isinstance(data, ComparisonTable) else fits


def bt_fit_mle(data, *, tol: float = TOL_SCORE):
    """Fit the n-1 free merit parameters of a table, or of each table of a stack.

    ``data`` is a ComparisonTable, which gives one Fit, or the
    ComparisonStack of k tables on one design (win totals (k, n) and pair
    counts, a number or an (n, n) matrix), which gives their Fits, fitted
    together.  Existence is decided up front by strong connectivity: a
    table's own, or a stack's mask.  The reference is fixed at zero.
    """
    return _fit(data, None, tol)


def bt_fit_restricted(data, null: NullHypothesis, *, tol: float = TOL_SCORE):
    """Fit under a null constraint on subjects 1..r, for a table or a stack (see bt_fit_mle).

    Specified nulls pin subjects 2..r to given offsets from the reference;
    homogeneous nulls tie subjects 2..r to one common unknown level, while
    the reference stays at zero.  Existence is decided up front from the
    class totals (core.fit_by_classes).
    """
    return _fit(data, null, tol)


def comparison_counts(k, n: int):
    """The comparisons per pair that k gives: a whole number for every pair, or an n-by-n matrix.

    A number gives an int; a matrix gives an int64 copy with a zero
    diagonal, which no pair reads.  A ValueError names k unless its counts
    are symmetric, nonnegative whole numbers, at most 2**52 over the pairs
    i < j in all, as a ComparisonTable holds.
    """
    totals = np.asarray(k)
    if totals.ndim and totals.shape != (n, n):
        raise ValueError(f"comparison counts 'k' must be a number or an {n}-by-{n} matrix, got shape {totals.shape}")
    if totals.dtype.kind not in "iuf" or not np.all(np.isfinite(totals) & (totals == np.round(totals))):
        raise ValueError("comparison counts 'k' must be whole numbers")
    if not np.array_equal(totals, totals.T) or np.any(totals < 0):
        raise ValueError("comparison counts 'k' must be symmetric and nonnegative")
    if totals.ndim:  # summed as Python integers, which cannot wrap
        every = sum(map(int, totals[np.triu_indices(n, k=1)].tolist()))
    else:
        every = int(totals) * (n * (n - 1) // 2)
    if every > MAX_TABLE_COMPARISONS:
        raise ValueError(f"comparison counts 'k' must number at most 2**52 = {MAX_TABLE_COMPARISONS} in all")
    if not totals.ndim:
        return int(totals)
    totals = totals.astype(np.int64)
    np.fill_diagonal(totals, 0)
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


def _binomial_rows(counts: np.ndarray, p: np.ndarray):
    """The draw gens -> [g.binomial(counts, p) for g in gens], bit for bit, each g left as that call leaves it.

    Generator.binomial (random_binomial in numpy's distributions.c) draws
    the pairs in turn.  A pair with n = 0 or p = 0 is 0 and reads nothing.
    The others draw X ~ Bin(n, s), s = min(p, 1 - p), and give n - X when
    p > 1/2.  When n s <= 30 that is an inversion of one double u: from
    X = 0 and px = exp(n log1p(-s)), while u > px, X += 1, u -= px and
    px = (n - X + 1) s px / (X q), q = 1 - s.  A pair whose X passes
    min(n, n s + 10 sqrt(n s q + 1)) starts again on a fresh double.
    These constants are set up here, once for every call of the draw.
    There each generator's doubles come in one g.random call and the loop
    runs on all of them at once.  exp and log1p are the C library's,
    through the math module, as numpy's C code calls them; numpy's
    vectorised ones may differ in the last bit.  A row that starts a pair
    again is redone alone from its doubles, then reads on from its
    generator.  With any pair at n s > 30, numpy's other sampler, each
    row is one g.binomial call.  Any cache numpy keeps between pairs holds
    only their constants, so consecutive calls on consecutive pairs draw
    as one call on all of them.
    """
    flip = p > 0.5
    s = np.where(flip, 1.0 - p, p)
    if np.any(s * counts > 30.0):
        return lambda gens: np.array([g.binomial(counts, p) for g in gens], dtype=np.int64).reshape(len(gens), -1)
    reads = np.flatnonzero((counts > 0) & (p != 0))
    n, s, m = counts[reads], s[reads], reads.size
    q = 1.0 - s
    qn = np.fromiter(map(math.exp, (n * np.fromiter(map(math.log1p, (-s).tolist()), float, m)).tolist()), float, m)
    mean = n * s
    bound = np.minimum(n, mean + 10.0 * np.sqrt(mean * q + 1.0)).astype(np.int64)
    low = bound.min(initial=0)

    def draw(gens: list) -> np.ndarray:
        u = np.array([g.random(m) for g in gens]).reshape(len(gens), m)
        # an entry still going takes step X = step, px is the same for a pair in
        # every row, and an entry that stops keeps X whatever left does after
        left, px = u.copy(), qn
        going = left > px
        x = going.astype(np.int8)  # X <= bound < 30 + 10 sqrt(31)
        redo = np.zeros(len(gens), dtype=bool)
        step = 1
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
        del u, left  # freed before the draws' array, which the flips then fill in place
        out = np.zeros((len(gens), counts.size), dtype=np.int64)
        out[:, reads] = x
        return np.subtract(counts, out, out=out, where=flip)

    return draw


def _pair_block(b: np.ndarray, counts, top: int, i: np.ndarray, j: np.ndarray, starts: np.ndarray):
    """The draw of one block of whole rows of pairs (i, j), rows top.., as a function of a block of generators.

    ``draw(gens, wins, tables)`` adds the block's share of each
    generator's win totals to ``wins`` (len(gens), n), taken from its
    upper-triangle draws, and, unless ``tables`` is None, writes its wins
    into those (len(gens), n, n) win matrices.  A row's pairs are
    consecutive, so its wins sum by np.add.reduceat; a column's come in one
    stable sort of j, the same for every generator.
    """
    pair = counts[i, j] if np.ndim(counts) else np.full(i.size, counts, dtype=np.int64)
    binomial = _binomial_rows(pair, expit(b[i] - b[j]))
    by_col = np.argsort(j, kind="stable")
    cols = np.flatnonzero(np.diff(j[by_col], prepend=-1))  # where each column top+1..n-1 starts
    lost = np.add.reduceat(pair[by_col], cols)

    def draw(gens: list, wins: np.ndarray, tables: Optional[np.ndarray]) -> None:
        upper = binomial(gens)
        wins[:, top:top + starts.size] += np.add.reduceat(upper, starts, axis=1)
        wins[:, top + 1:] += lost - np.add.reduceat(upper[:, by_col], cols, axis=1)
        if tables is not None:
            tables[:, i, j] = upper
            tables[:, j, i] = pair - upper

    return draw


def simulate_comparisons(beta, k, rng):
    """Draw win counts for every pair with totals k, a number or a symmetric matrix (comparison_counts).

    ``rng`` is one Generator, which gives a ComparisonTable, or an iterable
    of them, which gives the ComparisonStack of their tables, the i-th
    drawn from the i-th generator exactly as one table from it: each
    generator draws its upper-triangle pairs in row order as one
    Generator.binomial call would, with the same bits and the same state
    after (_binomial_rows).  The generators are read and drawn DRAW_BLOCK
    at a time, so a stack keeps only one block of them; the pairs are drawn
    a block of whole rows at a time (at most core.PAIR_BLOCK pairs, or one
    row, core.pair_rows), each generator's in turn.  Each block's set-up
    (expit, the inversion constants, the row and column sums) is made once
    per call when the pairs fit in one block, else once per block of
    generators.  A stack holds each table's win totals, the design's
    counts (shared_count) and whether each table is strongly connected: on
    a design with one count for every pair, by landau_connected on the
    totals, and on any other by
    strongly_connected on one block of generators' win matrices at a time.
    """
    b = as_model_params(beta, "bt")
    n = b.size
    if n < 3:
        raise ValueError("need at least three subjects")
    counts = shared_count(comparison_counts(k, n))
    one = isinstance(rng, np.random.Generator)

    def blocks():
        return (_pair_block(b, counts, *rows) for rows in pair_rows(n))

    ready = list(blocks()) if n * (n - 1) // 2 <= core.PAIR_BLOCK else None
    gens = iter([rng] if one else rng)
    wins, connected = [np.zeros((0, n), dtype=np.int64)], [np.zeros(0, dtype=bool)]
    while block := list(itertools.islice(gens, DRAW_BLOCK)):
        w = np.zeros((len(block), n), dtype=np.int64)
        tables = np.zeros((len(block), n, n), dtype=np.int64) if one or np.ndim(counts) else None
        for draw in ready or blocks():
            draw(block, w, tables)
        if one:
            return ComparisonTable(tables[0])
        wins.append(w)
        connected.append(strongly_connected(tables) if np.ndim(counts) else landau_connected(w, counts))
    return ComparisonStack(Tallies(np.concatenate(wins), counts), np.concatenate(connected))
