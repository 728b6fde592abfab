"""Data containers and text ingestion for graphs and paired-comparison tables.

Node ids are 0-based everywhere.  Text inputs accept blank lines and '#'
comments; an optional first content line ``n=<count>`` declares the node
count, otherwise it is inferred as one plus the largest id seen.
"""

from __future__ import annotations

import io
import math
from collections import namedtuple
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple, Optional

import numpy as np

MIN_NODES = 3
MAX_NEWTON = 100
DIVERGENCE_CAP = 40.0
TOL_SCORE = 1e-8
MAX_TABLE_COMPARISONS = 2**52  # so every sum of w + w.T, at most twice this, is exact in a double
PAIR_BLOCK = 2**16  # pairs that pair_rows yields at a time, at most: a draw holds one block


class DataFormatError(ValueError):
    """An input stream violates the documented text format."""


class NonexistentMLEError(RuntimeError):
    """A requested maximizer does not exist, so downstream quantities are undefined."""

    def __init__(self, message: str, *, exists_full: bool = True, exists_null: bool = True):
        super().__init__(message)
        self.exists_full = exists_full
        self.exists_null = exists_null


def _content_lines(text: str) -> Iterator[tuple[int, str]]:
    """Yield (line_number, payload) pairs with comments and blanks stripped."""
    for lineno, raw in enumerate(io.StringIO(text), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            yield lineno, body


def _parse_int(token: str, lineno: int, what: str) -> int:
    try:
        value = int(token)
    except ValueError:
        raise DataFormatError(f"line {lineno}: {what} {token!r} is not an integer") from None
    if not -(2**63) <= value < 2**63:
        raise DataFormatError(f"line {lineno}: {what} {token!r} is beyond the 64-bit integer range")
    return value


def _parse_header(body: str, lineno: int) -> int:
    n = _parse_int(body[2:].strip(), lineno, "node count")
    if n < MIN_NODES:
        raise DataFormatError(f"line {lineno}: need at least {MIN_NODES} nodes, got {n}")
    return n


@dataclass(frozen=True, eq=False)
class UndirectedGraph:
    """Simple undirected graph on nodes 0..n-1, held as its edge set.

    ``edges`` lists each edge once as a row (i, j) with i < j, rows sorted,
    and ``degrees`` counts each node's edges; both are read-only.  Build one
    with ``from_edges``, which validates and deduplicates the pairs.
    """

    n: int
    edges: np.ndarray
    degrees: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        d = np.bincount(self.edges.ravel(), minlength=self.n)  # before setflags: bincount copies a read-only array
        self.edges.setflags(write=False)
        d.setflags(write=False)
        object.__setattr__(self, "degrees", d)

    @property
    def edge_count(self) -> int:
        return self.edges.shape[0]

    @classmethod
    def from_edges(cls, n: int, edges) -> "UndirectedGraph":
        """Graph on n nodes from (i, j) pairs of integer ids; duplicate edges collapse.

        Pairs are ordered by the int64 key i*n + j, whose largest value,
        n(n - 1) - 1, must not wrap: a larger n is a ValueError, raised
        before any n-sized allocation.
        """
        if n < MIN_NODES:
            raise ValueError(f"need at least {MIN_NODES} nodes, got {n}")
        if int(n) * (int(n) - 1) > 2**63:
            raise ValueError(f"n={n} is too large: pair keys i*n + j would pass the 64-bit integer range")
        e = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges))
        if e.shape == (0,):
            e = np.zeros((0, 2), dtype=np.int64)
        if e.ndim != 2 or e.shape[1] != 2 or not np.issubdtype(e.dtype, np.integer):
            raise ValueError("edges must be (i, j) pairs of integer node ids")
        pairs = e.astype(np.int64, copy=False)  # unsigned ids of 2**63 and up turn negative
        lo, hi = np.minimum(pairs[:, 0], pairs[:, 1]), np.maximum(pairs[:, 0], pairs[:, 1])
        bad = (lo < 0) | (hi >= n) | (lo == hi)
        if bad.any():
            i, j = e[np.argmax(bad)].tolist()
            if i == j and 0 <= i < n:
                raise ValueError(f"self-loop at node {i}")
            raise ValueError(f"edge ({i},{j}) out of range for n={n}")
        # one key i*n + j per pair with i < j; unless the keys already rise,
        # a sort and a neighbour mask put them in order and drop repeats,
        # much faster than np.unique
        keys = lo * n + hi
        if np.any(keys[1:] <= keys[:-1]):
            keys = np.sort(keys)
            first = np.ones(keys.size, dtype=bool)
            first[1:] = keys[1:] != keys[:-1]
            lo, hi = np.divmod(keys[first], n)
        return cls(n, np.column_stack((lo, hi)))

    def to_text(self) -> str:
        out = [f"n={self.n}"]
        out.extend(f"{i} {j}" for i, j in self.edges.tolist())
        return "\n".join(out) + "\n"


@dataclass(frozen=True, eq=False)
class ComparisonTable:
    """Directed win counts between subjects; ``wins[i, j]`` is how often i beat j, at most 2**52 times in all."""

    wins: np.ndarray
    degrees: np.ndarray = field(init=False)
    _totals: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        w = np.asarray(self.wins)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError("wins matrix must be square")
        if w.shape[0] < MIN_NODES:
            raise ValueError(f"need at least {MIN_NODES} subjects, got {w.shape[0]}")
        if not np.issubdtype(w.dtype, np.integer):
            if not np.array_equal(w, np.round(w)):
                raise ValueError("win counts must be integers")
        w = w.astype(np.int64)
        if np.any(w < 0):
            raise ValueError("win counts must be nonnegative")
        if np.any(np.diag(w) != 0):
            raise ValueError("self-comparisons are not allowed")
        if sum(w.ravel().tolist()) > MAX_TABLE_COMPARISONS:  # summed as Python integers, which cannot wrap
            raise ValueError(f"a table's comparisons must number at most 2**52 = {MAX_TABLE_COMPARISONS} in all")
        w.setflags(write=False)
        t = w + w.T
        t.setflags(write=False)
        object.__setattr__(self, "wins", w)
        object.__setattr__(self, "degrees", w.sum(axis=1))
        object.__setattr__(self, "_totals", t)

    @property
    def n(self) -> int:
        return self.wins.shape[0]

    @property
    def totals(self) -> np.ndarray:
        """Symmetric matrix of comparison counts per pair, computed once."""
        return self._totals

    def to_text(self) -> str:
        out = [f"n={self.n}"]
        nz = np.argwhere(self.wins > 0)
        out.extend(f"{i},{j},{self.wins[i, j]}" for i, j in nz)
        return "\n".join(out) + "\n"


def as_model_params(beta, model: str, n: Optional[int] = None) -> np.ndarray:
    """Return ``beta`` as a validated one-dimensional array for ``model``, of length ``n`` if given.

    For the paired-comparison model the first entry is the reference subject
    and must be exactly zero.
    """
    b = np.asarray(beta, dtype=float)
    if b.ndim != 1:
        raise ValueError("parameter vector must be one-dimensional")
    if not np.all(np.isfinite(b)):
        raise ValueError("parameters must be finite")
    if model == "bt" and b.size and b[0] != 0.0:
        raise ValueError("reference subject parameter must be 0")
    if n is not None and b.size != n:
        raise ValueError(f"parameter length {b.size} does not match n={n}")
    return b


@dataclass(frozen=True)
class Fit:
    """Result of a maximum-likelihood fit of either model.

    gradient_norm is the max-abs entry of the score in the fitted reduced
    coordinates: free parameters one by one and a tied block summed.  When
    exists is false, beta_hat holds the last iterate and loglik is NaN.
    Comparison-model fits are on the reference scale, so beta_hat[0] is 0.
    """

    beta_hat: np.ndarray
    loglik: float
    iterations: int
    converged: bool
    exists: bool
    gradient_norm: float

    def summary(self) -> dict:
        return {name: getattr(self, name) for name in ("loglik", "iterations", "converged", "exists", "gradient_norm")}


class Fits(Sequence):
    """The fits of a stack of datasets as columns, one entry per member in the stack's order.

    ``values`` holds each member's parameters, a row per member, and the
    other columns the Fit fields of the same names (``steps`` its
    iterations).  ``fits[t]`` is member t's Fit, built when indexed, and
    ``fits[rows]``, with rows a mask, indices or a slice, the Fits of those
    members.
    """

    def __init__(self, values, loglik, steps, converged, exists, gradient_norm):
        self.values, self.loglik, self.steps = values, loglik, steps
        self.converged, self.exists, self.gradient_norm = converged, exists, gradient_norm

    def __len__(self) -> int:
        return len(self.loglik)

    def __getitem__(self, t):
        if isinstance(t, (int, np.integer)):
            return Fit(self.values[t], *(x[t].item() for x in self._columns()[1:]))
        return Fits(*(x[t] for x in self._columns()))

    def _columns(self) -> tuple:
        return self.values, self.loglik, self.steps, self.converged, self.exists, self.gradient_norm

    @property
    def iterations(self) -> int:
        """Newton steps of every member together."""
        return int(self.steps.sum())


def sum_bins(x: np.ndarray, index: np.ndarray, size: int) -> np.ndarray:
    """Sum the last axis of x into ``size`` bins by ``index``, row by row.

    ``index`` is one map for every row, or any stack of maps that broadcasts
    against x, such as one map per row.
    """
    lead = x.shape[:-1]
    offsets = np.arange(math.prod(lead)).reshape(lead + (1,)) * size
    out = np.bincount((offsets + index).ravel(), weights=x.ravel(), minlength=math.prod(lead) * size)
    return out.reshape(lead + (size,))


def pair_rows(n: int) -> Iterator[tuple]:
    """The pairs i < j of n nodes in row order, a block of whole rows at a time (at most PAIR_BLOCK pairs, or one row).

    Yields (top, i, j, starts) per block: its first row, its pairs, and
    where each of its rows starts among them.
    """
    lengths = np.arange(n - 1, 0, -1)  # pairs of rows 0..n-2
    first = np.concatenate([[0], np.cumsum(lengths)])  # index of each row's first pair
    top = 0
    while top < n - 1:
        end = max(top + 1, int(np.searchsorted(first, first[top] + PAIR_BLOCK, side="right")) - 1)
        rows, starts = np.arange(top, end), first[top:end] - first[top]
        i = np.repeat(rows, lengths[top:end])
        yield top, i, np.arange(i.size) + np.repeat(rows + 1 - starts, lengths[top:end]), starts
        top = end


class Tallies(NamedTuple):
    """Class totals ``degrees`` (..., c) and pair trial counts ``totals`` (..., c, c) of a pair model.

    Class a holds one value b_a, and each of the ``totals[a, b]`` trials of
    classes a and b has logit x_ab = b_a + sign * b_b: sign is +1 for graphs
    (degree totals, node pairs) and -1 for comparisons (win totals,
    comparisons).  The diagonal counts each pair within a class twice.
    Leading axes stack datasets; members that share their counts may hold
    one (c, c) matrix.  A ComparisonTable has the same two fields.  Node
    tallies may hold one count shared by every pair of nodes (class_tallies).
    """

    degrees: np.ndarray
    totals: np.ndarray


def pair_logits(b: np.ndarray, sign: int) -> np.ndarray:
    """The (..., c, c) logits b_a + sign * b_b of every pair of classes."""
    return b[..., :, None] + sign * b[..., None, :]


def pair_log_likelihood(b: np.ndarray, t: Tallies, sign: int) -> np.ndarray:
    """Log-likelihood of the tallies at class values b, one per member of a stack.

    A trial's log-normaliser, log(1 + e^x) for a graph pair and
    log(e^u + e^w) for a comparison, is the mean of its two outcomes' logits
    plus g(|x|), g(y) = y/2 + log1p(e^-y), and the means add up to
    b . rowsum(T) / 2.  T counts each trial twice, so the g terms add up to
    1/2 sum_ab T_ab g(|x_ab|).
    """
    y = np.abs(pair_logits(b, sign))
    g = (0.5 * y + np.log1p(np.exp(-y))) * t.totals
    linear = ((t.degrees - 0.5 * t.totals.sum(axis=-1)) * b).sum(axis=-1)
    return linear - 0.5 * g.sum(axis=(-2, -1))


def pair_expected(b: np.ndarray, t: Tallies, sign: int) -> np.ndarray:
    """Each class's expected total, rowsum(T / (1 + exp(-x))), one row per member of a stack.

    The logits of -b are exactly -x.  Where exp(-x) overflows, past x = -709,
    the term is T / inf = 0.
    """
    p = pair_logits(-b, sign)
    with np.errstate(over="ignore"):
        np.exp(p, out=p)
    p += 1.0
    np.divide(t.totals, p, out=p)
    return p.sum(axis=-1)


def pair_variances(b: np.ndarray, sign: int) -> np.ndarray:
    """The variance expit(x) expit(-x) of one trial of each pair of classes, as e/(1+e)^2, e = exp(-|x|)."""
    e = np.exp(-np.abs(pair_logits(b, sign)))
    return e / (1.0 + e) ** 2


def pair_information(b: np.ndarray, t: Tallies, sign: int) -> np.ndarray:
    """The information in the class values, diag(rowsum(T * v)) + sign * T * v, one matrix per member.

    It is the covariance of the class totals: a graph pair within a class
    adds to its class total twice, a comparison within a class not at all.
    """
    w = pair_variances(b, sign) * t.totals
    row = w.sum(axis=-1)
    w *= sign
    diag = np.arange(b.shape[-1])
    w[..., diag, diag] += row
    return w


def pair_saturated(b: np.ndarray, t: Tallies, sign: int, tol: float) -> np.ndarray:
    """Whether a pair of classes with a trial has a logit of size -log(tol) or more, one per member.

    Such a pair leaves a residual of about tol, which the score test cannot
    tell from zero, so the point is no certified interior maximizer; values
    escaping jointly stall exactly there, inside the divergence cap.  No
    logit is larger than 2 max|b|, doubled exactly, so while that is below
    -log(tol) for every member the c x c pass is skipped.
    """
    edge = -math.log(tol)
    if not (2 * np.abs(b).max(axis=-1, initial=0.0) >= edge).any():
        return np.zeros(np.broadcast_shapes(b.shape[:-1], np.shape(t.totals)[:-2]), dtype=bool)
    return np.where(t.totals > 0, np.abs(pair_logits(b, sign)), -np.inf).max(axis=(-2, -1)) >= edge


_HALVINGS = 0.5 ** np.arange(30)


def mean_field_start(t: Tallies, fixed: np.ndarray, sign: int) -> np.ndarray:
    """Closed-form start values of a stack of class fits, one row per member, fixed classes first.

    A class's empirical logit l_a = log((d_a + 1/2) / (T_a - d_a + 1/2)),
    T_a = rowsum(totals)_a, is finite even at 0 or all trials.  Mean field
    replaces each class's opponents by one value m, so b_a + sign * m = l_a.
    For graphs m is the trial-weighted mean of every class's value, fixed
    ones included, which gives m = (sum_fitted T l + sum_fixed T v) /
    (sum_all T + sum_fitted T).  For comparisons the first fixed class, the
    reference's at 0, anchors it: b_a = l_a - l_0.  O(c) per member from
    its own row of tallies, so a member's start is that of its fit alone.
    """
    trials = t.totals.sum(axis=-1)
    logit = np.log((t.degrees + 0.5) / (trials - t.degrees + 0.5))
    f = fixed.shape[-1]
    if sign > 0:
        fitted = trials[:, f:]
        m = ((fitted * logit[:, f:]).sum(axis=-1) + (trials[:, :f] * fixed).sum(axis=-1)) / (
            trials.sum(axis=-1) + fitted.sum(axis=-1)
        )
    else:
        m = logit[:, 0]
    return np.concatenate([fixed, logit[:, f:] - m[:, None]], axis=1)


def newton_ascent(loglik, score, info, data: tuple, start: np.ndarray, per: np.ndarray, tol: float):
    """Damped Newton ascent over the fitted classes of a node-to-class map, for a batch of fits.

    Every member starts at its row of ``start``, the values of every class
    with the fixed ones first; the fixed classes take no step.  ``data`` is
    a named tuple of arrays with one row per member, such as Tallies.  loglik,
    score and info take ``(values, data)`` of some members, one row each,
    and return each one's log-likelihood, gradient and information matrix
    over every class; the ascent reads the fitted entries.  The rows of the
    live members are gathered once per set of live members and handed on
    uncopied while all of them are evaluated.  A member's gradient norm is
    the max of |score / per| over its fitted classes, 0 without any, so
    ``per``, one row per member and one column per fitted class, scales
    each class score to the coordinate it reports.  The state is one
    full-size array per quantity, a row per member, and an index of the
    members still stepping; a member stops by leaving that index.  Every
    member steps on its own: its step halves until it stays inside the
    divergence cap and lowers the gradient norm or raises the
    log-likelihood, and it stops when its norm is within tol, its
    information is singular, no step is accepted, or after MAX_NEWTON
    steps.  The usual step, where every live member's full step stays
    inside the cap and lowers its norm, is accepted whole.  The
    log-likelihood is evaluated only where the norm did not fall, and at
    the end for every member that never needed it.  Returns per member the
    values of every class, their log-likelihood, the gradient norm and the
    number of Newton steps.
    """
    k, m = per.shape
    f = start.shape[-1] - m

    def pick(x, rows):
        return type(x)(*(a[rows] for a in x))

    def evaluate(b, d, p):
        s = score(b, d)[:, f:]
        return s, np.abs(s / p).max(axis=1, initial=0.0)

    # per member: values, log-likelihood (NaN until needed), fitted scores, norm, steps
    live = np.arange(k)
    b, ll, iters = start.copy(), np.full(k, np.nan), np.zeros(k, dtype=int)
    s, g = evaluate(b, data, per)
    # the data and scales of the live members; the live set only shrinks, so a size names it
    here, scale = data, per

    def fill(which):
        """Evaluate the log-likelihoods still unknown among the members ``which``."""
        which = which[np.isnan(ll[which])]
        if which.size:
            ll[which] = loglik(b[which], pick(data, which))

    for _ in range(MAX_NEWTON):
        live = live[g[live] > tol]
        if not live.size:
            break
        if live.size < len(scale):
            here, scale = pick(data, live), per[live]
        H = info(b[live], here)[:, f:, f:]
        try:
            delta = np.linalg.solve(H, s[live, :, None])[..., 0]
        except np.linalg.LinAlgError:
            delta, solvable = _solve_each(H, s[live])
            live, delta = live[solvable], delta[solvable]
            here, scale = pick(data, live), per[live]
        iters[live] += 1
        # each member halves its own step, from the full one; todo and at index live
        todo = np.arange(live.size)
        for step in _HALVINGS:
            cand = b[live[todo]]
            cand[:, f:] += step * delta[todo]
            inside = np.abs(cand[:, f:]).max(axis=1) <= DIVERGENCE_CAP
            at, cand = (todo, cand) if inside.all() else (todo[inside], cand[inside])
            if at.size:
                whole = at.size == live.size
                tried = live[at]
                cand_s, cand_g = evaluate(cand, here if whole else pick(here, at), scale if whole else scale[at])
                up = cand_g < g[tried]
                if whole and up.all():  # the usual step
                    b[live], ll[live], s[live], g[live] = cand, np.nan, cand_s, cand_g
                    break
                cand_ll = np.full(at.size, np.nan)
                # where the norm did not fall, a step must raise the log-likelihood
                ask = np.flatnonzero(~up)
                if ask.size:
                    fill(tried[ask])
                    cand_ll[ask] = loglik(cand[ask], pick(here, at[ask]))
                    up[ask] = cand_ll[ask] > ll[tried[ask]]
                won = tried[up]
                b[won], ll[won], s[won], g[won] = cand[up], cand_ll[up], cand_s[up], cand_g[up]
                inside[inside] = up
            todo = todo[~inside]
            if not todo.size:
                break
        else:
            live = np.delete(live, todo)
    fill(np.arange(k))
    return b, ll, g, iters


def _solve_each(H: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Newton steps of a batch one member at a time, and which members' information is invertible."""
    delta = np.zeros_like(s)
    solvable = np.ones(len(H), dtype=bool)
    for i in range(len(H)):
        try:
            delta[i] = np.linalg.solve(H[i], s[i])
        except np.linalg.LinAlgError:
            solvable[i] = False
    return delta, solvable


# A model's functions over class tallies, as fit_by_classes calls them: loglik, expected class
# totals and info take (values, tallies), one row of each per member; sign is the pair sign.
ClassModel = namedtuple("ClassModel", "loglik expected info sign")

# One ascent's members hold at most this many class-pair cells (members times classes
# squared), so a large group runs in batches of fixed memory.  On 999-table bootstraps at 30
# subjects, 2**15 ran a tenth faster than this but peaked 1.5 MiB higher in resident memory.
BATCH_CELLS = 2**14


def class_maps(totals: np.ndarray, lead, tied: int, balanced: bool) -> tuple[np.ndarray, np.ndarray]:
    """Node-to-class maps of a stack, one row per member, and its fixed class values, a row per member.

    ``totals`` holds every node's total, one row per member.  The leading
    nodes are fixed at the values ``lead``, the next ``tied`` nodes form one
    fitted class, and the rest are free.  In a ``balanced`` stack, whose
    pairs all carry equal trials, nodes of equal fixed value share a class,
    numbered by first appearance so the first node's class is 0, and free
    nodes of equal total share one, ranked by total: they share the
    maximizer, since the likelihood is strictly concave and unchanged by
    swapping them.  Otherwise every node keeps a class of its own.  The
    fixed classes come first, then the tied block, then the free classes;
    their values are one row, broadcast to (k, f).
    """
    k, n = totals.shape
    fixed = np.asarray(lead, dtype=float)
    head, free = np.arange(fixed.size), fixed.size + tied
    rest = np.arange(n - free)
    if balanced:
        _, first, inverse = np.unique(fixed, return_index=True, return_inverse=True)
        head, fixed = np.argsort(np.argsort(first))[inverse], fixed[np.sort(first)]
        # the rank of each free total among its member's distinct ones
        order = np.argsort(totals[:, free:], axis=1)
        rises = np.diff(np.take_along_axis(totals[:, free:], order, axis=1), axis=1) > 0
        rest = np.zeros((k, n - free), dtype=int)
        np.put_along_axis(rest, order[:, 1:], np.cumsum(rises, axis=1), axis=1)
    f = fixed.size
    maps = np.empty((k, n), dtype=int)
    maps[:, :head.size], maps[:, head.size:free], maps[:, free:] = head, f, rest + f + (tied > 0)
    return maps, np.broadcast_to(fixed, (k, f))


def class_tallies(t: Tallies, classes: np.ndarray) -> Tallies:
    """Sum node tallies into class Tallies by ``classes``, one map for every member or one per member.

    A count shared by every pair of distinct nodes gives count * (mult (x)
    mult - diag(mult)) by the class sizes mult; a node-pair matrix, shared
    (n, n) or per member (k, n, n), is summed by membership products.
    Every sum of counts is an integer of at most 2**53 (a ComparisonTable
    holds at most 2**52 comparisons), so both routes give the same bits.
    """
    c = int(classes.max(initial=-1)) + 1
    degrees = sum_bins(t.degrees, classes, c)
    if np.ndim(t.totals) == 0:
        mult = sum_bins(np.ones(classes.shape), classes, c)
        pairs = mult[..., :, None] * mult[..., None, :]
        diag = np.arange(c)
        pairs[..., diag, diag] -= mult
        return Tallies(degrees, t.totals * pairs)
    member = (classes[..., :, None] == np.arange(c)).astype(float)
    return Tallies(degrees, np.swapaxes(member, -1, -2) @ np.asarray(t.totals, dtype=float) @ member)


def fit_by_classes(model: ClassModel, data: Tallies, maps, fixed: np.ndarray, tied: bool, absent, tol: float) -> Fits:
    """Fit each member of a stack with one parameter per class of its node-to-class map.

    ``data`` holds the node Tallies: a row of totals per member and the pair
    counts of the stack's one design, a number or an (n, n) matrix.  Member
    t has map ``maps[t]`` (see class_maps), its f fixed classes first,
    holding the values ``fixed[t]`` (fixed is (k, f)); with ``tied`` the
    next class is a block tied to one unknown value, and every later class
    is fitted freely.  A member marked in ``absent``, a mask or one flag for
    all, has no maximizer and is not fitted; its values are zero.  Members
    of equal class count are fitted together, in ascents of at most
    BATCH_CELLS cells, so none is padded and each runs the arithmetic of its
    fit alone.  Before any step, a member has no maximizer when a fitted
    class's total sits at its least or its most, d_a <= w_a or d_a >=
    rowsum(T)_a - w_a, where w_a = (1 - sign)/4 T_aa counts the wins within
    the class, which no value moves; its values are then its fixed values
    and zeros.  A member with no fitted class is a converged fit at its
    fixed values; the others start at their mean-field points
    (mean_field_start).  A class's reduced score, its total less
    model.expected, is over its node count, or whole for a tied block.  A
    member whose fitted values saturate (pair_saturated) has no maximizer,
    whether it converged or stalled short of tol, and keeps its last values
    and steps.  Returns the Fits in the stack's order; a member without a
    maximizer has a NaN log-likelihood and an infinite gradient norm.
    """
    if not 0 < tol < 1:
        raise ValueError(f"score tolerance must be in (0, 1), got {tol}")
    maps = np.asarray(maps)
    k, n = maps.shape
    f = fixed.shape[1]
    values, steps = np.zeros((k, n)), np.zeros(k, dtype=int)
    loglik, gnorm = np.full(k, np.nan), np.full(k, np.inf)
    exists, converged = ~np.broadcast_to(absent, (k,)), np.zeros(k, dtype=bool)
    count = (maps.max(axis=-1, initial=0) + 1).tolist()
    groups: dict = {}
    for t in np.flatnonzero(exists).tolist():
        groups.setdefault(count[t], []).append(t)
    for c, members in groups.items():
        size = max(1, BATCH_CELLS // c**2)
        for rows in (np.array(members[i:i + size]) for i in range(0, len(members), size)):
            classes, head = maps[rows], fixed[rows]
            tallies = class_tallies(Tallies(data.degrees[rows], data.totals), classes)
            w = (1 - model.sign) / 4 * np.diagonal(tallies.totals, axis1=-2, axis2=-1)
            d = tallies.degrees
            bound = ((d <= w) | (d >= tallies.totals.sum(axis=-1) - w))[:, f:].any(axis=1)
            if bound.any():
                out = rows[bound]
                exists[out] = False
                values[out] = np.take_along_axis(np.pad(head[bound], ((0, 0), (0, c - f))), classes[bound], axis=1)
                keep = ~bound
                rows, classes, head = rows[keep], classes[keep], head[keep]
                tallies = Tallies(*(x[keep] for x in tallies))
                if not rows.size:
                    continue

            per = sum_bins(np.ones(classes.shape), classes, c)[:, f:]
            if tied:
                per[:, 0] = 1.0
            fitted, ll, norm, iters = newton_ascent(
                model.loglik, lambda b, t: t.degrees - model.expected(b, t), model.info, tallies,
                mean_field_start(tallies, head, model.sign), per, tol,
            )
            lost = (c > f) & pair_saturated(fitted, tallies, model.sign, tol)
            values[rows] = np.take_along_axis(fitted, classes, axis=1)
            steps[rows], exists[rows], converged[rows] = iters, ~lost, (norm <= tol) & ~lost
            loglik[rows], gnorm[rows] = np.where(lost, np.nan, ll), np.where(lost, np.inf, norm)
    return Fits(values, loglik, steps, converged, exists, gnorm)


@dataclass(frozen=True)
class NullHypothesis:
    """Constraint on the first r parameters.

    kind="specified" pins them to given values; kind="homogeneous" ties them
    to a common unknown value.  For the paired-comparison model the first
    subject is the zero reference, so a specified null carries values for
    subjects 2..r only (r-1 numbers, relative to the reference) and a
    homogeneous null ties subjects 2..r to one unknown level, which is r-2
    effective constraints.
    """

    kind: str
    r: int
    values: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if self.kind not in ("specified", "homogeneous"):
            raise ValueError(f"unknown null kind {self.kind!r}")
        if self.r < 0:
            raise ValueError("r must be nonnegative")
        if self.kind == "specified":
            v = float_array(self.values if self.values is not None else [], "values")
            if v.ndim != 1:
                raise ValueError("null values must be one-dimensional")
            if not np.all(np.isfinite(v)):
                raise ValueError("null values must be finite")
            v.setflags(write=False)
            object.__setattr__(self, "values", v)
        else:
            if self.values is not None:
                raise ValueError("homogeneous null carries no values")
            if self.r < 2:
                raise ValueError("homogeneous null needs r >= 2")

    @classmethod
    def specified(cls, r: int, values) -> "NullHypothesis":
        return cls(kind="specified", r=r, values=values)

    @classmethod
    def homogeneous(cls, r: int) -> "NullHypothesis":
        return cls(kind="homogeneous", r=r)

    def validate_for(self, model: str, n: int) -> None:
        if model not in ("beta", "bt"):
            raise ValueError(f"unknown model {model!r}")
        if self.r > n:
            raise ValueError(f"null touches {self.r} parameters but there are only {n}")
        if model == "bt" and self.r < 2:
            raise ValueError("paired-comparison nulls must include the reference subject (r >= 2)")
        if self.kind == "specified":
            expected = self.r if model == "beta" else self.r - 1
            if self.values.size != expected:
                raise ValueError(
                    f"specified null for model {model!r} with r={self.r} "
                    f"needs {expected} values, got {self.values.size}"
                )

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind, "r": self.r}
        if self.kind == "specified":
            out["values"] = [float(v) for v in self.values]
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "NullHypothesis":
        if not isinstance(d, dict) or "r" not in d:
            raise ValueError("a null hypothesis must be a JSON object with an 'r'")
        return cls(d.get("kind"), whole_number(d["r"], "r"), d.get("values"))


def float_array(value, key: str) -> np.ndarray:
    """``value`` as a float array; a ValueError naming ``key`` unless it holds only numbers."""
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise ValueError(f"{key!r} must hold numbers, got {value!r}") from None


def whole_number(value, key: str) -> int:
    """``value`` as an int; a ValueError naming ``key`` unless it is a whole number."""
    if isinstance(value, bool) or not (isinstance(value, (int, float, np.integer)) and value % 1 == 0):
        raise ValueError(f"{key!r} must be a whole number, got {value!r}")
    return int(value)


def _plain_edges(text: str) -> Optional[tuple[Optional[int], np.ndarray]]:
    """(declared n, id pairs) of a plain, well-formed edge list, or None to
    leave the text to the line scan, which accepts the same edges and names
    the first bad line of everything else.  Checks on the bytes prove the
    text plain (see load_edge_list).  np.fromstring reads an id below 2**63
    as int() does and a larger one as 2**63 - 1, so an id at that cap goes
    to the scan, which names its line."""
    lineno, pos, body = 0, 0, ""
    while not body and pos <= len(text):  # the first content line, as _content_lines finds it
        end = text.find("\n", pos)
        end = len(text) if end < 0 else end
        lineno, body, pos = lineno + 1, text[pos:end].split("#", 1)[0].strip(), end + 1
    if not body:
        return None
    declared = None
    if body.startswith("n="):
        declared = _parse_header(body, lineno)
        text = text[pos:]
    # two newlines before and one after let the id flags below start and end
    # on a newline; a non-ASCII character becomes '?', which fails the check
    raw = b"\n\n%s\n" % text.encode("ascii", "replace")
    if raw.translate(None, b"0123456789 \t\n"):
        return None
    a = np.frombuffer(raw, dtype=np.uint8)
    digit = a >= ord("0")
    start = digit[1:] > digit[:-1]  # the first digit of an id, in a[1:]
    # one flag per id (True) and newline (False) in text order: an id on a
    # line of one id, or of three or more, has two neighbours of one kind
    ids = start[np.flatnonzero(start | (a[1:] == ord("\n")))]
    if not ids.any() or (ids[1:-1] & (ids[:-2] == ids[2:])).any():
        return None
    rows = np.fromstring(raw, dtype=np.int64, sep=" ").reshape(-1, 2)
    limit = 2**63 - 1 if declared is None else declared
    return (declared, rows) if (rows[:, 0] != rows[:, 1]).all() and rows.max() < limit else None


# per file format: what the first two fields identify, and how a message
# describes a whole record; a third field, if any, is a win count
_RECORDS = {
    "edges": ("node", "two node ids", 2),
    "comparisons": ("subject", "'i,j,w'", 3),
}


def _scan_records(text: str, kind: str) -> tuple[Optional[int], np.ndarray]:
    """(declared n, int64 rows) of an edge list or comparison text, line by line.

    Each content line after the optional header is one record of
    nonnegative integers split by whitespace or commas, whose first two
    fields are distinct ids below the declared n.  Raises at the first
    malformed line, naming it.
    """
    noun, layout, width = _RECORDS[kind]
    labels = (f"{noun} id", f"{noun} id", "win count")[:width]
    declared: Optional[int] = None
    rows: list[list[int]] = []
    count = 0
    for count, (lineno, body) in enumerate(_content_lines(text), start=1):
        if body.startswith("n="):
            if count > 1:
                raise DataFormatError(f"line {lineno}: n= header must be the first content line")
            declared = _parse_header(body, lineno)
            continue
        toks = body.replace(",", " ").split()
        if len(toks) != width:
            raise DataFormatError(f"line {lineno}: expected {layout}, got {body!r}")
        row = [_parse_int(tok, lineno, label) for tok, label in zip(toks, labels)]
        i, j = row[:2]
        if i < 0 or j < 0:
            raise DataFormatError(f"line {lineno}: {noun} ids must be nonnegative")
        if row[-1] < 0:
            raise DataFormatError(f"line {lineno}: {labels[-1]} must be nonnegative")
        if i == j:
            raise DataFormatError(f"line {lineno}: self-loop at {noun} {i}")
        if declared is not None and (i >= declared or j >= declared):
            raise DataFormatError(f"line {lineno}: {noun} id exceeds declared n={declared}")
        rows.append(row)
    if count == 0:
        raise DataFormatError("empty input")
    return declared, np.array(rows, dtype=np.int64).reshape(-1, width)


def _node_count(declared: Optional[int], ids: np.ndarray, noun: str) -> int:
    """The declared n, or one plus the largest id; at least MIN_NODES."""
    n = declared if declared is not None else int(ids.max(initial=-1)) + 1
    if n < MIN_NODES:
        raise DataFormatError(f"need at least {MIN_NODES} {noun}s, inferred n={n}")
    return n


def _too_many(n: int, declared: Optional[int], noun: str) -> DataFormatError:
    """The error for an n whose arrays numpy refuses to size, or whose pair keys would wrap
    (a ValueError, raised before any allocation), or the system refuses to allocate (a
    MemoryError)."""
    where = "the declared count" if declared is not None else f"one plus the largest {noun} id"
    return DataFormatError(f"n={n}, {where}, is too large")


def load_edge_list(text: str) -> UndirectedGraph:
    """Parse an undirected edge list.

    Lines hold two ids separated by whitespace or a comma.  Duplicate edges
    collapse to one.  Rejects self-loops, ids outside a declared n, empty
    input, and an n too large for numpy to size or for memory to hold.  A
    text that after the header holds only ASCII digits, spaces, tabs and
    newlines, and exactly two ids below 2**63 - 1 on each content line, is
    read in one np.fromstring pass; any other text is scanned line by line,
    with the same edges and the same error messages.
    """
    plain = _plain_edges(text)
    declared, rows = plain if plain is not None else _scan_records(text, "edges")
    n = _node_count(declared, rows, "node")
    try:
        return UndirectedGraph.from_edges(n, rows)
    except (ValueError, MemoryError):  # the edges are checked, so only the size of n can fail
        raise _too_many(n, declared, "node") from None


def load_comparisons(text: str) -> ComparisonTable:
    """Parse comparison records ``i,j,w`` meaning subject i beat subject j w times.

    Repeated (i, j) records accumulate as Python integers, which cannot wrap.
    Without a header, n is one plus the largest subject id.
    """
    declared, rows = _scan_records(text, "comparisons")
    n = _node_count(declared, rows[:, :2], "subject")
    try:
        wins = np.zeros((n, n), dtype=object)
    except (ValueError, MemoryError):
        raise _too_many(n, declared, "subject") from None
    np.add.at(wins, (rows[:, 0], rows[:, 1]), rows[:, 2].astype(object))
    return ComparisonTable(np.minimum(wins, MAX_TABLE_COMPARISONS + 1).astype(np.int64))


def load_vector(text: str) -> np.ndarray:
    """Parse one float per line, with the usual comment and blank handling."""
    values: list[float] = []
    for lineno, body in _content_lines(text):
        try:
            values.append(float(body))
        except ValueError:
            raise DataFormatError(f"line {lineno}: {body!r} is not a number") from None
    if not values:
        raise DataFormatError("empty input")
    return np.asarray(values, dtype=float)

