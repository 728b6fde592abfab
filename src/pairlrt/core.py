"""Data containers and text ingestion for graphs and paired-comparison tables.

Node ids are 0-based everywhere.  Text inputs accept blank lines and '#'
comments; an optional first content line ``n=<count>`` declares the node
count, otherwise it is inferred as one plus the largest id seen.
"""

from __future__ import annotations

import functools
import io
import math
from collections import namedtuple
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple, Optional

import numpy as np
from scipy.special import expit

MIN_NODES = 3
MAX_NEWTON = 100
DIVERGENCE_CAP = 40.0
TOL_SCORE = 1e-8


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
        self.edges.setflags(write=False)
        d = np.bincount(self.edges.ravel(), minlength=self.n)
        d.setflags(write=False)
        object.__setattr__(self, "degrees", d)

    @property
    def edge_count(self) -> int:
        return self.edges.shape[0]

    @property
    def adj(self) -> np.ndarray:
        """The dense symmetric 0/1 adjacency matrix, built on each call."""
        a = np.zeros((self.n, self.n), dtype=np.int8)
        a[self.edges[:, 0], self.edges[:, 1]] = 1
        return a + a.T

    @classmethod
    def from_edges(cls, n: int, edges) -> "UndirectedGraph":
        """Graph on n nodes from (i, j) pairs of integer ids; duplicate edges collapse."""
        if n < MIN_NODES:
            raise ValueError(f"need at least {MIN_NODES} nodes, got {n}")
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
    """Directed win counts between subjects; ``wins[i, j]`` is how often i beat j."""

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


def as_model_params(beta, model: str, *, stacked: bool = False) -> np.ndarray:
    """Return ``beta`` as a validated plain array for ``model``.

    For the paired-comparison model the first entry is the reference subject
    and must be exactly zero.  With ``stacked``, beta may also be a stack of
    parameter vectors, one per row.
    """
    b = np.asarray(beta, dtype=float)
    if b.ndim != 1 and not (stacked and b.ndim == 2):
        raise ValueError("parameter vector must be one-dimensional")
    if not np.all(np.isfinite(b)):
        raise ValueError("parameters must be finite")
    if model == "bt" and b.shape[-1] and np.any(b[..., 0] != 0.0):
        raise ValueError("reference subject parameter must be 0")
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


class Fits(list):
    """The fits of a stack of datasets, one per dataset, in the stack's order."""

    @property
    def iterations(self) -> int:
        """Newton steps of every member together."""
        return sum(f.iterations for f in self)


def sum_bins(x: np.ndarray, index: np.ndarray, size: int) -> np.ndarray:
    """Sum the last axis of x into ``size`` bins by ``index``, row by row.

    ``index`` is one map for every row, or any stack of maps that broadcasts
    against x, such as one map per row.
    """
    lead = x.shape[:-1]
    offsets = np.arange(math.prod(lead)).reshape(lead + (1,)) * size
    out = np.bincount((offsets + index).ravel(), weights=x.ravel(), minlength=math.prod(lead) * size)
    return out.reshape(lead + (size,))


# sizes up to this keep their pair indices (at most 2 MiB a size, 4 sizes);
# a larger n rebuilds them, O(n^2) like any use of them
_CACHED_PAIRS_N = 512


def pair_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only row and column indices of the pairs i < j of n nodes, in row-major order."""
    return _cached_pair_indices(n) if n <= _CACHED_PAIRS_N else _build_pair_indices(n)


def _build_pair_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    iu = np.triu_indices(n, k=1)
    for a in iu:
        a.setflags(write=False)
    return iu


_cached_pair_indices = functools.lru_cache(maxsize=4)(_build_pair_indices)


class Tallies(NamedTuple):
    """Class totals ``degrees`` (..., c) and pair trial counts ``totals`` (..., c, c) of a pair model.

    Class a holds one value b_a, and each of the ``totals[a, b]`` trials of
    classes a and b has logit x_ab = b_a + sign * b_b: sign is +1 for graphs
    (degree totals, node pairs) and -1 for comparisons (win totals,
    comparisons).  The diagonal counts each pair within a class twice.
    Leading axes stack datasets; members that share their counts may hold
    one (c, c) matrix.  A ComparisonTable has the same two fields.
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
    b . rowsum(T) / 2.  The pairs a < b and the diagonal, halved, carry g.
    """
    totals, c = t.totals, b.shape[-1]
    i, j = pair_indices(c)
    # np.take lays a stack's pairs out row by row (an index gather would lay
    # them out column by column), so each member's sums add its terms in the
    # same order alone or in a stack
    x = np.take(b, i, axis=-1) + sign * np.take(b, j, axis=-1)
    y = np.abs(np.concatenate([x, (1 + sign) * b], axis=-1))
    pairs = np.take(totals.reshape(totals.shape[:-2] + (c * c,)), i * c + j, axis=-1)
    trials = np.concatenate([pairs, 0.5 * np.diagonal(totals, axis1=-2, axis2=-1)], axis=-1)
    linear = ((t.degrees - 0.5 * totals.sum(axis=-1)) * b).sum(axis=-1)
    return linear - (trials * (0.5 * y + np.log1p(np.exp(-y)))).sum(axis=-1)


def pair_expected(b: np.ndarray, t: Tallies, sign: int) -> np.ndarray:
    """Each class's expected total, rowsum(T * expit(x)), one row per member of a stack."""
    p = pair_logits(b, sign)
    expit(p, out=p)
    p *= t.totals
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
    escaping jointly stall exactly there, inside the divergence cap.
    """
    return np.where(t.totals > 0, np.abs(pair_logits(b, sign)), -np.inf).max(axis=(-2, -1)) >= -math.log(tol)


def nonexistent_fit(beta: np.ndarray, iterations: int = 0) -> Fit:
    """The report of a fit whose maximizer does not exist; beta is the last iterate."""
    return Fit(beta.copy(), float("nan"), iterations, False, False, float("inf"))


_HALVINGS = 0.5 ** np.arange(30)


def newton_ascent(loglik, score, info, fixed: np.ndarray, per: np.ndarray, tol: float):
    """Damped Newton ascent over the fitted classes of a node-to-class map, for a batch of fits.

    Every member starts with its fitted class values at zero and its row of
    ``fixed`` class values, which come first.  loglik, score and info take
    ``(values, rows)``: the values of every class of the batch members
    ``rows``, one row each.  They return each member's log-likelihood,
    gradient and information matrix over every class; the ascent reads the
    fitted entries.  A member's gradient norm is the max of |score / per|
    over its fitted classes, so ``per``, one row per member and one column
    per fitted class, scales each class score to the coordinate it reports.
    Every member steps on its own: its step halves until it stays inside the
    divergence cap and raises the log-likelihood or lowers the gradient
    norm, and it stops when its norm is within tol, its information is
    singular, no step is accepted, or after MAX_NEWTON steps.  Returns per
    member the values of every class, their log-likelihood, the gradient
    norm and the number of Newton steps.
    """
    k, m = per.shape
    f = fixed.shape[-1]
    values = np.zeros((k, f + m))
    values[:, :f] = fixed
    loglik_out, gnorm_out, iters_out = np.empty(k), np.empty(k), np.zeros(k, dtype=int)

    def evaluate(b, rows):
        s = score(b, rows)[:, f:]
        return loglik(b, rows), s, np.abs(s / per[rows]).max(axis=1)

    # the members still stepping: batch rows, values, log-likelihoods, fitted scores, norms
    live = [np.arange(k), values.copy()]
    live += evaluate(live[1], live[0])

    def settle(stop, steps):
        """Record the members in ``stop`` as final; return the rest."""
        rows, b, ll, _, g = live
        out = rows[stop]
        values[out], loglik_out[out], gnorm_out[out], iters_out[out] = b[stop], ll[stop], g[stop], steps
        return [x[~stop] for x in live]

    steps = 0
    while live[0].size:
        rows, b, ll, s, g = live
        if steps == MAX_NEWTON or not g.min() > tol:
            live = settle(~(g > tol) if steps < MAX_NEWTON else np.ones(rows.size, dtype=bool), steps)
            continue
        try:
            delta = np.linalg.solve(info(b, rows)[:, f:, f:], s[..., None])[..., 0]
        except np.linalg.LinAlgError:
            delta, solvable = _solve_each(info(b, rows)[:, f:, f:], s)
            if not solvable.all():
                live = settle(~solvable, steps)
                continue
        steps += 1
        # each member halves its own step, from the full one
        todo = np.arange(rows.size)
        for step in _HALVINGS:
            cand = b[todo]
            cand[:, f:] += step * delta[todo]
            inside = np.abs(cand[:, f:]).max(axis=1) <= DIVERGENCE_CAP
            tried = todo[inside]
            if tried.size:
                cand = cand[inside]
                cand_ll, cand_s, cand_g = evaluate(cand, rows[tried])
                up = (cand_ll > ll[tried]) | (cand_g < g[tried])
                won = tried[up]
                b[won], ll[won], s[won], g[won] = cand[up], cand_ll[up], cand_s[up], cand_g[up]
                inside[inside] = up
            todo = todo[~inside]
            if not todo.size:
                break
        else:
            stalled = np.zeros(rows.size, dtype=bool)
            stalled[todo] = True
            live = settle(stalled, steps)
    return values, loglik_out, gnorm_out, iters_out


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


# A model's functions over class tallies, as fit_by_classes calls them.  take(data, rows) picks
# the data of the members ``rows``, as a stack; tally(stack, classes) sums it over one
# node-to-class map per member into Tallies, members first; loglik, score and info take
# (values, tallies), one row of class values per member; sign is the model's pair sign.
ClassModel = namedtuple("ClassModel", "take tally loglik score info sign")

# One ascent's members hold at most this many class-pair cells (members times classes
# squared), so a large group runs in batches of fixed memory.  On 999-table bootstraps at 30
# subjects, 2**15 ran a tenth faster than this but peaked 1.5 MiB higher in resident memory.
BATCH_CELLS = 2**14


def fit_by_classes(model: ClassModel, data, maps: list, fixed: list, tied: bool, ready: list, tol: float):
    """Fit each member of a stack with one parameter per class of its node-to-class map.

    Member t has map ``maps[t]`` and its fixed classes come first, holding
    the values ``fixed[t]``; with ``tied`` the next class is a block tied to
    one unknown value, and every later class is fitted freely.  A member
    whose entry of ``ready`` is a Fit was decided up front and keeps it, and
    its map is not read.  Members of equal node, class and fixed-class count
    are fitted together, in ascents of at most BATCH_CELLS cells, so none is
    padded and each runs the arithmetic of its fit alone.  A class's reduced
    score is its score over its node count, or the whole score of a tied
    block.  A converged member whose values saturate (pair_saturated) has
    no maximizer.  Returns the Fits in the stack's order.
    """
    fits = list(ready)
    groups: dict = {}
    for t, f in enumerate(ready):
        if f is None:
            groups.setdefault((maps[t].size, int(maps[t].max()) + 1, fixed[t].size), []).append(t)
    for (_, c, _), members in groups.items():
        size = max(1, BATCH_CELLS // c**2)
        for rows in (members[i:i + size] for i in range(0, len(members), size)):
            classes = np.array([maps[t] for t in rows])
            head = np.array([fixed[t] for t in rows])
            tallies = model.tally(model.take(data, rows), classes)

            def at(live):
                return Tallies(*(x[live] for x in tallies))

            per = sum_bins(np.ones(classes.shape), classes, c)[:, head.shape[1]:]
            if tied:
                per[:, 0] = 1.0
            values, ll, gnorm, iters = newton_ascent(
                lambda b, live: model.loglik(b, at(live)),
                lambda b, live: model.score(b, at(live)),
                lambda b, live: model.info(b, at(live)),
                head, per, tol,
            )
            beta = np.take_along_axis(values, classes, axis=1)
            converged = gnorm <= tol
            lost = converged & pair_saturated(values, tallies, model.sign, tol)
            for i, t in enumerate(rows):
                fits[t] = (
                    nonexistent_fit(beta[i], int(iters[i])) if lost[i]
                    else Fit(beta[i], float(ll[i]), int(iters[i]), bool(converged[i]), True, float(gnorm[i]))
                )
    return Fits(fits)


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
            v = np.asarray(self.values if self.values is not None else [], dtype=float)
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
        return cls(kind="specified", r=r, values=np.asarray(values, dtype=float))

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
        if d.get("kind") == "specified":
            return cls.specified(int(d["r"]), d.get("values", []))
        return cls.homogeneous(int(d["r"]))


def _plain_edges(text: str) -> Optional[tuple[Optional[int], np.ndarray]]:
    """(declared n, id pairs) of a plain, well-formed edge list, or None to
    leave the text to the line scan, which accepts the same edges and names
    the first bad line of everything else.  Checks on the bytes prove the
    text plain (see load_edge_list), so np.fromstring reads the ids as int()
    does, with no overflow."""
    first = next(_content_lines(text), None)
    if first is None:
        return None
    lineno, body = first
    declared = None
    if body.startswith("n="):
        declared = _parse_header(body, lineno)
        lines = text.split("\n", lineno)
        text = lines[lineno] if len(lines) > lineno else ""
    # two newlines before and one after let the id flags below start and end
    # on a newline; a non-ASCII character becomes '?', which fails the check
    raw = b"\n\n%s\n" % text.encode("ascii", "replace")
    if raw.translate(None, b"0123456789 \t\n"):
        return None
    a = np.frombuffer(raw, dtype=np.uint8)
    digit = a >= ord("0")
    run = digit  # after the loop, run[i] says bytes i to i+18 are all digits
    for step in (1, 2, 4, 8, 3):
        run = run[:-step] & run[step:]
    start = digit[1:] > digit[:-1]  # the first digit of an id, in a[1:]
    # one flag per id (True) and newline (False) in text order: an id on a
    # line of one id, or of three or more, has two neighbours of one kind
    ids = start[np.flatnonzero(start | (a[1:] == ord("\n")))]
    if run.any() or not ids.any() or (ids[1:-1] & (ids[:-2] == ids[2:])).any():
        return None
    rows = np.fromstring(raw, dtype=np.int64, sep=" ").reshape(-1, 2)
    valid = (rows[:, 0] != rows[:, 1]).all() and (declared is None or rows.max() < declared)
    return (declared, rows) if valid else None


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


def load_edge_list(text: str) -> UndirectedGraph:
    """Parse an undirected edge list.

    Lines hold two ids separated by whitespace or a comma.  Duplicate edges
    collapse to one.  Rejects self-loops, ids outside a declared n, and empty
    input.  A text that after the header holds only ASCII digits, spaces,
    tabs and newlines, exactly two ids on each content line and at most 18
    digits in each id is read in one np.fromstring pass; any other text is
    scanned line by line, with the same edges and the same error messages.
    """
    plain = _plain_edges(text)
    declared, rows = plain if plain is not None else _scan_records(text, "edges")
    return UndirectedGraph.from_edges(_node_count(declared, rows, "node"), rows)


def load_comparisons(text: str) -> ComparisonTable:
    """Parse comparison records ``i,j,w`` meaning subject i beat subject j w times.

    Repeated (i, j) records accumulate.  Without a header, n is one plus the
    largest subject id.
    """
    declared, rows = _scan_records(text, "comparisons")
    n = _node_count(declared, rows[:, :2], "subject")
    wins = np.zeros((n, n), dtype=np.int64)
    np.add.at(wins, (rows[:, 0], rows[:, 1]), rows[:, 2])
    return ComparisonTable(wins)


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

