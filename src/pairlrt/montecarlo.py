"""Simulation scenarios and the replication engine behind the calibration studies.

A Scenario fixes everything a replicate needs: the generating parameters,
the null being tested, the regime, and the seeding.  Per-replicate random
streams come from mixing (master seed, replicate index) through numpy's
SeedSequence, so replicate t is the same draw whether the run uses one
worker or eight, and extending a run leaves earlier replicates unchanged.

A job is a contiguous run of replicate indices.  It draws its replicates a
chunk at a time, fits each chunk's datasets together, the graphs batched
by class count, and hands back three columns in index order: statistics,
p-values and unconverged flags, which run_scenario joins.  A member's fit
is bitwise its fit alone, so no result depends on which replicates share a
chunk, a job or a worker.

A chunk is classified by lrt.outcomes, as a bootstrap's tables are.
Replicates whose maximizer does not exist are tallied separately and left
out of every rejection denominator; the run aborts if they are the majority.
Replicates whose fit stops short of the score tolerance are tallied as
unconverged and left out too.  A replicate whose bootstrap keeps fewer than
half its draws has a statistic but no p-value; it is tallied too and left
out of the rejection denominator.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from . import beta_model, bt_model, lrt
from .core import NullHypothesis, float_array, whole_number

# Replicates drawn and fitted together: as many as fit in this many n-by-n
# cells, so a chunk's memory is fixed whatever the replicate count.  A chunk
# holds only its degree or win-total rows and one block of pairs
# (core.PAIR_BLOCK).
CHUNK_CELLS = 2**20

PRESETS = ("H01", "H02", "H03", "H04", "PowerBeta", "PowerBT", "NBASmall")
DEFAULT_ALPHAS = (0.05, 0.10)


@dataclass(frozen=True)
class Scenario:
    name: str
    model: str
    n: int
    null: NullHypothesis
    true_beta: np.ndarray
    regime: str
    kind: str
    reps: int
    alphas: tuple = DEFAULT_ALPHAS
    seed: int = 0
    k: Union[int, np.ndarray, None] = None

    def __post_init__(self) -> None:
        if self.model not in ("beta", "bt"):
            raise ValueError(f"unknown model {self.model!r}")
        if self.regime not in lrt.REGIMES:
            raise ValueError(f"unknown regime {self.regime!r}")
        if self.kind not in ("type1", "power"):
            raise ValueError(f"unknown scenario kind {self.kind!r}")
        if self.reps < 1:
            raise ValueError("reps must be positive")
        if self.seed < 0:
            raise ValueError(f"'seed' must be at least 0, got {self.seed}")
        self.null.validate_for(self.model, self.n)
        b = float_array(self.true_beta, "true_beta")
        if b.shape != (self.n,):
            raise ValueError("true_beta length must equal n")
        if self.model == "bt" and b[0] != 0.0:
            raise ValueError("comparison-model scenarios need true_beta[0] = 0")
        if self.model == "bt":
            if self.k is None:
                raise ValueError("comparison-model scenarios need pair totals k")
            bt_model.comparison_counts(self.k, self.n)
        elif self.k is not None:
            raise ValueError("graph scenarios take no pair totals 'k'; it is for model 'bt'")
        b.setflags(write=False)
        object.__setattr__(self, "true_beta", b)
        object.__setattr__(self, "alphas", tuple(float(a) for a in self.alphas))
        for a in self.alphas:
            if not 0.0 < a < 1.0:
                raise ValueError("alpha levels must be inside (0, 1)")

    def null_holds(self) -> bool:
        """Whether true_beta satisfies the null exactly."""
        block = self.true_beta[int(self.model == "bt"):self.null.r]
        if self.null.kind == "specified":
            return bool(np.array_equal(block, self.null.values))
        return bool(block.size == 0 or np.all(block == block[0]))

    def to_dict(self) -> dict:
        k = self.k.tolist() if isinstance(self.k, np.ndarray) else self.k
        return {
            "name": self.name,
            "model": self.model,
            "n": self.n,
            "null": self.null.to_dict(),
            "true_beta": [float(v) for v in self.true_beta],
            "regime": self.regime,
            "kind": self.kind,
            "reps": self.reps,
            "alphas": list(self.alphas),
            "seed": self.seed,
            "k": k,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Scenario":
        for key in ("model", "n", "null", "true_beta", "regime", "reps"):
            if key not in d:
                raise ValueError(f"scenario has no {key!r}")
        k = d.get("k")
        if isinstance(k, list):
            try:
                k = np.asarray(k)
            except ValueError:  # numpy's "inhomogeneous shape"
                raise ValueError("'k' must be a number or a matrix, but its rows differ in length") from None
        elif k is not None:
            k = whole_number(k, "k")
        alphas = d.get("alphas", DEFAULT_ALPHAS)
        if not isinstance(alphas, (list, tuple)) or not all(isinstance(a, (int, float)) for a in alphas):
            raise ValueError(f"'alphas' must be a list of numbers, got {alphas!r}")
        return cls(
            name=d.get("name", "custom"),
            model=d["model"],
            n=whole_number(d["n"], "n"),
            null=NullHypothesis.from_dict(d["null"]),
            true_beta=d["true_beta"],
            regime=d["regime"],
            kind=d.get("kind", "type1"),
            reps=whole_number(d["reps"], "reps"),
            alphas=tuple(alphas),
            seed=whole_number(d.get("seed", 0), "seed"),
            k=k,
        )


def linear_profile(n: int, L: float) -> np.ndarray:
    """Evenly spaced parameters from 0 to L across n nodes."""
    if n < 2:
        raise ValueError("need n >= 2")
    return np.arange(n) * (L / (n - 1))


def _power_profile(n: int, r: int, c: float) -> np.ndarray:
    head = np.arange(1, r + 1) * (c / r)
    tail = 0.2 * np.arange(1, n - r + 1) * math.log(n) / n
    return np.concatenate([head, tail])


def build_scenario(preset: str, **params) -> Scenario:
    """Resolve a named design into a concrete Scenario.

    Common parameters: n, reps, seed, alphas, model (graph designs accept
    model="bt" with k).  Design-specific: L (profile height) for H01/H02/H04,
    explicit `values` plus L for H03, and (r, c) for the power presets.
    PowerBeta is a graph design and PowerBT/NBASmall comparison designs: any
    other model is a ValueError.
    """
    if preset not in PRESETS:
        raise ValueError(f"unknown preset {preset!r}; choose from {PRESETS}")
    own = {"PowerBeta": "beta", "PowerBT": "bt", "NBASmall": "bt"}.get(preset)
    model = params.pop("model", own or "beta")
    if own and model != own:
        raise ValueError(f"preset {preset} is a {own!r} design; it takes no 'model' {model!r}")
    n = int(params.pop("n", 30 if preset == "NBASmall" else 100))
    reps = int(params.pop("reps", 2000))
    seed = int(params.pop("seed", 0))
    alphas = tuple(params.pop("alphas", DEFAULT_ALPHAS))
    k = params.pop("k", None)
    if model == "bt" and k is None:
        k = 3 if preset == "NBASmall" else 1
    regime, kind = "fixed", "type1"

    if preset in ("H01", "H02"):
        regime = "growing"
        true = linear_profile(n, float(params.pop("L", 0.0)))
        if preset == "H01":
            null = NullHypothesis.specified(n, true if model == "beta" else true[1:])
        else:
            r = int(params.pop("r", n // 2))
            true[:r] = 0.0
            null = NullHypothesis.homogeneous(r)
    elif preset == "H03":
        if "values" not in params:
            raise ValueError("preset H03 needs explicit null values: use a scenario file or the Python API")
        values = np.asarray(params.pop("values"), dtype=float)
        head = values if model == "beta" else np.concatenate([[0.0], values])
        null = NullHypothesis.specified(head.size, values)
        true = np.concatenate([head, linear_profile(n, float(params.pop("L", 0.0)))[head.size:]])
    elif preset == "H04":
        r = int(params.pop("r", 5))
        null = NullHypothesis.homogeneous(r)
        true = np.concatenate([np.zeros(r), linear_profile(n, float(params.pop("L", 0.0)))[r:]])
    else:
        r = int(params.pop("r", 10 if preset == "NBASmall" else 5))
        null = NullHypothesis.homogeneous(r)
        true = _power_profile(n, r, float(params.pop("c", 0.0)))
        kind = "power"
        if model == "bt":
            true = true - true[0]
    scenario = Scenario(
        name=preset, model=model, n=n, null=null, true_beta=true,
        regime=regime, kind=kind, reps=reps, alphas=alphas, seed=seed, k=k,
    )
    if params:
        raise ValueError(f"unused scenario parameters: {sorted(params)}")
    return scenario


@dataclass
class MCReport:
    rejection_rate: Optional[dict]
    nonexist_freq: float
    reps_used: int
    stats: np.ndarray
    pvalues: Optional[np.ndarray] = None
    bootstrap_short: int = 0
    unconverged: int = 0

    def to_dict(self) -> dict:
        rates = self.rejection_rate
        return {
            "rejection_rate": None if rates is None else {f"{a:g}": rate for a, rate in rates.items()},
            "nonexist_freq": self.nonexist_freq,
            "reps_used": self.reps_used,
            "bootstrap_short": self.bootstrap_short,
            "unconverged": self.unconverged,
        }

    def existing_stats(self) -> np.ndarray:
        return self.stats[np.isfinite(self.stats)]


def replicate_rng(seed: int, index: int) -> np.random.Generator:
    """Independent stream for one replicate: SeedSequence on (seed, index)."""
    return np.random.default_rng(np.random.SeedSequence(entropy=(seed, index)))


def simulate(scenario: Scenario, rng):
    """One dataset drawn from the scenario's generating parameters.

    A sequence of generators gives one dataset per generator: the degree
    stack Tallies(degrees, 1) of the graphs, or the ComparisonStack of the
    tables.
    """
    if scenario.model == "beta":
        return beta_model.simulate_graph(scenario.true_beta, rng)
    return bt_model.simulate_comparisons(scenario.true_beta, scenario.k, rng)


def _replicate_batch(args):
    """The statistics, p-values and unconverged flags of a job's replicates: three columns in index order.

    The replicates are drawn and fitted a chunk at a time, each chunk's
    datasets through one fit_pair, and lrt.outcomes fills the chunk's slice
    of the columns; replicate i draws from its own stream, which then feeds
    its bootstrap, if any.  A chunk is its degree stack or win totals, which
    only the fits read; a bootstrap redraws on the design's pair counts from
    the replicate's restricted values, and no other p-value reads data.
    """
    scenario, indices, stats_only = args
    size = max(1, CHUNK_CELLS // scenario.n**2)
    reference = None if stats_only else lrt.reference_distribution(scenario.model, scenario.null, scenario.regime)
    stats, pvalues = np.full(len(indices), np.nan), np.full(len(indices), np.nan)
    unconverged = np.zeros(len(indices), dtype=bool)
    for start in range(0, len(indices), size):
        rngs = [replicate_rng(scenario.seed, i) for i in indices[start:start + size]]
        full, restr = lrt.fit_pair(simulate(scenario, rngs), scenario.null)
        chunk = slice(start, start + len(rngs))
        stats[chunk], unconverged[chunk] = lrt.outcomes(full, restr)
        if reference is not None:
            for t in np.flatnonzero(np.isfinite(stats[chunk])).tolist():
                pvalues[start + t], _ = lrt.p_value(reference, stats[start + t], scenario.k, scenario.null,
                                                    restr.values[t], rngs[t])
    return stats, pvalues, unconverged


def run_scenario(scenario: Scenario, *, workers: int = 1, stats_only: bool = False) -> MCReport:
    """Run every replicate and aggregate; deterministic for fixed (scenario, seed).

    With workers <= 1 the replicates run in this process as one job;
    otherwise they are split into contiguous, index-ordered jobs for a
    process pool, whose columns are joined in that order.  A fit's result
    does not depend on the fits beside it, so every result is the same for
    any worker count.  Raises when most replicates lack a maximizer.
    """
    reps = scenario.reps
    parts = np.array_split(np.arange(reps), workers * 4) if workers > 1 else [np.arange(reps)]
    jobs = [(scenario, part.tolist(), stats_only) for part in parts if part.size]
    with ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        columns = list((pool.map if pool else map)(_replicate_batch, jobs))
    stats, pvals, unconverged = (np.concatenate(column) for column in zip(*columns))
    exists = np.isfinite(stats)
    used = int(exists.sum())
    short_of_tol = int(unconverged.sum())
    nonexist = reps - used - short_of_tol
    if nonexist > reps / 2:
        raise RuntimeError(
            f"maximizer missing in {nonexist} of {reps} replicates; the design is too extreme"
        )
    rates = None
    short = 0
    if not stats_only:
        tested = np.isfinite(pvals)
        short = int((exists & ~tested).sum())
        rates = {
            a: float((pvals[tested] <= a).mean()) if tested.any() else float("nan")
            for a in scenario.alphas
        }
    return MCReport(
        rejection_rate=rates,
        nonexist_freq=nonexist / reps,
        reps_used=used,
        stats=stats,
        pvalues=None if stats_only else pvals,
        bootstrap_short=short,
        unconverged=short_of_tol,
    )


def run_type1(scenario: Scenario, *, workers: int = 1) -> MCReport:
    """Rejection rates under a null-true scenario."""
    if not scenario.null_holds():
        raise ValueError("scenario's generating parameters do not satisfy its null")
    return run_scenario(scenario, workers=workers)


def quantile_pairs(stats: np.ndarray, reference, r: Optional[int] = None) -> np.ndarray:
    """Pair sorted statistics with reference quantiles at positions (i-1/2)/m."""
    stats = np.asarray(stats, dtype=float)
    stats = stats[np.isfinite(stats)]
    m = stats.size
    if m == 0:
        raise ValueError("no statistics to pair")
    emp = np.sort(stats)
    pp = (np.arange(1, m + 1) - 0.5) / m
    if isinstance(reference, lrt.ChiSquare):
        theo = np.array([lrt.chi_square_quantile(q, reference.df) for q in pp])
    elif isinstance(reference, lrt.NormalizedGaussian):
        if r is None:
            raise ValueError("normalized reference needs the null dimension r")
        emp = (emp - r) / math.sqrt(2.0 * r)
        theo = np.array([lrt.normal_quantile(q) for q in pp])
    else:
        raise ValueError("quantile pairing needs a chi-square or normalized reference")
    return np.column_stack([theo, emp])


def qq_data(scenario: Scenario, reference=None, *, workers: int = 1) -> np.ndarray:
    """Replicate the scenario and return (theoretical, empirical) quantile pairs.

    Defaults to the chi-square surrogate with df = r in the growing regime
    and the dispatched chi-square law in the fixed regime.
    """
    if reference is None:
        dispatched = lrt.reference_distribution(scenario.model, scenario.null, scenario.regime)
        reference = lrt.ChiSquare(scenario.null.r) if scenario.regime == "growing" else dispatched
        if isinstance(reference, lrt.Bootstrap):
            raise ValueError("no default quantile reference for the bootstrap case; pass one")
    report = run_scenario(scenario, workers=workers, stats_only=True)
    return quantile_pairs(report.stats, reference, r=scenario.null.r)
