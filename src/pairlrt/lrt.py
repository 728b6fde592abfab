"""Likelihood-ratio statistics, reference-distribution dispatch, and p-values.

Which reference applies depends on the model, the null kind, and whether the
analysis treats the constrained block as fixed or growing with n:

  graph model, specified, fixed        chi-square, df = r
  graph model, homogeneous, fixed      chi-square, df = r - 1
  graph model, any, growing            centered normal, chi-square(r) surrogate
  comparisons, any, growing            centered normal, chi-square(r) surrogate
  comparisons, homogeneous, fixed      chi-square, df = r - 2 (needs r > 2)
  comparisons, specified, fixed        parametric bootstrap (no asymptotic law)

The growing regime centers at r and scales by sqrt(2r) for both models; the
default p-value still comes from the chi-square(r) surrogate, which behaves
better at realistic sizes, and the normal p-value rides along in the report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np
from scipy.special import chdtri, gammaincc, ndtr, ndtri

from . import beta_model, bt_model
from .core import (
    TOL_SCORE,
    ComparisonTable,
    Fits,
    NonexistentMLEError,
    NullHypothesis,
    UndirectedGraph,
)

REGIMES = ("fixed", "growing")
DEFAULT_BOOTSTRAP_B = 999


@dataclass(frozen=True)
class ChiSquare:
    df: int

    def __post_init__(self) -> None:
        if self.df < 1:
            raise ValueError("df must be a positive integer")

    def to_dict(self) -> dict:
        return {"type": "chi_square", "df": self.df}


@dataclass(frozen=True)
class NormalizedGaussian:
    def to_dict(self) -> dict:
        return {"type": "normalized_gaussian"}


@dataclass(frozen=True)
class Bootstrap:
    B: int = DEFAULT_BOOTSTRAP_B

    def to_dict(self) -> dict:
        return {"type": "bootstrap", "B": self.B}


Reference = Union[ChiSquare, NormalizedGaussian, Bootstrap]


def chi_square_sf(x: float, df: int) -> float:
    if x < 0:
        raise ValueError("chi-square tail needs x >= 0")
    if df < 1:
        raise ValueError("df must be a positive integer")
    return float(gammaincc(df / 2.0, x / 2.0))


def chi_square_quantile(q: float, df: int) -> float:
    if not 0.0 < q < 1.0:
        raise ValueError("quantile level must be inside (0, 1)")
    if df < 1:
        raise ValueError("df must be a positive integer")
    return float(chdtri(df, 1.0 - q))


def normal_cdf(z: float) -> float:
    if not math.isfinite(z):
        raise ValueError("normal CDF needs finite input")
    return float(ndtr(z))


def normal_quantile(q: float) -> float:
    if not 0.0 < q < 1.0:
        raise ValueError("quantile level must be inside (0, 1)")
    return float(ndtri(q))


def constraint_count(model: str, null: NullHypothesis) -> int:
    """Number of free parameters removed by the null."""
    if model == "beta":
        return null.r if null.kind == "specified" else null.r - 1
    return null.r - 1 if null.kind == "specified" else null.r - 2


def reference_distribution(model: str, null: NullHypothesis, regime: str) -> Reference:
    """Pick the reference law for the statistic.

    Raises ValueError for combinations with no usable reference: r=0 nulls,
    single-element homogeneous ties, and comparison-model homogeneous nulls
    with r <= 2 in the fixed regime.
    """
    if model not in ("beta", "bt"):
        raise ValueError(f"unknown model {model!r}")
    if regime not in REGIMES:
        raise ValueError(f"regime must be one of {REGIMES}")
    if null.r == 0:
        raise ValueError("null with r=0 constrains nothing; there is no test")
    if regime == "growing":
        return NormalizedGaussian()
    if model == "bt" and null.kind == "specified":
        return Bootstrap()
    df = constraint_count(model, null)
    if df < 1:
        raise ValueError(f"homogeneous null with r={null.r} constrains nothing in model {model!r}")
    return ChiSquare(df)


def fit_pair(data, null: NullHypothesis, tol: float = TOL_SCORE) -> tuple:
    """The (full, restricted) maximum-likelihood fits of the data's model under null.

    ``data`` is a graph or the degree stack Tallies(degrees, 1) of k graphs
    (beta_model.simulate_graph), passed to the graph fits as it is; or a
    ComparisonTable or the bt_model.ComparisonStack of k tables
    (bt_model.simulate_comparisons).  One dataset gives two Fits, a stack
    two Fits stacks, each fitted together.
    """
    if isinstance(data, (ComparisonTable, bt_model.ComparisonStack)):
        return bt_model.bt_fit_mle(data, tol=tol), bt_model.bt_fit_restricted(data, null, tol=tol)
    full = beta_model.fit_mle(data, tol=tol)
    if null.kind == "specified":
        return full, beta_model.fit_restricted_specified(data, null, tol=tol)
    return full, beta_model.fit_restricted_homogeneous(data, null.r, tol=tol)


def lrt_statistic(full, restricted):
    """Twice the log-likelihood gap, clamped to zero within rounding slack.

    Two Fits give a float; two Fits stacks give an array, member by member,
    and every member must qualify.
    """
    exists_full, exists_null = bool(np.all(full.exists)), bool(np.all(restricted.exists))
    if not (exists_full and exists_null):
        raise NonexistentMLEError(
            "likelihood-ratio statistic undefined: maximizer does not exist",
            exists_full=exists_full,
            exists_null=exists_null,
        )
    if not np.all(np.logical_and(full.converged, restricted.converged)):
        raise RuntimeError("likelihood-ratio statistic from non-converged fits")
    stat = 2.0 * (full.loglik - restricted.loglik)
    # nested fits at score tolerance 1e-8 can disagree by ~1e-8 on flat
    # likelihoods; only a gap beyond that is a solver failure
    if np.any(stat < -1e-6):
        raise RuntimeError(f"negative likelihood-ratio statistic {np.min(stat):.3e}")
    return np.maximum(stat, 0.0) if isinstance(full, Fits) else max(stat, 0.0)


def outcomes(full: Fits, restricted: Fits) -> tuple:
    """Each member's statistic, NaN unless both its fits converged, and whether both exist but one stopped short of tol.

    The one outcome rule for a stack of fit pairs: a bootstrap's tables and a Monte Carlo chunk's replicates.
    """
    ok = full.converged & restricted.converged  # a converged fit exists (core.fit_by_classes)
    stats = np.full(len(full), np.nan)
    stats[ok] = lrt_statistic(full[ok], restricted[ok])
    return stats, full.exists & restricted.exists & ~ok


@dataclass
class TestReport:
    model: str
    null: NullHypothesis
    stat: float
    reference: Optional[Reference]
    normalized_stat: Optional[float]
    p_value: Optional[float]
    exists_full: bool
    exists_null: bool
    warnings: list = field(default_factory=list)
    fits: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {
            "model": self.model,
            "null": self.null.to_dict(),
            "stat": self.stat,
            "reference": self.reference.to_dict() if self.reference is not None else None,
            "exists_full": self.exists_full,
            "exists_null": self.exists_null,
            "warnings": list(self.warnings),
            "fits": self.fits,
            "diagnostics": self.diagnostics,
        }
        if self.normalized_stat is not None:
            out["normalized_stat"] = self.normalized_stat
        if self.p_value is not None:
            out["p_value"] = self.p_value
        return out


def _normalized(stat: float, center: float) -> float:
    return (stat - center) / math.sqrt(2.0 * center)


def bootstrap_distribution(
    table,
    null: NullHypothesis,
    beta_null: np.ndarray,
    B: int,
    rng: np.random.Generator,
    tol: float,
) -> tuple[list, int]:
    """Simulate B tables from the restricted fit; return the usable statistics and B.

    ``table`` is the observed ComparisonTable, or the pair counts of the
    design it was drawn on (a number or a matrix, bt_model.comparison_counts),
    which every draw has and which with the win totals are all a fit reads.
    Table i is drawn from the i-th child of rng, the children spawned
    bt_model.DRAW_BLOCK at a time as the draw reads them (successive spawns
    continue one sequence of children).  The stack is fitted and classified
    as a Monte Carlo chunk is (fit_pair, outcomes), and its finite
    statistics come in the children's order.
    """
    totals = table.totals if isinstance(table, ComparisonTable) else table
    children = (c for s in range(0, B, bt_model.DRAW_BLOCK) for c in rng.spawn(min(bt_model.DRAW_BLOCK, B - s)))
    stats, _ = outcomes(*fit_pair(bt_model.simulate_comparisons(beta_null, totals, children), null, tol))
    return stats[np.isfinite(stats)].tolist(), B


def bootstrap_tail(
    table,
    null: NullHypothesis,
    stat: float,
    beta_null: np.ndarray,
    B: int,
    rng: np.random.Generator,
    tol: float,
) -> tuple[float, int]:
    """Bootstrap p-value of stat and the number of usable replicates.

    The p-value is (1 + #{bootstrap stat >= stat}) over (#usable + 1).
    Replicates with no converged maximizer are dropped; when more than half
    of them are lost there is no p-value, and it is NaN.  B must be at
    least 1.  ``table`` is as bootstrap_distribution takes it.
    """
    if B < 1:
        raise ValueError(f"bootstrap needs at least one replicate, got B={B}")
    stats, total = bootstrap_distribution(table, null, beta_null, B, rng, tol)
    if len(stats) < total / 2:
        return float("nan"), len(stats)
    exceed = sum(1 for s in stats if s >= stat)
    return (1.0 + exceed) / (len(stats) + 1.0), len(stats)


def p_value(
    reference: Reference,
    stat: float,
    data,
    null: NullHypothesis,
    beta_null: np.ndarray,
    rng: np.random.Generator,
    tol: float,
) -> tuple[float, Optional[int]]:
    """p-value of stat under reference, and the number of usable bootstrap replicates.

    The growing regime reads the chi-square(r) surrogate.  A bootstrap
    redraws the table ``data``, or tables on the pair counts ``data``, from
    the restricted fit beta_null (see bootstrap_distribution); no other
    reference reads ``data``, and without a bootstrap the replicate count is
    None.
    """
    if isinstance(reference, NormalizedGaussian):
        return chi_square_sf(stat, null.r), None
    if isinstance(reference, ChiSquare):
        return chi_square_sf(stat, reference.df), None
    return bootstrap_tail(data, null, stat, beta_null, reference.B, rng, tol)


def run_test(
    data: Union[UndirectedGraph, ComparisonTable],
    null: NullHypothesis,
    regime: str,
    *,
    bootstrap_reps: int = DEFAULT_BOOTSTRAP_B,
    rng: Optional[np.random.Generator] = None,
    tol: float = TOL_SCORE,
) -> TestReport:
    """Fit the full and restricted models and assemble the test report.

    Nonexistent maximizers surface as NonexistentMLEError so simulation
    drivers can tally them; every returned report therefore has both
    existence flags true.
    """
    if isinstance(data, UndirectedGraph):
        model = "beta"
    elif isinstance(data, ComparisonTable):
        model = "bt"
    else:
        raise TypeError(f"unsupported data type {type(data).__name__}")
    null.validate_for(model, data.n)
    reference = reference_distribution(model, null, regime)

    full, restricted = fit_pair(data, null, tol)
    stat = lrt_statistic(full, restricted)

    warnings: list = []
    diagnostics: dict = {}
    normalized_stat: Optional[float] = None
    if isinstance(reference, Bootstrap):
        warnings.append(
            "no asymptotic reference for a fixed specified null in the comparison model; "
            "using a parametric bootstrap"
        )
        reference = Bootstrap(bootstrap_reps)
        if rng is None:
            rng = np.random.default_rng(0)
    p, used = p_value(reference, stat, data, null, restricted.beta_hat, rng, tol)
    if regime == "growing":
        r = null.r
        normalized_stat = _normalized(stat, float(r))
        diagnostics["p_value_normal"] = normal_cdf(-normalized_stat)
        diagnostics["p_value_chi_square"] = p
        diagnostics["surrogate_df"] = r
        k = constraint_count(model, null)
        if k != r and k >= 1:
            z_alt = _normalized(stat, float(k))
            diagnostics["alt_center"] = k
            diagnostics["normalized_stat_alt"] = z_alt
            diagnostics["p_value_normal_alt"] = normal_cdf(-z_alt)
        if r < math.log(data.n) ** 2:
            warnings.append(
                f"growing-regime approximation is doubtful: r={r} is below (log n)^2={math.log(data.n) ** 2:.1f}"
            )
    elif used is not None:
        if math.isnan(p):
            raise RuntimeError(
                f"only {used} of {bootstrap_reps} bootstrap replicates had a converged maximizer"
            )
        if used < bootstrap_reps:
            warnings.append(f"dropped {bootstrap_reps - used} bootstrap replicates with no converged maximizer")
        diagnostics["bootstrap_used"] = used

    return TestReport(
        model=model,
        null=null,
        stat=stat,
        reference=reference,
        normalized_stat=normalized_stat,
        p_value=p,
        exists_full=True,
        exists_null=True,
        warnings=warnings,
        fits={"full": full.summary(), "null": restricted.summary()},
        diagnostics=diagnostics,
    )
