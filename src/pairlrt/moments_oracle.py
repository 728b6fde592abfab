"""Exact moments of weighted centered-degree sums, plus brute-force enumeration.

Centered degrees are sums of independent centered Bernoulli variables, one
per incident pair, so their polynomial moments reduce to closed forms in the
per-pair moments E abar^k = q(-p)^k + p q^k.  The enumeration oracle walks
every adjacency configuration of a small graph and computes the same moments
exactly, which is what the closed forms are tested against.

A note on the quadratic form: for the variance of sum f_i dbar_i^2 the
per-node term needs the fourth cumulant combination m4 - 3 m2^2 of each pair
(it vanishes nowhere except by accident), while the cross-node term uses
m4 - m2^2 of the shared pair.  The two differ by 2 m2^2; conflating them
inflates the variance, e.g. to 2r at beta=0 where the true value is smaller.
Everything here is pinned by enumeration, not by eye.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import beta_model, lrt
from .core import NullHypothesis, Tallies, as_model_params

ENUMERATION_MAX_NODES = 5

QUADRATIC_SUM = "quadratic_sum"
CUBIC_SUM = "cubic_sum"
MIXED_SUM = "mixed_sum"
LRT_STAT = "lrt_stat"
STATISTICS = (QUADRATIC_SUM, CUBIC_SUM, MIXED_SUM, LRT_STAT)


def centered_bernoulli_moment(p, k: int):
    """E (a - p)^k for a ~ Bernoulli(p)."""
    if k < 1:
        raise ValueError("moment order must be positive")
    p = np.asarray(p, dtype=float)
    q = 1.0 - p
    return q * (-p) ** k + p * q**k


@dataclass
class MomentReport:
    mean_formula: float
    var_formula: float
    mean_empirical: Optional[float] = None
    var_empirical: Optional[float] = None
    relative_gap: Optional[float] = None

    def __post_init__(self) -> None:
        if self.relative_gap is None and self.var_empirical is not None:
            self.relative_gap = abs(self.var_empirical - self.var_formula) / max(
                self.var_formula, 1e-12
            )

    def to_dict(self) -> dict:
        out = {"mean_formula": self.mean_formula, "var_formula": self.var_formula}
        if self.mean_empirical is not None:
            out["mean_empirical"] = self.mean_empirical
        if self.var_empirical is not None:
            out["var_empirical"] = self.var_empirical
        if self.relative_gap is not None:
            out["relative_gap"] = self.relative_gap
        return out


def _pair_moments(beta: np.ndarray, orders: tuple[int, ...]) -> dict[int, np.ndarray]:
    p = beta_model.edge_probabilities(beta)
    out = {}
    for k in orders:
        m = centered_bernoulli_moment(p, k)
        np.fill_diagonal(m, 0.0)
        out[k] = m
    return out


def _check_weights(beta: np.ndarray, r: int, f) -> np.ndarray:
    if not 0 <= r <= beta.size:
        raise ValueError(f"r must be in [0, {beta.size}]")
    f = np.asarray(f, dtype=float)
    if f.shape != (r,):
        raise ValueError(f"weights must have length r={r}")
    if not np.all(np.isfinite(f)):
        raise ValueError("weights must be finite")
    return f


def _check_weight_matrix(beta: np.ndarray, f) -> np.ndarray:
    f = np.asarray(f, dtype=float)
    if f.shape != (beta.size, beta.size):
        raise ValueError("weight matrix shape must match the parameter length")
    if np.any(np.diag(f) != 0):
        raise ValueError("weight matrix must have a zero diagonal")
    return f


def quadratic_sum_variance(beta, r: int, f) -> MomentReport:
    """Exact mean and variance of sum_{i<=r} f_i dbar_i^2."""
    b = as_model_params(beta, "beta")
    f = _check_weights(b, r, f)
    mom = _pair_moments(b, (2, 4))
    m2, m4 = mom[2], mom[4]
    v = m2.sum(axis=1)
    w = m4 - 3.0 * m2**2
    u = m4 - m2**2
    per_node = 2.0 * v[:r] ** 2 + w[:r].sum(axis=1)
    var = float(f**2 @ per_node)
    if r >= 2:
        iu = np.triu_indices(r, k=1)
        var += 2.0 * float((np.outer(f, f) * u[:r, :r])[iu].sum())
    mean = float(f @ v[:r])
    return MomentReport(mean_formula=mean, var_formula=var)


def cubic_sum_variance(beta, r: int, f) -> MomentReport:
    """Exact mean and variance of sum_{i<=r} f_i dbar_i^3."""
    b = as_model_params(beta, "beta")
    f = _check_weights(b, r, f)
    mom = _pair_moments(b, (2, 3, 4, 6))
    m2, m3, m4, m6 = mom[2], mom[3], mom[4], mom[6]
    s2 = m2.sum(axis=1)
    s2_sq = (m2**2).sum(axis=1)
    s2_cu = (m2**3).sum(axis=1)
    s3 = m3.sum(axis=1)
    s3_sq = (m3**2).sum(axis=1)
    s4 = m4.sum(axis=1)
    s42 = (m4 * m2).sum(axis=1)
    s6 = m6.sum(axis=1)
    # Moment expansion of a sum of independent centered variables raised to
    # the sixth power, grouped by the partition of 6 into parts >= 2.
    var_node = (
        (s6 - s3_sq)
        + 15.0 * (s4 * s2 - s42)
        + 9.0 * (s3**2 - s3_sq)
        + 15.0 * (s2**3 - 3.0 * s2 * s2_sq + 2.0 * s2_cu)
    )
    var = float(f**2 @ var_node[:r])
    if r >= 2:
        sa2 = s2[:, None] - m2
        sb2 = s2[None, :] - m2
        cov = (m6 - m3**2) + 3.0 * m4 * (sa2 + sb2) + 9.0 * m2 * sa2 * sb2
        iu = np.triu_indices(r, k=1)
        var += 2.0 * float((np.outer(f, f) * cov[:r, :r])[iu].sum())
    mean = float(f @ s3[:r])
    return MomentReport(mean_formula=mean, var_formula=var)


def mixed_sum_variance_bound(beta, f) -> float:
    """Order bound n^6 max|f|^2 / c_n^3 for Var(sum_{i != j} f_ij dbar_i^2 dbar_j).

    The constant is unspecified; callers compare enumerated exact values
    against this scale rather than asserting a sharp inequality.
    """
    b = as_model_params(beta, "beta")
    n = b.size
    f = _check_weight_matrix(b, f)
    c_n = beta_model.bn_cn(b).c_n
    fmax = float(np.abs(f).max())
    return n**6 * fmax**2 / c_n**3


@dataclass(frozen=True)
class LRTDistribution:
    """Exact distribution of the statistic over all graphs of a small model.

    values and probs cover configurations where both maximizers exist;
    nonexist_mass is the total probability of the rest.
    """

    values: np.ndarray
    probs: np.ndarray
    nonexist_mass: float

    def conditional_moments(self) -> tuple[float, float]:
        total = float(self.probs.sum())
        if total <= 0:
            raise ValueError("no existing-maximizer mass")
        mean = float(self.probs @ self.values) / total
        var = float(self.probs @ (self.values - mean) ** 2) / total
        return mean, var


def _enumerate_graphs(beta: np.ndarray):
    """The probability and the degree sequence of every adjacency configuration, one row each."""
    n = beta.size
    m = n * (n - 1) // 2
    iu = np.triu_indices(n, k=1)
    p = beta_model.edge_probabilities(beta)[iu]
    count = 1 << m
    bits = ((np.arange(count)[:, None] >> np.arange(m)[None, :]) & 1).astype(float)
    logp = bits @ np.log(p) + (1.0 - bits) @ np.log1p(-p)
    probs = np.exp(logp)
    ends = (iu[0][:, None] == np.arange(n)) | (iu[1][:, None] == np.arange(n))  # each pair's two nodes
    return probs, bits @ ends


def enumerate_exact_moments(
    beta,
    statistic: str,
    *,
    r: Optional[int] = None,
    f=None,
    null: Optional[NullHypothesis] = None,
):
    """Exact moments by summing over every graph of at most 5 nodes.

    Returns a MomentReport for the polynomial statistics and an
    LRTDistribution for the likelihood-ratio statistic (graph model only,
    by lrt.outcomes: a graph whose maximizers exist but are unconverged raises).
    """
    b = as_model_params(beta, "beta")
    n = b.size
    if n > ENUMERATION_MAX_NODES:
        pairs = n * (n - 1) // 2
        raise ValueError(
            f"enumeration over 2^{pairs} graphs is infeasible; n must be <= {ENUMERATION_MAX_NODES}"
        )
    if statistic not in STATISTICS:
        raise ValueError(f"unknown statistic {statistic!r}")
    probs, deg = _enumerate_graphs(b)
    if statistic == LRT_STAT:
        if null is None:
            raise ValueError("the likelihood-ratio statistic needs a null hypothesis")
        null.validate_for("beta", n)
        stats, unconverged = lrt.outcomes(*lrt.fit_pair(Tallies(deg, 1), null, tol=1e-11))
        if unconverged.any():
            raise RuntimeError("likelihood-ratio statistic from non-converged fits")
        exists = np.isfinite(stats)
        return LRTDistribution(values=stats[exists], probs=probs[exists], nonexist_mass=float(probs[~exists].sum()))
    dbar = deg - beta_model.expected_degrees(b)
    if statistic == MIXED_SUM:
        values = np.einsum("gi,ij,gj->g", dbar**2, _check_weight_matrix(b, f), dbar)
    else:
        r = int(r)
        values = dbar[:, :r] ** (2 if statistic == QUADRATIC_SUM else 3) @ _check_weights(b, r, f)
    mean = math.fsum((probs * values).tolist())
    var = math.fsum((probs * (values - mean) ** 2).tolist())
    return MomentReport(mean_formula=mean, var_formula=var)


def simulated_quadratic_moments(
    beta, r: int, f, reps: int, rng: np.random.Generator
) -> MomentReport:
    """Formula moments plus a Monte Carlo check of sum_{i<=r} f_i dbar_i^2."""
    b = as_model_params(beta, "beta")
    f = _check_weights(b, r, f)
    report = quadratic_sum_variance(b, r, f)
    expected = beta_model.expected_degrees(b)[:r]
    draws = np.empty(reps)
    for t in range(reps):
        g = beta_model.simulate_graph(b, rng)
        dbar = g.degrees[:r] - expected
        draws[t] = f @ dbar**2
    return MomentReport(
        mean_formula=report.mean_formula,
        var_formula=report.var_formula,
        mean_empirical=float(draws.mean()),
        var_empirical=float(draws.var(ddof=1)),
    )
