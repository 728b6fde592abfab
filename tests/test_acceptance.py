"""Acceptance checks for the assembled package.

Each check prints one ``[acceptance N] PASS/FAIL (...)`` line so the run
reads as a checklist even under ``-q``.  The power checks (7 and 8) gate the
top of each curve against the power that the exact noncentrality of the
pinned alternative predicts; ``oracles.py`` computes that noncentrality from
the model definitions alone.  Check 9 FAILs on its comparison-model side: the
abstract says the fixed-r specified-null statistic follows no chi-square law,
while a second-order expansion and the measured law both give chi-square
with r-1 degrees of freedom, and nothing in the repository settles which is
right.  That assertion stays as written and its FAIL line states the conflict.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest
import scipy.stats as sps

from pairlrt import beta_model as bm
from pairlrt import bt_model as bt
from pairlrt import fisher_approx as fa
from pairlrt import lrt
from pairlrt import moments_oracle as mo
from pairlrt import montecarlo as mc
from pairlrt.core import NonexistentMLEError, NullHypothesis

from conftest import degree_stack, table_stack
from oracles import (
    adjacency,
    comparison_noncentrality,
    fd_gradient,
    fd_hessian,
    graph_noncentrality,
    maximize_comparison,
    maximize_graph,
)


def report(capsys, idx: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"\n[acceptance {idx}] {'PASS' if ok else 'FAIL'} ({detail})")


def power_floor(lam: float, df: int, reps: int, alpha: float = 0.05) -> tuple[float, float]:
    """Predicted power P(chi2_df(lam) > chi2_df quantile 1-alpha), and that less 3 binomial SEs."""
    p = float(sps.ncx2.sf(sps.chi2.ppf(1.0 - alpha, df), df, lam))
    return p, p - 3.0 * math.sqrt(p * (1.0 - p) / reps)


@pytest.fixture(scope="module")
def homogeneous_null_run():
    """One shared 2000-rep null run (n=100, fixed r=5): checks 5 and 10 both read it."""
    scenario = mc.build_scenario("H04", n=100, r=5, L=0.0, reps=2000, seed=0)
    start = time.monotonic()
    rep = mc.run_type1(scenario)
    return rep, time.monotonic() - start


def test_01_variance_formulas_match_enumeration(capsys):
    start = time.monotonic()
    rng = np.random.default_rng(20260817)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(4, 6))
        r = int(rng.integers(1, n + 1))
        beta = rng.uniform(-1.0, 1.0, n)
        f = rng.uniform(0.2, 2.0, r)
        for stat, formula in (
            (mo.QUADRATIC_SUM, mo.quadratic_sum_variance),
            (mo.CUBIC_SUM, mo.cubic_sum_variance),
        ):
            exact = mo.enumerate_exact_moments(beta, stat, r=r, f=f)
            form = formula(beta, r, f)
            for got, want in (
                (form.mean_formula, exact.mean_formula),
                (form.var_formula, exact.var_formula),
            ):
                worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-12 and elapsed < 30.0
    report(capsys, 1, ok, f"worst relative gap {worst:.2e} over 20 draws, {elapsed:.1f}s")
    assert ok, f"gap {worst}, {elapsed:.1f}s"


def test_02_quadratic_sum_moments_large_null(capsys):
    start = time.monotonic()
    beta = np.zeros(100)
    f = 1.0 / np.diag(bm.fisher_info(beta))[:50]
    rep = mo.simulated_quadratic_moments(beta, 50, f, 2000, mc.replicate_rng(20260817, 2))
    elapsed = time.monotonic() - start
    mean_ok = 49.0 <= rep.mean_empirical <= 51.0
    var_ok = 85.0 <= rep.var_empirical <= 115.0
    ok = mean_ok and var_ok and elapsed < 120.0
    report(
        capsys, 2, ok,
        f"mean {rep.mean_empirical:.3f} in [49, 51], var {rep.var_empirical:.1f} in [85, 115], {elapsed:.1f}s",
    )
    assert ok, f"mean {rep.mean_empirical}, var {rep.var_empirical}, {elapsed:.1f}s"


def _acceptance_grids(n):
    yield np.zeros(n)
    yield np.ones(n)
    yield -np.ones(n)
    yield np.linspace(-1.0, 1.0, n)
    alternating = np.ones(n)
    alternating[1::2] = -1.0
    yield alternating


def test_03_inverse_approximation_bounds(capsys):
    start = time.monotonic()
    failures = []
    checks = 0
    for n in (5, 10, 25, 50, 100):
        for gi, beta in enumerate(_acceptance_grids(n)):
            diag = bm.bn_cn(beta)
            lo, _ = fa.inverse_entry_window(diag.b_n, diag.c_n, n)
            smallest_diag = float(np.diag(np.linalg.inv(bm.fisher_info(beta))).min())
            for r in (0, 1, n // 2):
                rep = fa.check_inverse_bound(beta, r)
                good = (
                    rep.satisfied
                    and rep.linf_inverse <= rep.linf_bound + 1e-15
                    and smallest_diag >= lo - 1e-15
                )
                checks += 1
                if r >= 1:
                    # the tied-block reduction is only defined on the tied manifold
                    tied = beta.copy()
                    tied[:r] = beta[:r].mean()
                    good = good and fa.check_homogeneous_bound(tied, r).satisfied
                    checks += 1
                if not good:
                    failures.append((n, gi, r))
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 60.0
    report(capsys, 3, ok, f"{checks} inequality checks, failures {failures}, {elapsed:.1f}s")
    assert ok, f"failures {failures}, {elapsed:.1f}s"


def test_04_type1_error_growing_dimension(capsys):
    start = time.monotonic()
    scenario = mc.build_scenario("H01", n=100, L=0.0, reps=2000, seed=0)
    rep = mc.run_type1(scenario)
    elapsed = time.monotonic() - start
    r05 = rep.rejection_rate[0.05]
    r10 = rep.rejection_rate[0.1]
    ok = 0.035 <= r05 <= 0.065 and 0.08 <= r10 <= 0.125 and elapsed < 900.0
    report(
        capsys, 4, ok,
        f"rate@0.05 {r05:.4f} in [0.035, 0.065], rate@0.10 {r10:.4f} in [0.08, 0.125], {elapsed:.0f}s",
    )
    assert ok, f"rates {r05}, {r10}, {elapsed:.0f}s"


def test_05_type1_error_fixed_homogeneous(capsys, homogeneous_null_run):
    rep, elapsed = homogeneous_null_run
    r05 = rep.rejection_rate[0.05]
    ok = 0.035 <= r05 <= 0.065 and elapsed < 600.0
    report(capsys, 5, ok, f"rate@0.05 {r05:.4f} in [0.035, 0.065], {elapsed:.0f}s")
    assert ok, f"rate {r05}, {elapsed:.0f}s"


def test_06_nonexistence_frequency(capsys):
    scenario = mc.build_scenario("H01", n=100, L=0.5 * math.log(100), reps=1000, seed=0)
    rep = mc.run_scenario(scenario, stats_only=True)
    ok = 0.12 <= rep.nonexist_freq <= 0.27
    report(capsys, 6, ok, f"no-maximizer frequency {rep.nonexist_freq:.4f} in [0.12, 0.27]")
    assert ok, f"frequency {rep.nonexist_freq}"


def test_07_power_curve_edge_model(capsys):
    start = time.monotonic()
    n, r, reps = 100, 5, 1000
    rates = {}
    for c in (0.0, 0.8, 1.6):
        scenario = mc.build_scenario("PowerBeta", n=n, r=r, c=c, reps=reps, seed=0)
        rates[c] = mc.run_scenario(scenario).rejection_rate[0.05]
    elapsed = time.monotonic() - start
    # scenario is the c=1.6 design, the last one the loop built
    lam = graph_noncentrality(
        scenario.true_beta,
        lambda x: np.concatenate([np.repeat(x[0], r), x[1:]]),
        lambda grad: np.concatenate([[grad[:r].sum()], grad[r:]]),
        1 + n - r,
    )
    predicted, floor = power_floor(lam, r - 1, reps)
    size_ok = 0.03 <= rates[0.0] <= 0.07
    mid_ok = 0.40 <= rates[0.8] <= 0.60
    top_ok = rates[1.6] >= floor
    ok = size_ok and mid_ok and top_ok and elapsed < 900.0
    report(
        capsys, 7, ok,
        f"rate(c=0) {rates[0.0]:.3f} in [0.03, 0.07], rate(c=0.8) {rates[0.8]:.3f} in [0.40, 0.60], "
        f"rate(c=1.6) {rates[1.6]:.3f} vs >= {floor:.3f} (noncentrality {lam:.2f} predicts power"
        f" {predicted:.3f} for chi2({r - 1}), less 3 binomial SEs)"
        + (
            "" if top_ok else
            "; the engine rejects less often than the noncentral chi-square law of this design allows"
        )
        + f", {elapsed:.0f}s",
    )
    assert ok, f"rates {rates}, floor {floor}, {elapsed:.0f}s"


def test_08_power_curve_comparison_model(capsys):
    n, r, k, reps = 30, 10, 3, 1000
    rates = {}
    for c in (0.0, 1.2):
        scenario = mc.build_scenario("PowerBT", n=n, r=r, c=c, k=k, reps=reps, seed=0)
        rates[c] = mc.run_scenario(scenario).rejection_rate[0.05]
    # scenario is the c=1.2 design; under the null subjects 1..r-1 share one
    # level and the reference subject stays at zero
    lam = comparison_noncentrality(
        scenario.true_beta,
        k,
        lambda x: np.concatenate([[0.0], np.repeat(x[0], r - 1), x[1:]]),
        lambda grad: np.concatenate([[grad[1:r].sum()], grad[r:]]),
        1 + n - r,
    )
    predicted, floor = power_floor(lam, r - 2, reps)
    size_ok = 0.03 <= rates[0.0] <= 0.075
    top_ok = rates[1.2] >= floor
    ok = size_ok and top_ok
    report(
        capsys, 8, ok,
        f"rate(c=0) {rates[0.0]:.3f} in [0.03, 0.075], rate(c=1.2) {rates[1.2]:.3f} vs >= {floor:.3f}"
        f" (noncentrality {lam:.2f} predicts power {predicted:.3f} for chi2({r - 2}), less 3 binomial SEs)"
        + (
            "" if top_ok else
            "; the engine rejects less often than the noncentral chi-square law of this design allows"
        ),
    )
    assert ok, f"rates {rates}, floor {floor}"


def test_09_specified_null_reference_breakdown(capsys):
    tail = 0.2 * math.log(100)
    bt_scenario = mc.build_scenario(
        "H03", model="bt", n=100, values=[-0.5, 0.5], L=tail, k=1, reps=2000, seed=0
    )
    bt_stats = mc.run_scenario(bt_scenario, stats_only=True).existing_stats()
    ks2 = sps.kstest(bt_stats, lambda x: sps.chi2.cdf(x, 2)).statistic
    ks3 = sps.kstest(bt_stats, lambda x: sps.chi2.cdf(x, 3)).statistic

    beta_scenario = mc.build_scenario(
        "H03", model="beta", n=100, values=[0.0, -0.5, 0.5], L=tail, reps=2000, seed=0
    )
    beta_rep = mc.run_type1(beta_scenario)
    beta_r05 = beta_rep.rejection_rate[0.05]
    beta_r10 = beta_rep.rejection_rate[0.1]
    ks_beta = sps.kstest(beta_rep.existing_stats(), lambda x: sps.chi2.cdf(x, 3)).statistic

    bt_ok = ks2 > 0.05 and ks3 > 0.05
    beta_ok = 0.035 <= beta_r05 <= 0.065 and 0.08 <= beta_r10 <= 0.125
    ok = bt_ok and beta_ok
    report(
        capsys, 9, ok,
        f"comparison-model KS vs chi2(2) {ks2:.4f} (needs > 0.05), vs chi2(3) {ks3:.4f} (needs > 0.05); "
        f"edge-model chi2(3) rate@0.05 {beta_r05:.4f} in [0.035, 0.065], rate@0.10 {beta_r10:.4f}"
        f" in [0.08, 0.125], KS {ks_beta:.4f}"
        + (
            "" if bt_ok else
            f"; the comparison-model statistic has sample mean {bt_stats.mean():.2f} and matches chi2(2),"
            " as a second-order expansion predicts (the reference subject's term enters both the full"
            " and the restricted quadratic form, and the two combine into a projection of rank r-1 = 2);"
            " the abstract says this statistic follows neither a chi-square nor a rescaled chi-square,"
            " and no theorem or design in the repository reconciles the two"
        )
        + (
            "" if beta_ok else
            "; the edge-model rejection rates leave the size bands that checks 4 and 5 use"
        ),
    )
    assert ok, f"ks2 {ks2}, ks3 {ks3}, edge-model rates {beta_r05}, {beta_r10}"


def _count_statistics(rng, draw, fit_full, fit_homogeneous, fit_specified):
    """Check 10's count of one model's statistics, (checked, negative), over at most 40,000 instances.

    Instance i is draw(rng, i % 2 == 0), (n, beta, data, r), drawn in order
    and tested under a homogeneous null of r when i is even, else under
    beta's first r values.  Instances are drawn a batch at a time, then the
    full fits of equal n go through fit_full(datasets) as one stack, the
    homogeneous fits of equal (n, r) through fit_homogeneous(datasets, r),
    and the specified ones alone, fit_specified(data, beta, r), made only
    when the full maximizer exists.  A stack member's fit is its fit alone,
    so every count is the one-by-one loop's.
    """
    checked = skipped = negatives = 0
    while checked < 5000 and checked + skipped < 40000:
        # each instance counts once, so no limit is reached before a batch's last instance:
        # rng stops just after the last instance counted, where the one-by-one loop left it
        first = checked + skipped
        homogeneous = [(first + t) % 2 == 0 for t in range(min(5000 - checked, 40000 - first))]
        ns, betas, data, rs = zip(*(draw(rng, h) for h in homogeneous))
        full = _stacked(data, ns, lambda n, group: fit_full(group))
        restr = _stacked(data, [(n, r) if h else None for n, r, h in zip(ns, rs, homogeneous)],
                         lambda nr, group: fit_homogeneous(group, nr[1]))
        for t, h in enumerate(homogeneous):
            if not full[t].exists:  # lrt_statistic raises NonexistentMLEError, whatever the restricted fit
                skipped += 1
                continue
            try:
                if not h:
                    restr[t] = fit_specified(data[t], betas[t], rs[t])
                if lrt.lrt_statistic(full[t], restr[t]) < 0.0:
                    negatives += 1
                checked += 1
            except NonexistentMLEError:
                skipped += 1
            except RuntimeError as err:
                if "negative" in str(err):
                    negatives += 1
                    checked += 1
                else:
                    skipped += 1
    return checked, negatives


def _stacked(data, keys, fit):
    """{t: the fit of data[t]} for each t whose keys[t] is not None, each group of equal keys fitted
    together by fit(key, datasets)."""
    groups: dict = {}
    for t, key in enumerate(keys):
        if key is not None:
            groups.setdefault(key, []).append(t)
    return {t: f for key, members in groups.items() for t, f in zip(members, fit(key, [data[t] for t in members]))}


def test_10_calibration_properties(capsys, homogeneous_null_run):
    rng = np.random.default_rng(2024)

    # finite-difference agreement for both models
    worst_grad = 0.0
    worst_hess = 0.0
    for _ in range(6):
        n = int(rng.integers(5, 9))
        beta = rng.uniform(-0.8, 0.8, n)
        g = bm.simulate_graph(beta, rng)
        worst_grad = max(
            worst_grad,
            float(np.abs(bm.score(beta, g) - fd_gradient(lambda b: bm.log_likelihood(b, g), beta)).max()),
        )
        worst_hess = max(
            worst_hess,
            float(np.abs(bm.fisher_info(beta) + fd_hessian(lambda b: bm.log_likelihood(b, g), beta)).max()),
        )
        beta_c = np.concatenate([[0.0], rng.uniform(-0.8, 0.8, n - 1)])
        table = bt.simulate_comparisons(beta_c, 2, rng)

        def loglik_free(x, table=table):
            # the reference subject stays pinned at zero
            return bt.bt_log_likelihood(np.concatenate([[0.0], x]), table)

        worst_grad = max(
            worst_grad,
            float(np.abs(bt.bt_score(beta_c, table) - fd_gradient(loglik_free, beta_c[1:])).max()),
        )
        worst_hess = max(
            worst_hess,
            float(np.abs(bt.bt_fisher_info(beta_c, table)[1:, 1:] + fd_hessian(loglik_free, beta_c[1:])).max()),
        )
    fd_ok = worst_grad <= 1e-5 and worst_hess <= 1e-4

    # statistic nonnegativity over 10,000 fitted instances, 5,000 per model
    def draw_graph(rng, homogeneous):
        n = int(rng.integers(4, 8))
        beta = rng.uniform(-1.0, 1.0, n)
        g = bm.simulate_graph(beta, rng)
        return n, beta, g, int(rng.integers(2, n + 1)) if homogeneous else int(rng.integers(1, 4))

    def draw_table(rng, homogeneous):
        n = int(rng.integers(4, 8))
        beta = np.concatenate([[0.0], rng.uniform(-1.0, 1.0, n - 1)])
        table = bt.simulate_comparisons(beta, 2, rng)
        return n, beta, table, int(rng.integers(3, n + 1)) if homogeneous else int(rng.integers(2, 4))

    def tables(data):
        return table_stack([t.wins for t in data], 2)

    beta_checked, beta_negatives = _count_statistics(
        rng, draw_graph,
        lambda graphs: bm.fit_mle(degree_stack(graphs)),
        lambda graphs, r: bm.fit_restricted_homogeneous(degree_stack(graphs), r),
        lambda g, beta, r: bm.fit_restricted_specified(g, NullHypothesis.specified(r, beta[:r])),
    )
    checked, negatives = _count_statistics(
        rng, draw_table,
        lambda data: bt.bt_fit_mle(tables(data)),
        lambda data, r: bt.bt_fit_restricted(tables(data), NullHypothesis.homogeneous(r)),
        lambda table, beta, r: bt.bt_fit_restricted(table, NullHypothesis.specified(r, beta[1:r])),
    )
    negatives += beta_negatives
    nonneg_ok = negatives == 0 and beta_checked + checked == 10000

    # p-values of the fixed-r chi-square test are uniform under the null
    rep, _ = homogeneous_null_run
    pvals = rep.pvalues[~np.isnan(rep.pvalues)]
    ks_p = sps.kstest(pvals, "uniform").pvalue
    uniform_ok = ks_p > 0.01

    # same scenario and seed must not depend on the worker count
    scenario = mc.build_scenario("H04", n=16, r=3, L=0.0, reps=40, seed=11)
    serial = mc.run_scenario(scenario)
    parallel = mc.run_scenario(scenario, workers=3)
    det_ok = np.array_equal(serial.stats, parallel.stats, equal_nan=True) and np.array_equal(
        serial.pvalues, parallel.pvalues, equal_nan=True
    )

    ok = fd_ok and nonneg_ok and uniform_ok and det_ok
    report(
        capsys, 10, ok,
        f"fd gradient {worst_grad:.1e} <= 1e-5, fd hessian {worst_hess:.1e} <= 1e-4; "
        f"{beta_checked + checked} statistics, {negatives} negative; "
        f"p-value uniformity KS p {ks_p:.4f} > 0.01; worker determinism {det_ok}",
    )
    assert ok, f"fd ({worst_grad}, {worst_hess}), negatives {negatives}, ks_p {ks_p}, det {det_ok}"


def test_11_fits_match_generic_maximizer(capsys):
    rng = np.random.default_rng(55)
    worst = {}

    def edge_instance(kind):
        while True:
            n = int(rng.integers(5, 9))
            r = int(rng.integers(2, 4))
            vals = rng.uniform(-0.5, 0.5, r)
            beta = np.concatenate([vals, rng.uniform(-0.5, 0.5, n - r)])
            g = bm.simulate_graph(beta, rng)
            try:
                if kind == "specified":
                    fit = bm.fit_restricted_specified(g, NullHypothesis.specified(r, vals), tol=1e-10)
                    embed = lambda x: np.concatenate([vals, x])
                    project = lambda grad: grad[r:]
                    m = n - r
                else:
                    fit = bm.fit_restricted_homogeneous(g, r, tol=1e-10)
                    embed = lambda x: np.concatenate([np.repeat(x[0], r), x[1:]])
                    project = lambda grad: np.concatenate([[grad[:r].sum()], grad[r:]])
                    m = n - r + 1
            except NonexistentMLEError:
                continue
            if not (fit.exists and fit.converged):
                continue
            oracle = maximize_graph(adjacency(g), embed, project, m)
            return float(np.abs(fit.beta_hat - embed(oracle)).max())

    def comparison_instance(kind):
        while True:
            n = int(rng.integers(5, 9))
            r = int(rng.integers(3, 5))
            vals = rng.uniform(-0.5, 0.5, r - 1)
            beta = np.concatenate([[0.0], vals, rng.uniform(-0.5, 0.5, n - r)])
            table = bt.simulate_comparisons(beta, 2, rng)
            try:
                if kind == "specified":
                    fit = bt.bt_fit_restricted(table, NullHypothesis.specified(r, vals), tol=1e-10)
                    embed = lambda x: np.concatenate([[0.0], vals, x])
                    project = lambda grad: grad[r:]
                    m = n - r
                else:
                    fit = bt.bt_fit_restricted(table, NullHypothesis.homogeneous(r), tol=1e-10)
                    embed = lambda x: np.concatenate([[0.0], np.repeat(x[0], r - 1), x[1:]])
                    project = lambda grad: np.concatenate([[grad[1:r].sum()], grad[r:]])
                    m = n - r + 1
            except NonexistentMLEError:
                continue
            if not (fit.exists and fit.converged):
                continue
            oracle = maximize_comparison(table.wins, embed, project, m)
            return float(np.abs(fit.beta_hat - embed(oracle)).max())

    for kind in ("specified", "homogeneous"):
        worst[f"edge-{kind}"] = max(edge_instance(kind) for _ in range(25))
        worst[f"comparison-{kind}"] = max(comparison_instance(kind) for _ in range(25))
    ok = all(v <= 1e-6 for v in worst.values())
    detail = ", ".join(f"{k} {v:.1e}" for k, v in worst.items())
    report(capsys, 11, ok, f"max per-coordinate gap over 25 instances each: {detail}")
    assert ok, detail
