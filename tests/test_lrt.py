import json
import tracemalloc

import numpy as np
import pytest

from pairlrt import bt_model as btm
from pairlrt import core, lrt
from pairlrt import montecarlo as mc
from pairlrt.core import TOL_SCORE, ComparisonTable, Fit, NonexistentMLEError, NullHypothesis, UndirectedGraph

from conftest import random_connected_table, random_existing_graph


def test_chi_square_df2_closed_form():
    for x in np.linspace(0, 50, 201):
        assert 1 - lrt.chi_square_sf(x, 2) == pytest.approx(1 - np.exp(-x / 2), abs=1e-12)
        assert lrt.chi_square_sf(x, 2) == pytest.approx(np.exp(-x / 2), abs=1e-12)


def test_distribution_spot_values():
    assert lrt.chi_square_sf(3.841459, 1) == pytest.approx(0.05, abs=1e-6)
    assert lrt.normal_cdf(1.959964) == pytest.approx(0.975, abs=1e-6)
    assert lrt.chi_square_quantile(0.95, 1) == pytest.approx(3.841459, abs=1e-5)
    assert lrt.normal_quantile(0.975) == pytest.approx(1.959964, abs=1e-5)


def test_distribution_domain_errors():
    with pytest.raises(ValueError):
        lrt.chi_square_sf(-0.1, 2)
    with pytest.raises(ValueError):
        lrt.chi_square_sf(1.0, 0)
    with pytest.raises(ValueError):
        lrt.normal_cdf(float("nan"))


def test_cdf_quantile_round_trip():
    for df in (1, 2, 5, 10):
        for q in (0.01, 0.5, 0.9, 0.99):
            x = lrt.chi_square_quantile(q, df)
            assert 1 - lrt.chi_square_sf(x, df) == pytest.approx(q, abs=1e-10)


def test_reference_dispatch_table():
    spec3 = NullHypothesis.specified(3, [0.0, 0.0, 0.0])
    spec3_bt = NullHypothesis.specified(3, [0.0, 0.0])
    hom4 = NullHypothesis.homogeneous(4)
    hom2 = NullHypothesis.homogeneous(2)

    assert lrt.reference_distribution("beta", spec3, "fixed") == lrt.ChiSquare(3)
    assert lrt.reference_distribution("beta", hom4, "fixed") == lrt.ChiSquare(3)
    assert lrt.reference_distribution("beta", spec3, "growing") == lrt.NormalizedGaussian()
    assert lrt.reference_distribution("beta", hom4, "growing") == lrt.NormalizedGaussian()
    assert lrt.reference_distribution("bt", hom4, "fixed") == lrt.ChiSquare(2)
    assert lrt.reference_distribution("bt", hom4, "growing") == lrt.NormalizedGaussian()
    assert isinstance(lrt.reference_distribution("bt", spec3_bt, "fixed"), lrt.Bootstrap)
    assert lrt.reference_distribution("bt", spec3_bt, "growing") == lrt.NormalizedGaussian()

    with pytest.raises(ValueError):
        lrt.reference_distribution("beta", NullHypothesis.specified(0, []), "fixed")
    assert lrt.reference_distribution("bt", NullHypothesis.homogeneous(3), "fixed") == lrt.ChiSquare(1)
    with pytest.raises(ValueError):
        lrt.reference_distribution("bt", hom2, "fixed")
    with pytest.raises(ValueError):
        lrt.reference_distribution("beta", spec3, "sideways")


def test_constraint_count():
    assert lrt.constraint_count("beta", NullHypothesis.specified(4, np.zeros(4))) == 4
    assert lrt.constraint_count("beta", NullHypothesis.homogeneous(4)) == 3
    assert lrt.constraint_count("bt", NullHypothesis.specified(4, np.zeros(3))) == 3
    assert lrt.constraint_count("bt", NullHypothesis.homogeneous(4)) == 2


def test_reference_to_dict():
    assert lrt.ChiSquare(2).to_dict() == {"type": "chi_square", "df": 2}
    assert lrt.NormalizedGaussian().to_dict() == {"type": "normalized_gaussian"}
    assert lrt.Bootstrap(99).to_dict() == {"type": "bootstrap", "B": 99}


@pytest.mark.parametrize("df", [0, -1])
def test_chi_square_reference_needs_one_df(df):
    with pytest.raises(ValueError, match="df must be a positive integer"):
        lrt.ChiSquare(df)


def test_lrt_statistic_clamps_and_guards():
    good = Fit(np.zeros(3), -1.0, 1, True, True, 0.0)
    lower = Fit(np.zeros(3), -1.0 - 2e-11, 1, True, True, 0.0)
    assert 0 < lrt.lrt_statistic(good, lower) < 1e-9
    assert lrt.lrt_statistic(lower, good) == 0.0  # tiny negative clamps
    bad = Fit(np.zeros(3), -0.5, 1, True, True, 0.0)
    with pytest.raises(RuntimeError):
        lrt.lrt_statistic(good, bad)  # full below null by a real margin
    missing = Fit(np.zeros(3), float("nan"), 0, False, False, float("inf"))
    with pytest.raises(NonexistentMLEError):
        lrt.lrt_statistic(missing, good)
    with pytest.raises(NonexistentMLEError):
        lrt.lrt_statistic(good, missing)


def test_run_test_fixed_beta(rng):
    _, g = random_existing_graph(rng, 20)
    null = NullHypothesis.homogeneous(5)
    report = lrt.run_test(g, null, "fixed")
    assert report.reference == lrt.ChiSquare(4)
    assert report.stat >= 0
    assert report.p_value == pytest.approx(lrt.chi_square_sf(report.stat, 4), abs=1e-14)
    assert report.exists_full and report.exists_null
    assert set(report.fits) == {"full", "null"}
    json.dumps(report.to_dict())  # serializable


def test_run_test_growing_diagnostics(rng):
    _, g = random_existing_graph(rng, 30)
    null = NullHypothesis.specified(10, np.zeros(10))
    report = lrt.run_test(g, null, "growing")
    assert report.reference == lrt.NormalizedGaussian()
    assert report.normalized_stat == pytest.approx((report.stat - 10) / np.sqrt(20), abs=1e-12)
    assert report.p_value == pytest.approx(lrt.chi_square_sf(report.stat, 10), abs=1e-14)
    assert report.diagnostics["p_value_normal"] == pytest.approx(
        lrt.normal_cdf(-report.normalized_stat), abs=1e-12
    )
    assert report.diagnostics["surrogate_df"] == 10


def test_run_test_growing_homogeneous_alt_center(rng):
    _, g = random_existing_graph(rng, 30)
    report = lrt.run_test(g, NullHypothesis.homogeneous(10), "growing")
    # the constrained count is r-1, so an alternative centring is reported
    assert report.diagnostics["alt_center"] == 9
    assert "normalized_stat_alt" in report.diagnostics


def test_run_test_small_r_growing_warns(rng):
    _, g = random_existing_graph(rng, 30)
    report = lrt.run_test(g, NullHypothesis.specified(2, [0.0, 0.0]), "growing")
    assert report.warnings


def test_run_test_nonexistent_raises():
    comp = UndirectedGraph.from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    with pytest.raises(NonexistentMLEError) as exc:
        lrt.run_test(comp, NullHypothesis.homogeneous(2), "fixed")
    assert not exc.value.exists_full


def test_run_test_bootstrap_deterministic(rng):
    _, table = random_connected_table(rng, 8, k=3)
    null = NullHypothesis.specified(3, [0.0, 0.0])
    a = lrt.run_test(table, null, "fixed", bootstrap_reps=79, rng=np.random.default_rng(5))
    b = lrt.run_test(table, null, "fixed", bootstrap_reps=79, rng=np.random.default_rng(5))
    assert a.p_value == b.p_value
    assert a.reference == lrt.Bootstrap(79)
    assert a.warnings  # bootstrap fallback is flagged
    used = a.diagnostics["bootstrap_used"]
    assert 0 < a.p_value <= 1 and used <= 79
    # add-one rule keeps the p-value off zero
    assert a.p_value >= 1 / (used + 1)


def test_run_test_bootstrap_exhaustion(rng):
    _, table = random_connected_table(rng, 3, k=2)
    # null so extreme that simulated tables are almost never strongly connected
    null = NullHypothesis.specified(3, [8.0, -8.0])
    with pytest.raises(RuntimeError, match="bootstrap"):
        lrt.run_test(table, null, "fixed", bootstrap_reps=60, rng=np.random.default_rng(0))


def test_bootstrap_pvalue_matches_run_test(rng):
    _, table = random_connected_table(rng, 7, k=3)
    null = NullHypothesis.specified(2, [0.0])
    report = lrt.run_test(table, null, "fixed", bootstrap_reps=99, rng=np.random.default_rng(3))
    _, restr = lrt.fit_pair(table, null)
    p, used = lrt.bootstrap_tail(table, null, report.stat, restr.beta_hat, 99, np.random.default_rng(3), 1e-8)
    assert p == report.p_value and used == report.diagnostics["bootstrap_used"]
    # a bootstrap keeping fewer than half its draws has no p-value
    _, small = random_connected_table(rng, 3, k=2)
    extreme = NullHypothesis.specified(3, [8.0, -8.0])
    p, used = lrt.bootstrap_tail(small, extreme, 0.0, np.array([0.0, 8.0, -8.0]), 60, np.random.default_rng(0), 1e-8)
    assert np.isnan(p) and used < 30


def test_bootstrap_tail_needs_a_replicate(rng):
    _, table = random_connected_table(rng, 5, k=3)
    null = NullHypothesis.specified(2, [0.0])
    for B in (0, -3):
        with pytest.raises(ValueError, match="at least one replicate"):
            lrt.bootstrap_tail(table, null, 1.0, np.zeros(5), B, np.random.default_rng(0), 1e-8)


def _season_design():
    # the benchmark's comparison season: n 30, three comparisons a pair, null on the first 5
    n, r = 30, 5
    head = n // 3
    beta = np.concatenate([np.zeros(head), 0.2 * np.arange(1, n - head + 1) * np.log(n) / n])
    null = NullHypothesis.specified(r, beta[1:r])
    table = btm.simulate_comparisons(beta, 3, np.random.default_rng(7))
    return table.totals, null, btm.bt_fit_restricted(table, null).beta_hat


def _pinned_far_design(n, k):
    # equal merits, with subject 1 pinned 17.5 above the reference: some draws are not
    # strongly connected, and some restricted fits run a free subject out to saturation
    totals = np.full((n, n), k)
    np.fill_diagonal(totals, 0)
    return totals, NullHypothesis.specified(2, [17.5]), np.zeros(n)


BOOTSTRAP_DESIGNS = {
    "season": (_season_design, 150),
    "no-full-maximizer": (lambda: _pinned_far_design(5, 1), 200),
    "restricted-saturates": (lambda: _pinned_far_design(5, 2), 200),
}


@pytest.mark.parametrize("design", sorted(BOOTSTRAP_DESIGNS))
def test_bootstrap_matches_fitting_each_table_alone(design):
    make, B = BOOTSTRAP_DESIGNS[design]
    totals, null, beta_null = make()
    table = ComparisonTable(np.triu(totals))
    # the per-table reference: one draw, two fits and a statistic per child, in order
    want, lost_full, lost_null = [], 0, 0
    for child in np.random.default_rng(11).spawn(B):
        boot = btm.simulate_comparisons(beta_null, totals, child)
        full = btm.bt_fit_mle(boot)
        if not full.exists:
            lost_full += 1
            continue
        restricted = btm.bt_fit_restricted(boot, null)
        if not restricted.exists:
            lost_null += 1
            continue
        want.append(lrt.lrt_statistic(full, restricted))
    got, total = lrt.bootstrap_distribution(table, null, beta_null, B, np.random.default_rng(11), 1e-8)
    assert total == B and len(got) == len(want)
    assert np.abs(np.array(got) - np.array(want)).max() <= 1e-8
    # more than two chunks, and each design reaches the case it is named for
    assert B > 2 * btm.DRAW_BLOCK
    if design == "no-full-maximizer":
        assert lost_full > 0
    if design == "restricted-saturates":
        assert lost_null > 0


def test_bootstrap_statistics_do_not_depend_on_chunk_or_batch_sizes(monkeypatch):
    # draws come in chunks and fits in batches of bounded size; neither size changes a statistic
    totals, null, beta_null = _season_design()
    table = ComparisonTable(np.triu(totals))

    def run():
        return lrt.bootstrap_distribution(table, null, beta_null, 120, np.random.default_rng(4), TOL_SCORE)

    want = run()
    monkeypatch.setattr(btm, "DRAW_BLOCK", 7)
    assert run() == want
    monkeypatch.setattr(core, "BATCH_CELLS", 1000)  # at most 3 tables of 18 classes a batch
    assert run() == want


def test_bootstrap_drops_unconverged_tables(monkeypatch):
    # with the Newton step cap at 4, most bootstrap tables stop short of the score
    # tolerance; they are dropped and counted like tables with no maximizer
    null = NullHypothesis.specified(3, [0.0, 0.0])
    beta = np.array([0.0, 0.0, 0.0, 0.5, 1.0, 1.5, 2.0, 2.5])
    table = btm.simulate_comparisons(beta, 2, np.random.default_rng(1))
    uncapped, _ = lrt.bootstrap_distribution(table, null, beta, 40, np.random.default_rng(2), TOL_SCORE)
    monkeypatch.setattr(core, "MAX_NEWTON", 4)
    stats, B = lrt.bootstrap_distribution(table, null, beta, 40, np.random.default_rng(2), TOL_SCORE)
    assert B == 40 and 0 < len(stats) < len(uncapped)
    # a table whose fits converge within the cap takes the same steps without it
    assert set(stats) <= set(uncapped)
    # at a cap of 3 full fits stop short too, and their tables are dropped whatever
    # their restricted fits give
    monkeypatch.setattr(core, "MAX_NEWTON", 3)
    fewer, _ = lrt.bootstrap_distribution(table, null, beta, 40, np.random.default_rng(2), TOL_SCORE)
    assert 0 < len(fewer) < len(stats) and set(fewer) <= set(uncapped)


def test_bootstrap_memory_stays_bounded():
    totals, null, beta_null = _season_design()
    table = ComparisonTable(np.triu(totals))
    tracemalloc.start()
    try:
        stats, _ = lrt.bootstrap_distribution(table, null, beta_null, 999, np.random.default_rng(1), 1e-8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # fitting all 999 tables in one batch peaks near 57 MiB
    assert len(stats) > 900 and peak < 8 * 2**20


def test_p_value_monotone_in_statistic():
    ps = [lrt.chi_square_sf(x, 4) for x in (0.0, 1.0, 5.0, 20.0)]
    assert ps == sorted(ps, reverse=True)
    assert ps[0] == 1.0


def test_a_bootstrap_holds_no_win_matrices(monkeypatch):
    # at n = 300 a chunk of 32 win matrices is 23 MB; the draws keep win totals only, and a
    # balanced design needs no matrix to decide connectivity, so with one generator drawn at
    # a time the peak does not grow with the children spawned together
    n, r = 300, 3
    beta = np.linspace(0.0, 1.0, n)
    null = NullHypothesis.specified(r, beta[1:r])
    table = btm.simulate_comparisons(beta, 2, np.random.default_rng(3))
    beta_null = btm.bt_fit_restricted(table, null).beta_hat
    # every draw of a balanced stack is handed no win matrices to fill, and an
    # unbalanced stack's draws are, for strongly_connected
    draw_block, handed = btm._pair_block, []

    def spied(*args):
        draw = draw_block(*args)

        def spy(gens, wins, tables):
            handed.append(tables is not None)
            return draw(gens, wins, tables)

        return spy

    monkeypatch.setattr(btm, "_pair_block", spied)
    lrt.bootstrap_distribution(table, null, beta_null, 3, np.random.default_rng(1), TOL_SCORE)
    assert handed and not any(handed)
    handed.clear()
    unbalanced = np.triu(np.random.default_rng(2).integers(1, 4, (6, 6)), 1)
    lrt.bootstrap_distribution(unbalanced + unbalanced.T, NullHypothesis.specified(2, [0.0]), np.zeros(6), 3,
                               np.random.default_rng(1), TOL_SCORE)
    assert handed and all(handed)
    monkeypatch.setattr(btm, "_pair_block", draw_block)

    monkeypatch.setattr(btm, "DRAW_BLOCK", 1)
    monkeypatch.setattr(btm, "strongly_connected", None)

    def peak(B):
        tracemalloc.start()
        try:
            stats, _ = lrt.bootstrap_distribution(table, null, beta_null, B, np.random.default_rng(1), TOL_SCORE)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert 32 * n * n * 8 > 20 * 2**20
    assert peak(64) < peak(2) + 2**20


def test_a_bootstrap_and_a_monte_carlo_chunk_share_one_outcome_rule(monkeypatch):
    rule, sizes = lrt.outcomes, []

    def spy(full, restricted):
        sizes.append(len(full))
        return rule(full, restricted)

    monkeypatch.setattr(lrt, "outcomes", spy)
    # one chunk of both replicates, then each replicate's B = 999 bootstrap
    mc.run_type1(mc.build_scenario("H03", model="bt", n=8, values=[0.0, 0.0], k=2, reps=2))
    assert sizes == [2, lrt.DEFAULT_BOOTSTRAP_B, lrt.DEFAULT_BOOTSTRAP_B]


@pytest.mark.parametrize("case", ["no-full-maximizer", "capped"])
def test_a_bootstrap_is_its_stack_s_fits_and_the_one_rule(case, monkeypatch):
    if case == "capped":  # full and restricted fits stop short of tol
        monkeypatch.setattr(core, "MAX_NEWTON", 3)
        totals, null, B = 2, NullHypothesis.specified(3, [0.0, 0.0]), 40
        beta_null = np.array([0.0, 0.0, 0.0, 0.5, 1.0, 1.5, 2.0, 2.5])
    else:
        make, B = BOOTSTRAP_DESIGNS[case]
        totals, null, beta_null = make()
    drawn = btm.simulate_comparisons(beta_null, totals, np.random.default_rng(5).spawn(B))
    full, restricted = lrt.fit_pair(drawn, null, TOL_SCORE)
    stats, unconverged = lrt.outcomes(full, restricted)
    got, total = lrt.bootstrap_distribution(totals, null, beta_null, B, np.random.default_rng(5), TOL_SCORE)
    assert total == B and got == stats[np.isfinite(stats)].tolist()
    # a statistic where both fits converged; unconverged where both exist but one stopped short
    both = full.converged & restricted.converged
    assert np.array_equal(np.isfinite(stats), both) and len(restricted) == B
    assert np.array_equal(unconverged, full.exists & restricted.exists & ~both)
    if case == "capped":
        assert unconverged.any() and both.any()
    else:
        assert not full.exists.all() and both.any()
