import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from pairlrt import beta_model as bm
from pairlrt import bt_model as btm
from pairlrt import core, lrt
from pairlrt import montecarlo as mc
from pairlrt.core import NullHypothesis


def test_replicate_rng_frozen_stream():
    draw = mc.replicate_rng(42, 7).integers(0, 1000, 3)
    assert draw.tolist() == [480, 519, 332]
    again = mc.replicate_rng(42, 7).integers(0, 1000, 3)
    assert np.array_equal(draw, again)
    other = mc.replicate_rng(42, 8).integers(0, 1000, 3)
    assert not np.array_equal(draw, other)


def test_preset_h01():
    s = mc.build_scenario("H01", reps=10)
    assert (s.model, s.n, s.regime, s.kind) == ("beta", 100, "growing", "type1")
    assert s.null.kind == "specified" and s.null.r == 100
    assert s.null_holds()
    s2 = mc.build_scenario("H01", n=20, L=0.8, reps=10)
    assert s2.true_beta[-1] == pytest.approx(0.8)
    assert s2.true_beta[0] == 0.0
    assert s2.null_holds()


def test_preset_h02():
    s = mc.build_scenario("H02", n=40, L=0.6, reps=10)
    assert s.null.kind == "homogeneous" and s.null.r == 20
    assert s.regime == "growing"
    assert np.all(s.true_beta[:20] == 0.0)
    assert s.true_beta[20] > 0.0
    assert s.null_holds()


def test_preset_h03():
    s = mc.build_scenario("H03", n=30, values=[0.1, -0.2], L=0.5, reps=10)
    assert s.null.kind == "specified" and s.null.r == 2
    assert s.regime == "fixed"
    assert np.array_equal(s.true_beta[:2], [0.1, -0.2])
    # tail keeps the linear profile's own positions
    assert s.true_beta[2] == pytest.approx(2 * 0.5 / 29)
    assert s.null_holds()
    sbt = mc.build_scenario("H03", model="bt", n=10, values=[0.3, 0.3], k=2, reps=10)
    assert sbt.null.r == 3 and sbt.true_beta[0] == 0.0
    assert sbt.null_holds()


def test_preset_h04_and_power():
    s = mc.build_scenario("H04", n=50, L=0.4, reps=10)
    assert s.null == NullHypothesis.homogeneous(5)
    assert s.regime == "fixed" and s.kind == "type1"
    assert s.null_holds()
    p = mc.build_scenario("PowerBeta", n=50, r=5, c=0.8, reps=10)
    assert p.kind == "power" and p.model == "beta"
    assert not p.null_holds()
    p0 = mc.build_scenario("PowerBeta", n=50, r=5, c=0.0, reps=10)
    assert p0.null_holds()
    pbt = mc.build_scenario("PowerBT", n=20, r=5, c=1.0, reps=10)
    assert pbt.model == "bt" and pbt.k == 1 and pbt.true_beta[0] == 0.0
    nba = mc.build_scenario("NBASmall", reps=10)
    assert (nba.n, nba.k, nba.null.r, nba.kind) == (30, 3, 10, "power")


def test_build_scenario_rejects_leftovers():
    with pytest.raises(ValueError, match="unknown preset"):
        mc.build_scenario("H99")
    with pytest.raises(ValueError, match="unused"):
        mc.build_scenario("H01", c=0.5)
    with pytest.raises(ValueError, match="unused"):
        mc.build_scenario("H04", values=[0.0])


def test_scenario_validation():
    null = NullHypothesis.homogeneous(2)
    ok = dict(name="x", model="beta", n=4, null=null, true_beta=np.zeros(4),
              regime="fixed", kind="type1", reps=5)
    mc.Scenario(**ok)
    with pytest.raises(ValueError):
        mc.Scenario(**{**ok, "model": "ising"})
    with pytest.raises(ValueError):
        mc.Scenario(**{**ok, "regime": "shrinking"})
    with pytest.raises(ValueError):
        mc.Scenario(**{**ok, "kind": "type2"})
    with pytest.raises(ValueError):
        mc.Scenario(**{**ok, "reps": 0})
    with pytest.raises(ValueError):
        mc.Scenario(**{**ok, "true_beta": np.zeros(5)})
    with pytest.raises(ValueError):
        mc.Scenario(**{**ok, "alphas": (0.05, 1.5)})
    with pytest.raises(ValueError, match="pair totals"):
        mc.Scenario(**{**ok, "model": "bt"})
    with pytest.raises(ValueError, match="true_beta\\[0\\]"):
        mc.Scenario(**{**ok, "model": "bt", "k": 2, "true_beta": np.ones(4)})


def test_a_graph_scenario_takes_no_k():
    # k counts the comparisons of a pair, which a graph does not have: setting it is an
    # error that names it, not a value the run echoes and ignores
    ok = dict(name="x", model="beta", n=4, null=NullHypothesis.homogeneous(2), true_beta=np.zeros(4),
              regime="fixed", kind="type1", reps=5)
    for k in (3, np.full((4, 4), 2)):
        with pytest.raises(ValueError, match="'k'"):
            mc.Scenario(**ok, k=k)
    for preset in ("H04", "PowerBeta"):
        with pytest.raises(ValueError, match="'k'"):
            mc.build_scenario(preset, n=10, reps=5, k=3)
    assert mc.build_scenario("H04", n=10, reps=5).k is None


def test_a_power_preset_keeps_its_own_model():
    # PowerBeta is a graph design and PowerBT and NBASmall comparison designs: another
    # model is an error that names it, not a value dropped
    with pytest.raises(ValueError, match="PowerBeta.*'model'"):
        mc.build_scenario("PowerBeta", n=10, reps=3, model="bt")
    for preset in ("PowerBT", "NBASmall"):
        with pytest.raises(ValueError, match=f"{preset}.*'model'"):
            mc.build_scenario(preset, n=12, reps=3, model="beta")
    assert mc.build_scenario("PowerBeta", n=10, reps=3, model="beta").model == "beta"
    assert mc.build_scenario("PowerBT", n=10, r=3, reps=3, model="bt", k=2).k == 2


def test_scenario_roundtrip_json():
    s = mc.build_scenario("NBASmall", c=0.7, reps=10, seed=9, alphas=(0.01, 0.05))
    d = json.loads(json.dumps(s.to_dict()))
    s2 = mc.Scenario.from_dict(d)
    assert s2.to_dict() == s.to_dict()


def test_scenario_json_rejects_fractional_counts():
    s = mc.build_scenario("H03", model="bt", n=4, values=[0.0, 0.0], k=2, reps=1)
    # a scalar k is checked as the file is read, a matrix when the scenario is built
    matrix = np.where(np.eye(4) == 1, 0.0, 2.5).tolist()
    for k, fragment in ((2.7, "'k' must be a whole number"), (matrix, "whole numbers")):
        d = json.loads(json.dumps({**s.to_dict(), "k": k}))
        with pytest.raises(ValueError, match=fragment):
            mc.run_type1(mc.Scenario.from_dict(d))


def test_scenario_json_rejects_fractional_sizes():
    # n, reps, seed and the null's r are whole numbers: 12.0 is one, 12.5, "4", null and true are not
    d = json.loads(json.dumps(mc.build_scenario("H04", n=12, r=3, reps=4, seed=11).to_dict()))
    assert mc.Scenario.from_dict({**d, "n": 12.0, "reps": 4.0}).to_dict() == mc.Scenario.from_dict(d).to_dict()
    for key, bad in [("n", 12.5), ("reps", "4"), ("seed", None), ("seed", True)]:
        with pytest.raises(ValueError, match=f"'{key}' must be a whole number"):
            mc.Scenario.from_dict({**d, key: bad})
    with pytest.raises(ValueError, match="'r' must be a whole number"):
        mc.Scenario.from_dict({**d, "null": {**d["null"], "r": 3.5}})
    with pytest.raises(ValueError, match="'alphas' must be a list of numbers"):
        mc.Scenario.from_dict({**d, "alphas": ["0.05"]})
    # the Python API still takes any sequence of levels
    s = mc.Scenario.from_dict(d)
    assert dataclasses.replace(s, alphas=np.array([0.05, 0.1])).alphas == s.alphas


def test_run_type1_guards_null():
    s = mc.build_scenario("PowerBeta", n=20, r=4, c=0.8, reps=5)
    with pytest.raises(ValueError, match="null"):
        mc.run_type1(s)


def test_run_scenario_small():
    s = mc.build_scenario("H04", n=16, r=3, reps=24, seed=11)
    rep = mc.run_type1(s)
    assert set(rep.rejection_rate) == {0.05, 0.10}
    for rate in rep.rejection_rate.values():
        assert 0.0 <= rate <= 1.0
    assert rep.reps_used + round(rep.nonexist_freq * 24) == 24
    finite = np.isfinite(rep.stats)
    assert finite.sum() == rep.reps_used
    assert np.all(rep.stats[finite] >= 0.0)
    pv = rep.pvalues[np.isfinite(rep.pvalues)]
    assert np.all((pv >= 0.0) & (pv <= 1.0))
    assert np.array_equal(rep.existing_stats(), rep.stats[finite])
    d = rep.to_dict()
    assert d["reps_used"] == rep.reps_used and "0.05" in d["rejection_rate"]


def test_stats_only_skips_pvalues():
    s = mc.build_scenario("H04", n=16, r=3, reps=8, seed=11)
    rep = mc.run_scenario(s, stats_only=True)
    assert rep.rejection_rate is None and rep.pvalues is None
    assert rep.reps_used > 0


def test_worker_determinism():
    s = mc.build_scenario("H04", n=16, r=3, reps=24, seed=11)
    one = mc.run_type1(s, workers=1)
    three = mc.run_type1(s, workers=3)
    assert np.array_equal(one.stats, three.stats, equal_nan=True)
    assert np.array_equal(one.pvalues, three.pvalues, equal_nan=True)
    assert one.rejection_rate == three.rejection_rate


def test_extending_reps_preserves_prefix():
    short = mc.build_scenario("H04", n=16, r=3, reps=10, seed=11)
    long = mc.build_scenario("H04", n=16, r=3, reps=20, seed=11)
    a = mc.run_scenario(short, stats_only=True).stats
    b = mc.run_scenario(long, stats_only=True).stats
    assert np.array_equal(a, b[:10], equal_nan=True)


def test_nonexistence_tally_and_abort():
    s = mc.build_scenario("H01", n=12, L=0.9, reps=80, seed=3)
    rep = mc.run_scenario(s, stats_only=True)
    assert 0.0 < rep.nonexist_freq < 0.5
    assert rep.reps_used == round((1.0 - rep.nonexist_freq) * 80)
    extreme = mc.build_scenario("H01", n=12, L=3.0, reps=40, seed=3)
    with pytest.raises(RuntimeError, match="too extreme"):
        mc.run_scenario(extreme, stats_only=True)
    hopeless = mc.build_scenario("H01", n=12, L=3.0, reps=240, seed=3)
    with pytest.raises(RuntimeError, match="too extreme"):
        mc.run_scenario(hopeless, stats_only=True)


@pytest.mark.parametrize("workers", [1, 2])
def test_abort_rule_ignores_worker_count(workers):
    hopeless = mc.build_scenario("H01", n=12, L=3.0, reps=240, seed=3)
    with pytest.raises(RuntimeError, match="maximizer missing in 240 of 240 replicates; the design is too extreme"):
        mc.run_scenario(hopeless, workers=workers, stats_only=True)


def test_quantile_pairs_chi_square():
    stats = np.array([lrt.chi_square_quantile(q, 2) for q in (np.arange(1, 41) - 0.5) / 40])
    pairs = mc.quantile_pairs(stats, lrt.ChiSquare(2))
    assert pairs.shape == (40, 2)
    assert np.allclose(pairs[:, 0], pairs[:, 1], atol=1e-10)
    assert np.all(np.diff(pairs[:, 0]) > 0)


def test_quantile_pairs_normalized():
    stats = np.array([3.0, 5.0, np.nan, 7.0])
    pairs = mc.quantile_pairs(stats, lrt.NormalizedGaussian(), r=5)
    assert pairs.shape == (3, 2)
    assert pairs[1, 1] == pytest.approx(0.0)
    assert pairs[1, 0] == pytest.approx(lrt.normal_quantile(0.5))
    with pytest.raises(ValueError, match="needs the null dimension"):
        mc.quantile_pairs(stats, lrt.NormalizedGaussian())
    with pytest.raises(ValueError, match="no statistics"):
        mc.quantile_pairs(np.array([np.nan]), lrt.ChiSquare(1))
    with pytest.raises(ValueError, match="chi-square or normalized"):
        mc.quantile_pairs(stats, lrt.Bootstrap(99))


def test_qq_data_small_run():
    s = mc.build_scenario("H04", n=16, r=3, reps=12, seed=11)
    pairs = mc.qq_data(s)
    rep = mc.run_scenario(s, stats_only=True)
    assert pairs.shape == (rep.reps_used, 2)
    assert np.all(np.diff(pairs[:, 1]) >= 0)
    bt_fixed = mc.build_scenario("H03", model="bt", n=8, values=[0.0, 0.0], k=2, reps=5)
    with pytest.raises(ValueError, match="bootstrap"):
        mc.qq_data(bt_fixed)


def test_linear_profile():
    prof = mc.linear_profile(5, 2.0)
    assert np.allclose(prof, [0.0, 0.5, 1.0, 1.5, 2.0])
    with pytest.raises(ValueError):
        mc.linear_profile(1, 2.0)


@pytest.mark.parametrize(
    "preset, params",
    [
        # comparison-model specified nulls in the fixed regime are bootstrap-calibrated
        ("H03", dict(model="bt", n=8, values=[0.0, 0.0], k=2)),
        # graph-model homogeneous null, fixed regime: chi-square with r - 1 df
        ("H04", dict(n=30, r=5)),
        # growing regime: the chi-square(r) surrogate
        ("H02", dict(n=30)),
    ],
    ids=["bootstrap", "fixed", "growing"],
)
def test_bootstrap_replicate_runs_end_to_end(preset, params):
    s = mc.build_scenario(preset, reps=1, **params)
    rep = mc.run_type1(s)
    assert set(rep.rejection_rate) == {0.05, 0.10}
    assert 0.0 < rep.pvalues[0] <= 1.0
    assert rep.bootstrap_short == 0

    # the same stream, after the simulation draw, gives run_test's p-value
    rng = mc.replicate_rng(s.seed, 0)
    if s.model == "bt":
        data = btm.simulate_comparisons(s.true_beta, s.k, rng)
    else:
        data = bm.simulate_graph(s.true_beta, rng)
    assert rep.pvalues[0] == lrt.run_test(data, s.null, s.regime, rng=rng).p_value


def test_short_bootstrap_left_out_of_rates(monkeypatch):
    calls = []

    def fake_bootstrap(table, null, beta_null, B, rng, tol):
        calls.append(tol)
        if len(calls) == 1:
            return [], B  # every draw lost: no p-value for this replicate
        return [0.0] * B, B  # every draw below the observed statistic

    monkeypatch.setattr(mc.lrt, "bootstrap_distribution", fake_bootstrap)
    s = mc.build_scenario("H03", model="bt", n=8, values=[0.0, 0.0], k=2, reps=3)
    rep = mc.run_type1(s)
    assert len(calls) == 3
    assert np.isnan(rep.pvalues[0]) and np.all(np.isfinite(rep.pvalues[1:]))
    assert rep.reps_used == 3 and rep.bootstrap_short == 1
    # the replicate without a p-value is neither a rejection nor a non-rejection
    assert rep.rejection_rate == {0.05: 1.0, 0.10: 1.0}
    assert rep.to_dict()["bootstrap_short"] == 1


# a graph-model and a comparison-model design, small enough to run many replicates
SMALL_DESIGNS = {
    "beta": dict(preset="H04", n=16, r=3),
    "bt": dict(preset="H04", model="bt", n=10, r=4, k=2),
}


def _small(model, reps):
    params = dict(SMALL_DESIGNS[model])
    return mc.build_scenario(params.pop("preset"), reps=reps, seed=11, **params)


@pytest.fixture
def small_chunks(monkeypatch):
    # chunks of 5 replicates at n = 16 and of 12 at n = 10
    monkeypatch.setattr(mc, "CHUNK_CELLS", 5 * 16**2)


@pytest.mark.parametrize("model", sorted(SMALL_DESIGNS))
def test_chunked_runs_ignore_worker_count(model, small_chunks):
    s = _small(model, 30)
    one = mc.run_type1(s, workers=1)
    three = mc.run_type1(s, workers=3)
    assert np.array_equal(one.stats, three.stats, equal_nan=True)
    assert np.array_equal(one.pvalues, three.pvalues, equal_nan=True)
    assert one.to_dict() == three.to_dict()


def test_bootstrap_replicates_ignore_worker_count(monkeypatch):
    # each replicate's bootstrap p-value lands in its own slot, whichever chunk and job it
    # ran in: chunks of 3 replicates in one job against seven jobs of one replicate
    monkeypatch.setattr(mc, "CHUNK_CELLS", 3 * 8**2)
    s = mc.build_scenario("H03", model="bt", n=8, values=[0.0, 0.0], k=2, reps=7, seed=5)
    one = mc.run_type1(s, workers=1)
    two = mc.run_type1(s, workers=2)
    assert np.isfinite(one.pvalues).sum() >= 5
    assert np.array_equal(one.stats, two.stats, equal_nan=True)
    assert np.array_equal(one.pvalues, two.pvalues, equal_nan=True)
    assert one.to_dict() == two.to_dict()


@pytest.mark.parametrize("model", sorted(SMALL_DESIGNS))
def test_chunked_runs_extend_without_changing_the_prefix(model, small_chunks):
    a = mc.run_scenario(_small(model, 13), stats_only=True).stats
    b = mc.run_scenario(_small(model, 30), stats_only=True).stats
    assert np.array_equal(a, b[:13], equal_nan=True)


@pytest.mark.parametrize("model", sorted(SMALL_DESIGNS))
def test_unconverged_replicates_are_tallied(model, monkeypatch):
    # a cap of a few Newton steps leaves some fits short of the score tolerance
    monkeypatch.setattr(core, "MAX_NEWTON", {"beta": 3, "bt": 2}[model])
    s = _small(model, 24)
    rep = mc.run_type1(s)
    assert 0 < rep.unconverged < 24 and rep.nonexist_freq == 0.0
    assert rep.reps_used + rep.unconverged == 24
    assert rep.to_dict()["unconverged"] == rep.unconverged
    # an unconverged replicate is neither a rejection nor a non-rejection
    tested = rep.pvalues[np.isfinite(rep.pvalues)]
    assert tested.size == rep.reps_used
    assert rep.rejection_rate == {a: float((tested <= a).mean()) for a in s.alphas}
    two = mc.run_type1(s, workers=2)
    assert np.array_equal(rep.stats, two.stats, equal_nan=True) and rep.to_dict() == two.to_dict()


def test_a_chunk_holds_its_own_graphs_only():
    # at n = 1000 a chunk is one replicate, held as one degree row while a block of pairs is drawn
    def peak(reps):
        s = mc.build_scenario("H04", n=1000, r=5, reps=reps, seed=1)
        tracemalloc.start()
        try:
            assert mc.run_scenario(s, stats_only=True).reps_used == reps
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(8) < peak(2) + 2**20
