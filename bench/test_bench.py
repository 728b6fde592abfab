"""Tests of the benchmark itself, each workload at toy size.

    python -m pytest bench/test_bench.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

TOY = {
    "graph-calibration": {"n": 30, "reps": 30},
    "graph-file": {"n": 60},
    "comparison-bootstrap": {"n": 9, "B": 49},
}


def toy(name, tmp_path, seed=5):
    return workloads.WORKLOADS[name](seed, tmp_path, **TOY[name])


@pytest.mark.parametrize("name", sorted(TOY))
def test_toy_workload_runs_and_checks_clean(name, tmp_path):
    rounds = run.run_rounds(toy(name, tmp_path), 0.01)
    assert rounds.failures == [] and rounds.mismatches == []
    assert rounds.attempted == len(rounds.outputs) == run.MIN_ROUNDS * len(rounds.call_s)
    assert rounds.per_op == [] and len(rounds.round_s) == run.MIN_ROUNDS
    assert toy(name, tmp_path).check(rounds.outputs) == []


def _scale_stat(text):
    payload = json.loads(text)
    payload["stat"] *= 0.85
    return json.dumps(payload)


@pytest.mark.parametrize("name", ["graph-file", "comparison-bootstrap"])
def test_scaled_statistic_is_rejected(name, tmp_path):
    workload = toy(name, tmp_path)
    outputs = [(0, label, fn()) for label, fn in workload.round(0)]
    mutated = [(k, label, _scale_stat(t) if label != "fit" else t) for k, label, t in outputs]
    problems = workload.check(mutated)
    assert any("is not 2(l_full - l_null)" in p for p in problems), problems


def test_scaled_replicate_statistics_are_rejected(tmp_path):
    workload = toy("graph-calibration", tmp_path)
    outputs = [(k, label, fn()) for k in range(2) for label, fn in workload.round(k)]
    for _, _, report in outputs:
        report.stats *= 0.85
    problems = workload.check(outputs)
    assert any("p-values differ" in p for p in problems), problems
    assert any("reported stat" in p for p in problems), problems


def test_missing_replicate_statistic_is_rejected(tmp_path):
    workload = toy("graph-calibration", tmp_path)
    outputs = [(0, label, fn()) for label, fn in workload.round(0)]
    outputs[0][2].stats[0] = np.nan
    problems = workload.check(outputs)
    assert any("reported no statistic, but both refits exist" in p for p in problems), problems


def test_bootstrap_from_the_full_fit_is_rejected(tmp_path, monkeypatch):
    from pairlrt import bt_model, lrt

    honest = lrt.bootstrap_distribution

    def from_full_fit(table, null, beta_null, B, rng, tol):
        return honest(table, null, bt_model.bt_fit_mle(table, tol=tol).beta_hat, B, rng, tol)

    # The check compares two Monte Carlo tail shares, so it needs a season whose observed
    # statistic is far from typical under the full fit: here the honest p is 0.1, the
    # mutated one 0.84.  On seeds where both fits give a small statistic it cannot tell.
    workload = toy("comparison-bootstrap", tmp_path, seed=6)
    clean = [(0, label, fn()) for label, fn in workload.round(0)]
    assert workload.check(clean) == []
    monkeypatch.setattr(lrt, "bootstrap_distribution", from_full_fit)
    mutated = [(0, label, fn()) for label, fn in workload.round(0)]
    problems = workload.check(mutated)
    assert any("redone apart from the program" in p for p in problems), problems


def _traced_run(name, tmp_path):
    workload = toy(name, tmp_path)
    tracer = Tracer()
    tracer.install()
    try:
        return workload, run.run_rounds(workload, 0.01, tracer)
    finally:
        tracer.uninstall()


@pytest.mark.parametrize("name", sorted(TOY))
def test_traced_rounds_reach_every_layer_and_repeat_counts(name, tmp_path):
    workload, rounds = _traced_run(name, tmp_path)
    assert rounds.failures == [] and rounds.mismatches == []
    assert rounds.attempted == len(rounds.outputs)
    assert len(rounds.per_op) == run.TRACE_ROUNDS
    for agg in rounds.per_op:
        assert [n for n in workload.traced if not agg.get(n, {}).get("calls")] == []
        assert all(-1e-9 <= a["self"] <= a["busy"] + 1e-9 for a in agg.values())
    _, again = _traced_run(name, tmp_path)
    counts = [{n: (a["calls"], a["extra"]) for n, a in agg.items()} for agg in rounds.per_op]
    assert counts == [{n: (a["calls"], a["extra"]) for n, a in agg.items()} for agg in again.per_op]


def test_tracer_uninstall_restores_the_package(tmp_path):
    from pairlrt import beta_model, cli, core, fisher_approx

    before = (cli.load_edge_list, beta_model.fit_mle, fisher_approx.fisher_info,
              core.ComparisonTable.__dict__["totals"], np.linalg.solve)
    tracer = Tracer()
    tracer.install()
    assert cli.load_edge_list is not before[0] and fisher_approx.fisher_info is not before[2]
    tracer.uninstall()
    after = (cli.load_edge_list, beta_model.fit_mle, fisher_approx.fisher_info,
             core.ComparisonTable.__dict__["totals"], np.linalg.solve)
    assert all(a is b for a, b in zip(before, after))


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "graph-file", "--seed", "0", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout.strip() == ""
