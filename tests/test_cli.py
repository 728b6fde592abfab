import json

import numpy as np
import pytest
from click.testing import CliRunner

from pairlrt import beta_model as bm
from pairlrt import bt_model as btm
from pairlrt import core
from pairlrt import fisher_approx as fa
from pairlrt import lrt
from pairlrt import montecarlo as mc
from pairlrt.cli import main
from pairlrt.core import ComparisonTable, NullHypothesis, UndirectedGraph, load_edge_list

from conftest import random_connected_table


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def cycle_graph(tmp_path):
    g = UndirectedGraph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
    path = tmp_path / "cycle.txt"
    path.write_text(g.to_text())
    return g, str(path)


@pytest.fixture
def small_table(tmp_path):
    wins = np.array([[0, 2, 1], [1, 0, 3], [0, 2, 0]])
    table = ComparisonTable(wins)
    path = tmp_path / "wins.txt"
    path.write_text(table.to_text())
    return table, str(path)


def test_fit_beta_matches_library(runner, cycle_graph):
    g, path = cycle_graph
    res = runner.invoke(main, ["fit", "--model", "beta", "--input", path])
    assert res.exit_code == 0, res.output
    payload = json.loads(res.stdout)
    direct = bm.fit_mle(g)
    assert payload["n"] == 6
    assert np.allclose(payload["beta_hat"], direct.beta_hat, atol=1e-10)
    V = bm.fisher_info(direct.beta_hat)
    assert np.allclose(payload["se"], np.sqrt(fa.diag_approx(V, 0)), atol=1e-10)
    assert payload["loglik"] == pytest.approx(direct.loglik)
    assert "loglik" in res.stderr


def test_fit_bt_matches_library(runner, small_table):
    table, path = small_table
    res = runner.invoke(main, ["fit", "--model", "bt", "--input", path])
    assert res.exit_code == 0, res.output
    payload = json.loads(res.stdout)
    direct = btm.bt_fit_mle(table)
    assert np.allclose(payload["beta_hat"], direct.beta_hat, atol=1e-10)
    assert payload["se"][0] == 0.0
    assert len(payload["se"]) == 3


def test_fit_exit_code_nonexistent(runner, tmp_path):
    path = tmp_path / "iso.txt"
    path.write_text("n=3\n0 1\n")
    res = runner.invoke(main, ["fit", "--model", "beta", "--input", str(path)])
    assert res.exit_code == 3
    assert "maximizer does not exist" in res.stderr


@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf", "1"])
@pytest.mark.parametrize("model", ["beta", "bt"])
def test_fit_rejects_a_tolerance_outside_the_unit_interval(runner, cycle_graph, small_table, monkeypatch, model, tol):
    def no_step(*args):
        raise AssertionError("a Newton step ran")

    monkeypatch.setattr(core, "newton_ascent", no_step)
    path = cycle_graph[1] if model == "beta" else small_table[1]
    res = runner.invoke(main, ["fit", "--model", model, "--input", path, "--tol", tol])
    assert res.exit_code == 2, res.output
    assert "tolerance" in res.stderr and "Traceback" not in res.output


def test_fit_exit_code_malformed(runner, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("n=3\n0 1 junk extra\n")
    res = runner.invoke(main, ["fit", "--model", "beta", "--input", str(path)])
    assert res.exit_code == 4
    assert "data format error" in res.stderr


@pytest.mark.parametrize(
    "args, text, line",
    [
        (["fit", "--model", "beta"], "0 1\n1 2\n2 99999999999999999999\n", "line 3"),
        (
            ["test", "--model", "bt", "--null", "homogeneous:3", "--regime", "fixed"],
            "n=3\n0,1,99999999999999999999\n1,2,1\n2,0,1\n",
            "line 2",
        ),
    ],
)
def test_integers_beyond_int64_are_format_errors(runner, tmp_path, args, text, line):
    path = tmp_path / "big.txt"
    path.write_text(text)
    res = runner.invoke(main, [*args, "--input", str(path)])
    assert res.exit_code == 4
    assert "data format error" in res.stderr and line in res.stderr


def test_an_n_too_large_to_size_is_a_format_error(runner, tmp_path):
    # numpy refuses a degree count of 2**63 - 1 cells before allocating anything
    path = tmp_path / "huge.txt"
    path.write_text("9223372036854775806 2\n")
    res = runner.invoke(main, ["fit", "--model", "beta", "--input", str(path)])
    assert res.exit_code == 4, res.output
    assert res.stderr == "data format error: n=9223372036854775807, one plus the largest node id, is too large\n"


@pytest.mark.parametrize(
    "model, text, noun", [("beta", "1000000000000 2\n", "node"), ("bt", "1000000000000,2,1\n", "subject")],
    ids=["beta", "bt"],
)
def test_an_n_memory_refuses_is_a_format_error(runner, tmp_path, monkeypatch, model, text, noun):
    # an n-cell degree count or n x n win table that the system cannot allocate raises
    # MemoryError; stand-ins raise it here in place of an allocation of many GiB
    n = 10**12 + 1
    bincount, zeros = np.bincount, np.zeros

    def refuse(real, size):
        def alloc(*args, **kwargs):
            if size(*args, **kwargs):
                raise MemoryError
            return real(*args, **kwargs)
        return alloc

    monkeypatch.setattr(core.np, "bincount", refuse(bincount, lambda *a, minlength=0, **k: minlength == n))
    monkeypatch.setattr(core.np, "zeros", refuse(zeros, lambda shape, *a, **k: shape == (n, n)))
    path = tmp_path / "huge.txt"
    path.write_text(text)
    res = runner.invoke(main, ["fit", "--model", model, "--input", str(path)])
    assert res.exit_code == 4, res.output
    assert res.stderr == f"data format error: n={n}, one plus the largest {noun} id, is too large\n"


@pytest.mark.parametrize("r", ["x", "2.5"])
def test_a_homogeneous_null_needs_a_whole_number(runner, cycle_graph, r):
    res = runner.invoke(main, ["test", "--model", "beta", "--input", cycle_graph[1], "--null", f"homogeneous:{r}",
                               "--regime", "fixed"])
    assert res.exit_code == 2, res.output
    assert res.stderr == f"error: --null homogeneous:<r> needs a whole number r, got '{r}'\n"


@pytest.mark.parametrize("which", ["edges", "comparisons", "null"])
def test_bytes_that_are_not_utf8_are_format_errors(runner, tmp_path, which):
    files = {
        "edges": "n=4\n0 1\n1 2\n2 3\n0 3\n",
        "comparisons": "n=3\n0,1,2\n1,2,1\n2,0,1\n1,0,1\n",
        "null": "0.0\n0.0\n",
    }
    for name, text in files.items():
        (tmp_path / name).write_bytes(text.encode() + (b"# caf\xe9\n" if name == which else b""))
    model = "bt" if which == "comparisons" else "beta"
    data = tmp_path / ("comparisons" if model == "bt" else "edges")
    null = f"specified:{tmp_path / 'null'}" if which == "null" else "homogeneous:3"
    res = runner.invoke(main, ["test", "--model", model, "--input", str(data), "--null", null, "--regime", "fixed"])
    assert res.exit_code == 4, res.output
    offset = len(files[which]) + 5
    assert f"data format error: {tmp_path / which}: byte {offset} (0xe9) is not UTF-8" in res.stderr


def test_stdin_is_read_as_utf8(runner):
    args = ["fit", "--model", "beta", "--input", "-"]
    assert runner.invoke(main, args, input="n=4\n0 1\n1 2\n2 3 # café\n0 3\n".encode()).exit_code == 0
    res = runner.invoke(main, args, input=b"n=4\n0 1\n1 2\n2 3 # caf\xe9\n0 3\n")
    assert res.exit_code == 4 and "-: byte 21 (0xe9) is not UTF-8" in res.stderr


def test_files_end_lines_at_cr_and_crlf(runner, tmp_path):
    outputs = []
    for end in ["\n", "\r\n", "\r"]:
        path = tmp_path / "graph.txt"
        path.write_bytes(end.join(["n=4", "0 1", "1 2", "2 3", "0 3", ""]).encode())
        res = runner.invoke(main, ["fit", "--model", "beta", "--input", str(path)])
        assert res.exit_code == 0, res.output
        outputs.append(res.stdout)
    assert outputs[0] == outputs[1] == outputs[2]


def test_test_verb_matches_run_test(runner, cycle_graph):
    g, path = cycle_graph
    res = runner.invoke(
        main,
        ["test", "--model", "beta", "--input", path,
         "--null", "homogeneous:3", "--regime", "fixed"],
    )
    assert res.exit_code == 0, res.output
    payload = json.loads(res.stdout)
    direct = lrt.run_test(g, NullHypothesis.homogeneous(3), "fixed")
    assert payload == json.loads(json.dumps(direct.to_dict()))
    assert payload["p_value"] == pytest.approx(lrt.chi_square_sf(payload["stat"], 2))


def test_test_verb_specified_null_from_file(runner, cycle_graph, tmp_path):
    _, path = cycle_graph
    values = tmp_path / "null.txt"
    values.write_text("0.0\n0.0\n")
    res = runner.invoke(
        main,
        ["test", "--model", "beta", "--input", path,
         "--null", f"specified:{values}", "--regime", "fixed"],
    )
    assert res.exit_code == 0, res.output
    payload = json.loads(res.stdout)
    assert payload["reference"] == {"type": "chi_square", "df": 2}


@pytest.mark.parametrize("B", ["0", "-3"])
def test_bootstrap_size_must_be_positive(runner, tmp_path, B):
    _, table = random_connected_table(np.random.default_rng(4), 6, k=3)
    path = tmp_path / "season.txt"
    path.write_text(table.to_text())
    values = tmp_path / "null.txt"
    values.write_text("0.0\n")
    base = ["test", "--model", "bt", "--input", str(path), "--null", f"specified:{values}", "--regime", "fixed"]
    assert runner.invoke(main, base + ["--bootstrap-b", "5"]).exit_code == 0
    res = runner.invoke(main, base + ["--bootstrap-b", B])
    assert res.exit_code == 2
    assert "--bootstrap-b" in res.stderr and "Traceback" not in res.output


def test_test_verb_rejects_bad_null(runner, cycle_graph):
    _, path = cycle_graph
    res = runner.invoke(
        main,
        ["test", "--model", "beta", "--input", path,
         "--null", "top-three", "--regime", "fixed"],
    )
    assert res.exit_code == 2
    assert "error" in res.stderr


def test_simulate_is_deterministic(runner, tmp_path):
    args = ["simulate", "--preset", "H04", "--n", "16", "--reps", "5",
            "--seed", "3", "--index", "2"]
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    r1 = runner.invoke(main, args + ["--out", str(a)])
    r2 = runner.invoke(main, args + ["--out", str(b)])
    assert r1.exit_code == 0 and r2.exit_code == 0
    assert a.read_bytes() == b.read_bytes()
    g = load_edge_list(a.read_text())
    assert g.n == 16
    other = tmp_path / "c.txt"
    r3 = runner.invoke(main, args[:-1] + ["3", "--out", str(other)])
    assert r3.exit_code == 0
    assert other.read_bytes() != a.read_bytes()


def test_simulate_comparison_preset_matches_library(runner):
    res = runner.invoke(main, ["simulate", "--preset", "PowerBT", "--n", "12", "--r", "4",
                               "--c", "0.8", "--k", "3", "--seed", "4", "--index", "2"])
    assert res.exit_code == 0, res.output
    scenario = mc.build_scenario("PowerBT", n=12, r=4, c=0.8, k=3, seed=4)
    table = btm.simulate_comparisons(scenario.true_beta, 3, mc.replicate_rng(4, 2))
    assert res.stdout == table.to_text()


def test_power_verb_matches_library(runner, tmp_path):
    out = tmp_path / "report.json"
    csv = tmp_path / "stats.csv"
    res = runner.invoke(
        main,
        ["power", "--preset", "H04", "--n", "16", "--r", "3", "--reps", "24",
         "--seed", "11", "--stats-csv", str(csv), "--out", str(out)],
    )
    assert res.exit_code == 0, res.output
    payload = json.loads(out.read_text())
    scenario = mc.build_scenario("H04", n=16, r=3, reps=24, seed=11)
    direct = mc.run_type1(scenario)
    assert payload["rejection_rate"]["0.05"] == direct.rejection_rate[0.05]
    assert payload["rejection_rate"]["0.1"] == direct.rejection_rate[0.10]
    assert payload["nonexist_freq"] == direct.nonexist_freq
    assert payload["scenario"] == json.loads(json.dumps(scenario.to_dict()))
    assert len(csv.read_text().splitlines()) == 24
    assert "alpha=0.05" in res.stderr


def test_power_custom_alpha_and_scenario_file(runner, tmp_path):
    scenario = mc.build_scenario("H04", n=16, r=3, reps=24, seed=11)
    sfile = tmp_path / "scenario.json"
    sfile.write_text(json.dumps(scenario.to_dict()))
    res = runner.invoke(
        main,
        ["power", "--scenario", str(sfile), "--reps", "6", "--alpha", "0.02"],
    )
    assert res.exit_code == 0, res.output
    payload = json.loads(res.stdout)
    assert payload["scenario"]["reps"] == 6
    assert list(payload["rejection_rate"]) == ["0.02"]


@pytest.mark.parametrize("verb", ["power", "simulate"])
@pytest.mark.parametrize(
    "option",
    [["--model", "bt"], ["--n", "40"], ["--r", "4"], ["--L", "2.0"], ["--c", "0.5"], ["--k", "2"], ["--preset", "H02"]],
)
def test_scenario_file_rejects_design_options(runner, tmp_path, verb, option):
    scenario = mc.build_scenario("H04", n=12, r=3, reps=4, seed=11)
    sfile = tmp_path / "scenario.json"
    sfile.write_text(json.dumps(scenario.to_dict()))
    res = runner.invoke(main, [verb, "--scenario", str(sfile), *option])
    assert res.exit_code == 2
    assert option[0] in res.stderr


def _scenario_file(tmp_path, scenario, **changes):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({**scenario.to_dict(), **changes}))
    return str(path)


@pytest.mark.parametrize(
    "verb, key",
    [("simulate", "true_beta"), ("simulate", "values"), ("simulate", "k"), ("power", "k")],
)
def test_scenario_values_of_the_wrong_type_exit_2(runner, tmp_path, verb, key):
    # an object where numbers belong, or a matrix of strings, names its key instead of a traceback
    if key == "true_beta":
        path = _scenario_file(tmp_path, mc.build_scenario("H04", n=12, reps=4), true_beta={"a": 1})
    elif key == "values":
        s = mc.build_scenario("H03", n=12, values=[0.0, 0.5], reps=4)
        path = _scenario_file(tmp_path, s, null={**s.null.to_dict(), "values": {"a": 1}})
    else:
        path = _scenario_file(tmp_path, mc.build_scenario("H04", model="bt", n=6, r=3, k=2, reps=4), k=[["1"] * 6] * 6)
    res = runner.invoke(main, [verb, "--scenario", path])
    assert res.exit_code == 2, res.output
    assert f"'{key}'" in res.stderr


NEXT = np.eye(6, k=1, dtype=int)
BAD_K = {  # a 6-subject k matrix, 2 comparisons a pair, spoilt five ways
    "shape": (np.full((5, 5), 2), "6-by-6"),
    "asymmetric": (2 + NEXT, "symmetric"),
    "negative": (2 - 3 * (NEXT + NEXT.T), "nonnegative"),
    "fractional": (np.full((6, 6), 2.5), "whole numbers"),
    "ragged": ([[2] * 6] * 5 + [[2] * 5], "rows differ in length"),  # a list: no array is ragged
}


@pytest.mark.parametrize("verb", ["power", "qq", "simulate"])
@pytest.mark.parametrize("kind", sorted(BAD_K))
def test_a_bad_k_matrix_is_rejected_before_any_replicate(runner, tmp_path, monkeypatch, verb, kind):
    def fail(*args, **kwargs):
        raise AssertionError("a replicate was drawn before k was checked")

    monkeypatch.setattr(mc, "run_scenario", fail)
    monkeypatch.setattr(mc, "simulate", fail)
    k, message = BAD_K[kind]
    s = mc.build_scenario("H04", model="bt", n=6, r=3, k=2, reps=4)
    res = runner.invoke(main, [verb, "--scenario", _scenario_file(tmp_path, s, k=k if isinstance(k, list) else k.tolist())])
    assert res.exit_code == 2, res.output
    assert message in res.stderr and "'k'" in res.stderr


def test_power_requires_some_design(runner):
    res = runner.invoke(main, ["power", "--reps", "5"])
    assert res.exit_code == 2
    assert "either" in res.stderr


def test_qq_verb_reference_handling(runner):
    base = ["qq", "--preset", "H04", "--n", "16", "--r", "3",
            "--reps", "12", "--seed", "11"]
    default = runner.invoke(main, base)
    assert default.exit_code == 0, default.output
    lines = default.stdout.splitlines()
    assert lines[0] == "theoretical,empirical"
    assert len(lines) >= 2
    explicit = runner.invoke(main, base + ["--reference", "chi2:2"])
    assert explicit.stdout == default.stdout
    normal = runner.invoke(main, base + ["--reference", "normal"])
    assert normal.exit_code == 0
    bad = runner.invoke(main, base + ["--reference", "uniform"])
    assert bad.exit_code == 2


@pytest.mark.parametrize("df", ["0", "-1"])
def test_qq_rejects_chi_square_reference_below_one_df(runner, df):
    res = runner.invoke(main, ["qq", "--preset", "H04", "--n", "20", "--reps", "20", "--reference", f"chi2:{df}"])
    assert res.exit_code == 2
    assert "df must be a positive integer" in res.stderr
    assert "nan" not in res.stdout


def test_qq_rejects_a_bad_reference_before_any_replicate(runner, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("replicates ran before the reference was checked")

    monkeypatch.setattr(mc, "run_scenario", fail)
    res = runner.invoke(main, ["qq", "--preset", "H04", "--n", "20", "--reps", "400", "--reference", "chi2:0"])
    assert res.exit_code == 2
    assert "df must be a positive integer" in res.stderr


@pytest.mark.parametrize("verb", ["power", "qq"])
@pytest.mark.parametrize("design", [["--n", "10", "--r", "11"], ["--n", "3"]])
def test_a_null_past_n_is_named_as_such(runner, verb, design):
    # the preset's true_beta holds the null's r entries, which pass n, but the null is the cause
    res = runner.invoke(main, [verb, "--preset", "H04", "--reps", "4", *design])
    assert res.exit_code == 2, res.output
    assert "null touches" in res.stderr and "true_beta" not in res.stderr


@pytest.mark.parametrize("verb", ["power", "qq"])
@pytest.mark.parametrize("workers", ["0", "-3"])
def test_workers_must_be_positive(runner, monkeypatch, verb, workers):
    def fail(*args, **kwargs):
        raise AssertionError("replicates ran with a worker count below one")

    monkeypatch.setattr(mc, "run_scenario", fail)
    res = runner.invoke(main, [verb, "--preset", "H04", "--n", "20", "--reps", "4", "--workers", workers])
    assert res.exit_code == 2
    assert "--workers" in res.stderr


def test_oracle_quadratic_with_enumeration(runner, tmp_path):
    bfile = tmp_path / "beta.txt"
    bfile.write_text("0.2\n-0.1\n0.0\n0.3\n")
    res = runner.invoke(
        main,
        ["oracle", "--stat", "quadratic", "--beta-file", str(bfile),
         "--r", "2", "--enumerate"],
    )
    assert res.exit_code == 0, res.output
    payload = json.loads(res.stdout)
    assert payload["formula"]["var_formula"] == pytest.approx(
        payload["enumeration"]["var_formula"], rel=1e-10
    )
    mcres = runner.invoke(
        main,
        ["oracle", "--stat", "quadratic", "--beta-file", str(bfile),
         "--weights", "recip-var", "--mc-reps", "500", "--seed", "4"],
    )
    assert mcres.exit_code == 0
    assert "mean_empirical" in json.loads(mcres.stdout)["formula"]


def test_oracle_cubic_and_mixed(runner, tmp_path):
    bfile = tmp_path / "beta.txt"
    bfile.write_text("0.2\n-0.1\n0.0\n0.3\n")
    wfile = tmp_path / "w.txt"
    wfile.write_text("1.0\n0.5\n")
    cubic = runner.invoke(
        main,
        ["oracle", "--stat", "cubic", "--beta-file", str(bfile),
         "--r", "2", "--weights", str(wfile), "--enumerate"],
    )
    assert cubic.exit_code == 0, cubic.output
    cpay = json.loads(cubic.stdout)
    assert cpay["formula"]["mean_formula"] == pytest.approx(
        cpay["enumeration"]["mean_formula"], abs=1e-10
    )
    mixed = runner.invoke(
        main, ["oracle", "--stat", "mixed", "--beta-file", str(bfile), "--enumerate"]
    )
    assert mixed.exit_code == 0
    mpay = json.loads(mixed.stdout)
    # the bound carries an unspecified constant; check the scale, not a sharp inequality
    assert 0.0 <= mpay["enumeration"]["var_formula"] <= 16.0 * mpay["bound"]
    short = runner.invoke(
        main,
        ["oracle", "--stat", "quadratic", "--beta-file", str(bfile),
         "--r", "3", "--weights", str(wfile)],
    )
    assert short.exit_code == 2


@pytest.mark.parametrize("option, value", [("--mc-reps", "-5"), ("--r", "-1")])
def test_oracle_rejects_negative_counts(runner, tmp_path, option, value):
    # a negative --mc-reps used to skip the Monte Carlo check, a negative --r to fail inside numpy
    bfile = tmp_path / "beta.txt"
    bfile.write_text("0.2\n-0.1\n0.0\n0.3\n")
    res = runner.invoke(main, ["oracle", "--stat", "quadratic", "--beta-file", str(bfile), option, value])
    assert res.exit_code == 2
    assert f"{value} is not in the range x>=0" in res.stderr
    assert res.stdout == ""


@pytest.mark.parametrize("stat", ["quadratic", "cubic"])
@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_oracle_rejects_weights_that_are_not_finite(runner, tmp_path, stat, bad):
    bfile = tmp_path / "beta.txt"
    bfile.write_text("0.2\n-0.1\n0.0\n0.3\n")
    wfile = tmp_path / "w.txt"
    wfile.write_text(f"1.0\n{bad}\n0.5\n")
    res = runner.invoke(
        main, ["oracle", "--stat", stat, "--beta-file", str(bfile), "--r", "3", "--weights", str(wfile)]
    )
    assert res.exit_code == 2
    assert "weights must be finite" in res.stderr
    assert res.stdout == ""


def test_matrix_diag_verb(runner, tmp_path):
    bfile = tmp_path / "beta.txt"
    bfile.write_text("\n".join(["0.0"] * 10) + "\n")
    plain = runner.invoke(main, ["matrix-diag", "--beta-file", str(bfile)])
    assert plain.exit_code == 0, plain.output
    ppay = json.loads(plain.stdout)
    assert ppay["satisfied"] is True
    assert ppay["max_abs_error"] <= ppay["bound"]
    tied = runner.invoke(
        main, ["matrix-diag", "--beta-file", str(bfile), "--r", "3", "--homogeneous"]
    )
    assert tied.exit_code == 0
    tpay = json.loads(tied.stdout)
    assert tpay["satisfied"] is True


@pytest.mark.parametrize("verb", [["matrix-diag"], ["oracle", "--stat", "mixed"]])
def test_overflowing_pair_logit_exits_2(runner, tmp_path, verb):
    # 2 + 2 cosh(800) overflows a double; the error names the logit instead of a traceback
    bfile = tmp_path / "beta.txt"
    bfile.write_text("400\n400\n0\n1\n")
    res = runner.invoke(main, [*verb, "--beta-file", str(bfile)])
    assert res.exit_code == 2 and isinstance(res.exception, SystemExit)
    assert "pair logit 800" in res.stderr


def test_overflowing_error_bound_exits_2(runner, tmp_path):
    # pair logit 709 is inside bn_cn's range, but the error bound squares b_n ~ 8.2e307
    bfile = tmp_path / "beta.txt"
    bfile.write_text("354\n355\n0\n1\n")
    res = runner.invoke(main, ["matrix-diag", "--beta-file", str(bfile)])
    assert res.exit_code == 2 and isinstance(res.exception, SystemExit)
    assert "b_n = 8.21841e+307" in res.stderr


@pytest.mark.parametrize("records", [["0,1,4611686018427387904"], ["0,1,4611686018427387904"] * 4])
def test_comparison_count_past_2_52_exits_2(runner, tmp_path, records):
    # fits sum counts in doubles; four records of 2**62 would wrap to 0 in 64-bit integers
    cfile = tmp_path / "wins.txt"
    cfile.write_text("\n".join(records + ["1,0,1", "1,2,1", "2,1,1", "0,2,1", "2,0,1"]) + "\n")
    res = runner.invoke(main, ["fit", "--model", "bt", "--input", str(cfile)])
    assert res.exit_code == 2 and isinstance(res.exception, SystemExit)
    assert "at most 2**52" in res.stderr


@pytest.mark.parametrize("verb", ["power", "qq", "simulate"])
@pytest.mark.parametrize(
    "case, fragment",
    [
        ("no model", "'model'"),
        ("no null r", "'r'"),
        ("a list", "JSON object"),
        ("n in a list", "'n' must be a whole number"),
        ("null r in a list", "'r' must be a whole number"),
        ("one alpha", "'alphas' must be a list of numbers"),
        ("misspelled null kind", "unknown null kind 'specifed'"),
        ("no null kind", "unknown null kind None"),
        ("k as a string", "'k' must be a whole number"),
        ("k as a bool", "'k' must be a whole number"),
    ],
)
def test_malformed_scenario_file_exits_2(runner, tmp_path, verb, case, fragment):
    comparison = {"model": "bt", "k": 1} if case.startswith("k ") else {}
    d = mc.build_scenario("H04", n=12, r=3, reps=4, seed=11, **comparison).to_dict()
    if case == "no model":
        del d["model"]
    elif case == "no null r":
        del d["null"]["r"]
    elif case == "n in a list":
        d["n"] = [12]
    elif case == "null r in a list":
        d["null"]["r"] = [3]
    elif case == "one alpha":
        d["alphas"] = 0.05
    elif case == "misspelled null kind":
        d["null"] = {"kind": "specifed", "r": 2, "values": [0.5, 0.5]}
    elif case == "no null kind":
        del d["null"]["kind"]
    elif case == "k as a string":
        d["k"] = "3"
    elif case == "k as a bool":
        d["k"] = True
    else:
        d = [d]
    sfile = tmp_path / "scenario.json"
    sfile.write_text(json.dumps(d))
    res = runner.invoke(main, [verb, "--scenario", str(sfile)])
    assert res.exit_code == 2 and isinstance(res.exception, SystemExit)
    assert fragment in res.stderr


@pytest.mark.parametrize("verb", ["power", "qq", "simulate"])
def test_h03_preset_without_values_exits_2(runner, verb):
    # H03 pins explicit null values, which no option supplies
    res = runner.invoke(main, [verb, "--preset", "H03"])
    assert res.exit_code == 2 and isinstance(res.exception, SystemExit)
    assert "H03 needs explicit null values" in res.stderr
