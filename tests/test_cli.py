import json

import numpy as np
import pytest
from click.testing import CliRunner

from pairlrt import beta_model as bm
from pairlrt import bt_model as btm
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
