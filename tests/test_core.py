import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pairlrt
from pairlrt import beta_model as bm
from pairlrt import bt_model as btm
from pairlrt.core import (
    TOL_SCORE,
    ComparisonTable,
    DataFormatError,
    NullHypothesis,
    Tallies,
    UndirectedGraph,
    _plain_edges,
    _scan_records,
    as_model_params,
    load_comparisons,
    load_edge_list,
    load_vector,
    pair_expected,
    pair_information,
    pair_log_likelihood,
    pair_saturated,
)

from oracles import (
    comparison_loglik,
    comparison_saturated,
    graph_loglik,
    graph_saturated,
    pair_expected_and_information,
)


def test_edge_list_basic():
    g = load_edge_list("n=4\n0 1\n1 2\n# comment\n\n2 3\n")
    assert g.n == 4
    assert g.edge_count == 3
    assert g.degrees.tolist() == [1, 2, 2, 1]
    assert g.adj[0, 1] == g.adj[1, 0] == 1


def test_edge_list_duplicates_collapse():
    g = load_edge_list("n=3\n0 1\n1 0\n0 1\n")
    assert g.edge_count == 1
    g = load_edge_list("n=4\n3 1\n2,0\n1 3\n0 2\n1 0\n3 1 # again\n")
    assert g.to_text() == "n=4\n0 1\n0 2\n1 3\n"


def test_edge_list_round_trip():
    g = UndirectedGraph.from_edges(5, [(0, 1), (1, 4), (2, 3)])
    again = load_edge_list(g.to_text())
    assert np.array_equal(again.adj, g.adj)


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("n=3\n0 0\n", "self-loop"),
        ("n=3\n0 x\n", "line 2"),
        ("n=3\n0 5\n", "n=3"),
        ("", "empty"),
        ("n=2\n0 1\n", "at least 3"),
        ("0 1\nn=4\n", "first content line"),
        ("n=3\n0 1 2\n", "two node ids"),
        ("n=3\n0.5 2\n", "not an integer"),
        ("n=3\n1e0 2\n", "not an integer"),
        ("n=3\n-0.4 1\n", "not an integer"),
        ("n=5\n1 2\r3 4\n", "two node ids"),
        ("n=3\n0 1\n,\n", "two node ids"),
        ("0 1\n1 2\n2 99999999999999999999\n", "line 3: node id '99999999999999999999' is beyond"),
    ],
)
def test_edge_list_errors(text, fragment):
    with pytest.raises(DataFormatError, match=fragment):
        load_edge_list(text)


def _assert_parsers_agree(text):
    """The numpy pass accepts only text the line scan accepts, with the same edges."""
    try:
        plain = _plain_edges(text)
    except DataFormatError as err:  # a bad header, which the scan rejects alike
        with pytest.raises(DataFormatError, match=str(err)):
            _scan_records(text, "edges")
        return
    if plain is not None:
        declared, rows = plain
        scanned_declared, scanned = _scan_records(text, "edges")
        assert scanned_declared == declared
        assert scanned.dtype == rows.dtype and np.array_equal(scanned, rows)


@pytest.mark.parametrize(
    "text",
    [
        "n=4\n0 1\n1 2\n\n2 3\n", "0 1\n1 2\n", "n=3\n", "# c\nn=4\n0\t1\n 2  3 \n", "n=4 # h\n3 0\n0 3\n",
        "n=3\n0.5 2\n", "n=3\n1e0 2\n", "n=3\n-0.4 1\n", "n=3\n+1 2\n", "n=3\n1_0 2\n", "n=5\n1 2\r3 4\n",
        "n=3\n0 1\n,\n", "0 1\n1,2\n", "n=3\n0 1\n1 2 # c\n", "n=3\n0 9\n", "n=3\n1 1\n", "n=3\n0 1 2\n",
        "0 1\nn=3\n", "n=3\n99999999999999999999 1\n", "n=3\n007 2\n", "n=x\n0 1\n", "n=3",
        "n=3\n000000000000000001 2\n", "999999999999999999 1\n", "n=3\n0000000000000000001 2\n",
        "9223372036854775807 1\n", "0 1 \n 2 3", "0 \n1\n", "0 1\n \t \n\n2 3\n", "0 1\n2 3",
        "0\t1\n2\t3\n", "\t0 \t 1\t\n", "0\n1 2\n", "n=4\n0 1\n2\n", "0 1 2\n3 4\n", "0 1\n2 3 0\n",
    ],
)
def test_edge_list_parsers_agree(text):
    _assert_parsers_agree(text)


@pytest.mark.parametrize(
    "text, plain",
    [
        ("n=4\n0 1\n1 2\n\n2 3\n", True), ("0 1 \n 2 3", True), ("0\t1\n \t \n2\t3", True),
        ("n=3\n000000000000000001 2\n", True), ("n=3 # h\n\n 2 0\n", True),
        ("n=3\n0000000000000000001 2\n", False), ("0 \n1\n", False), ("0 1 2\n3 4\n", False),
        ("0 1\n2\n", False), ("0 1\r\n2 3\r\n", False), ("0 1\n# c\n", False), ("n=3\n", False),
    ],
)
def test_plain_path_takes_plain_text_only(text, plain):
    assert (_plain_edges(text) is not None) == plain
    _assert_parsers_agree(text)


def test_ids_of_19_digits_are_scanned_alike():
    assert load_edge_list("n=3\n0000000000000000001 2\n").edges.tolist() == [[1, 2]]


def test_plain_path_reads_a_large_shuffled_file():
    # as the benchmark writes one: shuffled edges, each in a random orientation
    rng = np.random.default_rng(0)
    n = 300
    iu, ju = np.triu_indices(n, k=1)
    keep = rng.random(iu.size) < 0.25
    flip = rng.random(iu.size) < 0.5
    a, b = np.where(flip, ju, iu)[keep], np.where(flip, iu, ju)[keep]
    order = rng.permutation(a.size)
    text = f"n={n}\n" + "".join(f"{i} {j}\n" for i, j in zip(a[order].tolist(), b[order].tolist()))
    assert a.size >= 10_000
    plain = _plain_edges(text)
    assert plain is not None
    assert plain[0] == n and np.array_equal(plain[1], np.column_stack((a[order], b[order])))
    _assert_parsers_agree(text)


# edge lines that are mostly plain, with the odd token, separator or line end
# that only the line scan may accept or that both must reject
_ID = st.sampled_from(
    ["0", "1", "2", "3", "4", "5"] * 4
    + ["007", "-1", "+1", "0.5", "1e0", "1_0", "", "000000000000000003", "0000000000000000002"]
)
_SEP = st.sampled_from([" ", "\t", "  "] * 5 + [",", " , ", " \n ", " \t"])
_END = st.sampled_from(["\n"] * 12 + ["\r\n", "\r", " # c\n", "\n\n", "", " \n", "\n \t \n"])
_LINE = st.one_of(
    *[st.tuples(_ID, _SEP, _ID, _END)] * 4, st.tuples(_ID, _END), st.tuples(_ID, _SEP, _ID, _SEP, _ID, _END)
)
_EDGE_LINES = st.lists(_LINE.map("".join), max_size=6).map("".join)


@given(st.sampled_from(["", "n=6\n", "# c\nn=6\n", "n=4\n", "n=2\n"]), _EDGE_LINES)
@settings(max_examples=300, deadline=None)
def test_edge_list_parsers_agree_on_random_text(header, body):
    _assert_parsers_agree(header + body)


def test_from_edges_takes_integer_pairs_only():
    assert UndirectedGraph.from_edges(3, []).edge_count == 0
    assert UndirectedGraph.from_edges(3, np.array([[0, 1], [2, 1]])).degrees.tolist() == [1, 2, 1]
    with pytest.raises(ValueError, match="pairs"):
        UndirectedGraph.from_edges(6, [(0, 1, 2), (3, 4, 5)])
    with pytest.raises(ValueError, match="integer"):
        UndirectedGraph.from_edges(3, [(0.5, 1.0)])
    with pytest.raises(ValueError, match="self-loop"):
        UndirectedGraph.from_edges(3, [(0, 1), (2, 2)])
    with pytest.raises(ValueError, match="out of range"):
        UndirectedGraph.from_edges(3, [(0, 3)])
    with pytest.raises(ValueError, match="at least 3"):
        UndirectedGraph.from_edges(2, [(0, 1)])


@pytest.mark.parametrize("comment", ["", "# one comment sends the text to the line scan\n"])
def test_edge_list_load_allocates_no_dense_matrix(comment):
    # a dense int8 adjacency alone would take 95 MiB at n = 10,000
    rows = np.random.default_rng(0).integers(0, 10_000, size=(50_000, 2))
    rows = rows[rows[:, 0] != rows[:, 1]]
    text = "n=10000\n" + comment + "".join(f"{i} {j}\n" for i, j in rows.tolist())
    tracemalloc.start()
    try:
        g = load_edge_list(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.n == 10_000 and int(g.degrees.sum()) == 2 * g.edge_count
    assert peak < 32 * 2**20


def test_comparisons_cycle():
    # three subjects, each beating the next once
    t = load_comparisons("0,1,1\n1,2,1\n2,0,1")
    assert t.n == 3
    assert t.degrees.tolist() == [1, 1, 1]
    assert np.array_equal(t.totals, t.totals.T)


def test_comparisons_accumulate_and_header():
    t = load_comparisons("n=4\n0,1,2\n0,1,3\n2 3 1\n")
    assert t.n == 4
    assert t.wins[0, 1] == 5
    assert t.wins[2, 3] == 1


@pytest.mark.parametrize(
    "text",
    [
        "0,0,1\n1,2,1\n2,0,1", "0,1,-1\n1,2,1\n2,0,1", "0,1\n", "n=3\n0,1,1\n3,2,1\n",
        "n=3\n0,1,99999999999999999999\n1,2,1\n2,0,1\n",
    ],
)
def test_comparisons_errors(text):
    with pytest.raises(DataFormatError, match="line"):
        load_comparisons(text)


def test_load_vector():
    v = load_vector("0.5\n-1.0\n# skip\n2\n")
    assert v.tolist() == [0.5, -1.0, 2.0]
    with pytest.raises(DataFormatError):
        load_vector("0.5\nabc\n")


def test_table_validation():
    with pytest.raises(ValueError):
        ComparisonTable(np.array([[0, 1], [1, 0]]))
    with pytest.raises(ValueError):
        ComparisonTable(np.array([[1, 0, 0], [0, 0, 0], [0, 0, 0]]))


def test_table_round_trip():
    wins = np.array([[0, 2, 0], [1, 0, 3], [4, 0, 0]])
    t = ComparisonTable(wins)
    again = load_comparisons(t.to_text())
    assert np.array_equal(again.wins, wins)


def test_degrees_dispatch():
    g = UndirectedGraph.from_edges(3, [(0, 1)])
    t = ComparisonTable(np.array([[0, 2, 0], [1, 0, 3], [4, 0, 0]]))
    assert g.degrees.tolist() == [1, 1, 0]
    assert t.degrees.tolist() == [2, 4, 4]


def test_as_model_params_reference_constraint():
    with pytest.raises(ValueError):
        as_model_params([0.5, 0.5, 0.5], "bt")
    assert as_model_params([0.5, 0.5, 0.5], "beta").tolist() == [0.5, 0.5, 0.5]


def test_null_hypothesis_construction():
    s = NullHypothesis.specified(3, [0.1, 0.2, 0.3])
    assert s.r == 3 and s.values.tolist() == [0.1, 0.2, 0.3]
    h = NullHypothesis.homogeneous(4)
    assert h.values is None
    with pytest.raises(ValueError):
        NullHypothesis.homogeneous(1)
    with pytest.raises(ValueError):
        NullHypothesis.specified(-1, [])


def test_null_hypothesis_validate_for():
    # graph model: one pinned value per constrained coordinate
    NullHypothesis.specified(2, [0.1, 0.2]).validate_for("beta", 5)
    with pytest.raises(ValueError):
        NullHypothesis.specified(2, [0.1]).validate_for("beta", 5)
    # comparison model: the reference is already fixed, so r-1 values
    NullHypothesis.specified(3, [0.1, 0.2]).validate_for("bt", 5)
    with pytest.raises(ValueError):
        NullHypothesis.specified(3, [0.1, 0.2, 0.3]).validate_for("bt", 5)
    with pytest.raises(ValueError):
        NullHypothesis.homogeneous(6).validate_for("beta", 5)


def test_null_hypothesis_round_trip():
    for null in [NullHypothesis.specified(2, [0.5, -0.5]), NullHypothesis.homogeneous(3)]:
        again = NullHypothesis.from_dict(null.to_dict())
        assert again.kind == null.kind and again.r == null.r
        if null.values is None:
            assert again.values is None
        else:
            assert np.array_equal(again.values, null.values)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(3, 7).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.sets(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                    lambda e: e[0] != e[1]
                ),
                max_size=n * (n - 1) // 2,
            ),
        )
    )
)
def test_edge_list_text_round_trip_property(case):
    n, edges = case
    g = UndirectedGraph.from_edges(n, edges)
    again = load_edge_list(g.to_text())
    assert np.array_equal(again.adj, g.adj)
    assert int(g.degrees.sum()) == 2 * g.edge_count


def test_newton_ascent_has_one_caller():
    # one engine, reached by both models through core.fit_by_classes only
    sources = {p.name: p.read_text() for p in Path(pairlrt.__file__).parent.glob("*.py")}
    assert [name for name, text in sources.items() if "newton_ascent" in text] == ["core.py"]
    core_text = sources["core.py"]
    calls = [m.start() for m in re.finditer(r"(?<!def )\bnewton_ascent\(", core_text)]
    assert len(calls) == 1
    assert core_text.rfind("\ndef ", 0, calls[0]) == core_text.index("\ndef fit_by_classes(")


def _class_maps(rng, k, n, c):
    """k node-to-class maps of n nodes, each with every one of c classes present."""
    return np.array([rng.permutation(np.concatenate([np.arange(c), rng.integers(0, c, n - c)])) for _ in range(k)])


def _pair_dataset(rng, sign, n):
    """A random dataset of a pair model: per-node trials, its log-likelihood, and its tallies over class maps.

    sign +1 is a graph, whose every node pair is one trial; sign -1 is a
    table of win counts with some pairs never compared.
    """
    if sign > 0:
        adj = np.triu(rng.random((n, n)) < 0.5, 1).astype(int)
        adj += adj.T
        return 1 - np.eye(n), lambda beta: graph_loglik(beta, adj), lambda maps: bm.class_tallies(
            np.broadcast_to(adj.sum(axis=1), maps.shape), maps
        )
    wins = rng.integers(0, 4, (n, n)) * (rng.random((n, n)) < 0.7)
    np.fill_diagonal(wins, 0)
    trials = wins + wins.T
    subjects = Tallies(wins.sum(axis=1), trials)
    return trials, lambda beta: comparison_loglik(beta, wins), lambda maps: btm.class_tallies(
        Tallies(np.broadcast_to(subjects.degrees, maps.shape), trials), maps
    )


@pytest.mark.parametrize("sign", [1, -1])
def test_pair_kernel_matches_node_pair_loops(sign):
    # a stack of class values on random class maps: each member's log-likelihood, expected
    # class totals and class information are the per-node pair loops summed by class
    rng = np.random.default_rng(41 + sign)
    for _ in range(25):
        n = int(rng.integers(3, 10))
        c = int(rng.integers(1, n + 1))
        trials, loglik, tally = _pair_dataset(rng, sign, n)
        maps = _class_maps(rng, 3, n, c)
        values = rng.uniform(-2.0, 2.0, (3, c))
        tallies = tally(maps)
        ll = pair_log_likelihood(values, tallies, sign)
        expected = pair_expected(values, tallies, sign)
        info = pair_information(values, tallies, sign)
        for t in range(3):
            beta = values[t][maps[t]]
            member = (maps[t][:, None] == np.arange(c)).astype(float)
            node_expected, node_info = pair_expected_and_information(beta, trials, sign)
            assert abs(ll[t] - loglik(beta)) <= 1e-10
            assert np.abs(expected[t] - member.T @ node_expected).max() <= 1e-10
            assert np.abs(info[t] - member.T @ node_info @ member).max() <= 1e-10


def test_pair_saturation_matches_the_node_rules():
    # the class rule flags a member exactly when the parent node rule does, on its node values
    edge = -np.log(TOL_SCORE)
    rng = np.random.default_rng(43)
    near = (edge - 1e-9, edge + 1e-9)

    # graphs, 6 nodes in 3 classes; class 0 of the first map is a singleton
    head = np.array([[0, 1, 1, 2, 2, 2], [0, 1, 1, 2, 2, 2], [2, 0, 0, 1, 1, 1]])
    values = [
        # the singleton's own pair would reach 20, but a singleton has none
        *([10.0, x - 10.0, 0.0] for x in near),
        # a class of two nodes and its one pair, on both sides
        *([0.0, x / 2, 0.0] for x in near),
        *([0.0, -x / 2, 1.0] for x in near),
    ]
    maps = np.concatenate([head[np.arange(len(values)) % 3], _class_maps(rng, 200, 6, 3)])
    values = np.concatenate([values, rng.uniform(-11.0, 11.0, (200, 3))])
    got = pair_saturated(values, bm.class_tallies(np.zeros(maps.shape), maps), 1, TOL_SCORE)
    want = graph_saturated(np.take_along_axis(values, maps, axis=1), TOL_SCORE)
    assert got.tolist() == want.tolist()
    assert got[:6].tolist() == [False, True] * 3 and 0 < want.sum() < want.size

    # tables, 6 subjects in 4 classes: classes 1 and 2, 19 apart, are never compared in the first
    classes = np.array([0, 1, 1, 2, 2, 3])
    apart = np.ones((6, 6), dtype=int)
    apart[np.ix_([1, 2], [3, 4])] = apart[np.ix_([3, 4], [1, 2])] = 0
    met = apart.copy()
    met[2, 3] = met[3, 2] = 2
    lone = np.zeros((6, 6), dtype=int)
    lone[0, 5] = lone[5, 0] = 1
    lone[0, 1] = lone[1, 0] = 3
    fixed = [
        (apart, [0.0, 9.5, -9.5, 0.0]),
        (met, [0.0, 9.5, -9.5, 0.0]),
        # class 2, at 30, is never compared; the singleton class 3 meets subject 0 only
        *((lone, [0.0, 0.0, 30.0, x]) for x in near),
    ]
    drawn = rng.integers(0, 3, (200, 6, 6)) * (rng.random((200, 6, 6)) < 0.4)
    totals = np.concatenate([[t for t, _ in fixed], drawn])
    totals = np.triu(totals, 1) + np.swapaxes(np.triu(totals, 1), -1, -2)
    maps = np.concatenate([np.tile(classes, (len(fixed), 1)), _class_maps(rng, 200, 6, 4)])
    values = np.concatenate([[v for _, v in fixed], rng.uniform(-10.0, 10.0, (200, 4))])
    tallies = btm.class_tallies(Tallies(np.zeros(maps.shape), totals), maps)
    got = pair_saturated(values, tallies, -1, TOL_SCORE)
    want = comparison_saturated(np.take_along_axis(values, maps, axis=1), totals, TOL_SCORE)
    assert got.tolist() == want.tolist()
    assert got[:4].tolist() == [False, True, False, True] and 0 < want.sum() < want.size
