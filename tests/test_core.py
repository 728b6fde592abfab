import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pairlrt
from pairlrt.core import (
    ComparisonTable,
    DataFormatError,
    NullHypothesis,
    UndirectedGraph,
    _plain_edges,
    _scan_records,
    as_model_params,
    load_comparisons,
    load_edge_list,
    load_vector,
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
