import re
import tracemalloc
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pairlrt
from pairlrt import beta_model as bm
from pairlrt import bt_model as btm
from pairlrt.core import (
    TOL_SCORE,
    ClassModel,
    ComparisonTable,
    DataFormatError,
    Fits,
    NullHypothesis,
    Tallies,
    UndirectedGraph,
    _plain_edges,
    _scan_records,
    as_model_params,
    class_maps,
    class_tallies,
    fit_by_classes,
    load_comparisons,
    load_edge_list,
    load_vector,
    mean_field_start,
    pair_expected,
    pair_information,
    pair_log_likelihood,
    pair_saturated,
)

from conftest import degree_stack, table_stack, win_stack
from oracles import (
    adjacency,
    class_maps_by_node,
    comparison_block_at_bound,
    comparison_loglik,
    comparison_saturated,
    comparison_subject_at_bound,
    graph_block_at_bound,
    graph_degree_at_bound,
    graph_loglik,
    graph_saturated,
    pair_expected_and_information,
)


def test_edge_list_basic():
    g = load_edge_list("n=4\n0 1\n1 2\n# comment\n\n2 3\n")
    assert g.n == 4
    assert g.edge_count == 3
    assert g.degrees.tolist() == [1, 2, 2, 1]
    assert adjacency(g)[0, 1] == adjacency(g)[1, 0] == 1


def test_edge_list_duplicates_collapse():
    g = load_edge_list("n=3\n0 1\n1 0\n0 1\n")
    assert g.edge_count == 1
    g = load_edge_list("n=4\n3 1\n2,0\n1 3\n0 2\n1 0\n3 1 # again\n")
    assert g.to_text() == "n=4\n0 1\n0 2\n1 3\n"


def test_edge_list_round_trip():
    g = UndirectedGraph.from_edges(5, [(0, 1), (1, 4), (2, 3)])
    again = load_edge_list(g.to_text())
    assert np.array_equal(adjacency(again), adjacency(g))


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


HUGE = "n=9223372036854775807"  # 2**63 - 1: numpy refuses any array of this many cells


@pytest.mark.parametrize(
    "load, text, message",
    [
        (load_edge_list, "9223372036854775806 2\n", f"{HUGE}, one plus the largest node id, is too large"),
        (load_edge_list, "2,9223372036854775806\n", f"{HUGE}, one plus the largest node id, is too large"),
        (load_edge_list, "n=9223372036854775807\n0 1\n", f"{HUGE}, the declared count, is too large"),
        (load_comparisons, "9223372036854775806,2,1\n", f"{HUGE}, one plus the largest subject id, is too large"),
    ],
)
def test_an_n_too_large_to_size_is_named(load, text, message):
    with pytest.raises(DataFormatError) as err:
        load(text)
    assert str(err.value) == message


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
        ("n=3\n0000000000000000001 2\n", True), ("n=3\n9223372036854775808 1\n", False),
        ("0 \n1\n", False), ("0 1 2\n3 4\n", False),
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
    # a table's comparisons number at most 2**52, so every sum of w + w.T a fit takes is exact
    assert ComparisonTable(np.array([[0, 2**51, 1], [2**51 - 4, 0, 1], [1, 1, 0]])).totals[0, 1] == 2**52 - 4
    for big in ([2**52 - 3, 0], [2**51, 2**51], [2**53 - 1, 0], [2**62, 2**62], [2**63 - 1, 2**63 - 1]):
        wins = np.array([[0, big[0], 1], [big[1], 0, 1], [1, 1, 0]])
        with pytest.raises(ValueError, match=r"at most 2\*\*52"):
            ComparisonTable(wins)
    # each pair within 2**53, but subject 0's win total 2**54 - 3 is not exact in a double
    with pytest.raises(ValueError, match=r"at most 2\*\*52"):
        ComparisonTable(np.array([[0, 2**53 - 1, 2**53 - 2], [0, 0, 1], [1, 1, 0]]))
    # repeated records sum exactly: four of 2**62 would wrap to 0 in 64-bit integers
    with pytest.raises(ValueError, match=r"at most 2\*\*52"):
        load_comparisons("n=3\n" + "0,1,4611686018427387904\n" * 4 + "1,0,1\n1,2,1\n2,0,1\n")


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
    assert np.array_equal(adjacency(again), adjacency(g))
    assert int(g.degrees.sum()) == 2 * g.edge_count


def test_newton_ascent_has_one_caller():
    # one engine, reached by both models through core.fit_by_classes only
    sources = {p.name: p.read_text() for p in Path(pairlrt.__file__).parent.glob("*.py")}
    assert [name for name, text in sources.items() if "newton_ascent" in text] == ["core.py"]
    core_text = sources["core.py"]
    calls = [m.start() for m in re.finditer(r"(?<!def )\bnewton_ascent\(", core_text)]
    assert len(calls) == 1
    assert core_text.rfind("\ndef ", 0, calls[0]) == core_text.index("\ndef fit_by_classes(")


def test_nonexistent_fit_is_decided_in_core():
    # one existence rule, in core, which alone builds the Fits; the only check on the model
    # side is strong connectivity, which bt_model hands fit_by_classes as its absent mask
    sources = {p.name: p.read_text() for p in Path(pairlrt.__file__).parent.glob("*.py")}
    assert [name for name, text in sources.items() if re.search(r"\bFits?\(", text) and name != "core.py"] == []
    absent = {name: re.findall(r"fit_by_classes\(.*, (\S+), tol\)", text) for name, text in sources.items()}
    assert {name: found for name, found in absent.items() if found} == {
        "beta_model.py": ["False"], "bt_model.py": ["~np.asarray(connected)"],
    }


def test_class_tallies_are_built_in_core():
    # one class-tally builder, in core; the models hand fit_by_classes node tallies
    sources = {p.name: p.read_text() for p in Path(pairlrt.__file__).parent.glob("*.py")}
    assert [name for name, text in sources.items() if re.search(r"^def class_tallies\(", text, re.M)] == ["core.py"]
    assert ClassModel._fields == ("loglik", "expected", "info", "sign")


def test_class_maps_number_fixed_values_by_first_appearance():
    totals = np.array([[5, 5, 5, 5, 3, 1, 3, 3]] * 2)
    # balanced: equal fixed values share a class, free nodes of equal total too
    maps, fixed = class_maps(totals, [0.0, -0.5, 0.5, 0.0], 0, True)
    assert maps.tolist() == [[0, 1, 2, 0, 4, 3, 4, 4]] * 2
    assert fixed.tolist() == [[0.0, -0.5, 0.5]] * 2
    # unbalanced: one class per node, pinned nodes included
    maps, fixed = class_maps(totals, [0.0, -0.5, 0.5, 0.0], 0, False)
    assert maps.tolist() == [list(range(8))] * 2
    assert fixed.tolist() == [[0.0, -0.5, 0.5, 0.0]] * 2
    tied, _ = class_maps(totals, [0.0], 3, True)
    assert tied[0].tolist() == [0, 1, 1, 1, 3, 2, 3, 3]


@pytest.mark.parametrize(
    "lead, tied", [([], 0), ([0.0], 0), ([0.0, -0.5, 0.5, 0.0], 0), ([], 3), ([0.0], 2), ([0.3, 0.3, 0.3], 1)]
)
def test_class_maps_match_a_node_loop(lead, tied):
    rng = np.random.default_rng(33)
    k, n = 40, 11
    totals = rng.integers(0, 5, (k, n))
    for balanced in (False, True):
        maps, fixed = class_maps(totals, lead, tied, balanced)
        assert maps.shape == (k, n) and len(fixed) == k
        for t in range(k):
            want_map, want_fixed = class_maps_by_node(totals[t], lead, tied, balanced)
            assert maps[t].tolist() == want_map.tolist()
            assert fixed[t].tolist() == want_fixed.tolist()


def _up_front(fit):
    # no maximizer, decided before any Newton step
    return not fit.exists and fit.iterations == 0


def test_class_rule_matches_the_graph_checks():
    # degrees 0 and n-1 from spread parameters, and tied blocks at 0 and full by construction
    rng = np.random.default_rng(31)
    n, r = 7, 3
    graphs = []
    for t in range(240):
        edges = bm.simulate_graph(rng.uniform(-2.5, 2.5, n), rng).edges
        if t % 4 == 1:
            edges = edges[edges[:, 0] >= r]
        elif t % 4 == 2:
            edges = np.concatenate([edges, [(i, j) for i in range(r) for j in range(i + 1, n)]])
        graphs.append(UndirectedGraph.from_edges(n, edges))
    stack = degree_stack(graphs)
    full = bm.fit_mle(stack)
    pinned = bm.fit_restricted_specified(stack, NullHypothesis.specified(r, [0.0, -0.5, 0.5]))
    tied = bm.fit_restricted_homogeneous(stack, r)
    seen = set()
    for g, f, p, h in zip(graphs, full, pinned, tied):
        d = g.degrees.tolist()
        free, block = graph_degree_at_bound(d[r:], n), graph_block_at_bound(d, r, n)
        assert _up_front(f) == graph_degree_at_bound(d, n)
        assert _up_front(p) == free
        assert _up_front(h) == (free or block)
        seen.update({("empty", 0 in d), ("full", n - 1 in d), ("block", block), ("free", free)})
    assert {("empty", True), ("full", True), ("block", True), ("free", True), ("free", False)} <= seen


def test_class_rule_matches_the_comparison_checks():
    # tables with unequal pair totals, some pairs never compared, keep one class per subject
    rng = np.random.default_rng(32)
    n, r = 6, 3
    tables = []
    for _ in range(300):
        totals = np.triu(rng.integers(0, 3, (n, n)), 1)
        beta = np.concatenate([[0.0], rng.uniform(-1.5, 1.5, n - 1)])
        tables.append(btm.simulate_comparisons(beta, totals + totals.T, rng).wins)
    # a tied block with no comparisons outside itself, whose level is not identified
    lone = np.zeros((n, n), dtype=int)
    lone[1, 2] = lone[2, 1] = 1
    for i, j in [(0, 3), (3, 4), (4, 5), (0, 5)]:
        lone[i, j], lone[j, i] = 2, 1
    # each table is its own design, so each is fitted alone
    wins = np.array(tables + [lone])
    pinned = [btm.bt_fit_restricted(ComparisonTable(w), NullHypothesis.specified(r, [0.4, -0.4])) for w in wins]
    tied = [btm.bt_fit_restricted(ComparisonTable(w), NullHypothesis.homogeneous(r)) for w in wins]
    apart = at_bound = 0
    for w, p, h in zip(wins, pinned, tied):
        played = w + w.T
        assert len(set(played[np.triu_indices(n, 1)].tolist())) > 1
        free = comparison_subject_at_bound(w, r)
        assert _up_front(p) == free
        if played[1:r].sum() == played[1:r, 1:r].sum():
            # the one difference from the per-subject checks
            apart += 1
            assert _up_front(h)
        else:
            assert _up_front(h) == (free or comparison_block_at_bound(w, r))
            at_bound += comparison_block_at_bound(w, r) and not free
    assert apart >= 1 and at_bound >= 3


def test_empty_stacks_give_empty_fits():
    n = 5
    totals = np.full((n, n), 2)
    np.fill_diagonal(totals, 0)
    empty = btm.ComparisonStack(Tallies(np.zeros((0, n)), totals), np.zeros(0, dtype=bool))
    no_graphs = Tallies(np.zeros((0, n), dtype=np.int64), 1)
    fits = [
        bm.fit_mle(no_graphs),
        bm.fit_restricted_specified(no_graphs, NullHypothesis.specified(2, [0.0, 0.1])),
        bm.fit_restricted_homogeneous(no_graphs, 2),
        btm.bt_fit_mle(empty),
        btm.bt_fit_mle(btm.simulate_comparisons(np.zeros(n), 2, [])),
        btm.bt_fit_restricted(empty, NullHypothesis.specified(2, [0.1])),
        btm.bt_fit_restricted(empty, NullHypothesis.homogeneous(3)),
    ]
    assert all(isinstance(f, Fits) and len(f) == 0 and f.iterations == 0 for f in fits)


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
        return 1 - np.eye(n), lambda beta: graph_loglik(beta, adj), lambda maps: class_tallies(
            Tallies(np.broadcast_to(adj.sum(axis=1), maps.shape), 1), maps
        )
    wins = rng.integers(0, 4, (n, n)) * (rng.random((n, n)) < 0.7)
    np.fill_diagonal(wins, 0)
    trials = wins + wins.T
    subjects = Tallies(wins.sum(axis=1), trials)
    return trials, lambda beta: comparison_loglik(beta, wins), lambda maps: class_tallies(
        Tallies(np.broadcast_to(subjects.degrees, maps.shape), trials), maps
    )


def _same_bits(a: Tallies, b: Tallies) -> bool:
    return all(x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes() for x, y in zip(a, b))


@pytest.mark.parametrize("k", [1, 3])
def test_shared_count_tallies_match_membership_products(k):
    # one count k shared by every pair of distinct nodes, summed by class sizes, gives the
    # bits of the node-pair matrix k (J - I), shared or one per member, summed by products
    rng = np.random.default_rng(50 + k)
    count, n = 40, 9
    d = rng.integers(0, k * (n - 1) + 1, (count, n))
    stacks = {
        "merged": class_maps(d, [], 0, True)[0],
        "fixed": class_maps(d, [0.0, 0.4, 0.0, -0.2], 0, True)[0],
        "tied": class_maps(d, [0.0], 3, True)[0],
        "per node": class_maps(d, [0.0], 2, False)[0],
        "random": _class_maps(rng, count, n, 4),
    }
    pairs = k * (1 - np.eye(n, dtype=np.int64))
    for name, maps in stacks.items():
        by_sizes = class_tallies(Tallies(d, k), maps)
        assert by_sizes.totals.shape == (count, maps.max() + 1, maps.max() + 1), name
        for totals in (pairs, np.repeat(pairs[None], count, axis=0)):
            assert _same_bits(by_sizes, class_tallies(Tallies(d, totals), maps)), name
    # an empty stack has no classes
    empty = np.zeros((0, n), dtype=int)
    for totals in (k, pairs, np.zeros((0, n, n), dtype=np.int64)):
        got = class_tallies(Tallies(empty, totals), empty)
        assert got.degrees.shape == (0, 0) and got.totals.shape == (0, 0, 0)


def _fit_bits(f):
    return f.beta_hat.tobytes(), np.float64(f.loglik).tobytes(), f.iterations, f.converged, f.exists, \
        np.float64(f.gradient_norm).tobytes()


@pytest.mark.parametrize("kind", ["full", "specified", "homogeneous"])
def test_balanced_tables_fit_alike_from_one_count_and_from_their_totals(kind):
    # Tallies(wins, k) sums classes by class sizes and Tallies(wins, totals) by membership
    # products; a table alone and a stack get Fits of the same bits from either, and from
    # each table's own pair totals w + w.T, fitted alone
    k, n, count = 2, 8, 40
    wins = win_stack(np.linspace(0.0, 1.5, n), k, np.random.default_rng(8).spawn(count))
    degrees = wins.sum(axis=-1)
    lead, tied = {"full": ([0.0], 0), "specified": ([0.0, 0.4, -0.3], 0), "homogeneous": ([0.0], 2)}[kind]
    maps, fixed = class_maps(degrees, lead, tied, True)
    totals = k * (1 - np.eye(n, dtype=np.int64))

    def fit(rows, t):
        return [_fit_bits(f) for f in fit_by_classes(
            btm.class_model(), Tallies(degrees[rows], t), maps[rows], fixed[rows], tied > 0, False, TOL_SCORE,
        )]

    stepped = 0
    for rows in (slice(0, 1), slice(None)):
        own = [fit([i], wins[i] + wins[i].T)[0] for i in range(count)[rows]]
        bits = [fit(rows, k), fit(rows, totals), own]
        assert bits[0] == bits[1] == bits[2]
        stepped += sum(b[2] > 0 for b in bits[0])
    assert stepped > count // 2


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


@pytest.mark.parametrize("sign", [1, -1])
def test_pair_kernels_give_each_member_its_bits_alone(sign):
    # the four kernels read one (..., c, c) layout, so a member's sums add its terms in the
    # same order in a stack as alone, on tallies from both class_tallies routes
    rng = np.random.default_rng(60 + sign)
    kernels = {
        "loglik": pair_log_likelihood,
        "expected": pair_expected,
        "info": pair_information,
        "saturated": lambda b, t, s: pair_saturated(b, t, s, TOL_SCORE),
    }
    count, n = 12, 60
    d = rng.integers(0, 2 * (n - 1) + 1, (count, n))
    trials = rng.integers(0, 4, (count, n, n))
    trials = np.triu(trials, 1) + np.swapaxes(np.triu(trials, 1), -1, -2)
    for c in (1, 5, 17, 40):
        maps = _class_maps(rng, count, n, c)
        values = rng.uniform(-12.0, 12.0, (count, c))
        routes = {"sizes": class_tallies(Tallies(d, 2), maps), "products": class_tallies(Tallies(d, trials), maps)}
        for route, t in routes.items():
            for name, kernel in kernels.items():
                stacked = kernel(values, t, sign)
                for i in range(count):
                    for alone in (kernel(values[i:i + 1], Tallies(*(x[i:i + 1] for x in t)), sign)[0],
                                  kernel(values[i], Tallies(*(x[i] for x in t)), sign)):
                        assert stacked[i].tobytes() == np.asarray(alone).tobytes(), (route, name, c, i)


def test_kernels_keep_no_module_state():
    # one pair layout and no pair-index cache kept between calls; the package's one use of
    # functools is the CLI error guard's functools.wraps
    sources = {p.name: p.read_text() for p in Path(pairlrt.__file__).parent.glob("*.py")}
    assert [name for name, text in sources.items() if re.search(r"\b(pair_indices|lru_cache)\b", text)] == []
    uses = {name: set(re.findall(r"\bfunctools\b\.?(\w*)", text)) for name, text in sources.items()}
    assert {name: found for name, found in uses.items() if found} == {"cli.py": {"", "wraps"}}


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
    got = pair_saturated(values, class_tallies(Tallies(np.zeros(maps.shape), 1), maps), 1, TOL_SCORE)
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
    tallies = class_tallies(Tallies(np.zeros(maps.shape), totals), maps)
    got = pair_saturated(values, tallies, -1, TOL_SCORE)
    want = comparison_saturated(np.take_along_axis(values, maps, axis=1), totals, TOL_SCORE)
    assert got.tolist() == want.tolist()
    assert got[:4].tolist() == [False, True, False, True] and 0 < want.sum() < want.size


@pytest.mark.parametrize("sign, fixed", [(1, np.zeros((1, 0))), (1, np.array([[0.7]])), (-1, np.zeros((1, 1)))])
def test_mean_field_start_is_finite_at_the_boundary(sign, fixed):
    # class 1 has none of its trials and class 2 all of them; the fixed classes keep their values
    totals = np.array([[[2.0, 3.0, 4.0], [3.0, 0.0, 5.0], [4.0, 5.0, 2.0]]])
    degrees = np.array([[4.0, 0.0, 11.0]])
    start = mean_field_start(Tallies(degrees, totals), fixed, sign)
    assert start.shape == (1, 3) and np.all(np.isfinite(start))
    assert np.array_equal(start[:, :fixed.shape[1]], fixed)
    assert start[0, 1] < start[0, 2]


def _stack_and_alone(kind):
    """Fits of both models' stacks and of each member alone, with a log-likelihood of each member."""
    graph_fit = {
        "full": bm.fit_mle,
        "homogeneous": lambda g: bm.fit_restricted_homogeneous(g, 3),
        "specified": lambda g: bm.fit_restricted_specified(g, NullHypothesis.specified(2, [0.4, -0.3])),
    }[kind]
    table_fit = {
        "full": btm.bt_fit_mle,
        "homogeneous": lambda w: btm.bt_fit_restricted(w, NullHypothesis.homogeneous(3)),
        "specified": lambda w: btm.bt_fit_restricted(w, NullHypothesis.specified(3, [0.4, -0.3])),
    }[kind]
    graphs = [bm.simulate_graph(np.linspace(-1.0, 1.0, 9), g) for g in np.random.default_rng(5).spawn(30)]
    wins = win_stack(np.linspace(0.0, 1.5, 8), 2, np.random.default_rng(6).spawn(30))
    wins[1::2, 4, 6] += 1  # every other table unbalanced, so fitted per subject
    tables = [ComparisonTable(w) for w in wins]
    yield from zip(graph_fit(degree_stack(graphs)), map(graph_fit, graphs), graphs, [bm.log_likelihood] * len(graphs))
    # the balanced tables and the unbalanced ones, each on its one design, as two stacks
    for part in (slice(0, None, 2), slice(1, None, 2)):
        alone = tables[part]
        yield from zip(table_fit(table_stack(wins[part], alone[0].totals)), map(table_fit, alone), alone,
                       [btm.bt_log_likelihood] * len(alone))


@pytest.mark.parametrize("kind", ["full", "homogeneous", "specified"])
def test_fit_loglik_is_the_log_likelihood_at_beta_hat(kind):
    # the ascent evaluates the log-likelihood only when a step needs it, yet the
    # reported one is that of the returned values, in a stack and alone
    checked = 0
    for stacked, alone, data, loglik in _stack_and_alone(kind):
        for fit in (stacked, alone):
            if fit.exists:
                assert abs(fit.loglik - loglik(fit.beta_hat, data)) <= 1e-12
                checked += 1
    assert checked > 80


def test_fully_pinned_fits_take_no_step():
    # with no fitted class a fit is converged at its fixed values, alone and in a stack,
    # equal pinned values sharing a class; a graph of degrees 0 has no fitted class to lose
    rng = np.random.default_rng(34)
    n = 6
    beta = np.array([0.0, 0.3, 0.3, 0.0, -0.7, 1.1])
    graphs = [bm.simulate_graph(beta, g) for g in rng.spawn(4)] + [UndirectedGraph.from_edges(n, [])]
    wins = win_stack(beta, 2, rng.spawn(4))
    pins = NullHypothesis.specified(n, beta)
    cases = [
        (graphs, bm.fit_restricted_specified(degree_stack(graphs), pins), bm.log_likelihood),
        (map(ComparisonTable, wins), btm.bt_fit_restricted(table_stack(wins, 2), NullHypothesis.specified(n, beta[1:])),
         btm.bt_log_likelihood),
    ]
    for data, fits, loglik in cases:
        for x, fit in zip(data, fits):
            assert fit.exists and fit.converged and fit.iterations == 0 and fit.gradient_norm == 0.0
            assert np.array_equal(fit.beta_hat, beta)
            assert abs(fit.loglik - loglik(beta, x)) <= 1e-12


@pytest.mark.parametrize("model", ["beta", "bt"])
def test_newton_cap_stops_members_mid_stack(model, monkeypatch):
    # 40 draws whose fits take 4 to 6 steps: a cap of 4 stops some members of one stack and
    # not others; each member is its solo fit under the same cap, unconverged exactly where
    # its uncapped fit needed more steps
    rng = np.random.default_rng(3)
    beta = rng.normal(0.0, 1.2, 30)
    if model == "beta":
        graphs = [bm.simulate_graph(beta, g) for g in rng.spawn(40)]
        fit, stack, solos = bm.fit_mle, degree_stack(graphs), graphs
    else:
        wins = win_stack(beta - beta[0], 2, rng.spawn(40))
        fit, stack, solos = btm.bt_fit_mle, table_stack(wins, 2), map(ComparisonTable, wins)
    uncapped = fit(stack)
    steps = [f.iterations for f in uncapped if f.exists]
    assert all(f.converged for f in uncapped if f.exists)
    cap = 4
    assert min(steps) <= cap < max(steps)
    monkeypatch.setattr(pairlrt.core, "MAX_NEWTON", cap)
    capped = fit(stack)
    for got, free, x in zip(capped, uncapped, solos):
        solo = fit(x)
        assert (got.exists, got.converged, got.iterations) == (solo.exists, solo.converged, solo.iterations)
        assert np.array_equal(got.beta_hat, solo.beta_hat)
        assert np.array_equal([got.loglik, got.gradient_norm], [solo.loglik, solo.gradient_norm], equal_nan=True)
        assert got.iterations == min(free.iterations, cap)
        assert got.converged == (free.converged and free.iterations <= cap)


class _Members(NamedTuple):
    id: np.ndarray
    kind: np.ndarray


def _synthetic_ascent(members: _Members, start, per, log):
    """core.newton_ascent on one fixed class and one fitted class x per member, logging every call.

    Kinds 0-2 maximize -log cosh(x), whose full Newton step overshoots from
    |x| > 1.09; kind 3 has a constant score 1 and log-likelihood -(x - 2)^2,
    so its steps never lower the norm; kind 4 has zero information.
    """
    def record(name, b, d):
        log.append((name, d.id.tolist(), [v.tobytes() for v in b]))

    def loglik(b, d):
        record("loglik", b, d)
        x = b[:, 1]
        return np.where(d.kind == 3, -(x - 2.0) ** 2, -np.log(np.cosh(x)))

    def score(b, d):
        record("score", b, d)
        s = np.full(b.shape, 7.0)  # the fixed class's entry, which the ascent ignores
        s[:, 1] = np.where(d.kind == 3, 1.0, -np.tanh(b[:, 1]))
        return s

    def info(b, d):
        record("info", b, d)
        h = np.zeros(b.shape + (2,))
        h[:, 1, 1] = np.where(d.kind == 4, 0.0, np.where(d.kind == 3, 1.0, 1.0 / np.cosh(b[:, 1]) ** 2))
        return h

    return pairlrt.core.newton_ascent(loglik, score, info, members, start, per, TOL_SCORE)


def test_every_branch_of_the_step_loop_gives_each_member_its_bits_alone(monkeypatch):
    solves = []
    solve_each = pairlrt.core._solve_each
    monkeypatch.setattr(pairlrt.core, "_solve_each", lambda H, s: solves.append(len(H)) or solve_each(H, s))
    kind = np.array([0, 1, 2, 3, 4, 0, 2])
    members = _Members(np.arange(kind.size), kind)
    start = np.column_stack([np.linspace(-3.0, 3.0, kind.size), [1.0, 1.5, 3.0, 0.0, 0.5, -0.9, -3.2]])
    per = np.array([[1.0], [2.0], [1.0], [1.0], [1.0], [3.0], [1.0]])
    log = []
    stacked = _synthetic_ascent(members, start, per, log)
    assert solves == [kind.size]  # the batched solve failed once, on every live member
    for i in range(kind.size):
        alone = _synthetic_ascent(_Members(*(x[i:i + 1] for x in members)), start[i:i + 1], per[i:i + 1], [])
        for got, want in zip(stacked, alone):
            assert got[i].tobytes() == want[0].tobytes(), i
    values, ll, norm, steps = stacked
    assert np.array_equal(values[:, 0], start[:, 0])

    def seen(name, member):
        """The fitted values at which ``name`` evaluated a member, in order."""
        return [np.frombuffer(v[member])[1] for n, ids, v in
                ((n, ids, dict(zip(ids, v))) for n, ids, v in log) if n == name and member in ids]

    # singular information: the batched solve fails, the member stops at its start
    assert steps[4] == 0 and np.array_equal(values[4], start[4]) and norm[4] == np.tanh(0.5)
    # log-likelihood rising, the norm not falling: two steps accepted on it, then none
    assert steps[3] == 3 and values[3, 1] == 2.0 and norm[3] == 1.0 and ll[3] == 0.0
    assert seen("loglik", 3)[:3] == [0.0, 1.0, 2.0]
    for i in (0, 1, 2, 5, 6):
        assert norm[i] <= TOL_SCORE and np.isfinite(ll[i]) and steps[i] > 2, i
        assert abs(ll[i] + np.log(np.cosh(values[i, 1]))) == 0.0
    # the first steps: a full step whose norm fell, a step halved once, and steps halved
    # until they come inside the divergence cap; the ascent never evaluates outside it
    full = [start[i, 1] - np.sinh(start[i, 1]) * np.cosh(start[i, 1]) for i in range(kind.size)]
    first = {i: seen("score", i)[1:] for i in (0, 1, 2)}
    assert abs(first[0][0] - full[0]) <= 1e-12 and abs(np.tanh(first[0][0])) < np.tanh(1.0)
    assert [abs(x - 1.5) / abs(full[1] - 1.5) for x in first[1][:2]] == pytest.approx([1.0, 0.5], rel=1e-12)
    assert abs(full[2]) > 2 * pairlrt.core.DIVERGENCE_CAP
    assert abs(first[2][0] - 3.0) / abs(full[2] - 3.0) == pytest.approx(0.25, rel=1e-12)
    assert max(abs(x) for i in range(kind.size) for x in seen("score", i)) <= pairlrt.core.DIVERGENCE_CAP
    # the usual step: every live member's full step lowers its norm and is taken whole, so
    # the next step starts where the one score call of this step evaluated
    calls = [(n, dict(zip(ids, v))) for n, ids, v in log if n != "loglik"]
    usual = [
        a for a, b, c in zip(calls, calls[1:], calls[2:])
        if (a[0], b[0], c[0]) == ("info", "score", "info") and a[1].keys() == b[1].keys()
        and all(b[1][i] == v for i, v in c[1].items())
    ]
    assert len(usual) >= 2


@pytest.mark.parametrize("sign", [1, -1])
def test_saturation_shortcut_gives_the_full_rule_s_flags(sign):
    # pair_saturated skips its c x c pass while 2 max|value| < -log(tol) for every member;
    # members whose largest |value|, a fixed one, sits an ulp below, at and an ulp above
    # -log(tol)/2, of either sign, get the flags of the full rule, alone and stacked
    half = -np.log(TOL_SCORE) / 2
    edges = [np.nextafter(half, 0.0), half, np.nextafter(half, np.inf)]
    values = edges + [-v for v in edges]
    if sign > 0:
        # nodes 0 and 1 share a fixed class at v, whose one pair has logit 2v; the free nodes
        # have an edge to both when v > 0 and to neither when v < 0
        lead = [[v, v] for v in values]
        degrees = np.array([[5, 5, 4, 3, 4, 3] if v > 0 else [0, 0, 2, 1, 2, 1] for v in values])
        totals, model = 1, bm.class_model()
        node_totals = np.broadcast_to(1 - np.eye(6, dtype=np.int64), (len(values), 6, 6))
    else:
        # subjects 1 and 2, fixed at v and -v, meet twice: a logit of 2v
        lead = [[0.0, v, -v] for v in values]
        degrees = np.repeat([[5, 1, 9, 4, 5, 6]], len(values), axis=0)
        totals, model = 2 * (1 - np.eye(6, dtype=np.int64)), btm.class_model()
        node_totals = np.broadcast_to(totals, (len(values), 6, 6))
    cases = [class_maps(d[None], head, 0, True) for d, head in zip(degrees, lead)]
    maps, fixed = np.concatenate([m for m, _ in cases]), np.concatenate([f for _, f in cases])

    def fit(rows):
        return fit_by_classes(model, Tallies(degrees[rows], totals), maps[rows], fixed[rows], False, False, TOL_SCORE)

    every = fit(list(range(len(values))))
    below = fit([0, 3])  # no member reaches the edge, so the pass is skipped for the whole stack
    alone = [fit([i])[0] for i in range(len(values))]
    assert [_fit_bits(f) for f in below] == [_fit_bits(alone[i]) for i in (0, 3)]
    assert [_fit_bits(f) for f in every] == [_fit_bits(f) for f in alone]
    beta = np.array([f.beta_hat for f in every])
    full = graph_saturated(beta, TOL_SCORE) if sign > 0 else comparison_saturated(beta, node_totals, TOL_SCORE)
    assert full.tolist() == [False, True, True] * 2
    assert [f.exists for f in every] == [not s for s in full.tolist()]
    for f, v in zip(every, values):
        assert np.abs(f.beta_hat).max() == abs(v)  # the largest |value| is the fixed one
        assert f.iterations > 0 and f.converged == f.exists
