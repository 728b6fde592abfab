import inspect
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import expit

from pairlrt import beta_model as bm
from pairlrt import core
from pairlrt.core import Fits, NullHypothesis, Tallies, UndirectedGraph, class_tallies

from conftest import degree_stack, random_existing_graph, tied_class_map
from oracles import adjacency, fd_gradient, fd_hessian, graph_loglik, maximize_graph

EDGE_01 = UndirectedGraph.from_edges(3, [(0, 1)])


def test_loglik_zero_beta():
    # every pair contributes log 2, the linear term vanishes
    assert bm.log_likelihood(np.zeros(3), EDGE_01) == pytest.approx(-3 * np.log(2), abs=1e-14)
    g4 = UndirectedGraph.from_edges(4, [(0, 1), (2, 3)])
    assert bm.log_likelihood(np.zeros(4), g4) == pytest.approx(-6 * np.log(2), abs=1e-14)


def test_loglik_frozen_value():
    val = bm.log_likelihood(np.array([1.0, -1.0, 0.0]), EDGE_01)
    assert val == pytest.approx(-2.3196705555963910, abs=1e-13)


def test_score_simple_cases():
    assert bm.score(np.zeros(3), EDGE_01).tolist() == [0.0, 0.0, -1.0]
    complete = UndirectedGraph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
    assert bm.score(np.zeros(3), complete).tolist() == [1.0, 1.0, 1.0]


def test_score_matches_fd_gradient(rng):
    for _ in range(10):
        n = int(rng.integers(5, 13))
        beta = rng.uniform(-1, 1, n)
        g = bm.simulate_graph(rng.uniform(-1, 1, n), rng)
        got = bm.score(beta, g)
        want = fd_gradient(lambda b: bm.log_likelihood(b, g), beta)
        assert np.allclose(got, want, rtol=1e-5, atol=1e-5)

        # node 0 fixed, a tied block and free nodes: the class score is the
        # gradient of the log-likelihood in the free class values
        classes = tied_class_map(n)
        values = beta[np.unique(classes, return_index=True)[1]]
        tallies = class_tallies(Tallies(g.degrees, 1), classes)
        class_score = tallies.degrees - bm.expected_degrees(values, tallies)

        def loglik_classes(x):
            return bm.log_likelihood(np.concatenate([values[:1], x])[classes], g)

        got = bm.log_likelihood(values, tallies)
        assert got == pytest.approx(loglik_classes(values[1:]), abs=1e-10)
        assert np.allclose(class_score[1:], fd_gradient(loglik_classes, values[1:]), rtol=1e-5, atol=1e-5)


def test_fisher_matches_fd_hessian(rng):
    for _ in range(5):
        n = int(rng.integers(4, 9))
        beta = rng.uniform(-1, 1, n)
        g = bm.simulate_graph(beta, rng)
        V = bm.fisher_info(beta)
        H = fd_hessian(lambda b: bm.log_likelihood(b, g), beta)
        assert np.abs(V + H).max() <= 1e-4

        classes = tied_class_map(n)
        values = beta[np.unique(classes, return_index=True)[1]]
        V = bm.fisher_info(values, class_tallies(Tallies(g.degrees, 1), classes))[1:, 1:]
        H = fd_hessian(lambda x: bm.log_likelihood(np.concatenate([values[:1], x])[classes], g), values[1:])
        assert np.abs(V + H).max() <= 1e-4


def test_fisher_structure():
    V = bm.fisher_info(np.zeros(3))
    assert np.allclose(V, np.array([[0.5, 0.25, 0.25], [0.25, 0.5, 0.25], [0.25, 0.25, 0.5]]))
    V100 = bm.fisher_info(np.zeros(100))
    assert V100[0, 0] == pytest.approx(99 / 4)
    # row sums of off-diagonals equal the diagonal exactly
    off = V100 - np.diag(np.diag(V100))
    assert np.allclose(off.sum(axis=1), np.diag(V100), rtol=0, atol=1e-12)


def test_degree_variances_are_the_information_diagonal(rng):
    # over the distinct values, with repeats: the diagonal of the dense matrix to rounding
    beta = np.repeat(rng.uniform(-1.5, 1.5, 40), rng.integers(1, 6, 40))
    assert np.allclose(bm.degree_variances(beta), np.diag(bm.fisher_info(beta)), rtol=1e-12, atol=0)


def test_bn_cn_values():
    d = bm.bn_cn(np.zeros(6))
    assert d.b_n == pytest.approx(4.0) and d.c_n == pytest.approx(4.0)
    d2 = bm.bn_cn(np.array([1.0, -1.0, 0.0]))
    assert d2.c_n == pytest.approx(4.0)
    assert d2.b_n == pytest.approx(5.0861612696304876, abs=1e-12)
    n = 100
    profile = np.arange(n) * (0.2 * np.log(n)) / (n - 1)
    d3 = bm.bn_cn(profile)
    assert d3.b_n == pytest.approx(8.411116018107089, abs=1e-10)
    assert d3.c_n >= 4.0 and d3.b_n >= d3.c_n


def test_fit_five_cycle_symmetric():
    g = UndirectedGraph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
    fit = bm.fit_mle(g)
    assert fit.exists and fit.converged
    assert np.abs(fit.beta_hat).max() <= 1e-9
    assert fit.gradient_norm <= 1e-8


def test_fit_nonexistence_boundary():
    comp = UndirectedGraph.from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    fit = bm.fit_mle(comp)
    assert not fit.exists and not fit.converged
    assert np.isnan(fit.loglik)
    isolated = UndirectedGraph.from_edges(4, [(0, 1), (1, 2)])  # node 3 has degree 0
    assert not bm.fit_mle(isolated).exists


def test_a_restricted_fit_that_stalls_at_the_cap_has_no_maximizer():
    # no interior point has these degrees with nodes 0-2 tied: the values run to the
    # divergence cap and saturate there short of tol, which is no maximizer
    g = UndirectedGraph.from_edges(7, [(0, 6), (1, 6), (3, 5), (3, 6), (4, 5), (4, 6), (5, 6)])
    fit = bm.fit_restricted_homogeneous(g, 3)
    assert not fit.exists and not fit.converged
    assert np.isnan(fit.loglik) and fit.gradient_norm == np.inf


def test_fit_matches_oracle(rng):
    _, g = random_existing_graph(rng, 6)
    fit = bm.fit_mle(g)
    oracle = maximize_graph(adjacency(g), lambda x: x, lambda gr: gr, g.n)
    assert np.abs(fit.beta_hat - oracle).max() <= 1e-6


def test_restricted_specified_r0_equals_full(rng):
    _, g = random_existing_graph(rng, 7)
    full = bm.fit_mle(g)
    r0 = bm.fit_restricted_specified(g, NullHypothesis.specified(0, []))
    assert np.allclose(full.beta_hat, r0.beta_hat, atol=1e-12)


def test_restricted_specified_simple_null():
    g = UndirectedGraph.from_edges(4, [(0, 1), (0, 2), (1, 3)])
    values = np.array([0.2, -0.1, 0.0, 0.3])
    fit = bm.fit_restricted_specified(g, NullHypothesis.specified(4, values))
    assert fit.exists and fit.converged
    assert np.array_equal(fit.beta_hat, values)
    assert fit.loglik == pytest.approx(bm.log_likelihood(values, g), abs=1e-12)


def test_restricted_specified_matches_oracle(rng):
    _, g = random_existing_graph(rng, 6)
    values = np.array([0.0, 0.0])
    fit = bm.fit_restricted_specified(g, NullHypothesis.specified(2, values))
    assert fit.exists
    assert np.array_equal(fit.beta_hat[:2], values)
    # stationarity on the free block
    assert np.abs(bm.score(fit.beta_hat, g)[2:]).max() <= 1e-8

    def embed(x):
        return np.concatenate([values, x])

    oracle = maximize_graph(adjacency(g), embed, lambda gr: gr[2:], 4)
    assert np.abs(fit.beta_hat[2:] - oracle).max() <= 1e-6


def test_restricted_homogeneous_r1_equals_full(rng):
    _, g = random_existing_graph(rng, 6)
    full = bm.fit_mle(g)
    h1 = bm.fit_restricted_homogeneous(g, 1)
    assert np.allclose(full.beta_hat, h1.beta_hat, atol=1e-10)


def test_restricted_homogeneous_all_tied_closed_form(rng):
    _, g = random_existing_graph(rng, 6)
    fit = bm.fit_restricted_homogeneous(g, 6)
    total = g.degrees.sum()
    frac = total / (6 * 5)
    want = 0.5 * np.log(frac / (1 - frac))
    assert np.allclose(fit.beta_hat, want, atol=1e-8)


def test_restricted_homogeneous_matches_oracle(rng):
    _, g = random_existing_graph(rng, 6)
    r = 3
    fit = bm.fit_restricted_homogeneous(g, r)
    assert fit.exists
    assert fit.beta_hat[0] == fit.beta_hat[1] == fit.beta_hat[2]
    s = bm.score(fit.beta_hat, g)
    assert abs(s[:r].sum()) <= 1e-7 and np.abs(s[r:]).max() <= 1e-8

    def embed(x):
        return np.concatenate([np.repeat(x[0], r), x[1:]])

    def project(gr):
        return np.concatenate([[gr[:r].sum()], gr[r:]])

    oracle = maximize_graph(adjacency(g), embed, project, 4)
    assert abs(fit.beta_hat[0] - oracle[0]) <= 1e-6
    assert np.abs(fit.beta_hat[r:] - oracle[1:]).max() <= 1e-6


def test_nested_likelihood_ordering(rng):
    for _ in range(5):
        _, g = random_existing_graph(rng, 7)
        full = bm.fit_mle(g)
        hom = bm.fit_restricted_homogeneous(g, 3)
        if hom.exists:
            assert full.loglik >= hom.loglik - 1e-10
        spec = bm.fit_restricted_specified(g, NullHypothesis.specified(3, [0.0, 0.0, 0.0]))
        if spec.exists:
            assert full.loglik >= spec.loglik - 1e-10


def test_simulate_graph_properties(rng):
    beta = np.zeros(100)
    means = [bm.simulate_graph(beta, rng).degrees.mean() for _ in range(50)]
    assert abs(np.mean(means) - 49.5) < 1.5
    # determinism under a fixed stream
    g1 = bm.simulate_graph(np.arange(5) * 0.1, np.random.default_rng(7))
    g2 = bm.simulate_graph(np.arange(5) * 0.1, np.random.default_rng(7))
    assert np.array_equal(adjacency(g1), adjacency(g2))


def test_simulate_graph_saturated_pair(rng):
    beta = np.array([6.0, 6.0, 0.0])
    hits = sum(int(adjacency(bm.simulate_graph(beta, rng))[0, 1]) for _ in range(1000))
    assert hits >= 995


def test_consistency_radius_diagnostic(rng):
    # tied-fit deviation bound: holds with probability >= 1 - 2/n
    n = 200
    beta = np.zeros(n)
    radius = bm.bn_cn(beta).consistency_radius
    inside = 0
    for _ in range(200):
        g = bm.simulate_graph(beta, rng)
        fit = bm.fit_mle(g)
        if fit.exists and np.abs(fit.beta_hat).max() <= radius:
            inside += 1
    assert inside >= 196


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(4, 9))
def test_fit_stationarity_property(seed, n):
    r = np.random.default_rng(seed)
    g = bm.simulate_graph(r.uniform(-1.5, 1.5, n), r)
    fit = bm.fit_mle(g)
    if fit.converged:
        assert fit.gradient_norm <= 1e-8
        assert np.abs(bm.score(fit.beta_hat, g)).max() <= 1e-8
    if not fit.exists:
        assert not fit.converged


def test_regular_graph_closed_form():
    # one degree class: every node solves d = (n - 1) expit(2 b)
    n, d = 10, 4
    g = UndirectedGraph.from_edges(n, [(i, (i + k) % n) for i in range(n) for k in (1, 2)])
    fit = bm.fit_mle(g)
    assert fit.exists and fit.converged
    assert np.all(fit.beta_hat == fit.beta_hat[0])
    frac = d / (n - 1)
    assert fit.beta_hat[0] == pytest.approx(0.5 * np.log(frac / (1 - frac)), abs=1e-12)


def _regular_graph(n, d):
    """A d-regular circulant graph on n nodes (n even when d is odd)."""
    edges = [(i, (i + k) % n) for i in range(n) for k in range(1, d // 2 + 1)]
    edges += [(i, i + n // 2) for i in range(n // 2)] if d % 2 else []
    g = UndirectedGraph.from_edges(n, edges)
    assert np.all(g.degrees == d)
    return g


@pytest.mark.parametrize("n, d", [(9, 2), (10, 4), (12, 7), (30, 1), (30, 28), (100, 50), (1000, 1), (1000, 998)])
def test_regular_graph_fits_in_two_steps(n, d):
    # one degree class, whose mean-field start is the closed form up to the 1/2 in its logit
    fit = bm.fit_mle(_regular_graph(n, d))
    assert fit.exists and fit.converged and 1 <= fit.iterations <= 2


def _fit_and_oracle(g, which, r, values):
    """One of the three fits and the oracle's maximum loglik over the same constraint set."""
    n = g.n
    if which == "full":
        return bm.fit_mle(g), lambda x: x, lambda gr: gr, n
    if which == "specified":

        def embed(x):
            return np.concatenate([values, x])

        return bm.fit_restricted_specified(g, NullHypothesis.specified(r, values)), embed, lambda gr: gr[r:], n - r

    def tie(x):
        return np.concatenate([np.repeat(x[0], r), x[1:]])

    def project(gr):
        return np.concatenate([[gr[:r].sum()], gr[r:]])

    return bm.fit_restricted_homogeneous(g, r), tie, project, n - r + 1


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(6, 10), st.sampled_from(["full", "specified", "homogeneous"]))
def test_degree_classes_share_the_maximizer(seed, n, which):
    rng = np.random.default_rng(seed)
    g = bm.simulate_graph(rng.uniform(-1.0, 1.0, n), rng)
    r = 0 if which == "full" else 2
    values = rng.uniform(-0.5, 0.5, r)
    d = g.degrees
    assume(np.unique(d[r:]).size < n - r)  # some free degree repeats
    fit, embed, project, m = _fit_and_oracle(g, which, r, values)
    if not (fit.exists and fit.converged):
        return
    b = fit.beta_hat
    free = np.arange(r, n)
    for i in free:
        same = free[d[free] == d[i]]
        assert np.all(b[same] == b[i]), (i, same, b[same])
    if which == "homogeneous":
        assert np.all(b[:r] == b[0])
    oracle = maximize_graph(adjacency(g), embed, project, m)
    assert abs(fit.loglik - graph_loglik(embed(oracle), adjacency(g))) <= 1e-8


def test_homogeneous_gradient_norm_sums_the_tied_block(rng):
    _, g = random_existing_graph(rng, 8)
    r = 4
    # a loose tolerance stops Newton early, so the reported residual is far from zero
    fit = bm.fit_restricted_homogeneous(g, r, tol=1e-2)
    s = bm.score(fit.beta_hat, g)
    reduced = np.concatenate([[s[:r].sum()], s[r:]])
    assert fit.gradient_norm == pytest.approx(np.abs(reduced).max(), rel=1e-9, abs=1e-15)
    tight = bm.fit_restricted_homogeneous(g, r)
    s = bm.score(tight.beta_hat, g)
    assert tight.gradient_norm == pytest.approx(max(abs(s[:r].sum()), np.abs(s[r:]).max()), rel=1e-9, abs=1e-15)
    assert tight.gradient_norm <= 1e-8


def _assert_bitwise(got, solo):
    assert (got.exists, got.converged, got.iterations) == (solo.exists, solo.converged, solo.iterations)
    assert np.array_equal(got.beta_hat, solo.beta_hat)
    assert np.array_equal([got.loglik, got.gradient_norm], [solo.loglik, solo.gradient_norm], equal_nan=True)


FAR_PINS = NullHypothesis.specified(2, [9.0, -9.0])
STACK_FITS = {
    "full": bm.fit_mle,
    "homogeneous": lambda g, **kw: bm.fit_restricted_homogeneous(g, 3, **kw),
    "specified": lambda g, **kw: bm.fit_restricted_specified(g, FAR_PINS, **kw),
}


@pytest.mark.parametrize("kind", sorted(STACK_FITS))
def test_stack_members_equal_their_solo_fits(kind):
    # a steep profile on 8 nodes: members of several class counts, members with a
    # degree of 0, and members whose fit saturates, fitted in one stack
    fit = STACK_FITS[kind]
    graphs = [bm.simulate_graph(np.linspace(-1.5, 1.5, 8), g) for g in np.random.default_rng(3).spawn(60)]
    fits = fit(degree_stack(graphs))
    assert isinstance(fits, Fits) and fits.iterations == sum(f.iterations for f in fits)
    for got, g in zip(fits, graphs):
        _assert_bitwise(got, fit(g))
    r = {"full": 0, "homogeneous": 3, "specified": 2}[kind]
    assert len({np.unique(g.degrees[r:]).size for g, f in zip(graphs, fits) if f.exists}) > 1
    assert any(g.degrees.min() == 0 for g in graphs)
    assert any(not f.exists and f.iterations > 0 for f in fits)

    # at a tolerance the arithmetic cannot reach, members stall after different numbers of steps
    stalled = fit(degree_stack(graphs), tol=1e-300)
    for got, g in zip(stalled, graphs):
        _assert_bitwise(got, fit(g, tol=1e-300))
    assert any(f.exists and not f.converged for f in stalled)
    assert len({f.iterations for f in stalled if f.exists}) > 1


@pytest.mark.parametrize("kind", sorted(STACK_FITS))
def test_a_degree_stack_fits_as_its_graphs(kind):
    # a stacked draw is its degree stack, and its fits are bitwise those of the
    # degree stack of its members' solo draws, converged or stalled
    fit, beta = STACK_FITS[kind], np.linspace(-1.5, 1.5, 8)
    stack = bm.simulate_graph(beta, np.random.default_rng(3).spawn(60))
    graphs = [bm.simulate_graph(beta, g) for g in np.random.default_rng(3).spawn(60)]
    assert isinstance(stack, Tallies)
    for tol in (1e-8, 1e-300):
        fits = fit(stack, tol=tol)
        assert isinstance(fits, Fits) and len(fits) == len(graphs)
        for got, solo in zip(fits, fit(degree_stack(graphs), tol=tol)):
            _assert_bitwise(got, solo)


def _one_shot_edges(beta, gen):
    """Every pair i < j drawn at once, in row order: the draw simulate_graph takes in blocks."""
    i, j = np.triu_indices(beta.size, k=1)
    keep = gen.random(i.size) < expit(beta[i] + beta[j])
    return np.column_stack((i[keep], j[keep]))


@pytest.mark.parametrize("budget", [1, 5, 37])
@pytest.mark.parametrize("n", [9, 50])
def test_a_draw_in_blocks_is_the_one_shot_draw(n, budget, monkeypatch):
    # any block budget, even one below a row, reads each generator's uniforms in one order
    monkeypatch.setattr(core, "PAIR_BLOCK", budget)
    beta = np.random.default_rng(n).uniform(-1.5, 1.5, n)
    for seed in range(3):
        g = bm.simulate_graph(beta, np.random.default_rng(seed))
        edges = _one_shot_edges(beta, np.random.default_rng(seed))
        assert g.edges.dtype == edges.dtype and np.array_equal(g.edges, edges)
        assert np.array_equal(g.degrees, np.bincount(edges.ravel(), minlength=n))


@pytest.mark.parametrize("budget", [1, 37, core.PAIR_BLOCK])
def test_stack_members_have_their_solo_degrees(budget, monkeypatch):
    monkeypatch.setattr(core, "PAIR_BLOCK", budget)
    beta = np.linspace(-1.0, 1.0, 50)
    stack = bm.simulate_graph(beta, np.random.default_rng(8).spawn(5))
    assert isinstance(stack, Tallies) and stack.degrees.shape == (5, 50) and stack.totals == 1
    for row, gen in zip(stack.degrees, np.random.default_rng(8).spawn(5)):
        solo = bm.simulate_graph(beta, gen).degrees
        assert row.dtype == solo.dtype and np.array_equal(row, solo)


def test_draws_hold_no_n_squared_array():
    # n = 3000 has 4.5 million pairs, 34 MiB of doubles each time they are held whole: a
    # stack holds its degree rows and one block of pairs, a solo draw its edges and one block
    beta = np.linspace(-1.0, 1.0, 3000)
    tracemalloc.start()
    try:
        bm.simulate_graph(beta, np.random.default_rng(1).spawn(2))
        stacked = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        g = bm.simulate_graph(beta, np.random.default_rng(1))
        solo = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stacked < 8 * 2**20
    assert solo < 3 * g.edges.nbytes


def test_simulate_graph_indexes_no_whole_triangle():
    # the pair indices are built a block at a time, never for every pair at once
    assert "triu_indices" not in inspect.getsource(bm.simulate_graph)
