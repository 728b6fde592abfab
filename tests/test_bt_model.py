import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from pairlrt import bt_model as btm
from pairlrt import core
from pairlrt.core import TOL_SCORE, ComparisonTable, Fits, NullHypothesis, Tallies, class_tallies, fit_by_classes

from conftest import random_connected_table, table_stack, tied_class_map, win_stack
from oracles import comparison_loglik, fd_gradient, fd_hessian, maximize_comparison

CYCLE3 = ComparisonTable(np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]]))
FROZEN = ComparisonTable(np.array([[0, 2, 1], [1, 0, 3], [0, 2, 0]]))


def test_loglik_simple_values():
    assert btm.bt_log_likelihood(np.zeros(3), CYCLE3) == pytest.approx(-3 * np.log(2), abs=1e-14)
    k3 = np.full((4, 4), 3)
    np.fill_diagonal(k3, 0)
    wins = np.triu(k3)  # upper subject wins everything; totals still 3 per pair
    t = ComparisonTable(wins)
    assert btm.bt_log_likelihood(np.zeros(4), t) == pytest.approx(-18 * np.log(2), abs=1e-13)
    with pytest.raises(ValueError, match="does not match n=3"):
        btm.bt_log_likelihood(np.zeros(4), CYCLE3)


def test_table_evaluators_take_one_parameter_vector():
    # a ComparisonTable takes one value per subject; a stack of rows is for class Tallies
    for evaluator in (btm.bt_log_likelihood, btm.bt_expected_wins, btm.bt_fisher_info):
        with pytest.raises(ValueError, match="one-dimensional"):
            evaluator(np.zeros((2, 3)), CYCLE3)


def test_loglik_frozen_value():
    val = btm.bt_log_likelihood(np.array([0.0, 1.0, -1.0]), FROZEN)
    assert val == pytest.approx(-7.8876868052877538, abs=1e-13)


def test_score_simple_cases():
    assert btm.bt_score(np.zeros(3), CYCLE3).tolist() == [0.0, 0.0]
    sweep = ComparisonTable(np.array([[0, 0, 0], [0, 0, 0], [1, 1, 0]]))
    s = btm.bt_score(np.zeros(3), sweep)
    assert s[1] == pytest.approx(1.0)


def test_score_matches_fd_gradient(rng):
    for _ in range(10):
        n = int(rng.integers(4, 9))
        beta = rng.uniform(-1, 1, n)
        beta[0] = 0.0
        table = btm.simulate_comparisons(beta, 3, rng)
        got = btm.bt_score(beta, table)

        def loglik_free(x):
            return btm.bt_log_likelihood(np.concatenate([[0.0], x]), table)

        want = fd_gradient(loglik_free, beta[1:])
        assert np.allclose(got, want, rtol=1e-6, atol=1e-6)

        # the reference fixed, a tied block and free subjects: the class score
        # is the gradient of the log-likelihood in the free class values
        classes = tied_class_map(n)
        values = beta[np.unique(classes, return_index=True)[1]]
        tallies = class_tallies(table, classes)
        class_score = tallies.degrees - btm.bt_expected_wins(values, tallies)

        def loglik_classes(x):
            return btm.bt_log_likelihood(np.concatenate([[0.0], x])[classes], table)

        assert btm.bt_log_likelihood(values, tallies) == pytest.approx(loglik_classes(values[1:]), abs=1e-10)
        assert np.allclose(class_score[1:], fd_gradient(loglik_classes, values[1:]), rtol=1e-6, atol=1e-6)


def test_fisher_matches_fd_hessian(rng):
    for _ in range(5):
        n = int(rng.integers(4, 8))
        beta = rng.uniform(-1, 1, n)
        beta[0] = 0.0
        table = btm.simulate_comparisons(beta, 2, rng)
        V = btm.bt_fisher_info(beta, table)[1:, 1:]

        def loglik_free(x):
            return btm.bt_log_likelihood(np.concatenate([[0.0], x]), table)

        H = fd_hessian(loglik_free, beta[1:])
        assert np.abs(V + H).max() <= 1e-4

        classes = tied_class_map(n)
        values = beta[np.unique(classes, return_index=True)[1]]
        V = btm.bt_fisher_info(values, class_tallies(table, classes))[1:, 1:]
        H = fd_hessian(lambda x: btm.bt_log_likelihood(np.concatenate([[0.0], x])[classes], table), values[1:])
        assert np.abs(V + H).max() <= 1e-4


def test_fisher_diagonal_values():
    k3 = np.full((30, 30), 3)
    np.fill_diagonal(k3, 0)
    t = ComparisonTable(np.triu(k3))
    V = btm.bt_fisher_info(np.zeros(30), t)[1:, 1:]
    assert V[0, 0] == pytest.approx(29 * 3 / 4)
    assert V[0, 1] == pytest.approx(-3 / 4)


def test_strong_connectivity_cases():
    assert btm.strongly_connected(CYCLE3)
    sweep = ComparisonTable(np.array([[0, 1, 1], [0, 0, 0], [0, 0, 0]]))
    assert not btm.strongly_connected(sweep)
    # two cycles joined by a one-way bridge
    w = np.zeros((6, 6), dtype=int)
    for i, j in [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]:
        w[i, j] = 1
    w[2, 3] = 1
    assert not btm.strongly_connected(ComparisonTable(w))
    w[3, 2] = 1
    assert btm.strongly_connected(ComparisonTable(w))


def test_strong_connectivity_of_a_stack(rng):
    from scipy.sparse.csgraph import connected_components

    # sparse draws: about half the tables are not strongly connected
    wins = win_stack(rng.uniform(-2, 2, 6) * [0, 1, 1, 1, 1, 1], 1, rng.spawn(60))
    got = btm.strongly_connected(wins)
    alone = [btm.strongly_connected(w) for w in wins]
    oracle = [connected_components(w > 0, directed=True, connection="strong")[0] == 1 for w in wins]
    assert got.tolist() == alone == oracle
    assert 0 < got.sum() < len(wins)


def _assert_same_fit(got, solo):
    assert (got.exists, got.converged, got.iterations) == (solo.exists, solo.converged, solo.iterations)
    assert np.array_equal(got.beta_hat, solo.beta_hat)
    assert np.array_equal([got.loglik, got.gradient_norm], [solo.loglik, solo.gradient_norm], equal_nan=True)


def test_batch_members_stop_on_their_own():
    # equal merits with subject 1 pinned 17.5 up: ordinary tables, tables with no full
    # maximizer, and tables whose restricted fit saturates, fitted in one stack
    n = 5
    totals = np.full((n, n), 2)
    np.fill_diagonal(totals, 0)
    wins = win_stack(np.zeros(n), totals, np.random.default_rng(3).spawn(60))
    null = NullHypothesis.specified(2, [17.5])
    tables = [ComparisonTable(w) for w in wins]
    full = btm.bt_fit_mle(table_stack(wins, totals))
    restricted = btm.bt_fit_restricted(table_stack(wins, totals), null)
    assert isinstance(full, Fits) and full.iterations == sum(f.iterations for f in full)
    for got, table in zip(full, tables):
        _assert_same_fit(got, btm.bt_fit_mle(table))
    for got, table in zip(restricted, tables):
        _assert_same_fit(got, btm.bt_fit_restricted(table, null))
    kinds = {(f.exists, r.exists) for f, r in zip(full, restricted)}
    assert {(False, False), (True, False), (True, True)} <= kinds

    # at a tolerance the arithmetic cannot reach, members stall after different numbers of steps
    stalled = btm.bt_fit_mle(table_stack(wins, totals), tol=1e-300)
    for got, table in zip(stalled, tables):
        _assert_same_fit(got, btm.bt_fit_mle(table, tol=1e-300))
    assert any(f.exists and not f.converged for f in stalled)
    assert len({f.iterations for f in stalled if f.exists}) > 1

    # a tied block that only meets itself has no identified level, so no maximizer up
    # front; two free subjects that only meet each other have singular information, so
    # that table stops before its first step; the others go on.  Each design is its own
    # stack, the lone and the apart table stacks of one
    lone = np.zeros((n, n), dtype=int)
    lone[1, 2] = lone[2, 1] = 1
    for i, j in [(0, 3), (3, 4), (0, 4)]:
        lone[i, j], lone[j, i] = 2, 1
    apart = np.zeros((n, n), dtype=int)
    apart[3, 4] = apart[4, 3] = 1
    for i, j in [(0, 1), (1, 2), (0, 2)]:
        apart[i, j], apart[j, i] = 2, 1
    tied = NullHypothesis.homogeneous(3)
    designs = {"drawn": wins[:20], "lone": lone[None], "apart": apart[None]}
    fits = {name: btm.bt_fit_restricted(table_stack(w, w[0] + w[0].T), tied) for name, w in designs.items()}
    for name, w in designs.items():
        for got, table in zip(fits[name], w):
            _assert_same_fit(got, btm.bt_fit_restricted(ComparisonTable(table), tied))
    assert len(fits["lone"]) == len(fits["apart"]) == 1
    assert not fits["lone"][0].exists and fits["lone"][0].iterations == 0
    assert fits["apart"][0].exists and not fits["apart"][0].converged and fits["apart"][0].iterations == 0
    assert all(f.converged for f in fits["drawn"] if f.exists)


def test_a_stack_holds_one_design():
    # a stack's pair counts are one number or one (n, n) matrix; counts per table, (k, n, n),
    # are a ValueError that names their shape, in both fits
    wins = win_stack(np.zeros(4), 2, np.random.default_rng(7).spawn(3))
    stack = table_stack(wins, 2)
    per_table = btm.ComparisonStack(Tallies(stack.tallies.degrees, wins + np.swapaxes(wins, -1, -2)), stack.connected)
    for fit in (btm.bt_fit_mle, lambda s: btm.bt_fit_restricted(s, NullHypothesis.homogeneous(3))):
        assert len(fit(stack)) == 3
        with pytest.raises(ValueError, match=r"number or an 4-by-4 matrix, got \(3, 4, 4\)"):
            fit(per_table)


def _fit_on_maps(wins, maps):
    # full fits of a stack of win matrices, every pair compared twice, on the given class
    # maps, the reference fixed at zero
    fixed = np.zeros((len(wins), 1))
    return fit_by_classes(btm.class_model(), table_stack(wins, 2).tallies, maps, fixed, False, False, TOL_SCORE)


def test_members_keep_their_own_class_maps():
    # in balanced tables (every pair compared k times) free subjects of equal win total
    # share the maximizer, so they can form one class; a stack mixing such maps with
    # one class per subject groups its members by class count
    n, k = 12, 2
    beta = np.linspace(0.0, 2.0, n)
    wins = win_stack(beta, k, np.random.default_rng(5).spawn(40))
    wins = wins[btm.strongly_connected(wins)][:24]
    merged = [np.concatenate([[0], np.unique(w.sum(axis=1)[1:], return_inverse=True)[1] + 1]) for w in wins]
    maps = [merged[t] if t % 3 else np.arange(n) for t in range(len(wins))]
    assert len({m.max() for m in maps}) > 2

    stacked = _fit_on_maps(wins, maps)
    for t, got in enumerate(stacked):
        _assert_same_fit(got, _fit_on_maps(wins[t:t + 1], maps[t:t + 1])[0])
        per_subject = _fit_on_maps(wins[t:t + 1], [np.arange(n)])[0]
        assert got.converged and abs(got.loglik - per_subject.loglik) <= 1e-9


# the three fits of a table, each on the per-subject class maps a table of unequal pair
# totals keeps: (map head, fixed values, tied) for the full fit and two nulls on subjects 1..3
PINNED = NullHypothesis.specified(4, [0.0, 0.3, 0.3])
TIED = NullHypothesis.homogeneous(4)
PER_SUBJECT = {
    "full": (lambda n: np.arange(n), np.zeros(1), False),
    "specified": (lambda n: np.arange(n), np.array([0.0, 0.0, 0.3, 0.3]), False),
    "homogeneous": (lambda n: np.concatenate([[0, 1, 1, 1], np.arange(2, n - 2)]), np.zeros(1), True),
}


def _fit_kind(kind, data):
    if kind == "full":
        return btm.bt_fit_mle(data)
    return btm.bt_fit_restricted(data, PINNED if kind == "specified" else TIED)


def _per_subject_fit(kind, wins):
    head, fixed, tied = PER_SUBJECT[kind]
    n = wins.shape[-1]
    stack = table_stack(wins[None], wins + wins.T)
    return fit_by_classes(btm.class_model(), stack.tallies, [head(n)], fixed[None], tied, False, TOL_SCORE)[0]


def _balanced_tables(n, k, count, seed):
    beta = np.concatenate([[0.0, 0.0, 0.3, 0.3], np.linspace(-0.5, 1.0, n - 4)])
    wins = win_stack(beta, k, np.random.default_rng(seed).spawn(count))
    return wins[btm.strongly_connected(wins)]


@pytest.mark.parametrize("kind", sorted(PER_SUBJECT))
def test_balanced_tables_merge_equal_win_totals(kind):
    # every pair compared twice: free subjects of equal win total form one class, and
    # come out exactly equal, at the likelihood of the fit with one class per subject
    merged = 0
    for wins in _balanced_tables(14, 2, 30, 8):
        got = _fit_kind(kind, ComparisonTable(wins))
        if not got.exists:
            continue
        per_subject = _per_subject_fit(kind, wins)
        assert got.converged and per_subject.converged
        assert abs(got.loglik - per_subject.loglik) <= 1e-9
        assert np.abs(got.beta_hat - per_subject.beta_hat).max() <= 1e-6
        d = wins.sum(axis=1)
        for total in np.unique(d[4:]):
            same = np.flatnonzero(d == total)
            same = same[same >= 4]
            merged += same.size > 1
            assert np.all(got.beta_hat[same] == got.beta_hat[same[0]])
    assert merged > 10


@pytest.mark.parametrize("kind", sorted(PER_SUBJECT))
def test_unbalanced_tables_keep_one_class_per_subject(kind):
    # pair totals of 1, 2 or 3: the fit is bitwise that of the per-subject class maps
    rng = np.random.default_rng(9)
    fitted = 0
    for _ in range(12):
        totals = np.triu(rng.integers(1, 4, (9, 9)), 1)
        beta = np.concatenate([[0.0], rng.uniform(-0.8, 0.8, 8)])
        wins = btm.simulate_comparisons(beta, totals + totals.T, rng).wins
        got = _fit_kind(kind, ComparisonTable(wins))
        fitted += got.exists
        if got.exists:
            _assert_same_fit(got, _per_subject_fit(kind, wins))
    assert fitted > 5


def test_fit_cycle_symmetry():
    fit = btm.bt_fit_mle(CYCLE3)
    assert fit.exists and fit.converged
    assert np.abs(fit.beta_hat).max() <= 1e-10
    assert fit.beta_hat[0] == 0.0


def test_fit_nonexistence_short_circuits():
    sweep = ComparisonTable(np.array([[0, 1, 1], [0, 0, 0], [0, 0, 0]]))
    fit = btm.bt_fit_mle(sweep)
    assert not fit.exists and not fit.converged
    assert np.isnan(fit.loglik)


def test_a_restricted_fit_that_stalls_at_the_cap_has_no_maximizer():
    # one comparison a pair; subject 0 loses all of them, and row i lists whom subject i
    # beats.  Tied subjects 1-5 have no interior fit: the values run to the divergence cap
    # and saturate there short of tol, which is no maximizer
    beats = {1: [0, 6, 7], 2: [0, 1, 3, 4, 7], 3: [0, 1, 7], 4: [0, 1, 3, 7], 5: [0, 1, 2, 3, 4, 7],
             6: [0, 2, 3, 4, 5, 7], 7: [0]}
    wins = np.zeros((8, 8), dtype=np.int64)
    for i, beaten in beats.items():
        wins[i, beaten] = 1
    fit = btm.bt_fit_restricted(ComparisonTable(wins), NullHypothesis.homogeneous(6))
    assert not fit.exists and not fit.converged
    assert np.isnan(fit.loglik) and fit.gradient_norm == np.inf


def test_fit_matches_oracle(rng):
    _, table = random_connected_table(rng, 4, k=2)
    fit = btm.bt_fit_mle(table)

    def embed(x):
        return np.concatenate([[0.0], x])

    oracle = maximize_comparison(table.wins, embed, lambda g: g[1:], 3)
    assert np.abs(fit.beta_hat[1:] - oracle).max() <= 1e-6
    assert fit.beta_hat[0] == 0.0


def test_normalization_invariance(rng):
    _, table = random_connected_table(rng, 6, k=3)
    fit_a = btm.bt_fit_mle(table)
    perm = np.roll(np.arange(6), -2)  # subject 2 becomes the reference
    fit_b = btm.bt_fit_mle(ComparisonTable(table.wins[np.ix_(perm, perm)]))
    b_a, b_b = fit_a.beta_hat[perm], fit_b.beta_hat
    p_a = expit(b_a[:, None] - b_a[None, :])
    p_b = expit(b_b[:, None] - b_b[None, :])
    assert np.allclose(p_a, p_b, atol=1e-7)
    assert fit_a.beta_hat[0] == fit_b.beta_hat[0] == 0.0


def test_restricted_specified_full_pin(rng):
    beta, table = random_connected_table(rng, 5, k=3)
    null = NullHypothesis.specified(5, beta[1:])
    fit = btm.bt_fit_restricted(table, null)
    assert fit.exists and fit.converged
    assert fit.loglik == pytest.approx(btm.bt_log_likelihood(beta, table), abs=1e-12)


def test_restricted_specified_matches_oracle(rng):
    _, table = random_connected_table(rng, 6, k=3)
    values = np.array([0.1, -0.1])
    null = NullHypothesis.specified(3, values)
    fit = btm.bt_fit_restricted(table, null)
    assert fit.exists
    assert np.array_equal(fit.beta_hat[1:3], values)

    def embed(x):
        return np.concatenate([[0.0], values, x])

    oracle = maximize_comparison(table.wins, embed, lambda g: g[3:], 3)
    assert np.abs(fit.beta_hat[3:] - oracle).max() <= 1e-6


def test_restricted_homogeneous_r2_degenerate(rng):
    _, table = random_connected_table(rng, 5, k=3)
    full = btm.bt_fit_mle(table)
    tied = btm.bt_fit_restricted(table, NullHypothesis.homogeneous(2))
    assert np.allclose(full.beta_hat, tied.beta_hat, atol=1e-8)


def test_restricted_homogeneous_matches_oracle(rng):
    _, table = random_connected_table(rng, 6, k=3)
    fit = btm.bt_fit_restricted(table, NullHypothesis.homogeneous(4))
    assert fit.exists
    assert fit.beta_hat[1] == fit.beta_hat[2] == fit.beta_hat[3]
    assert fit.beta_hat[0] == 0.0

    def embed(x):
        # common level for subjects 2..4, free tail, reference fixed
        return np.concatenate([[0.0], np.repeat(x[0], 3), x[1:]])

    def project(g):
        return np.concatenate([[g[1:4].sum()], g[4:]])

    oracle = maximize_comparison(table.wins, embed, project, 3)
    assert abs(fit.beta_hat[1] - oracle[0]) <= 1e-6
    assert np.abs(fit.beta_hat[4:] - oracle[1:]).max() <= 1e-6


def test_nested_loglik_ordering(rng):
    for _ in range(5):
        _, table = random_connected_table(rng, 6, k=2)
        full = btm.bt_fit_mle(table)
        hom = btm.bt_fit_restricted(table, NullHypothesis.homogeneous(3))
        if hom.exists:
            assert full.loglik >= hom.loglik - 1e-10
        spec = btm.bt_fit_restricted(table, NullHypothesis.specified(3, [0.0, 0.0]))
        if spec.exists:
            assert full.loglik >= spec.loglik - 1e-10


def test_simulate_wins_partition(rng):
    beta = np.concatenate([[0.0], rng.uniform(-1, 1, 7)])
    k = rng.integers(1, 5, (8, 8))
    k = np.triu(k, 1) + np.triu(k, 1).T
    table = btm.simulate_comparisons(beta, k, rng)
    assert np.array_equal(table.totals, k)
    assert np.all(table.wins >= 0)


def test_simulate_rejects_fractional_counts(rng):
    beta = np.array([0.0, 0.5, -0.5, 0.2])
    with pytest.raises(ValueError, match="whole numbers"):
        btm.simulate_comparisons(beta, 2.7, rng)
    k = np.full((4, 4), 2.0)
    k[1, 2] = k[2, 1] = 2.5
    with pytest.raises(ValueError, match="whole numbers"):
        btm.simulate_comparisons(beta, k, rng)
    # integral floats are whole counts
    assert btm.simulate_comparisons(beta, 2.0, rng).totals[0, 1] == 2
    assert btm.simulate_comparisons(beta, np.full((4, 4), 2.0), rng).totals[0, 1] == 2


def test_comparison_counts_hold_a_table_s_bound():
    # a design whose pairs i < j hold more than 2**52 comparisons in all is no table's, as
    # ComparisonTable holds; the counts are summed as Python integers, so none wraps
    n, most = 4, 2**52 // 6
    at_bound = np.array([[0, 2**51, 2**51 - 4, 1], [0, 0, 1, 1], [0, 0, 0, 1], [0, 0, 0, 0]])
    assert btm.comparison_counts(most, n) == most
    assert btm.comparison_counts(at_bound + at_bound.T, n)[0, 1] == 2**51
    wraps = np.array([[0, 2**62, 2**62, 2**62], [0, 0, 2**62, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
    assert (wraps + wraps.T)[np.triu_indices(n, k=1)].sum() == 0  # four pairs of 2**62 wrap in int64
    past = at_bound.copy()
    past[0, 3] += 1
    for k in (most + 1, 2**50, 2**62, float(2**62), 3 * 2**62, past + past.T, wraps + wraps.T):
        with pytest.raises(ValueError, match=r"'k' must number at most 2\*\*52"):
            btm.comparison_counts(k, n)
    with pytest.raises(ValueError, match="'k'"):
        btm.simulate_comparisons(np.zeros(n), 2**50, [np.random.default_rng(0)])


def test_simulate_mean_wins(rng):
    beta = np.zeros(100)
    tot = [btm.simulate_comparisons(beta, 1, rng).degrees[0] for _ in range(500)]
    assert abs(np.mean(tot) - 49.5) < 1.5


def test_simulate_determinism():
    beta = np.array([0.0, 0.5, -0.5, 0.2])
    a = btm.simulate_comparisons(beta, 3, np.random.default_rng(11))
    b = btm.simulate_comparisons(beta, 3, np.random.default_rng(11))
    assert np.array_equal(a.wins, b.wins)


@pytest.mark.parametrize("matrix", [False, True])
def test_no_generators_give_an_empty_stack(matrix):
    beta = np.array([0.0, 0.4, -0.3, 1.0])
    k = 2 * (1 - np.eye(4, dtype=np.int64)) if matrix else 2
    stack = btm.simulate_comparisons(beta, k, [])
    assert stack.tallies.degrees.shape == (0, 4) and stack.tallies.degrees.dtype == np.int64
    assert stack.connected.shape == (0,) and stack.connected.dtype == bool


def _draw_design(rng):
    """Merits and pair counts of one random design, and which cases of numpy's binomial it reaches."""
    n = int(rng.integers(3, 9))
    beta = rng.normal(0.0, 1.5, n) * (rng.random(n) < 0.8)  # equal merits give p = 1/2
    far = rng.random(n) < 0.15
    beta[far] = rng.choice([-800.0, 800.0], far.sum())  # p is exactly 0 or 1
    beta[0] = 0.0
    shape = int(rng.integers(4))
    if shape == 0:
        k = int(rng.integers(0, 5))
    else:
        k = np.triu(rng.integers(0, [4, 40, 200][shape - 1], (n, n)) * (rng.random((n, n)) < 0.7), 1)
        k = k + k.T
    i, j = np.triu_indices(n, k=1)
    counts = np.broadcast_to(btm.comparison_counts(k, n), (n, n))[i, j].astype(np.int64)
    p = expit(beta[i] - beta[j])
    s = np.minimum(p, 1.0 - p)
    cases = {
        "scalar k" if shape == 0 else "matrix k": True,
        "a pair never compared": bool(np.any(counts == 0)),
        "p = 0": bool(np.any((p == 0.0) & (counts > 0))),
        "p = 1": bool(np.any((p == 1.0) & (counts > 0))),
        "p = 1/2": bool(np.any((p == 0.5) & (counts > 0))),
        "numpy's other sampler": bool(np.any(s * counts > 30.0)),
    }
    return beta, k, counts, p, cases


@pytest.mark.parametrize("seed", range(5))
def test_draws_are_the_bits_of_one_binomial_call_per_generator(seed):
    # each generator gives the wins of g.binomial(counts, p) and is left where that call
    # leaves it, drawn alone or in a stack
    rng = np.random.default_rng(900 + seed)
    reached = set()
    for _ in range(120):
        beta, k, counts, p, cases = _draw_design(rng)
        n = beta.size
        alone = rng.random() < 0.25
        seeds = rng.integers(0, 2**63, 1 if alone else int(rng.integers(1, 5)))
        ours, theirs = ([np.random.default_rng(x) for x in seeds] for _ in range(2))
        want = np.array([g.binomial(counts, p) for g in theirs])
        drawn = btm.simulate_comparisons(beta, k, ours[0] if alone else ours)
        i, j = np.triu_indices(n, k=1)
        tables = np.zeros((len(seeds), n, n), dtype=np.int64)
        tables[:, i, j], tables[:, j, i] = want, counts - want
        if alone:
            assert drawn.wins.dtype == np.int64 and np.array_equal(drawn.wins, tables[0])
        else:
            # a stack is its win totals, with the strong connectivity of its tables
            assert drawn.tallies.degrees.dtype == np.int64
            assert np.array_equal(drawn.tallies.degrees, tables.sum(axis=-1))
            assert drawn.connected.tolist() == btm.strongly_connected(tables).tolist()
        assert [g.random() for g in ours] == [g.random() for g in theirs]
        reached |= {case for case, hit in cases.items() if hit} | ({"one generator"} if alone else set())
    assert reached == {
        "scalar k", "matrix k", "a pair never compared", "p = 0", "p = 1", "p = 1/2", "numpy's other sampler",
        "one generator",
    }


PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def _generator_starting_at(u):
    """A numpy Generator whose next double is u, a multiple of 2**-53 in [0, 1).

    PCG64 steps its 128-bit state to state * multiplier + inc, then outputs
    the xor of its two words rotated right by its top six bits, so a
    stepped state below 2**64 outputs itself; a double is the top 53 bits
    of one output.
    """
    inc = 2 * 12345 + 1
    state = ((int(u * 2**53) << 11) - inc) * pow(PCG64_MULTIPLIER, -1, 2**128) % 2**128
    g = np.random.Generator(np.random.PCG64())
    g.bit_generator.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc}, "has_uint32": 0,
                             "uinteger": 0}
    return g


TOP = 1.0 - 2.0**-53  # the largest double a generator gives
# (count, p) of pairs whose inversion from the double TOP runs past its bound
PAST_THE_BOUND = [(10, 0.27479684383652975), (4, 0.1515974146458225), (4, 0.4903685999006193),
                  (11, 0.2706134277737171)]
# (count, p) of pairs whose inversion from TOP stops at X = count, just short of starting
# again, with numpy's start value exp(count log1p(-p)); from exp(count log(1 - p)) it would not
AT_THE_BOUND = [(6, 0.07207980635981687), (4, 0.20459956818458064), (10, 0.13115667022092475)]


@pytest.mark.parametrize(
    "count, first, again", [(*c, True) for c in PAST_THE_BOUND] + [(*c, False) for c in AT_THE_BOUND]
)
def test_draws_at_and_past_the_bound_are_numpy_s(count, first, again):
    counts = np.array([count, 3, 0, 5], dtype=np.int64)
    p = np.array([first, 0.6, 0.3, 0.5])
    ours, theirs = ([np.random.default_rng(1), _generator_starting_at(TOP), np.random.default_rng(2)] for _ in range(2))
    got = btm._binomial_rows(counts, p)(ours)
    want = np.array([g.binomial(counts, p) for g in theirs])
    assert np.array_equal(got, want)
    assert (want[1, 0] == count) != again
    # three pairs read a double each, and a first pair that starts again one more
    plain = _generator_starting_at(TOP)
    assert plain.random() == TOP
    plain.random(2 + again)
    assert ours[1].bit_generator.state == theirs[1].bit_generator.state == plain.bit_generator.state
    assert [g.random() for g in ours] == [g.random() for g in theirs]


class _Doubles:
    """A stand-in generator that hands out the given doubles in order."""

    def __init__(self, values):
        self.values = list(values)

    def random(self, size=None):
        if size is None:
            return self.values.pop(0)
        out, self.values = np.array(self.values[:size]), self.values[size:]
        return out


def test_a_row_that_starts_again_reads_on_from_its_generator():
    # the first pair starts again twice and stops on 0.25; the other two then read 0.5
    # and 0.75, past the doubles the row took up front
    count, first = PAST_THE_BOUND[0]
    counts = np.array([count, 3, 5], dtype=np.int64)
    p = np.array([first, 0.6, 0.5])
    stub = _Doubles([TOP, TOP, 0.25, 0.5, 0.75])
    got = btm._binomial_rows(counts, p)([stub])
    want = [_generator_starting_at(u).binomial(c, q) for u, c, q in zip([0.25, 0.5, 0.75], counts, p)]
    assert got.tolist() == [want] and stub.values == []


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(4, 8))
def test_fit_stationarity_property(seed, n):
    r = np.random.default_rng(seed)
    beta = np.concatenate([[0.0], r.uniform(-1.5, 1.5, n - 1)])
    table = btm.simulate_comparisons(beta, 2, r)
    fit = btm.bt_fit_mle(table)
    assert fit.exists == btm.strongly_connected(table)
    if fit.converged:
        assert fit.gradient_norm <= 1e-8
        assert fit.beta_hat[0] == 0.0


def _balanced_table(n, k, upper, losers):
    """The win matrix of n subjects, k comparisons a pair, the upper-triangle wins ``upper``,
    where the subjects marked ``losers`` lose every comparison with the others."""
    i, j = np.triu_indices(n, k=1)
    upper = np.where(losers[i] & ~losers[j], 0, np.where(~losers[i] & losers[j], k, upper))
    wins = np.zeros((n, n), dtype=np.int64)
    wins[i, j], wins[j, i] = upper, k - upper
    return wins


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_landau_rule_agrees_with_strong_connectivity(data):
    # on a balanced table the sorted win totals decide strong connectivity: tables with a
    # subject or a set of subjects that lost every game outside it are not connected
    n, k = data.draw(st.integers(3, 12)), data.draw(st.integers(1, 4))
    upper = np.array(data.draw(st.lists(st.integers(0, k), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2)))
    losers = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    wins = _balanced_table(n, k, upper, losers)
    assert bool(btm.landau_connected(wins.sum(axis=1), k)) == btm.strongly_connected(wins)


def test_landau_rule_decides_stacks_of_both_kinds():
    # random balanced tables, k 1-4 and n 3-12, half of them with a losing set; as a stack
    # the rule gives each table's answer, and both answers occur
    rng = np.random.default_rng(61)
    seen = set()
    for _ in range(200):
        n, k = int(rng.integers(3, 13)), int(rng.integers(1, 5))
        losers = (rng.random(n) < 0.3) & (rng.random() < 0.5)
        tables = np.array([_balanced_table(n, k, rng.integers(0, k + 1, n * (n - 1) // 2), losers) for _ in range(4)])
        got = btm.landau_connected(tables.sum(axis=-1), k)
        assert got.tolist() == btm.strongly_connected(tables).tolist()
        seen.update(got.tolist())
    assert seen == {False, True}


def _copies(seeds, first=None):
    """Generators of the given seeds, the first replaced by ``first()`` when given."""
    gens = [np.random.default_rng(x) for x in seeds]
    if first is not None:
        gens[0] = first()
    return gens


@pytest.mark.parametrize("seed", range(4))
def test_drawn_stacks_are_their_tables_across_blocks(seed, monkeypatch):
    # with generator and pair blocks patched small, a stack is the win totals and strong
    # connectivity of the tables g.binomial draws on copies of its generators, and each
    # generator ends where that call leaves it; unbalanced designs are decided by the
    # matrix rule, on which Landau's rule on the totals can be wrong
    monkeypatch.setattr(btm, "DRAW_BLOCK", 3)
    monkeypatch.setattr(core, "PAIR_BLOCK", 5)
    redone = []
    inversion_row = btm._inversion_row
    monkeypatch.setattr(btm, "_inversion_row", lambda *args: redone.append(1) or inversion_row(*args))
    rng = np.random.default_rng(800 + seed)
    reached = set()
    for _ in range(60):
        beta, k, counts, p, cases = _draw_design(rng)
        n = beta.size
        seeds = rng.integers(0, 2**63, int(rng.integers(1, 9)))
        # a first pair that starts again from the double TOP, so its row reads on past it
        restart = n > 3 and rng.random() < 0.3
        if restart:
            count, first = PAST_THE_BOUND[int(rng.integers(len(PAST_THE_BOUND)))]
            beta[1] = -np.log(first / (1.0 - first))
            k = btm.comparison_counts(k, n).copy() if np.ndim(k) else k * (1 - np.eye(n, dtype=np.int64))
            k[0, 1] = k[1, 0] = count
            i, j = np.triu_indices(n, k=1)
            counts, p = k[i, j], expit(beta[i] - beta[j])
        start = (lambda: _generator_starting_at(TOP)) if restart else None
        ours, theirs = _copies(seeds, start), _copies(seeds, start)
        drawn = btm.simulate_comparisons(beta, k, iter(ours))
        i, j = np.triu_indices(n, k=1)
        tables = np.zeros((len(seeds), n, n), dtype=np.int64)
        tables[:, i, j] = want = np.array([g.binomial(counts, p) for g in theirs])
        tables[:, j, i] = counts - want
        connected = btm.strongly_connected(tables)
        assert np.array_equal(drawn.tallies.degrees, tables.sum(axis=-1))
        assert drawn.connected.tolist() == connected.tolist()
        assert [g.bit_generator.state for g in ours] == [g.bit_generator.state for g in theirs]
        balanced = len(set(counts.tolist())) == 1
        landau = btm.landau_connected(tables.sum(axis=-1), counts[0]) if counts.size else connected
        reached |= {case for case, hit in cases.items() if hit}
        reached |= {"several generator blocks"} if len(seeds) > 3 else set()
        reached |= {"a row that starts again"} if redone else set()
        reached |= {"unbalanced, Landau wrong"} if not balanced and landau.tolist() != connected.tolist() else set()
    assert reached == {
        "scalar k", "matrix k", "a pair never compared", "p = 0", "p = 1", "p = 1/2", "numpy's other sampler",
        "several generator blocks", "a row that starts again", "unbalanced, Landau wrong",
    }
