import numpy as np
import pytest

from pairlrt import beta_model as bm
from pairlrt import lrt
from pairlrt import moments_oracle as mo
from pairlrt.core import NullHypothesis


def test_centered_bernoulli_moments():
    for p in (0.1, 0.5, 0.73):
        q = 1 - p
        # direct two-point expectation
        for k in (1, 2, 3, 4, 6):
            direct = q * (0 - p) ** k + p * (1 - p) ** k
            assert mo.centered_bernoulli_moment(p, k) == pytest.approx(direct, abs=1e-15)
    assert mo.centered_bernoulli_moment(0.5, 2) == pytest.approx(0.25)
    assert mo.centered_bernoulli_moment(0.5, 3) == 0.0
    with pytest.raises(ValueError):
        mo.centered_bernoulli_moment(0.5, 0)


def test_quadratic_variance_frozen_values():
    rep = mo.quadratic_sum_variance(np.zeros(10), 10, np.ones(10))
    assert rep.mean_formula == pytest.approx(10 * 9 / 4, abs=1e-12)
    assert rep.var_formula == pytest.approx(90.0, abs=1e-12)
    beta = np.zeros(100)
    f = 1.0 / np.diag(bm.fisher_info(beta))[:50]
    rep2 = mo.quadratic_sum_variance(beta, 50, f)
    assert rep2.mean_formula == pytest.approx(50.0, abs=1e-12)
    assert rep2.var_formula == pytest.approx(98.98989899, abs=1e-7)


def test_quadratic_variance_against_enumeration(rng):
    for _ in range(4):
        n = int(rng.integers(4, 6))
        r = int(rng.integers(1, n + 1))
        beta = rng.uniform(-1, 1, n)
        f = rng.uniform(0.2, 2.0, r)
        exact = mo.enumerate_exact_moments(beta, mo.QUADRATIC_SUM, r=r, f=f)
        form = mo.quadratic_sum_variance(beta, r, f)
        assert form.mean_formula == pytest.approx(exact.mean_formula, rel=1e-12, abs=1e-12)
        assert form.var_formula == pytest.approx(exact.var_formula, rel=1e-12, abs=1e-12)


def test_cubic_variance_against_enumeration(rng):
    for _ in range(4):
        n = int(rng.integers(4, 6))
        r = int(rng.integers(1, n + 1))
        beta = rng.uniform(-1, 1, n)
        f = rng.uniform(-1.5, 1.5, r)
        exact = mo.enumerate_exact_moments(beta, mo.CUBIC_SUM, r=r, f=f)
        form = mo.cubic_sum_variance(beta, r, f)
        assert form.mean_formula == pytest.approx(exact.mean_formula, rel=1e-12, abs=1e-12)
        assert form.var_formula == pytest.approx(exact.var_formula, rel=1e-12, abs=1e-12)


def test_cubic_mean_is_zero_at_symmetric_point():
    rep = mo.cubic_sum_variance(np.zeros(8), 4, np.ones(4))
    assert rep.mean_formula == pytest.approx(0.0, abs=1e-14)


def test_mixed_bound_covers_enumerated_variance(rng):
    beta = rng.uniform(-1, 1, 4)
    F = rng.uniform(-1, 1, (4, 4))
    F = (F + F.T) / 2
    np.fill_diagonal(F, 0.0)
    exact = mo.enumerate_exact_moments(beta, mo.MIXED_SUM, f=F)
    bound = mo.mixed_sum_variance_bound(beta, F)
    # order bound with an unspecified constant: require the right scale only
    assert 0.0 <= exact.var_formula <= 16.0 * bound
    with pytest.raises(ValueError):
        mo.mixed_sum_variance_bound(beta, np.ones((4, 4)))  # nonzero diagonal


def test_enumeration_guards():
    with pytest.raises(ValueError, match="infeasible"):
        mo.enumerate_exact_moments(np.zeros(6), mo.QUADRATIC_SUM, r=2, f=np.ones(2))
    with pytest.raises(ValueError):
        mo.enumerate_exact_moments(np.zeros(4), "median", r=2, f=np.ones(2))
    with pytest.raises(ValueError):
        mo.quadratic_sum_variance(np.zeros(4), 3, np.ones(2))  # weight length mismatch
    with pytest.raises(ValueError):
        mo.quadratic_sum_variance(np.zeros(4), 5, np.ones(5))


def test_lrt_enumeration_distribution():
    beta = np.array([0.3, -0.2, 0.1, 0.0])
    null = NullHypothesis.homogeneous(2)
    dist = mo.enumerate_exact_moments(np.zeros(4), mo.LRT_STAT, null=null)
    assert np.all(dist.values >= 0)
    assert dist.nonexist_mass + dist.probs.sum() == pytest.approx(1.0, abs=1e-10)
    # corner degrees are a lower bound on the nonexistence mass
    probs, deg = mo._enumerate_graphs(np.zeros(4))
    corner = probs[np.any((deg == 0) | (deg == 3), axis=1)].sum()
    assert dist.nonexist_mass >= corner - 1e-12
    # at n = 4 a maximizer exists only for the 6 regular graphs, whose full fit
    # already ties every node, so the statistic is zero on all of them
    assert dist.values.size == 6
    mean, var = dist.conditional_moments()
    assert abs(mean) <= 1e-12 and var <= 1e-24
    dist2 = mo.enumerate_exact_moments(beta, mo.LRT_STAT, null=NullHypothesis.specified(1, [0.3]))
    assert np.all(dist2.values >= 0)
    assert dist2.nonexist_mass + dist2.probs.sum() == pytest.approx(1.0, abs=1e-10)
    mean2, var2 = dist2.conditional_moments()
    assert mean2 > 0 and var2 > 0


def test_lrt_enumeration_refuses_unconverged_fits(monkeypatch):
    # a graph whose maximizers exist but whose fits stop short of tol has no statistic to count
    fit_pair = lrt.fit_pair
    monkeypatch.setattr(lrt, "fit_pair", lambda data, null, tol: fit_pair(data, null, tol=1e-300))
    with pytest.raises(RuntimeError, match="non-converged"):
        mo.enumerate_exact_moments(np.array([0.3, -0.2, 0.1, 0.0, 0.4]), mo.LRT_STAT,
                                   null=NullHypothesis.homogeneous(3))


def test_lrt_enumeration_requires_null():
    with pytest.raises(ValueError):
        mo.enumerate_exact_moments(np.zeros(4), mo.LRT_STAT)


def test_simulated_moments_agree_with_formula(rng):
    beta = np.linspace(-0.4, 0.4, 12)
    f = np.ones(6)
    rep = mo.simulated_quadratic_moments(beta, 6, f, 4000, rng)
    assert rep.mean_empirical == pytest.approx(rep.mean_formula, rel=0.05)
    assert rep.var_empirical == pytest.approx(rep.var_formula, rel=0.15)
    assert rep.relative_gap is not None and rep.relative_gap < 0.15
    d = rep.to_dict()
    assert {"mean_formula", "var_formula", "mean_empirical", "var_empirical"} <= set(d)
