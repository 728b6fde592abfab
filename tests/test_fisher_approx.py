import numpy as np
import pytest

from pairlrt import beta_model as bm
from pairlrt import fisher_approx as fa

from oracles import fd_hessian


def exact_inverse_at_zero(n):
    # at beta=0, V = (J + (n-2) I) / 4, so V^{-1} = (4/(n-2)) (I - J/(2n-2))
    J = np.ones((n, n))
    return (4.0 / (n - 2)) * (np.eye(n) - J / (2 * n - 2))


def test_diag_approx_values():
    V = bm.fisher_info(np.zeros(3))
    assert fa.diag_approx(V).tolist() == [2.0, 2.0, 2.0]
    V100 = bm.fisher_info(np.zeros(100))
    assert np.allclose(fa.diag_approx(V100), 4 / 99)
    assert np.array_equal(fa.diag_approx(np.diag(V100)), fa.diag_approx(V100))
    with pytest.raises(ValueError):
        fa.diag_approx(np.zeros((3, 3)))


def test_error_bound_frozen_values():
    assert fa.inverse_error_bound(4.0, 4.0, 10) == pytest.approx(1 / 9, abs=1e-15)
    assert fa.inverse_error_bound(4.0, 4.0, 50) == pytest.approx(0.0034013605442177, abs=1e-14)
    lo, hi = fa.inverse_entry_window(4.0, 4.0, 10)
    assert hi == pytest.approx(12 / 19, abs=1e-15)
    assert lo == pytest.approx(4 / 18, abs=1e-15)
    _, hi50 = fa.inverse_entry_window(4.0, 4.0, 50)
    assert hi50 == pytest.approx(12 / 99, abs=1e-15)


def test_closed_form_inverse_at_zero():
    for n in (5, 10, 50):
        V = bm.fisher_info(np.zeros(n))
        assert np.abs(np.linalg.inv(V) - exact_inverse_at_zero(n)).max() <= 1e-10


def test_check_inverse_bound_at_zero():
    rep10 = fa.check_inverse_bound(np.zeros(10))
    assert rep10.satisfied
    assert rep10.bound == pytest.approx(1 / 9, abs=1e-15)
    # max |V^{-1} - S| at beta=0 is the off-diagonal 1/(9(n-1)) times 4/(n-2)... measured directly
    Winv = exact_inverse_at_zero(10) - np.diag(fa.diag_approx(bm.fisher_info(np.zeros(10))))
    assert rep10.max_abs_error == pytest.approx(np.abs(Winv).max(), abs=1e-12)
    rep50 = fa.check_inverse_bound(np.zeros(50))
    assert rep50.satisfied
    assert rep50.linf_inverse <= 12 / 99 + 1e-12
    assert rep50.condition is None


def test_bound_independent_of_block_offset():
    beta = np.linspace(-0.5, 0.5, 12)
    rep0 = fa.check_inverse_bound(beta, 0)
    rep1 = fa.check_inverse_bound(beta, 1)
    assert rep0.bound == rep1.bound
    assert rep0.linf_bound == rep1.linf_bound
    for r in (-1, 12):
        with pytest.raises(ValueError, match="block offset"):
            fa.check_inverse_bound(beta, r)


def test_window_and_bounds_on_grids():
    rng = np.random.default_rng(5)
    for n in (5, 10, 25, 50):
        for beta in (np.zeros(n), np.linspace(-1, 1, n), rng.uniform(-1, 1, n)):
            d = bm.bn_cn(beta)
            rep = fa.check_inverse_bound(beta)
            assert rep.satisfied, (n, rep.max_abs_error, rep.bound)
            lo, hi = fa.inverse_entry_window(d.b_n, d.c_n, n)
            assert lo <= rep.linf_inverse <= hi


def test_matrix_class_membership():
    beta = np.linspace(-1, 1, 8)
    V = bm.fisher_info(beta)
    d = bm.bn_cn(beta)
    # symmetric, off-diagonals in [1/b_n, 1/c_n], each diagonal its off-diagonal row sum
    assert np.allclose(V, V.T, rtol=1e-10, atol=0.0)
    off = V[~np.eye(8, dtype=bool)]
    assert 1 / d.b_n - 1e-10 <= off.min() and off.max() <= 1 / d.c_n + 1e-10
    assert np.allclose(np.diag(V), V.sum(axis=1) - np.diag(V), rtol=1e-10, atol=0.0)


def test_homogeneous_info_frozen_values():
    M = fa.build_homogeneous_info(np.zeros(4), 2)
    assert M[0, 0] == pytest.approx(2.0, abs=1e-14)
    M2 = fa.build_homogeneous_info(np.zeros(100), 50)
    assert M2[0, 0] == pytest.approx(1850.0, abs=1e-10)
    assert fa.diag_approx(M2)[0] == pytest.approx(1 / 1850.0)
    with pytest.raises(ValueError):
        fa.build_homogeneous_info(np.array([0.0, 0.1, 0.2, 0.3]), 2)


def test_homogeneous_info_is_reduced_hessian(rng):
    # the log-likelihood Hessian is data-free, so any graph works
    from pairlrt.core import UndirectedGraph

    n, r = 7, 3
    beta = np.concatenate([np.full(r, 0.4), rng.uniform(-1, 1, n - r)])
    M = fa.build_homogeneous_info(beta, r)
    g = UndirectedGraph.from_edges(n, [(0, 1), (2, 5), (4, 6)])

    def reduced_loglik(x):
        return bm.log_likelihood(np.concatenate([np.repeat(x[0], r), x[1:]]), g)

    x0 = np.concatenate([[0.4], beta[r:]])
    H = fd_hessian(reduced_loglik, x0)
    assert np.abs(M + H).max() <= 1e-4


def test_check_homogeneous_bound():
    beta = np.zeros(10)
    rep = fa.check_homogeneous_bound(beta, 3)
    assert rep.satisfied
    assert rep.bound == pytest.approx(fa.inverse_error_bound(4.0, 4.0, 10), abs=1e-15)
    # bound has no r dependence
    rep5 = fa.check_homogeneous_bound(beta, 5)
    assert rep.bound == rep5.bound
    # leading diagonal of the tied inverse is near 1/M[0, 0]
    M = fa.build_homogeneous_info(beta, 3)
    lead = np.linalg.inv(M)[0, 0]
    assert abs(lead - 1 / M[0, 0]) <= rep.bound
    assert lead < 1 / np.diag(M[1:, 1:]).min()


def test_reconstruction_guard():
    rep = fa.check_inverse_bound(np.linspace(-1, 1, 30))
    assert rep.condition is None  # solver sanity held
