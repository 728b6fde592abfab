"""Likelihoods, scores and maximizers written apart from pairlrt.

The benchmark checks the package's outputs against these.  They use numpy
and scipy only; nothing here imports pairlrt.  Both log-likelihoods are
concave, so a point whose score vanishes on the free coordinates is the
maximum over them.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import minimize
from scipy.sparse.linalg import LinearOperator, cg
from scipy.special import expit

SCORE_TOL = 1e-6
POLISH_STEPS = 5


def loglik_tol(value: float) -> float:
    """Slack for comparing two evaluations of one log-likelihood.

    Both sum O(n^2) terms in float64, so rounding grows with the magnitude.
    """
    return 1e-6 + 1e-11 * abs(value)


# --- graph model: edge {i, j} with probability expit(b_i + b_j) -------------

def graph_loglik(beta: np.ndarray, degrees: np.ndarray) -> float:
    x = beta[:, None] + beta[None, :]
    np.fill_diagonal(x, -np.inf)
    return float(beta @ degrees - 0.5 * np.logaddexp(0.0, x).sum())


def graph_score(beta: np.ndarray, degrees: np.ndarray) -> np.ndarray:
    p = expit(beta[:, None] + beta[None, :])
    np.fill_diagonal(p, 0.0)
    return degrees - p.sum(axis=1)


def _graph_pair_variances(beta: np.ndarray) -> np.ndarray:
    x = beta[:, None] + beta[None, :]
    w = expit(x) * expit(-x)
    np.fill_diagonal(w, 0.0)
    return w


def graph_info_diag(beta: np.ndarray) -> np.ndarray:
    """Diagonal v_ii of the information: the variance of degree i."""
    return _graph_pair_variances(beta).sum(axis=1)


def graph_info_matvec(beta: np.ndarray):
    """u -> V u, with V the negative Hessian (the degree covariance)."""
    w = _graph_pair_variances(beta)
    rows = w.sum(axis=1)
    return lambda u: rows * u + w @ u


# --- comparison model: i beats j with probability expit(b_i - b_j) ---------

def bt_loglik(beta: np.ndarray, wins: np.ndarray) -> float:
    k = wins + wins.T
    return float(beta @ wins.sum(axis=1) - 0.5 * (k * np.logaddexp(beta[:, None], beta[None, :])).sum())


def bt_score(beta: np.ndarray, wins: np.ndarray) -> np.ndarray:
    k = wins + wins.T
    return wins.sum(axis=1) - (k * expit(beta[:, None] - beta[None, :])).sum(axis=1)


def bt_info(beta: np.ndarray, wins: np.ndarray) -> np.ndarray:
    """L, the weighted Laplacian of pair variances (the negative Hessian)."""
    d = beta[:, None] - beta[None, :]
    w = (wins + wins.T) * expit(d) * expit(-d)
    return np.diag(w.sum(axis=1)) - w


def bt_info_matvec(beta: np.ndarray, wins: np.ndarray):
    """u -> L u."""
    info = bt_info(beta, wins)
    return lambda u: info @ u


def bt_exists(wins: np.ndarray) -> bool:
    """The full maximizer exists exactly when the directed win graph is strongly connected."""
    from scipy.sparse.csgraph import connected_components

    ncomp, _ = connected_components(wins > 0, directed=True, connection="strong")
    return ncomp == 1


def bt_simulate(beta: np.ndarray, totals: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Win counts for every pair: one binomial per pair of the upper triangle, in row-major order."""
    iu, ju = np.triu_indices(beta.size, k=1)
    upper = rng.binomial(totals[iu, ju], expit(beta[iu] - beta[ju]))
    wins = np.zeros(totals.shape)
    wins[iu, ju] = upper
    wins[ju, iu] = totals[iu, ju] - upper
    return wins


# --- constrained maxima ------------------------------------------------------

class Embedding:
    """beta = base + x[owner]: coordinate i follows free value owner[i], or stays at base when owner[i] < 0."""

    def __init__(self, base: np.ndarray, owner: np.ndarray):
        self.base = np.asarray(base, dtype=float)
        self.owner = np.asarray(owner, dtype=int)
        self.free = self.owner >= 0
        self.dim = int(self.owner.max()) + 1

    def embed(self, x: np.ndarray) -> np.ndarray:
        beta = self.base.copy()
        beta[self.free] += x[self.owner[self.free]]
        return beta

    def project(self, full: np.ndarray) -> np.ndarray:
        return np.bincount(self.owner[self.free], weights=full[self.free], minlength=self.dim)

    def matrix(self) -> np.ndarray:
        """J with beta = base + J x."""
        J = np.zeros((self.owner.size, self.dim))
        J[np.flatnonzero(self.free), self.owner[self.free]] = 1.0
        return J


def graph_homogeneous(n: int, r: int) -> Embedding:
    """First r parameters tied to one free value, the rest free."""
    return Embedding(np.zeros(n), np.concatenate([np.zeros(r, dtype=int), np.arange(1, n - r + 1)]))


def bt_full(n: int) -> Embedding:
    """Reference subject at 0, the rest free."""
    return Embedding(np.zeros(n), np.arange(-1, n - 1))


def bt_specified(n: int, r: int, values) -> Embedding:
    """Reference subject at 0, subjects 1..r-1 pinned to values, the rest free."""
    base = np.zeros(n)
    base[1:r] = values
    return Embedding(base, np.concatenate([np.full(r, -1), np.arange(n - r)]))


def maximize(loglik, score, matvec, emb: Embedding) -> tuple[np.ndarray, float, float]:
    """Maximize over the reduced coordinates; returns (beta, loglik, max-abs reduced score).

    Newton-CG gets close; near the top the log-likelihood changes by less
    than its rounding, so plain Newton steps on the score (each solved by CG)
    finish the job without looking at function values.
    """

    def fun(x):
        beta = emb.embed(x)
        return -loglik(beta), -emb.project(score(beta))

    def reduced_info(x) -> LinearOperator:
        mv = matvec(emb.embed(x))
        return LinearOperator((emb.dim, emb.dim), matvec=lambda v: emb.project(mv(emb.embed(v) - emb.base)))

    res = minimize(fun, np.zeros(emb.dim), jac=True, method="Newton-CG",
                   hessp=lambda x, v: reduced_info(x).matvec(v), options={"maxiter": 200})
    x = res.x
    for _ in range(POLISH_STEPS):
        g = emb.project(score(emb.embed(x)))
        if np.abs(g).max() <= SCORE_TOL * 1e-3:
            break
        step, _ = cg(reduced_info(x), g, rtol=1e-12, maxiter=10 * emb.dim)
        x = x + step
    beta = emb.embed(x)
    return beta, loglik(beta), float(np.abs(emb.project(score(beta))).max())


def maximize_dense(loglik, score, info, emb: Embedding) -> tuple[np.ndarray, float, float]:
    """Damped Newton with a dense solve, from zero; for small problems such as bootstrap tables.

    Returns what ``maximize`` returns.  A step is halved while it lowers the
    log-likelihood by more than its rounding.
    """
    J = emb.matrix()
    x = np.zeros(emb.dim)
    beta = emb.embed(x)
    ll = loglik(beta)
    for _ in range(100):
        g = J.T @ score(beta)
        if np.abs(g).max() <= SCORE_TOL * 1e-3:
            break
        step = np.linalg.solve(J.T @ info(beta) @ J, g)
        for _ in range(30):
            new = emb.embed(x + step)
            new_ll = loglik(new)
            if new_ll >= ll - loglik_tol(ll):
                break
            step = step / 2.0
        x, beta, ll = x + step, new, new_ll
    return beta, ll, float(np.abs(J.T @ score(beta)).max())
