"""Independent numerical oracles for the test suite.

Everything here is written from the model definitions directly, without
calling into the package's fitting or moment code, so agreement between the
two is evidence rather than tautology.  scipy.optimize is allowed in tests
only.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import minimize
from scipy.special import expit


def fd_gradient(fun, x, h=1e-6):
    """Central-difference gradient."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (fun(x + e) - fun(x - e)) / (2 * h)
    return g


def fd_hessian(fun, x, h=1e-4):
    """Central-difference Hessian, symmetrized."""
    x = np.asarray(x, dtype=float)
    m = x.size
    H = np.zeros((m, m))
    for i in range(m):
        for j in range(i, m):
            ei = np.zeros(m)
            ej = np.zeros(m)
            ei[i] = h
            ej[j] = h
            H[i, j] = (
                fun(x + ei + ej) - fun(x + ei - ej) - fun(x - ei + ej) + fun(x - ei - ej)
            ) / (4 * h * h)
            H[j, i] = H[i, j]
    return H


def adjacency(g) -> np.ndarray:
    """The dense symmetric 0/1 adjacency matrix of an UndirectedGraph."""
    a = np.zeros((g.n, g.n), dtype=np.int8)
    a[g.edges[:, 0], g.edges[:, 1]] = 1
    return a + a.T


def graph_loglik(beta, adj):
    """Edge-model log-likelihood written as an explicit pair loop."""
    n = len(beta)
    ll = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            s = beta[i] + beta[j]
            ll += adj[i, j] * s - np.logaddexp(0.0, s)
    return ll


def graph_grad(beta, adj):
    n = len(beta)
    g = np.zeros(n)
    for i in range(n):
        for j in range(n):
            if j != i:
                p = 1.0 / (1.0 + np.exp(-(beta[i] + beta[j])))
                g[i] += adj[i, j] - p
    return g


def comparison_loglik(beta, wins):
    """Paired-comparison log-likelihood as an explicit ordered-pair loop."""
    n = len(beta)
    ll = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            s = beta[i] - beta[j]
            ll += wins[i, j] * (-np.logaddexp(0.0, -s))
            ll += wins[j, i] * (-np.logaddexp(0.0, s))
    return ll


def comparison_grad(beta, wins):
    n = len(beta)
    g = np.zeros(n)
    k = wins + wins.T
    for i in range(n):
        for j in range(n):
            if j != i:
                p = 1.0 / (1.0 + np.exp(-(beta[i] - beta[j])))
                g[i] += wins[i, j] - k[i, j] * p
    return g


def _maximize(fun, grad, x0):
    res = minimize(
        lambda x: -fun(x),
        x0,
        jac=(lambda x: -grad(x)) if grad is not None else None,
        method="BFGS",
        options={"gtol": 1e-11, "maxiter": 5000},
    )
    # BFGS can stall on flat likelihoods; a restart from the incumbent fixes it
    res2 = minimize(
        lambda x: -fun(x),
        res.x,
        jac=(lambda x: -grad(x)) if grad is not None else None,
        method="BFGS",
        options={"gtol": 1e-11, "maxiter": 5000},
    )
    return res2.x


def maximize_graph(adj, embed, grad_project, m):
    """Maximize the edge-model likelihood over an m-dimensional embedding.

    embed maps the free vector to a full parameter vector; grad_project maps
    the full gradient back.
    """

    def fun(x):
        return graph_loglik(embed(x), adj)

    def grad(x):
        return grad_project(graph_grad(embed(x), adj))

    return _maximize(fun, grad, np.zeros(m))


def maximize_comparison(wins, embed, grad_project, m):
    def fun(x):
        return comparison_loglik(embed(x), wins)

    def grad(x):
        return grad_project(comparison_grad(embed(x), wins))

    return _maximize(fun, grad, np.zeros(m))


def _min_pair_kl(true_beta, weights, sign, embed, grad_project, m):
    """Minimize sum over pairs of w_ij KL(Bern(p_ij) || Bern(q_ij)) over the embedding.

    p_ij and q_ij are expit(b_i + sign * b_j) at the true and the embedded
    parameters.  The objective is convex in the pair logits; its gradient in
    b_i is the row sum of w_ij (q_ij - p_ij) for both models.
    """
    true_beta = np.asarray(true_beta, dtype=float)

    def logits(b):
        return b[:, None] + sign * b[None, :]

    eta0 = logits(true_beta)
    p = expit(eta0)
    w = np.array(np.broadcast_to(weights, eta0.shape), dtype=float)
    np.fill_diagonal(w, 0.0)

    def fun(x):
        eta = logits(embed(x))
        kl = w * (p * (eta0 - eta) - np.logaddexp(0.0, eta0) + np.logaddexp(0.0, eta))
        # every unordered pair appears twice in the full matrix
        return 0.5 * kl.sum(), grad_project((w * (expit(eta) - p)).sum(axis=1))

    x = np.zeros(m)
    for _ in range(2):
        res = minimize(fun, x, jac=True, method="BFGS", options={"gtol": 1e-11, "maxiter": 5000})
        x = res.x
    return float(res.fun)


def graph_noncentrality(true_beta, embed, grad_project, m):
    """Noncentrality of the edge-model LRT: 2 min over the null of KL(true || null).

    The null is the image of embed on R^m, as in maximize_graph.
    """
    return 2.0 * _min_pair_kl(true_beta, 1.0, 1.0, embed, grad_project, m)


def comparison_noncentrality(true_beta, k, embed, grad_project, m):
    """Noncentrality of the comparison-model LRT with pair totals k (scalar or matrix).

    A pair's binomial KL is k_ij times its single-comparison Bernoulli KL.
    """
    return 2.0 * _min_pair_kl(true_beta, k, -1.0, embed, grad_project, m)


def pair_expected_and_information(beta, trials, sign):
    """Per-node expected totals and information of a pair model, as explicit pair loops.

    Each of the trials[i, j] trials of nodes i and j succeeds for i with
    probability expit(b_i + sign * b_j).  Node i's expected total sums
    trials[i, j] times that probability over j != i; its information row
    holds sign * trials[i, j] v_ij off the diagonal and the sum of
    trials[i, j] v_ij on it, with v_ij the variance of one trial.
    """
    n = len(beta)
    expected = np.zeros(n)
    info = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if j != i:
                p = 1.0 / (1.0 + np.exp(-(beta[i] + sign * beta[j])))
                expected[i] += trials[i, j] * p
                info[i, j] = sign * trials[i, j] * p * (1.0 - p)
                info[i, i] += trials[i, j] * p * (1.0 - p)
    return expected, info


def graph_saturated(beta, tol):
    """Node-level saturation rule of the graph model: an edge logit b_i + b_j, i != j, of size -log(tol)."""
    s = np.sort(beta, axis=-1)
    return np.maximum(np.abs(s[..., 0] + s[..., 1]), np.abs(s[..., -1] + s[..., -2])) >= -np.log(tol)


def comparison_saturated(beta, trials, tol):
    """Node-level saturation rule of the comparison model: a compared pair with a merit gap of -log(tol)."""
    i, j = np.triu_indices(beta.shape[-1], k=1)
    gap = np.where(trials[..., i, j] > 0, np.abs(beta[..., i] - beta[..., j]), -np.inf)
    return gap.max(axis=-1) >= -np.log(tol)


# The per-model existence checks that once ran before a fit, one node or subject at a time.
# core.fit_by_classes now applies one rule to class totals in their place.


def graph_degree_at_bound(degrees, n):
    """Some node of ``degrees`` has degree 0 or n-1, so the free fit has no maximizer."""
    return any(d == 0 or d == n - 1 for d in degrees)


def graph_block_at_bound(degrees, r, n):
    """The first r nodes' degrees sum to 0 or r(n-1), so their tied level has no maximizer."""
    block = sum(degrees[:r])
    return block == 0 or block == r * (n - 1)


def comparison_subject_at_bound(wins, r):
    """Some subject r.. wins none or all of its comparisons."""
    played = wins + wins.T
    return any(wins[i].sum() in (0, played[i].sum()) for i in range(r, len(wins)))


def comparison_block_at_bound(wins, r):
    """Subjects 1..r-1 win none or all of their comparisons with the rest, having some."""
    block = range(1, r)
    rest = [j for j in range(len(wins)) if j not in block]
    won = sum(wins[i, j] for i in block for j in rest)
    lost = sum(wins[j, i] for i in block for j in rest)
    return won + lost > 0 and (won == 0 or lost == 0)


def class_maps_by_node(totals, lead, tied, balanced):
    """One member's node-to-class map and fixed values, built one node at a time.

    Mirrors the documented layout of core.class_maps: fixed classes in order
    of first appearance (equal values merged only when balanced), then one
    tied class, then the free nodes, ranked by total when balanced.
    """
    fixed, classes = [], []
    for v in lead:
        if not (balanced and v in fixed):
            fixed.append(v)
        classes.append(fixed.index(v) if balanced else len(fixed) - 1)
    classes += [len(fixed)] * tied
    start = len(fixed) + (tied > 0)
    free = list(totals[len(lead) + tied:])
    distinct = sorted(set(free))
    classes += [start + (distinct.index(x) if balanced else i) for i, x in enumerate(free)]
    return np.array(classes), np.array(fixed, dtype=float)
