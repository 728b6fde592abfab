"""Diagonal approximants for degree-covariance inverses, with certified error bounds.

The degree covariance V of the graph model is diagonally balanced (each
diagonal entry equals its off-diagonal row sum) with off-diagonal entries in
[1/b_n, 1/c_n].  Its inverse is well approximated by the reciprocal-diagonal
matrix S, and the approximation error admits closed-form bounds.  A tied
leading block gets a smaller reduced matrix with the same structure and its
own bound.

Norm conventions: max_abs_error and linf_inverse are entrywise maxima of
absolute values (the largest single entry), not induced operator norms.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .beta_model import bn_cn, class_tallies, fisher_info
from .core import as_model_params


def inverse_error_bound(b_n: float, c_n: float, n: int) -> float:
    """Entrywise bound on |V^-1 - S| (and the trailing-block analogue)."""
    if n < 3:
        raise ValueError("bound needs n >= 3")
    return 2.0 * b_n**2 / (c_n * (n - 1.0) ** 2) * (n * b_n / (2.0 * (n - 2.0) * c_n) + 0.5)


def inverse_entry_window(b_n: float, c_n: float, n: int) -> tuple[float, float]:
    """Lower and upper limits for the largest entry of V^-1."""
    return c_n / (2.0 * (n - 1.0)), 3.0 * b_n / (2.0 * n - 1.0)


@dataclass(frozen=True)
class ApproxReport:
    """Outcome of one approximation check.

    satisfied records max_abs_error <= bound.  linf_inverse is the largest
    entry of the computed inverse and linf_bound its certified ceiling;
    condition is set when the matrix was too ill-conditioned to check.
    """

    max_abs_error: float
    bound: float
    satisfied: bool
    linf_inverse: float
    linf_bound: float
    condition: Optional[float] = None

    def to_dict(self) -> dict:
        out = asdict(self)
        if self.condition is None:
            del out["condition"]
        return out


def diag_approx(V: np.ndarray, r: int = 0) -> np.ndarray:
    """Reciprocal diagonal of the trailing block of V starting at index r; V may be its diagonal alone."""
    V = np.asarray(V, dtype=float)
    n = V.shape[0]
    if not 0 <= r < n:
        raise ValueError(f"block offset must satisfy 0 <= r < {n}")
    d = (V if V.ndim == 1 else np.diag(V))[r:]
    if np.any(d == 0):
        raise ValueError("zero diagonal entry")
    return 1.0 / d


def _safe_inverse(V: np.ndarray) -> tuple[Optional[np.ndarray], Optional[float]]:
    """Dense inverse with a reconstruction sanity check; (None, cond) on failure."""
    n = V.shape[0]
    try:
        inv = np.linalg.solve(V, np.eye(n))
    except np.linalg.LinAlgError:
        return None, float(np.linalg.cond(V))
    recon = float(np.abs(V @ inv - np.eye(n)).max())
    if not np.isfinite(recon) or recon > 1e-9:
        return None, float(np.linalg.cond(V))
    return inv, None


def _approx_report(b: np.ndarray, matrices: list) -> ApproxReport:
    """Worst error of the reciprocal-diagonal approximant over ``matrices``, against inverse_error_bound.

    linf_inverse is the largest entry of the first matrix's inverse.
    """
    n = b.size
    diag = bn_cn(b)
    bound = inverse_error_bound(diag.b_n, diag.c_n, n)
    _, hi = inverse_entry_window(diag.b_n, diag.c_n, n)
    invs = []
    for M in matrices:
        inv, cond = _safe_inverse(M)
        if inv is None:
            return ApproxReport(float("inf"), bound, False, float("inf"), hi, condition=cond)
        invs.append(inv)
    err = max(float(np.abs(inv - np.diag(diag_approx(M))).max()) for M, inv in zip(matrices, invs))
    return ApproxReport(err, bound, err <= bound, float(np.abs(invs[0]).max()), hi)


def check_inverse_bound(beta, r: int = 0) -> ApproxReport:
    """Compare the inverses of V and its trailing block against their
    reciprocal-diagonal approximants.

    The reported bound does not depend on r; the measured error is the worse
    of the full and trailing-block comparisons.
    """
    b = as_model_params(beta, "beta")
    if not 0 <= r < b.size:
        raise ValueError(f"block offset must satisfy 0 <= r < {b.size}")
    V = fisher_info(b)
    return _approx_report(b, [V, V[r:, r:]] if r > 0 else [V])


def build_homogeneous_info(beta, r: int) -> np.ndarray:
    """Reduced information matrix when the first r parameters are tied.

    It is the class-map information with the tied block as one class and
    each later node its own, (1 + n - r)-square: the first coordinate is the
    block summed, the rest are the free tail.
    """
    b = as_model_params(beta, "beta")
    n = b.size
    if not 1 <= r <= n:
        raise ValueError(f"r must be in [1, {n}]")
    if not np.all(np.abs(b[:r] - b[0]) <= 1e-12):
        raise ValueError("leading block is not tied")
    classes = np.concatenate([np.zeros(r, dtype=int), np.arange(1, n - r + 1)])
    return fisher_info(np.concatenate([b[:1], b[r:]]), class_tallies(np.zeros(n), classes))


def check_homogeneous_bound(beta, r: int) -> ApproxReport:
    """Error of the reciprocal-diagonal approximant for the tied-block reduction."""
    b = as_model_params(beta, "beta")
    M = build_homogeneous_info(b, r)
    # The trailing block of the reduced inverse shares its error behaviour
    # with the untied trailing-block comparison (the tie only adds a rank-one
    # correction of smaller order), so the untied envelope applies; a smaller
    # constant is not attainable, since the trailing diagonal error alone
    # reaches 2/((n-1)(n-2)) at the centred parameter point.
    return _approx_report(b, [M])
