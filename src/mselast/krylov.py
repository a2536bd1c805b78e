"""Preconditioned conjugate gradients with Lanczos condition estimation.

The PCG alpha/beta coefficients define a symmetric tridiagonal matrix whose
extreme eigenvalues are Ritz estimates of the preconditioned operator's
spectrum; their ratio is the reported condition estimate.
"""

import csv
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp


@dataclass
class SolveReport:
    iterations: int = 0
    converged: bool = False
    residuals: list = field(default_factory=list)  # relative, residuals[0] = 1
    alphas: list = field(default_factory=list)
    betas: list = field(default_factory=list)
    cond_estimate: float | None = None
    ritz_min: float | None = None
    ritz_max: float | None = None
    coarse_dim: int | None = None
    true_residual: float | None = None  # ||b - A x|| / ||b|| at exit
    timings: dict = field(default_factory=dict)

    def write_residual_csv(self, path):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["iteration", "relative_residual"])
            for k, r in enumerate(self.residuals):
                w.writerow([k, repr(r)])


def _lanczos_tridiagonal(alphas, betas, upto=None):
    """Tridiagonal (diag, offdiag) from k PCG steps."""
    k = len(alphas) if upto is None else min(upto, len(alphas))
    d = np.empty(k)
    e = np.empty(max(k - 1, 0))
    for j in range(k):
        d[j] = 1.0 / alphas[j]
        if j > 0:
            d[j] += betas[j - 1] / alphas[j - 1]
        if j < k - 1:
            e[j] = np.sqrt(betas[j]) / alphas[j]
    return d, e


def _ritz_extremes(alphas, betas, upto=None):
    d, e = _lanczos_tridiagonal(alphas, betas, upto)
    if d.size == 0:
        return None, None
    if d.size == 1:
        return d[0], d[0]
    w = sla.eigh_tridiagonal(d, e, eigvals_only=True)
    return w[0], w[-1]


def estimate_condition(report, upto=None):
    """Condition estimate from the accumulated PCG tridiagonal.

    Returns None when no iterations were recorded.
    """
    lo, hi = _ritz_extremes(report.alphas, report.betas, upto)
    if lo is None:
        return None
    return hi / lo


def _as_apply(M):
    if M is None:
        return lambda r: r
    if callable(M):
        return M
    return M.apply


def pcg_solve(A, b, M=None, tol=1e-6, maxit=2000, check_symmetry=False):
    """Solve A x = b by PCG from x0 = 0.

    Converges when the recurrence residual, updated as r -= alpha * A p,
    drops below tol * ||b|| in the 2-norm.  That residual drifts from
    b - A x in floating point, so the true relative residual is computed
    once at exit and reported as ``SolveReport.true_residual``.
    ``M`` is a preconditioner object with .apply(r), a callable, or None.
    Raises ValueError on breakdown: p.Ap <= 0 (A or M not positive definite)
    or a step coefficient that is not finite.
    Returns (x, SolveReport).
    """
    if not (0.0 < tol < 1.0):
        raise ValueError("tolerance must be in (0, 1)")
    matvec = (lambda v: A @ v) if (sp.issparse(A) or isinstance(A, np.ndarray)) else A
    apply_M = _as_apply(M)

    if check_symmetry and M is not None:
        rng = np.random.default_rng(0)
        v, w = rng.standard_normal(b.size), rng.standard_normal(b.size)
        s1, s2 = v @ apply_M(w), w @ apply_M(v)
        if abs(s1 - s2) > 1e-8 * max(abs(s1), abs(s2), 1e-300):
            raise ValueError(f"preconditioner not symmetric: {s1} vs {s2}")

    t0 = time.perf_counter()
    rep = SolveReport()
    x = np.zeros_like(b)
    r = b.copy()
    b_norm = np.linalg.norm(b)
    rep.residuals.append(1.0)
    if b_norm == 0.0:
        rep.converged = True
        rep.true_residual = 0.0
        rep.timings["solve"] = time.perf_counter() - t0
        return x, rep

    z = apply_M(r)
    p = z.copy()
    rz = r @ z
    for _ in range(maxit):
        Ap = matvec(p)
        pAp = p @ Ap
        if not pAp > 0.0:
            raise ValueError(f"PCG breakdown at iteration {rep.iterations + 1}: p.Ap = {pAp:.3g}")
        alpha = rz / pAp
        if not np.isfinite(alpha):
            raise ValueError(f"PCG breakdown at iteration {rep.iterations + 1}: alpha = {alpha:.3g}")
        x += alpha * p
        r -= alpha * Ap
        rep.iterations += 1
        rep.residuals.append(np.linalg.norm(r) / b_norm)
        rep.alphas.append(alpha)
        if rep.residuals[-1] <= tol:
            rep.converged = True
            break
        z = apply_M(r)
        rz_new = r @ z
        beta = rz_new / rz
        if not np.isfinite(beta):
            raise ValueError(f"PCG breakdown at iteration {rep.iterations}: beta = {beta:.3g}")
        rep.betas.append(beta)
        p = z + beta * p
        rz = rz_new

    rep.ritz_min, rep.ritz_max = _ritz_extremes(rep.alphas, rep.betas)
    rep.cond_estimate = estimate_condition(rep)
    rep.true_residual = float(np.linalg.norm(b - matvec(x)) / b_norm)
    rep.timings["solve"] = time.perf_counter() - t0
    return x, rep
