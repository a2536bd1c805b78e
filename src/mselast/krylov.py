"""Preconditioned conjugate gradients with Lanczos condition estimation.

The PCG alpha/beta coefficients define a symmetric tridiagonal matrix whose
extreme eigenvalues are Ritz estimates of the preconditioned operator's
spectrum; their ratio is the reported condition estimate.  A solve returns a
``SolveReport``: iteration count, residual history, the coefficients, the
condition estimate, the true residual at exit and the wall time.
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
    residuals: list = field(default_factory=list)  # ||r_k|| / ||b||; residuals[0] is the start's, 1 from zero
    alphas: list = field(default_factory=list)
    betas: list = field(default_factory=list)
    cond_estimate: float | None = None
    true_residual: float | None = None  # ||b - A x|| / ||b|| at exit
    seconds: float = 0.0  # wall time of the solve

    def write_residual_csv(self, path):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["iteration", "relative_residual"])
            for k, r in enumerate(self.residuals):
                w.writerow([k, repr(float(r))])


def estimate_condition(report):
    """Condition estimate from the accumulated PCG tridiagonal.

    After k steps the Lanczos tridiagonal has diagonal 1/alpha_j +
    beta_{j-1}/alpha_{j-1} and off-diagonal sqrt(beta_j)/alpha_j; the ratio
    of its extreme eigenvalues is returned, or None when no iterations were
    recorded.
    """
    k = len(report.alphas)
    if k == 0:
        return None
    alphas = np.asarray(report.alphas)
    betas = np.asarray(report.betas[: k - 1])
    d = 1.0 / alphas
    d[1:] += betas / alphas[:-1]
    w = sla.eigh_tridiagonal(d, np.sqrt(betas) / alphas[:-1], eigvals_only=True) if k > 1 else d
    return w[-1] / w[0]


def _as_apply(M):
    if M is None:
        return lambda r: r
    if callable(M):
        return M
    return M.apply


def _checked_rz(rz, k):
    """``rz`` = r.z for iteration ``k``; raises when it is not finite and positive."""
    if not (rz > 0.0 and np.isfinite(rz)):
        raise ValueError(f"PCG breakdown at iteration {k}: r.z = {rz:.3g}")
    return rz


def _start(matvec, b, x0, atol):
    """The start (x, b - A x) of a solve from the guess ``x0``: x0 itself if
    it meets ``atol`` already, else x0 scaled by alpha = (x0.b)/(x0.A x0),
    the multiple of x0 nearest the solution in the A-norm, so never farther
    from it than x0 or a zero start.  A zero start when x0 is None, alpha
    <= 0 or x0.A x0 = 0.  Costs no matvec beyond A x0."""
    if x0 is not None:
        x = np.array(x0, dtype=float)
        Ax = matvec(x)
        r = b - Ax
        if np.linalg.norm(r) <= atol:
            return x, r
        xAx = x @ Ax
        alpha = (x @ b) / xAx if xAx != 0.0 else 0.0
        if alpha > 0.0:
            return alpha * x, b - alpha * Ax
    return np.zeros_like(b), b.copy()


def pcg_solve(A, b, M=None, tol=1e-6, maxit=2000, x0=None):
    """Solve A x = b by PCG from ``x0`` (zero when None), scaled as
    ``_start`` says.

    Converges when the recurrence residual, which starts at b - A x0 and is
    updated as r -= alpha * A p, drops below tol * ||b|| in the 2-norm; a
    start that already meets it takes 0 iterations.  That residual drifts from
    b - A x in floating point, so the true relative residual is computed
    once at exit and reported as ``SolveReport.true_residual``.
    ``M`` is a preconditioner object with .apply(r), a callable, or None.
    Raises ValueError on breakdown: p.Ap <= 0 (A not positive definite),
    r.z <= 0 (M not positive definite), or a step coefficient or r.z that
    is not finite.
    Returns (x, SolveReport).
    """
    if not (0.0 < tol < 1.0):
        raise ValueError("tolerance must be in (0, 1)")
    matvec = (lambda v: A @ v) if (sp.issparse(A) or isinstance(A, np.ndarray)) else A
    apply_M = _as_apply(M)

    t0 = time.perf_counter()
    rep = SolveReport()
    b_norm = np.linalg.norm(b)
    if b_norm == 0.0:
        rep.residuals.append(1.0)
        rep.converged = True
        rep.true_residual = 0.0
        rep.seconds = time.perf_counter() - t0
        return np.zeros_like(b), rep
    x, r = _start(matvec, b, x0, tol * b_norm)
    rep.residuals.append(np.linalg.norm(r) / b_norm)

    rep.converged = rep.residuals[0] <= tol
    if not rep.converged:
        z = apply_M(r)
        p = z.copy()
        rz = _checked_rz(r @ z, 1)
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
            rz_new = _checked_rz(r @ z, rep.iterations + 1)
            beta = rz_new / rz
            if not np.isfinite(beta):
                raise ValueError(f"PCG breakdown at iteration {rep.iterations}: beta = {beta:.3g}")
            rep.betas.append(beta)
            p = z + beta * p
            rz = rz_new

    rep.cond_estimate = estimate_condition(rep)
    rep.true_residual = float(np.linalg.norm(b - matvec(x)) / b_norm)
    rep.seconds = time.perf_counter() - t0
    return x, rep
