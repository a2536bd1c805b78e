"""Minimum-compliance SIMP loop with preconditioner reuse.

Each design step filters the density, maps it through SIMP, solves the state
problem (PCG with a two-level Schwarz preconditioner, or a direct solve for
oracle runs), evaluates the compliance sensitivity, chains it through the
filter transpose, and updates the design with the optimality-criteria rule.
The preconditioner is rebuilt only when the reuse policy says so.
"""

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg as spla

from . import assembly, krylov, schwarz
from .grid import build_coarse_partition, build_fine_mesh


@dataclass
class ReusePolicy:
    """Rebuild after ``period`` design steps or when the previous solve's
    PCG iteration count exceeds ``max_inner_iterations``."""

    period: int = 1
    max_inner_iterations: int | None = None

    def __post_init__(self):
        if self.period < 1:
            raise ValueError("reuse period must be >= 1")
        if self.max_inner_iterations is not None and self.max_inner_iterations < 1:
            raise ValueError("inner-iteration threshold must be >= 1")


@dataclass
class OptimizeConfig:
    nx: int = 60
    ny: int = 60
    Nx: int = 3
    Ny: int = 3
    volfrac: float = 0.3
    penal: float = 3.0
    filter_radius_factor: float = 2.5  # radius = factor * h
    E_max: float = 1.0
    E_min: float | None = None  # default 1e-6 * E_max
    nu: float = 0.3
    n_iterations: int = 100
    variant: str = "EH+Rot;Rand"
    eig_options: schwarz.EigOptions = field(default_factory=schwarz.EigOptions)
    reuse: ReusePolicy = field(default_factory=ReusePolicy)
    tol: float = 1e-6
    maxit: int = 2000
    move_limit: float = 0.2
    damping: float = 0.5
    load: assembly.LoadSpec | None = None  # default: uniform body force
    solver: str = "pcg"  # 'pcg' | 'direct'


def compliance_and_sensitivity(mesh, u_full, f_full, rho_f, penal, E_min, E_max, nu):
    """Compliance f^T u and its gradient wrt the filtered densities.

    Per element: -p rho^(p-1) (E_max - E_min) u_e^T k0 u_e with k0 the
    unit-modulus element stiffness; all entries are nonpositive.
    """
    g0 = float(f_full @ u_full)
    k0 = assembly.element_stiffness_elasticity(1.0, nu, mesh.h)
    ue = u_full[mesh.element_dofs()]
    energy = np.einsum("ni,ij,nj->n", ue, k0, ue)
    sens = -penal * np.clip(rho_f, 0.0, 1.0) ** (penal - 1) * (E_max - E_min) * energy
    return g0, sens


def oc_update(rho, dg, volumes, v_star, move=0.2, damping=0.5, filt=None):
    """Optimality-criteria step with Lagrange-multiplier bisection.

    ``dg`` is the compliance gradient wrt the design densities (<= 0).  The
    multiplier is bisected until the filtered-volume constraint is active,
    |v^T rho_f(rho_new) - v_star| <= 1e-8 v_star, and the design at that
    multiplier is returned.
    """
    rho = np.asarray(rho, dtype=float)
    dg = np.asarray(dg, dtype=float)
    measure = (lambda r: volumes @ filt.apply(r)) if filt is not None else (lambda r: volumes @ r)

    def candidate(lam):
        B = np.maximum(-dg, 0.0) / (lam * volumes)
        rho_new = rho * B**damping
        rho_new = np.clip(rho_new, rho - move, rho + move)
        return np.clip(rho_new, 0.0, 1.0)

    lo, hi = 1e-9, 1e9
    for _ in range(64):
        if measure(candidate(lo)) >= v_star >= measure(candidate(hi)):
            break
        lo, hi = lo * 0.5, hi * 2.0
    else:
        raise RuntimeError("OC bisection failed to bracket the volume constraint")

    for _ in range(200):
        mid = np.sqrt(lo * hi)
        rho_new = candidate(mid)
        vol = measure(rho_new)
        if abs(vol - v_star) <= 1e-8 * v_star:
            break
        if vol > v_star:
            lo = mid
        else:
            hi = mid
    return rho_new


@dataclass
class OptimizationResult:
    rho: np.ndarray
    rho_f: np.ndarray
    log: list  # per-iteration dicts
    coarse_build_time: float
    rebuilds: int

    @property
    def compliance_history(self):
        return [row["g0"] for row in self.log]


def optimize(config, callback=None):
    """Run the SIMP loop; returns the final design and per-iteration log."""
    mesh = build_fine_mesh(config.nx, config.ny)
    part = build_coarse_partition(mesh, config.Nx, config.Ny)
    E_min = config.E_min if config.E_min is not None else 1e-6 * config.E_max
    filt = assembly.DensityFilter(mesh, config.filter_radius_factor * mesh.h)
    dirichlet = mesh.boundary_nodes()

    load = config.load or assembly.LoadSpec(body_force=(0.0, -1.0))
    f_full = assembly.build_load_vector(mesh, load)

    volumes = np.full(mesh.n_elements, mesh.h * mesh.h)
    v_star = config.volfrac * volumes.sum()
    rho = np.full(mesh.n_elements, config.volfrac)

    precond = None
    precond_age = 0
    last_inner = 0
    coarse_build_time = 0.0
    rebuilds = 0
    log = []

    for it in range(config.n_iterations):
        rho_f = filt.apply(rho)
        E = assembly.simp_modulus(rho_f, config.penal, E_min, config.E_max)
        coeff = assembly.CoefficientField(E, config.nu, E_min, config.E_max)
        op = assembly.assemble_elasticity(mesh, coeff, dirichlet)
        b = op.restrict(f_full)

        if config.solver == "direct":
            u_free = spla.spsolve(op.matrix.tocsc(), b)
            report = krylov.SolveReport(iterations=0, converged=True)
            rebuilt = False
        else:
            due = (
                precond is None
                or precond_age >= config.reuse.period
                or (
                    config.reuse.max_inner_iterations is not None
                    and last_inner > config.reuse.max_inner_iterations
                )
            )
            if due:
                t0 = time.perf_counter()
                precond = schwarz.build_preconditioner(
                    config.variant, op, mesh, part, coeff, dirichlet, config.eig_options
                )
                coarse_build_time += time.perf_counter() - t0
                precond_age = 0
                rebuilds += 1
            rebuilt = due
            u_free, report = krylov.pcg_solve(
                op.matrix, b, precond, tol=config.tol, maxit=config.maxit
            )
            if not report.converged:
                # stale preconditioner is the usual culprit: rebuild and retry once
                t0 = time.perf_counter()
                precond = schwarz.build_preconditioner(
                    config.variant, op, mesh, part, coeff, dirichlet, config.eig_options
                )
                coarse_build_time += time.perf_counter() - t0
                precond_age = 0
                rebuilds += 1
                rebuilt = True
                u_free, report = krylov.pcg_solve(
                    op.matrix, b, precond, tol=config.tol, maxit=config.maxit
                )
                if not report.converged:
                    raise RuntimeError(f"state solve failed at iteration {it}")
            precond_age += 1
            last_inner = report.iterations

        u_full = op.expand(u_free)
        g0, sens_f = compliance_and_sensitivity(
            mesh, u_full, f_full, rho_f, config.penal, E_min, config.E_max, config.nu
        )
        dg = filt.adjoint(sens_f)
        rho = oc_update(
            rho, dg, volumes, v_star, config.move_limit, config.damping, filt
        )
        row = {
            "iteration": it,
            "g0": g0,
            "volume": float(volumes @ filt.apply(rho)),
            "inner_iterations": report.iterations,
            "rebuilt": rebuilt,
            "cond_estimate": report.cond_estimate,
        }
        log.append(row)
        if callback is not None:
            callback(it, rho, row)

    rho_f = filt.apply(rho)
    return OptimizationResult(rho, rho_f, log, coarse_build_time, rebuilds)
