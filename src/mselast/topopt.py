"""Minimum-compliance SIMP loop with preconditioner reuse.

Each design step filters the density, maps it through SIMP, solves the state
problem (PCG with a two-level Schwarz preconditioner, or a direct solve for
oracle runs), evaluates the compliance sensitivity, chains it through the
filter transpose, and updates the design with the optimality-criteria rule.
Each PCG solve starts from the previous step's solution.

The preconditioner is built in one place, from a memo of its parts (see
``schwarz.build_preconditioner``) kept across steps.  A full build clears the
memo: at the first step, when the reuse policy says it is due (``period``,
``threshold``), or once more when PCG fails to converge with a preconditioner
whose coarse part comes from an earlier step (``retry``).  A solve that fails
right after a full build raises.  Between full builds only level 1 goes
stale in a way that costs iterations, and it is cheap to rebuild: when the
last solve took more than ``STALE_LEVEL1_FACTOR`` times the iterations of
the first solve after the last level-1 build, level 1 alone is rebuilt
(``stale-level1``), reusing the eigenselections and the coarse part.  The
rule counts iterations, not seconds, so a run is reproducible bit for bit.
Each log row records what was built (``built``: 'all', 'level1' or 'none')
and why (``reason``).

The material bounds ``E_MIN``/``E_MAX``, the uniform downward body force and
the OC move limit and damping (the ``oc_update`` defaults) are fixed, not
fields of ``OptimizeConfig``: no run varies them.
"""

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg as spla

from . import assembly, krylov, schwarz
from .grid import CoarsePartition, build_fine_mesh

E_MAX = 1.0  # SIMP modulus of solid material
E_MIN = 1e-6  # SIMP modulus of void
BODY_FORCE = (0.0, -1.0)  # (fx, fy) per unit area, the only load
STALE_LEVEL1_FACTOR = 2  # iteration growth since the last level-1 build that triggers a refresh


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
    nu: float = 0.3
    n_iterations: int = 100
    variant: str = "EH+Rot;Rand"
    eig_options: schwarz.EigOptions = field(default_factory=schwarz.EigOptions)
    reuse: ReusePolicy = field(default_factory=ReusePolicy)
    tol: float = 1e-6
    maxit: int = 2000
    solver: str = "pcg"  # 'pcg' | 'direct'

    def __post_init__(self):
        if self.n_iterations < 1:
            raise ValueError(f"need at least 1 design iteration, got {self.n_iterations}")
        if not 0 < self.volfrac <= 1:
            raise ValueError(f"volume fraction {self.volfrac} outside (0, 1]")


def compliance_and_sensitivity(mesh, u_full, f_full, rho_f, penal, E_min, E_max, nu):
    """Compliance f^T u and its gradient wrt the filtered densities.

    Per element: -p rho^(p-1) (E_max - E_min) u_e^T k0 u_e with k0 the
    unit-modulus element stiffness; all entries are nonpositive.
    """
    g0 = float(f_full @ u_full)
    k0 = assembly.unit_elasticity_element(float(nu))
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
    coarse_build_time: float  # seconds in preconditioner builds, level-1 refreshes included
    rebuilds: int  # full builds
    level1_refreshes: int  # builds of level 1 alone

    @property
    def compliance_history(self):
        return [row["g0"] for row in self.log]


def optimize(config, callback=None):
    """Run the SIMP loop; returns the final design and per-iteration log."""
    mesh = build_fine_mesh(config.nx, config.ny)
    part = CoarsePartition(mesh, config.Nx, config.Ny)
    filt = assembly.DensityFilter(mesh, config.filter_radius_factor * mesh.h)
    dirichlet = mesh.boundary_nodes()

    f_full = assembly.build_load_vector(mesh, assembly.LoadSpec(body_force=BODY_FORCE))

    volumes = np.full(mesh.n_elements, mesh.h * mesh.h)
    v_star = config.volfrac * volumes.sum()
    rho = np.full(mesh.n_elements, config.volfrac)

    level1_key = (schwarz.part_keys(config.variant) or [None])[0]  # None: no level 1
    parts = {}
    precond = u_free = None
    precond_age = 0  # steps since the last full build
    last_inner = 0
    level1_inner = None  # iterations of the first solve after the last level-1 build
    coarse_build_time = 0.0
    rebuilds = level1_refreshes = 0
    log = []

    for it in range(config.n_iterations):
        rho_f = filt.apply(rho)
        E = assembly.simp_modulus(rho_f, config.penal, E_MIN, E_MAX)
        coeff = assembly.CoefficientField(E, config.nu)
        op = assembly.assemble_elasticity(mesh, coeff, dirichlet)
        b = op.restrict(f_full)

        if config.solver == "direct":
            u_free = spla.spsolve(op.matrix.tocsc(), b)
            report = krylov.SolveReport(iterations=0, converged=True)
            built, reason = "none", ""
        else:
            built, reason = _build_due(config.reuse, precond, precond_age, last_inner, level1_key, level1_inner)
            x0 = u_free
            while True:
                if built != "none":
                    if built == "all":
                        parts.clear()
                        rebuilds += 1
                        precond_age = 0
                    else:
                        del parts[level1_key]
                        level1_refreshes += 1
                    t0 = time.perf_counter()
                    precond = schwarz.build_preconditioner(config.variant, op, part, coeff, config.eig_options, parts)
                    coarse_build_time += time.perf_counter() - t0
                    level1_inner = None
                u_free, report = krylov.pcg_solve(
                    op.matrix, b, precond, tol=config.tol, maxit=config.maxit, x0=x0
                )
                if report.converged:
                    break
                if built == "all":
                    raise RuntimeError(
                        f"state solve failed at iteration {it} with a preconditioner built for it"
                    )
                # the coarse part comes from an earlier step: rebuild everything once and retry
                built, reason = "all", "retry"
            precond_age += 1
            last_inner = report.iterations
            if level1_inner is None:
                level1_inner = report.iterations

        u_full = op.expand(u_free)
        g0, sens_f = compliance_and_sensitivity(
            mesh, u_full, f_full, rho_f, config.penal, E_MIN, E_MAX, config.nu
        )
        dg = filt.adjoint(sens_f)
        rho = oc_update(rho, dg, volumes, v_star, filt=filt)
        row = {
            "iteration": it,
            "g0": g0,
            "volume": float(volumes @ filt.apply(rho)),
            "inner_iterations": report.iterations,
            "built": built,
            "reason": reason,
            "cond_estimate": report.cond_estimate,
        }
        log.append(row)
        if callback is not None:
            callback(it, rho, row)

    rho_f = filt.apply(rho)
    return OptimizationResult(rho, rho_f, log, coarse_build_time, rebuilds, level1_refreshes)


def _build_due(reuse, precond, age, last_inner, level1_key, level1_inner):
    """(built, reason) for the next solve: a full build ('all') at the first
    step or when ``reuse`` says so, else a level-1 refresh ('level1') when
    the last solve outgrew the first one after the last level-1 build."""
    if precond is None:
        return "all", "first"
    if age >= reuse.period:
        return "all", "period"
    if reuse.max_inner_iterations is not None and last_inner > reuse.max_inner_iterations:
        return "all", "threshold"
    if level1_key is not None and last_inner > STALE_LEVEL1_FACTOR * level1_inner:
        return "level1", "stale-level1"
    return "none", ""
