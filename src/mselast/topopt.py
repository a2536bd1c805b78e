"""Minimum-compliance SIMP loop with preconditioner reuse.

Each design step filters the density, maps it through SIMP, solves the state
problem (PCG with a two-level Schwarz preconditioner, or a direct solve for
oracle runs), evaluates the compliance sensitivity, chains it through the
filter transpose, and updates the design with the optimality-criteria rule.
Each PCG solve starts from the Galerkin projection onto the last
``START_HISTORY`` solutions (``krylov.pcg_solve`` with an (n, k) ``x0``):
the point of their span nearest the new solution in the A-norm, the standard
start for a sequence of slowly changing systems (Fischer, CMAME 1998).

The preconditioner is built in one place, from a memo of its parts (see
``schwarz.build_preconditioner``) kept across steps.  A full build clears the
memo: at the first step (``first``), every ``ReusePolicy.period`` steps
(``period``), or once more when PCG fails to converge with a preconditioner
whose coarse part comes from an earlier step (``retry``).  A solve that fails
right after a full build raises.  Between full builds only level 1 goes
stale in a way that costs iterations, and it is cheap to rebuild: when the
last solve took more than ``STALE_LEVEL1_FACTOR`` times the iterations per
decade of residual reduction, iterations / max(1, log10(r_0 / r_end)), of
the first solve after the last level-1 build that iterated at all (a
0-iteration solve gives no rate), level 1 alone is rebuilt
(``stale-level1``), reusing the eigenselections and the coarse part.
Iterations per decade, not raw iterations, because the tolerance varies
from step to step.

Each state solve is only as accurate as the design step needs, after the
forcing terms of inexact Newton methods (Eisenstat & Walker, SISC 1996; for
nested topology optimization, Amir, Stolpe & Sigmund, SMO 2010): step k
solves to tol_k = max(tol, min(TOL_LOOSEST, FORCING * max|rho_f,k -
rho_f,k-1|)), and the first and last steps solve to ``OptimizeConfig.tol``,
the tightest tolerance, so the final compliance is an accurate solve
(``step_tolerance``).  Both rules read only iteration counts, residuals and
design values, never seconds, so a run is reproducible bit for bit.  Each
log row records the tolerance (``tol``), what was built (``built``: 'all',
'level1' or 'none') and why (``reason``).

The material bounds ``E_MIN``/``E_MAX``, the uniform downward body force,
the OC damping ``OC_DAMPING`` and move limit (the ``oc_update`` default) are
fixed, not fields of ``OptimizeConfig``: no run varies them.
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
STALE_LEVEL1_FACTOR = 2  # growth of iterations per decade since the last level-1 build that triggers a refresh
FORCING = 0.05  # PCG tolerance per unit of max|rho_f,k - rho_f,k-1|
TOL_LOOSEST = 1e-3  # loosest PCG tolerance of a design step
START_HISTORY = 4  # earlier state solutions whose span holds each PCG start
OC_DAMPING = 0.5  # exponent of the optimality-criteria update


@dataclass
class ReusePolicy:
    """Rebuild everything every ``period`` design steps; between full builds
    level 1 alone is refreshed when it goes stale (``stale-level1``)."""

    period: int = 1

    def __post_init__(self):
        if self.period < 1:
            raise ValueError("reuse period must be >= 1")


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
        if not 0 < self.volfrac < 1:  # a full-solid design leaves the OC step nothing to move
            raise ValueError(f"volume fraction {self.volfrac} outside (0, 1)")
        if not 1 <= self.penal < np.inf:  # nan too
            raise ValueError(f"penalization exponent must be finite and >= 1, got {self.penal}")
        if not 0 <= self.filter_radius_factor < np.inf:
            raise ValueError(f"filter radius must be finite and nonnegative, got {self.filter_radius_factor} h")
        assembly.check_poisson_ratio(self.nu)
        krylov.check_stopping(self.tol, self.maxit)
        schwarz.selection_rule(schwarz.get_variant(self.variant), self.eig_options)
        if self.solver not in ("pcg", "direct"):
            raise ValueError(f"unknown state solver {self.solver!r}; choose 'pcg' or 'direct'")


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


def oc_update(rho, dg, volumes, v_star, move=0.2, filt=None):
    """Optimality-criteria step with Lagrange-multiplier bisection.

    ``dg`` is the compliance gradient wrt the design densities (<= 0).  The
    multiplier is bisected until the filtered-volume constraint is active,
    |v^T rho_f(rho_new) - v_star| <= 1e-8 v_star, and the design at that
    multiplier is returned.  What does not depend on the multiplier is
    formed once per call: the filtered volume v^T W rho is measured as w^T rho
    with w = W^T v, not by filtering every candidate, and the candidate
    rho (max(-dg, 0) / (lam v))^OC_DAMPING, clipped to the move limit and
    to [0, 1] in one clip, is lam^-OC_DAMPING times its value at lam = 1.  Both
    differ from the direct forms by rounding, so the bisection may stop one
    step apart.
    """
    rho = np.asarray(rho, dtype=float)
    dg = np.asarray(dg, dtype=float)
    w = filt.adjoint(volumes) if filt is not None else volumes  # v^T W rho = w^T rho

    step = rho * (np.maximum(-dg, 0.0) / volumes) ** OC_DAMPING  # the candidate at lam = 1, unclipped
    lower, upper = np.maximum(rho - move, 0.0), np.minimum(rho + move, 1.0)

    def candidate(lam):
        return np.clip(step * lam**-OC_DAMPING, lower, upper)

    lo, hi = 1e-9, 1e9
    for _ in range(64):
        if w @ candidate(lo) >= v_star >= w @ candidate(hi):
            break
        lo, hi = lo * 0.5, hi * 2.0
    else:
        raise RuntimeError("OC bisection failed to bracket the volume constraint")

    for _ in range(200):
        mid = np.sqrt(lo * hi)
        rho_new = candidate(mid)
        vol = w @ rho_new
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
    precond = report = None
    history = []  # the last START_HISTORY free-dof solutions, newest last
    precond_age = 0  # steps since the last full build
    level1_rate = None  # iterations per decade of the first iterating solve after the last level-1 build
    change = None  # max|rho_f,it - rho_f,it-1|, from the second step on
    coarse_build_time = 0.0
    rebuilds = level1_refreshes = 0
    log = []

    rho_f = filt.apply(rho)
    for it in range(config.n_iterations):
        E = assembly.simp_modulus(rho_f, config.penal, E_MIN, E_MAX)
        coeff = assembly.CoefficientField(E, config.nu)
        op = assembly.assemble_elasticity(mesh, coeff, dirichlet)
        b = op.restrict(f_full)

        if config.solver == "direct":
            u_free = spla.spsolve(op.matrix.tocsc(), b)
            report = krylov.SolveReport(iterations=0, converged=True)
            tol, built, reason = None, "none", ""
        else:
            tol = step_tolerance(config, it, change)
            built, reason = _build_due(config.reuse.period, precond, precond_age, report, level1_key, level1_rate)
            x0 = np.column_stack(history) if history else None
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
                    level1_rate = None
                u_free, report = krylov.pcg_solve(op.matrix, b, precond, tol=tol, maxit=config.maxit, x0=x0)
                if report.converged:
                    break
                if built == "all":
                    raise RuntimeError(
                        f"state solve failed at iteration {it} with a preconditioner built for it"
                    )
                # the coarse part comes from an earlier step: rebuild everything once and retry
                built, reason = "all", "retry"
            precond_age += 1
            if level1_rate is None and report.iterations > 0:  # a 0-iteration solve sets no rate
                level1_rate = iterations_per_decade(report)
            history = (history + [u_free])[-START_HISTORY:]

        u_full = op.expand(u_free)
        g0, sens_f = compliance_and_sensitivity(
            mesh, u_full, f_full, rho_f, config.penal, E_MIN, E_MAX, config.nu
        )
        dg = filt.adjoint(sens_f)
        rho = oc_update(rho, dg, volumes, v_star, filt=filt)
        rho_f_next = filt.apply(rho)
        change = float(np.abs(rho_f_next - rho_f).max())
        rho_f = rho_f_next
        row = {
            "iteration": it,
            "g0": g0,
            "volume": float(volumes @ rho_f),
            "inner_iterations": report.iterations,
            "tol": tol,
            "built": built,
            "reason": reason,
            "cond_estimate": report.cond_estimate,
        }
        log.append(row)
        if callback is not None:
            callback(it, rho, row)

    return OptimizationResult(rho, rho_f, log, coarse_build_time, rebuilds, level1_refreshes)


def step_tolerance(config, it, change):
    """PCG tolerance of design step ``it``, whose filtered density moved by
    ``change`` = max|rho_f,it - rho_f,it-1| since the step before:
    ``config.tol`` at the first and the last step, else ``FORCING * change``
    clamped to [config.tol, max(config.tol, TOL_LOOSEST)]."""
    if it == 0 or it == config.n_iterations - 1:
        return config.tol
    return max(config.tol, min(TOL_LOOSEST, FORCING * change))


def iterations_per_decade(report):
    """PCG iterations per decade of residual reduction of one solve; a solve
    that gains less than one decade counts as one."""
    return report.iterations / max(1.0, np.log10(report.residuals[0] / report.residuals[-1]))


def _build_due(period, precond, age, last, level1_key, level1_rate):
    """(built, reason) for the solve after the one reported by ``last``: a
    full build ('all') at the first step or ``period`` steps after the last
    one, else a level-1 refresh ('level1') when ``last`` took more iterations
    per decade than ``STALE_LEVEL1_FACTOR`` times ``level1_rate``, that of the
    first solve after the last level-1 build that iterated (None until one
    did)."""
    if precond is None:
        return "all", "first"
    if age >= period:
        return "all", "period"
    if level1_key is not None and level1_rate is not None and (
            iterations_per_decade(last) > STALE_LEVEL1_FACTOR * level1_rate):
        return "level1", "stale-level1"
    return "none", ""
