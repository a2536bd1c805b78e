"""Two-level additive Schwarz preconditioners for the elasticity operator.

Level 1 solves local Dirichlet problems on the overlapping subdomains (which
coincide with the coarse-node neighborhoods).  One builder, ``build_level1``,
serves both level-1 kinds: it restricts either the full elasticity matrix or,
for the heat-block variants, one scalar diffusion matrix, whose factor then
solves the x- and y-displacement blocks as a two-column right-hand side.
Every local matrix is SPD and lives on a lexicographically numbered rectangle
of nodes, so it is factored by banded Cholesky (LAPACK ``pbtrf``/``pbtrs``,
``banded.BandSlots.cholesky``).  The elasticity dofs are ordered node by node,
x then y (``banded.node_major_order``), which keeps the half-bandwidth at
2 * (interior nodes per patch row) + 3.  The triangular solves dominate the
preconditioner's cost; on a narrow band they read one contiguous array, about
3x faster than the indexed solves of a general sparse LU of the same matrices.
Level 2 is the factorized spectral coarse space, built by
``coarse.build_coarse_basis`` from the selected local modes; both levels act
additively on the same residual.  All seven named variants share this
machinery and differ only in the level-1 kind, the eigenproblem kind and
solver, and the rotation enrichment.

The builders take the operator, the coarse partition (which carries the
mesh) and the modulus field; the clamped nodes are read off the operator
(``_clamped_nodes``).

A build has three parts: the level-1 factors (keyed by level-1 kind), the
per-neighborhood eigenselections (keyed by eigen kind and solver) and the
coarse part, basis plus factorized coarse operator (keyed by eigen kind,
solver and rotation enrichment).  ``build_preconditioner`` composes them and
records the seconds each took.  A caller that builds several variants of one
problem with the same options, as the contrast sweep does, passes one
``parts`` dict to every build so that a part shared by two variants is built
once; ``part_keys`` names the parts a variant needs.

The neighborhood eigenproblems are independent, and on the sweep meshes they
are most of the set-up time, so ``build_selections`` solves them in a
process pool: one worker per core the process may run on
(``os.sched_getaffinity``), forked on first use and kept for the life of
the process, so the workers keep their cached assembly patterns and band
slots from build to build.  A task is one neighborhood; the selections are
bitwise those of the serial loop, which a one-core host or a partition with
one neighborhood takes instead.
"""

import multiprocessing
import os
import threading
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import assembly, coarse, spectral
from .banded import BandSlots, node_major_order
from .grid import CoarsePartition, Patch


@dataclass(frozen=True)
class PreconditionerVariant:
    tag: str
    level1: str  # 'elasticity' | 'heat'
    eig_kind: str | None  # 'elasticity' | 'heat' | None (no coarse space)
    randomized: bool
    enrich: bool


VARIANTS = {
    v.tag: v
    for v in [
        PreconditionerVariant("EE", "elasticity", "elasticity", False, False),
        PreconditionerVariant("EE;Rand", "elasticity", "elasticity", True, False),
        PreconditionerVariant("HH", "heat", "heat", False, False),
        PreconditionerVariant("HH+Rot", "heat", "heat", False, True),
        PreconditionerVariant("EH", "elasticity", "heat", False, False),
        PreconditionerVariant("EH+Rot", "elasticity", "heat", False, True),
        PreconditionerVariant("EH+Rot;Rand", "elasticity", "heat", True, True),
    ]
}


def get_variant(tag):
    try:
        return VARIANTS[tag]
    except KeyError:
        raise ValueError(f"unknown preconditioner variant {tag!r}; "
                         f"choose from {sorted(VARIANTS)}") from None


@dataclass
class EigOptions:
    n_max: int = 6
    rule: str | None = None  # None -> 'fixed' for elasticity, 'gap' for heat
    n_snapshots: int | None = None  # None -> n_max + 5
    seed: int = 0


class TwoLevelPreconditioner:
    """Additive combination of factorized local solves and the coarse solve."""

    def __init__(self, level1_solvers, coarse_op, n_free, info):
        self._level1 = level1_solvers  # list of (free-index array, solver)
        self.coarse = coarse_op
        self.n_free = n_free
        self.info = info  # build metadata: timings, coarse dim, mode counts

    @property
    def coarse_dim(self):
        return 0 if self.coarse is None else self.coarse.dim

    def apply(self, r):
        if r.shape[0] != self.n_free:
            raise ValueError("residual dimension mismatch")
        z = np.zeros_like(r)
        for idx, solve in self._level1:
            z[idx] += solve(r[idx])
        if self.coarse is not None:
            z += self.coarse.apply_inverse(r)
        return z


class IdentityPreconditioner:
    """The 'None' variant: plain CG."""

    coarse_dim = 0

    def __init__(self):
        self.info = {}

    def apply(self, r):
        return r


def build_level1(kind, op, part, coeff):
    """The level-1 part: (free-index array, solver) per subdomain.

    A subdomain's unknowns sit on its interior nodes.  For ``kind``
    'elasticity' they are the vector dofs of ``op``, ordered node by node;
    for 'heat' the scalar dofs of the diffusion operator D with conductivity
    E, clamped on the nodes ``op`` clamps, whose solve acts on the x- and
    y-blocks as a two-column right-hand side.  Each restriction is factored
    by banded Cholesky, its band array filled by one indexed copy of the
    assembled values through ``BandSlots`` made once per pattern and
    partition.
    """
    if kind == "elasticity":
        A = op
    else:
        A = assembly.assemble_diffusion(part.mesh, coeff.values, _clamped_nodes(op))
    slots = _level1_slots(A.pattern, part.mesh, part.Nx, part.Ny, part.include_boundary)
    if len(slots) < part.n_neighborhoods:
        warnings.warn(f"{part.n_neighborhoods - len(slots)} subdomains with no free dofs skipped", stacklevel=2)
    solvers = []
    for band_slots in slots:
        idx, solve = band_slots.idx, band_slots.cholesky(A.pattern_data)
        if kind != "elasticity":
            solve = _both_components(solve, idx.size)
            idx = np.concatenate([idx, idx + A.n_free])
        solvers.append((idx, solve))
    return solvers


@lru_cache(maxsize=8)
def _level1_slots(pattern, mesh, Nx, Ny, include_boundary):
    """The ``BandSlots`` of every subdomain of the partition with free dofs,
    on the operator of ``pattern``: vector dofs ordered node by node, or
    scalar node dofs.  A subdomain without free dofs is left out."""
    index = np.full(pattern.n_full, -1, dtype=np.int64)
    index[pattern.free] = np.arange(pattern.free.size)
    slots = []
    for patch in CoarsePartition(mesh, Nx, Ny, include_boundary).neighborhoods:
        nodes = patch.interior_node_ids(mesh)
        if pattern.n_full == mesh.n_dofs:
            dofs = np.concatenate([nodes, nodes + mesh.n_nodes])
            nodes = dofs[node_major_order(dofs, mesh.n_nodes)]
        idx = index[nodes]
        idx = idx[idx >= 0]
        if idx.size:
            slots.append(BandSlots.of_submatrix(pattern.indptr, pattern.indices, idx))
    return slots


def _clamped_nodes(op):
    """The nodes ``op`` clamps, which must be clamped in x and y alike."""
    x_free, y_free = np.isin(np.arange(op.n_full), op.free_dofs).reshape(2, -1)
    if not np.array_equal(x_free, y_free):
        raise ValueError("the operator clamps a node in one displacement component only; clamp both or neither")
    return np.flatnonzero(~x_free)


def _both_components(solve_H, m):
    """The scalar solve ``solve_H`` applied to the x- and y-blocks of r at
    once: the (m, 2) view of r is Fortran-ordered."""
    return lambda r: solve_H(r.reshape(2, m).T).T.ravel()


def _selection_rule(variant, opts):
    return opts.rule or ("fixed" if variant.eig_kind == "elasticity" else "gap")


def build_selections(variant, op, part, coeff, opts):
    """The eigenselection part: one local eigenproblem per neighborhood,
    Dirichlet where it touches the nodes ``op`` clamps, solved densely or by
    the randomized solver, and its selected modes.

    The neighborhoods are independent, so with more than one of them and
    more than one core they are solved in the module's process pool
    (``_eig_map``); otherwise one after another in this process.  Each task
    carries the patch as a mesh of its own with its moduli and clamped
    nodes, and its seed ``[opts.seed, center]``, so the eigenpairs are
    bitwise those of the serial loop.  The mode selection runs here.
    """
    kind = "elasticity" if variant.eig_kind == "elasticity" else "diffusion"
    rule = _selection_rule(variant, opts)
    clamped = _clamped_nodes(op)
    n_snap = opts.n_max + 5 if opts.n_snapshots is None else opts.n_snapshots
    tasks = [
        (*spectral.restrict_to_patch(part.mesh, coeff, patch, clamped), kind, opts.n_max + 1,
         n_snap if variant.randomized else None, [opts.seed, center])
        for center, patch in enumerate(part.neighborhoods)
    ]
    parallel = len(tasks) > 1 and _n_workers() > 1
    solved = []
    try:
        for sel, caught in (_eig_map(tasks) if parallel else map(_solve_neighborhood, tasks)):
            for message in caught:
                warnings.warn(message)
            solved.append(sel)
    except ValueError as exc:
        raise ValueError(f"neighborhood {len(solved)}: {exc}") from None
    return [spectral.select_modes(sel, opts.n_max, rule=rule) for sel in solved]


def _solve_neighborhood(task):
    """One neighborhood's eigenpairs, and the warnings its solve raised:
    the first ``k`` pairs of its patch problem, from ``n_snapshots``
    randomized snapshots, or densely when that is None."""
    pmesh, moduli, clamped, kind, k, n_snapshots, seed = task
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        whole = Patch(0, pmesh.nx, 0, pmesh.ny)
        prob = spectral.build_local_eigproblem(pmesh, moduli, whole, kind, clamped)
        k = min(k, prob.dim)
        if n_snapshots is None:
            sel = spectral.solve_local_eig_dense(prob, k)
        else:
            sel = spectral.solve_local_eig_randomized(prob, k, n_snapshots=min(n_snapshots, prob.dim), seed=seed)
    return sel, [w.message for w in caught]


_pool = None  # the process pool of the neighborhood eigensolves, made on first use


def _n_workers():
    return len(os.sched_getaffinity(0))


def _exit_with_parent(parent):
    """Pool worker start-up: end this worker once ``parent`` has died.  A
    parent that exits normally shuts the pool down itself, but one killed
    outright runs no exit handler, and its idle workers would wait on their
    task queue for ever."""
    def watch():
        while os.getppid() == parent:
            time.sleep(1.0)
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


def _eig_map(tasks):
    """``_solve_neighborhood`` of each task, in order, in the pool.  The
    pool lives as long as the process, so its workers keep their assembly
    patterns and band slots from build to build; one that a dead worker
    broke is dropped, and the next build makes a new one."""
    global _pool
    if _pool is None:
        _pool = ProcessPoolExecutor(
            _n_workers(), mp_context=multiprocessing.get_context("fork"),
            initializer=_exit_with_parent, initargs=(os.getpid(),),
        )
    try:
        yield from _pool.map(_solve_neighborhood, tasks)
    except BrokenProcessPool:
        _pool = None
        raise


def part_keys(tag):
    """Memo keys of the (level-1, eigenselection, coarse) parts of a variant;
    empty for 'None'."""
    if tag == "None":
        return ()
    v = get_variant(tag)
    return (
        ("level1", v.level1),
        ("selections", v.eig_kind, v.randomized),
        ("coarse", v.eig_kind, v.randomized, v.enrich),
    )


@dataclass
class _Part:
    value: object
    seconds: float  # wall time of the build that made it


def _get_part(parts, key, build, reused):
    """The part stored under ``key`` in ``parts``, or ``build()`` timed and
    stored there.  Returns the part and the seconds this call spent on it."""
    if key in parts:
        reused.append(key[0])
        return parts[key], 0.0
    t0 = time.perf_counter()
    value = build()
    parts[key] = _Part(value, time.perf_counter() - t0)
    return parts[key], parts[key].seconds


def build_preconditioner(tag, op, part, coeff, opts=None, parts=None):
    """Build a Table-style two-level preconditioner by variant name.

    ``op`` is the assembled elasticity operator on free dofs, clamping each
    node in both components or in neither, ``part`` the coarse partition
    whose neighborhoods double as the overlapping subdomains.

    ``parts`` is an optional memo dict shared by builds of one problem with
    the same ``opts``: a part found there under its ``part_keys`` key is
    reused, and a part built here is stored in it.  ``info`` holds
    ``t_level1`` and ``t_coarse``, the seconds this call spent on level 1 and
    on the coarse level (0 for a reused part), ``t_eig``, the measured
    construction time of the eigenselections (carried by a reused one too),
    and ``reused``, the names of the parts taken from the memo.
    """
    if tag == "None":
        return IdentityPreconditioner()
    variant = get_variant(tag)
    if part.n_neighborhoods == 0:
        raise ValueError(
            f"the {part.Nx}x{part.Ny} coarse grid has no interior coarse node, "
            f"so variant {tag!r} has no subdomains; it needs at least 2 coarse elements per direction"
        )
    if op.n_full != part.mesh.n_dofs or coeff.values.size != part.mesh.n_elements:
        raise ValueError("the operator, the coefficient and the partition must live on one mesh")
    opts = opts or EigOptions()
    parts = {} if parts is None else parts
    key_level1, key_selections, key_coarse = part_keys(tag)
    reused = []

    level1, t_level1 = _get_part(
        parts, key_level1,
        lambda: build_level1(variant.level1, op, part, coeff), reused,
    )
    selections, t_selections = _get_part(
        parts, key_selections, lambda: build_selections(variant, op, part, coeff, opts), reused,
    )

    def build_coarse():
        basis = coarse.build_coarse_basis(op, part, selections.value, variant.enrich)
        return basis, coarse.assemble_coarse_operator(op, basis)

    coarse_part, t_coarse = _get_part(parts, key_coarse, build_coarse, reused)
    basis, coarse_op = coarse_part.value

    info = {
        "t_level1": t_level1,
        "t_coarse": t_selections + t_coarse,
        "t_eig": selections.seconds,
        "coarse_dim": basis.N_c,
        "mode_counts": [s.n_sel for s in selections.value],
        "selection_rule": _selection_rule(variant, opts),
        "reused": reused,
    }
    return TwoLevelPreconditioner(level1.value, coarse_op, op.n_free, info)


class BlockSplitPreconditioner:
    """Exact displacement-splitting preconditioner diag(K_xx, K_yy).

    One global factorization per displacement block, no domain decomposition;
    its PCG condition number is bounded by 2 / (1 - nu/(1-nu)).  Each block
    couples one component on the lexicographically numbered nodes, so it is
    banded with a half-bandwidth of about one node row and factored by
    banded Cholesky from the operator's pattern, as the level-1 blocks are.
    """

    coarse_dim = 0

    def __init__(self, op):
        self.info = {}
        self.m = int(np.searchsorted(op.free_dofs, op.n_full // 2))
        indptr, indices = op.pattern.indptr, op.pattern.indices
        self.solve_xx, self.solve_yy = (
            BandSlots.of_submatrix(indptr, indices, idx).cholesky(op.pattern_data)
            for idx in (np.arange(self.m), np.arange(self.m, op.n_free))
        )

    def apply(self, r):
        out = np.empty_like(r)
        out[: self.m] = self.solve_xx(r[: self.m])
        out[self.m :] = self.solve_yy(r[self.m :])
        return out


def block_split_condition_bound(nu):
    """2 / (1 - nu_tilde) with nu_tilde = nu / (1 - nu)."""
    if not (0 <= nu < 0.5):
        raise ValueError(f"Poisson ratio {nu} outside [0, 0.5)")
    return 2.0 / (1.0 - nu / (1.0 - nu))
