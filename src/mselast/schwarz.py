"""Two-level additive Schwarz preconditioners for the elasticity operator.

Level 1 solves local Dirichlet problems on the overlapping subdomains (which
coincide with the coarse-node neighborhoods).  One builder, ``build_level1``,
serves both level-1 kinds: it restricts either the full elasticity matrix or,
for the heat-block variants, one scalar diffusion matrix, whose factor then
solves the x- and y-displacement blocks as a two-column right-hand side.
Every local matrix is SPD and lives on a lexicographically numbered rectangle
of nodes, so it is factored by banded Cholesky (LAPACK ``pbtrf``/``pbtrs``,
``banded.BandSlots.cholesky``, which returns a ``banded.CholeskyFactor``).
The elasticity dofs are ordered node by node, x then y
(``banded.node_major_order``), which keeps the half-bandwidth at
2 * (interior nodes per patch row) + 3.  The triangular solves dominate the
preconditioner's cost; on a narrow band they read one contiguous array, about
3x faster than the indexed solves of a general sparse LU of the same matrices.
Level 2 is the factorized spectral coarse space, built by
``coarse.build_coarse_basis`` from the selected local modes; both levels act
additively on the same residual.  The seven two-level variants share this
machinery and differ only in the level-1 kind, the eigenproblem kind and
solver, and the rotation enrichment.

``TwoLevelPreconditioner`` is the only preconditioner class: level-1
``(index, solve)`` pieces plus an optional coarse part.  Plain CG (the
eighth tag, 'None': one identity piece) and the block split diag(K_xx, K_yy)
(``block_split_preconditioner``: one piece per displacement block) are its
one-level instances.

Level-1 factors are shared by equal subdomains.  A subdomain matrix is the
operator restricted to the patch's interior nodes, and each of its entries
sums the terms of the patch's elements in element order; so two subdomains
of one patch shape, one moduli grid and one clamped mask on their interior
nodes have one band array, bit for bit.  ``build_level1`` keys the
subdomains so (``_level1_keys``), factors the band of the first subdomain
of each key and gives every subdomain of the key that factor: bitwise each
one's own.  On the benchmark layout at 100x100 / 10x10 that is 1 factor for
81 subdomains at contrast 1 and 29 at contrast 1e6.  ``pbtrs`` only reads a
factor, so the level-1 threads may solve with one factor at once.

The level-1 subdomain problems are independent, so their factors and solves
run on every core the process may run on: the pieces are split into
``_n_workers()`` contiguous groups of about equal cost, the calling thread
runs the first group and a persistent thread pool the others
(``_in_groups``).  Threads pay off because the banded Cholesky factor and
solve release the GIL for their LAPACK calls, which ``banded`` makes through
``ctypes``; only the Python bookkeeping between calls holds it.  The
pieces' solutions are summed in piece order, so every result is bitwise
that of one loop over the pieces, for any number of groups.  On one core no
thread is started.  The pool is kept for the life of the process and
guarded by process id: a forked child, such as an eigensolve worker, makes
its own rather than wait on threads that stayed in its parent.

The builders take the operator, the coarse partition (which carries the
mesh) and the modulus field; the clamped nodes are read off the operator
once per build, as a boolean node mask (``_clamped_nodes``), and a patch's
problem, for level 1 and for the eigenproblems alike, is read off that mask
and the moduli grid (``_patch_problem``).

A build has three parts: the level-1 factors (keyed by level-1 kind), the
per-neighborhood eigenselections (keyed by eigen kind and solver) and the
coarse part, basis plus factorized coarse operator (keyed by eigen kind,
solver and rotation enrichment).  ``build_preconditioner`` composes them and
records the seconds each took.  A caller that builds several variants of one
problem with the same options, as the contrast sweep does, passes one
``parts`` dict to every build so that a part shared by two variants is built
once; ``part_keys`` names the parts a variant needs.

The neighborhood eigenproblems are independent, and on the sweep meshes they
are most of the set-up time.  In a high-contrast medium many neighborhoods
see the same patch problem (same shape, moduli and clamped nodes) up to a
reflection or a transposition of the square lattice, so
``build_selections`` first groups the neighborhoods into symmetry classes
of their problem (``_eig_tasks``) and solves each class once, on its first
neighborhood; the other neighborhoods of the class get its eigenpairs
mirrored onto their own patch (``spectral.EigSelection.mirrored``).  The
class problems are solved in a
process pool: one worker per core the process may run on (``_n_workers``),
forked on first use and kept for the life of the process, so the workers
keep their cached assembly patterns and band slots from build to build.
The eigenpairs are bitwise those of the serial loop, which a one-core host,
a build with one class or a platform that cannot fork (Windows) takes
instead.
"""

import multiprocessing
import os
import threading
import time
import warnings
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import assembly, coarse, spectral
from .banded import BandSlots, SegmentSolves, node_major_order
from .grid import CoarsePartition


@dataclass(frozen=True)
class PreconditionerVariant:
    tag: str
    level1: str | None  # 'elasticity' | 'heat' | None (the identity: plain CG)
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
        PreconditionerVariant("None", None, None, False, False),
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

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"eigensolver seed must be >= 0, got {self.seed}")
        if self.n_max < 1:
            raise ValueError(f"mode cap must be >= 1, got {self.n_max}")
        if self.n_snapshots is not None and self.n_snapshots < self.n_max + 1:
            raise ValueError(f"need at least k = {self.n_max + 1} snapshots, got {self.n_snapshots}")


class TwoLevelPreconditioner:
    """Additive combination of level-1 solves and, unless ``coarse_op`` is
    None (one level), the coarse solve.

    A level-1 piece is a free-index array or slice ``idx`` and a ``solve``
    with ``solve(r[idx])`` its local solution.  ``apply`` gathers every
    piece's residual into one buffer, solves each piece on its segment in
    place (``banded.SegmentSolves``), the groups of pieces on the level-1
    threads (``_in_groups``), and sums the segments into z with one
    ``np.bincount`` in piece order: bitwise the sum of
    ``z[idx] += solve(r[idx])`` over the pieces from z = 0.  The coarse part
    is added last, in the calling thread.  The buffer is made per call, so
    ``apply`` is re-entrant.
    """

    def __init__(self, level1_solvers, coarse_op, n_free, info):
        self._level1 = level1_solvers  # list of (free-index array or slice, solver)
        self.coarse = coarse_op
        self.n_free = n_free
        self.info = info  # build metadata: timings, coarse dim, mode counts
        ids = np.arange(n_free)
        pieces = [ids[idx] for idx, _ in level1_solvers]
        self._idx = np.concatenate([np.zeros(0, dtype=np.intp), *pieces])
        self._solves = SegmentSolves([solve for _, solve in level1_solvers], [p.size for p in pieces])
        # the cost of a solve: its right-hand-side values times the band width
        self._costs = tuple(p.size * (getattr(solve, "kd", 0) + 1) for p, (_, solve) in zip(pieces, level1_solvers))

    @property
    def coarse_dim(self):
        return 0 if self.coarse is None else self.coarse.dim

    def apply(self, r):
        if r.shape[0] != self.n_free:
            raise ValueError("residual dimension mismatch")
        Y = np.asarray(r, dtype=np.float64)[self._idx]
        _in_groups(lambda lo, hi: self._solves(Y, lo, hi), self._costs)
        z = np.bincount(self._idx, weights=Y, minlength=self.n_free)
        if self.coarse is not None:
            z += self.coarse.apply_inverse(r)
        return z


def build_level1(kind, op, part, coeff):
    """The level-1 part: (free-index array, solver) per subdomain.

    A subdomain's unknowns sit on its interior nodes.  For ``kind``
    'elasticity' they are the vector dofs of ``op``, ordered node by node;
    for 'heat' the scalar dofs of the diffusion operator D with conductivity
    E, clamped on the nodes ``op`` clamps, whose solve acts on the x- and
    y-blocks as a two-column right-hand side.  ``op`` must be the operator
    assembled from ``coeff``.  Each restriction is factored by banded
    Cholesky, its band array filled by one indexed copy of the assembled
    values through ``BandSlots`` made once per pattern and partition.

    Subdomains of one key (``_level1_keys``: patch shape, moduli grid and
    clamped mask of the interior nodes) have bitwise equal band arrays, so
    each key's band is built and factored once, from its first subdomain,
    and that one ``banded.CholeskyFactor`` is the solver of every subdomain
    of the key: bitwise its own factor (``_cholesky_shared``, the keys'
    factors in groups on the level-1 threads).  The number of distinct
    solvers is the number of factors made.  A subdomain matrix that is not
    positive definite raises the ``ValueError`` of the first such subdomain
    in order.  A heat factor takes the x- and y-blocks, one after the
    other, as two right-hand sides.
    """
    clamped = _clamped_nodes(op)
    if kind == "elasticity":
        A = op
    else:
        A = assembly.assemble_diffusion(part.mesh, coeff.values, np.flatnonzero(clamped))
    slots = _level1_slots(A.pattern, part.mesh, part.Nx, part.Ny, part.include_boundary)
    if len(slots) < part.n_neighborhoods:
        warnings.warn(f"{part.n_neighborhoods - len(slots)} subdomains with no free dofs skipped", stacklevel=2)
    factors = _cholesky_shared(_level1_keys(part, coeff, clamped), slots, A.pattern_data)
    if kind == "elasticity":
        return [(s.idx, factor) for s, factor in zip(slots, factors)]
    return [(np.concatenate([s.idx, s.idx + A.n_free]), factor) for s, factor in zip(slots, factors)]


def _level1_keys(part, coeff, clamped):
    """The key of each subdomain with free dofs, in order, as ``_level1_slots``
    lists them: its patch shape, the moduli grid of its elements and the
    mask ``clamped`` on its interior nodes, the arrays as bytes.  A
    subdomain whose interior nodes are all clamped has no free dofs."""
    E = coeff.values.reshape(part.mesh.ny, part.mesh.nx)
    keys = []
    for patch in part.neighborhoods:
        shape, moduli, mask = _patch_problem(E, clamped, patch, patch.interior_node_ids(part.mesh))
        if not mask.all():
            keys.append((shape, moduli.tobytes(), mask.tobytes()))
    return keys


def _patch_problem(E, clamped, patch, nodes):
    """The problem of ``patch`` as (shape, moduli, mask): its shape, the
    (y, x) grid of its elements' moduli, read off ``E``, the moduli on the
    mesh's (ny, nx) element grid, and the boolean node mask ``clamped`` at
    ``nodes``, the patch's closed or interior node ids."""
    return patch.shape, E[patch.ey0 : patch.ey1, patch.ex0 : patch.ex1], clamped[nodes]


def _cholesky_shared(keys, slots, data):
    """``[s.cholesky(data) for s in slots]`` where slots of one key have
    bitwise equal bands: the first slot of each key is factored, the keys
    in order of their first slot (``_cholesky_all``), and its factor is
    shared by every slot of the key.  A failing band fails first at the
    first slot of its key, so the ``ValueError`` raised is the plain
    loop's."""
    first = {}  # key -> its first slot
    for i, key in enumerate(keys):
        first.setdefault(key, i)
    shared = dict(zip(first, _cholesky_all([slots[i] for i in first.values()], data)))
    return [shared[key] for key in keys]


def _cholesky_all(slots, data):
    """``[s.cholesky(data) for s in slots]``, the slots in groups on the
    level-1 threads (``_in_groups``), each group in order, so a block that
    is not positive definite raises the ``ValueError`` of the first such
    block in order, as the plain loop does."""
    costs = tuple(s.idx.size * (s.kd + 1) ** 2 for s in slots)  # pbtrf's flops, up to a constant
    return [factor for group in _in_groups(lambda lo, hi: [s.cholesky(data) for s in slots[lo:hi]], costs)
            for factor in group]


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
    """The nodes ``op`` clamps, as a boolean mask over the mesh's nodes;
    ``op`` must clamp a node in x and y alike."""
    free = np.zeros(op.n_full, dtype=bool)
    free[op.free_dofs] = True
    x_free, y_free = free.reshape(2, -1)
    if not np.array_equal(x_free, y_free):
        raise ValueError("the operator clamps a node in one displacement component only; clamp both or neither")
    return ~x_free


def _selection_rule(variant, opts):
    return opts.rule or ("fixed" if variant.eig_kind == "elasticity" else "gap")


def build_selections(variant, op, part, coeff, opts):
    """The eigenselection part: one local eigenproblem per neighborhood,
    Dirichlet where it touches the nodes ``op`` clamps, solved densely or by
    the randomized solver, and its selected modes.

    Neighborhoods whose patch problems are one up to a lattice symmetry
    form one class (``_eig_tasks``), solved once on its first neighborhood
    c0 with the seed ``[opts.seed, c0]``; every other neighborhood of the
    class gets c0's eigenpairs mirrored onto its patch.  So c0's selection
    is bitwise that of one solve per neighborhood, and a randomized class
    shares c0's draw.  With more than one class and more than one core the
    classes are solved in the module's process pool (``_eig_map``);
    otherwise, or where processes cannot be forked (Windows), one after
    another in this process.  A class's warnings are raised once per
    neighborhood in it, and a ``ValueError`` names its first neighborhood.
    The mode selection runs here, per neighborhood.
    """
    rule = _selection_rule(variant, opts)
    groups = _eig_tasks(variant, op, part, coeff, opts)
    tasks = [task for task, _ in groups]
    parallel = len(tasks) > 1 and _n_workers() > 1 and "fork" in multiprocessing.get_all_start_methods()
    solved = []
    try:
        for sel, caught in (_eig_map(tasks) if parallel else map(_solve_neighborhood, tasks)):
            for _ in groups[len(solved)][1]:
                for message in caught:
                    warnings.warn(message)
            solved.append(sel)
    except ValueError as exc:
        raise ValueError(f"neighborhood {groups[len(solved)][1][0][0]}: {exc}") from None
    by_center = {}
    for sel, (_, members) in zip(solved, groups):
        shape, by_sym = part.neighborhoods[members[0][0]].shape, {}
        for center, sym in members:  # one selection per distinct problem of the class
            if sym not in by_sym:
                by_sym[sym] = sel.mirrored(shape, sym)
            by_center[center] = by_sym[sym]
    return [spectral.select_modes(by_center[c], opts.n_max, rule=rule) for c in range(part.n_neighborhoods)]


def _eig_tasks(variant, op, part, coeff, opts):
    """The neighborhood eigenproblems of a build up to lattice symmetry, in
    order of their first neighborhood: a list of (task, members), each
    member a (center, sym) pair, the neighborhood and the lattice symmetry
    (``spectral.lattice_image``) that maps the task's patch problem onto
    its own.  The first member is the task's own neighborhood, with the
    identity.

    A task carries the patch of its first neighborhood c0 as a mesh of its
    own with its moduli and patch-local clamped nodes
    (``spectral.restrict_to_patch``), the kind, k = n_max + 1, the snapshot
    count (None for the dense solver) and the seed ``[opts.seed, c0]``.
    Kind, k, snapshot count and Poisson ratio are those of the whole build,
    so a neighborhood joins a class when one of the 8 images of its patch
    problem (``_patch_problem`` on the closed patch) is c0's: the patch
    shape, the moduli grid and the clamped-node mask, bit for bit.  The
    class key is the smallest of the 8 images, and the identity is tried
    first, so a neighborhood whose problem is c0's bit for bit shares c0's
    selection.
    """
    kind = "elasticity" if variant.eig_kind == "elasticity" else "diffusion"
    n_snap = None
    if variant.randomized:
        n_snap = opts.n_max + 5 if opts.n_snapshots is None else opts.n_snapshots
    clamped = _clamped_nodes(op)
    E = coeff.values.reshape(part.mesh.ny, part.mesh.nx)
    classes = {}
    for center, patch in enumerate(part.neighborhoods):
        (nx, ny), moduli, mask = _patch_problem(E, clamped, patch, patch.node_ids(part.mesh))
        images = _images(moduli, mask.reshape(ny + 1, nx + 1))
        key = min(images)
        if key not in classes:
            task = (*spectral.restrict_to_patch(part.mesh, coeff, patch, clamped), kind, opts.n_max + 1, n_snap,
                    [opts.seed, center])
            classes[key] = (task, [], images)
        _, members, first_images = classes[key]
        members.append((center, spectral.SYMMETRIES[first_images.index(images[0])]))
    return [(task, members) for task, members, _ in classes.values()]


def _images(moduli, mask):
    """The patch problem of the (y, x) grids ``moduli`` of its elements and
    ``mask`` of its clamped nodes under each of ``spectral.SYMMETRIES``:
    its shape and the two grids as bytes."""
    images = []
    for sym in spectral.SYMMETRIES:
        image = spectral.lattice_image(moduli, sym)
        images.append((image.shape, image.tobytes(), spectral.lattice_image(mask, sym).tobytes()))
    return images


def _solve_neighborhood(task):
    """One neighborhood's eigenpairs, and the warnings its solve raised:
    the first ``k`` pairs of its patch problem, from ``n_snapshots``
    randomized snapshots, or densely when that is None."""
    pmesh, moduli, clamped, kind, k, n_snapshots, seed = task
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        prob = spectral.build_local_eigproblem(pmesh, moduli, clamped, kind)
        k = min(k, prob.dim)
        if n_snapshots is None:
            sel = spectral.solve_local_eig_dense(prob, k)
        else:
            sel = spectral.solve_local_eig_randomized(prob, k, n_snapshots=min(n_snapshots, prob.dim), seed=seed)
    return sel, [w.message for w in caught]


_pool = None  # the process pool of the neighborhood eigensolves, made on first use
_threads = None  # (pid, size, thread pool) of the level-1 groups, made on first use


def _n_workers():
    """The cores this process may run on: its CPU affinity, or every core
    where the platform has no affinity call (macOS, Windows)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@lru_cache(maxsize=64)
def _group_bounds(costs, k):
    """Bounds of at most ``k`` contiguous groups of items of about equal
    total cost: an item joins the group in which the midpoint of its cost
    falls on the cumulative scale, and an empty group is dropped."""
    if k <= 1:
        return (0, len(costs))
    cum = np.cumsum(costs, dtype=float)
    mid = cum - 0.5 * np.asarray(costs, dtype=float)
    inner = np.searchsorted(mid, cum[-1] * np.arange(1, k) / k)
    return tuple(np.unique(np.concatenate([[0], inner, [len(costs)]])).tolist())


def _level1_threads(n):
    """A pool of at least ``n`` threads, kept for the life of the process.
    A forked child makes its own: the threads of a pool made before the fork
    stayed in the parent.  A pool too small for ``n`` is replaced, not shut
    down, so a thread still submitting to it is not refused; its idle
    threads end once it is collected."""
    global _threads
    if _threads is None or _threads[0] != os.getpid() or _threads[1] < n:
        _threads = (os.getpid(), n, ThreadPoolExecutor(n, thread_name_prefix="mselast-level1"))
    return _threads[2]


def _in_groups(run, costs):
    """``[run(lo, hi) for each group]``: the items whose ``costs`` are given,
    split into at most ``_n_workers()`` contiguous groups of about equal
    total cost (``_group_bounds``).  The calling thread runs the first group
    and the level-1 threads the others.  Once every group has ended, the
    exception of the first group in order that raised is raised: that of
    the first failing item, for a ``run`` that stops at its first failure.
    With one group no thread is used."""
    bounds = _group_bounds(costs, min(_n_workers(), len(costs)))
    if len(bounds) <= 2:
        return [run(0, len(costs))]
    threads = _level1_threads(len(bounds) - 2)
    futures = [threads.submit(run, lo, hi) for lo, hi in zip(bounds[1:-1], bounds[2:])]
    try:
        head = run(bounds[0], bounds[1])
    finally:
        wait(futures)
    return [head] + [future.result() for future in futures]


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
    empty for one without them ('None')."""
    v = get_variant(tag)
    if v.level1 is None:
        return ()
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
    """Build a Table-style preconditioner by variant name: two-level, or for
    'None' the identity, which needs no subdomains.

    ``op`` is the assembled elasticity operator on free dofs, clamping each
    node in both components or in neither, ``part`` the coarse partition
    whose neighborhoods double as the overlapping subdomains.

    ``parts`` is an optional memo dict shared by builds of one problem with
    the same ``opts``: a part found there under its ``part_keys`` key is
    reused, and a part built here is stored in it.  ``info`` holds
    ``t_level1`` and ``t_coarse``, the seconds this call spent on level 1 and
    on the coarse level (0 for a reused part), ``t_eig``, the measured
    construction time of the eigenselections (carried by a reused one too),
    ``level1_factors``, the distinct level-1 factors (of a reused level 1
    too), and ``reused``, the names of the parts taken from the memo.
    """
    variant = get_variant(tag)
    if variant.level1 is None:  # plain CG: one piece, the identity on all free dofs
        return TwoLevelPreconditioner([(slice(None), lambda r: r)], None, op.n_free, {})
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
        "level1_factors": len({id(solve) for _, solve in level1.value}),
        "mode_counts": [s.n_sel for s in selections.value],
        "selection_rule": _selection_rule(variant, opts),
        "reused": reused,
    }
    return TwoLevelPreconditioner(level1.value, coarse_op, op.n_free, info)


def block_split_preconditioner(op):
    """Exact displacement-splitting preconditioner diag(K_xx, K_yy).

    One level-1 piece per displacement block, no domain decomposition and no
    coarse part; its PCG condition number is bounded by 2 / (1 - nu/(1-nu)).
    Each block couples one component on the lexicographically numbered
    nodes, so it is banded with a half-bandwidth of about one node row and
    factored by banded Cholesky from the operator's pattern, as the level-1
    blocks are.
    """
    m = int(np.searchsorted(op.free_dofs, op.n_full // 2))
    indptr, indices = op.pattern.indptr, op.pattern.indices
    pieces = [
        (slice(lo, hi), BandSlots.of_submatrix(indptr, indices, np.arange(lo, hi)).cholesky(op.pattern_data))
        for lo, hi in ((0, m), (m, op.n_free))
    ]
    return TwoLevelPreconditioner(pieces, None, op.n_free, {})


def block_split_condition_bound(nu):
    """2 / (1 - nu_tilde) with nu_tilde = nu / (1 - nu)."""
    if not (0 <= nu < 0.5):
        raise ValueError(f"Poisson ratio {nu} outside [0, 0.5)")
    return 2.0 / (1.0 - nu / (1.0 - nu))
