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
``(index, factor)`` pieces, each solved by a ``banded.CholeskyFactor``, plus
an optional coarse part.  Plain CG (the eighth tag, 'None': one piece, the
factor of the identity, whose solve is bitwise the identity) and the block
split diag(K_xx, K_yy) (``block_split_preconditioner``: one piece per
displacement block) are its one-level instances.

In a multiscale coefficient most neighborhoods see a patch problem (patch
shape, moduli grid, clamped-node mask) that another one sees too, and both
levels share out the work by one grouping, ``_patch_classes``.  A subdomain
matrix is the operator restricted to the patch's interior nodes, each entry
summing its elements' terms in element order, so subdomains of one problem
on the interior nodes have one band array, bit for bit: ``build_level1``
factors one per class and shares it, bitwise each subdomain's own factor.
At 100x100 / 10x10 that is 1 factor for 81 subdomains at contrast 1 and 29
at contrast 1e6.  ``pbtrs`` only reads a factor, so the level-1 threads may
solve with one factor at once.

The level-1 factors and solves, the neighborhood eigensolves and the rows of
the coarse part's Galerkin product (``coarse``) are independent pieces of
work that run in groups of equal count on the level-1 threads
(``threads``), their results kept in piece order: every result is bitwise
that of one loop over the pieces, for any number of groups.

The builders take the operator, the coarse partition (which carries the
mesh and its patches' node sets) and the modulus field; the clamped nodes
are read off the operator once per build, as a boolean node mask
(``_clamped_nodes``).

A build has three parts: the level-1 factors (keyed by level-1 kind), the
per-neighborhood eigenselections (keyed by eigen kind and solver) and the
coarse part, the factorized ``coarse.CoarseOperator``, which holds its
basis (keyed by eigen kind, solver and rotation enrichment).
``build_preconditioner`` composes them and records the seconds each took.
A caller that builds several variants of one problem with the same options,
as the contrast sweep does, passes one ``parts`` dict to every build so that
a part shared by two variants is built once; ``part_keys`` names the parts a
variant needs.

The neighborhood eigenproblems are independent, and on the sweep meshes they
are most of the set-up time.  A patch problem mirrored by a reflection or a
transposition of the square lattice has the same eigenvalues, so
``build_selections`` groups the neighborhoods with the mask on the closed
patch under all 8 lattice symmetries (``_patch_classes``) and solves each
class once, in place, on its first neighborhood's problem built from the
grouping's own grids; every neighborhood of the class selects its modes
from those eigenpairs and gets them mirrored onto its own patch
(``spectral.EigSelection.mirrored``).  The classes run on the level-1
threads too: the dense solve and the randomized solve's banded LU release
the GIL for their LAPACK work (``banded``).
"""

import time
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import assembly, coarse, spectral, threads
from .banded import BandSlots, CholeskyFactor, SegmentSolves, node_major_order
from .grid import FineMesh


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
    rule: str | None = None  # None -> 'fixed' for elasticity, 'gap' for heat (``selection_rule``)
    seed: int = 0

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"eigensolver seed must be >= 0, got {self.seed}")
        if self.n_max < 1:
            raise ValueError(f"mode cap must be >= 1, got {self.n_max}")
        if self.rule not in (None, "fixed", "gap"):
            raise ValueError(f"unknown selection rule {self.rule!r}, expected 'fixed' or 'gap'")


class TwoLevelPreconditioner:
    """Additive combination of level-1 solves and, unless ``coarse_op`` is
    None (one level), the coarse solve.

    A level-1 piece is a free-index array or slice ``idx`` and a
    ``banded.CholeskyFactor`` ``solve`` with ``solve(r[idx])`` its local
    solution.  ``apply`` gathers every
    piece's residual into one buffer, solves each piece on its segment in
    place (``banded.SegmentSolves``), the groups of pieces on the level-1
    threads (``threads._in_groups``), and sums the segments into z with one
    ``np.bincount`` in piece order: bitwise the sum of
    ``z[idx] += solve(r[idx])`` over the pieces from z = 0.  The coarse part
    is added last, in the calling thread.  The buffer is made per call, so
    ``apply`` is re-entrant.
    """

    def __init__(self, level1_solvers, coarse_op, n_free, info):
        self._level1 = level1_solvers  # list of (free-index array or slice, solver)
        self.coarse = coarse_op
        self.n_free = n_free
        self.info = info  # build metadata: timings, level-1 factors, mode counts
        ids = np.arange(n_free)
        pieces = [ids[idx] for idx, _ in level1_solvers]
        self._idx = np.concatenate([np.zeros(0, dtype=np.intp), *pieces])
        self._solves = SegmentSolves([solve for _, solve in level1_solvers], [p.size for p in pieces])

    @property
    def coarse_dim(self):
        return 0 if self.coarse is None else self.coarse.dim

    def apply(self, r):
        if r.shape[0] != self.n_free:
            raise ValueError("residual dimension mismatch")
        Y = np.asarray(r, dtype=np.float64)[self._idx]
        threads._in_groups(lambda lo, hi: self._solves(Y, lo, hi), len(self._level1))
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

    The subdomains of one class of ``_patch_classes`` on the interior nodes
    have bitwise equal band arrays, so each class's first subdomain is
    factored (``_each_in_groups``) and that ``banded.CholeskyFactor`` is the
    solver of every subdomain of the class: bitwise its own factor.  The
    number of distinct solvers is the number of factors made.  A subdomain
    matrix that is not positive definite raises the ``ValueError`` of the
    first such subdomain in order, which names its neighborhood.  A heat
    factor takes the x- and y-blocks, one after the other, as two
    right-hand sides.
    """
    clamped = _clamped_nodes(op)
    if kind == "elasticity":
        A = op
    else:
        A = assembly.assemble_diffusion(part.mesh, coeff.values, np.flatnonzero(clamped))
    slots = _level1_slots(A.pattern, part)
    if len(slots) < part.n_neighborhoods:
        warnings.warn(f"{part.n_neighborhoods - len(slots)} subdomains with no free dofs skipped", stacklevel=2)
    # a class's subdomains share its interior clamped mask, so all or none of them have free dofs
    classes = [members for _, members in _patch_classes(part, coeff, clamped, False, spectral.SYMMETRIES[:1])
               if members[0][0] in slots]
    firsts = [members[0][0] for members in classes]
    factors = _each_in_groups(lambda c: slots[c].cholesky(A.pattern_data), firsts, "level-1 subdomain")
    solver = {center: factor for members, factor in zip(classes, factors) for center, _ in members}
    if kind == "elasticity":
        return [(s.idx, solver[c]) for c, s in slots.items()]
    return [(np.concatenate([s.idx, s.idx + A.n_free]), solver[c]) for c, s in slots.items()]


def _patch_classes(part, coeff, clamped, closed, symmetries):
    """The neighborhoods grouped by patch problem, in order of their first
    member: a list of (problem, members).

    A neighborhood's problem is its patch shape (nx, ny) and the (y, x)
    grids of its elements' moduli and of the boolean node mask ``clamped``
    on its closed nodes, if ``closed``, or its interior nodes.  Two
    neighborhoods are one class when one's problem is the other's under one
    of ``symmetries`` (``spectral.lattice_image``), bit for bit.
    ``problem`` is the first member's; a member is a (center, sym) pair, sym
    the symmetry, the identity tried first, that maps ``problem`` onto its
    own.
    """
    E = coeff.values.reshape(part.mesh.ny, part.mesh.nx)
    classes = {}
    for center, patch in enumerate(part.neighborhoods):
        nx, ny = patch.shape
        moduli = E[patch.ey0 : patch.ey1, patch.ex0 : patch.ex1]
        nodes, grow = (part.node_ids[center], 1) if closed else (part.interior_node_ids[center], -1)
        mask = clamped[nodes].reshape(ny + grow, nx + grow)
        images = []
        for sym in symmetries:
            image = spectral.lattice_image(moduli, sym)
            images.append((image.shape, image.tobytes(), spectral.lattice_image(mask, sym).tobytes()))
        key = min(images)
        if key not in classes:
            classes[key] = ((patch.shape, moduli, mask), [], images)
        _, members, first_images = classes[key]
        members.append((center, symmetries[first_images.index(images[0])]))
    return [(problem, members) for problem, members, _ in classes.values()]


def _each_in_groups(fn, items, label):
    """``[fn(item) for item in items]``, in groups on the level-1 threads
    (``threads._in_groups``), each group in order, so a failing item raises
    the ``ValueError`` of the first such item in order, as the plain loop
    does, its message prefixed with ``{label} {item}: ``."""
    def run(lo, hi):
        values = []
        for item in items[lo:hi]:
            try:
                values.append(fn(item))
            except ValueError as exc:
                raise ValueError(f"{label} {item}: {exc}") from None
        return values

    return [value for group in threads._in_groups(run, len(items)) for value in group]


@lru_cache(maxsize=8)
def _level1_slots(pattern, part):
    """The ``BandSlots`` of every subdomain of ``part`` with free dofs, on
    the operator of ``pattern``, keyed by neighborhood in order: vector dofs
    ordered node by node, or scalar node dofs.  A subdomain without free
    dofs is left out.  Cached on the value of ``part``, which every equal
    partition shares; the cached dict is shared: do not change it."""
    index = np.full(pattern.n_full, -1, dtype=np.int64)
    index[pattern.free] = np.arange(pattern.free.size)
    slots = {}
    for center, nodes in enumerate(part.interior_node_ids):
        if pattern.n_full == part.mesh.n_dofs:
            dofs = np.concatenate([nodes, nodes + part.mesh.n_nodes])
            nodes = dofs[node_major_order(dofs, part.mesh.n_nodes)]
        idx = index[nodes]
        idx = idx[idx >= 0]
        if idx.size:
            slots[center] = BandSlots.of_submatrix(pattern.indptr, pattern.indices, idx)
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


def selection_rule(variant, opts):
    """The mode selection rule of ``variant`` under ``opts``: ``opts.rule``,
    or 'fixed' for an elasticity eigenproblem and 'gap' for a heat one.  The
    gap rule for an elasticity eigenproblem is rejected here, before any
    eigensolve, which ``spectral.select_modes`` would do only after them."""
    if variant.eig_kind == "elasticity" and opts.rule == "gap":
        raise ValueError(f"variant {variant.tag}: the gap rule is not reliable for elasticity eigenproblems")
    return opts.rule or ("fixed" if variant.eig_kind == "elasticity" else "gap")


def build_selections(variant, op, part, coeff, opts):
    """The eigenselection part: one local eigenproblem per neighborhood,
    Dirichlet where it touches the nodes ``op`` clamps, solved densely or by
    the randomized solver, and its selected modes.

    Neighborhoods whose patch problems are one up to a lattice symmetry
    form one class of ``_patch_classes`` on the closed patches under
    ``spectral.SYMMETRIES``.  A class is solved once, on its problem as a
    mesh of its own, for the first k = n_max + 1 eigenpairs (at most its
    dimension), a randomized solve from n_max + ``spectral.OVERSAMPLING``
    snapshots (at most its dimension) with the seed ``[opts.seed, c0]``, c0
    its first neighborhood.  Each neighborhood of the class selects its
    modes from c0's eigenpairs and gets the kept ones mirrored onto its
    patch.  So c0's selection is bitwise that of one solve per
    neighborhood, and a randomized class shares c0's draw.  The classes are
    solved in groups on the level-1 threads (``_each_in_groups``), so a
    failing solve raises the ``ValueError`` of the first failing class in
    order, prefixed with ``neighborhood c0: ``, and a class's warnings are
    raised once, where its solve raises them.  The mode selection runs
    here, once per neighborhood and before the mirroring, so only the kept
    columns are mirrored.
    """
    rule = selection_rule(variant, opts)
    kind = "elasticity" if variant.eig_kind == "elasticity" else "diffusion"
    classes = _patch_classes(part, coeff, _clamped_nodes(op), True, spectral.SYMMETRIES)
    problems = {members[0][0]: problem for problem, members in classes}

    def solve(c0):
        shape, moduli, mask = problems[c0]
        prob = spectral.build_local_eigproblem(FineMesh(*shape, part.mesh.h),
                                               assembly.CoefficientField(moduli.ravel(), coeff.nu),
                                               np.flatnonzero(mask), kind)
        k = min(opts.n_max + 1, prob.dim)
        if not variant.randomized:
            return spectral.solve_local_eig_dense(prob, k)
        n_snapshots = min(opts.n_max + spectral.OVERSAMPLING, prob.dim)
        return spectral.solve_local_eig_randomized(prob, k, n_snapshots, seed=[opts.seed, c0])

    selections = [None] * part.n_neighborhoods
    for sel, ((shape, _, _), members) in zip(_each_in_groups(solve, list(problems), "neighborhood"), classes):
        for center, sym in members:
            selections[center] = spectral.select_modes(sel, opts.n_max, rule=rule).mirrored(shape, sym)
    return selections


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
    opts = opts or EigOptions()
    rule = selection_rule(variant, opts)
    if variant.level1 is None:  # plain CG: one piece, the factor of the identity on all free dofs
        return TwoLevelPreconditioner([(slice(None), CholeskyFactor(np.ones((1, op.n_free))))], None, op.n_free, {})
    if part.n_neighborhoods == 0:
        raise ValueError(
            f"the {part.Nx}x{part.Ny} coarse grid has no interior coarse node, "
            f"so variant {tag!r} has no subdomains; it needs at least 2 coarse elements per direction"
        )
    if op.n_full != part.mesh.n_dofs or coeff.values.size != part.mesh.n_elements:
        raise ValueError("the operator, the coefficient and the partition must live on one mesh")
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
        R0 = coarse.build_coarse_basis(op, part, selections.value, variant.enrich)
        return coarse.assemble_coarse_operator(op, R0)

    coarse_part, t_coarse = _get_part(parts, key_coarse, build_coarse, reused)

    info = {
        "t_level1": t_level1,
        "t_coarse": t_selections + t_coarse,
        "t_eig": selections.seconds,
        "level1_factors": len({id(solve) for _, solve in level1.value}),
        "mode_counts": [s.n_sel for s in selections.value],
        "selection_rule": rule,
        "reused": reused,
    }
    return TwoLevelPreconditioner(level1.value, coarse_part.value, op.n_free, info)


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
    assembly.check_poisson_ratio(nu)
    return 2.0 / (1.0 - nu / (1.0 - nu))
