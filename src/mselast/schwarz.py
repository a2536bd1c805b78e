"""Two-level additive Schwarz preconditioners for the elasticity operator.

Level 1 solves local Dirichlet problems on the overlapping subdomains (which
coincide with the coarse-node neighborhoods); either restrictions of the full
elasticity matrix or, for the heat-block variants, one scalar diffusion
factorization applied to the x- and y-displacement blocks as a two-column
right-hand side.  Every local matrix is SPD and lives on a lexicographically
numbered rectangle of nodes, so it is factored by banded Cholesky (LAPACK
``pbtrf``/``pbtrs``).  The elasticity dofs are ordered node by node, x then y,
which keeps the half-bandwidth at 2 * (interior nodes per patch row) + 3.
The triangular solves dominate the preconditioner's cost; on a narrow band
they read one contiguous array, about 3x faster than the indexed solves of a
general sparse LU of the same matrices.
Level 2 is the factorized spectral coarse space; both levels act additively
on the same residual.  All seven named variants share this machinery and
differ only in the level-1 kind and in how the coarse space is built.
"""

import time
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dpbtrf, dpbtrs

from . import assembly, coarse, spectral
from .grid import build_partition_of_unity


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

    def __init__(self, variant, level1_solvers, coarse_op, n_free, info):
        self.variant = variant
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
    info = {}

    def apply(self, r):
        return r


def _banded_cholesky(A):
    """Factor the SPD sparse matrix ``A`` in LAPACK upper band storage.

    Returns ``solve(b)`` for ``b`` of shape (n,) or (n, k).  The bandwidth is
    that of ``A`` as ordered, so callers number the unknowns to keep it small.
    """
    A = sp.coo_matrix(A)
    A.sum_duplicates()
    upper = A.col >= A.row
    rows, cols = A.row[upper], A.col[upper]
    kd = int((cols - rows).max(initial=0))
    ab = np.zeros((kd + 1, A.shape[0]), order="F")
    ab[kd + rows - cols, cols] = A.data[upper]
    factor, info = dpbtrf(ab, overwrite_ab=1)
    if info != 0:
        raise ValueError(f"banded Cholesky failed (LAPACK info {info}): matrix not positive definite")

    def solve(b):
        return dpbtrs(factor, b)[0]

    return solve


def _subdomain_elasticity_solvers(op, mesh, part):
    """One banded Cholesky factor per subdomain, dofs ordered node by node."""
    free_index = op.free_index()
    solvers = []
    for patch in part.neighborhoods:
        nodes = patch.interior_node_ids(mesh)
        idx = np.column_stack([free_index[nodes], free_index[nodes + mesh.n_nodes]]).ravel()
        idx = idx[idx >= 0]
        if idx.size == 0:
            warnings.warn("subdomain with no free dofs skipped", stacklevel=2)
            continue
        solvers.append((idx, _banded_cholesky(op.matrix[idx][:, idx])))
    return solvers


def _subdomain_heat_solvers(op, mesh, part, coeff, dirichlet_nodes):
    """One scalar diffusion factorization per subdomain, shared by both blocks.

    Relies on the component-grouped free-dof layout: because whole nodes are
    constrained, free x-dofs and free y-dofs enumerate the same node set.
    """
    D_op = assembly.assemble_diffusion(mesh, coeff.values, dirichlet_nodes)
    n_free_nodes = D_op.n_free
    if op.n_free != 2 * n_free_nodes:
        raise ValueError("heat level 1: the operator must constrain exactly dirichlet_nodes, in x and y alike")
    scalar_index = D_op.free_index()
    solvers = []
    for patch in part.neighborhoods:
        nodes = patch.interior_node_ids(mesh)
        sidx = scalar_index[nodes]
        sidx = sidx[sidx >= 0]
        if sidx.size == 0:
            warnings.warn("subdomain with no free dofs skipped", stacklevel=2)
            continue
        solve_H = _banded_cholesky(D_op.matrix[sidx][:, sidx])
        idx = np.concatenate([sidx, sidx + n_free_nodes])

        def solve(r, solve_H=solve_H, m=sidx.size):
            # both components at once: the (m, 2) view of r is Fortran-ordered
            return solve_H(r.reshape(2, m).T).T.ravel()

        solvers.append((idx, solve))
    return solvers


def build_coarse_space(variant, op, mesh, part, coeff, dirichlet_nodes, opts, pou=None):
    """Eigenproblems, mode selection and basis for one variant's coarse level.

    Returns (CoarseBasis, per-center mode counts, eigensolver wall time).
    """
    if pou is None:
        pou = build_partition_of_unity(part)
    kind = "elasticity" if variant.eig_kind == "elasticity" else "diffusion"
    rule = opts.rule or ("fixed" if kind == "elasticity" else "gap")
    t0 = time.perf_counter()
    selections = []
    for center, patch in enumerate(part.neighborhoods):
        prob = spectral.build_local_eigproblem(mesh, coeff, patch, kind, dirichlet_nodes)
        k = min(opts.n_max + 1, prob.dim)
        if variant.randomized:
            n_snap = opts.n_snapshots or (opts.n_max + 5)
            sel = spectral.solve_local_eig_randomized(
                prob, k, n_snapshots=min(n_snap, prob.dim), seed=[opts.seed, center]
            )
        else:
            sel = spectral.solve_local_eig_dense(prob, k)
        selections.append(spectral.select_modes(sel, opts.n_max, rule=rule))
    t_eig = time.perf_counter() - t0

    if kind == "elasticity":
        basis = coarse.build_coarse_basis_elasticity(op, mesh, part, pou, selections)
    else:
        basis = coarse.build_coarse_basis_heat(op, mesh, part, pou, selections)
        if variant.enrich:
            basis = coarse.enrich_rotations(basis, op, mesh, part, pou)
    return basis, [s.n_sel for s in selections], t_eig


def build_preconditioner(tag, op, mesh, part, coeff, dirichlet_nodes, opts=None):
    """Build a Table-style two-level preconditioner by variant name.

    ``op`` is the assembled elasticity operator on free dofs, ``part`` the
    coarse partition whose neighborhoods double as the overlapping subdomains.
    """
    if tag == "None":
        return IdentityPreconditioner()
    variant = get_variant(tag)
    opts = opts or EigOptions()

    t0 = time.perf_counter()
    if variant.level1 == "elasticity":
        level1 = _subdomain_elasticity_solvers(op, mesh, part)
    else:
        level1 = _subdomain_heat_solvers(op, mesh, part, coeff, dirichlet_nodes)
    t_level1 = time.perf_counter() - t0

    pou = build_partition_of_unity(part)
    t0 = time.perf_counter()
    basis, mode_counts, t_eig = build_coarse_space(
        variant, op, mesh, part, coeff, dirichlet_nodes, opts, pou
    )
    coarse_op = coarse.assemble_coarse_operator(op, basis)
    t_coarse = time.perf_counter() - t0

    info = {
        "t_level1": t_level1,
        "t_coarse": t_coarse,
        "t_eig": t_eig,
        "coarse_dim": basis.N_c,
        "mode_counts": mode_counts,
        "basis_kind": basis.kind,
        "selection_rule": opts.rule or ("fixed" if variant.eig_kind == "elasticity" else "gap"),
    }
    return TwoLevelPreconditioner(variant, level1, coarse_op, op.n_free, info)


class BlockSplitPreconditioner:
    """Exact displacement-splitting preconditioner diag(K_xx, K_yy).

    One global factorization per displacement block, no domain decomposition;
    its PCG condition number is bounded by 2 / (1 - nu/(1-nu)).
    """

    coarse_dim = 0
    info = {}

    def __init__(self, op, mesh):
        n_nodes = mesh.n_nodes
        self.m = int(np.searchsorted(op.free_dofs, n_nodes))
        A = op.matrix
        self.lu_xx = spla.splu(A[: self.m][:, : self.m].tocsc())
        self.lu_yy = spla.splu(A[self.m :][:, self.m :].tocsc())

    def apply(self, r):
        out = np.empty_like(r)
        out[: self.m] = self.lu_xx.solve(r[: self.m])
        out[self.m :] = self.lu_yy.solve(r[self.m :])
        return out


def block_split_condition_bound(nu):
    """2 / (1 - nu_tilde) with nu_tilde = nu / (1 - nu)."""
    if not (0 <= nu < 0.5):
        raise ValueError(f"Poisson ratio {nu} outside [0, 0.5)")
    return 2.0 / (1.0 - nu / (1.0 - nu))
