"""Local generalized eigenproblems on coarse-node neighborhoods.

Each neighborhood gets a Neumann problem (Dirichlet only where it touches the
globally clamped boundary): elasticity K phi = lambda M phi with the mass
weighted by E, or the scalar diffusion analogue weighted by kappa.  A dense
reference solver and the randomized snapshot solver are provided, plus the
mode-count selection rules.  The patch operators come from the cached
sparse-product assembly of ``assembly``: every neighborhood of one shape and
boundary pattern reuses one sparsity pattern, which a patch's K and M share.  A solver
returns an ``EigSelection``, the eigenpairs without the patch operators,
which are dropped once solved: the vectors on every dof of the closed patch,
zero on its constrained ones.

The elements are squares, so a patch problem mirrored by one of the 8
symmetries of the square lattice (``SYMMETRIES``, ``lattice_image``) is
again a patch problem, with the same eigenvalues; ``EigSelection.mirrored``
carries its eigenvectors over without a solve.
"""

import warnings
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
import scipy.linalg as sla

from . import assembly
from .banded import BandSlots, eigh_lowest, node_major_order
from .grid import FineMesh

N_PASSES = 4  # block inverse-iteration passes of the randomized solver
OVERSAMPLING = 5  # randomized snapshots beyond the mode cap (the p of Halko, Martinsson & Tropp, SIREV 2011)
GAP_THRESHOLD = 50.0  # eigenvalue ratio that counts as a gap for the 'gap' rule

# the lattice symmetries (flip_x, flip_y, transpose) of ``lattice_image``, the identity first
SYMMETRIES = tuple((fx, fy, t) for t in (False, True) for fy in (False, True) for fx in (False, True))


def lattice_image(grid, sym):
    """``grid``, an array whose first two axes run along y and x (elements
    or nodes of a patch), under the lattice symmetry ``sym`` = (flip_x,
    flip_y, transpose): reflected in x, then in y, then transposed, which
    turns an a x b patch into a b x a one."""
    flip_x, flip_y, transpose = sym
    grid = grid[::-1 if flip_y else 1, ::-1 if flip_x else 1]
    return np.swapaxes(grid, 0, 1) if transpose else grid


@dataclass
class LocalEigProblem:
    """Stiffness/mass operators on a neighborhood patch, on one pattern and
    one set of free dofs (patch-local dof ids kept after Dirichlet
    elimination)."""

    K: assembly.SymmetricSparseOperator
    M: assembly.SymmetricSparseOperator
    kind: str  # 'elasticity' | 'diffusion'
    patch_mesh: FineMesh

    @property
    def dim(self):
        return self.K.n_free

    def kernel_basis(self):
        """Near-null candidates on free dofs: RBMs (elasticity) or constants."""
        coords = self.patch_mesh.node_coords()
        center = coords.mean(axis=0)
        if self.kind == "elasticity":
            Z = assembly.rigid_body_modes(coords, center)
        else:
            Z = np.ones((self.patch_mesh.n_nodes, 1))
        return Z[self.K.free_dofs]


@dataclass
class EigSelection:
    """Ascending generalized eigenpairs, the vectors as columns on every dof
    of the closed patch (component-grouped for elasticity), M-orthonormal on
    its free dofs and zero on its constrained ones."""

    eigenvalues: np.ndarray
    vectors: np.ndarray
    kind: str

    @property
    def n_sel(self):
        return self.eigenvalues.size

    def mirrored(self, shape, sym):
        """The eigenpairs of this selection's patch problem mirrored by the
        lattice symmetry ``sym`` (``lattice_image``), ``shape`` = (nx, ny)
        the elements of this selection's patch.  The eigenvalues are the
        same; each vector moves with its nodes, and for elasticity a
        reflection in x negates u_x, one in y negates u_y, and the transpose
        swaps u_x and u_y.  The rows follow the mirrored patch's own dofs,
        so its constrained ones stay zero."""
        if not any(sym):
            return self
        nx, ny = shape
        elasticity = self.kind == "elasticity"
        fields = self.vectors.reshape(1 + elasticity, ny + 1, nx + 1, -1).transpose(1, 2, 0, 3)  # (y, x, component, column)
        if elasticity:
            flip_x, flip_y, transpose = sym
            fields = fields * np.array([[-1.0 if flip_x else 1.0], [-1.0 if flip_y else 1.0]])
            if transpose:
                fields = fields[:, :, ::-1]
        vectors = lattice_image(fields, sym).transpose(2, 0, 1, 3).reshape(self.vectors.shape)
        return replace(self, vectors=vectors)


def build_local_eigproblem(pmesh, moduli, dirichlet_nodes, kind):
    """Assemble the neighborhood eigenproblem of a patch given as a mesh of
    its own, with the moduli of its elements.

    Homogeneous Neumann on the patch boundary except at ``dirichlet_nodes``,
    the patch nodes that coincide with globally constrained nodes (Dirichlet
    there).
    """
    evals = moduli.values
    if kind == "elasticity":
        K_op = assembly.assemble_elasticity(pmesh, moduli, dirichlet_nodes)
        M_op = assembly.assemble_weighted_mass(pmesh, evals, "elasticity", dirichlet_nodes)
    elif kind == "diffusion":
        K_op = assembly.assemble_diffusion(pmesh, evals, dirichlet_nodes)
        M_op = assembly.assemble_weighted_mass(pmesh, evals, "diffusion", dirichlet_nodes)
    else:
        raise ValueError(f"unknown eigenproblem kind {kind!r}")
    return LocalEigProblem(K_op, M_op, kind, pmesh)


def solve_local_eig_dense(prob, k):
    """First k generalized eigenpairs via a dense solver (the oracle path),
    which overwrites the dense K and M: the solve holds no other n x n copy."""
    if k > prob.dim:
        raise ValueError(f"requested {k} modes from a {prob.dim}-dof problem")
    w, v = eigh_lowest(prob.K.matrix.toarray(order="F"), prob.M.matrix.toarray(order="F"), k)
    return EigSelection(w, prob.K.expand(v), prob.kind)


def solve_local_eig_randomized(prob, k, n_snapshots, seed=0):
    """Randomized snapshot approximation of the first k eigenpairs.

    Draw ``n_snapshots`` (at least k) zero-mean random forcings orthogonal
    to the near-null space, run a few passes of block inverse iteration with
    the shift-regularized operator (re-orthogonalizing the block between
    passes), enrich the snapshot span with the RBMs (or constants),
    orthonormalize by SVD, and solve the reduced eigenproblem.  Eigenvalues are Rayleigh-Ritz values, hence upper bounds of
    the dense ones.  The kernel component is deflated after every solve: the
    tiny shift amplifies any round-off in the near-null directions by ~1/sigma,
    which would otherwise swamp the snapshots.

    K + sigma M is summed on the pattern K and M share and factored once by
    banded LU with partial pivoting (``banded.BandSlots.lu``), the dofs
    numbered node by node (``banded.node_major_order``), as level 1 does.
    Not by Cholesky: with sigma = 1e-8 * mean diag(K) the matrix is positive
    definite only up to round-off, and at contrast 1e6 Cholesky can meet a
    non-positive pivot.
    """
    if n_snapshots < k:
        raise ValueError(f"need at least k = {k} snapshots, got {n_snapshots}")
    rng = np.random.default_rng(seed)

    n, K, M = prob.dim, prob.K.matrix, prob.M.matrix
    Z = prob.kernel_basis()
    if n < Z.shape[1]:
        # G = Z^T M Z below would be singular: there is no room to deflate
        raise ValueError(
            f"randomized eigenproblem too small: {n} free dofs, fewer than its {Z.shape[1]} near-null modes"
        )
    MZ = M @ Z
    G = Z.T @ MZ
    F = rng.uniform(-1.0, 1.0, size=(n, n_snapshots))
    F = F - MZ @ np.linalg.solve(G, Z.T @ F)

    def deflate(X):
        return X - Z @ np.linalg.solve(G, MZ.T @ X)

    sigma = 1e-8 * (K.diagonal().sum() / n)
    if prob.M.pattern is not prob.K.pattern:
        raise ValueError("the patch stiffness and mass must share one assembly pattern")
    slots = _lu_slots(prob.K.pattern, prob.patch_mesh.n_nodes)
    solve = slots.lu(prob.K.pattern_data + sigma * prob.M.pattern_data)
    U = deflate(solve(F))
    for _ in range(N_PASSES - 1):
        U, _ = np.linalg.qr(U)
        U = deflate(solve(M @ U))

    W = np.hstack([U, Z])
    norms = np.linalg.norm(W, axis=0)
    norms[norms == 0.0] = 1.0
    Q, s, _ = np.linalg.svd(W / norms, full_matrices=False)
    keep = s > 1e-10 * s[0]
    if not np.all(keep):
        warnings.warn(
            f"snapshot basis rank-deficient: {keep.sum()}/{keep.size} kept",
            stacklevel=2,
        )
    Q = Q[:, keep]

    Kr = Q.T @ (K @ Q)
    Mr = Q.T @ (M @ Q)
    Kr = 0.5 * (Kr + Kr.T)
    Mr = 0.5 * (Mr + Mr.T)
    w, v = sla.eigh(Kr, Mr)
    m = min(k, w.size)
    return EigSelection(w[:m], prob.K.expand(Q @ v[:, :m]), prob.kind)


@lru_cache(maxsize=32)
def _lu_slots(pattern, n_nodes):
    """``BandSlots`` of the whole patch operator of ``pattern``, its dofs
    ordered node by node."""
    return BandSlots.of_submatrix(pattern.indptr, pattern.indices, node_major_order(pattern.free, n_nodes))


def select_modes(sel, n_max, rule="fixed"):
    """Keep a prefix of the eigenpairs.

    rule='fixed' keeps min(n_max, available).  rule='gap' (heat kind only)
    keeps everything below the last significant relative gap within the first
    n_max + 1 eigenvalues: the largest i <= n_max with
    lambda_{i+1} / max(lambda_i, eps) >= GAP_THRESHOLD, at least 1 mode.
    """
    if n_max < 1:
        raise ValueError("mode cap must be >= 1")
    lam = sel.eigenvalues
    if rule == "fixed":
        n = min(n_max, lam.size)
    elif rule == "gap":
        if sel.kind == "elasticity":
            raise ValueError("gap rule is not reliable for elasticity eigenproblems")
        window = lam[: min(n_max + 1, lam.size)]
        eps = 1e-14 * abs(window[-1]) if window[-1] != 0 else 1e-300
        n = 1
        for i in range(1, window.size):
            if window[i] / max(window[i - 1], eps) >= GAP_THRESHOLD:
                n = i
        n = min(n, n_max)
    else:
        raise ValueError(f"unknown selection rule {rule!r}")
    return replace(sel, eigenvalues=lam[:n], vectors=sel.vectors[:, :n])
