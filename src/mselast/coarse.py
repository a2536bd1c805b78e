"""GMsFEM coarse spaces and the coarse operator.

The coarse basis comes from one path, ``build_coarse_basis``: local modes
multiplied nodewise by their neighborhood's partition-of-unity function and
extended by zero, collected as the rows of the interpolation matrix R_0, a
CSR matrix over the free dofs of the global operator.  Scalar diffusion is
spectrally equivalent to each displacement block, so a scalar (heat) mode
psi gives the two vector modes [psi, 0] and [0, psi]; an elasticity
eigenvector, which lives on the patch dofs already, is one vector mode, and
a localized rigid rotation is one more (but for one center when every coarse
node is kept, see ``build_coarse_basis``).  The mesh, the patches' node
sets and the partition of unity are the partition's.  The coarse part of a
preconditioner is its ``CoarseOperator``: K_0 = R_0 K R_0^T, sparse and
factored in band storage, with R_0 and R_0^T.

The basis is built in the calling thread: its steps are many small array
operations, which threads would only make wait on each other for the GIL.
Only the Galerkin product K_0 runs on the level-1 threads
(``threads._each``), see ``CoarseOperator``.  The coarse solve of an apply,
``CoarseOperator.apply_inverse``, is the first item of the preconditioner's
apply on those threads, beside the level-1 solves (``schwarz``).
"""

import numpy as np
import scipy.sparse as sp

from . import assembly, threads
from .banded import BandSlots


def build_coarse_basis(op, part, selections, enrich=False):
    """Coarse basis R_0, a CSR matrix of N_c rows over the free dofs of
    ``op``, from one eigenselection per neighborhood of ``part``.

    On neighborhood omega_l the selected modes form one block of
    component-grouped vector modes on the patch nodes: an elasticity
    selection's vectors are that block, a scalar eigenvector psi gives
    [psi, 0] and then [0, psi], and with ``enrich`` (heat selections only)
    the rotation [-(y - y_l), x - x_l] about the coarse node y_l is one
    more.  The block is multiplied nodewise by chi_l (``part.chi[l]``, on
    the patch nodes ``part.node_ids[l]``) and restricted to the free dofs of
    ``op``, whose free indices ascend over the patch's x then y dofs; each
    mode is one row.  Rows go center by center, each center's rotation row
    right after its eigenmode rows, which keeps K_0 = R_0 K R_0^T banded.
    The weighted blocks are laid out one after the other in one buffer,
    center by center; the row lengths, less exact zeros, give the CSR row
    pointer, and the nonzeros of every center are then scattered at once.

    With ``part.include_boundary`` the hats reproduce linear functions, so
    sum_l chi_l (x - x_l) = 0 and the rotation rows sum to zero; the last
    center then gets no rotation row.
    """
    if len(selections) != part.n_neighborhoods:
        raise ValueError("one eigenselection per neighborhood required")
    kinds = {sel.kind for sel in selections}
    if len(kinds) != 1:
        raise ValueError(f"eigenselections of one kind required, got {sorted(kinds)}")
    heat = kinds == {"diffusion"}
    if enrich and not heat:
        raise ValueError("rotation enrichment applies to heat bases; elasticity modes carry the rotation")
    mesh = part.mesh
    free_index = op.free_index()
    coords = mesh.node_coords()
    n_rot = part.n_neighborhoods - part.include_boundary if enrich else 0

    def center_modes(center):
        """The center's block of modes on its patch's x then y dofs, one mode
        per column, and chi on those dofs."""
        nodes, sel = part.node_ids[center], selections[center]
        modes = sel.vectors
        if heat:  # columns [psi_0, 0], [0, psi_0], [psi_1, 0], ..., then the rotation
            n, m = nodes.size, 2 * sel.n_sel
            modes = np.zeros((2 * n, m + (center < n_rot)))
            modes[:n, 0:m:2] = modes[n:, 1:m:2] = sel.vectors
            if center < n_rot:
                modes[:, m] = assembly.rigid_body_modes(coords[nodes], part.coarse_node_coords(center))[:, 2]
        chi = part.chi[center]
        return modes, np.concatenate([chi, chi])

    # center by center: each center's rows on its patch's free dofs into one
    # buffer, and the nonzeros of each row; then every center's nonzeros at once
    dofs = [np.concatenate([free_index[nodes], free_index[nodes + mesh.n_nodes]]) for nodes in part.node_ids]
    keep = [np.flatnonzero(d >= 0) for d in dofs]  # the free dofs' places in the patch
    cols = [d.take(k) for d, k in zip(dofs, keep)]
    n_modes = [sel.n_sel * (1 + heat) + (center < n_rot) for center, sel in enumerate(selections)]
    offsets = np.cumsum([0] + [m * k.size for m, k in zip(n_modes, keep)])
    dense, counts = np.empty(offsets[-1]), []
    for center, k in enumerate(keep):
        modes, chi = center_modes(center)
        block = dense[offsets[center] : offsets[center + 1]].reshape(n_modes[center], k.size)
        np.multiply(modes.take(k, axis=0).T, chi.take(k), out=block)
        counts.append(np.count_nonzero(block, axis=1))
    indptr = np.concatenate([[0], np.cumsum(np.concatenate(counts))])
    nonzero = dense != 0
    tiled = [np.broadcast_to(c, (m, c.size)) for m, c in zip(n_modes, cols)]
    index_type = np.int32 if max(indptr[-1], op.n_free) < 2**31 else np.int64
    indices = np.concatenate(tiled, axis=None, dtype=index_type)[nonzero]
    return sp.csr_matrix((dense[nonzero], indices, indptr), shape=(indptr.size - 1, op.n_free))


class CoarseOperator:
    """Factorized coarse matrix K_0 = R_0 K R_0^T of the fine operator
    matrix K and the sparse basis R_0.

    R_0^T is formed once, as its own CSR matrix: K_0 is (R_0 K) R_0^T, and
    the apply, which runs once per PCG iteration, multiplies by it again
    (``R0.T`` would be rebuilt on every call).  K_0 is formed in one block of
    rows per core on the level-1 threads, each block (R_0[lo:hi] K) R_0^T,
    stacked in order; a row of a CSR product depends on that row alone, so
    K_0 is bitwise the product of the whole basis.  A basis row couples only the
    rows of centers whose patches share an element, so K_0 is banded in the
    basis's row order, and ``BandSlots.cholesky`` factors its upper
    triangle.  It rejects the singular K_0 of a rank-deficient basis.
    """

    def __init__(self, K, R0):
        self.R0 = R0
        self.R0T = R0.T.tocsr()
        n, k = R0.shape[0], min(threads._n_workers(), R0.shape[0])
        blocks = threads._each(lambda b: (_rows(R0, n * b // k, n * (b + 1) // k) @ K) @ self.R0T, k)
        self.K0 = sp.csr_matrix(sp.vstack(blocks, format="csr"))
        slots = BandSlots.of_submatrix(self.K0.indptr, self.K0.indices, np.arange(self.dim))
        try:
            self._solve = slots.cholesky(self.K0.data)
        except ValueError as exc:
            raise ValueError(f"coarse operator: {exc}; basis is rank deficient") from None

    @property
    def dim(self):
        return self.K0.shape[0]

    def solve(self, f0):
        return self._solve(f0)

    def apply_inverse(self, r):
        """R_0^T K_0^{-1} R_0 r on the fine free dofs."""
        return self.R0T @ self.solve(self.R0 @ r)


def _rows(A, lo, hi):
    """Rows lo..hi-1 of the CSR matrix ``A``, on views of its arrays."""
    at = slice(A.indptr[lo], A.indptr[hi])
    indptr = A.indptr[lo : hi + 1] - A.indptr[lo]
    return sp.csr_matrix((A.data[at], A.indices[at], indptr), shape=(hi - lo, A.shape[1]))


def assemble_coarse_operator(op, R0):
    """Project the (elasticity) operator onto the coarse basis ``R0`` and factorize."""
    if R0.shape[1] != op.n_free:
        raise ValueError("basis and operator dimensions do not match")
    return CoarseOperator(op.matrix, R0)
