"""GMsFEM coarse spaces and the coarse operator.

The coarse basis comes from one path, ``build_coarse_basis``: local modes
multiplied nodewise by their neighborhood's partition-of-unity function and
extended by zero, collected as the rows of the interpolation matrix R_0, a
CSR matrix over the free dofs of the global operator.  Scalar diffusion is
spectrally equivalent to each displacement block, so a scalar (heat) mode
psi gives the two vector modes [psi, 0] and [0, psi]; an elasticity
eigenvector, which lives on the patch dofs already, is one vector mode, and
a localized rigid rotation is one more (but for one center when every coarse
node is kept, see ``build_coarse_basis``).  The mesh and the partition of
unity come from the partition, the latter made once per partition.  The
coarse part of a preconditioner is its ``CoarseOperator``: K_0 = R_0 K R_0^T,
sparse and factored in band storage, with R_0 and R_0^T.
"""

from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from .banded import BandSlots
from .grid import CoarsePartition, PartitionOfUnity


def build_coarse_basis(op, part, selections, enrich=False):
    """Coarse basis R_0, a CSR matrix of N_c rows over the free dofs of
    ``op``, from one eigenselection per neighborhood of ``part``.

    On neighborhood omega_l the selected modes form one block of
    component-grouped vector modes on the patch nodes: an elasticity
    selection's vectors are that block, a scalar eigenvector psi gives
    [psi, 0] and then [0, psi], and with ``enrich`` (heat selections only)
    the rotation [-(y - y_l), x - x_l] about the coarse node y_l is one more.  The block is
    multiplied nodewise by chi_l (the ``PartitionOfUnity`` of ``part``),
    restricted to the free dofs of ``op``, cleared of exact zeros and
    scattered once.  Rows go center by center, each center's rotation row
    right after its eigenmode rows, which keeps K_0 = R_0 K R_0^T banded.

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
    mesh, pou = part.mesh, _partition_of_unity(part.mesh, part.Nx, part.Ny, part.include_boundary)
    free_index = op.free_index()
    coords = mesh.node_coords()
    n_rot = part.n_neighborhoods - part.include_boundary if enrich else 0
    rows, cols, vals, n_rows = [], [], [], 0
    for center, (nodes, sel) in enumerate(zip(pou.node_ids, selections)):
        modes = sel.vectors
        if heat:  # columns [psi_0, 0], [0, psi_0], [psi_1, 0], ...
            n = nodes.size
            modes = np.zeros((2 * n, 2 * sel.n_sel))
            modes[:n, 0::2] = modes[n:, 1::2] = sel.vectors
        if center < n_rot:
            xy = coords[nodes] - part.coarse_node_coords(center)
            modes = np.column_stack([modes, np.concatenate([-xy[:, 1], xy[:, 0]])])
        dofs = np.concatenate([free_index[nodes], free_index[nodes + mesh.n_nodes]])
        chi = pou.values[center]
        block = (np.concatenate([chi, chi])[:, None] * modes)[dofs >= 0].T
        r, c = np.nonzero(block)
        rows.append(n_rows + r)
        cols.append(dofs[dofs >= 0][c])
        vals.append(block[r, c])
        n_rows += modes.shape[1]
    return sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n_rows, op.n_free),
    ).tocsr()


@lru_cache(maxsize=8)
def _partition_of_unity(mesh, Nx, Ny, include_boundary):
    """The ``PartitionOfUnity`` of the partition, made once per partition."""
    return PartitionOfUnity(CoarsePartition(mesh, Nx, Ny, include_boundary))


class CoarseOperator:
    """Factorized coarse matrix K_0 = R_0 K R_0^T of the fine operator
    matrix K and the sparse basis R_0.

    R_0^T is formed once, as its own CSR matrix: K_0 is (R_0 K) R_0^T, and
    the apply, which runs once per PCG iteration, multiplies by it again
    (``R0.T`` would be rebuilt on every call).  A basis row couples only the
    rows of centers whose patches share an element, so K_0 is banded in the
    basis's row order, and ``BandSlots.cholesky`` factors its upper
    triangle.  It rejects the singular K_0 of a rank-deficient basis.
    """

    def __init__(self, K, R0):
        self.R0 = R0
        self.R0T = R0.T.tocsr()
        self.K0 = sp.csr_matrix((R0 @ K) @ self.R0T)
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


def assemble_coarse_operator(op, R0):
    """Project the (elasticity) operator onto the coarse basis ``R0`` and factorize."""
    if R0.shape[1] != op.n_free:
        raise ValueError("basis and operator dimensions do not match")
    return CoarseOperator(op.matrix, R0)
