"""GMsFEM coarse spaces and the coarse operator.

The coarse basis comes from one path, ``build_coarse_basis``: local modes
multiplied nodewise by their neighborhood's partition-of-unity function and
extended by zero, collected as the rows of the interpolation matrix R_0 over
the free dofs of the global operator.  Scalar diffusion is spectrally
equivalent to each displacement block, so a scalar (heat) mode psi gives the
two vector modes [psi, 0] and [0, psi]; an elasticity eigenvector is one
vector mode, and a localized rigid rotation is one more (but for one center
when every coarse node is kept, see ``build_coarse_basis``).  The mesh and
the partition of unity come from the partition.  The coarse operator
K_0 = R_0 K R_0^T stays sparse and is factored in band storage.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .banded import BandSlots
from .grid import PartitionOfUnity


@dataclass
class CoarseBasis:
    R0: sp.csr_matrix  # N_c x n_free; rows are the basis vectors Psi
    modes_per_center: list

    @property
    def N_c(self):
        return self.R0.shape[0]


def build_coarse_basis(op, part, selections, enrich=False):
    """Coarse basis R_0 from one eigenselection per neighborhood of ``part``.

    On neighborhood omega_l the selected modes form one block of
    component-grouped vector modes on the patch nodes: an elasticity
    eigenvector gives one mode, a scalar eigenvector psi gives [psi, 0] and
    then [0, psi], and with ``enrich`` (heat selections only) the rotation
    [-(y - y_l), x - x_l] about the coarse node y_l is one more.  The block is
    multiplied nodewise by chi_l (the ``PartitionOfUnity`` of ``part``),
    restricted to the free dofs of ``op``, cleared of exact zeros and
    scattered once.  Rows go center by center, each center's rotation row
    right after its eigenmode rows, which keeps K_0 = R_0 K R_0^T banded.

    With ``part.include_boundary`` the hats reproduce linear functions, so
    sum_l chi_l (x - x_l) = 0 and the rotation rows sum to zero; the last
    center then gets no rotation row, and its ``modes_per_center`` entry is
    one less.
    """
    if len(selections) != part.n_neighborhoods:
        raise ValueError("one eigenselection per neighborhood required")
    kinds = {sel.kind for sel in selections}
    if len(kinds) != 1:
        raise ValueError(f"eigenselections of one kind required, got {sorted(kinds)}")
    heat = kinds == {"diffusion"}
    if enrich and not heat:
        raise ValueError("rotation enrichment applies to heat bases; elasticity modes carry the rotation")
    mesh, pou = part.mesh, PartitionOfUnity(part)
    free_index = op.free_index()
    coords = mesh.node_coords()
    n_rot = part.n_neighborhoods - part.include_boundary if enrich else 0
    rows, cols, vals, counts = [], [], [], []
    for center, (patch, sel) in enumerate(zip(part.neighborhoods, selections)):
        nodes = patch.node_ids(mesh)
        modes = np.zeros((sel.n_full, sel.n_sel))
        modes[sel.free_dofs] = sel.vectors
        if heat:  # columns [psi_0, 0], [0, psi_0], [psi_1, 0], ...
            modes = np.vstack([np.kron(modes, [1.0, 0.0]), np.kron(modes, [0.0, 1.0])])
        if center < n_rot:
            xy = coords[nodes] - part.coarse_node_coords(center)
            modes = np.column_stack([modes, np.concatenate([-xy[:, 1], xy[:, 0]])])
        dofs = np.concatenate([free_index[nodes], free_index[nodes + mesh.n_nodes]])
        chi = pou.values[center]
        block = (np.concatenate([chi, chi])[:, None] * modes)[dofs >= 0].T
        r, c = np.nonzero(block)
        rows.append(sum(counts) + r)
        cols.append(dofs[dofs >= 0][c])
        vals.append(block[r, c])
        counts.append(modes.shape[1])
    R0 = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(sum(counts), op.n_free),
    ).tocsr()
    return CoarseBasis(R0, counts)


class CoarseOperator:
    """Factorized coarse matrix K_0 = R_0 K R_0^T, sparse or dense.

    A basis row couples only the rows of centers whose patches share an
    element, so K_0 is banded in the basis's row order, and
    ``BandSlots.cholesky`` factors its upper triangle.  It rejects the
    singular K_0 of a rank-deficient basis.  The apply runs once per PCG
    iteration, so R_0^T is kept as its own CSR matrix (``R0.T`` would be
    rebuilt on every call).
    """

    def __init__(self, K0, R0):
        self.K0 = sp.csr_matrix(K0)
        self.R0 = R0
        self.R0T = R0.T.tocsr()
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


def assemble_coarse_operator(op, basis):
    """Project the (elasticity) operator onto the coarse basis and factorize."""
    if basis.R0.shape[1] != op.n_free:
        raise ValueError("basis and operator dimensions do not match")
    return CoarseOperator(basis.R0 @ op.matrix @ basis.R0.T, basis.R0)
