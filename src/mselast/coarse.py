"""GMsFEM coarse spaces and the coarse operator.

Basis vectors are local eigenvectors multiplied nodewise by their neighborhood
partition-of-unity function and extended by zero, collected as the rows of the
interpolation matrix R_0 over the free dofs of the global operator.  The heat
construction spawns one basis vector per displacement component from each
scalar mode and can be enriched with localized rigid rotations.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp


@dataclass
class CoarseBasis:
    R0: sp.csr_matrix  # N_c x n_free; rows are the basis vectors Psi
    kind: str  # 'E' | 'H' | 'H+Rot'
    modes_per_center: list

    @property
    def N_c(self):
        return self.R0.shape[0]

    def gram_rank(self, rtol=1e-10):
        G = (self.R0 @ self.R0.T).toarray()
        s = np.linalg.svd(G, compute_uv=False)
        return int(np.sum(s > rtol * s[0]))


class _RowCollector:
    def __init__(self, n_free):
        self.n_free = n_free
        self.rows, self.cols, self.vals = [], [], []
        self.n_rows = 0

    def add(self, free_idx, values):
        ok = values != 0.0
        self.rows.append(np.full(ok.sum(), self.n_rows))
        self.cols.append(free_idx[ok])
        self.vals.append(values[ok])
        self.n_rows += 1

    def tocsr(self):
        if self.n_rows == 0:
            return sp.csr_matrix((0, self.n_free))
        return sp.coo_matrix(
            (
                np.concatenate(self.vals),
                (np.concatenate(self.rows), np.concatenate(self.cols)),
            ),
            shape=(self.n_rows, self.n_free),
        ).tocsr()


def _patch_scatter(op, mesh, patch, pou, center):
    """Per-patch-node (global free x-index, global free y-index, chi value).

    Indices are -1 for globally constrained dofs.
    """
    free_index = op.free_index()
    gnodes = patch.node_ids(mesh)
    chi = np.zeros(mesh.n_nodes)
    chi[pou.node_ids[center]] = pou.values[center]
    return free_index[gnodes], free_index[gnodes + mesh.n_nodes], chi[gnodes]


def _embed(vec_free, n_full, free_dofs):
    out = np.zeros(n_full)
    out[free_dofs] = vec_free
    return out


def build_coarse_basis_elasticity(op, mesh, part, pou, selections):
    """Vector-valued basis chi_l * psi from elasticity eigenvectors."""
    if len(selections) != part.n_neighborhoods:
        raise ValueError("one eigenselection per neighborhood required")
    col = _RowCollector(op.n_free)
    counts = []
    for center, (patch, sel) in enumerate(zip(part.neighborhoods, selections)):
        if sel.kind != "elasticity":
            raise ValueError("elasticity-kind selections required")
        fx, fy, chi = _patch_scatter(op, mesh, patch, pou, center)
        n_pnodes = sel.problem.patch_mesh.n_nodes
        for m in range(sel.n_sel):
            psi = _embed(sel.vectors[:, m], sel.problem.n_full, sel.problem.free_dofs)
            _add_vector_row(col, fx, fy, chi * psi[:n_pnodes], chi * psi[n_pnodes:])
        counts.append(sel.n_sel)
    return CoarseBasis(col.tocsr(), "E", counts)


def build_coarse_basis_heat(op, mesh, part, pou, selections):
    """Componentwise basis chi_l*[psi, 0] and chi_l*[0, psi] from scalar modes."""
    if len(selections) != part.n_neighborhoods:
        raise ValueError("one eigenselection per neighborhood required")
    col = _RowCollector(op.n_free)
    counts = []
    for center, (patch, sel) in enumerate(zip(part.neighborhoods, selections)):
        if sel.kind != "diffusion":
            raise ValueError("diffusion-kind selections required")
        fx, fy, chi = _patch_scatter(op, mesh, patch, pou, center)
        zeros = np.zeros_like(chi)
        for m in range(sel.n_sel):
            psi = _embed(sel.vectors[:, m], sel.problem.n_full, sel.problem.free_dofs)
            _add_vector_row(col, fx, fy, chi * psi, zeros)
            _add_vector_row(col, fx, fy, zeros, chi * psi)
        counts.append(2 * sel.n_sel)
    return CoarseBasis(col.tocsr(), "H", counts)


def _add_vector_row(col, fx, fy, vx, vy):
    okx, oky = fx >= 0, fy >= 0
    idx = np.concatenate([fx[okx], fy[oky]])
    val = np.concatenate([vx[okx], vy[oky]])
    col.add(idx, val)


def enrich_rotations(basis, op, mesh, part, pou):
    """Append one localized rotation chi_i * [-(y - y_i), x - x_i] per node."""
    if basis.kind != "H":
        raise ValueError(f"rotation enrichment applies to heat bases, got {basis.kind!r}")
    coords = mesh.node_coords()
    col = _RowCollector(op.n_free)
    for center, patch in enumerate(part.neighborhoods):
        fx, fy, chi = _patch_scatter(op, mesh, patch, pou, center)
        cx, cy = part.coarse_node_coords(center)
        xy = coords[patch.node_ids(mesh)]
        _add_vector_row(col, fx, fy, chi * -(xy[:, 1] - cy), chi * (xy[:, 0] - cx))
    R0 = sp.vstack([basis.R0, col.tocsr()]).tocsr()
    counts = [c + 1 for c in basis.modes_per_center]
    return CoarseBasis(R0, "H+Rot", counts)


class CoarseOperator:
    """Dense factorized coarse matrix K_0 = R_0 K R_0^T.

    A rank-deficient basis makes K_0 singular, which Cholesky does not always
    report: round-off can leave a tiny positive pivot instead of a failure.
    So a pivot (squared diagonal of the factor) at or below
    N_c * eps * max diag(K_0) is rejected as well.
    """

    def __init__(self, K0, R0):
        self.K0 = K0
        self.R0 = R0
        try:
            self.chol = sla.cho_factor(K0)
        except np.linalg.LinAlgError as exc:
            raise ValueError(
                "coarse operator not positive definite: basis is rank deficient"
            ) from exc
        pivots = np.diag(self.chol[0]) ** 2
        if pivots.size and pivots.min() <= pivots.size * np.finfo(float).eps * np.diag(K0).max():
            raise ValueError("coarse operator numerically singular: basis is rank deficient")

    @property
    def dim(self):
        return self.K0.shape[0]

    def solve(self, f0):
        return sla.cho_solve(self.chol, f0)

    def apply_inverse(self, r):
        """R_0^T K_0^{-1} R_0 r on the fine free dofs."""
        return self.R0.T @ self.solve(self.R0 @ r)


def assemble_coarse_operator(op, basis):
    """Project the (elasticity) operator onto the coarse basis and factorize."""
    if basis.R0.shape[1] != op.n_free:
        raise ValueError("basis and operator dimensions do not match")
    B = basis.R0 @ op.matrix
    K0 = (B @ basis.R0.T).toarray()
    K0 = 0.5 * (K0 + K0.T)
    return CoarseOperator(K0, basis.R0)
