"""Direct solvers in LAPACK band storage for patch-local sparse matrices.

Every matrix factored per subdomain or per neighborhood lives on a rectangle
of lexicographically numbered nodes, so with its unknowns ordered node by node
it is banded with a half-bandwidth of about one node row of dofs
(``node_major_order``).  Both factorizations read their band array straight
from the sparse entries; the LU applies its ordering to the entry indices, so
no reordered sparse copy is built.

- ``banded_cholesky`` (``pbtrf``/``pbtrs``) for matrices that are positive
  definite with a margin, such as the level-1 subdomain blocks.  A caller
  that factors submatrices of one sparsity pattern again and again, as level
  1 does at every SIMP rebuild, maps the pattern's entries to their places in
  the band array once (``BandSlots``) and then fills the band with one
  indexed copy of the values (``BandSlots.cholesky``).
- ``banded_lu`` (``gbtrf``/``gbtrs``, partial pivoting) for matrices that are
  positive definite only up to round-off, such as the shift-regularized
  Neumann operators K + sigma M of the randomized eigensolver: at contrast
  1e6 Cholesky can meet a non-positive pivot there.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dgbtrf, dgbtrs, dpbtrf, dpbtrs


def _band(A, order, upper_only):
    """LAPACK band array of ``A`` with rows and columns numbered by ``order``.

    ``order[k]`` is the original index of unknown k (None keeps the numbering).
    Entry (i, j) goes to ``ab[top + i - j, j]``: with ``upper_only`` the upper
    triangle in ``pbtrf`` layout (top = kd, kd + 1 rows), otherwise the whole
    band in ``gbtrf`` layout (kl = ku = kd, top = 2 kd, kd more rows for the
    fill-in of row pivoting).  Returns (ab, kd).
    """
    A = sp.coo_matrix(A)
    A.sum_duplicates()
    rows, cols, vals = A.row, A.col, A.data
    if order is not None:
        pos = np.empty(order.size, dtype=np.int64)
        pos[order] = np.arange(order.size)
        rows, cols = pos[rows], pos[cols]
    kd = int(np.abs(rows - cols).max(initial=0))
    if upper_only:
        keep = cols >= rows
        rows, cols, vals = rows[keep], cols[keep], vals[keep]
        top, n_rows = kd, kd + 1
    else:
        top, n_rows = 2 * kd, 3 * kd + 1
    ab = np.zeros((n_rows, A.shape[0]), order="F")
    ab[top + rows - cols, cols] = vals
    return ab, kd


def node_major_order(dofs, n_nodes):
    """Positions that sort component-grouped dof ids (dof = node + component *
    n_nodes) node by node, x then y: on a lexicographically numbered patch
    this keeps the half-bandwidth at about the dofs of one node row."""
    return np.argsort(2 * (dofs % n_nodes) + dofs // n_nodes)


def banded_cholesky(A):
    """Factor the SPD sparse matrix ``A`` in LAPACK upper band storage.

    Returns ``solve(b)`` for ``b`` of shape (n,) or (n, k).  The bandwidth is
    that of ``A`` as ordered, so callers number the unknowns to keep it small.
    """
    ab, _ = _band(A, None, upper_only=True)
    return _cholesky_of_band(ab)


def _cholesky_of_band(ab):
    """Factor the upper band array ``ab`` (``pbtrf`` layout) in place; returns
    the solve."""
    factor, info = dpbtrf(ab, overwrite_ab=1)
    if info != 0:
        raise ValueError(f"banded Cholesky failed (LAPACK info {info}): matrix not positive definite")

    def solve(b):
        return dpbtrs(factor, b)[0]

    return solve


@dataclass
class BandSlots:
    """Where the stored entries of a symmetric sparse submatrix go in its
    LAPACK upper band array.

    Entry ``take[k]`` of the parent's value array lands at ``flat[k]`` of the
    Fortran-ordered (kd + 1, n) band array, the upper triangle only.  The
    map is made from the sparsity pattern alone, so an entry whose value
    cancelled to zero keeps its slot; ``cholesky`` narrows the band when the
    outermost diagonal cancelled, so the band array equals that of
    ``banded_cholesky`` on the submatrix with its zeros dropped.
    """

    take: np.ndarray  # entry ids into the parent's value array
    flat: np.ndarray  # their places in the band array
    edge: np.ndarray  # positions in ``take`` of the outermost diagonal
    kd: int
    n: int

    @classmethod
    def of_submatrix(cls, indptr, indices, idx):
        """The submatrix on rows and columns ``idx`` (in that order) of the
        CSR structure (``indptr``, ``indices``)."""
        local = np.full(indptr.size - 1, -1, dtype=np.int64)
        local[idx] = np.arange(idx.size)
        starts, counts = indptr[idx], np.diff(indptr)[idx]
        rows = np.repeat(np.arange(idx.size), counts)
        take = np.repeat(starts - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())
        cols = local[indices[take]]
        keep = cols >= rows  # the upper triangle; -1 marks a column outside idx
        take, rows, cols = take[keep], rows[keep], cols[keep]
        kd = int((cols - rows).max(initial=0))
        flat = (kd + rows - cols) + cols * (kd + 1)
        # int32 halves the maps, which are kept for every subdomain
        return cls(take.astype(np.int32), flat.astype(np.int32), np.flatnonzero(cols - rows == kd), kd, idx.size)

    def band(self, data):
        """The band array of the submatrix whose parent values are ``data``,
        and its half-bandwidth: that of the nonzero entries."""
        vals, flat, kd = data[self.take], self.flat, self.kd
        if kd and not vals[self.edge].any():
            dist, cols = kd - flat % (kd + 1), flat // (kd + 1)
            kd = int(dist[vals != 0.0].max(initial=0))
            keep = dist <= kd
            vals, flat = vals[keep], (kd - dist[keep]) + cols[keep] * (kd + 1)
        ab = np.zeros((kd + 1) * self.n)
        ab[flat] = vals
        return ab.reshape(self.n, kd + 1).T, kd

    def cholesky(self, data):
        """``banded_cholesky`` of the submatrix whose parent values are ``data``."""
        return _cholesky_of_band(self.band(data)[0])


def banded_lu(A, order):
    """Factor the square sparse matrix ``A`` by banded LU with partial pivoting.

    ``order`` numbers the unknowns for a narrow band (``order[k]`` is the
    original index of unknown k); ``solve(b)`` takes and returns vectors in
    the original numbering, for ``b`` of shape (n,) or (n, k).
    """
    perm = np.asarray(order)
    ab, kd = _band(A, perm, upper_only=False)
    factor, piv, info = dgbtrf(ab, kd, kd, overwrite_ab=1)
    if info != 0:
        raise ValueError(f"banded LU failed (LAPACK info {info}): matrix is singular")

    def solve(b):
        x, info = dgbtrs(factor, kd, kd, b[perm], piv, overwrite_b=1)
        if info != 0:
            raise ValueError(f"banded LU solve failed (LAPACK info {info})")
        out = np.empty_like(x)
        out[perm] = x
        return out

    return solve
