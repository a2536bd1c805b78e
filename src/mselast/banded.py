"""The package's direct solvers, in LAPACK band storage.

Every matrix factored per subdomain or per neighborhood lives on a rectangle
of lexicographically numbered nodes, so with its unknowns ordered node by node
it is banded with a half-bandwidth of about one node row of dofs
(``node_major_order``); the coarse operator is banded center by center.  Each
is symmetric and comes with its sparsity pattern.  ``BandSlots`` maps the
pattern's entries to their places in the band array once, and then fills the
band with one indexed copy of the values at every factorization.  It is the
only code that knows the band layout, and it offers two factorizations:

- ``BandSlots.cholesky`` (``pbtrf``/``pbtrs``) for matrices that are positive
  definite with a margin: the level-1 subdomain blocks, the displacement
  blocks of the block-split preconditioner and the coarse operator.
- ``BandSlots.lu`` (``gbtrf``/``gbtrs``, partial pivoting) for matrices that
  are positive definite only up to round-off, such as the shift-regularized
  Neumann operators K + sigma M of the randomized eigensolver: at contrast
  1e6 Cholesky can meet a non-positive pivot there.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgbtrf, dgbtrs, dpbtrf, dpbtrs


def node_major_order(dofs, n_nodes):
    """Positions that sort component-grouped dof ids (dof = node + component *
    n_nodes) node by node, x then y: on a lexicographically numbered patch
    this keeps the half-bandwidth at about the dofs of one node row."""
    return np.argsort(2 * (dofs % n_nodes) + dofs // n_nodes)


@dataclass
class BandSlots:
    """Where the stored entries of a symmetric sparse submatrix go in its
    LAPACK upper band array.

    Entry ``take[k]`` of the parent's value array lands at ``flat[k]`` of the
    Fortran-ordered (kd + 1, n) band array, the upper triangle only.  The
    map is made from the sparsity pattern alone, so an entry whose value
    cancelled to zero keeps its slot; ``band`` narrows the band when the
    outermost diagonal cancelled, so the band array equals that of the
    submatrix with its zeros dropped.
    """

    idx: np.ndarray  # parent ids of the submatrix's unknowns, in band order
    take: np.ndarray  # entry ids into the parent's value array
    flat: np.ndarray  # their places in the band array
    edge: np.ndarray  # positions in ``take`` of the outermost diagonal
    kd: int

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
        return cls(idx, take.astype(np.int32), flat.astype(np.int32), np.flatnonzero(cols - rows == kd), kd)

    def band(self, data):
        """The ``pbtrf`` band array of the submatrix whose parent values are
        ``data``, and its half-bandwidth: that of the nonzero entries."""
        vals, flat, kd, n = data[self.take], self.flat, self.kd, self.idx.size
        if kd and not vals[self.edge].any():
            dist, cols = kd - flat % (kd + 1), flat // (kd + 1)
            kd = int(dist[vals != 0.0].max(initial=0))
            keep = dist <= kd
            vals, flat = vals[keep], (kd - dist[keep]) + cols[keep] * (kd + 1)
        ab = np.zeros((kd + 1) * n)
        ab[flat] = vals
        return ab.reshape(n, kd + 1).T, kd

    def cholesky(self, data):
        """Banded Cholesky of the submatrix whose parent values are ``data``.

        Round-off can leave a singular matrix a tiny positive pivot instead
        of failing ``pbtrf``, so a pivot (squared diagonal of the factor) at
        or below n * eps * max diag is rejected too.  Returns ``solve(b)`` in
        the submatrix's numbering, for ``b`` of shape (n,) or (n, k).
        """
        ab = self.band(data)[0]
        floor = ab.shape[1] * np.finfo(float).eps * ab[-1].max(initial=0.0)
        factor, info = dpbtrf(ab, overwrite_ab=1)
        if info != 0:
            raise ValueError(f"banded Cholesky failed (LAPACK info {info}): matrix not positive definite")
        pivot = (factor[-1] ** 2).min(initial=np.inf)
        if pivot <= floor:
            raise ValueError(f"banded Cholesky pivot {pivot:.3g} at or below {floor:.3g}: matrix numerically singular")
        return lambda b: dpbtrs(factor, b)[0]

    def lu_band(self, data):
        """The ``gbtrf`` band array of the submatrix whose parent values are
        ``data`` (kl = ku = kd, and kd more rows for the fill-in of row
        pivoting), its lower band mirrored from the upper one, and kd."""
        upper, kd = self.band(data)
        n = self.idx.size
        ab = np.zeros((3 * kd + 1, n), order="F")
        ab[kd : 2 * kd + 1] = upper
        for d in range(1, kd + 1):  # entry (j + d, j) mirrors (j, j + d)
            ab[2 * kd + d, : n - d] = upper[kd - d, d:]
        return ab, kd

    def lu(self, data):
        """Banded LU with partial pivoting of the submatrix whose parent
        values are ``data``.

        ``idx`` must order all of the parent's unknowns; ``solve(b)`` takes
        and returns vectors in the parent's numbering, for ``b`` of shape
        (n,) or (n, k).
        """
        ab, kd = self.lu_band(data)
        factor, piv, info = dgbtrf(ab, kd, kd, overwrite_ab=1)
        if info != 0:
            raise ValueError(f"banded LU failed (LAPACK info {info}): matrix is singular")

        def solve(b):
            x, info = dgbtrs(factor, kd, kd, b[self.idx], piv, overwrite_b=1)
            if info != 0:
                raise ValueError(f"banded LU solve failed (LAPACK info {info})")
            out = np.empty_like(x)
            out[self.idx] = x
            return out

        return solve
