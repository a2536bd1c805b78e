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

The Cholesky factor and solve, which level 1 runs on several threads at
once, call LAPACK's ``dpbtrf``/``dpbtrs`` through the function pointers that
``scipy.linalg.cython_lapack`` exports, by ``ctypes``.  A ``ctypes`` foreign
call releases the GIL for its whole length, whereas scipy's f2py wrappers
(``scipy.linalg.lapack``) hold it, so two threads calling them run one after
the other.  The routines are the same LAPACK symbols that the f2py wrappers
call, so the bits are the same.  The LU, used only inside the eigensolves,
keeps the f2py wrappers.
"""

import ctypes
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cython_lapack
from scipy.linalg.lapack import dgbtrf, dgbtrs


def _lapack_routine(capsule, n_args):
    """The LAPACK routine behind a ``cython_lapack`` capsule as a ``ctypes``
    function of ``n_args`` pointers; calling it releases the GIL."""
    name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(("PyCapsule_GetName", ctypes.pythonapi))
    pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    return ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * n_args)(pointer(capsule, name(capsule)))


# dpbtrf(uplo, n, kd, ab, ldab, info) and dpbtrs(uplo, n, kd, nrhs, ab, ldab, b, ldb, info)
_DPBTRF = _lapack_routine(cython_lapack.__pyx_capi__["dpbtrf"], 6)
_DPBTRS = _lapack_routine(cython_lapack.__pyx_capi__["dpbtrs"], 9)
_UPPER_CHAR = ctypes.c_char(b"U")
_UPPER = ctypes.addressof(_UPPER_CHAR)


class CholeskyFactor:
    """A banded Cholesky factor U^T U of an SPD matrix of order n, in
    ``pbtrf``'s upper band storage.  Calling it solves a copy of ``b``, of
    shape (n,) or (n, k), or of k * n values one right-hand side after
    another: one ``pbtrs`` call with k right-hand sides."""

    def __init__(self, ab):
        self.ab = np.asfortranarray(ab, dtype=np.float64)  # (kd + 1, n), factored in place
        self.kd, self.n = self.ab.shape[0] - 1, self.ab.shape[1]
        self._ints = (ctypes.c_int * 3)(self.n, self.kd, self.kd + 1)  # n, kd, ldab
        self._n, self._kd, self._ldab = (ctypes.addressof(self._ints) + 4 * i for i in range(3))
        self._ab = self.ab.ctypes.data

    def factor(self):
        """``pbtrf`` on the band in place; returns LAPACK's info."""
        info = ctypes.c_int()
        _DPBTRF(_UPPER, self._n, self._kd, self._ab, self._ldab, ctypes.addressof(info))
        return info.value

    def _solve_at(self, address, nrhs):
        """``pbtrs`` in place on the ``nrhs`` right-hand sides of n float64
        values each that start at memory ``address``, one after another."""
        nrhs, info = ctypes.c_int(nrhs), ctypes.c_int()
        _DPBTRS(_UPPER, self._n, self._kd, ctypes.addressof(nrhs), self._ab, self._ldab, address, self._n,
                ctypes.addressof(info))
        if info.value != 0:
            raise ValueError(f"banded Cholesky solve failed (LAPACK info {info.value})")

    def __call__(self, b):
        x = np.array(b, dtype=np.float64, order="F")
        if x.size % self.n:
            raise ValueError(f"{x.size} values are no whole number of right-hand sides of {self.n}")
        self._solve_at(x.ctypes.data, x.size // self.n)
        return x


class SegmentSolves:
    """Solves, in place, of consecutive segments of one float64 buffer:
    segment k, ``y[bounds[k] : bounds[k + 1]]``, by ``solves[k]``.

    A ``CholeskyFactor`` of order n takes its segment of k * n values as k
    right-hand sides, one ``pbtrs`` call that writes into the buffer; any
    other solve is called on its segment and its solution copied back.  A
    call reads the buffer's address once and then runs nothing but the
    LAPACK calls, which release the GIL, so threads that solve disjoint
    ranges of segments hold the GIL only between calls.
    """

    def __init__(self, solves, sizes):
        self.bounds = np.cumsum([0, *sizes]).tolist()
        self._pieces = []  # (solve, right-hand sides or None, byte offset or slice)
        for solve, lo, hi in zip(solves, self.bounds, self.bounds[1:]):
            if not isinstance(solve, CholeskyFactor):
                self._pieces.append((solve, None, slice(lo, hi)))
            elif (hi - lo) % solve.n:
                raise ValueError(f"{hi - lo} values are no whole number of right-hand sides of {solve.n}")
            else:
                self._pieces.append((solve, (hi - lo) // solve.n, 8 * lo))

    def __call__(self, y, lo, hi):
        """Solve segments ``lo`` to ``hi - 1`` of the buffer ``y``."""
        if y.dtype.char != "d" or y.shape != (self.bounds[-1],):
            raise ValueError(f"need a float64 buffer of {self.bounds[-1]} values, got {y.dtype} {y.shape}")
        if lo >= hi:
            return
        # from_buffer takes a writable C-contiguous y only, and reads its address faster than y.ctypes
        base = ctypes.addressof(ctypes.c_char.from_buffer(y))
        for solve, nrhs, at in self._pieces[lo:hi]:
            if nrhs is None:
                y[at] = solve(y[at])
            else:
                solve._solve_at(base + at, nrhs)


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
        or below n * eps * max diag is rejected too.  Returns the
        ``CholeskyFactor``, which solves in the submatrix's numbering.  The
        LAPACK call releases the GIL, so several threads can factor at once.
        """
        ab = self.band(data)[0]
        floor = ab.shape[1] * np.finfo(float).eps * ab[-1].max(initial=0.0)
        factor = CholeskyFactor(ab)
        info = factor.factor()
        if info != 0:
            raise ValueError(f"banded Cholesky failed (LAPACK info {info}): matrix not positive definite")
        pivot = (ab[-1] ** 2).min(initial=np.inf)
        if pivot <= floor:
            raise ValueError(f"banded Cholesky pivot {pivot:.3g} at or below {floor:.3g}: matrix numerically singular")
        return factor

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
