"""The package's direct solvers, in LAPACK band storage, and its dense
generalized eigensolve.

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

``eigh_lowest`` (``sygvx``) solves the dense neighborhood eigenproblems.
Every LAPACK routine is called through the function pointers that
``scipy.linalg.cython_lapack`` exports, by ``ctypes``: a ``ctypes`` foreign
call releases the GIL, where scipy's f2py wrappers hold it, so the level-1
threads make these calls at once.  The routines and arguments are those of
the f2py calls, so the bits are the same.
"""

import ctypes
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cython_lapack


def _lapack_routine(capsule, n_args):
    """The LAPACK routine behind a ``cython_lapack`` capsule as a ``ctypes``
    function of ``n_args`` pointers; calling it releases the GIL."""
    name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(("PyCapsule_GetName", ctypes.pythonapi))
    pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    return ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * n_args)(pointer(capsule, name(capsule)))


# dpbtrf(uplo, n, kd, ab, ldab, info), dpbtrs(uplo, n, kd, nrhs, ab, ldab, b, ldb, info), dgbtrf(m, n, kl, ku,
# ab, ldab, ipiv, info), dgbtrs(trans, n, kl, ku, nrhs, ab, ldab, ipiv, b, ldb, info) and dsygvx(itype, jobz,
# range, uplo, n, a, lda, b, ldb, vl, vu, il, iu, abstol, m, w, z, ldz, work, lwork, iwork, ifail, info)
_DPBTRF = _lapack_routine(cython_lapack.__pyx_capi__["dpbtrf"], 6)
_DPBTRS = _lapack_routine(cython_lapack.__pyx_capi__["dpbtrs"], 9)
_DGBTRF = _lapack_routine(cython_lapack.__pyx_capi__["dgbtrf"], 8)
_DGBTRS = _lapack_routine(cython_lapack.__pyx_capi__["dgbtrs"], 11)
_DSYGVX = _lapack_routine(cython_lapack.__pyx_capi__["dsygvx"], 23)
_LETTERS = ctypes.create_string_buffer(b"ULNVI")  # LAPACK's option letters, kept alive here
_UPPER, _LOWER, _NO_TRANSPOSE, _VECTORS, _BY_INDEX = (ctypes.addressof(_LETTERS) + i for i in range(5))


def _ints(*values):
    """The C ints ``values`` (keep them while LAPACK may use them) and the address of each."""
    ints = (ctypes.c_int * len(values))(*values)
    return ints, [ctypes.addressof(ints) + ctypes.sizeof(ctypes.c_int) * i for i in range(len(values))]


class CholeskyFactor:
    """A banded Cholesky factor U^T U of an SPD matrix of order n, in
    ``pbtrf``'s upper band storage.  Calling it solves a copy of ``b``, of
    shape (n,) or (n, k), or of k * n values one right-hand side after
    another: one ``pbtrs`` call with k right-hand sides."""

    def __init__(self, ab):
        self.ab = np.asfortranarray(ab, dtype=np.float64)  # (kd + 1, n), factored in place
        self.kd, self.n = self.ab.shape[0] - 1, self.ab.shape[1]
        self._ints, (self._n, self._kd, self._ldab) = _ints(self.n, self.kd, self.kd + 1)
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
    segment k, ``y[bounds[k] : bounds[k + 1]]``, by the ``CholeskyFactor``
    ``solves[k]``.

    A factor of order n takes its segment of k * n values as k right-hand
    sides, one ``pbtrs`` call that writes into the buffer.  ``on`` checks the
    buffer and reads its address once; each segment is then one LAPACK call,
    which releases the GIL, so threads that solve different segments hold
    the GIL only between calls.
    """

    def __init__(self, solves, sizes):
        self.bounds = np.cumsum([0, *sizes]).tolist()
        self._pieces = []  # (factor, right-hand sides, byte offset)
        for solve, lo, hi in zip(solves, self.bounds, self.bounds[1:]):
            if (hi - lo) % solve.n:
                raise ValueError(f"{hi - lo} values are no whole number of right-hand sides of {solve.n}")
            self._pieces.append((solve, (hi - lo) // solve.n, 8 * lo))

    def on(self, y):
        """The function that solves segment k of the buffer ``y`` in place;
        the caller keeps ``y`` alive while it solves."""
        if y.dtype.char != "d" or y.shape != (self.bounds[-1],):
            raise ValueError(f"need a float64 buffer of {self.bounds[-1]} values, got {y.dtype} {y.shape}")
        # from_buffer takes a writable C-contiguous y only, and reads its address faster than y.ctypes
        base, pieces = ctypes.addressof(ctypes.c_char.from_buffer(y)), self._pieces

        def solve(k):
            factor, nrhs, at = pieces[k]
            factor._solve_at(base + at, nrhs)

        return solve


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
        n = self.idx.size
        ints, (p_n, p_kd, p_ldab, p_info) = _ints(n, kd, 3 * kd + 1, 0)
        piv = np.empty(n, dtype=np.int32)
        _DGBTRF(p_n, p_n, p_kd, p_kd, ab.ctypes.data, p_ldab, piv.ctypes.data, p_info)
        if ints[3] != 0:
            raise ValueError(f"banded LU failed (LAPACK info {ints[3]}): matrix is singular")

        def solve(b):
            x = np.asfortranarray(b[self.idx], dtype=np.float64)  # a fresh copy: b[idx] gathers
            ints, (p_n, p_kd, p_nrhs, p_ldab, p_info) = _ints(n, kd, x.size // n, 3 * kd + 1, 0)
            _DGBTRS(_NO_TRANSPOSE, p_n, p_kd, p_kd, p_nrhs, ab.ctypes.data, p_ldab, piv.ctypes.data, x.ctypes.data,
                    p_n, p_info)
            if ints[4] != 0:
                raise ValueError(f"banded LU solve failed (LAPACK info {ints[4]})")
            out = np.empty_like(x)
            out[self.idx] = x
            return out

        return solve


def eigh_lowest(a, b, k):
    """The ``k`` lowest eigenvalues, ascending, and b-orthonormal
    eigenvectors, as columns, of the symmetric-definite pencil (a, b) of
    float64 (n, n) arrays in Fortran order, which are overwritten: LAPACK
    ``dsygvx`` as ``scipy.linalg.eigh(a, b, subset_by_index=[0, k - 1])``
    calls it (lower triangles, ``range = 'I'``, ``abstol = 0``, the work
    size of the ``lwork = -1`` query), bit for bit."""
    n = a.shape[0]
    if not all(x.dtype.char == "d" and x.shape == (n, n) and x.flags.f_contiguous and x.flags.writeable
               for x in (a, b)):
        raise ValueError(f"need writable float64 ({n}, {n}) arrays in Fortran order, got {a.shape} and {b.shape}")
    if not 1 <= k <= n:
        raise ValueError(f"requested {k} eigenpairs of a pencil of order {n}")
    ints, (p_itype, p_n, p_il, p_iu, p_m, p_lwork, p_info) = _ints(1, n, 1, k, 0, -1, 0)
    zero = np.zeros(1)  # abstol, and vl and vu, which range 'I' does not read
    w, z = np.empty(n), np.empty((n, k), order="F")
    iwork, ifail = np.empty(5 * n, dtype=np.int32), np.empty(n, dtype=np.int32)

    def sygvx(work):
        _DSYGVX(p_itype, _VECTORS, _BY_INDEX, _LOWER, p_n, a.ctypes.data, p_n, b.ctypes.data, p_n, zero.ctypes.data,
                zero.ctypes.data, p_il, p_iu, zero.ctypes.data, p_m, w.ctypes.data, z.ctypes.data, p_n,
                work.ctypes.data, p_lwork, iwork.ctypes.data, ifail.ctypes.data, p_info)

    sygvx(query := np.empty(1))  # lwork = -1: the work size
    ints[5] = int(query[0])
    sygvx(np.empty(ints[5]))
    info = ints[6]
    if info > n:
        raise ValueError(f"dense eigensolve failed (LAPACK info {info}): mass matrix not positive definite")
    if info != 0:
        raise ValueError(f"dense eigensolve failed (LAPACK info {info})")
    return w[: ints[4]], z[:, : ints[4]]
