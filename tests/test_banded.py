"""Banded Cholesky and banded LU on patch-local sparse matrices, and the
dense generalized eigensolve, against scipy's wrappers of the same LAPACK
routines."""

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dgbtrf, dgbtrs, dpbtrf

from conftest import own_patch
from mselast.banded import BandSlots, eigh_lowest, node_major_order
from mselast.coefficients import generate_coefficient
from mselast.grid import CoarsePartition, build_fine_mesh
from mselast.spectral import _lu_slots, build_local_eigproblem


def slots_of(A, order):
    """``BandSlots`` of the whole canonical CSR matrix ``A`` in the numbering
    ``order``; they read ``A.data``."""
    return BandSlots.of_submatrix(A.indptr, A.indices, order)


@pytest.fixture(scope="module")
def stiff_contrast_patch():
    """The shift-regularized Neumann elasticity operator K + sigma M of the
    randomized eigensolver on a 100x100 / 10x10 neighborhood at contrast 1e6,
    one on which banded Cholesky meets a non-positive pivot: the eigensolver's
    slots, the values they read and the sparse sum."""
    mesh = build_fine_mesh(100, 100)
    part = CoarsePartition(mesh, 10, 10)
    coeff = generate_coefficient("channels-and-inclusions", mesh, 1e6)
    patch = own_patch(mesh, coeff, part.neighborhoods[37], mesh.boundary_nodes())
    prob = build_local_eigproblem(*patch, "elasticity")
    K, M = prob.K.matrix, prob.M.matrix
    sigma = 1e-8 * K.diagonal().sum() / prob.dim
    slots = _lu_slots(prob.K.pattern, prob.patch_mesh.n_nodes)
    return prob, slots, prob.K.pattern_data + sigma * prob.M.pattern_data, (K + sigma * M).tocsr()


class TestBandedLU:
    def test_cholesky_fails_where_lu_is_needed(self, stiff_contrast_patch):
        _, slots, data, _ = stiff_contrast_patch
        with pytest.raises(ValueError, match="not positive definite"):
            slots.cholesky(data)

    def test_matches_spsolve_at_contrast_1e6(self, stiff_contrast_patch, rng):
        # as in the eigensolver: forcing M-orthogonal to the rigid-body modes,
        # which are deflated from the solution (the shift leaves them at 1/sigma)
        prob, slots, data, A = stiff_contrast_patch
        Z = prob.kernel_basis()
        MZ = prob.M.matrix @ Z
        G = Z.T @ MZ
        F = rng.standard_normal((prob.dim, 4))
        F -= MZ @ np.linalg.solve(G, Z.T @ F)

        def deflate(X):
            return X - Z @ np.linalg.solve(G, MZ.T @ X)

        X = deflate(slots.lu(data)(F))
        Y = deflate(spla.spsolve(A.tocsc(), F))
        assert np.linalg.norm(X - Y) <= 1e-8 * np.linalg.norm(Y)

    def test_order_changes_only_the_band(self, rng):
        n = 40
        R = sp.random(n, n, density=0.1, random_state=3)
        A = (R + R.T + 10.0 * sp.identity(n)).tocsr()
        b = rng.standard_normal(n)
        x_plain = slots_of(A, np.arange(n)).lu(A.data)(b)
        x_ordered = slots_of(A, rng.permutation(n)).lu(A.data)(b)
        assert np.allclose(A @ x_plain, b, rtol=0, atol=1e-12)
        assert np.allclose(x_ordered, x_plain, rtol=0, atol=1e-12)
        assert slots_of(A, np.arange(n)).lu(A.data)(np.column_stack([b, 2 * b])).shape == (n, 2)

    @pytest.mark.parametrize("nrhs", [None, 1, 5])
    def test_bitwise_f2py_dgbtrf_dgbtrs(self, stiff_contrast_patch, nrhs, rng):
        # the ctypes calls make the f2py wrappers' LAPACK calls: same factor,
        # same pivots, same solution bits, for one and for k right-hand sides
        prob, slots, data, _ = stiff_contrast_patch
        ab, kd = slots.lu_band(data)
        factor, piv, info = dgbtrf(ab, kd, kd)
        assert info == 0
        b = rng.standard_normal(prob.dim if nrhs is None else (prob.dim, nrhs))
        x, info = dgbtrs(factor, kd, kd, b[slots.idx], piv)
        assert info == 0
        ref = np.empty_like(x)
        ref[slots.idx] = x
        out = slots.lu(data)(b)
        assert out.shape == b.shape and out.flags.f_contiguous and out.tobytes() == ref.tobytes()

    def test_node_major_order_interleaves_components(self):
        n_nodes = 10
        dofs = np.array([3, 12, 5, 13, 15])  # x of nodes 3, 5; y of 2, 3, 5
        assert list(dofs[node_major_order(dofs, n_nodes)]) == [12, 3, 13, 5, 15]

    def test_singular_matrix_rejected(self):
        A = sp.csr_matrix(np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0], [0.0, 0.0, 1.0]]))
        with pytest.raises(ValueError, match="singular"):
            slots_of(A, np.arange(3)).lu(A.data)


class TestDenseEigensolve:
    """``eigh_lowest`` is the ``sygvx`` call of ``scipy.linalg.eigh`` with
    ``subset_by_index``, bit for bit."""

    @staticmethod
    def assert_bitwise_eigh(A, B, k):
        w, v = sla.eigh(A, B, subset_by_index=[0, k - 1])
        a, b = np.asfortranarray(A), np.asfortranarray(B)
        w_ctypes, v_ctypes = eigh_lowest(a, b, k)
        assert w_ctypes.tobytes() == w.tobytes() and v_ctypes.tobytes() == v.tobytes()
        assert v_ctypes.flags.f_contiguous == v.flags.f_contiguous

    @pytest.mark.parametrize("n,k", [(1, 1), (8, 3), (97, 7), (400, 12)])
    def test_random_spd_pairs(self, n, k, rng):
        X, Y = rng.standard_normal((2, n, n))
        self.assert_bitwise_eigh(X @ X.T, Y @ Y.T + n * np.eye(n), k)

    @pytest.mark.parametrize("kind", ["elasticity", "diffusion"])
    def test_patch_problem(self, kind):
        mesh = build_fine_mesh(40, 40)
        part = CoarsePartition(mesh, 4, 4)
        coeff = generate_coefficient("channels-and-inclusions", mesh, 1e6)
        prob = build_local_eigproblem(*own_patch(mesh, coeff, part.neighborhoods[0], mesh.boundary_nodes()), kind)
        self.assert_bitwise_eigh(prob.K.matrix.toarray(), prob.M.matrix.toarray(), 7)

    def test_overwrites_its_inputs_and_checks_them(self, rng):
        X = rng.standard_normal((6, 6))
        a, b = np.asfortranarray(X @ X.T), np.asfortranarray(np.eye(6))
        before = a.copy()
        eigh_lowest(a, b, 2)
        assert not np.array_equal(a, before)
        with pytest.raises(ValueError, match="Fortran order"):
            eigh_lowest(np.ascontiguousarray(X @ X.T + np.diag(np.arange(6.0))), np.eye(6, order="F"), 2)
        with pytest.raises(ValueError, match="requested 7 eigenpairs of a pencil of order 6"):
            eigh_lowest(np.asfortranarray(X @ X.T), np.eye(6, order="F"), 7)
        with pytest.raises(ValueError, match="mass matrix not positive definite"):
            eigh_lowest(np.asfortranarray(X @ X.T), -np.eye(6, order="F"), 2)


class TestBandedCholesky:
    def test_round_off_pivot_rejected(self):
        # a [[1, 1], [1, 1]] is singular, yet for some a pbtrf leaves a positive
        # pivot of a few ulps instead of failing
        passed_pbtrf = 0
        for a in 1.0 + np.arange(50) / 7.0:
            A = sp.csr_matrix(np.full((2, 2), a))
            passed_pbtrf += dpbtrf(np.array([[0.0, a], [a, a]]))[1] == 0
            with pytest.raises(ValueError, match="numerically singular|not positive definite"):
                slots_of(A, np.arange(2)).cholesky(A.data)
        assert passed_pbtrf > 0
