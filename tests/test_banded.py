"""Banded Cholesky and banded LU on patch-local sparse matrices."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dpbtrf

from conftest import own_patch
from mselast.banded import BandSlots, node_major_order
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

    def test_node_major_order_interleaves_components(self):
        n_nodes = 10
        dofs = np.array([3, 12, 5, 13, 15])  # x of nodes 3, 5; y of 2, 3, 5
        assert list(dofs[node_major_order(dofs, n_nodes)]) == [12, 3, 13, 5, 15]

    def test_singular_matrix_rejected(self):
        A = sp.csr_matrix(np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0], [0.0, 0.0, 1.0]]))
        with pytest.raises(ValueError, match="singular"):
            slots_of(A, np.arange(3)).lu(A.data)


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
