"""Banded Cholesky and banded LU on patch-local sparse matrices."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from mselast.banded import banded_cholesky, banded_lu, node_major_order
from mselast.coefficients import generate_coefficient
from mselast.grid import CoarsePartition, build_fine_mesh
from mselast.spectral import build_local_eigproblem


@pytest.fixture(scope="module")
def stiff_contrast_patch():
    """The shift-regularized Neumann elasticity operator K + sigma M of the
    randomized eigensolver on a 100x100 / 10x10 neighborhood at contrast 1e6,
    one on which banded Cholesky meets a non-positive pivot."""
    mesh = build_fine_mesh(100, 100)
    part = CoarsePartition(mesh, 10, 10)
    coeff = generate_coefficient("channels-and-inclusions", mesh, 1e6)
    prob = build_local_eigproblem(mesh, coeff, part.neighborhoods[37], "elasticity", mesh.boundary_nodes())
    sigma = 1e-8 * prob.K.diagonal().sum() / prob.dim
    order = node_major_order(prob.free_dofs, prob.patch_mesh.n_nodes)
    return prob, (prob.K + sigma * prob.M).tocsr(), order


class TestBandedLU:
    def test_cholesky_fails_where_lu_is_needed(self, stiff_contrast_patch):
        prob, A, order = stiff_contrast_patch
        with pytest.raises(ValueError, match="not positive definite"):
            banded_cholesky(A[order][:, order])

    def test_matches_spsolve_at_contrast_1e6(self, stiff_contrast_patch, rng):
        # as in the eigensolver: forcing M-orthogonal to the rigid-body modes,
        # which are deflated from the solution (the shift leaves them at 1/sigma)
        prob, A, order = stiff_contrast_patch
        Z = prob.kernel_basis()
        MZ = prob.M @ Z
        G = Z.T @ MZ
        F = rng.standard_normal((prob.dim, 4))
        F -= MZ @ np.linalg.solve(G, Z.T @ F)

        def deflate(X):
            return X - Z @ np.linalg.solve(G, MZ.T @ X)

        X = deflate(banded_lu(A, order)(F))
        Y = deflate(spla.spsolve(A.tocsc(), F))
        assert np.linalg.norm(X - Y) <= 1e-8 * np.linalg.norm(Y)

    def test_order_changes_only_the_band(self, rng):
        n = 40
        A = sp.random(n, n, density=0.1, random_state=3) + 10.0 * sp.identity(n)
        b = rng.standard_normal(n)
        x_plain = banded_lu(A, np.arange(n))(b)
        x_ordered = banded_lu(A, rng.permutation(n))(b)
        assert np.allclose(A @ x_plain, b, rtol=0, atol=1e-12)
        assert np.allclose(x_ordered, x_plain, rtol=0, atol=1e-12)
        assert banded_lu(A, np.arange(n))(np.column_stack([b, 2 * b])).shape == (n, 2)

    def test_node_major_order_interleaves_components(self):
        n_nodes = 10
        dofs = np.array([3, 12, 5, 13, 15])  # x of nodes 3, 5; y of 2, 3, 5
        assert list(dofs[node_major_order(dofs, n_nodes)]) == [12, 3, 13, 5, 15]

    def test_singular_matrix_rejected(self):
        A = sp.csr_matrix(np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0], [0.0, 0.0, 1.0]]))
        with pytest.raises(ValueError, match="singular"):
            banded_lu(A, np.arange(3))
