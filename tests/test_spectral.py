"""Local generalized eigenproblems: dense solver, randomized solver, selection."""

import warnings

import numpy as np
import pytest

from conftest import PATCH_GEOMETRIES, make_patch_problem
from mselast.spectral import (
    select_modes,
    solve_local_eig_dense,
    solve_local_eig_randomized,
)


class TestLocalEigProblem:
    def test_matrices_symmetric_and_definite(self):
        prob = make_patch_problem(6, "elasticity", 1e4, PATCH_GEOMETRIES["one-inclusion"])
        K, M = prob.K.matrix.toarray(), prob.M.matrix.toarray()
        assert np.allclose(K, K.T, atol=1e-14)
        assert np.allclose(M, M.T, atol=1e-16)
        assert np.linalg.eigvalsh(M).min() > 0.0
        assert np.linalg.eigvalsh(K).min() >= -1e-10 * np.abs(K).max()


class TestDenseSolver:
    def test_neumann_elasticity_rbm_kernel(self):
        prob = make_patch_problem(6, "elasticity", 1.0, [])
        sel = solve_local_eig_dense(prob, 6)
        lam = sel.eigenvalues
        assert np.all(np.abs(lam[:3]) <= 1e-9 * lam[3])
        assert lam[3] > 0

    def test_neumann_diffusion_constant_kernel(self):
        prob = make_patch_problem(6, "diffusion", 1.0, [])
        sel = solve_local_eig_dense(prob, 4)
        lam = sel.eigenvalues
        assert abs(lam[0]) <= 1e-9 * lam[1]
        assert lam[1] > 0

    def test_two_inclusions_six_small_modes(self):
        prob = make_patch_problem(
            10, "elasticity", 1e6, PATCH_GEOMETRIES["two-inclusions"]
        )
        lam = solve_local_eig_dense(prob, 8).eigenvalues
        assert np.sum(lam[:7] < 1e-3 * lam[6]) == 6

    def test_ascending_and_m_orthonormal(self):
        prob = make_patch_problem(8, "elasticity", 1e4, PATCH_GEOMETRIES["one-inclusion"])
        sel = solve_local_eig_dense(prob, 8)
        assert np.all(np.diff(sel.eigenvalues) >= -1e-12)
        G = sel.vectors.T @ (prob.M.matrix @ sel.vectors)
        assert np.allclose(G, np.eye(8), atol=1e-8)

    def test_eigen_residual(self):
        prob = make_patch_problem(8, "diffusion", 1e4, PATCH_GEOMETRIES["channel"])
        sel = solve_local_eig_dense(prob, 6)
        K, M = prob.K.matrix, prob.M.matrix
        Knorm = np.abs(K).max()
        for lam, phi in zip(sel.eigenvalues, sel.vectors.T):
            res = K @ phi - lam * (M @ phi)
            assert np.linalg.norm(res) <= 1e-8 * Knorm * np.linalg.norm(phi)


class TestSelectionForm:
    """A selection's vectors live on every dof of the closed patch."""

    @pytest.mark.parametrize("kind", ["elasticity", "diffusion"])
    @pytest.mark.parametrize("randomized", [False, True], ids=["dense", "randomized"])
    def test_zero_on_constrained_dofs_and_m_orthonormal_on_free_ones(self, kind, randomized):
        n = 8  # clamped along the left edge of the patch
        prob = make_patch_problem(n, kind, 1e4, PATCH_GEOMETRIES["one-inclusion"],
                                  dirichlet_nodes=np.arange(0, (n + 1) ** 2, n + 1))
        if randomized:
            sel = solve_local_eig_randomized(prob, 6, n_snapshots=11, seed=0)
        else:
            sel = solve_local_eig_dense(prob, 6)
        assert prob.K.n_free < prob.K.n_full and sel.vectors.shape == (prob.K.n_full, 6)
        assert np.all(np.delete(sel.vectors, prob.K.free_dofs, axis=0) == 0.0)
        V = prob.K.restrict(sel.vectors)
        assert np.allclose(V.T @ (prob.M.matrix @ V), np.eye(6), atol=1e-8)


class TestRandomizedSolver:
    def test_rbm_zero_modes_reproduced(self):
        prob = make_patch_problem(8, "elasticity", 1.0, [])
        sel = solve_local_eig_randomized(prob, 6, n_snapshots=11, seed=0)
        dense = solve_local_eig_dense(prob, 6)
        assert np.all(np.abs(sel.eigenvalues[:3]) <= 1e-9 * dense.eigenvalues[3])

    def test_five_percent_oracle_at_contrast_1e4(self):
        prob = make_patch_problem(
            10, "elasticity", 1e4, PATCH_GEOMETRIES["two-inclusions"]
        )
        dense = solve_local_eig_dense(prob, 7)
        lam_d = dense.eigenvalues
        floor = 1e-9 * lam_d[6]
        for seed in range(10):
            lam = solve_local_eig_randomized(prob, 6, n_snapshots=11, seed=seed).eigenvalues
            rel = (lam[:6] - lam_d[:6]) / np.maximum(lam_d[:6], floor)
            assert np.abs(rel).max() <= 0.05
            # Rayleigh-Ritz values never fall below the dense ones (fp slack)
            assert rel.min() >= -1e-3

    def test_within_one_percent_of_the_oracle_off_the_kernel(self):
        # the patches of acceptance criterion 5: every eigenvalue above
        # 1e-6 * lambda_7 is within 0.26% of the dense oracle.  Criterion 5's
        # worst error sits on a kernel eigenvalue, where the oracle's own
        # round-off (about 3e-13 against lambda_7 = 0.0135 on three-blobs,
        # elasticity, contrast 1e4) is divided by the floor 1e-9 * lambda_7
        for solids in PATCH_GEOMETRIES.values():
            for kind in ("elasticity", "diffusion"):
                for eta in (1.0, 1e4):
                    prob = make_patch_problem(10, kind, eta, solids)
                    lam_d = solve_local_eig_dense(prob, 7).eigenvalues
                    above = lam_d[:6] > 1e-6 * lam_d[6]
                    for n_snapshots in (10, 15):
                        lam = solve_local_eig_randomized(prob, 6, n_snapshots=n_snapshots).eigenvalues
                        assert np.all(np.abs(lam[:6] - lam_d[:6])[above] <= 0.01 * lam_d[:6][above])

    def test_deterministic_given_seed(self):
        prob = make_patch_problem(8, "diffusion", 1e4, PATCH_GEOMETRIES["channel"])
        a = solve_local_eig_randomized(prob, 5, n_snapshots=10, seed=7)
        b = solve_local_eig_randomized(prob, 5, n_snapshots=10, seed=7)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.vectors, b.vectors)

    def test_near_degenerate_basis_never_fails(self):
        # more snapshots than independent directions: the SVD cutoff may shrink
        # the basis (with a warning) but the solve must still succeed
        prob = make_patch_problem(2, "elasticity", 1.0, [])  # 18 dofs, 3 RBMs
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            sel = solve_local_eig_randomized(prob, 6, n_snapshots=17, seed=0)
        assert sel.eigenvalues.size >= 6
        dense = solve_local_eig_dense(prob, 6)
        assert np.allclose(sel.eigenvalues[3:6], dense.eigenvalues[3:6], rtol=1e-6)

    def test_too_few_snapshots_rejected(self):
        prob = make_patch_problem(4, "diffusion", 1.0, [])
        with pytest.raises(ValueError):
            solve_local_eig_randomized(prob, 6, n_snapshots=3)


class TestSelectModes:
    def test_fixed_keeps_cap(self):
        prob = make_patch_problem(6, "elasticity", 1.0, [])
        sel = solve_local_eig_dense(prob, 20)
        assert select_modes(sel, 6, rule="fixed").n_sel == 6

    def test_fixed_keeps_available_when_fewer(self):
        prob = make_patch_problem(6, "elasticity", 1.0, [])
        sel = solve_local_eig_dense(prob, 4)
        assert select_modes(sel, 6, rule="fixed").n_sel == 4

    def test_gap_homogeneous_selects_constant_only(self):
        prob = make_patch_problem(8, "diffusion", 1.0, [])
        sel = solve_local_eig_dense(prob, 7)
        assert select_modes(sel, 6, rule="gap").n_sel == 1

    def test_gap_rejected_for_elasticity(self):
        prob = make_patch_problem(6, "elasticity", 1.0, [])
        sel = solve_local_eig_dense(prob, 7)
        with pytest.raises(ValueError):
            select_modes(sel, 6, rule="gap")

    def test_gap_counts_disconnected_components(self):
        # c stiff components spanning the patch -> c small eigenvalues selected
        for name, c in [("one-inclusion", 1), ("two-inclusions", 2), ("three-blobs", 3)]:
            prob = make_patch_problem(10, "diffusion", 1e4, PATCH_GEOMETRIES[name])
            sel = solve_local_eig_dense(prob, 7)
            assert select_modes(sel, 6, rule="gap").n_sel == c, name

    def test_unknown_rule_rejected(self):
        prob = make_patch_problem(4, "diffusion", 1.0, [])
        sel = solve_local_eig_dense(prob, 3)
        with pytest.raises(ValueError):
            select_modes(sel, 3, rule="bogus")
