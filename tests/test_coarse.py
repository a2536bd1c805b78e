"""Coarse-space construction, rotation enrichment, and the coarse operator."""

import dataclasses

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from mselast.assembly import assemble_elasticity, rigid_body_modes
from mselast.coarse import (
    CoarseBasis,
    CoarseOperator,
    assemble_coarse_operator,
    build_coarse_basis,
)
from mselast.coefficients import generate_coefficient
from mselast.grid import CoarsePartition, PartitionOfUnity, build_fine_mesh
from mselast.schwarz import EigOptions, build_selections, get_variant
from mselast.spectral import LocalEigProblem


def setup_problem(nx=40, Nx=4, eta=1.0, include_boundary=False):
    mesh = build_fine_mesh(nx, nx)
    part = CoarsePartition(mesh, Nx, Nx, include_boundary=include_boundary)
    pou = PartitionOfUnity(part)
    coeff = generate_coefficient("channels-and-inclusions", mesh, eta)
    op = assemble_elasticity(mesh, coeff, mesh.boundary_nodes())
    return mesh, part, pou, coeff, op


def coarse_space(tag, problem, n_max, rule=None):
    mesh, part, pou, coeff, op = problem
    variant = get_variant(tag)
    selections = build_selections(variant, op, part, coeff, EigOptions(n_max=n_max, rule=rule))
    return build_coarse_basis(op, part, selections, variant.enrich)


class TestCoarseDimensions:
    def test_elasticity_three_modes_per_node_is_243(self):
        # 10x10 coarse grid, 81 interior nodes x 3 modes
        problem = setup_problem(nx=100, Nx=10)
        basis = coarse_space("EE;Rand", problem, n_max=3)
        assert basis.N_c == 243
        assert all(c == 3 for c in basis.modes_per_center)

    def test_heat_single_mode_162_and_enriched_243(self):
        problem = setup_problem(nx=100, Nx=10)
        basis = coarse_space("EH", problem, n_max=1, rule="fixed")
        assert basis.N_c == 162  # 81 nodes x 1 mode x 2 components
        enriched = coarse_space("EH+Rot", problem, n_max=1, rule="fixed")
        assert enriched.N_c == 243
        assert all(c == 3 for c in enriched.modes_per_center)
        # each center's eigenmode rows, in the same order, then its rotation row
        eig_rows = np.flatnonzero(np.arange(enriched.N_c) % 3 != 2)
        assert (enriched.R0[eig_rows] != basis.R0).nnz == 0

    def test_gram_rank_full(self):
        problem = setup_problem(nx=20, Nx=2, eta=1e4)
        basis = coarse_space("EE", problem, n_max=4)
        s = np.linalg.svd((basis.R0 @ basis.R0.T).toarray(), compute_uv=False)
        assert np.sum(s > 1e-10 * s[0]) == basis.N_c


class TestBasisStructure:
    def test_support_inside_neighborhood(self):
        mesh, part, pou, coeff, op = problem = setup_problem(nx=30, Nx=3)
        basis = coarse_space("EE", problem, n_max=2)
        # rows are grouped by center, modes_per_center modes each
        row = 0
        for center, patch in enumerate(part.neighborhoods):
            inside = set(patch.node_ids(mesh))
            free = op.free_dofs
            for _ in range(basis.modes_per_center[center]):
                vec = basis.R0[row].toarray().ravel()
                for dof in np.nonzero(vec)[0]:
                    node = free[dof] % mesh.n_nodes
                    assert node in inside
                row += 1

    def test_heat_slots_are_componentwise(self):
        mesh, part, pou, coeff, op = problem = setup_problem(nx=20, Nx=2)
        basis = coarse_space("EH", problem, n_max=1, rule="fixed")
        n_free_x = int(np.searchsorted(op.free_dofs, mesh.n_nodes))
        # per center: x-slot row then y-slot row
        x_row = basis.R0[0].toarray().ravel()
        y_row = basis.R0[1].toarray().ravel()
        assert np.all(x_row[n_free_x:] == 0.0)
        assert np.all(y_row[:n_free_x] == 0.0)

    def test_rotation_vanishes_at_own_coarse_node(self):
        mesh, part, pou, coeff, op = problem = setup_problem(nx=20, Nx=2)
        basis = coarse_space("EH", problem, n_max=1, rule="fixed")
        enriched = coarse_space("EH+Rot", problem, n_max=1, rule="fixed")
        free_index = op.free_index()
        rot = enriched.R0[2].toarray().ravel()  # the first center's rotation row
        cx, cy = part.coarse_node_coords(0)
        node = round(cy / mesh.h) * (mesh.nx + 1) + round(cx / mesh.h)
        for dof in (free_index[node], free_index[node + mesh.n_nodes]):
            if dof >= 0:
                assert rot[dof] == 0.0

    def test_double_enrichment_rejected(self):
        # elasticity modes already carry the localized rotation (TestRbmCapture)
        mesh, part, pou, coeff, op = setup_problem(nx=20, Nx=2)
        selections = build_selections(get_variant("EE"), op, part, coeff, EigOptions(n_max=3))
        with pytest.raises(ValueError, match="rotation"):
            build_coarse_basis(op, part, selections, enrich=True)

    def test_selections_must_match_neighborhoods_and_kind(self):
        mesh, part, pou, coeff, op = setup_problem(nx=30, Nx=3)
        opts = EigOptions(n_max=2, rule="fixed")
        elastic = build_selections(get_variant("EE"), op, part, coeff, opts)
        heat = build_selections(get_variant("EH"), op, part, coeff, opts)
        with pytest.raises(ValueError, match="per neighborhood"):
            build_coarse_basis(op, part, elastic[:-1])
        with pytest.raises(ValueError, match="one kind"):
            build_coarse_basis(op, part, elastic[:2] + heat[2:])


    def test_selections_hold_no_matrices(self):
        # a selection is its eigenpairs and where they sit among the patch dofs
        mesh, part, pou, coeff, op = setup_problem(nx=20, Nx=2)
        for tag in ("EE", "EE;Rand", "EH", "EH+Rot;Rand"):
            for sel in build_selections(get_variant(tag), op, part, coeff, EigOptions(n_max=3)):
                for field in dataclasses.fields(sel):
                    value = getattr(sel, field.name)
                    assert not sp.issparse(value) and not isinstance(value, LocalEigProblem)
                    assert isinstance(value, (np.ndarray, str, int)), field.name

    def test_boundary_inclusive_rotation_drops_last_row(self):
        # with every coarse node kept, sum_l chi_l (x - x_l) = 0: all rotation
        # rows together would make the basis rank deficient
        problem = setup_problem(nx=20, Nx=4, eta=1e6, include_boundary=True)
        mesh, part, pou, coeff, op = problem
        basis = coarse_space("EH", problem, n_max=1, rule="fixed")
        enriched = coarse_space("EH+Rot", problem, n_max=1, rule="fixed")
        assert enriched.modes_per_center == [3] * (part.n_neighborhoods - 1) + [2]
        assert enriched.N_c == basis.N_c + part.n_neighborhoods - 1
        assert assemble_coarse_operator(op, enriched).dim == enriched.N_c


def kron_basis(op, part, selections, enrich):
    """R_0 scattered as ``build_coarse_basis`` describes it, with a fresh
    ``PartitionOfUnity`` and the heat modes interleaved by ``np.kron``."""
    mesh, pou, free_index = part.mesh, PartitionOfUnity(part), op.free_index()
    heat = selections[0].kind == "diffusion"
    n_rot = part.n_neighborhoods - part.include_boundary if enrich else 0
    rows, cols, vals, counts = [], [], [], []
    for center, (patch, sel) in enumerate(zip(part.neighborhoods, selections)):
        nodes = patch.node_ids(mesh)
        modes = np.zeros((sel.n_full, sel.n_sel))
        modes[sel.free_dofs] = sel.vectors
        if heat:
            modes = np.vstack([np.kron(modes, [1.0, 0.0]), np.kron(modes, [0.0, 1.0])])
        if center < n_rot:
            xy = mesh.node_coords()[nodes] - part.coarse_node_coords(center)
            modes = np.column_stack([modes, np.concatenate([-xy[:, 1], xy[:, 0]])])
        dofs = np.concatenate([free_index[nodes], free_index[nodes + mesh.n_nodes]])
        block = (np.concatenate([pou.values[center]] * 2)[:, None] * modes)[dofs >= 0].T
        r, c = np.nonzero(block)
        rows.append(sum(counts) + r)
        cols.append(dofs[dofs >= 0][c])
        vals.append(block[r, c])
        counts.append(modes.shape[1])
    shape = (sum(counts), op.n_free)
    return sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=shape).tocsr()


class TestCoarseBitwise:
    """The scatter of R_0 and the Galerkin product K_0 against their plain forms."""

    @pytest.mark.parametrize("include_boundary", [False, True], ids=["interior", "boundary"])
    @pytest.mark.parametrize("tag", ["EE", "HH", "EH+Rot"])
    def test_basis_bitwise_equal_to_kron_scatter(self, tag, include_boundary):
        problem = setup_problem(nx=20, Nx=4, eta=1e6, include_boundary=include_boundary)
        _, part, _, coeff, op = problem
        variant = get_variant(tag)
        selections = build_selections(variant, op, part, coeff, EigOptions(n_max=3))
        R0 = build_coarse_basis(op, part, selections, variant.enrich).R0
        ref = kron_basis(op, part, selections, variant.enrich)
        for a, b in ((R0.indptr, ref.indptr), (R0.indices, ref.indices), (R0.data, ref.data)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("tag", ["EE;Rand", "EH+Rot;Rand"])
    def test_coarse_operator_bitwise_equal_to_triple_product(self, tag):
        problem = setup_problem(nx=40, Nx=4, eta=1e6)
        op, R0 = problem[-1], coarse_space(tag, problem, n_max=3).R0
        coarse, ref = CoarseOperator(op.matrix, R0), sp.csr_matrix(R0 @ op.matrix @ R0.T)
        for a, b in ((coarse.K0.indptr, ref.indptr), (coarse.K0.indices, ref.indices), (coarse.K0.data, ref.data)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert (coarse.R0T != R0.T).nnz == 0 and coarse.R0T.format == "csr"


class TestCoarseOperator:
    def test_symmetric_and_dimension(self):
        problem = setup_problem(nx=20, Nx=2, eta=1e4)
        basis = coarse_space("EE", problem, n_max=3)
        op = problem[-1]
        K0 = assemble_coarse_operator(op, basis).K0
        # symmetric up to the round-off of the products, entry by entry; the
        # band factor reads the upper triangle only
        R0 = abs(basis.R0)
        scale = (R0 @ abs(op.matrix) @ R0.T).toarray()
        assert sp.issparse(K0) and np.all(abs(K0 - K0.T).toarray() <= np.finfo(float).eps * scale)
        assert K0.shape == (basis.N_c, basis.N_c)

    def test_identity_basis_reproduces_operator(self):
        mesh, part, pou, coeff, op = setup_problem(nx=10, Nx=2)
        eye = CoarseBasis(sp.identity(op.n_free, format="csr"), [])
        K0 = assemble_coarse_operator(op, eye).K0
        assert np.allclose(K0.toarray(), op.matrix.toarray(), atol=1e-15)

    def test_rank_deficient_basis_rejected(self):
        mesh, part, pou, coeff, op = setup_problem(nx=10, Nx=2)
        row = sp.csr_matrix(np.ones((2, op.n_free)))  # duplicated row
        with pytest.raises(ValueError):
            assemble_coarse_operator(op, CoarseBasis(row, []))

    def test_nearly_duplicated_basis_row_rejected(self):
        # a basis row equal to another times (1 + 1e-15) leaves Cholesky a
        # pivot at round-off level instead of failing it
        mesh, part, pou, coeff, op = setup_problem(nx=10, Nx=2)
        ones = np.ones(op.n_free)
        rows = sp.csr_matrix(np.vstack([ones, ones * (1.0 + 1e-15)]))
        with pytest.raises(ValueError, match="rank deficient"):
            assemble_coarse_operator(op, CoarseBasis(rows, []))

    def test_round_off_pivot_rejected(self):
        # K0 = a [[1, 1], [1, 1]] is singular, yet for some a Cholesky leaves
        # a positive pivot of a few ulps instead of failing
        passed_cholesky = 0
        for a in 1.0 + np.arange(50) / 7.0:
            K0 = np.full((2, 2), a)
            try:
                sla.cho_factor(K0)
                passed_cholesky += 1
            except np.linalg.LinAlgError:
                pass
            with pytest.raises(ValueError, match="rank deficient"):
                CoarseOperator(sp.csr_matrix(K0), sp.identity(2, format="csr"))
        assert passed_cholesky > 0

    @pytest.mark.parametrize("tag", ["EE", "EH+Rot"])
    def test_apply_inverse_bitwise_equal_to_sparse_transpose_and_solve(self, tag, rng):
        # the solve itself is checked against a dense one in test_properties
        problem = setup_problem(nx=20, Nx=2, eta=1e4)
        coarse = assemble_coarse_operator(problem[-1], coarse_space(tag, problem, n_max=3))
        for r in rng.standard_normal((3, problem[-1].n_free)):
            ref = coarse.R0.T @ coarse.solve(coarse.R0 @ r)
            assert np.array_equal(coarse.apply_inverse(r), ref)

    def test_galerkin_optimality(self, rng):
        mesh, part, pou, coeff, op = problem = setup_problem(nx=20, Nx=2)
        basis = coarse_space("EE", problem, n_max=3)
        coarse = assemble_coarse_operator(op, basis)
        f = rng.standard_normal(op.n_free)
        u0 = coarse.R0.T @ coarse.solve(coarse.R0 @ f)
        A = op.matrix
        u = np.linalg.solve(A.toarray(), f)

        def energy_err(v):
            d = u - v
            return d @ (A @ d)

        base = energy_err(u0)
        for _ in range(20):
            w = rng.standard_normal(basis.N_c)
            assert energy_err(u0 + 1e-3 * (coarse.R0.T @ w)) >= base - 1e-12 * base


class TestRbmCapture:
    """Reproduction of the localized rigid modes chi_l * RBM(omega_l).

    These are exactly the near-kernel components a robust coarse space must
    carry: the elasticity-eigenvector basis contains them by construction,
    the heat basis only reaches the translations (its scalar modes are
    constants here), and rotation enrichment restores the missing mode.
    """

    def build_unconstrained(self, tag, n_max, rule):
        mesh = build_fine_mesh(20, 20)
        part = CoarsePartition(mesh, 4, 4)
        pou = PartitionOfUnity(part)
        coeff = generate_coefficient("homogeneous", mesh, 1.0)
        op = assemble_elasticity(mesh, coeff, ())
        basis = coarse_space(tag, (mesh, part, pou, coeff, op), n_max, rule)
        return mesh, part, pou, basis

    def localized_rbm_residuals(self, mesh, part, pou, basis):
        R0 = basis.R0.toarray()
        worst = [0.0, 0.0, 0.0]
        coords = mesh.node_coords()
        for center in range(part.n_neighborhoods):
            chi = np.zeros(mesh.n_nodes)
            chi[pou.node_ids[center]] = pou.values[center]
            rbm = rigid_body_modes(coords, center=part.coarse_node_coords(center))
            for mode in range(3):
                target = np.concatenate(
                    [chi * rbm[: mesh.n_nodes, mode], chi * rbm[mesh.n_nodes :, mode]]
                )
                coef, *_ = np.linalg.lstsq(R0.T, target, rcond=None)
                res = np.linalg.norm(R0.T @ coef - target) / np.linalg.norm(target)
                worst[mode] = max(worst[mode], res)
        return worst  # x-translation, y-translation, rotation

    def test_elasticity_kind_captures_all_rigid_modes(self):
        mesh, part, pou, basis = self.build_unconstrained("EE", n_max=3, rule="fixed")
        assert max(self.localized_rbm_residuals(mesh, part, pou, basis)) <= 1e-8

    def test_heat_plus_rot_captures_all_rigid_modes(self):
        mesh, part, pou, basis = self.build_unconstrained("EH+Rot", n_max=1, rule="fixed")
        assert max(self.localized_rbm_residuals(mesh, part, pou, basis)) <= 1e-8

    def test_heat_without_enrichment_misses_rotation(self):
        mesh, part, pou, basis = self.build_unconstrained("EH", n_max=1, rule="fixed")
        res = self.localized_rbm_residuals(mesh, part, pou, basis)
        assert max(res[:2]) <= 1e-8  # translations still fine
        assert res[2] > 1e-3  # the localized rotation is not representable
