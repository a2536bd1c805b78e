"""Element matrices, operator assembly, SIMP mapping and density filter."""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.sparse as sp

from mselast import assembly
from mselast.assembly import (
    CoefficientField,
    DensityFilter,
    LoadSpec,
    assemble_diffusion,
    assemble_elasticity,
    assemble_weighted_mass,
    build_load_vector,
    laplace_element_scalar,
    mass_element_scalar,
    rigid_body_modes,
    simp_modulus,
    unit_elasticity_element,
)
from mselast.coefficients import generate_coefficient
from mselast.grid import build_fine_mesh


def homogeneous(mesh, E=1.0, nu=0.3):
    return CoefficientField(np.full(mesh.n_elements, E), nu)


class TestElementStiffness:
    def test_translation_in_kernel(self):
        k = unit_elasticity_element(0.3)
        # component-grouped: 4 x-dofs then 4 y-dofs
        tx = np.array([1, 1, 1, 1, 0, 0, 0, 0], dtype=float)
        assert np.allclose(k @ tx, 0.0, atol=1e-14)

    def test_exactly_three_zero_eigenvalues(self):
        k = unit_elasticity_element(0.3)
        w = np.linalg.eigvalsh(k)
        assert np.sum(np.abs(w) <= 1e-10 * w.max()) == 3

    def test_kernel_is_rigid_body_modes(self):
        h = 0.25  # the 2D element stiffness does not depend on the side
        k = unit_elasticity_element(0.2)
        corners = np.array([[0, 0], [h, 0], [h, h], [0, h]], dtype=float)
        rbm = rigid_body_modes(corners)
        assert np.allclose(k @ rbm, 0.0, atol=1e-12)

    def test_incompressible_rejected(self):
        with pytest.raises(ValueError):
            unit_elasticity_element(0.5)


class TestAssembleElasticity:
    def test_spd_with_full_dirichlet(self):
        mesh = build_fine_mesh(5, 5)
        op = assemble_elasticity(mesh, homogeneous(mesh), mesh.boundary_nodes())
        w = np.linalg.eigvalsh(op.matrix.toarray())
        assert w.min() > 0.0

    def test_center_node_only(self):
        mesh = build_fine_mesh(2, 2)
        op = assemble_elasticity(mesh, homogeneous(mesh), mesh.boundary_nodes())
        assert op.n_free == 2
        w = np.linalg.eigvalsh(op.matrix.toarray())
        assert w.min() > 0.0

    def test_exact_symmetry(self):
        mesh = build_fine_mesh(6, 4)
        E = np.linspace(0.1, 1.0, mesh.n_elements)
        coeff = CoefficientField(E, 0.3)
        A = assemble_elasticity(mesh, coeff, mesh.boundary_nodes()).matrix
        assert (A - A.T).nnz == 0

    def test_unconstrained_annihilates_global_rbms(self):
        mesh = build_fine_mesh(8, 8)
        E = np.linspace(0.5, 2.0, mesh.n_elements)
        coeff = CoefficientField(E, 0.25)
        op = assemble_elasticity(mesh, coeff, ())
        A = op.matrix
        rbm = rigid_body_modes(mesh.node_coords())
        scale = abs(A).max()
        assert np.max(np.abs(A @ rbm)) <= 1e-10 * scale

    def test_simp_at_full_density_matches_homogeneous(self):
        mesh = build_fine_mesh(6, 6)
        E = simp_modulus(np.ones(mesh.n_elements), 3.0, 1e-6, 2.0)
        coeff = CoefficientField(E, 0.3)
        ref = homogeneous(mesh, 2.0)
        A = assemble_elasticity(mesh, coeff, mesh.boundary_nodes()).matrix
        B = assemble_elasticity(mesh, ref, mesh.boundary_nodes()).matrix
        assert (A != B).nnz == 0

    def test_off_diagonal_block_transpose_pair(self):
        mesh = build_fine_mesh(5, 5)
        op = assemble_elasticity(mesh, homogeneous(mesh), mesh.boundary_nodes())
        m = op.n_free // 2
        A = op.matrix.toarray()
        assert np.array_equal(A[:m, m:], A[m:, :m].T)


class TestAssembleDiffusion:
    def test_center_node_value(self):
        # four unit elements around the only free node: hand assembly gives 8/3
        mesh = build_fine_mesh(2, 2)
        op = assemble_diffusion(mesh, np.ones(4), mesh.boundary_nodes())
        assert op.n_free == 1
        assert op.matrix[0, 0] == pytest.approx(8.0 / 3.0, rel=1e-14)

    def test_linear_scaling(self):
        mesh = build_fine_mesh(4, 4)
        kappa = np.linspace(0.5, 1.5, mesh.n_elements)
        A = assemble_diffusion(mesh, kappa, mesh.boundary_nodes()).matrix
        B = assemble_diffusion(mesh, 2 * kappa, mesh.boundary_nodes()).matrix
        assert np.allclose((2 * A - B).data, 0.0, atol=1e-14)

    def test_unconstrained_row_sums_zero(self):
        mesh = build_fine_mesh(5, 3)
        A = assemble_diffusion(mesh, np.ones(mesh.n_elements), ()).matrix
        assert np.allclose(np.asarray(A.sum(axis=1)), 0.0, atol=1e-13)

    def test_nonpositive_coefficient_rejected(self):
        mesh = build_fine_mesh(2, 2)
        with pytest.raises(ValueError):
            assemble_diffusion(mesh, np.zeros(4), ())

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_coefficient_rejected(self, bad):
        kappa = np.ones(4)
        kappa[2] = bad
        with pytest.raises(ValueError, match=f"conductivity must be finite and positive, but element 2 has {bad}"):
            assemble_diffusion(build_fine_mesh(2, 2), kappa, ())


@pytest.mark.parametrize("entry", ["elasticity", "diffusion", "mass"])
@pytest.mark.parametrize("bad", [-1, 25, 30, 1000])
def test_dirichlet_node_outside_the_mesh_rejected(entry, bad):
    # node 30 of a 25-node mesh is a valid vector dof id, not a node
    mesh = build_fine_mesh(4, 4)
    nodes = np.append(mesh.boundary_nodes(), [bad, -1])
    ones = np.ones(mesh.n_elements)
    with pytest.raises(ValueError, match=f"^Dirichlet node {bad} is outside the mesh of 25 nodes$"):
        if entry == "elasticity":
            assemble_elasticity(mesh, homogeneous(mesh), nodes)
        elif entry == "diffusion":
            assemble_diffusion(mesh, ones, nodes)
        else:
            assemble_weighted_mass(mesh, ones, "elasticity", nodes)


class TestWeightedMass:
    def test_positive_definite(self, rng):
        mesh = build_fine_mesh(4, 4)
        w = rng.uniform(0.5, 2.0, mesh.n_elements)
        for kind in ("elasticity", "diffusion"):
            M = assemble_weighted_mass(mesh, w, kind).matrix
            for _ in range(5):
                u = rng.standard_normal(M.shape[0])
                assert u @ (M @ u) > 0.0

    def test_unit_element_mass_sums_to_area(self):
        mesh = build_fine_mesh(1, 1)
        M = assemble_weighted_mass(mesh, np.ones(1), "diffusion").matrix
        assert M.sum() == pytest.approx(1.0, rel=1e-14)
        Mv = assemble_weighted_mass(mesh, np.ones(1), "elasticity").matrix
        assert Mv.sum() == pytest.approx(2.0, rel=1e-14)  # one per component

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_weight_rejected(self, bad):
        weight = np.ones(9)
        weight[4] = bad
        with pytest.raises(ValueError, match=f"weight must be finite and positive, but element 4 has {bad}"):
            assemble_weighted_mass(build_fine_mesh(3, 3), weight, "elasticity")

    def test_linear_in_weight(self):
        mesh = build_fine_mesh(3, 3)
        w = np.linspace(1.0, 2.0, mesh.n_elements)
        A = assemble_weighted_mass(mesh, w, "diffusion").matrix
        B = assemble_weighted_mass(mesh, 2 * w, "diffusion").matrix
        assert np.allclose((2 * A - B).data, 0.0, atol=1e-15)

    @pytest.mark.parametrize("clamped", [False, True])
    def test_vector_mass_is_bitwise_the_full_element_scatter(self, clamped):
        # the scatter of the 8x8 element matrices [[m, 0], [0, m]] over the
        # vector dofs against block_diag(S, S) of the scalar mass, and on
        # the pattern of the elasticity operator
        mesh = build_fine_mesh(30, 20)
        coeff = generate_coefficient("channels-and-inclusions", mesh, 1e6)
        nodes = mesh.boundary_nodes() if clamped else np.array([], dtype=np.int64)
        op = assemble_weighted_mass(mesh, coeff.values, "elasticity", nodes)
        S = assemble_weighted_mass(mesh, coeff.values, "diffusion", nodes)
        ref = sp.block_diag([S.matrix, S.matrix], format="csr")
        assert op.matrix.format == "csr" and op.n_full == mesh.n_dofs
        assert np.array_equal(op.free_dofs, np.concatenate([S.free_dofs, S.free_dofs + mesh.n_nodes]))
        for attr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(op.matrix, attr), getattr(ref, attr))
        assert op.pattern is assemble_elasticity(mesh, coeff, nodes).pattern


class TestSimpModulus:
    def test_endpoints(self):
        assert simp_modulus(np.array(1.0), 3, 1e-6, 5.0) == pytest.approx(5.0)
        assert simp_modulus(np.array(0.0), 3, 1e-6, 5.0) == pytest.approx(1e-6)

    def test_midpoint_cubic(self):
        assert simp_modulus(np.array(0.5), 3, 0.0, 1.0) == pytest.approx(0.125)

    def test_monotone(self):
        rho = np.linspace(0, 1, 11)
        E = simp_modulus(rho, 3, 1e-6, 1.0)
        assert np.all(np.diff(E) > 0)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            simp_modulus(np.array(1.5), 3, 0.0, 1.0)


class TestDensityFilter:
    def test_constant_field_unchanged(self):
        mesh = build_fine_mesh(6, 6)
        rho = np.full(mesh.n_elements, 0.42)
        assert np.allclose(DensityFilter(mesh, 2.5 * mesh.h).apply(rho), 0.42, atol=1e-14)

    @pytest.mark.parametrize("radius", [-0.1, np.inf, np.nan])
    def test_radius_not_finite_and_nonnegative_rejected(self, radius):
        with pytest.raises(ValueError, match=f"^filter radius must be finite and nonnegative, got {radius}$"):
            DensityFilter(build_fine_mesh(4, 4), radius)

    def test_sub_element_radius_is_identity(self, rng):
        mesh = build_fine_mesh(5, 5)
        rho = rng.uniform(0, 1, mesh.n_elements)
        assert np.array_equal(DensityFilter(mesh, 0.5 * mesh.h).apply(rho), rho)

    def test_single_spike_peak_value(self):
        # oracle: sum the cone weights around the centering element directly
        mesh = build_fine_mesh(5, 5)
        r = 2.5 * mesh.h
        rho = np.zeros(mesh.n_elements)
        center = 12  # element (2, 2)
        rho[center] = 1.0
        c = mesh.element_centroids()
        wts = np.maximum(0.0, r - np.linalg.norm(c - c[center], axis=1))
        expected = wts[center] / wts.sum()
        got = DensityFilter(mesh, r).apply(rho)
        assert got[center] == pytest.approx(expected, rel=1e-12)

    def test_convex_combination_bounds(self, rng):
        mesh = build_fine_mesh(8, 8)
        rho = rng.uniform(0, 1, mesh.n_elements)
        rho_f = DensityFilter(mesh, 3 * mesh.h).apply(rho)
        assert rho_f.min() >= rho.min() - 1e-14
        assert rho_f.max() <= rho.max() + 1e-14

    def test_adjoint_consistent_with_matrix(self, rng):
        mesh = build_fine_mesh(6, 6)
        filt = DensityFilter(mesh, 2.5 * mesh.h)
        x = rng.standard_normal(mesh.n_elements)
        y = rng.standard_normal(mesh.n_elements)
        assert y @ filt.apply(x) == pytest.approx(x @ filt.adjoint(y), rel=1e-12)


class TestLoadsAndIO:
    def test_point_load_lands_on_dof(self):
        mesh = build_fine_mesh(4, 4)
        f = build_load_vector(mesh, LoadSpec(point_loads=[(7, 1, -2.5)]))
        assert f[7 + mesh.n_nodes] == -2.5
        assert np.count_nonzero(f) == 1

    def test_body_force_total(self):
        mesh = build_fine_mesh(4, 4)
        f = build_load_vector(mesh, LoadSpec(body_force=(0.0, -1.0)))
        # total vertical load equals area times force density
        assert f[mesh.n_nodes :].sum() == pytest.approx(-1.0, rel=1e-12)
        assert np.allclose(f[: mesh.n_nodes], 0.0)

    def test_coefficient_text_round_trip(self, tmp_path, rng):
        mesh = build_fine_mesh(6, 4)
        E = rng.uniform(1e-4, 1.0, mesh.n_elements)
        coeff = CoefficientField(E, 0.3)
        path = tmp_path / "field.txt"
        coeff.to_text(path, mesh)
        back = CoefficientField.from_text(path, nu=0.3)
        assert np.allclose(back.values, E, rtol=1e-12)


def _coo_mirror_reference(element_dofs, mats, n_dofs, free):
    """Sum element matrices through COO, mirror, then slice the free dofs."""
    width = element_dofs.shape[1]
    rows = np.repeat(element_dofs, width, axis=1).ravel()
    cols = np.tile(element_dofs, (1, width)).ravel()
    A = sp.coo_matrix((mats.ravel(), (rows, cols)), shape=(n_dofs, n_dofs)).tocsr()
    A = 0.5 * (A + A.T)
    return A[free][:, free].tocsr()


def assemble_kind(kind, mesh, E, dirichlet_nodes, nu=0.3):
    """(operator, element dofs, element matrix) for one of the four operator kinds."""
    Me = mass_element_scalar(mesh.h)
    if kind == "elasticity":
        op = assemble_elasticity(mesh, CoefficientField(E, nu), dirichlet_nodes)
        return op, mesh.element_dofs(), unit_elasticity_element(nu)
    if kind == "diffusion":
        return assemble_diffusion(mesh, E, dirichlet_nodes), mesh.element_nodes(), laplace_element_scalar()
    if kind == "mass-elasticity":
        Me2 = np.zeros((8, 8))
        Me2[:4, :4] = Me2[4:, 4:] = Me
        return assemble_weighted_mass(mesh, E, "elasticity", dirichlet_nodes), mesh.element_dofs(), Me2
    return assemble_weighted_mass(mesh, E, "diffusion", dirichlet_nodes), mesh.element_nodes(), Me


def _assemble_both(kind, mesh, E, dirichlet_nodes):
    """(operator, reference matrix) for one of the four operator kinds."""
    op, dofs, Ke = assemble_kind(kind, mesh, E, dirichlet_nodes)
    return op, _coo_mirror_reference(dofs, E[:, None, None] * Ke, op.n_full, op.free_dofs)


def bincount_reference(element_dofs, mats, n_full, free):
    """The element-order scatter the sparse product replaced: the slot of
    every term by ``np.unique``'s inverse, the terms E_e * K_e summed into
    their slots by one ``np.bincount`` in element order, then the zeros
    dropped.  Returns the matrix and the values on every pattern entry."""
    n = free.size
    index = np.full(n_full, -1, dtype=np.int64)
    index[free] = np.arange(n)
    r = index[element_dofs]
    key = r[:, :, None] * n + r[:, None, :]
    constrained = r < 0
    key[constrained[:, :, None] | constrained[:, None, :]] = n * n
    uniq, slot = np.unique(key.ravel(), return_inverse=True)
    data = np.bincount(slot, weights=mats.ravel(), minlength=uniq.size)[uniq < n * n]
    uniq = uniq[uniq < n * n]
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(uniq // n, minlength=n), out=indptr[1:])
    keep = data != 0.0
    kept_before = np.concatenate([[0], np.cumsum(keep)])
    A = sp.csr_matrix((data[keep], (uniq % n).astype(np.int32)[keep], kept_before[indptr]), shape=(n, n))
    return A, data


def assert_bitwise_the_bincount_scatter(op, element_dofs, element, E):
    A, data = bincount_reference(element_dofs, E[:, None, None] * element, op.n_full, op.free_dofs)
    for got, want in [(op.matrix.indptr, A.indptr), (op.matrix.indices, A.indices), (op.matrix.data, A.data),
                      (op.pattern_data, data)]:
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


OPERATOR_KINDS = ("elasticity", "diffusion", "mass-elasticity", "mass-diffusion")


class TestScatterAssembly:
    """The sparse-product assembly against a plain COO-plus-mirror reference
    and, bit for bit, against the element-order ``np.bincount`` scatter."""

    def _check(self, op, ref):
        A = op.matrix
        assert A.nnz == ref.nnz
        assert abs(A - ref).max() <= 1e-15 * abs(ref).max()
        assert (A - A.T).nnz == 0

    @pytest.mark.parametrize("kind", OPERATOR_KINDS)
    @pytest.mark.parametrize("clamped", [False, True])
    def test_matches_coo_mirror_reference(self, kind, clamped, rng):
        mesh = build_fine_mesh(30, 20)
        E = rng.uniform(1e-3, 1.0, mesh.n_elements)
        nodes = mesh.boundary_nodes() if clamped else np.array([], dtype=np.int64)
        self._check(*_assemble_both(kind, mesh, E, nodes))

    @pytest.mark.parametrize("kind", OPERATOR_KINDS)
    @pytest.mark.parametrize("clamped", [False, True])
    @pytest.mark.parametrize("field", ["uniform", "two-valued", "random"])
    def test_bitwise_the_bincount_scatter(self, kind, clamped, field, rng):
        mesh = build_fine_mesh(30, 20)
        E = {
            "uniform": np.ones(mesh.n_elements),
            "two-valued": np.where(rng.random(mesh.n_elements) < 0.5, 1e-6, 1.0),  # cancels where equal moduli meet
            "random": rng.uniform(1e-3, 1.0, mesh.n_elements),
        }[field]
        nodes = mesh.boundary_nodes() if clamped else np.array([], dtype=np.int64)
        op, dofs, element = assemble_kind(kind, mesh, E, nodes)
        assert_bitwise_the_bincount_scatter(op, dofs, element, E)

    @pytest.mark.parametrize("kind", OPERATOR_KINDS)
    def test_cached_pattern_survives_reuse(self, kind, rng):
        # homogeneous first: its exactly cancelling entries are dropped, which
        # must not touch the cached pattern the heterogeneous field reuses
        mesh = build_fine_mesh(30, 20)
        nodes = mesh.boundary_nodes()[::3]
        first, _ = _assemble_both(kind, mesh, np.ones(mesh.n_elements), nodes)
        self._check(*_assemble_both(kind, mesh, rng.uniform(1e-3, 1.0, mesh.n_elements), nodes))
        again, ref = _assemble_both(kind, mesh, np.ones(mesh.n_elements), nodes)
        self._check(again, ref)
        assert (first.matrix != again.matrix).nnz == 0

    @pytest.mark.parametrize("kind", OPERATOR_KINDS)
    def test_shared_free_dofs_are_read_only(self, kind, rng):
        # every operator of one key shares its pattern's free-dof array, and
        # one where nothing cancels its indptr and indices too, so none may
        # write to them
        mesh = build_fine_mesh(12, 8)
        nodes = mesh.boundary_nodes()
        first, _ = _assemble_both(kind, mesh, rng.uniform(1e-3, 1.0, mesh.n_elements), nodes)
        again, _ = _assemble_both(kind, mesh, np.ones(mesh.n_elements), nodes)
        assert first.pattern is again.pattern and first.free_dofs is again.free_dofs is first.pattern.free
        for shared in (first.pattern.free, first.pattern.indptr, first.pattern.indices):
            assert not shared.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                shared[0] = 0
        # the vector mass keeps its x-y couplings as exact zeros, so its values always cancel
        if kind != "mass-elasticity":
            assert first.matrix.nnz == first.pattern_data.size
            for got, shared in [(first.matrix.indptr, first.pattern.indptr), (first.matrix.indices, first.pattern.indices)]:
                assert np.shares_memory(got, shared) and not got.flags.writeable

    @pytest.mark.parametrize("kind", OPERATOR_KINDS)
    def test_assemblies_on_one_pattern_have_their_own_values(self, kind, rng):
        mesh = build_fine_mesh(12, 8)
        E = rng.uniform(1e-3, 1.0, mesh.n_elements)
        first, _ = _assemble_both(kind, mesh, E, mesh.boundary_nodes())
        again, _ = _assemble_both(kind, mesh, E, mesh.boundary_nodes())
        assert first.pattern is again.pattern
        assert first.pattern_data.tobytes() == again.pattern_data.tobytes()
        for a in (first.matrix.data, first.pattern_data):
            for b in (again.matrix.data, again.pattern_data):
                assert not np.shares_memory(a, b)

    @pytest.mark.parametrize("kind", OPERATOR_KINDS)
    @pytest.mark.parametrize("clamped", [False, True])
    def test_cached_scatter_matrix_holds_no_zero(self, kind, clamped, rng):
        # the vector mass's x-y blocks are exact zeros: S keeps none of their
        # terms, half of every element's 64, and every other term
        mesh = build_fine_mesh(21, 17)
        nodes = mesh.boundary_nodes() if clamped else np.array([], dtype=np.int64)
        op, _, element = assemble_kind(kind, mesh, rng.uniform(1e-3, 1.0, mesh.n_elements), nodes)
        S = assembly._scatter_matrix(op.pattern, element.tobytes())
        assert np.all(S.data != 0.0)
        terms = element.ravel()[op.pattern.terms.data]
        assert S.nnz == np.count_nonzero(terms)
        if kind == "mass-elasticity":
            assert 2 * S.nnz == terms.size

    @pytest.mark.parametrize("kind", ["elasticity", "mass-elasticity"])
    def test_cancelling_field_shares_no_array_with_the_pattern(self, kind):
        mesh = build_fine_mesh(12, 8)
        op, _ = _assemble_both(kind, mesh, np.ones(mesh.n_elements), mesh.boundary_nodes())
        assert op.matrix.nnz < op.pattern_data.size
        for got in (op.matrix.indptr, op.matrix.indices, op.matrix.data):
            assert got.flags.writeable
            for shared in (op.pattern.indptr, op.pattern.indices, op.pattern.free):
                assert not np.shares_memory(got, shared)

    def test_threads_that_miss_the_cache_at_once_share_one_pattern(self, rng):
        # the neighborhood eigensolves assemble patches on several threads; a
        # patch's K and M, and every operator of one key, keep one pattern
        mesh = build_fine_mesh(20, 20)
        E, nodes = rng.uniform(1e-3, 1.0, mesh.n_elements), mesh.boundary_nodes()[::2]

        def patch(_):
            return assemble_elasticity(mesh, CoefficientField(E, 0.3), nodes), \
                assemble_weighted_mass(mesh, E, "elasticity", nodes)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                assembly._scatter_pattern.cache_clear()
                with ThreadPoolExecutor(6) as pool:
                    ops = [op for pair in pool.map(patch, range(12), timeout=60) for op in pair]
                assert len({id(op.pattern) for op in ops}) == 1
        finally:
            sys.setswitchinterval(interval)

    def test_exact_cancellations_dropped(self, rng):
        # two-valued field: where equal moduli meet, some couplings cancel
        # exactly; the reference's different summation order leaves round-off
        # there, the element-order sum leaves nothing
        mesh = build_fine_mesh(30, 20)
        E = np.where(rng.random(mesh.n_elements) < 0.5, 1e-6, 1.0)
        op, ref = _assemble_both("elasticity", mesh, E, mesh.boundary_nodes())
        extra = abs(ref) - abs(ref).multiply(op.matrix != 0)
        assert extra.nnz == ref.nnz - op.matrix.nnz > 0
        assert extra.max() <= 1e-16 * abs(ref).max()
        assert abs(op.matrix - ref).max() <= 1e-15 * abs(ref).max()
