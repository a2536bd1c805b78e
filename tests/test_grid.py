"""Mesh, coarse partition, neighborhood and partition-of-unity tests."""

import numpy as np
import pytest

from mselast import schwarz
from mselast.assembly import assemble_elasticity
from mselast.coefficients import generate_coefficient
from mselast.grid import CoarsePartition, build_fine_mesh


class TestFineMesh:
    def test_small_lattice_counts(self):
        mesh = build_fine_mesh(2, 2)
        assert mesh.n_nodes == 9
        assert mesh.n_elements == 4
        assert mesh.n_dofs == 18

    def test_10x10_counts(self):
        mesh = build_fine_mesh(10, 10)
        assert mesh.n_nodes == 121
        assert mesh.n_elements == 100

    def test_400x400_node_count(self):
        assert build_fine_mesh(400, 400).n_nodes == 160801

    @pytest.mark.parametrize("nx,ny", [(0, 4), (4, 0), (-1, 3)])
    def test_bad_counts_rejected(self, nx, ny):
        with pytest.raises(ValueError):
            build_fine_mesh(nx, ny)

    def test_element_nodes_counterclockwise(self):
        mesh = build_fine_mesh(2, 2)
        assert list(mesh.element_nodes()[0]) == [0, 1, 4, 3]

    def test_boundary_nodes(self):
        mesh = build_fine_mesh(3, 3)
        bn = set(mesh.boundary_nodes())
        assert bn == set(range(16)) - {5, 6, 9, 10}


class TestCoarsePartition:
    def test_100x100_over_10x10(self):
        mesh = build_fine_mesh(100, 100)
        part = CoarsePartition(mesh, 10, 10)
        assert (part.mex, part.mey) == (10, 10)
        assert part.n_neighborhoods == 81
        assert all(p.shape == (20, 20) for p in part.neighborhoods)

    def test_400x400_over_20x20_block_shape(self):
        mesh = build_fine_mesh(400, 400)
        part = CoarsePartition(mesh, 20, 20)
        assert (part.mex, part.mey) == (20, 20)

    def test_smallest_case_single_interior_node(self):
        mesh = build_fine_mesh(4, 4)
        part = CoarsePartition(mesh, 2, 2)
        assert part.n_neighborhoods == 1
        omega = part.neighborhoods[0]
        assert omega.shape == (4, 4)  # covers the whole domain

    def test_non_nested_rejected(self):
        mesh = build_fine_mesh(10, 10)
        with pytest.raises(ValueError):
            CoarsePartition(mesh, 3, 3)

    def test_element_in_at_most_four_neighborhoods(self):
        mesh = build_fine_mesh(30, 30)
        part = CoarsePartition(mesh, 6, 6)
        counts = np.zeros(mesh.n_elements, dtype=int)
        for p in part.neighborhoods:
            counts.reshape(mesh.ny, mesh.nx)[p.ey0 : p.ey1, p.ex0 : p.ex1] += 1
        assert counts.max() <= 4

    def test_include_boundary_keeps_all_coarse_nodes(self):
        mesh = build_fine_mesh(20, 20)
        part = CoarsePartition(mesh, 4, 4, include_boundary=True)
        assert part.n_neighborhoods == 25

    def test_partition_is_a_cache_key(self):
        # a partition is its (mesh, Nx, Ny, include_boundary): the sweep builds
        # one per contrast, and equal ones share the level-1 slots cache entry
        part, same = (CoarsePartition(build_fine_mesh(12, 8), 3, 2) for _ in range(2))
        assert part == same and hash(part) == hash(same)
        for other in (CoarsePartition(build_fine_mesh(12, 4), 3, 2), CoarsePartition(part.mesh, 6, 2),
                      CoarsePartition(part.mesh, 3, 4), CoarsePartition(part.mesh, 3, 2, include_boundary=True)):
            assert part != other
        coeff = generate_coefficient("homogeneous", part.mesh, 1.0)
        op = assemble_elasticity(part.mesh, coeff, part.mesh.boundary_nodes())
        assert schwarz._level1_slots(op.pattern, part) is schwarz._level1_slots(op.pattern, same)

    def test_partition_without_neighborhoods_holds_empty_lists(self):
        part = CoarsePartition(build_fine_mesh(4, 4), 1, 1)
        assert part.n_neighborhoods == 0
        assert part.node_ids == part.interior_node_ids == part.chi == []


class TestPartitionOfUnity:
    def setup_method(self):
        self.mesh = build_fine_mesh(30, 30)
        self.part = CoarsePartition(self.mesh, 6, 6)

    def chi(self, k):
        """chi_k over all fine nodes (zeros outside omega_k)."""
        out = np.zeros(self.mesh.n_nodes)
        out[self.part.node_ids[k]] = self.part.chi[k]
        return out

    def test_unit_value_at_own_coarse_node(self):
        coords = self.mesh.node_coords()
        for k in range(self.part.n_neighborhoods):
            chi = self.chi(k)
            yk = self.part.coarse_node_coords(k)
            node = int(np.argmin(np.linalg.norm(coords - yk, axis=1)))
            assert chi[node] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("include_boundary", [False, True])
    def test_exactly_one_at_own_node_and_zero_on_patch_edge(self, include_boundary):
        # in floating-point coordinates 1 - |x - x_k| / H leaves round-off
        # where it should vanish, which couples centers two apart in K_0
        part = CoarsePartition(self.mesh, 6, 6, include_boundary=include_boundary)
        for (I, J), ids, chi in zip(part.coarse_nodes, part.node_ids, part.chi):
            di = np.abs(ids % (self.mesh.nx + 1) - I * part.mex)
            dj = np.abs(ids // (self.mesh.nx + 1) - J * part.mey)
            assert np.all(chi[(di == part.mex) | (dj == part.mey)] == 0.0)
            assert chi[(di == 0) & (dj == 0)].tolist() == [1.0]

    def test_sums_to_one_at_interior_nodes(self):
        total = sum(self.chi(k) for k in range(self.part.n_neighborhoods))
        interior = np.setdiff1d(
            np.arange(self.mesh.n_nodes), self.mesh.boundary_nodes()
        )
        assert np.all(np.abs(total[interior] - 1.0) <= 1e-12)

    def test_bounded_and_supported_on_neighborhood(self):
        for k in range(self.part.n_neighborhoods):
            chi = self.chi(k)
            assert chi.min() >= 0.0 and chi.max() <= 1.0 + 1e-12
            outside = np.setdiff1d(
                np.arange(self.mesh.n_nodes),
                self.part.node_ids[k],
            )
            assert np.all(chi[outside] == 0.0)
