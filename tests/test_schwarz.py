"""Two-level Schwarz preconditioners and the displacement-splitting bound."""

import hashlib
import os
import re
import subprocess
import sys
import textwrap
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dpbtrf, dpbtrs

from conftest import own_patch
from mselast.assembly import SymmetricSparseOperator, assemble_diffusion, assemble_elasticity
from mselast.banded import BandSlots, CholeskyFactor, node_major_order
from mselast.coefficients import generate_coefficient
from mselast.grid import CoarsePartition, build_fine_mesh
from mselast import schwarz, spectral, threads
from mselast.krylov import estimate_condition, pcg_solve
from mselast.schwarz import (
    VARIANTS,
    EigOptions,
    TwoLevelPreconditioner,
    block_split_condition_bound,
    block_split_preconditioner,
    build_level1,
    build_preconditioner,
    build_selections,
    get_variant,
    part_keys,
)


ROOT = Path(__file__).resolve().parent.parent


def setup_problem(nx=40, Nx=4, eta=1e4, layout="channels-and-inclusions", nu=0.3):
    mesh = build_fine_mesh(nx, nx)
    part = CoarsePartition(mesh, Nx, Nx)
    coeff = generate_coefficient(layout, mesh, eta, nu=nu)
    op = assemble_elasticity(mesh, coeff, mesh.boundary_nodes())
    return mesh, part, coeff, op


class TestVariantTable:
    def test_all_eight_tags_present(self):
        assert set(VARIANTS) == {
            "EE", "EE;Rand", "HH", "HH+Rot", "EH", "EH+Rot", "EH+Rot;Rand", "None",
        }

    def test_none_has_no_level1_and_no_coarse_space(self):
        v = get_variant("None")
        assert v.level1 is None and v.eig_kind is None and not v.randomized and not v.enrich

    def test_tag_determines_structure(self):
        assert get_variant("HH").level1 == "heat"
        assert get_variant("HH").eig_kind == "heat"
        assert not get_variant("HH").enrich
        assert get_variant("EH+Rot;Rand").level1 == "elasticity"
        assert get_variant("EH+Rot;Rand").randomized
        assert get_variant("EH+Rot;Rand").enrich
        assert get_variant("EE").eig_kind == "elasticity"

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError, match="'None'"):
            get_variant("XX")

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match=r"^eigensolver seed must be >= 0, got -1$"):
            EigOptions(seed=-1)

    def test_bad_mode_count_rejected(self):
        with pytest.raises(ValueError, match=r"^mode cap must be >= 1, got 0$"):
            EigOptions(n_max=0)

    def test_unknown_rule_rejected_before_any_eigensolve(self, monkeypatch):
        # select_modes would reject it only after every eigensolve
        calls = []

        def solve(*args, **kw):
            calls.append(args)
            return dense(*args, **kw)

        dense = spectral.solve_local_eig_dense
        monkeypatch.setattr(spectral, "solve_local_eig_dense", solve)
        _, part, coeff, op = setup_problem(nx=8, Nx=2)
        with pytest.raises(ValueError, match=r"^unknown selection rule 'bogus', expected 'fixed' or 'gap'$"):
            build_preconditioner("EE", op, part, coeff, EigOptions(rule="bogus"))
        assert not calls
        build_preconditioner("EE", op, part, coeff, EigOptions(n_max=2))
        assert calls  # the wrapper is the solver the build calls

    @pytest.mark.parametrize("tag", ["EE", "EE;Rand"])
    def test_gap_rule_for_elasticity_rejected_before_level1(self, tag, monkeypatch):
        # select_modes would reject it only after every eigensolve
        def build(*args):
            raise AssertionError("level 1 was built")

        monkeypatch.setattr(schwarz, "build_level1", build)
        _, part, coeff, op = setup_problem(nx=8, Nx=2)
        with pytest.raises(ValueError, match=f"^variant {re.escape(tag)}: the gap rule is not reliable"):
            build_preconditioner(tag, op, part, coeff, EigOptions(rule="gap"))
        assert schwarz.selection_rule(get_variant(tag), EigOptions()) == "fixed"
        for heat_or_none in ("EH", "None"):
            assert schwarz.selection_rule(get_variant(heat_or_none), EigOptions()) == "gap"
            assert schwarz.selection_rule(get_variant(heat_or_none), EigOptions(rule="fixed")) == "fixed"


class TestApply:
    def setup_method(self):
        self.mesh, self.part, self.coeff, self.op = setup_problem(nx=20, Nx=2)
        self.precond = build_preconditioner("EE", self.op, self.part, self.coeff, EigOptions(n_max=3))

    def test_zero_maps_to_zero(self):
        z = self.precond.apply(np.zeros(self.op.n_free))
        assert np.all(z == 0.0)

    def test_symmetric_on_random_pairs(self, rng):
        for _ in range(10):
            v = rng.standard_normal(self.op.n_free)
            w = rng.standard_normal(self.op.n_free)
            a = v @ self.precond.apply(w)
            b = w @ self.precond.apply(v)
            assert a == pytest.approx(b, rel=1e-10)

    def test_positive_on_nonzero(self, rng):
        for _ in range(5):
            r = rng.standard_normal(self.op.n_free)
            assert r @ self.precond.apply(r) > 0.0

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            self.precond.apply(np.zeros(3))

    def test_identity_variant_is_passthrough(self, rng):
        ident = build_preconditioner("None", self.op, self.part, self.coeff)
        assert type(ident) is TwoLevelPreconditioner and ident.coarse is None and ident.coarse_dim == 0
        r = rng.standard_normal(self.op.n_free)
        z = ident.apply(r)
        assert z is not r and z.tobytes() == r.tobytes()

    def test_identity_variant_needs_no_subdomains(self, rng):
        # a 1x1 coarse grid has no interior coarse node, so no subdomain
        mesh = build_fine_mesh(6, 4)
        coeff = generate_coefficient("homogeneous", mesh, 1.0)
        op = assemble_elasticity(mesh, coeff, mesh.boundary_nodes())
        ident = build_preconditioner("None", op, CoarsePartition(mesh, 1, 1), coeff)
        r = rng.standard_normal(op.n_free)
        assert ident.apply(r).tobytes() == r.tobytes()

    def test_exact_single_subdomain_solves_in_one_iteration(self, rng):
        # whole domain as the only subdomain, no coarse level: apply = K^-1
        order = node_major_order(self.op.free_dofs, self.mesh.n_nodes)
        factor = BandSlots.of_submatrix(self.op.pattern.indptr, self.op.pattern.indices, order).cholesky(
            self.op.pattern_data)
        precond = TwoLevelPreconditioner([(order, factor)], None, self.op.n_free, {})
        b = rng.standard_normal(self.op.n_free)
        _, report = pcg_solve(self.op.matrix, b, precond, tol=1e-8)
        assert report.iterations == 1


LEVEL1_MESHES = [
    pytest.param(30, 30, 3, 3, False, id="30x30/3x3"),
    pytest.param(30, 20, 3, 2, False, id="30x20/3x2"),
    pytest.param(30, 20, 3, 2, True, id="30x20/3x2-boundary"),
]


def level1_problem(nx, ny, Nx, Ny, include_boundary, eta=1e6):
    mesh = build_fine_mesh(nx, ny)
    part = CoarsePartition(mesh, Nx, Ny, include_boundary=include_boundary)
    coeff = generate_coefficient("channels-and-inclusions", mesh, eta)
    return mesh, part, coeff, assemble_elasticity(mesh, coeff, mesh.boundary_nodes())


def relative_error(x, ref):
    return np.linalg.norm(x - ref) / np.linalg.norm(ref)


class TestBandedLevel1:
    """The banded Cholesky subdomain solves against spsolve on the same matrices."""

    @pytest.mark.parametrize("nx,ny,Nx,Ny,include_boundary", LEVEL1_MESHES)
    def test_elasticity_solves_match_spsolve(self, nx, ny, Nx, Ny, include_boundary, rng):
        mesh, part, coeff, op = level1_problem(nx, ny, Nx, Ny, include_boundary)
        solvers = build_level1("elasticity", op, part, coeff)
        assert len(solvers) == part.n_neighborhoods
        for idx, solve in solvers:
            K_i = op.matrix[idx][:, idx].tocsc()
            r = rng.standard_normal(idx.size)
            assert relative_error(solve(r), spla.spsolve(K_i, r)) <= 1e-9

    @pytest.mark.parametrize("nx,ny,Nx,Ny,include_boundary", LEVEL1_MESHES)
    def test_heat_solves_match_spsolve(self, nx, ny, Nx, Ny, include_boundary, rng):
        mesh, part, coeff, op = level1_problem(nx, ny, Nx, Ny, include_boundary)
        D = assemble_diffusion(mesh, coeff.values, mesh.boundary_nodes())
        solvers = build_level1("heat", op, part, coeff)
        assert len(solvers) == part.n_neighborhoods
        for idx, solve in solvers:
            m = idx.size // 2
            sidx = idx[:m]
            assert np.array_equal(idx[m:], sidx + D.n_free)
            H_i = D.matrix[sidx][:, sidx].tocsc()
            r = rng.standard_normal(idx.size)
            ref = np.concatenate([spla.spsolve(H_i, r[:m]), spla.spsolve(H_i, r[m:])])
            assert relative_error(solve(r), ref) <= 1e-9

    def test_elasticity_dofs_interleaved_by_node(self):
        mesh, part, coeff, op = level1_problem(30, 30, 3, 3, False)
        solvers = build_level1("elasticity", op, part, coeff)
        for patch, (idx, _) in zip(part.neighborhoods, solvers):
            x_dofs, y_dofs = idx[0::2], idx[1::2]
            assert np.all(y_dofs - x_dofs == op.n_free // 2)
            K_i = op.matrix[idx][:, idx].tocoo()
            row_nodes = patch.shape[0] - 1
            assert np.abs(K_i.row - K_i.col).max() == 2 * row_nodes + 3

    @pytest.mark.parametrize("component", [0, 1], ids=["x", "y"])
    def test_operator_clamped_in_one_component_rejected(self, component):
        # the clamped nodes are read off the operator, so it must clamp x and y alike
        mesh, part, coeff, _ = level1_problem(30, 20, 3, 2, False)
        clamped = mesh.boundary_nodes()
        free = np.setdiff1d(np.arange(mesh.n_dofs), clamped + component * mesh.n_nodes)
        op = assemble_elasticity(mesh, coeff, ())
        op = SymmetricSparseOperator(op.matrix[free][:, free].tocsr(), free, mesh.n_dofs)
        for build in (lambda: build_level1("heat", op, part, coeff),
                      lambda: build_selections(get_variant("EH"), op, part, coeff, EigOptions(n_max=2)),
                      lambda: build_preconditioner("EE", op, part, coeff, EigOptions(n_max=2))):
            with pytest.raises(ValueError, match="one displacement component only") as exc:
                build()
            assert "\n" not in str(exc.value)

    def test_operator_and_partition_on_different_meshes_rejected(self):
        mesh, part, coeff, op = level1_problem(30, 20, 3, 2, False)
        other = CoarsePartition(build_fine_mesh(30, 30), 3, 3)
        with pytest.raises(ValueError, match="one mesh"):
            build_preconditioner("EE", op, other, coeff)

    def test_randomized_eigenproblem_too_small_names_the_neighborhood(self):
        # the one patch keeps only the center node free: 2 dofs against 3 rigid-body modes
        mesh, part, coeff, op = setup_problem(nx=2, Nx=2, eta=1.0, layout="homogeneous")
        message = r"^neighborhood 0: randomized eigenproblem too small: 2 free dofs, fewer than its 3 near-null modes$"
        with pytest.raises(ValueError, match=message):
            build_preconditioner("EE;Rand", op, part, coeff)
        assert build_preconditioner("EE", op, part, coeff).coarse_dim > 0

    def test_operator_built_by_hand_gives_the_same_level1(self, rng):
        # without an assembly pattern level 1 maps the operator's own matrix
        mesh, part, coeff, op = level1_problem(30, 20, 3, 2, False)
        by_hand = SymmetricSparseOperator(op.matrix.copy(), op.free_dofs, op.n_full)
        for kind in ("elasticity", "heat"):
            pairs = zip(build_level1(kind, op, part, coeff), build_level1(kind, by_hand, part, coeff))
            for (idx, solve), (idx_hand, solve_hand) in pairs:
                r = rng.standard_normal(idx.size)
                assert np.array_equal(idx, idx_hand) and np.array_equal(solve(r), solve_hand(r))

    def test_banded_cholesky_rejects_indefinite(self):
        A = sp.csr_matrix(np.array([[2.0, 1.0, 0.0], [1.0, -1.0, 1.0], [0.0, 1.0, 2.0]]))
        with pytest.raises(ValueError, match="not positive definite"):
            BandSlots.of_submatrix(A.indptr, A.indices, np.arange(3)).cholesky(A.data)


class TestVariantBehavior:
    def test_heat_level1_shares_scalar_factorization(self, rng):
        mesh, part, coeff, op = setup_problem(nx=20, Nx=2)
        hh = build_preconditioner("HH", op, part, coeff, EigOptions(n_max=2))
        # symmetric and positive, and PCG converges with it
        v = rng.standard_normal(op.n_free)
        w = rng.standard_normal(op.n_free)
        assert v @ hh.apply(w) == pytest.approx(w @ hh.apply(v), rel=1e-10)
        _, report = pcg_solve(op.matrix, v, hh, tol=1e-6)
        assert report.converged

    def test_coarse_dims_match_at_contrast_one(self):
        problem = setup_problem(nx=40, Nx=4, eta=1.0)
        mesh, part, coeff, op = problem
        ee = build_preconditioner("EE", op, part, coeff, EigOptions(n_max=3))
        eh = build_preconditioner("EH+Rot", op, part, coeff, EigOptions(n_max=3))
        assert ee.coarse_dim == eh.coarse_dim == 3 * part.n_neighborhoods

    def test_iterations_match_at_contrast_one(self, rng):
        mesh, part, coeff, op = setup_problem(nx=40, Nx=4, eta=1.0)
        b = rng.standard_normal(op.n_free)
        iters = {}
        for tag in ("EE", "EH+Rot"):
            precond = build_preconditioner(tag, op, part, coeff, EigOptions(n_max=3))
            _, report = pcg_solve(op.matrix, b, precond, tol=1e-6)
            assert report.converged
            iters[tag] = report.iterations
        assert abs(iters["EE"] - iters["EH+Rot"]) <= 2

    def test_snapshot_count_insensitivity(self, rng, monkeypatch):
        # 10 vs 15 snapshots changes downstream PCG iterations by at most 2
        mesh, part, coeff, op = setup_problem(nx=40, Nx=4, eta=1e4)
        b = rng.standard_normal(op.n_free)
        counts, solve = [], spectral.solve_local_eig_randomized

        def count(prob, k, n_snapshots, **kw):
            counts.append(n_snapshots)
            return solve(prob, k, n_snapshots, **kw)

        monkeypatch.setattr(spectral, "solve_local_eig_randomized", count)
        iters = []
        for n_snap in (10, 15):
            monkeypatch.setattr(spectral, "OVERSAMPLING", n_snap - 6)
            precond = build_preconditioner("EE;Rand", op, part, coeff, EigOptions(n_max=6))
            _, report = pcg_solve(op.matrix, b, precond, tol=1e-6)
            assert report.converged
            iters.append(report.iterations)
        assert sorted(set(counts)) == [10, 15]
        assert abs(iters[0] - iters[1]) <= 2

    def test_preconditioned_operator_positive_ritz(self, rng):
        mesh, part, coeff, op = setup_problem(nx=20, Nx=2, eta=1e4)
        b = rng.standard_normal(op.n_free)
        for tag in ("EE", "HH", "HH+Rot", "EH", "EH+Rot"):
            precond = build_preconditioner(tag, op, part, coeff, EigOptions(n_max=3))
            _, report = pcg_solve(op.matrix, b, precond, tol=1e-6)
            # T_k = L diag(1/alpha) L^T, so all Ritz values are positive
            # exactly when every alpha is
            assert min(report.alphas) > 0.0
            assert report.cond_estimate >= 1.0

    def test_build_info_records_metadata(self):
        mesh, part, coeff, op = setup_problem(nx=20, Nx=2)
        precond = build_preconditioner("EH+Rot", op, part, coeff, EigOptions(n_max=3))
        info = precond.info
        assert info["selection_rule"] == "gap"
        assert len(info["mode_counts"]) == part.n_neighborhoods
        assert info["t_coarse"] >= 0.0
        assert info["reused"] == []

    def test_shared_parts_are_reused_and_timed(self):
        mesh, part, coeff, op = setup_problem(nx=20, Nx=2)
        parts = {}
        first = build_preconditioner("EH+Rot", op, part, coeff, EigOptions(n_max=3), parts)
        assert set(parts) == set(part_keys("EH+Rot"))
        hh = build_preconditioner("HH+Rot", op, part, coeff, EigOptions(n_max=3), parts)
        assert hh.info["reused"] == ["selections", "coarse"]
        assert hh.coarse is first.coarse
        assert hh.info["t_level1"] > 0.0 and hh.info["t_coarse"] == 0.0
        assert hh.info["t_eig"] == first.info["t_eig"] > 0.0
        eh = build_preconditioner("EH", op, part, coeff, EigOptions(n_max=3), parts)
        assert eh.info["reused"] == ["level1", "selections"]
        assert eh.info["t_level1"] == 0.0 and eh.info["t_coarse"] > 0.0
        assert eh._level1 is first._level1
        assert part_keys("None") == ()

    def test_info_is_per_instance(self):
        mesh, part, coeff, op = setup_problem(nx=10, Nx=2, eta=1.0)
        for build in (lambda: build_preconditioner("None", op, part, coeff), lambda: block_split_preconditioner(op)):
            a, b = build(), build()
            a.info["t_build"] = 1.0
            assert b.info == {}


class TestBlockSplitting:
    @pytest.mark.parametrize(
        "nu,expected", [(0.0, 2.0), (0.3, 3.5), (1.0 / 3.0, 4.0)]
    )
    def test_bound_formula(self, nu, expected):
        assert block_split_condition_bound(nu) == pytest.approx(expected, rel=1e-12)

    def test_bound_rejects_incompressible(self):
        with pytest.raises(ValueError):
            block_split_condition_bound(0.5)

    @pytest.mark.parametrize("nu", [0.0, 0.3])
    def test_estimated_condition_within_bound(self, nu, rng):
        mesh, part, coeff, op = setup_problem(
            nx=30, Nx=3, eta=1.0, layout="homogeneous", nu=nu
        )
        precond = block_split_preconditioner(op)
        b = rng.standard_normal(op.n_free)
        _, report = pcg_solve(op.matrix, b, precond, tol=1e-10)
        assert report.converged
        assert estimate_condition(report) <= 1.15 * block_split_condition_bound(nu)

    @pytest.mark.parametrize("nx,ny,nu", [(30, 20, 0.0), (12, 30, 0.45)])
    def test_apply_is_dpbtrs_on_each_block(self, nx, ny, nu, rng):
        # a one-level preconditioner of two pieces, each the banded Cholesky
        # solve of one displacement block, bit for bit
        mesh = build_fine_mesh(nx, ny)
        coeff = generate_coefficient("channels-and-inclusions", mesh, 1e6, nu=nu)
        op = assemble_elasticity(mesh, coeff, mesh.boundary_nodes())
        precond = block_split_preconditioner(op)
        assert type(precond) is TwoLevelPreconditioner and precond.coarse is None and precond.coarse_dim == 0
        m = op.n_free // 2  # every clamped node is clamped in x and y alike
        r = rng.standard_normal(op.n_free)
        ref = np.concatenate([
            dpbtrs(dpbtrf(upper_band(op.matrix[block][:, block].toarray()))[0], r[block])[0]
            for block in (slice(0, m), slice(m, None))
        ])
        assert precond.apply(r).tobytes() == ref.tobytes()


def upper_band(D):
    """The ``pbtrf`` band array of the dense symmetric ``D``, out to its
    outermost nonzero diagonal."""
    i, j = np.nonzero(np.triu(D))
    kd = int((j - i).max())
    ab = np.zeros((kd + 1, D.shape[0]), order="F")
    ab[kd + i - j, j] = D[i, j]
    return ab


def script(source):
    """The command that runs ``source`` in a fresh interpreter, and its
    environment, which imports this checkout's package."""
    return [sys.executable, "-c", textwrap.dedent(source)], {**os.environ, "PYTHONPATH": str(ROOT / "src")}


def run_script(source):
    """Run ``source`` as ``script`` says; it must end within 60 s."""
    cmd, env = script(source)
    return subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=60)


class TestEigenThreads:
    """The neighborhood eigensolves in groups on the level-1 threads."""

    @pytest.mark.parametrize("n_workers", [2, 3])
    @pytest.mark.parametrize("tag", ["EE", "EE;Rand", "EH", "EH+Rot;Rand"])
    @pytest.mark.parametrize("shape", [(30, 20, 3, 2, False), (20, 20, 4, 4, True)],
                             ids=["30x20/3x2", "20x20/4x4-boundary"])
    def test_threads_bitwise_equal_to_one_group(self, tag, shape, n_workers, monkeypatch):
        _, part, coeff, op = level1_problem(*shape)
        opts = EigOptions(n_max=4, seed=7)
        monkeypatch.setattr(threads, "_n_workers", lambda: n_workers)
        threaded = build_selections(get_variant(tag), op, part, coeff, opts)
        monkeypatch.setattr(threads, "_n_workers", lambda: 1)
        serial = build_selections(get_variant(tag), op, part, coeff, opts)
        assert len(threaded) == len(serial) == part.n_neighborhoods > 1
        for a, b in zip(threaded, serial):
            assert np.array_equal(a.eigenvalues, b.eigenvalues)
            assert np.array_equal(a.vectors, b.vectors)

    @pytest.mark.parametrize("n_workers", [1, 2, 3])
    def test_value_error_names_the_first_failing_class(self, n_workers, monkeypatch):
        solve = spectral.solve_local_eig_dense

        def fail_unclamped(prob, k):
            if prob.K.n_free == prob.K.n_full:
                raise ValueError("no clamped node")
            return solve(prob, k)

        monkeypatch.setattr(spectral, "solve_local_eig_dense", fail_unclamped)
        monkeypatch.setattr(threads, "_n_workers", lambda: n_workers)
        # 49 neighborhoods in 3 classes; the interior class is the first to fail, from neighborhood 8
        _, part, coeff, op = setup_problem(nx=40, Nx=8, eta=1.0, layout="homogeneous")
        with pytest.raises(ValueError, match=r"^neighborhood 8: no clamped node$") as exc:
            build_selections(get_variant("EE"), op, part, coeff, EigOptions(n_max=2))
        assert "\n" not in str(exc.value)

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_warnings_reach_the_caller_once_per_class(self, n_workers, monkeypatch):
        solve = spectral.solve_local_eig_dense

        def warn_and_solve(prob, k):
            warnings.warn("from the eigensolve")
            return solve(prob, k)

        monkeypatch.setattr(spectral, "solve_local_eig_dense", warn_and_solve)
        monkeypatch.setattr(threads, "_n_workers", lambda: n_workers)
        _, part, coeff, op = setup_problem(nx=20, Nx=4)
        variant, opts = get_variant("EE"), EigOptions(n_max=2)
        with pytest.warns(UserWarning, match="^from the eigensolve$") as record:
            build_selections(variant, op, part, coeff, opts)
        assert len(record) == len(eig_classes(op, part, coeff)) < part.n_neighborhoods


def eig_classes(op, part, coeff):
    """The (problem, members) classes of ``build_selections``: the
    neighborhoods grouped on their closed patches under the 8 lattice
    symmetries."""
    return schwarz._patch_classes(part, coeff, schwarz._clamped_nodes(op), True, spectral.SYMMETRIES)


class TestEigenGroups:
    """Neighborhoods whose patch problems are one up to a lattice symmetry
    share one eigensolve."""

    def own_selections(self, variant, op, part, coeff, opts):
        """Each neighborhood's selection from a solve of its own problem
        (``own_patch``), seeded with ``[opts.seed, c]``."""
        kind = "elasticity" if variant.eig_kind == "elasticity" else "diffusion"
        clamped = np.flatnonzero(schwarz._clamped_nodes(op))
        rule = schwarz.selection_rule(variant, opts)
        selections = []
        for c, patch in enumerate(part.neighborhoods):
            prob = spectral.build_local_eigproblem(*own_patch(part.mesh, coeff, patch, clamped), kind)
            k = min(opts.n_max + 1, prob.dim)
            if variant.randomized:
                n_snapshots = min(opts.n_max + spectral.OVERSAMPLING, prob.dim)
                sel = spectral.solve_local_eig_randomized(prob, k, n_snapshots, seed=[opts.seed, c])
            else:
                sel = spectral.solve_local_eig_dense(prob, k)
            selections.append(spectral.select_modes(sel, opts.n_max, rule=rule))
        return selections

    def test_serial_path_solves_each_distinct_problem_once(self, monkeypatch):
        # clamped homogeneous square: the 4 corners, the 24 edge and the 21 interior neighborhoods are one class each
        _, part, coeff, op = setup_problem(nx=40, Nx=8, eta=1.0, layout="homogeneous")
        calls = []
        build = spectral.build_local_eigproblem
        monkeypatch.setattr(spectral, "build_local_eigproblem", lambda *args: calls.append(args) or build(*args))
        monkeypatch.setattr(threads, "_n_workers", lambda: 1)
        selections = build_selections(get_variant("EE"), op, part, coeff, EigOptions(n_max=3))
        assert len(selections) == part.n_neighborhoods == 49
        assert len(calls) == 3
        # each class is built on its first neighborhood's own problem: a corner, an edge, an interior one
        clamped = np.flatnonzero(schwarz._clamped_nodes(op))
        for (pmesh, moduli, dirichlet, kind), c0 in zip(calls, [0, 1, 8]):
            own_mesh, own_moduli, own_dirichlet = own_patch(part.mesh, coeff, part.neighborhoods[c0], clamped)
            assert (pmesh.nx, pmesh.ny, pmesh.h) == (own_mesh.nx, own_mesh.ny, own_mesh.h)
            assert np.array_equal(moduli.values, own_moduli.values) and moduli.nu == own_moduli.nu
            assert np.array_equal(dirichlet, own_dirichlet) and kind == "elasticity"

    @pytest.mark.parametrize("tag", ["EE", "EH", "EE;Rand", "EH+Rot;Rand"])
    def test_selections_bitwise_equal_to_one_solve_per_neighborhood(self, tag, monkeypatch):
        # a class's first neighborhood keeps its own solve bit for bit; every
        # other member gets that solve mirrored by its symmetry, and a dense
        # member whose problem is the first one's bit for bit gets its own solve
        _, part, coeff, op = setup_problem(nx=40, Nx=8, eta=1e6)
        variant, opts = get_variant(tag), EigOptions(n_max=3, seed=5)
        groups = eig_classes(op, part, coeff)
        first = {c: (members[0][0], sym) for _, members in groups for c, sym in members}
        assert len(groups) < part.n_neighborhoods
        assert 0 < sum(any(sym) for _, sym in first.values()) < part.n_neighborhoods - len(groups)
        monkeypatch.setattr(threads, "_n_workers", lambda: 1)
        selections = build_selections(variant, op, part, coeff, opts)
        own = self.own_selections(variant, op, part, coeff, opts)
        for c, a in enumerate(selections):
            c0, sym = first[c]
            expected = [own[c0].mirrored(part.neighborhoods[c0].shape, sym)]
            if not (any(sym) or variant.randomized):
                expected.append(own[c])
            for b in expected:
                assert np.array_equal(a.eigenvalues, b.eigenvalues)
                assert np.array_equal(a.vectors, b.vectors)

    def test_distinct_problems_on_the_benchmark_layout(self):
        # the 100x100 / 10x10 sweep: most neighborhoods see the same background,
        # and the channels and inclusions repeat under reflection and transposition
        from mselast import cli

        for eta, n_distinct, n_classes in ((1e6, 42, 22), (1.0, 9, 3)):
            problem = cli.setup_problem(cli.BenchmarkConfig(), eta)
            groups = eig_classes(problem.op, problem.part, problem.coeff)
            assert sorted(c for _, members in groups for c, _ in members) == list(range(81))
            assert len(groups) == n_classes
            # one symmetry per bitwise-distinct problem of a class
            assert len({(i, sym) for i, (_, members) in enumerate(groups) for _, sym in members}) == n_distinct


@pytest.fixture(scope="module", params=[(False, 1e6), (True, 1e6), (False, 1.0), (True, 1.0)],
                ids=["30x20/3x2", "30x20/3x2-boundary", "30x20/3x2-eta1", "30x20/3x2-boundary-eta1"])
def threaded_problem(request):
    """Every variant and the block split on 30x20 / 3x2 at contrast 1e6, and
    at contrast 1, where subdomains of one patch shape share one factor,
    with and without boundary neighborhoods, and the diffusion operator of
    the heat level 1."""
    mesh, part, coeff, op = level1_problem(30, 20, 3, 2, *request.param)
    parts = {}
    preconds = {tag: build_preconditioner(tag, op, part, coeff, EigOptions(n_max=3), parts) for tag in VARIANTS}
    preconds["block-split"] = block_split_preconditioner(op)
    D = assemble_diffusion(mesh, coeff.values, mesh.boundary_nodes())
    return part, coeff, op, D, preconds


def f2py_factor(matrix, idx):
    """f2py ``dpbtrf`` of the submatrix of ``matrix`` on ``idx``."""
    factor, info = dpbtrf(upper_band(matrix[idx][:, idx].toarray()))
    assert info == 0
    return factor


def f2py_apply(P, r, op, D):
    """``P.apply(r)`` as the loop ``z[idx] += solve(r[idx])`` over the
    level-1 pieces, each banded piece solved by f2py ``dpbtrs`` on the f2py
    ``dpbtrf`` factor of its matrix, then the coarse part."""
    z = np.zeros_like(r)
    for idx, solve in P._level1:
        idx = np.arange(r.size)[idx]
        m = solve.n  # a heat piece solves its x- and y-blocks as two columns
        if solve.kd == 0 and m == r.size:  # plain CG's piece: the factor of the identity
            factor = np.ones((1, m))
        else:
            factor = f2py_factor(op.matrix if m == idx.size else D.matrix, idx[:m])
        z[idx] += dpbtrs(factor, r[idx].reshape(-1, m).T)[0].T.ravel()
    if P.coarse is not None:
        z += P.coarse.apply_inverse(r)
    return z


def banded_blocks(blocks):
    """``BandSlots`` of each dense block of the block-diagonal CSR matrix
    they make, and its values."""
    A = sp.block_diag(blocks, format="csr")
    bounds = np.cumsum([0] + [b.shape[0] for b in blocks])
    return [BandSlots.of_submatrix(A.indptr, A.indices, np.arange(lo, hi))
            for lo, hi in zip(bounds, bounds[1:])], A.data


class TestLevel1Threads:
    """Level-1 factors and solves in groups on threads, bitwise the plain loop."""

    @pytest.mark.parametrize("n_workers", [1, 2, 3])
    def test_apply_bitwise_equal_to_f2py_loop(self, threaded_problem, n_workers, monkeypatch, rng):
        _, _, op, D, preconds = threaded_problem
        monkeypatch.setattr(threads, "_n_workers", lambda: n_workers)
        for name, P in preconds.items():
            r = rng.standard_normal(op.n_free)
            assert P.apply(r).tobytes() == f2py_apply(P, r, op, D).tobytes(), name

    @pytest.mark.parametrize("n_workers", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["elasticity", "heat"])
    def test_factors_bitwise_f2py_dpbtrf(self, threaded_problem, kind, n_workers, monkeypatch):
        part, coeff, op, D, _ = threaded_problem
        monkeypatch.setattr(threads, "_n_workers", lambda: n_workers)
        level1 = build_level1(kind, op, part, coeff)
        assert len(level1) == part.n_neighborhoods
        for idx, factor in level1:
            ref = f2py_factor(op.matrix if kind == "elasticity" else D.matrix, idx[: factor.n])
            assert factor.ab.shape == ref.shape and np.array_equal(factor.ab, ref)

    def test_groups_after_the_first_run_on_the_level1_threads(self, monkeypatch):
        monkeypatch.setattr(threads, "_n_workers", lambda: 3)
        groups = threads._in_groups(lambda lo, hi: (lo, hi, threading.get_ident()), 6)
        assert [(lo, hi) for lo, hi, _ in groups] == [(0, 2), (2, 4), (4, 6)]
        assert groups[0][2] == threading.get_ident()
        assert threading.get_ident() not in {ident for _, _, ident in groups[1:]}

    @pytest.mark.parametrize("n_workers", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", range(8))
    def test_groups_split_the_items_by_count(self, n, n_workers, monkeypatch):
        # contiguous, in order, every item once, none empty, min(workers, n)
        # of them with sizes at most one apart, the first on the calling thread
        monkeypatch.setattr(threads, "_n_workers", lambda: n_workers)
        groups = threads._in_groups(lambda lo, hi: (lo, hi, threading.get_ident()), n)
        bounds = [(lo, hi) for lo, hi, _ in groups]
        assert len(groups) == min(n_workers, n)
        assert [i for lo, hi in bounds for i in range(lo, hi)] == list(range(n))
        sizes = [hi - lo for lo, hi in bounds]
        assert all(size > 0 for size in sizes) and (not sizes or max(sizes) - min(sizes) <= 1)
        assert not groups or groups[0][2] == threading.get_ident()

    def test_one_core_starts_no_thread(self, monkeypatch, rng):
        monkeypatch.setattr(threads, "_threads", None)
        monkeypatch.setattr(threads, "_n_workers", lambda: 1)
        mesh, part, coeff, op = level1_problem(30, 20, 3, 2, True)
        P = build_preconditioner("EH+Rot", op, part, coeff, EigOptions(n_max=3))
        P.apply(rng.standard_normal(op.n_free))
        block_split_preconditioner(op).apply(rng.standard_normal(op.n_free))
        assert threads._threads is None

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs a CPU affinity call")
    def test_pinned_to_one_cpu_starts_no_thread_and_gives_the_same_bits(self, threaded_problem):
        # the same builds and applies in a process of its own, pinned to one CPU
        part, coeff, op, _, preconds = threaded_problem
        proc = run_script(f"""
            import hashlib, os, threading
            os.sched_setaffinity(0, {{min(os.sched_getaffinity(0))}})
            import numpy as np
            from mselast import schwarz, threads
            from mselast.assembly import assemble_elasticity
            from mselast.coefficients import generate_coefficient
            from mselast.grid import CoarsePartition, build_fine_mesh

            mesh = build_fine_mesh(30, 20)
            part = CoarsePartition(mesh, 3, 2, include_boundary={part.include_boundary})
            coeff = generate_coefficient("channels-and-inclusions", mesh, {1.0 / coeff.values.min()})
            op = assemble_elasticity(mesh, coeff, mesh.boundary_nodes())
            r = np.random.default_rng(0).standard_normal(op.n_free)
            parts = {{}}
            preconds = {{tag: schwarz.build_preconditioner(tag, op, part, coeff, schwarz.EigOptions(n_max=3), parts)
                        for tag in schwarz.VARIANTS}}
            preconds["block-split"] = schwarz.block_split_preconditioner(op)
            for name, P in preconds.items():
                print(name, hashlib.sha256(P.apply(r).tobytes()).hexdigest())
            print("threads", threading.active_count(), threads._threads is None)
        """)
        assert proc.returncode == 0, proc.stderr[-2000:]
        lines = proc.stdout.splitlines()
        assert lines[-1] == "threads 1 True"
        r = np.random.default_rng(0).standard_normal(op.n_free)
        assert lines[:-1] == [f"{name} {hashlib.sha256(P.apply(r).tobytes()).hexdigest()}"
                              for name, P in preconds.items()]

    def test_apply_is_reentrant(self, threaded_problem, monkeypatch, rng):
        # four callers at once, each splitting its pieces into more groups than
        # there are cores, with the interpreter switching threads every
        # microsecond: every result is still that caller's own, bit for bit
        _, _, op, _, preconds = threaded_problem
        P = preconds["EH+Rot;Rand"]
        rs = rng.standard_normal((16, op.n_free))
        monkeypatch.setattr(threads, "_n_workers", lambda: 1)
        alone = [P.apply(r).tobytes() for r in rs]
        monkeypatch.setattr(threads, "_n_workers", lambda: 3)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as callers:
                together = [f.result(timeout=60) for f in [callers.submit(P.apply, r) for r in rs]]
        finally:
            sys.setswitchinterval(interval)
        assert [z.tobytes() for z in together] == alone

    @pytest.mark.parametrize("n_workers", [1, 2, 3])
    def test_first_failing_block_in_order_is_raised(self, n_workers, monkeypatch, rng):
        # group 0, run by the calling thread, factors a large block before it
        # meets the first failing one (info 3); the next group meets the second
        # (info 1) at once, so its thread fails first
        n, kd = 1500, 60
        large = 200.0 * np.eye(n) + (np.abs(np.subtract.outer(np.arange(n), np.arange(n))) <= kd)
        slots, data = banded_blocks([large, np.diag([1.0, 1.0, -1.0, 1.0]), np.diag([-1.0, 1.0, 1.0]), large])
        with pytest.raises(ValueError) as serial:
            [s.cholesky(data) for s in slots]
        assert str(serial.value) == "banded Cholesky failed (LAPACK info 3): matrix not positive definite"
        monkeypatch.setattr(threads, "_n_workers", lambda: n_workers)
        # an item is the subdomain an error names
        named = dict(zip([10, 11, 12, 13], slots))
        with pytest.raises(ValueError) as threaded:
            schwarz._each_in_groups(lambda c: named[c].cholesky(data), list(named), "level-1 subdomain")
        assert str(threaded.value) == f"level-1 subdomain 11: {serial.value}"
        # the next build still works, bitwise the plain loop
        good = schwarz._each_in_groups(lambda c: named[c].cholesky(data), [10, 13], "level-1 subdomain")
        assert all(np.array_equal(f.ab, s.cholesky(data).ab) for f, s in zip(good, slots[:1] + slots[3:]))
        mesh, part, coeff, op = level1_problem(30, 20, 3, 2, True)
        for idx, factor in build_level1("elasticity", op, part, coeff):
            assert np.array_equal(factor.ab, f2py_factor(op.matrix, idx))

    def test_forked_child_applies_with_its_own_threads(self):
        # a child forked after a threaded build gets the parent's bits from
        # threads of its own
        proc = run_script("""
            import os
            import signal
            import numpy as np
            from mselast import cli, schwarz, threads

            problem = cli.setup_problem(cli.BenchmarkConfig(nx=20, ny=20, Nx=4, Ny=4), 1e6)
            threads._n_workers = lambda: 2
            P = schwarz.build_preconditioner("EE", problem.op, problem.part, problem.coeff)
            r = np.random.default_rng(0).standard_normal(problem.op.n_free)
            z = P.apply(r)
            parent_threads = threads._threads
            pid = os.fork()
            if pid == 0:
                signal.alarm(30)  # a child that waited on its parent's threads would hang
                same = P.apply(r).tobytes() == z.tobytes()
                own = threads._threads is not parent_threads and threads._threads[0] == os.getpid()
                os._exit(0 if same and own else 1)
            print("child", os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
        """)
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout.splitlines() == ["child 0"]

    def test_a_group_cannot_start_groups(self):
        # a group on a level-1 thread that waited on the level-1 threads could
        # wait for ever; it is refused at once, and the pool still works after
        proc = run_script("""
            from mselast import threads

            threads._n_workers = lambda: 2

            def nested(lo, hi):
                return threads._in_groups(lambda lo, hi: hi - lo, 2)

            try:
                threads._in_groups(nested, 2)
            except RuntimeError as exc:
                print(exc)
            print(threads._in_groups(lambda lo, hi: hi - lo, 4))
        """)
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout.splitlines() == [
            "threads._in_groups called from a level-1 thread; a group must not start groups", "[2, 2]"]


def band_hashes(slots, data):
    """The sha256 of each slot's band array and half-bandwidth."""
    return [hashlib.sha256(ab.tobytes() + bytes([kd])).hexdigest() for ab, kd in (s.band(data) for s in slots)]


def level1_matrix(kind, op, mesh, coeff):
    """The operator the level 1 of ``kind`` restricts."""
    if kind == "elasticity":
        return op
    return assemble_diffusion(mesh, coeff.values, np.flatnonzero(schwarz._clamped_nodes(op)))


def synthetic_level1(monkeypatch, slots, classes, data):
    """``build_level1`` of an elasticity operator whose values are ``data``,
    with ``slots`` (neighborhood -> ``BandSlots``) as its subdomains with
    free dofs and ``classes`` (lists of neighborhoods) as its level-1
    classes."""
    monkeypatch.setattr(schwarz, "_level1_slots", lambda *args: slots)
    monkeypatch.setattr(schwarz, "_patch_classes",
                        lambda *args: [(None, [(c, spectral.SYMMETRIES[0]) for c in members]) for members in classes])
    op = SimpleNamespace(n_full=2, free_dofs=np.arange(2), pattern=None, pattern_data=data)
    part = SimpleNamespace(n_neighborhoods=len(slots), mesh=None)
    return build_level1("elasticity", op, part, None)


class TestSharedFactors:
    """Subdomains with one patch shape, moduli grid and interior clamped mask
    share one level-1 factor, bitwise each one's own."""

    def check_shared(self, kind, op, part, coeff):
        """Every subdomain's factor is bitwise the factor of its own band,
        and there are as many distinct factors as distinct bands.  Returns
        the number of factors."""
        A = level1_matrix(kind, op, part.mesh, coeff)
        slots = schwarz._level1_slots(A.pattern, part)
        level1 = build_level1(kind, op, part, coeff)
        assert len(level1) == len(slots)
        for (idx, factor), s in zip(level1, slots.values()):
            own = s.cholesky(A.pattern_data)
            assert factor.ab.shape == own.ab.shape and factor.ab.tobytes() == own.ab.tobytes()
        n_factors = len({id(factor) for _, factor in level1})
        assert n_factors == len(set(band_hashes(slots.values(), A.pattern_data)))
        return n_factors

    @pytest.mark.parametrize("kind", ["elasticity", "heat"])
    @pytest.mark.parametrize("eta", [1.0, 1e6], ids=["eta1", "eta1e6"])
    @pytest.mark.parametrize("nx,Nx,expected", [(40, 4, {1.0: 1, 1e6: 9}), (100, 10, {1.0: 1, 1e6: 29})],
                             ids=["40x40/4x4", "100x100/10x10"])
    def test_one_factor_per_distinct_band(self, nx, Nx, expected, eta, kind):
        _, part, coeff, op = setup_problem(nx=nx, Nx=Nx, eta=eta)
        assert self.check_shared(kind, op, part, coeff) == expected[eta]

    @pytest.mark.parametrize("kind", ["elasticity", "heat"])
    def test_interior_clamped_nodes_split_a_key(self, kind):
        # a homogeneous square with boundary neighborhoods, clamped on its
        # boundary and at one node inside the patches of coarse nodes (0, 0),
        # (1, 0), (0, 1) and (1, 1): each of the 4 patch shapes comes with and
        # without it, so of the nine 20x20 patches, (1, 1) gets a factor of its own
        mesh = build_fine_mesh(40, 40)
        part = CoarsePartition(mesh, 4, 4, include_boundary=True)
        coeff = generate_coefficient("homogeneous", mesh, 1.0)
        pin = 5 * (mesh.nx + 1) + 5
        op = assemble_elasticity(mesh, coeff, np.union1d(mesh.boundary_nodes(), [pin]))
        assert self.check_shared(kind, op, part, coeff) == 8
        level1 = build_level1(kind, op, part, coeff)
        center = {c: level1[c][1] for c in (6, 12, 18)}  # coarse nodes (1, 1), (2, 2), (3, 3)
        assert center[6] is not center[12] and center[12] is center[18]
        assert center[12].n - center[6].n == (2 if kind == "elasticity" else 1)  # the pin's dofs

    @pytest.mark.parametrize("n_workers", [1, 2, 3])
    def test_first_failing_subdomain_in_order_is_raised_when_keys_are_shared(self, n_workers, monkeypatch):
        # classes a b c b d c over bands large, info-3, info-1, info-3, large', info-1:
        # the first subdomain of each class is factored, large and info-3 by the
        # calling thread and info-1 and large' by a second one, which fails first
        n, kd = 1500, 60
        large = 200.0 * np.eye(n) + (np.abs(np.subtract.outer(np.arange(n), np.arange(n))) <= kd)
        bad3, bad1 = np.diag([1.0, 1.0, -1.0, 1.0]), np.diag([-1.0, 1.0, 1.0])
        slots, data = banded_blocks([large, bad3, bad1, bad3, large + np.eye(n), bad1])
        with pytest.raises(ValueError) as serial:
            [s.cholesky(data) for s in slots]
        assert str(serial.value) == "banded Cholesky failed (LAPACK info 3): matrix not positive definite"
        monkeypatch.setattr(threads, "_n_workers", lambda: n_workers)
        with pytest.raises(ValueError) as shared:
            synthetic_level1(monkeypatch, dict(zip(range(10, 16), slots)), [[10], [11, 13], [12, 15], [14]], data)
        assert str(shared.value) == f"level-1 subdomain 11: {serial.value}"
        good = [0, 4, 0]
        calls = []
        cholesky = BandSlots.cholesky
        monkeypatch.setattr(BandSlots, "cholesky", lambda s, d: calls.append(s) or cholesky(s, d))
        level1 = synthetic_level1(monkeypatch, {c: slots[i] for c, i in enumerate(good)}, [[0, 2], [1]], data)
        factors = [factor for _, factor in level1]
        assert len(calls) == 2 and factors[0] is factors[2] and factors[0] is not factors[1]
        assert all(f.ab.tobytes() == cholesky(slots[i], data).ab.tobytes() for f, i in zip(factors, good))

    @pytest.mark.parametrize("n_workers", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["elasticity", "heat"])
    def test_failing_subdomain_is_named_by_its_neighborhood(self, kind, n_workers, monkeypatch):
        # at contrast 1e300 the soft subdomains are numerically singular; the
        # error is the plain loop's first failure, named by its neighborhood
        mesh = build_fine_mesh(8, 8)
        part = CoarsePartition(mesh, 4, 4, include_boundary=True)
        coeff = generate_coefficient("channels-and-inclusions", mesh, 1e300)
        op = assemble_elasticity(mesh, coeff, mesh.boundary_nodes())
        A = level1_matrix(kind, op, mesh, coeff)
        slots = schwarz._level1_slots(A.pattern, part)
        with pytest.raises(ValueError) as serial:
            for center, s in slots.items():
                s.cholesky(A.pattern_data)
        monkeypatch.setattr(threads, "_n_workers", lambda: n_workers)
        with pytest.raises(ValueError) as built:
            build_level1(kind, op, part, coeff)
        assert str(built.value) == f"level-1 subdomain {center}: {serial.value}"

    def test_subdomains_without_free_dofs_keep_their_neighborhood_index(self):
        # one element per coarse element with every coarse node kept: only the
        # 3 x 3 interior subdomains of the 25 have an interior node
        mesh = build_fine_mesh(4, 4)
        part = CoarsePartition(mesh, 4, 4, include_boundary=True)
        coeff = generate_coefficient("homogeneous", mesh, 1.0)
        op = assemble_elasticity(mesh, coeff, mesh.boundary_nodes())
        slots = schwarz._level1_slots(op.pattern, part)
        assert list(slots) == [6, 7, 8, 11, 12, 13, 16, 17, 18]
        with pytest.warns(UserWarning, match="^16 subdomains with no free dofs skipped$"):
            level1 = build_level1("elasticity", op, part, coeff)
        assert [idx.tolist() for idx, _ in level1] == [s.idx.tolist() for s in slots.values()]

    def test_info_counts_the_factors_of_a_reused_level1(self):
        _, part, coeff, op = setup_problem(nx=40, Nx=4, eta=1e6)
        parts = {}
        first = build_preconditioner("EE", op, part, coeff, EigOptions(n_max=3), parts)
        again = build_preconditioner("EH", op, part, coeff, EigOptions(n_max=3), parts)
        heat = build_preconditioner("HH", op, part, coeff, EigOptions(n_max=3), parts)
        assert "level1" not in first.info["reused"] and "level1" in again.info["reused"]
        assert first.info["level1_factors"] == again.info["level1_factors"] == heat.info["level1_factors"] == 9
        assert "level1_factors" not in build_preconditioner("None", op, part, coeff).info


class TestPortability:
    """Hosts without a CPU affinity call (macOS, Windows)."""

    @pytest.mark.parametrize("cpu_count,expected", [(3, 3), (None, 1)])
    def test_workers_fall_back_to_the_cpu_count(self, cpu_count, expected, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
        assert threads._n_workers() == expected
