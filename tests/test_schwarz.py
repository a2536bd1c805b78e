"""Two-level Schwarz preconditioners and the displacement-splitting bound."""

import os
import subprocess
import sys
import textwrap
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from mselast.assembly import SymmetricSparseOperator, assemble_diffusion, assemble_elasticity
from mselast.banded import BandSlots
from mselast.coefficients import generate_coefficient
from mselast.grid import CoarsePartition, build_fine_mesh
from mselast import schwarz, spectral
from mselast.krylov import estimate_condition, pcg_solve
from mselast.schwarz import (
    VARIANTS,
    BlockSplitPreconditioner,
    EigOptions,
    IdentityPreconditioner,
    TwoLevelPreconditioner,
    block_split_condition_bound,
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
    def test_all_seven_tags_present(self):
        assert set(VARIANTS) == {
            "EE", "EE;Rand", "HH", "HH+Rot", "EH", "EH+Rot", "EH+Rot;Rand",
        }

    def test_tag_determines_structure(self):
        assert get_variant("HH").level1 == "heat"
        assert get_variant("HH").eig_kind == "heat"
        assert not get_variant("HH").enrich
        assert get_variant("EH+Rot;Rand").level1 == "elasticity"
        assert get_variant("EH+Rot;Rand").randomized
        assert get_variant("EH+Rot;Rand").enrich
        assert get_variant("EE").eig_kind == "elasticity"

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError):
            get_variant("XX")


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
        assert isinstance(ident, IdentityPreconditioner)
        r = rng.standard_normal(self.op.n_free)
        assert np.array_equal(ident.apply(r), r)

    def test_exact_single_subdomain_solves_in_one_iteration(self, rng):
        # whole domain as the only subdomain, no coarse level: apply = K^-1
        lu = spla.splu(self.op.matrix.tocsc())
        precond = TwoLevelPreconditioner(
            [(np.arange(self.op.n_free), lu.solve)],
            None,
            self.op.n_free,
            {},
        )
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

    def test_snapshot_count_insensitivity(self, rng):
        # 10 vs 15 snapshots changes downstream PCG iterations by at most 2
        mesh, part, coeff, op = setup_problem(nx=40, Nx=4, eta=1e4)
        b = rng.standard_normal(op.n_free)
        iters = []
        for n_snap in (10, 15):
            precond = build_preconditioner("EE;Rand", op, part, coeff, EigOptions(n_max=6, n_snapshots=n_snap))
            _, report = pcg_solve(op.matrix, b, precond, tol=1e-6)
            assert report.converged
            iters.append(report.iterations)
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
        assert info["coarse_dim"] == precond.coarse_dim
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
        assert IdentityPreconditioner().info is not IdentityPreconditioner().info
        a, b = BlockSplitPreconditioner(op), BlockSplitPreconditioner(op)
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
        precond = BlockSplitPreconditioner(op)
        b = rng.standard_normal(op.n_free)
        _, report = pcg_solve(op.matrix, b, precond, tol=1e-10)
        assert report.converged
        assert estimate_condition(report) <= 1.15 * block_split_condition_bound(nu)


def script(source):
    """The command that runs ``source`` in a fresh interpreter, and its
    environment, which imports this checkout's package."""
    return [sys.executable, "-c", textwrap.dedent(source)], {**os.environ, "PYTHONPATH": str(ROOT / "src")}


def run_script(source):
    """Run ``source`` as ``script`` says; it must end within 60 s."""
    cmd, env = script(source)
    return subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=60)


def running(pid):
    """Whether process ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            return not any(line.startswith("State:\tZ") for line in fh)
    except FileNotFoundError:
        return False


class TestEigenPool:
    """The neighborhood eigensolves in the module's process pool."""

    @pytest.mark.parametrize("tag", ["EE", "EE;Rand", "EH", "EH+Rot;Rand"])
    @pytest.mark.parametrize("shape", [(30, 20, 3, 2, False), (20, 20, 4, 4, True)],
                             ids=["30x20/3x2", "20x20/4x4-boundary"])
    def test_pool_bitwise_equal_to_serial(self, tag, shape, monkeypatch):
        _, part, coeff, op = level1_problem(*shape)
        opts = EigOptions(n_max=4, seed=7)
        monkeypatch.setattr(schwarz, "_n_workers", lambda: 2)
        pooled = build_selections(get_variant(tag), op, part, coeff, opts)
        assert schwarz._pool is not None
        monkeypatch.setattr(schwarz, "_n_workers", lambda: 1)
        serial = build_selections(get_variant(tag), op, part, coeff, opts)
        assert len(pooled) == len(serial) == part.n_neighborhoods > 1
        for a, b in zip(pooled, serial):
            assert np.array_equal(a.eigenvalues, b.eigenvalues)
            assert np.array_equal(a.vectors, b.vectors)
            assert np.array_equal(a.free_dofs, b.free_dofs) and a.n_full == b.n_full

    def test_one_core_or_one_neighborhood_starts_no_pool(self, monkeypatch):
        monkeypatch.setattr(schwarz, "_pool", None)
        _, part, coeff, op = setup_problem(nx=20, Nx=2)  # one neighborhood
        assert part.n_neighborhoods == 1
        build_selections(get_variant("EE"), op, part, coeff, EigOptions(n_max=3))
        assert schwarz._pool is None
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        _, part, coeff, op = setup_problem(nx=20, Nx=4)
        build_selections(get_variant("EE"), op, part, coeff, EigOptions(n_max=3))
        assert schwarz._pool is None

    def test_worker_value_error_names_the_neighborhood(self, monkeypatch):
        monkeypatch.setattr(schwarz, "_n_workers", lambda: 2)
        _, part, coeff, op = setup_problem(nx=20, Nx=4)
        with pytest.raises(ValueError, match=r"^neighborhood 0: need at least k = 3 snapshots, got 0$") as exc:
            build_selections(get_variant("EE;Rand"), op, part, coeff, EigOptions(n_max=2, n_snapshots=0))
        assert "\n" not in str(exc.value)

    def test_worker_warnings_reach_the_caller(self, monkeypatch):
        solve = spectral.solve_local_eig_dense

        def warn_and_solve(prob, k):
            warnings.warn("from the eigensolve")
            return solve(prob, k)

        monkeypatch.setattr(spectral, "solve_local_eig_dense", warn_and_solve)
        monkeypatch.setattr(schwarz, "_pool", None)  # a pool forked now runs the patched solver
        monkeypatch.setattr(schwarz, "_n_workers", lambda: 2)
        _, part, coeff, op = setup_problem(nx=20, Nx=4)
        try:
            with pytest.warns(UserWarning, match="^from the eigensolve$") as record:
                build_selections(get_variant("EE"), op, part, coeff, EigOptions(n_max=2))
        finally:
            schwarz._pool.shutdown()
        assert len(record) == part.n_neighborhoods

    def test_dead_worker_raises_and_the_next_build_gets_a_new_pool(self):
        proc = run_script("""
            import os
            from concurrent.futures.process import BrokenProcessPool
            from mselast import cli, schwarz, spectral

            problem = cli.setup_problem(cli.BenchmarkConfig(nx=20, ny=20, Nx=4, Ny=4), 1.0)
            schwarz._n_workers = lambda: 2
            args = (schwarz.get_variant("EE"), problem.op, problem.part, problem.coeff, schwarz.EigOptions(n_max=2))
            solve = spectral.solve_local_eig_dense
            spectral.solve_local_eig_dense = lambda prob, k: os._exit(3)  # seen by the workers forked next
            try:
                schwarz.build_selections(*args)
            except BrokenProcessPool:
                print("broken", schwarz._pool is None)
            spectral.solve_local_eig_dense = solve
            print("rebuilt", len(schwarz.build_selections(*args)))
        """)
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout.split("\n")[:2] == ["broken True", "rebuilt 9"]

    def test_workers_end_with_the_program(self):
        # a benchmark or a caller that waits for its child must not find pool workers left running
        proc = run_script("""
            from mselast import cli, schwarz

            problem = cli.setup_problem(cli.BenchmarkConfig(nx=20, ny=20, Nx=4, Ny=4), 1.0)
            schwarz._n_workers = lambda: 2
            schwarz.build_preconditioner("EE", problem.op, problem.part, problem.coeff)
            print(*schwarz._pool._processes)
        """)
        assert proc.returncode == 0, proc.stderr[-2000:]
        pids = [int(pid) for pid in proc.stdout.split()]
        assert len(pids) == 2 and not any(map(running, pids))

    def test_workers_end_when_the_program_is_killed(self):
        # SIGKILL runs no exit handler; the idle workers must still go
        cmd, env = script("""
            import time
            from mselast import cli, schwarz

            problem = cli.setup_problem(cli.BenchmarkConfig(nx=20, ny=20, Nx=4, Ny=4), 1.0)
            schwarz._n_workers = lambda: 2
            schwarz.build_selections(schwarz.get_variant("EE"), problem.op, problem.part, problem.coeff,
                                     schwarz.EigOptions(n_max=2))
            print(*schwarz._pool._processes, flush=True)
            time.sleep(60)
        """)
        with subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            try:
                pids = [int(pid) for pid in proc.stdout.readline().split()]
            finally:
                proc.kill()
        assert len(pids) == 2
        deadline = time.monotonic() + 10.0
        while any(map(running, pids)) and time.monotonic() < deadline:
            time.sleep(0.1)
        assert not any(map(running, pids))
