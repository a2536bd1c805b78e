"""Compliance sensitivity, the OC update, and the optimization loop."""

import dataclasses
from collections import Counter

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from mselast.assembly import (
    CoefficientField,
    DensityFilter,
    LoadSpec,
    assemble_elasticity,
    build_load_vector,
    simp_modulus,
)
from mselast import krylov, schwarz
from mselast.grid import build_fine_mesh
from mselast.topopt import (
    OptimizeConfig,
    ReusePolicy,
    compliance_and_sensitivity,
    oc_update,
    optimize,
)


def solve_state(mesh, rho_f, penal, E_min, E_max, nu, f_full):
    E = simp_modulus(rho_f, penal, E_min, E_max)
    coeff = CoefficientField(E, nu)
    op = assemble_elasticity(mesh, coeff, mesh.boundary_nodes())
    u_free = spla.spsolve(op.matrix.tocsc(), op.restrict(f_full))
    return op.expand(u_free)


class TestSensitivity:
    def setup_method(self):
        self.mesh = build_fine_mesh(10, 10)
        self.penal, self.E_min, self.E_max, self.nu = 3.0, 1e-6, 1.0, 0.3
        self.f = build_load_vector(self.mesh, LoadSpec(body_force=(0.0, -1.0)))
        rng = np.random.default_rng(42)
        self.rho = rng.uniform(0.2, 0.9, self.mesh.n_elements)

    def test_all_nonpositive(self):
        u = solve_state(self.mesh, self.rho, self.penal, self.E_min, self.E_max, self.nu, self.f)
        _, sens = compliance_and_sensitivity(
            self.mesh, u, self.f, self.rho, self.penal, self.E_min, self.E_max, self.nu
        )
        assert np.all(sens <= 0.0)

    def test_matches_central_finite_differences(self):
        filt = DensityFilter(self.mesh, 2.5 * self.mesh.h)
        delta = 1e-6

        def compliance(rho):
            rho_f = filt.apply(rho)
            u = solve_state(
                self.mesh, rho_f, self.penal, self.E_min, self.E_max, self.nu, self.f
            )
            return float(self.f @ u)

        rho_f = filt.apply(self.rho)
        u = solve_state(self.mesh, rho_f, self.penal, self.E_min, self.E_max, self.nu, self.f)
        _, sens_f = compliance_and_sensitivity(
            self.mesh, u, self.f, rho_f, self.penal, self.E_min, self.E_max, self.nu
        )
        dg = filt.adjoint(sens_f)  # chain rule through the filter

        rng = np.random.default_rng(7)
        for e in rng.choice(self.mesh.n_elements, size=12, replace=False):
            up, dn = self.rho.copy(), self.rho.copy()
            up[e] += delta
            dn[e] -= delta
            fd = (compliance(up) - compliance(dn)) / (2 * delta)
            assert dg[e] == pytest.approx(fd, rel=1e-4)

    def test_doubling_stiffness_halves_compliance(self):
        rho = np.full(self.mesh.n_elements, 0.5)
        u1 = solve_state(self.mesh, rho, self.penal, 0.0, 1.0, self.nu, self.f)
        u2 = solve_state(self.mesh, rho, self.penal, 0.0, 2.0, self.nu, self.f)
        assert self.f @ u2 == pytest.approx(0.5 * (self.f @ u1), rel=1e-12)


class TestOcUpdate:
    def test_uniform_inputs_hit_volume_target(self):
        n = 50
        rho = np.full(n, 0.5)
        dg = np.full(n, -1.0)
        volumes = np.full(n, 0.01)
        v_star = 0.4 * volumes.sum()
        rho_new = oc_update(rho, dg, volumes, v_star)
        assert np.allclose(rho_new, 0.4, atol=1e-6)

    def test_move_limit_respected(self, rng):
        n = 80
        rho = rng.uniform(0.1, 0.9, n)
        dg = -rng.uniform(0.1, 10.0, n)
        volumes = np.full(n, 1.0 / n)
        rho_new = oc_update(rho, dg, volumes, 0.5 * volumes.sum(), move=0.15)
        assert np.all(np.abs(rho_new - rho) <= 0.15 + 1e-12)
        assert rho_new.min() >= 0.0 and rho_new.max() <= 1.0

    def test_volume_active_within_tolerance(self, rng):
        n = 100
        rho = rng.uniform(0.2, 0.8, n)
        dg = -rng.uniform(0.5, 2.0, n)
        volumes = rng.uniform(0.5, 1.5, n)
        v_star = 0.35 * volumes.sum()
        rho_new = oc_update(rho, dg, volumes, v_star)
        assert abs(volumes @ rho_new - v_star) <= 1e-6 * v_star

    @pytest.mark.parametrize("seed", range(5))
    def test_filtered_volume_within_bisection_tolerance(self, seed):
        # the returned design is the one whose filtered volume met the tolerance
        mesh = build_fine_mesh(20, 20)
        filt = DensityFilter(mesh, 2.5 * mesh.h)
        rng = np.random.default_rng(seed)
        rho = rng.uniform(0.1, 0.5, mesh.n_elements)
        dg = -rng.lognormal(0.0, 2.0, mesh.n_elements)
        volumes = np.full(mesh.n_elements, mesh.h * mesh.h)
        v_star = 0.3 * volumes.sum()
        rho_new = oc_update(rho, dg, volumes, v_star, filt=filt)
        assert abs(volumes @ filt.apply(rho_new) - v_star) <= 1e-8 * v_star

    def test_unreachable_volume_reported(self):
        n = 20
        rho = np.full(n, 0.9)
        dg = np.full(n, -1.0)
        volumes = np.full(n, 1.0)
        with pytest.raises(RuntimeError):
            oc_update(rho, dg, volumes, 0.1 * n, move=0.01)


class TestOptimizeLoop:
    def small_config(self, **kw):
        base = dict(
            nx=24, ny=24, Nx=2, Ny=2, n_iterations=8, volfrac=0.4,
            solver="direct",
        )
        base.update(kw)
        return OptimizeConfig(**base)

    def test_volume_constraint_every_iterate(self):
        result = optimize(self.small_config())
        v_star = 0.4  # unit square, volfrac 0.4
        for row in result.log:
            assert abs(row["volume"] - v_star) <= 1e-6 * v_star

    def test_compliance_decreases_in_aggregate(self):
        result = optimize(self.small_config())
        hist = result.compliance_history
        assert hist[-1] < hist[0]

    def test_densities_in_bounds(self):
        result = optimize(self.small_config())
        assert result.rho.min() >= 0.0 and result.rho.max() <= 1.0
        assert result.rho_f.min() >= -1e-12 and result.rho_f.max() <= 1.0 + 1e-12

    def test_pcg_path_matches_direct_oracle(self):
        direct = optimize(self.small_config(n_iterations=4))
        pcg = optimize(
            self.small_config(n_iterations=4, solver="pcg", variant="EE", tol=1e-9)
        )
        assert np.allclose(pcg.rho, direct.rho, atol=1e-5)

    def test_reuse_policy_schedules_rebuilds(self):
        cfg = self.small_config(n_iterations=6, solver="pcg", variant="EE",
                                reuse=ReusePolicy(period=3))
        result = optimize(cfg)
        full = [row["built"] == "all" for row in result.log]
        assert full == [True, False, False, True, False, False]
        assert [row["reason"] for row in result.log if row["built"] == "all"] == ["first", "period"]
        assert result.rebuilds == 2
        # between full builds only level 1 may be rebuilt, and only when stale
        others = [(row["built"], row["reason"]) for row in result.log if row["built"] != "all"]
        assert set(others) <= {("none", ""), ("level1", "stale-level1")}
        assert result.level1_refreshes == others.count(("level1", "stale-level1"))

    def test_reuse_and_fresh_agree_on_design(self):
        fresh = self.small_config(n_iterations=6, solver="pcg", variant="EE",
                                  reuse=ReusePolicy(period=1))
        stale = self.small_config(n_iterations=6, solver="pcg", variant="EE",
                                  reuse=ReusePolicy(period=6))
        a = optimize(fresh)
        b = optimize(stale)
        # preconditioner staleness affects speed, not the converged designs
        assert np.allclose(a.rho, b.rho, atol=1e-4)

    def test_inner_iteration_threshold_triggers_rebuild(self):
        cfg = self.small_config(
            n_iterations=6, solver="pcg", variant="EE",
            reuse=ReusePolicy(period=100, max_inner_iterations=1),
        )
        result = optimize(cfg)
        # with a 1-iteration threshold every later step rebuilds
        assert [(row["built"], row["reason"]) for row in result.log] == (
            [("all", "first")] + [("all", "threshold")] * 5)
        assert result.rebuilds == 6 and result.level1_refreshes == 0

    def test_bad_policy_rejected(self):
        with pytest.raises(ValueError):
            ReusePolicy(period=0)
        with pytest.raises(ValueError):
            ReusePolicy(period=1, max_inner_iterations=0)


class TestRebuildPath:
    """``optimize`` with counted preconditioner builds and a PCG that fails
    on the solves chosen by the test."""

    def run(self, monkeypatch, fail, n_iterations=3, slow=lambda k: False):
        """Run a 3-step PCG loop (reuse period 10); solve number k (from 0)
        reports non-convergence when ``fail(k)`` is true, and 100 times its
        iterations when ``slow(k)`` is.  Returns the result, or the raised
        exception, and the counts; ``self.built`` holds the preconditioners
        and ``self.starts`` the x0 of every solve."""
        counts = Counter()
        build, solve = schwarz.build_preconditioner, krylov.pcg_solve
        self.built, self.starts = [], []

        def counted_build(*args, **kw):
            counts["builds"] += 1
            self.built.append(build(*args, **kw))
            return self.built[-1]

        def failing_solve(*args, **kw):
            self.starts.append(kw.get("x0"))
            x, report = solve(*args, **kw)
            if fail(counts["solves"]):
                report = dataclasses.replace(report, converged=False)
            if slow(counts["solves"]):
                report = dataclasses.replace(report, iterations=100 * report.iterations)
            counts["solves"] += 1
            return x, report

        monkeypatch.setattr(schwarz, "build_preconditioner", counted_build)
        monkeypatch.setattr(krylov, "pcg_solve", failing_solve)
        cfg = OptimizeConfig(nx=12, ny=12, Nx=2, Ny=2, n_iterations=n_iterations, volfrac=0.4,
                             variant="EE", reuse=ReusePolicy(period=10))
        try:
            return optimize(cfg), counts
        except RuntimeError as exc:
            return exc, counts

    def test_converging_run_builds_on_schedule(self, monkeypatch):
        result, counts = self.run(monkeypatch, lambda k: False)
        # step 0 solves the uniform design in 2 iterations, step 1 takes 29,
        # so step 2 refreshes level 1; the one full build is step 0's
        assert [row["inner_iterations"] for row in result.log][:2] == [2, 29]
        assert [(row["built"], row["reason"]) for row in result.log] == [
            ("all", "first"), ("none", ""), ("level1", "stale-level1")]
        assert result.rebuilds == 1 and result.level1_refreshes == 1
        assert counts["builds"] == 2 and counts["solves"] == 3

    def test_stale_failure_rebuilds_once_and_retries(self, monkeypatch):
        result, counts = self.run(monkeypatch, lambda k: k == 1)  # first solve of step 1
        assert [(row["built"], row["reason"]) for row in result.log] == [("all", "first"), ("all", "retry"), ("none", "")]
        assert result.rebuilds == counts["builds"] == 2
        assert counts["solves"] == 4

    def test_fresh_failure_raises_after_one_build(self, monkeypatch):
        exc, counts = self.run(monkeypatch, lambda k: True)
        assert isinstance(exc, RuntimeError) and "iteration 0" in str(exc)
        assert counts["builds"] == 1 and counts["solves"] == 1

    def test_failure_after_rebuild_raises(self, monkeypatch):
        exc, counts = self.run(monkeypatch, lambda k: k >= 1)
        assert isinstance(exc, RuntimeError) and "iteration 1" in str(exc)
        assert counts["builds"] == 2 and counts["solves"] == 3

    def test_stale_level1_is_refreshed_alone(self, monkeypatch):
        # step 1 takes 100x the iterations of step 0, the first solve after
        # the level-1 build, so step 2 rebuilds level 1 and reuses the rest
        result, counts = self.run(monkeypatch, lambda k: False, slow=lambda k: k == 1)
        assert [(row["built"], row["reason"]) for row in result.log] == [
            ("all", "first"), ("none", ""), ("level1", "stale-level1")]
        assert result.rebuilds == 1 and result.level1_refreshes == 1 and counts["builds"] == 2
        first, refreshed = self.built
        assert first.info["reused"] == [] and refreshed.info["reused"] == ["selections", "coarse"]
        assert refreshed.coarse is first.coarse and refreshed._level1 is not first._level1
        assert refreshed.info["t_level1"] > 0.0 and refreshed.info["t_coarse"] == 0.0

    def test_failure_after_level1_refresh_rebuilds_all(self, monkeypatch):
        # the refreshed preconditioner's coarse part is from step 0: retry with a full build
        result, counts = self.run(monkeypatch, lambda k: k == 2, slow=lambda k: k == 1)
        assert [(row["built"], row["reason"]) for row in result.log] == [
            ("all", "first"), ("none", ""), ("all", "retry")]
        assert result.rebuilds == 2 and result.level1_refreshes == 1 and counts["builds"] == 3
        assert self.built[2].info["reused"] == []

    def test_solves_start_from_the_previous_solution(self, monkeypatch):
        result, counts = self.run(monkeypatch, lambda k: k == 1)
        assert self.starts[0] is None
        # the retry of step 1 starts where step 1 did, from step 0's solution
        assert self.starts[1] is self.starts[2] is not None
        assert self.starts[3] is not self.starts[1]
