"""Compliance sensitivity, the OC update, and the optimization loop."""

import dataclasses

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
    coeff = CoefficientField(E, nu, min(E.min(), E_max), E_max)
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
        flags = [row["rebuilt"] for row in result.log]
        assert flags == [True, False, False, True, False, False]
        assert result.rebuilds == 2

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
        assert all(row["rebuilt"] for row in result.log[1:])

    def test_bad_policy_rejected(self):
        with pytest.raises(ValueError):
            ReusePolicy(period=0)
        with pytest.raises(ValueError):
            ReusePolicy(period=1, max_inner_iterations=0)
