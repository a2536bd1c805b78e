"""PCG, the Lanczos-connection condition estimate, and solve reporting."""

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from mselast.assembly import CoefficientField, assemble_elasticity
from mselast.grid import build_fine_mesh
from mselast.krylov import SolveReport, estimate_condition, pcg_solve


class ApplyWrapper:
    def __init__(self, fn):
        self.apply = fn


class TestPcgBasics:
    def test_finite_termination_on_diagonal_system(self):
        n = 12
        A = sp.diags(np.arange(1.0, n + 1)).tocsr()
        b = np.ones(n)
        x, report = pcg_solve(A, b, tol=1e-12, maxit=5 * n)
        assert report.converged
        assert report.iterations <= n
        assert np.allclose(A @ x, b, atol=1e-10)

    def test_exact_preconditioner_one_iteration(self):
        n = 30
        d = np.linspace(1.0, 50.0, n)
        A = sp.diags(d).tocsr()
        M = ApplyWrapper(lambda r: r / d)
        x, report = pcg_solve(A, np.ones(n), M, tol=1e-10)
        assert report.iterations == 1
        assert estimate_condition(report) == pytest.approx(1.0, abs=1e-8)

    def test_condition_estimate_2x2(self):
        A = sp.diags([1.0, 4.0]).tocsr()
        b = np.array([1.0, 1.0])
        _, report = pcg_solve(A, b, tol=1e-12)
        assert estimate_condition(report) == pytest.approx(4.0, rel=1e-6)

    def test_scale_invariance_of_condition(self):
        rng = np.random.default_rng(0)
        n = 40
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        A = sp.csr_matrix(Q @ np.diag(np.linspace(1, 30, n)) @ Q.T)
        b = rng.standard_normal(n)
        _, r1 = pcg_solve(A, b, tol=1e-10)
        _, r2 = pcg_solve(A, 2 * b, tol=1e-10)
        assert estimate_condition(r1) == pytest.approx(estimate_condition(r2), rel=1e-6)

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        n = 25
        B = rng.standard_normal((n, n))
        A = sp.csr_matrix(B @ B.T + n * np.eye(n))
        b = rng.standard_normal(n)
        x1, r1 = pcg_solve(A, b, tol=1e-9)
        x2, r2 = pcg_solve(A, b, tol=1e-9)
        assert np.array_equal(x1, x2)
        assert r1.iterations == r2.iterations

    def test_maxit_reports_unconverged(self):
        n = 50
        A = sp.diags(np.geomspace(1e-6, 1.0, n)).tocsr()
        _, report = pcg_solve(A, np.ones(n), tol=1e-14, maxit=3)
        assert not report.converged
        assert report.iterations == 3

    def test_negative_maxit_rejected(self):
        A = sp.diags([1.0, 2.0]).tocsr()
        with pytest.raises(ValueError, match=r"^PCG iteration cap must be >= 0, got -1$"):
            pcg_solve(A, np.ones(2), maxit=-1)
        _, report = pcg_solve(A, np.ones(2), maxit=0)  # 0 stays valid: the start is returned
        assert report.iterations == 0 and not report.converged

    def test_bad_tolerance_rejected(self):
        A = sp.identity(3, format="csr")
        with pytest.raises(ValueError):
            pcg_solve(A, np.ones(3), tol=2.0)


class TestBreakdown:
    def test_indefinite_matrix_raises(self):
        A = sp.diags([1.0, -1.0]).tocsr()
        with pytest.raises(ValueError, match="breakdown"):
            pcg_solve(A, np.ones(2))

    def test_nan_matrix_raises(self):
        A = sp.diags([np.nan, 1.0]).tocsr()
        with pytest.raises(ValueError, match="breakdown"):
            pcg_solve(A, np.ones(2))

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_preconditioner_raises(self):
        A = sp.diags([1.0, 2.0, 3.0]).tocsr()
        M = ApplyWrapper(lambda r: np.full_like(r, np.inf))
        with pytest.raises(ValueError, match="breakdown"):
            pcg_solve(A, np.ones(3), M)

    def test_indefinite_preconditioner_raises(self):
        # r.z turns negative after the first step; the beta it gives is finite
        A = sp.diags(np.arange(1.0, 7.0)).tocsr()
        M = ApplyWrapper(lambda r: np.array([1.0, 1.0, 1.0, 1.0, 1.0, -0.5]) * r)
        with pytest.raises(ValueError, match=r"^PCG breakdown at iteration 2: r\.z = -0\.744$"):
            pcg_solve(A, np.ones(6), M)


class TestReport:
    def setup_method(self):
        rng = np.random.default_rng(3)
        n = 60
        B = rng.standard_normal((n, n))
        self.A = sp.csr_matrix(B @ B.T + 5 * np.eye(n))
        self.b = rng.standard_normal(n)

    def test_final_residual_reduction(self):
        x, report = pcg_solve(self.A, self.b, tol=1e-8)
        assert report.converged
        res = np.linalg.norm(self.b - self.A @ x)
        assert res <= 1e-8 * np.linalg.norm(self.b)
        assert report.residuals[-1] <= 1e-8

    def test_true_residual_reported(self):
        x, report = pcg_solve(self.A, self.b, tol=1e-8)
        expected = np.linalg.norm(self.b - self.A @ x) / np.linalg.norm(self.b)
        assert report.true_residual == pytest.approx(expected, rel=1e-12)
        assert report.true_residual <= 10 * 1e-8

    def test_zero_rhs_reports_timing_and_residual(self):
        x, report = pcg_solve(self.A, np.zeros_like(self.b))
        assert report.converged and report.iterations == 0
        assert np.all(x == 0.0)
        assert report.true_residual == 0.0
        assert report.seconds >= 0.0

    def test_exact_start_takes_no_iteration(self):
        x_exact = spla.spsolve(self.A.tocsc(), self.b)
        x, report = pcg_solve(self.A, self.b, tol=1e-8, x0=x_exact)
        assert report.converged and report.iterations == 0
        assert report.residuals == [report.true_residual] and report.true_residual <= 1e-8
        assert np.array_equal(x, x_exact) and x is not x_exact
        assert report.cond_estimate is None

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    def test_random_start_meets_tolerance_on_b(self, scale):
        # the stopping test stays relative to ||b||, not to the start's residual
        x0 = scale * np.random.default_rng(5).standard_normal(self.b.size)
        x, report = pcg_solve(self.A, self.b, tol=1e-8, x0=x0)
        assert report.converged and report.iterations > 0
        alpha = (x0 @ self.b) / (x0 @ (self.A @ x0))  # the start is x0 scaled
        assert report.residuals[0] == pytest.approx(
            np.linalg.norm(self.b - alpha * (self.A @ x0)) / np.linalg.norm(self.b), rel=1e-12)
        assert report.residuals[-1] <= 1e-8
        true = np.linalg.norm(self.b - self.A @ x) / np.linalg.norm(self.b)
        assert report.true_residual == pytest.approx(true, rel=1e-12)
        assert report.true_residual <= 10 * 1e-8

    def test_scaled_start_never_farther_than_zero_start(self):
        # A-norm errors of the start PCG takes (maxit=0 returns it) against
        # those of x0 itself and of the zero start
        x_exact = spla.spsolve(self.A.tocsc(), self.b)
        rng = np.random.default_rng(11)

        def a_error(x):
            e = x_exact - x
            return np.sqrt(e @ (self.A @ e))

        guesses = [scale * rng.standard_normal(self.b.size) for scale in (1e-3, 1.0, 1e3)]
        guesses += [3.0 * x_exact + rng.standard_normal(self.b.size), -x_exact, x_exact + 1e-3]
        for x0 in guesses:
            start, report = pcg_solve(self.A, self.b, tol=1e-8, maxit=0, x0=x0)
            assert a_error(start) <= min(a_error(x0), a_error(np.zeros_like(x0))) * (1 + 1e-12)
        # a negative multiple of the solution spans it: the start is the solution
        start = pcg_solve(self.A, self.b, tol=1e-8, maxit=0, x0=-x_exact)[0]
        assert np.linalg.norm(start - x_exact) <= 1e-12 * np.linalg.norm(x_exact)
        assert a_error(start) <= a_error(np.zeros_like(start))

    def test_start_orthogonal_to_b_is_zero_start(self):
        b = np.array([1.0, 0.0])
        x, report = pcg_solve(sp.identity(2, format="csr"), b, tol=1e-8, x0=np.array([0.0, 5.0]))
        assert report.residuals[0] == 1.0 and report.converged and np.allclose(x, b)

    def test_vector_only_callable_takes_a_one_vector_start(self):
        # the matvec is applied to x0 as given, so a callable that rejects
        # blocks still solves from a guess of shape (n,)
        def matvec(v):
            assert v.shape == self.b.shape
            return self.A @ v

        x0 = np.random.default_rng(7).standard_normal(self.b.size)
        x, report = pcg_solve(matvec, self.b, tol=1e-8, x0=x0)
        ref, ref_report = pcg_solve(self.A, self.b, tol=1e-8, x0=x0)
        assert report.converged and np.array_equal(x, ref) and report.residuals == ref_report.residuals

    def test_start_left_unchanged(self):
        x0 = np.ones_like(self.b)
        pcg_solve(self.A, self.b, tol=1e-8, x0=x0)
        assert np.all(x0 == 1.0)

    def histories(self):
        """Start blocks of 1 to 5 columns, newest last, with repeated and
        zero columns, one newest column at a negative multiple of the
        solution, one near it, and one nearer than an older column it is
        nearly collinear with; and the solution x."""
        x_exact = spla.spsolve(self.A.tocsc(), self.b)
        rng = np.random.default_rng(13)
        g = [rng.standard_normal(self.b.size) for _ in range(3)]
        near = x_exact + 1e-3 * rng.standard_normal(self.b.size)
        zero = np.zeros_like(self.b)
        blocks = [[g[0]], [g[0], g[0]], [g[1], zero, g[0]], [g[2], g[1], g[1], near],
                  [zero, g[0], g[1], g[2], 1e3 * g[2]], [near, -x_exact], [zero, zero], [zero],
                  [x_exact + 1e-7 * g[0], x_exact + 1e-9 * g[1]]]
        return [np.column_stack(cols) for cols in blocks], x_exact

    def test_projected_start_never_farther_than_zero_or_scaled_newest(self):
        # A-norm errors of the start PCG takes (maxit=0 returns it) against
        # those of the zero start and of the newest column's one-vector start.
        # A newest column at a multiple of the solution starts at it to
        # rounding, so rounding on the scale of ||x||_A is allowed
        blocks, x_exact = self.histories()

        def a_error(x):
            e = x_exact - x
            return np.sqrt(e @ (self.A @ e))

        rounding = 1e-12 * a_error(np.zeros_like(x_exact))
        for X in blocks:
            start, report = pcg_solve(self.A, self.b, tol=1e-8, maxit=0, x0=X)
            newest, _ = pcg_solve(self.A, self.b, tol=1e-8, maxit=0, x0=X[:, -1])
            assert np.all(np.isfinite(start)) and np.isfinite(report.residuals[0])
            assert a_error(start) <= min(a_error(newest), a_error(np.zeros_like(start))) * (1 + 1e-12) + rounding

    def test_projected_start_solves_from_the_span(self):
        # b lies in A span(X): the start is the solution, found from the block
        blocks, x_exact = self.histories()
        X = np.column_stack([blocks[2], x_exact + blocks[2][:, 0]])
        start, report = pcg_solve(self.A, self.b, tol=1e-8, maxit=0, x0=X)
        assert report.converged and report.residuals[0] <= 1e-8

    def test_one_column_block_is_the_one_vector_start(self):
        blocks, _ = self.histories()
        for X in blocks:
            x1, r1 = pcg_solve(self.A, self.b, tol=1e-8, x0=X[:, -1])
            xk, rk = pcg_solve(self.A, self.b, tol=1e-8, x0=X[:, -1:])
            assert np.array_equal(x1, xk) and r1.residuals == rk.residuals

    def test_block_with_exact_newest_takes_no_iteration(self):
        blocks, x_exact = self.histories()
        X = np.column_stack([blocks[3], x_exact])
        x, report = pcg_solve(self.A, self.b, tol=1e-8, x0=X)
        assert report.converged and report.iterations == 0
        assert np.array_equal(x, x_exact) and not np.shares_memory(x, X)

    def test_start_block_left_unchanged(self):
        for X in self.histories()[0]:
            kept = X.copy()
            x, _ = pcg_solve(self.A, self.b, tol=1e-8, x0=X)
            assert np.array_equal(X, kept) and not np.shares_memory(x, X)

    def test_condition_estimate_nondecreasing_over_history(self):
        _, report = pcg_solve(self.A, self.b, tol=1e-10)
        # the estimate after j steps reads the first j coefficients
        history = [
            estimate_condition(SolveReport(alphas=report.alphas[:j], betas=report.betas))
            for j in range(1, report.iterations + 1)
        ]
        assert all(b >= a - 1e-9 * a for a, b in zip(history, history[1:]))

    def test_condition_matches_loop_tridiagonal(self):
        # reference: the Lanczos tridiagonal filled entry by entry, for a
        # converged run and for one stopped by maxit (one beta more)
        for kw in (dict(tol=1e-10), dict(tol=1e-10, maxit=5)):
            _, report = pcg_solve(self.A, self.b, **kw)
            a, b, k = report.alphas, report.betas, report.iterations
            d, e = np.empty(k), np.empty(k - 1)
            for j in range(k):
                d[j] = 1.0 / a[j]
                if j > 0:
                    d[j] += b[j - 1] / a[j - 1]
                if j < k - 1:
                    e[j] = np.sqrt(b[j]) / a[j]
            w = sla.eigh_tridiagonal(d, e, eigvals_only=True)
            assert estimate_condition(report) == w[-1] / w[0]

    def test_residual_csv_export(self, tmp_path):
        _, report = pcg_solve(self.A, self.b, tol=1e-8)
        path = tmp_path / "residuals.csv"
        report.write_residual_csv(path)
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "iteration,relative_residual"
        assert len(rows) == len(report.residuals) + 1
        for row, residual in zip(rows[1:], report.residuals):  # numbers, not np.float64(...)
            assert float(row.split(",")[1]) == residual


class TestAgainstDirectOracle:
    def test_elasticity_solution_accuracy(self):
        mesh = build_fine_mesh(20, 20)
        rng = np.random.default_rng(5)
        E = rng.uniform(1e-4, 1.0, mesh.n_elements)
        coeff = CoefficientField(E, 0.3)
        op = assemble_elasticity(mesh, coeff, mesh.boundary_nodes())
        b = rng.standard_normal(op.n_free)
        x, report = pcg_solve(op.matrix, b, tol=1e-8, maxit=5000)
        assert report.converged
        x_direct = spla.spsolve(op.matrix.tocsc(), b)
        assert np.linalg.norm(x - x_direct) <= 1e-5 * np.linalg.norm(x_direct)
