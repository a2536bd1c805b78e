"""Output checks, run in the parent process after the worker has exited.

Every check compares against a reference computed here, outside the timed
region, or against a property the method must have; none compares against a
stored copy of earlier output.  A cell that raised or did not converge, or a
design step whose filtered volume misses the target, is a failed operation; a
check that fails on an operation that did complete makes the run incorrect.
The volume misses come from a fault of ``topopt.oc_update``: when its
bisection stops on ``mid`` it returns ``candidate(sqrt(lo * hi))``, another
multiplier.  On the fixed SIMP inputs (``workloads.SIMP_SEED``) that is step
40 of every run, one failed step in a hundred.
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import workloads

RESIDUAL_FACTOR = 10.0  # true relative residual <= 10 * tol
DIRECT_REL_ERROR = 1e-5  # PCG vs spsolve, acceptance criterion 8
CONTRAST_GROWTH = 5.0  # iterations at eta = 1e6 <= 5x those at eta = 1 (criterion 1)
MAX_ITERATIONS = 150  # criterion 1
VOLUME_TARGET_ABS = 1e-6  # filtered volume vs the target, every SIMP step
VOLUME_REPORTED_ABS = 1e-12  # reported volume vs the filtered volume recomputed here
COMPLIANCE_REL = 0.01  # PCG vs direct SIMP, criterion 10


class Outcome:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.misses = []  # failed SIMP steps, for the log

    @property
    def correct(self):
        return not self.problems

    def fail(self, msg):
        self.problems.append(msg)


def cone_filter(rho, n, radius_in_h):
    """Row-normalized cone filter on an n x n element grid, written apart
    from the program's DensityFilter: weights max(0, r - distance)."""
    R = rho.reshape(n, n)
    num, den = np.zeros_like(R), np.zeros_like(R)
    reach = int(np.ceil(radius_in_h))
    for dj in range(-reach, reach + 1):
        for di in range(-reach, reach + 1):
            w = radius_in_h - np.hypot(di, dj)
            if w <= 0:
                continue
            dst = (slice(max(0, -dj), n - max(0, dj)), slice(max(0, -di), n - max(0, di)))
            src = (slice(max(0, dj), n - max(0, -dj)), slice(max(0, di), n - max(0, -di)))
            num[dst] += w * R[src]
            den[dst] += w
    return (num / den).ravel()


class Checker:
    """Checks every round of one workload.  Holds the spsolve references and
    the direct-solve SIMP run, each made once per invocation."""

    def __init__(self, workload, smoke):
        self.workload, self.smoke = workload, smoke
        self._refs = {}
        self._direct = None

    def check(self, meta, arrays, out):
        per_round = self.workload.ops_per_round(self.smoke)
        for rnd in meta["rounds"]:
            out.attempted += per_round
            if "error" in rnd:
                out.failed += per_round
            elif self.workload.kind == "sweep":
                self._check_sweep(rnd, arrays, out)
            else:
                self._check_simp(rnd, arrays, out)

    def _check_sweep(self, rnd, arrays, out):
        iters = {}
        for c in rnd["cells"]:
            name = f"{c['variant']} at eta={c['eta']:g}"
            if not c["converged"]:
                out.failed += 1
                continue
            A, b, x_ref = self._reference(arrays, c["op"])
            x = arrays[c["x"]]
            res = np.linalg.norm(b - A @ x) / np.linalg.norm(b)
            if res > RESIDUAL_FACTOR * workloads.TOL:
                out.fail(f"{name}: true relative residual {res:.3g} > {RESIDUAL_FACTOR * workloads.TOL:g}")
            err = np.linalg.norm(x - x_ref) / np.linalg.norm(x_ref)
            if err > DIRECT_REL_ERROR:
                out.fail(f"{name}: relative error vs spsolve {err:.3g} > {DIRECT_REL_ERROR:g}")
            iters[c["variant"], c["eta"]] = c["iterations"]
        for tag in self.workload.variants:
            lo, hi = iters.get((tag, 1.0)), iters.get((tag, 1e6))
            if lo is not None and hi is not None and (hi > CONTRAST_GROWTH * lo or hi > MAX_ITERATIONS):
                out.fail(f"{tag}: {hi} iterations at eta=1e6 against {lo} at eta=1")

    def _reference(self, arrays, op):
        if op not in self._refs:
            b = arrays[op + "_rhs"]
            A = sp.csr_matrix(
                (arrays[op + "_data"], arrays[op + "_indices"], arrays[op + "_indptr"]), shape=(b.size, b.size)
            )
            self._refs[op] = (A, b, spla.spsolve(A.tocsc(), b))
        return self._refs[op]

    def _check_simp(self, rnd, arrays, out):
        config = workloads.simp_config(self.smoke)
        n = config.nx
        area = 1.0 / (n * n)  # element area h^2 on the unit square
        for step, (rho, reported) in enumerate(zip(arrays[rnd["rho"]], rnd["volume"])):
            vol = area * cone_filter(rho, n, config.filter_radius_factor).sum()
            if abs(vol - config.volfrac) > VOLUME_TARGET_ABS:
                out.failed += 1
                out.misses.append(f"step {step}: filtered volume {vol:.15g}, target {config.volfrac:g}")
            if abs(vol - reported) > VOLUME_REPORTED_ABS:
                out.fail(f"step {step}: filtered volume {vol:.15g}, reported {reported:.15g}")
        g0 = rnd["g0"]
        if not g0[-1] < g0[0]:
            out.fail(f"final compliance {g0[-1]:.6g} not below the first {g0[0]:.6g}")
        direct = self._direct_compliance()
        if abs(g0[-1] - direct) > COMPLIANCE_REL * abs(direct):
            out.fail(f"final compliance {g0[-1]:.6g} against {direct:.6g} from the direct-solve run")

    def _direct_compliance(self):
        if self._direct is None:
            from mselast import topopt

            result = topopt.optimize(workloads.simp_config(self.smoke, solver="direct"))
            self._direct = result.compliance_history[-1]
        return self._direct
