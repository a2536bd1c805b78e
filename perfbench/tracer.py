"""Per-layer tracing from outside the program.

``Tracer.install`` wraps the public functions of every mselast module, plus
the few methods that carry the solve-time work, and patches each wrapper in
wherever a caller looks the name up (module attributes and class
attributes).  Every call becomes a span; spans are kept in memory and written
out once the traced run ends.  Per-layer metrics are derived from the spans
and from values the wrapped calls return.
"""

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

import scipy.sparse as sp

LAYERS = ("grid", "coefficients", "assembly", "spectral", "coarse", "schwarz", "krylov", "topopt", "cli")

# (module, class, method) spans beside the public module functions
METHODS = (
    ("schwarz", "TwoLevelPreconditioner", "apply"),
    ("coarse", "CoarseOperator", "apply_inverse"),
    ("assembly", "DensityFilter", "__init__"),
    ("assembly", "DensityFilter", "apply"),
    ("assembly", "DensityFilter", "adjoint"),
)


class Tracer:
    def __init__(self):
        self.spans = []  # (key, parent span index or -1, start, end)
        self._stack = []  # open frames: [span index, time covered by children]
        self._open = defaultdict(int)  # layer -> open spans
        self.calls = defaultdict(int)
        self.incl = defaultdict(float)  # key -> inclusive seconds
        self.self_by_key = defaultdict(float)
        self.self_by_layer = defaultdict(float)
        self.outer_by_layer = defaultdict(float)  # outermost spans of a layer only
        self.values = defaultdict(list)  # quantities read off returned objects

    def wrap(self, fn, key, layer, post=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1][0] if self._stack else -1
            self.spans.append(None)
            frame = [idx, 0.0]
            self._stack.append(frame)
            self._open[layer] += 1
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                dt = t1 - t0
                self._stack.pop()
                self._open[layer] -= 1
                self.spans[idx] = (key, parent, t0, t1)
                self.calls[key] += 1
                self.incl[key] += dt
                self.self_by_key[key] += dt - frame[1]
                self.self_by_layer[layer] += dt - frame[1]
                if self._open[layer] == 0:
                    self.outer_by_layer[layer] += dt
                if self._stack:
                    self._stack[-1][1] += dt
            if post is not None:
                post(args, out)
            return out

        return traced

    def install(self, pkg):
        """Patch spans into every module of the imported package ``pkg``."""
        layers = {layer: importlib.import_module(f"{pkg.__name__}.{layer}") for layer in LAYERS}
        modules = [pkg] + [m for n, m in sys.modules.items() if n.startswith(pkg.__name__ + ".")]
        posts = {
            "schwarz.build_preconditioner": self._after_build,
            "krylov.pcg_solve": self._after_solve,
            "spectral.select_modes": self._after_select,
        }
        matvec = self.wrap(lambda A, v: A @ v, "krylov.matvec", "krylov.matvec")
        replaced = {}
        for layer, mod in layers.items():
            for name, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not name.startswith("_"):
                    key = f"{layer}.{name}"
                    fn = _with_traced_matvec(obj, matvec) if key == "krylov.pcg_solve" else obj
                    replaced[obj] = self.wrap(fn, key, layer, posts.get(key))
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    setattr(mod, name, replaced[obj])
        for layer, cls_name, meth in METHODS:
            cls = getattr(layers[layer], cls_name)
            setattr(cls, meth, self.wrap(getattr(cls, meth), f"{layer}.{cls_name}.{meth}", layer))

    def _after_build(self, args, precond):
        self.values["t_level1"].append(precond.info.get("t_level1", 0.0))
        self.values["coarse_dim"].append(precond.coarse_dim)

    def _after_solve(self, args, out):
        report = out[1]
        self.values["iterations"].append(report.iterations)
        if report.cond_estimate is not None:
            self.values["cond"].append(report.cond_estimate)

    def _after_select(self, args, selected):
        lam = args[0].eigenvalues
        self.values["modes"].append(selected.n_sel)
        if selected.n_sel < lam.size:
            self.values["lambda_next"].append(float(lam[selected.n_sel]))

    def metrics(self):
        inc, calls, v = self.incl, self.calls, self.values

        def total(*keys):
            return sum(inc[k] for k in keys)

        return {
            "schwarz.builds": calls["schwarz.build_preconditioner"],
            "schwarz.build_s": inc["schwarz.build_preconditioner"],
            "schwarz.level1_factor_s": sum(v["t_level1"]),
            "schwarz.applies": calls["schwarz.TwoLevelPreconditioner.apply"],
            "schwarz.level1_apply_s": self.self_by_key["schwarz.TwoLevelPreconditioner.apply"],
            "spectral.problem_s": inc["spectral.build_local_eigproblem"],
            "spectral.dense_eig_s": inc["spectral.solve_local_eig_dense"],
            "spectral.rand_eig_s": inc["spectral.solve_local_eig_randomized"],
            "spectral.eig_calls": calls["spectral.solve_local_eig_dense"]
            + calls["spectral.solve_local_eig_randomized"],
            "spectral.modes": sum(v["modes"]),
            "spectral.lambda_next_min": min(v["lambda_next"], default=0.0),
            "coarse.basis_s": total(
                "coarse.build_coarse_basis_elasticity", "coarse.build_coarse_basis_heat", "coarse.enrich_rotations"
            ),
            "coarse.galerkin_s": inc["coarse.assemble_coarse_operator"],
            "coarse.dim": sum(v["coarse_dim"]) / max(len(v["coarse_dim"]), 1),
            "coarse.apply_s": inc["coarse.CoarseOperator.apply_inverse"],
            "krylov.solves": calls["krylov.pcg_solve"],
            "krylov.iterations": sum(v["iterations"]),
            "krylov.cond_max": max(v["cond"], default=0.0),
            "krylov.matvec_s": inc["krylov.matvec"],
            "krylov.self_s": self.self_by_layer["krylov"],
            "assembly.elasticity_s": inc["assembly.assemble_elasticity"],
            "assembly.elasticity_calls": calls["assembly.assemble_elasticity"],
            "assembly.diffusion_s": inc["assembly.assemble_diffusion"],
            "assembly.mass_s": inc["assembly.assemble_weighted_mass"],
            "assembly.filter_s": total(
                "assembly.DensityFilter.__init__", "assembly.DensityFilter.apply", "assembly.DensityFilter.adjoint"
            ),
            "topopt.steps": calls["topopt.oc_update"],
            "topopt.oc_s": inc["topopt.oc_update"],
            "topopt.sensitivity_s": inc["topopt.compliance_and_sensitivity"],
            "topopt.self_s": self.self_by_layer["topopt"],
            "cli.self_s": self.self_by_layer["cli"],
            "grid.s": self.outer_by_layer["grid"],
            "coefficients.s": self.outer_by_layer["coefficients"],
        }

    def summary(self):
        """Per-span-key calls, inclusive and self seconds, for the trace file."""
        return {
            k: {"calls": self.calls[k], "incl_s": self.incl[k], "self_s": self.self_by_key[k]}
            for k in sorted(self.calls)
        }


def _with_traced_matvec(pcg_solve, matvec):
    """pcg_solve with a sparse matrix handed over as a traced matvec callable,
    which pcg_solve accepts as it is."""

    @functools.wraps(pcg_solve)
    def solve(A, b, *args, **kwargs):
        if sp.issparse(A):
            A = functools.partial(matvec, A)
        return pcg_solve(A, b, *args, **kwargs)

    return solve
