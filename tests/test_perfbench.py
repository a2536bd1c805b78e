"""The benchmark's smoke run: every workload, untraced and traced, with all
its output checks, on tiny meshes.  The traced run patches spans into the
package by name, so renaming a function or method it hooks fails here.  A
per-layer metric that reads a span nothing records would read 0 instead, so
the span keys the tracer's metrics look up are checked against the package."""

import ast
import importlib
import inspect
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Builder names the tracer still sums for coarse.basis_s, although the single
# coarse.build_coarse_basis replaced them; the tracer changes only with the
# benchmark, so until then the metric reads 0.
STALE_SPAN_KEYS = {
    "coarse.build_coarse_basis_elasticity",
    "coarse.build_coarse_basis_heat",
    "coarse.enrich_rotations",
}
SYNTHETIC_SPAN_KEYS = {"krylov.matvec"}  # the matvec inside pcg_solve


def _tracer_span_keys():
    """Span keys read in ``Tracer.metrics`` and the ``METHODS`` table, parsed
    from the tracer's source without importing it."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    methods = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["METHODS"]
    )
    metrics = next(
        fn
        for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == "Tracer"
        for fn in node.body
        if isinstance(fn, ast.FunctionDef) and fn.name == "metrics"
    )
    span_tables = {"inc", "calls", "incl", "self_by_key"}  # keyed by span, not by layer or value
    keys = set()
    for node in ast.walk(metrics):
        if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant):
            table = node.value.id if isinstance(node.value, ast.Name) else getattr(node.value, "attr", None)
            if table in span_tables:
                keys.add(node.slice.value)
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "total":
            keys.update(arg.value for arg in node.args)
    return keys, set(methods)


def _resolves(key, methods):
    layer, *rest = key.split(".")
    module = importlib.import_module(f"mselast.{layer}")
    if len(rest) == 2:
        return (layer, *rest) in methods and hasattr(getattr(module, rest[0], None), rest[1])
    fn = getattr(module, rest[0], None)
    return inspect.isfunction(fn) and fn.__module__ == module.__name__ and not rest[0].startswith("_")


def test_tracer_span_keys_name_package_functions():
    keys, methods = _tracer_span_keys()
    assert "krylov.pcg_solve" in keys and len(keys) >= 15  # the parse found the lookups
    unresolved = {key for key in keys - SYNTHETIC_SPAN_KEYS if not _resolves(key, methods)}
    assert unresolved == STALE_SPAN_KEYS


def test_perfbench_smoke_run_is_correct():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "all", "--smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
