"""mselast benchmark: contrast sweeps and SIMP, end-to-end and per layer.

    python3 perfbench/run.py --workload {sweep-rand,sweep-dense,simp,all} \
        --seed N --seconds S --trace {0,1} [--smoke]

Each workload runs in fresh worker processes, one after the other, with BLAS
pinned to one thread.  ``--trace 0`` repeats whole rounds for ``--seconds``
in one process and reports the medians of their times and the peak memory of
its first round; ``--trace 1`` runs one untraced and one
traced round, each in its own process, and reports the per-layer metrics and
the tracing overhead.  The outputs of every round are then checked here,
outside the timed processes.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  ``--smoke`` runs the
given workloads (``all`` for every one) untraced, with one timed round, and
traced, with all their checks on tiny meshes in a few seconds; it exits 1 if
a check fails.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread: a single-threaded baseline on a 2-core host.
PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED)

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
DEADLINE_S = 150.0  # for the workers of one workload; the checks after them take about 15 s


def spec():
    with open(workloads.ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"] for m in bench["end_to_end"]}, {m["name"]: m["unit"] for m in bench["per_layer"]}


def run_worker(name, seed, label, seconds, traced, prefix, smoke, deadline):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--out", str(prefix)]
    if traced:
        cmd.append("--traced")
    if smoke:
        cmd.append("--smoke")
    remaining = deadline - time.monotonic()
    try:
        proc = subprocess.run(cmd, timeout=max(remaining, 1.0), stdout=sys.stderr)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"perfbench: {name} worker ({label}) did not finish in time")
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: {name} worker ({label}) exited with {proc.returncode}")
    with open(f"{prefix}.json") as fh:
        meta = json.load(fh)
    with np.load(f"{prefix}.npz") as npz:
        arrays = {k: npz[k] for k in npz.files}
    return meta, arrays


def median_of(rounds, key):
    return statistics.median(r[key] for r in rounds if "error" not in r)


def run_workload(name, seed, seconds, trace, smoke):
    deadline = time.monotonic() + DEADLINE_S
    checker = checks.Checker(workloads.WORKLOADS[name], smoke)
    out = checks.Outcome()
    tmp = OUT / f"tmp-{os.getpid()}-{name}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        # (label, seconds, traced): one worker process each
        if trace:
            runs = (("untraced", 0.0, False), ("traced", 0.0, True))
        else:
            runs = (("timed", seconds, False),)
        metas = {}
        for label, secs, traced in runs:
            meta, arrays = run_worker(name, seed, label, secs, traced, tmp / label, smoke, deadline)
            checker.check(meta, arrays, out)
            metas[label] = meta
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for label, meta in metas.items():
        if all("error" in r for r in meta["rounds"]):
            raise SystemExit(f"perfbench: every {label} round of {name} raised")

    if trace:
        metrics = dict(metas["traced"]["per_layer"])
        metrics["trace.overhead_s"] = median_of(metas["traced"]["rounds"], "wall_s") - median_of(
            metas["untraced"]["rounds"], "wall_s"
        )
        trace_file = {k: metas["traced"][k] for k in ("spans", "raw_spans")}
        suffix = "-trace"
    else:
        metrics = {k: median_of(metas["timed"]["rounds"], k) for k in ("wall_s", "setup_s", "solve_s")}
        metrics["peak_rss_mb"] = metas["timed"]["peak_rss_mb"]
        trace_file = None
        suffix = ""
    result = {"correct": out.correct, "attempted": out.attempted, "failed": out.failed, "metrics": metrics}
    for msg in out.misses:
        print(f"perfbench: {name}: failed step: {msg}", file=sys.stderr)
    for msg in out.problems:
        print(f"perfbench: {name}: check failed: {msg}", file=sys.stderr)
    tag = f"{name}-seed{seed}{'-smoke' if smoke else ''}{suffix}"
    with open(OUT / f"{tag}.json", "w") as fh:
        rounds = [r for m in metas.values() for r in m["rounds"]]
        json.dump({**result, "problems": out.problems, "misses": out.misses, "rounds": rounds}, fh, indent=1)
    if trace_file is not None:
        with open(OUT / f"trace-{tag}.json", "w") as fh:
            json.dump(trace_file, fh)
    return result


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=0, help="seed of the randomized local eigensolvers of the sweeps")
    p.add_argument("--seconds", type=float, default=10.0, help="length of one timed run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny meshes, all checks, a few seconds")
    args = p.parse_args(argv)

    workloads.import_mselast()  # exits, printing no result, without the sources
    end_to_end, per_layer = spec()
    OUT.mkdir(exist_ok=True)

    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    traces = (0, 1) if args.smoke else (args.trace,)
    seconds = 0.0 if args.smoke else args.seconds
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for trace in traces:
        units = per_layer if trace else end_to_end
        for name in names:
            res = run_workload(name, args.seed, seconds, trace, args.smoke)
            print(f"{name}{' (traced)' if trace else ''}: correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']}")
            for metric, unit in units.items():
                value = res["metrics"][metric]
                print(f"  {metric:<26} {value:>14.6g} {unit}")
                single = len(names) == 1 and len(traces) == 1
                total["metrics"][metric if single else f"{name}.{metric}"] = {"value": value, "unit": unit}
            total["correct"] &= res["correct"]
            total["attempted"] += res["attempted"]
            total["failed"] += res["failed"]
    print(json.dumps(total))
    return 1 if args.smoke and not total["correct"] else 0


if __name__ == "__main__":
    sys.exit(main())
