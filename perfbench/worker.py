"""One workload in its own process: run rounds of program calls, time them
from outside, and save the outputs for the checker.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --out PREFIX [--traced] [--smoke]

Repeats whole rounds until ``--seconds`` have passed (at least one round);
with ``--traced`` it runs one round under the tracer.  The peak resident
memory is read after the first round, so it does not depend on how many
rounds fit in the run.
Writes ``PREFIX.json`` (per-round figures) and ``PREFIX.npz`` (solutions,
operators, design fields).  run.py starts this with BLAS threads pinned.
"""

import argparse
import gc
import json
import os
import resource
import sys
import time
import traceback

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

import workloads  # noqa: E402


def run_sweep(workload, seed, smoke, arrays, rnd):
    from mselast import cli

    config = workloads.sweep_config(workload, seed, smoke)
    t0 = time.perf_counter()
    results = cli.run_benchmark(config)
    wall = time.perf_counter() - t0
    cells = []
    for eta, per_variant in results.items():
        for tag, res in per_variant.items():
            key = f"r{rnd}_x{len(cells)}"
            arrays[key] = res["solution"]
            op_key = f"op_{eta:g}"
            if op_key + "_data" not in arrays:
                A = res["operator"].matrix.tocsr()
                arrays[op_key + "_data"], arrays[op_key + "_indices"] = A.data, A.indices
                arrays[op_key + "_indptr"], arrays[op_key + "_rhs"] = A.indptr, res["rhs"]
            cells.append(
                {
                    "eta": eta,
                    "variant": tag,
                    "iterations": res["iterations"],
                    "converged": bool(res["converged"]),
                    "coarse_dim": res["coarse_dim"],
                    "t_build": res["t_build"],
                    "t_solve": res["t_solve"],
                    "x": key,
                    "op": op_key,
                }
            )
    return {
        "wall_s": wall,
        "setup_s": sum(c["t_build"] for c in cells),
        "solve_s": sum(c["t_solve"] for c in cells),
        "cells": cells,
    }


def run_simp(smoke, arrays, rnd, solve_times):
    from mselast import topopt

    config = workloads.simp_config(smoke)
    designs = []
    solve_times.clear()
    t0 = time.perf_counter()
    result = topopt.optimize(config, lambda it, rho, row: designs.append(rho.copy()))
    wall = time.perf_counter() - t0
    arrays[f"r{rnd}_rho"] = np.array(designs)
    return {
        "wall_s": wall,
        "setup_s": result.coarse_build_time,
        "solve_s": sum(solve_times),
        "rebuilds": result.rebuilds,
        "g0": result.compliance_history,
        "volume": [row["volume"] for row in result.log],
        "iterations": [row["inner_iterations"] for row in result.log],
        "rho": f"r{rnd}_rho",
    }


def time_pcg(krylov, solve_times):
    """Time each pcg_solve call, where topopt looks it up."""
    pcg = krylov.pcg_solve

    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return pcg(*args, **kwargs)
        finally:
            solve_times.append(time.perf_counter() - t0)

    krylov.pcg_solve = timed


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--traced", action="store_true")
    p.add_argument("--out", required=True)
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args(argv)

    mselast = workloads.import_mselast()
    workload = workloads.WORKLOADS[args.workload]
    tracer = None
    solve_times = []
    if args.traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(mselast)
    elif workload.kind == "simp":
        time_pcg(mselast.krylov, solve_times)

    arrays, rounds = {}, []
    peak_rss_mb = None
    start = time.perf_counter()
    while True:
        rnd = len(rounds)
        try:
            if workload.kind == "sweep":
                rounds.append(run_sweep(workload, args.seed, args.smoke, arrays, rnd))
            else:
                rounds.append(run_simp(args.smoke, arrays, rnd, solve_times))
        except Exception:
            traceback.print_exc()
            rounds.append({"error": traceback.format_exc(limit=1)})
        if peak_rss_mb is None:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if args.traced or time.perf_counter() - start >= args.seconds:
            break
        gc.collect()

    meta = {"workload": args.workload, "traced": args.traced, "rounds": rounds, "peak_rss_mb": peak_rss_mb}
    if tracer is not None:
        meta["per_layer"] = tracer.metrics()
        meta["spans"] = tracer.summary()
        meta["raw_spans"] = tracer.spans
    np.savez(args.out + ".npz", **arrays)
    with open(args.out + ".json", "w") as fh:
        json.dump(meta, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
