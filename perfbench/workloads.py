"""Workload definitions shared by the worker process and the checker.

Each workload drives mselast through one of its own entry points:
``cli.run_benchmark`` for the contrast sweeps and ``topopt.optimize`` for
SIMP.  ``smoke=True`` shrinks every workload to a tiny mesh so that all three,
with all their checks, run in a few seconds.
"""

import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

LAYOUT = "channels-and-inclusions"
NU = 0.3
TOL = 1e-6


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # 'sweep' | 'simp'
    contrasts: tuple = ()
    variants: tuple = ()

    def ops_per_round(self, smoke=False):
        """Operations one round attempts: sweep cells or SIMP design steps."""
        if self.kind == "sweep":
            return len(self.contrasts) * len(self.variants)
        return simp_steps(smoke)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep-rand", "sweep", (1.0, 1e6), ("EH+Rot;Rand", "EE;Rand")),
        Workload("sweep-dense", "sweep", (1e6,), ("EE", "EH+Rot", "HH+Rot")),
        Workload("simp", "simp"),
    )
}


def import_mselast():
    """Import the package from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "mselast" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no mselast sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import mselast

    if Path(mselast.__file__).resolve().parent != SRC / "mselast":
        raise SystemExit(f"perfbench: imported mselast from {mselast.__file__}, not {SRC}")
    return mselast


# SIMP does not take the workload seed: its randomized eigensolves always use
# this one.  On it, topopt.oc_update misses the volume target at step 40 of
# every run (see checks.py), so the failed share is the same in every run; on
# other seeds it misses on some and not on others.
SIMP_SEED = 23


def simp_steps(smoke):
    return 10 if smoke else 100


def sweep_config(workload, seed, smoke):
    from mselast import cli

    n, c = (24, 4) if smoke else (100, 10)
    return cli.BenchmarkConfig(
        nx=n, ny=n, Nx=c, Ny=c,
        contrasts=workload.contrasts,
        variants=workload.variants,
        layout=LAYOUT,
        seed=seed,
        nu=NU,
        tol=TOL,
    )


def simp_config(smoke, solver="pcg"):
    from mselast import schwarz, topopt

    n, c, period = (24, 2, 5) if smoke else (60, 3, 10)
    return topopt.OptimizeConfig(
        nx=n, ny=n, Nx=c, Ny=c,
        volfrac=0.3,
        nu=NU,
        n_iterations=simp_steps(smoke),
        variant="EH+Rot;Rand",
        eig_options=schwarz.EigOptions(seed=SIMP_SEED),
        reuse=topopt.ReusePolicy(period=period),
        tol=TOL,
        solver=solver,
    )
