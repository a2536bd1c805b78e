"""Command-line front end: single solves, contrast-sweep benchmarks,
topology-optimization runs, and coefficient generation.

Benchmark output mirrors the familiar report shape: one CSV per contrast with
a row per preconditioner (iterations, condition estimate, coarse dimension)
plus two summary CSVs (variants x contrasts) for iterations and condition.

``setup_problem`` builds the partition (on its mesh), coefficient, operator
clamped on the boundary, and load of one solve; ``solve`` calls it once, and
the sweep once per contrast, whose cells then share the preconditioner parts
they have in common (see ``run_benchmark``).

Each subcommand takes only the flags it reads, and skips the keys of a shared
``--config`` file that another subcommand takes.  Every bad input, an argument
error or a config key that no subcommand takes included, ends in one
``mselast: error:`` line and exit code 2; a run that fails, such as a SIMP
state solve that does not converge, ends in one such line and exit code 1.
"""

import argparse
import configparser
import csv
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import assembly, coefficients, krylov, schwarz, topopt
from .grid import CoarsePartition, build_fine_mesh

DEFAULT_VARIANTS = ("None", "EE", "HH", "HH+Rot", "EH", "EH+Rot", "EH+Rot;Rand", "EE;Rand")
DEFAULT_LAYOUT = "channels-and-inclusions"
DEFAULT_ETA = 1e4  # contrast of a single solve or a generated field
LOAD_FORCE = 1.0  # magnitude of each benchmark point force
LOAD_POINTS = ((0.2, 0.2, 1), (0.8, 0.8, -1))  # (x, y, sign) of the point forces


@dataclass
class BenchmarkConfig:
    nx: int = 100
    ny: int = 100
    Nx: int = 10
    Ny: int = 10
    contrasts: tuple = (1.0, 1e2, 1e4, 1e6)
    variants: tuple = DEFAULT_VARIANTS
    layout: str = DEFAULT_LAYOUT
    n_max: int = 6
    selection_rule: str | None = None
    seed: int = 0
    nu: float = 0.3
    tol: float = 1e-6
    maxit: int = 2000
    outdir: str | None = None
    eig_options: schwarz.EigOptions = field(init=False, repr=False)  # of n_max, selection_rule, seed

    def __post_init__(self):
        krylov.check_stopping(self.tol, self.maxit)
        assembly.check_poisson_ratio(self.nu)
        self.eig_options = schwarz.EigOptions(self.n_max, self.selection_rule, self.seed)
        for tag in self.variants:
            schwarz.selection_rule(schwarz.get_variant(tag), self.eig_options)
        for eta in self.contrasts:
            coefficients.check_contrast(eta)
        # results are keyed by contrast and tag, so a repeat would drop a row
        for what, values in (("variant", self.variants), ("contrast", [f"{eta:g}" for eta in self.contrasts])):
            repeated = next((v for i, v in enumerate(values) if v in values[:i]), None)
            if repeated is not None:
                raise ValueError(f"{what} {repeated} given twice")


def benchmark_load(mesh, solid):
    """Opposing x-direction point forces at ``LOAD_POINTS``, snapped to the
    nearest elements of the boolean mask ``solid``."""
    loads = []
    for x, y, sign in LOAD_POINTS:
        e = coefficients.snap_to_solid(mesh, solid, x, y)
        node = int(mesh.element_nodes()[e][0])
        loads.append((node, 0, sign * LOAD_FORCE))
    return assembly.LoadSpec(point_loads=loads)


@dataclass
class Problem:
    """One clamped elasticity problem, with the load restricted to free dofs.
    The mesh is ``part.mesh`` and the clamped nodes are those ``op`` clamps."""

    part: CoarsePartition
    coeff: assembly.CoefficientField
    op: assembly.SymmetricSparseOperator
    f: np.ndarray


def setup_problem(config, eta, coeff_file=None):
    """Partition, coefficient, operator clamped on the boundary, and load.

    The field is the layout's at contrast ``eta`` and the loads snap to the
    layout's solid region; with ``coeff_file`` the field is read from that
    file and the loads snap to its stiffest elements (E_e == max E).  A load
    that lands on a clamped node, or loads that cancel on one node, would
    make a zero problem; either is rejected here, before any preconditioner
    is built.
    """
    mesh = build_fine_mesh(config.nx, config.ny)
    part = CoarsePartition(mesh, config.Nx, config.Ny)
    if coeff_file:
        coeff = assembly.CoefficientField.from_text(coeff_file, config.nu, mesh=mesh)
        solid = coeff.values == coeff.values.max()
    else:
        coeff = coefficients.generate_coefficient(config.layout, mesh, eta, nu=config.nu)
        solid = coefficients.solid_mask(mesh, config.layout)
    clamped = mesh.boundary_nodes()
    load = benchmark_load(mesh, solid)
    nodes = sorted({node for node, _, _ in load.point_loads})
    on_clamped = [node for node in nodes if node in clamped]
    if on_clamped:
        raise ValueError(f"a benchmark load lands on clamped node {on_clamped[0]} of the {mesh.nx}x{mesh.ny} mesh")
    op = assembly.assemble_elasticity(mesh, coeff, clamped)
    f = op.restrict(assembly.build_load_vector(mesh, load))
    if not f.any():
        raise ValueError(f"the benchmark loads cancel at node {', '.join(map(str, nodes))} of the "
                         f"{mesh.nx}x{mesh.ny} mesh")
    return Problem(part, coeff, op, f)


def run_cell(config, problem, tag, parts=None):
    """One (contrast, variant) benchmark cell: build ``tag``'s preconditioner
    (sharing ``parts``, see ``schwarz.build_preconditioner``) and solve
    ``problem`` with it.  Returns a result dict."""
    op, f = problem.op, problem.f
    t0 = time.perf_counter()
    precond = schwarz.build_preconditioner(tag, op, problem.part, problem.coeff, config.eig_options, parts)
    t_build = time.perf_counter() - t0
    x, report = krylov.pcg_solve(op.matrix, f, precond, tol=config.tol, maxit=config.maxit)
    return {
        "iterations": report.iterations,
        "converged": report.converged,
        "condition": report.cond_estimate,
        "coarse_dim": precond.coarse_dim,
        "level1_factors": precond.info.get("level1_factors", 0),
        "t_build": t_build,
        "t_eig": precond.info.get("t_eig", 0.0),
        "t_solve": report.seconds,
        "solution": x,
        "report": report,
        "operator": op,
        "rhs": f,
    }


def run_benchmark(config):
    """Full sweep.  Returns {eta: {variant: result}} and writes CSVs if asked.

    Each contrast is set up once and its cells share the preconditioner parts
    they have in common: the level-1 factors of one level-1 kind, the
    eigenselections of one eigen kind and solver, and the coarse operator of
    one basis.  A cell's ``t_build`` is the wall time of its own build,
    including any part built first for it; its ``t_eig`` is the measured
    eigensolve time of its selections, wherever they were built.  The memo
    lives for one contrast, and a part is dropped once no later cell needs it.
    The output directory is made before the first cell, so a path that
    cannot be one fails before any work.
    """
    if config.outdir is not None:
        Path(config.outdir).mkdir(parents=True, exist_ok=True)
    results = {}
    for eta in config.contrasts:
        problem = setup_problem(config, eta)
        parts = {}
        results[eta] = {}
        for i, tag in enumerate(config.variants):
            results[eta][tag] = run_cell(config, problem, tag, parts)
            needed = {key for later in config.variants[i + 1 :] for key in schwarz.part_keys(later)}
            for key in parts.keys() - needed:
                del parts[key]
    if config.outdir is not None:
        write_benchmark_csvs(config, results)
    return results


def _iter_cell(res, maxit):
    return f">{maxit}" if not res["converged"] else str(res["iterations"])


def _cond_cell(res):
    return "" if res["condition"] is None else f"{res['condition']:.6g}"


def write_benchmark_csvs(config, results):
    outdir = Path(config.outdir)  # made by run_benchmark before the first cell
    for eta, per_variant in results.items():
        path = outdir / f"contrast_{eta:g}.csv"
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["preconditioner", "iterations", "condition", "coarse_dim"])
            for tag, res in per_variant.items():
                w.writerow([tag, _iter_cell(res, config.maxit), _cond_cell(res), res["coarse_dim"]])
    for key, cell in (("iterations", lambda res: _iter_cell(res, config.maxit)), ("condition", _cond_cell)):
        with open(outdir / f"summary_{key}.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["preconditioner"] + [f"{eta:g}" for eta in config.contrasts])
            for tag in config.variants:
                w.writerow([tag] + [cell(results[eta][tag]) for eta in config.contrasts])


# ---------------------------------------------------------------------------
# argument parsing


def subcommand_flags(parser):
    """{subcommand: set of its flags} of a ``build_parser()`` parser, without
    ``--help``."""
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {
        name: {flag for a in p._actions if not isinstance(a, argparse._HelpAction) for flag in a.option_strings}
        for name, p in sub.choices.items()
    }


def _config_flags(path, command, flags):
    """The INI keys that subcommand ``command`` takes, as its flags.

    ``n-max = 3`` (or ``n_max``) becomes ``--n-max 3``; list values are comma-
    or space-separated, so ``mesh = 20,20`` becomes ``--mesh 20 20``.  Parsed
    as flags, the values are coerced and checked like flags.  Keys of other
    subcommands (``flags`` maps each subcommand to its flags) are skipped, so
    one file can serve them all; a key that no subcommand takes is rejected.
    """
    cp = configparser.ConfigParser(interpolation=None)  # a '%' in a value is text
    try:
        with open(path) as fh:
            cp.read_file(fh)
    except configparser.Error as exc:
        raise ValueError(f"config file {path}: {exc}") from None
    known = set().union(*flags.values())
    argv = []
    for section in (cp.default_section, *cp.sections()):  # a section's items include the defaults
        for key, val in cp.items(section):
            flag = "--" + key.replace("_", "-")
            if flag == "--config":
                raise ValueError(f"config file {path}: key {key!r} not allowed; a config file cannot name another")
            if flag not in known:
                raise ValueError(f"config file {path}: key {key!r} is not a flag of any subcommand")
            if flag in flags[command]:
                argv += [flag, *val.replace(",", " ").split()]
    return argv


def parse_args(argv=None):
    """Parse a command line; an INI file given by --config supplies values
    that flags on the command line override."""
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    if args.config:
        # argv[0] is the subcommand; a later flag overrides an earlier one
        flags = subcommand_flags(parser)
        args = parser.parse_args(argv[:1] + _config_flags(args.config, args.command, flags) + argv[1:])
    return args


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # reported by main on one line, like any bad input
        raise ValueError(message)


def _add_common(p, layout=True):
    p.add_argument("--config", help="INI config file; flags given on the command line win")
    p.add_argument("--mesh", type=int, nargs=2, default=[100, 100], metavar=("NX", "NY"))
    if layout:
        p.add_argument("--layout", default=DEFAULT_LAYOUT, choices=coefficients.LAYOUTS)


def _add_solver(p):
    """The flags of a preconditioned elasticity solve."""
    p.add_argument("--coarse", type=int, nargs=2, default=[10, 10], metavar=("CX", "CY"))
    p.add_argument("--nu", type=float, default=0.3, help="Poisson ratio")
    p.add_argument("--n-max", type=int, default=6, help="mode cap per neighborhood")
    p.add_argument("--rule", default=None, choices=["fixed", "gap"], help="mode selection rule")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--maxit", type=int, default=2000)


def build_parser():
    """One parser per subcommand, each with only the flags it reads."""
    parser = _Parser(
        prog="mselast",
        description="High-contrast elasticity solves with two-level multiscale "
        "Schwarz preconditioners, contrast benchmarks and SIMP optimization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="single preconditioned solve")
    _add_common(p)
    _add_solver(p)
    # None marks a flag not given: --coeff-file takes neither
    p.add_argument("--eta", type=float, default=None, help=f"contrast E_max/E_min (default {DEFAULT_ETA:g})")
    p.set_defaults(layout=None)
    p.add_argument("--variant", default="EH+Rot", help="preconditioner tag; 'None' is plain CG")
    p.add_argument("--coeff-file", default=None, help="plain-text E_e matrix instead of --layout and --eta")
    p.add_argument("--residual-csv", default=None, help="write per-iteration residuals")

    p = sub.add_parser("bench", help="contrast-sweep benchmark")
    _add_common(p)
    _add_solver(p)
    p.add_argument("--contrasts", type=float, nargs="+", default=[1.0, 1e2, 1e4, 1e6])
    p.add_argument("--variants", nargs="+", default=list(DEFAULT_VARIANTS))
    p.add_argument("--outdir", required=True)

    p = sub.add_parser("optimize", help="SIMP compliance minimization")
    _add_common(p, layout=False)
    _add_solver(p)
    p.add_argument("--volfrac", type=float, default=0.3)
    p.add_argument("--penal", type=float, default=3.0)
    p.add_argument("--filter-radius", type=float, default=2.5, help="in units of h")
    p.add_argument("--iterations", type=int, default=100)
    p.add_argument("--variant", default="EH+Rot;Rand")
    p.add_argument("--reuse-period", type=int, default=10)
    p.add_argument("--snapshot-every", type=int, default=20, help="density PGM cadence; 0 writes none")
    p.add_argument("--outdir", required=True)

    p = sub.add_parser("gen-coeff", help="write a synthetic coefficient field")
    _add_common(p)
    p.add_argument("--eta", type=float, default=DEFAULT_ETA)
    p.add_argument("--out", required=True, help="plain-text matrix output path")
    p.add_argument("--pgm", default=None, help="optional PGM image of the field")

    return parser


def _benchmark_config(args, **kw):
    return BenchmarkConfig(
        nx=args.mesh[0], ny=args.mesh[1], Nx=args.coarse[0], Ny=args.coarse[1], layout=args.layout,
        n_max=args.n_max, selection_rule=args.rule, seed=args.seed,
        nu=args.nu, tol=args.tol, maxit=args.maxit, **kw,
    )


def _check_output_file(flag, value):
    """Reject an output file, if given, that is a directory or has none."""
    path = value and Path(value)
    if path and (path.is_dir() or not path.parent.is_dir()):
        raise ValueError(f"{flag} {value}: {'is a directory' if path.is_dir() else 'its directory does not exist'}")


def cmd_solve(args):
    if args.coeff_file and (args.eta is not None or args.layout is not None):
        raise ValueError("--coeff-file gives the field, so --eta and --layout cannot be given with it")
    args.eta = DEFAULT_ETA if args.eta is None else args.eta
    args.layout = args.layout or DEFAULT_LAYOUT
    config = _benchmark_config(args, contrasts=(args.eta,), variants=(args.variant,))
    _check_output_file("--residual-csv", args.residual_csv)
    res = run_cell(config, setup_problem(config, args.eta, args.coeff_file), args.variant)
    report = res["report"]
    # PCG stops on its recurrence residual, which can pass a tolerance below what b - A x can reach
    converged = report.converged and report.true_residual <= 10 * args.tol
    print(f"variant        {args.variant}")
    print(f"iterations     {report.iterations}{'' if converged else ' (not converged)'}")
    print(f"true residual  {report.true_residual:.3g}")
    cond = "n/a" if report.cond_estimate is None else f"{report.cond_estimate:.4g}"
    print(f"condition est. {cond}")
    print(f"coarse dim     {res['coarse_dim']}")
    print(f"level-1 factors {res['level1_factors']}")
    print(f"build time     {res['t_build']:.3f} s")
    print(f"solve time     {res['t_solve']:.3f} s")
    if args.residual_csv:
        report.write_residual_csv(args.residual_csv)
    return 0 if converged else 1


def cmd_bench(args):
    config = _benchmark_config(
        args, contrasts=tuple(args.contrasts), variants=tuple(args.variants), outdir=args.outdir
    )
    results = run_benchmark(config)
    for eta in config.contrasts:
        print(f"contrast {eta:g}:")
        for tag in config.variants:
            res = results[eta][tag]
            cond = "n/a" if res["condition"] is None else f"{res['condition']:.4g}"
            print(
                f"  {tag:<14} iters {_iter_cell(res, config.maxit):>6}   "
                f"cond {cond:>10}   "
                f"coarse dim {res['coarse_dim']}"
            )
    print(f"CSV tables written to {args.outdir}")
    return 0


def cmd_optimize(args):
    if args.snapshot_every < 0:
        raise ValueError(f"--snapshot-every must be >= 0 (0 writes no snapshots), got {args.snapshot_every}")
    config = topopt.OptimizeConfig(
        nx=args.mesh[0], ny=args.mesh[1], Nx=args.coarse[0], Ny=args.coarse[1],
        volfrac=args.volfrac, penal=args.penal, filter_radius_factor=args.filter_radius, nu=args.nu,
        n_iterations=args.iterations, variant=args.variant,
        eig_options=schwarz.EigOptions(args.n_max, args.rule, args.seed),
        reuse=topopt.ReusePolicy(args.reuse_period), tol=args.tol, maxit=args.maxit,
    )
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    mesh = build_fine_mesh(*args.mesh)

    with open(outdir / "log.csv", "w", newline="") as fh:
        log = csv.writer(fh)
        log.writerow(["iteration", "g0", "volume", "inner_pcg_iterations", "tol", "built", "reason", "condition"])
        fh.flush()

        def callback(it, rho, row):  # each row is on disk as its step ends, so a failed run keeps its log
            log.writerow(
                [
                    row["iteration"],
                    repr(float(row["g0"])),
                    repr(float(row["volume"])),
                    row["inner_iterations"],
                    repr(float(row["tol"])),
                    row["built"],
                    row["reason"],
                    "" if row["cond_estimate"] is None else repr(float(row["cond_estimate"])),
                ]
            )
            fh.flush()
            if args.snapshot_every and (it % args.snapshot_every == 0 or it == args.iterations - 1):
                coefficients.export_field_image(rho, mesh, outdir / f"density_{it:04d}.pgm")
            built = "" if row["built"] == "none" else f" build {row['built']} ({row['reason']})"
            print(f"iter {it:3d}  g0 {row['g0']:.6g}  vol {row['volume']:.6g}  "
                  f"pcg {row['inner_iterations']}  tol {row['tol']:.2g}{built}")

        result = topopt.optimize(config, callback)
    coefficients.export_field_image(result.rho_f, mesh, outdir / "density_final.pgm")
    print(f"final compliance {result.log[-1]['g0']:.6g}; log and images in {outdir}")
    return 0


def cmd_gen_coeff(args):
    _check_output_file("--out", args.out)
    _check_output_file("--pgm", args.pgm)
    mesh = build_fine_mesh(*args.mesh)
    coeff = coefficients.generate_coefficient(args.layout, mesh, args.eta)
    coeff.to_text(args.out, mesh)
    if args.pgm:
        coefficients.export_field_image(coeff.values, mesh, args.pgm)
    print(f"wrote {args.out}")
    return 0


def main(argv=None):
    """Run one subcommand.  Bad input (a ValueError or an unreadable file)
    ends with a one-line message on stderr and exit code 2, a failed run (a
    RuntimeError, such as a state solve that does not converge) with one
    such line and exit code 1."""
    handlers = {
        "solve": cmd_solve,
        "bench": cmd_bench,
        "optimize": cmd_optimize,
        "gen-coeff": cmd_gen_coeff,
    }
    try:
        args = parse_args(argv)
        return handlers[args.command](args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"mselast: error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, RuntimeError) else 2


if __name__ == "__main__":
    sys.exit(main())
