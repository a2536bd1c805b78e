"""Command-line front end: coefficient layouts, image export, benchmark CSVs,
config files, subcommand smoke tests, and the README's flag table."""

import csv
import dataclasses
import filecmp
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy import ndimage

from mselast import assembly, cli, coefficients, krylov, schwarz, spectral
from mselast.grid import build_fine_mesh


class TestGenerateCoefficient:
    def test_homogeneous_is_constant(self):
        mesh = build_fine_mesh(20, 20)
        coeff = coefficients.generate_coefficient("homogeneous", mesh, 1e6)
        assert np.all(coeff.values == 1.0)

    def test_contrast_endpoints(self):
        mesh = build_fine_mesh(100, 100)
        coeff = coefficients.generate_coefficient("channels-and-inclusions", mesh, 1e6)
        assert coeff.values.max() == 1.0
        assert coeff.values.min() == pytest.approx(1e-6)

    def test_inclusions_sit_inside_single_coarse_blocks(self):
        # each connected stiff component of the inclusions layout must fit
        # strictly inside one block of the reference 10x10 coarse grid
        mesh = build_fine_mesh(100, 100)
        mask = coefficients.solid_mask(mesh, "inclusions-only").reshape(100, 100)
        labels, n = ndimage.label(mask)
        assert n >= 5
        for lab in range(1, n + 1):
            rows, cols = np.nonzero(labels == lab)
            assert rows.min() // 10 == rows.max() // 10
            assert cols.min() // 10 == cols.max() // 10

    def test_channels_cross_several_coarse_blocks(self):
        mesh = build_fine_mesh(100, 100)
        only = coefficients.solid_mask(mesh, "inclusions-only")
        both = coefficients.solid_mask(mesh, "channels-and-inclusions")
        channels = (both & ~only).reshape(100, 100)
        labels, n = ndimage.label(channels)
        assert n >= 1
        for lab in range(1, n + 1):
            rows, cols = np.nonzero(labels == lab)
            blocks = {(r // 10, c // 10) for r, c in zip(rows, cols)}
            assert len(blocks) >= 3

    def test_unknown_layout_rejected(self):
        mesh = build_fine_mesh(10, 10)
        with pytest.raises(ValueError, match="layout"):
            coefficients.generate_coefficient("swiss-cheese", mesh, 10.0)

    def test_contrast_below_one_rejected(self):
        mesh = build_fine_mesh(10, 10)
        with pytest.raises(ValueError, match="contrast"):
            coefficients.generate_coefficient("homogeneous", mesh, 0.5)

    @pytest.mark.parametrize("eta", [float("inf"), float("nan")])
    def test_contrast_not_finite_rejected_naming_it(self, eta):
        mesh = build_fine_mesh(10, 10)
        with pytest.raises(ValueError, match=f"^contrast must be finite and >= 1, got {eta:g}$"):
            coefficients.generate_coefficient("homogeneous", mesh, eta)

    def test_determinism(self):
        mesh = build_fine_mesh(60, 60)
        a = coefficients.generate_coefficient("channels-and-inclusions", mesh, 1e4)
        b = coefficients.generate_coefficient("channels-and-inclusions", mesh, 1e4)
        assert np.array_equal(a.values, b.values)


class TestFieldImage:
    def test_dimensions_and_roundtrip(self, tmp_path):
        mesh = build_fine_mesh(12, 8)
        rng = np.random.default_rng(3)
        vals = rng.uniform(0.0, 1.0, mesh.n_elements)
        path = tmp_path / "field.pgm"
        coefficients.export_field_image(vals, mesh, path)
        pix = coefficients.read_pgm(path)
        assert pix.shape == (8, 12)
        # image rows run top-down, mesh rows bottom-up; grayscale is linear
        expected = np.round(255.0 * (vals - vals.min()) / (vals.max() - vals.min()))
        assert np.array_equal(pix[::-1].ravel(), expected.astype(np.uint8))

    def test_constant_field_is_white(self, tmp_path):
        mesh = build_fine_mesh(5, 5)
        path = tmp_path / "flat.pgm"
        coefficients.export_field_image(np.full(25, 0.3), mesh, path)
        assert np.all(coefficients.read_pgm(path) == 255)

    def test_bytes_deterministic(self, tmp_path):
        mesh = build_fine_mesh(30, 30)
        vals = coefficients.generate_coefficient("channels-and-inclusions", mesh, 1e4).values
        p1, p2 = tmp_path / "a.pgm", tmp_path / "b.pgm"
        coefficients.export_field_image(vals, mesh, p1)
        coefficients.export_field_image(vals, mesh, p2)
        assert p1.read_bytes() == p2.read_bytes()


def _tiny_bench_config(outdir, **kw):
    defaults = dict(
        nx=20,
        ny=20,
        Nx=2,
        Ny=2,
        contrasts=(1.0, 1e4),
        variants=("None", "EE"),
        n_max=3,
        maxit=4000,
        outdir=str(outdir),
    )
    defaults.update(kw)
    return cli.BenchmarkConfig(**defaults)


class TestBenchmarkCsv:
    def test_csv_shapes(self, tmp_path):
        config = _tiny_bench_config(tmp_path)
        cli.run_benchmark(config)
        for name in ("summary_iterations.csv", "summary_condition.csv"):
            lines = (tmp_path / name).read_text().strip().splitlines()
            assert lines[0] == "preconditioner,1,10000"
            assert len(lines) == 1 + len(config.variants)
        for eta in config.contrasts:
            lines = (tmp_path / f"contrast_{eta:g}.csv").read_text().strip().splitlines()
            assert lines[0] == "preconditioner,iterations,condition,coarse_dim"
            assert len(lines) == 1 + len(config.variants)
            assert {ln.split(",")[0] for ln in lines[1:]} == set(config.variants)

    def test_byte_determinism(self, tmp_path):
        a, b = tmp_path / "run1", tmp_path / "run2"
        cli.run_benchmark(_tiny_bench_config(a, variants=("EE", "EE;Rand")))
        cli.run_benchmark(_tiny_bench_config(b, variants=("EE", "EE;Rand")))
        names = [p.name for p in sorted(a.iterdir())]
        match, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
        assert mismatch == [] and errors == []
        assert set(match) == set(names)

    def test_unknown_variant_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            _tiny_bench_config(tmp_path, variants=("EE", "bogus"))

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--variants", "EE", "EE;Rand", "EE"], "variant EE given twice"),
            (["--contrasts", "1", "100", "1e0"], "contrast 1 given twice"),
        ],
        ids=["variant", "contrast"],
    )
    def test_repeated_variant_or_contrast_rejected(self, flags, message, tmp_path, capsys):
        # results are keyed by tag and contrast: a repeat would write inconsistent tables
        rc = cli.main(["bench", "--mesh", "20", "20", "--coarse", "2", "2", "--n-max", "2",
                       "--outdir", str(tmp_path / "out"), *flags])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"mselast: error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_direct_comparison(self, tmp_path):
        config = _tiny_bench_config(tmp_path)
        res = cli.run_cell(config, cli.setup_problem(config, 1e4), "EE")
        x_direct = spla.spsolve(res["operator"].matrix.tocsc(), res["rhs"])
        assert np.linalg.norm(res["solution"] - x_direct) <= 1e-5 * np.linalg.norm(x_direct)


SHARING_VARIANTS = cli.DEFAULT_VARIANTS


@pytest.fixture(scope="module")
def shared_sweeps():
    """Two consecutive 40x40/4x4 sweeps of all eight variants at contrasts 1
    and 1e6, with the part builders and the problem set-up counted, and the
    memo keys present at every build."""
    config = cli.BenchmarkConfig(nx=40, ny=40, Nx=4, Ny=4, contrasts=(1.0, 1e6), variants=SHARING_VARIANTS)
    counts = Counter()
    memo_seen = []
    originals = {
        name: getattr(obj, name)
        for obj, name in ((cli, "setup_problem"), (schwarz, "build_level1"),
                          (schwarz, "build_selections"), (schwarz, "build_preconditioner"))
    }

    def setup_problem(config, eta, *args):
        counts["problem"] += 1
        return originals["setup_problem"](config, eta, *args)

    def build_level1(kind, *args):
        counts["level1", kind] += 1
        return originals["build_level1"](kind, *args)

    def build_selections(variant, *args):
        counts["selections", variant.eig_kind, variant.randomized] += 1
        return originals["build_selections"](variant, *args)

    def build_preconditioner(tag, *args):
        memo_seen.append((tag, set(args[-1] or ())))
        return originals["build_preconditioner"](tag, *args)

    runs = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "setup_problem", setup_problem)
        mp.setattr(schwarz, "build_level1", build_level1)
        mp.setattr(schwarz, "build_selections", build_selections)
        mp.setattr(schwarz, "build_preconditioner", build_preconditioner)
        for _ in range(2):
            counts.clear()
            memo_seen.clear()
            results = cli.run_benchmark(config)
            runs.append((results, dict(counts), list(memo_seen)))
    return config, runs


class TestSweepSharing:
    def test_cells_bitwise_equal_to_independent_runs(self, shared_sweeps):
        config, runs = shared_sweeps
        results = runs[0][0]
        for eta in config.contrasts:
            for tag in config.variants:
                shared, alone = results[eta][tag], cli.run_cell(config, cli.setup_problem(config, eta), tag)
                for key in ("iterations", "condition", "coarse_dim", "converged"):
                    assert shared[key] == alone[key], (eta, tag, key)
                assert np.array_equal(shared["solution"], alone["solution"]), (eta, tag)

    def test_each_part_built_once_per_contrast(self, shared_sweeps):
        config, runs = shared_sweeps
        n = len(config.contrasts)
        expected = {
            "problem": n,
            ("level1", "elasticity"): n,
            ("level1", "heat"): n,
            ("selections", "elasticity", False): n,
            ("selections", "elasticity", True): n,
            ("selections", "heat", False): n,  # shared by HH, HH+Rot, EH, EH+Rot
            ("selections", "heat", True): n,
        }
        assert runs[0][1] == expected
        assert runs[1][1] == expected  # no cache survives a call

    def test_memo_holds_only_parts_still_needed(self, shared_sweeps):
        config, runs = shared_sweeps
        memo_seen = runs[0][2]
        assert len(memo_seen) == len(config.contrasts) * len(config.variants)
        for i, (tag, keys) in enumerate(memo_seen):
            rest = config.variants[config.variants.index(tag):]
            assert keys <= {key for t in rest for key in schwarz.part_keys(t)}, (i, tag)
        assert memo_seen[0][1] == set()  # a new contrast starts from an empty memo
        assert memo_seen[len(config.variants)][1] == set()

    def test_t_eig_carried_by_shared_selections(self, shared_sweeps):
        config, runs = shared_sweeps
        per_variant = runs[0][0][1e6]
        assert per_variant["HH"]["t_eig"] == per_variant["EH+Rot"]["t_eig"] > 0.0
        assert per_variant["EE"]["t_eig"] > 0.0 and per_variant["None"]["t_eig"] == 0.0


class TestCoeffFileLoads:
    def test_loads_snap_to_the_fields_stiffest_elements(self, tmp_path):
        mesh = build_fine_mesh(20, 20)
        stiff = np.zeros((mesh.ny, mesh.nx), dtype=bool)
        stiff[12:16, 2:6] = True  # away from every solid region of the layout
        path = tmp_path / "coeff.txt"
        np.savetxt(path, np.where(stiff, 1.0, 1e-4))
        config = cli.BenchmarkConfig(nx=20, ny=20, Nx=2, Ny=2)
        stiff_nodes = set(mesh.element_nodes()[stiff.ravel()].ravel())

        def loaded_nodes(problem):
            return set(np.nonzero(problem.op.expand(problem.f))[0])

        from_file = loaded_nodes(cli.setup_problem(config, 1e4, coeff_file=path))
        assert len(from_file) == 2 and from_file <= stiff_nodes
        from_layout = loaded_nodes(cli.setup_problem(config, 1e4))
        assert len(from_layout) == 2 and not from_layout & stiff_nodes


class TestRefinementTrend:
    def test_unpreconditioned_iterations_grow_like_inverse_h(self, tmp_path):
        iters = []
        for n in (10, 20, 40):
            config = cli.BenchmarkConfig(
                nx=n, ny=n, Nx=2, Ny=2, layout="homogeneous", maxit=20000
            )
            res = cli.run_cell(config, cli.setup_problem(config, 1.0), "None")
            assert res["converged"]
            iters.append(res["iterations"])
        assert iters[0] < iters[1] < iters[2]
        for coarse, fine in zip(iters, iters[1:]):
            assert 1.5 <= fine / coarse <= 3.0


class TestMain:
    def test_bench_smoke(self, tmp_path, capsys):
        rc = cli.main(
            ["bench", "--mesh", "20", "20", "--coarse", "2", "2", "--contrasts", "1",
             "--variants", "EE", "--n-max", "3", "--outdir", str(tmp_path)]
        )
        assert rc == 0
        assert (tmp_path / "summary_iterations.csv").exists()
        out = capsys.readouterr().out
        assert "contrast 1:" in out and "EE" in out

    def test_solve_smoke_with_residual_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "residuals.csv"
        rc = cli.main(
            ["solve", "--mesh", "20", "20", "--coarse", "2", "2", "--eta", "100",
             "--variant", "EE", "--n-max", "3", "--residual-csv", str(csv_path)]
        )
        assert rc == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "iteration,relative_residual"
        assert len(lines) >= 3
        for line in lines[1:]:  # numbers, not np.float64(...)
            iteration, residual = line.split(",")
            int(iteration), float(residual)
        assert "iterations" in capsys.readouterr().out

    def test_gen_coeff_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "coeff.txt"
        pgm = tmp_path / "coeff.pgm"
        rc = cli.main(
            ["gen-coeff", "--mesh", "30", "30", "--eta", "1e4",
             "--out", str(out), "--pgm", str(pgm)]
        )
        assert rc == 0
        capsys.readouterr()
        mesh = build_fine_mesh(30, 30)
        loaded = assembly.CoefficientField.from_text(out, 0.3)
        direct = coefficients.generate_coefficient("channels-and-inclusions", mesh, 1e4)
        assert np.allclose(loaded.values, direct.values, rtol=1e-12)
        assert coefficients.read_pgm(pgm).shape == (30, 30)

    def test_config_file_sets_defaults_and_coerces_types(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text(
            "[solver]\nmesh = 20,20\ncoarse = 2,2\nn-max = 3\nnu = 0.25\n"
            "layout = homogeneous\n"
        )
        args = cli.parse_args(["solve", "--config", str(cfg)])
        assert args.mesh == [20, 20]
        assert args.n_max == 3
        assert args.nu == 0.25
        assert args.layout == "homogeneous"

    def test_command_line_flags_win_over_config_file(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[solver]\nmesh = 20,20\nn_max = 3\nseed = 5\nvolfrac = 0.4\n")
        args = cli.parse_args(
            ["solve", "--mesh", "30", "10", "--config", str(cfg), "--seed", "0"]
        )
        assert args.mesh == [30, 10]
        assert args.seed == 0
        assert args.n_max == 3  # from the file; no flag given
        assert not hasattr(args, "volfrac")  # a key of another subcommand

    def test_transposed_coeff_file_rejected(self, tmp_path, capsys):
        mesh = build_fine_mesh(30, 20)
        coeff = coefficients.generate_coefficient("channels-and-inclusions", mesh, 1e2)
        path = tmp_path / "coeff.txt"
        np.savetxt(path, coeff.values.reshape(mesh.ny, mesh.nx).T)
        rc = cli.main(
            ["solve", "--mesh", "30", "20", "--coarse", "3", "2", "--variant", "EE",
             "--n-max", "3", "--coeff-file", str(path)]
        )
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "20 rows of 30" in err[0]

    def test_empty_coeff_file_rejected(self, tmp_path, capsys):
        path = tmp_path / "empty.txt"
        path.write_text("")
        rc = cli.main(["solve", "--mesh", "20", "20", "--coarse", "2", "2", "--coeff-file", str(path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "empty.txt" in err

    def test_tolerance_below_round_off_is_not_converged(self, capsys):
        # the recurrence residual reaches 1e-300; b - A x stays at round-off
        rc = cli.main(["solve", "--mesh", "8", "8", "--coarse", "2", "2", "--tol", "1e-300", "--maxit", "50"])
        out = capsys.readouterr().out.splitlines()
        assert rc == 1
        assert out[1].endswith(" (not converged)")
        assert out[2].startswith("true residual") and 1e-300 < float(out[2].split()[-1]) < 1e-12
        rc = cli.main(["solve", "--mesh", "8", "8", "--coarse", "2", "2", "--tol", "1e-10", "--maxit", "50"])
        out = capsys.readouterr().out.splitlines()
        assert rc == 0 and not out[1].endswith(" (not converged)") and float(out[2].split()[-1]) <= 1e-9

    def test_solve_without_iterations_prints_na_condition(self, capsys):
        rc = cli.main(
            ["solve", "--mesh", "20", "20", "--coarse", "2", "2", "--variant", "EE",
             "--n-max", "3", "--maxit", "0"]
        )
        assert rc == 1  # not converged
        assert "condition est. n/a" in capsys.readouterr().out

    def test_bench_without_iterations_prints_na_condition(self, tmp_path, capsys):
        rc = cli.main(
            ["bench", "--mesh", "20", "20", "--coarse", "4", "4", "--contrasts", "1", "--variants", "EE",
             "--maxit", "0", "--outdir", str(tmp_path)]
        )
        assert rc == 0
        assert re.search(r"EE +iters +>0 +cond +n/a +coarse dim", capsys.readouterr().out)

    def test_optimize_failed_state_solve_is_one_line_and_exit_code_1(self, tmp_path, capsys):
        # as solve exits 1 when its solve does not converge
        rc = cli.main(["optimize", "--mesh", "12", "12", "--coarse", "2", "2", "--iterations", "2",
                       "--n-max", "2", "--maxit", "1", "--outdir", str(tmp_path)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "mselast: error: state solve failed at iteration 0 with a preconditioner built for it\n")

    @pytest.mark.parametrize("failing", [0, 1])
    def test_failed_optimize_keeps_the_log_of_its_completed_steps(self, failing, tmp_path, monkeypatch, capsys):
        # every solve from number ``failing`` on reports non-convergence, so
        # design step ``failing`` fails, after its retry when it has one
        solve, solves = krylov.pcg_solve, []

        def failing_solve(*args, **kw):
            x, report = solve(*args, **kw)
            solves.append(report)
            return x, dataclasses.replace(report, converged=len(solves) <= failing)

        monkeypatch.setattr(krylov, "pcg_solve", failing_solve)
        flags = ["optimize", "--mesh", "12", "12", "--coarse", "2", "2", "--iterations", "3", "--n-max", "2",
                 "--variant", "EE", "--snapshot-every", "0"]
        rc = cli.main(flags + ["--outdir", str(tmp_path / "failed")])
        assert rc == 1
        assert f"state solve failed at iteration {failing}" in capsys.readouterr().err
        monkeypatch.setattr(krylov, "pcg_solve", solve)
        assert cli.main(flags + ["--outdir", str(tmp_path / "ok")]) == 0
        failed = (tmp_path / "failed" / "log.csv").read_text().splitlines()
        assert failed == (tmp_path / "ok" / "log.csv").read_text().splitlines()[: 1 + failing]
        assert failed[0] == "iteration,g0,volume,inner_pcg_iterations,tol,built,reason,condition"

    def test_value_error_is_one_line_and_exit_code_2(self, capsys):
        rc = cli.main(["solve", "--mesh", "20", "20", "--coarse", "3", "3"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("mselast: error: ") and "not nested" in captured.err

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--coarse", "0", "10"], "coarse element counts must be positive"),
            (["--coarse", "1", "1", "--variant", "EE"], "no subdomains"),
            (["--nu", "1.0"], "Poisson ratio 1.0 outside"),
            (["--nu", "2"], "Poisson ratio 2.0 outside"),
            (["--n-max", "0"], "mode cap must be >= 1, got 0"),
            # the inclusions are narrower than an element and hold no element centroid
            (["--layout", "inclusions-only"], "no solid element on the 20x20 mesh to take the load at (0.2, 0.2)"),
            (["--maxit", "-1"], "PCG iteration cap must be >= 0, got -1"),
            (["--seed", "-1"], "eigensolver seed must be >= 0, got -1"),
            # 'None' is a variant like the others, and the list names it
            (["--variant", "bogus"], "unknown preconditioner variant 'bogus'; choose from "
             "['EE', 'EE;Rand', 'EH', 'EH+Rot', 'EH+Rot;Rand', 'HH', 'HH+Rot', 'None']"),
        ],
        ids=["coarse-0x10", "coarse-1x1", "nu-1", "nu-2", "n-max-0",
             "no-solid-element", "maxit-neg",
             "seed-neg", "variant-bogus"],
    )
    def test_bad_input_is_one_line_and_exit_code_2(self, flags, message, capsys):
        rc = cli.main(["solve", "--mesh", "20", "20", "--coarse", "2", "2", *flags])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("mselast: error: ") and message in captured.err

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--iterations", "0"], "need at least 1 design iteration, got 0"),
            (["--volfrac", "0"], "volume fraction 0.0 outside (0, 1)"),
            # a full-solid design: the OC bisection cannot bracket the volume
            (["--volfrac", "1"], "volume fraction 1.0 outside (0, 1)"),
            (["--layout", "homogeneous"], "unrecognized arguments: --layout homogeneous"),
            (["--variant", "bogus"], "unknown preconditioner variant 'bogus'"),
            (["--snapshot-every", "-1"], "--snapshot-every must be >= 0 (0 writes no snapshots), got -1"),
            (["--seed", "-1"], "eigensolver seed must be >= 0, got -1"),
        ],
        ids=["iterations-0", "volfrac-0", "volfrac-1", "layout", "variant-bogus", "snapshot-every-neg", "seed-neg"],
    )
    def test_bad_optimize_input_is_one_line_and_exit_code_2(self, flags, message, tmp_path, capsys):
        rc = cli.main(["optimize", "--mesh", "12", "12", "--coarse", "2", "2", "--iterations", "2",
                       "--n-max", "2", "--outdir", str(tmp_path / "out"), *flags])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("mselast: error: ") and message in captured.err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command,flags,message",
        [
            ("bench", ["--tol", "0"], "tolerance must be in (0, 1)"),
            ("bench", ["--maxit", "-1"], "PCG iteration cap must be >= 0, got -1"),
            ("optimize", ["--tol", "0"], "tolerance must be in (0, 1)"),
            ("optimize", ["--tol", "1"], "tolerance must be in (0, 1)"),
            ("optimize", ["--maxit", "-1"], "PCG iteration cap must be >= 0, got -1"),
            ("optimize", ["--penal", "0.5"], "penalization exponent must be finite and >= 1, got 0.5"),
            ("optimize", ["--penal", "nan"], "penalization exponent must be finite and >= 1, got nan"),
            ("optimize", ["--penal", "inf"], "penalization exponent must be finite and >= 1, got inf"),
            ("optimize", ["--filter-radius", "-1"], "filter radius must be finite and nonnegative, got -1.0 h"),
            ("optimize", ["--filter-radius", "inf"], "filter radius must be finite and nonnegative, got inf h"),
            ("optimize", ["--nu", "0.7"], "Poisson ratio 0.7 outside [0, 0.5)"),
            ("bench", ["--nu", "0.7"], "Poisson ratio 0.7 outside [0, 0.5)"),
        ],
        ids=["bench-tol-0", "bench-maxit-neg", "optimize-tol-0", "optimize-tol-1", "optimize-maxit-neg",
             "optimize-penal-half", "optimize-penal-nan", "optimize-penal-inf", "optimize-filter-radius-neg",
             "optimize-filter-radius-inf", "optimize-nu-0.7", "bench-nu-0.7"],
    )
    def test_bad_solver_settings_rejected_before_anything_is_built(
            self, command, flags, message, tmp_path, monkeypatch, capsys):
        # the configs check them, so no preconditioner is built and no outdir made
        def build(*args, **kw):
            raise AssertionError("a preconditioner was built")

        monkeypatch.setattr(schwarz, "build_preconditioner", build)
        rc = cli.main([command, "--mesh", "12", "12", "--coarse", "2", "2", "--n-max", "2",
                       "--outdir", str(tmp_path / "out"), *flags])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"mselast: error: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command,flags,value",
        [
            ("solve", ["--eta", "inf"], "inf"),
            ("solve", ["--eta", "nan"], "nan"),
            ("bench", ["--contrasts", "1", "inf"], "inf"),
            ("bench", ["--contrasts", "nan", "1"], "nan"),
            ("bench", ["--contrasts", "1", "0.5"], "0.5"),
        ],
        ids=["solve-inf", "solve-nan", "bench-1-inf", "bench-nan-1", "bench-1-half"],
    )
    def test_contrast_not_finite_rejected_before_anything_is_built(
            self, command, flags, value, tmp_path, monkeypatch, capsys):
        # the config checks every contrast, so no cell runs before a bad one fails
        def build(*args, **kw):
            raise AssertionError("a problem was built")

        monkeypatch.setattr(cli, "setup_problem", build)
        monkeypatch.setattr(schwarz, "build_preconditioner", build)
        outdir = ["--outdir", str(tmp_path / "out")] if command == "bench" else []
        rc = cli.main([command, "--mesh", "20", "20", "--coarse", "2", "2", *outdir, *flags])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"mselast: error: contrast must be finite and >= 1, got {value}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command,flags,message",
        [
            ("bench", ["--outdir", "{file}/out"], "Not a directory: '{file}/out'"),
            ("solve", ["--residual-csv", "{file}/r.csv"], "--residual-csv {file}/r.csv: its directory does not exist"),
        ],
        ids=["bench-outdir", "solve-residual-csv"],
    )
    def test_unusable_output_path_rejected_before_anything_is_built(
            self, command, flags, message, tmp_path, monkeypatch, capsys):
        # a path below a regular file can never be written: fail before the work, not after it
        def build(*args, **kw):
            raise AssertionError("a problem was built")

        monkeypatch.setattr(cli, "setup_problem", build)
        monkeypatch.setattr(schwarz, "build_preconditioner", build)
        file = tmp_path / "file"
        file.write_text("")
        rc = cli.main([command, "--mesh", "20", "20", "--coarse", "2", "2",
                       *(flag.format(file=file) for flag in flags)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("mselast: error: ") and message.format(file=file) in captured.err

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["bench", "--mesh", "20", "20", "--coarse", "4", "4", "--n-max", "0", "--outdir", "{tmp}/out"],
             "mode cap must be >= 1, got 0"),
            (["bench", "--mesh", "20", "20", "--coarse", "4", "4", "--seed", "-1", "--outdir", "{tmp}/out"],
             "eigensolver seed must be >= 0, got -1"),
            (["optimize", "--mesh", "12", "12", "--coarse", "2", "2", "--rule", "gap", "--variant", "EE",
              "--outdir", "{tmp}/out"], "variant EE: the gap rule is not reliable for elasticity eigenproblems"),
            (["bench", "--mesh", "20", "20", "--coarse", "4", "4", "--rule", "gap", "--variants", "None", "EE",
              "--outdir", "{tmp}/out"], "variant EE: the gap rule is not reliable for elasticity eigenproblems"),
            (["solve", "--mesh", "40", "40", "--coarse", "4", "4", "--variant", "EE", "--rule", "gap",
              "--residual-csv", "{tmp}/r.csv"], "variant EE: the gap rule is not reliable for elasticity eigenproblems"),
            (["solve", "--mesh", "20", "20", "--coarse", "4", "4", "--residual-csv", "{tmp}/dir"],
             "--residual-csv {tmp}/dir: is a directory"),
            # the randomized solver draws n_max + spectral.OVERSAMPLING snapshots
            (["solve", "--mesh", "12", "12", "--coarse", "2", "2", "--variant", "EE;Rand", "--snapshots", "11",
              "--residual-csv", "{tmp}/r.csv"], "unrecognized arguments: --snapshots 11"),
            (["bench", "--mesh", "12", "12", "--coarse", "2", "2", "--variants", "EE;Rand", "--snapshots", "11",
              "--outdir", "{tmp}/out"], "unrecognized arguments: --snapshots 11"),
            (["optimize", "--mesh", "12", "12", "--coarse", "2", "2", "--snapshots", "11",
              "--outdir", "{tmp}/out"], "unrecognized arguments: --snapshots 11"),
            (["gen-coeff", "--mesh", "10", "10", "--out", "{tmp}/o.txt", "--pgm", "{tmp}/missing/c.pgm"],
             "--pgm {tmp}/missing/c.pgm: its directory does not exist"),
            (["gen-coeff", "--mesh", "10", "10", "--out", "{tmp}/dir"], "--out {tmp}/dir: is a directory"),
        ],
        ids=["bench-n-max-0", "bench-seed-neg", "optimize-gap-EE", "bench-gap-EE",
             "solve-gap-EE", "solve-residual-csv-dir", "solve-snapshots", "bench-snapshots", "optimize-snapshots",
             "gen-coeff-pgm-missing-dir", "gen-coeff-out-dir"],
    )
    def test_bad_option_rejected_before_any_output_or_eigensolve(self, argv, message, tmp_path, monkeypatch, capsys):
        # every option is checked before an output path is made and before the first eigensolve
        eigensolves = []
        for name in ("solve_local_eig_dense", "solve_local_eig_randomized"):
            solve = getattr(spectral, name)
            monkeypatch.setattr(spectral, name, lambda *a, solve=solve, **kw: eigensolves.append(a) or solve(*a, **kw))
        (tmp_path / "dir").mkdir()
        before = sorted(tmp_path.rglob("*"))
        rc = cli.main([arg.format(tmp=tmp_path) for arg in argv])
        assert rc == 2
        assert sorted(tmp_path.rglob("*")) == before
        assert eigensolves == []
        err = capsys.readouterr().err
        assert err.count("mselast: error:") == err.count("\n") == 1
        assert err == f"mselast: error: {message.format(tmp=tmp_path)}\n"

    @pytest.mark.parametrize(
        "mesh,coarse,stiff_row,message",
        [
            (["12", "10"], ["3", "2"], None, "the benchmark loads cancel at node 110 of the 12x10 mesh"),
            (["20", "20"], ["2", "2"], 0, "a benchmark load lands on clamped node 3 of the 20x20 mesh"),
        ],
        ids=["loads-cancel", "load-on-clamped-node"],
    )
    def test_zero_load_rejected_before_anything_is_built(
            self, mesh, coarse, stiff_row, message, tmp_path, monkeypatch, capsys):
        # both point loads snap to one node and cancel, or a field stiff only
        # in element row 0 puts them on the clamped edge y = 0: either way the
        # problem is zero, and solving it would report 0 iterations
        def build(*args, **kw):
            raise AssertionError("a preconditioner was built")

        monkeypatch.setattr(schwarz, "build_preconditioner", build)
        flags = []
        if stiff_row is not None:
            field = np.full((int(mesh[1]), int(mesh[0])), 1e-4)
            field[stiff_row] = 1.0
            np.savetxt(tmp_path / "coeff.txt", field)
            flags = ["--coeff-file", str(tmp_path / "coeff.txt")]
        rc = cli.main(["solve", "--mesh", *mesh, "--coarse", *coarse, *flags])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"mselast: error: {message}\n"

    def test_level1_failure_names_its_subdomain(self, capsys):
        rc = cli.main(["solve", "--mesh", "10", "10", "--coarse", "2", "2", "--eta", "1e300"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("mselast: error: level-1 subdomain 0: banded Cholesky failed") and err.count("\n") == 1

    @pytest.mark.parametrize("variant,expected", [("EE", 1), ("None", 0)])
    def test_solve_prints_the_level1_factors(self, variant, expected, capsys):
        # at contrast 1 the nine subdomains of a 4x4 coarse grid are one patch problem
        rc = cli.main(["solve", "--mesh", "20", "20", "--coarse", "4", "4", "--eta", "1", "--variant", variant,
                       "--n-max", "2", "--maxit", "500"])
        out = capsys.readouterr().out.splitlines()
        assert rc == 0
        below_coarse_dim = next(i for i, line in enumerate(out) if line.startswith("coarse dim")) + 1
        assert out[below_coarse_dim] == f"level-1 factors {expected}"

    @pytest.mark.parametrize(
        "flag", ["--coarse", "--n-max", "--snapshots", "--rule", "--seed", "--tol", "--maxit", "--nu"]
    )
    def test_gen_coeff_rejects_solver_flags(self, flag, tmp_path, capsys):
        value = {"--coarse": ["2", "2"], "--rule": ["gap"]}.get(flag, ["1"])
        rc = cli.main(["gen-coeff", "--mesh", "10", "10", "--out", str(tmp_path / "c.txt"), flag, *value])
        assert rc == 2
        assert capsys.readouterr().err == f"mselast: error: unrecognized arguments: {flag} {' '.join(value)}\n"
        assert not (tmp_path / "c.txt").exists()

    def test_shared_config_file_serves_optimize_and_solve(self, tmp_path, capsys):
        # layout is a key of solve, bench and gen-coeff; optimize skips it
        cfg = tmp_path / "shared.ini"
        cfg.write_text("[run]\nmesh = 12,12\ncoarse = 2,2\nn-max = 2\nlayout = homogeneous\niterations = 2\n")
        args = cli.parse_args(["optimize", "--config", str(cfg), "--outdir", str(tmp_path)])
        assert not hasattr(args, "layout") and args.iterations == 2
        assert cli.parse_args(["solve", "--config", str(cfg)]).layout == "homogeneous"
        rc = cli.main(
            ["optimize", "--config", str(cfg), "--outdir", str(tmp_path / "out"), "--snapshot-every", "0"]
        )
        assert rc == 0
        assert "final compliance" in capsys.readouterr().out
        assert len((tmp_path / "out" / "log.csv").read_text().splitlines()) == 3

    @pytest.mark.parametrize("flags", [["--eta", "1e6"], ["--layout", "homogeneous"], ["--eta", "1e4"]],
                             ids=["eta", "layout", "eta-at-default"])
    def test_coeff_file_rejects_eta_and_layout(self, flags, tmp_path, capsys):
        # the file gives the field, so a contrast or layout would be ignored
        path = tmp_path / "coeff.txt"
        np.savetxt(path, np.full((20, 20), 1.0))
        base = ["solve", "--mesh", "20", "20", "--coarse", "2", "2", "--variant", "EE", "--n-max", "2",
                "--coeff-file", str(path)]
        assert cli.main(base) == 0
        capsys.readouterr()
        assert cli.main(base + flags) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("mselast: error: --coeff-file gives the field")
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[solve]\n{flags[0][2:]} = {flags[1]}\n")
        assert cli.main(base + ["--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("mselast: error: --coeff-file gives the field")

    def test_default_section_keys_apply_like_any_section(self, tmp_path, capsys):
        # keys under [DEFAULT] alone are read, and an unknown one is rejected
        cfg = tmp_path / "run.ini"
        cfg.write_text("[DEFAULT]\nmesh = 8,8\nvariant = EE\n")
        args = cli.parse_args(["solve", "--config", str(cfg)])
        assert args.mesh == [8, 8] and args.variant == "EE"
        cfg.write_text("[DEFAULT]\nmesh = 8,8\nvariant = bogus\n")
        assert cli.main(["solve", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("mselast: error: unknown preconditioner variant 'bogus'")
        cfg.write_text("[DEFAULT]\nmesh = 8,8\nn-maxx = 1\n")
        assert cli.main(["solve", "--config", str(cfg)]) == 2
        message = f"config file {cfg}: key 'n-maxx' is not a flag of any subcommand"
        assert capsys.readouterr().err == f"mselast: error: {message}\n"

    def test_percent_in_a_config_value_is_text(self, tmp_path, capsys):
        # no interpolation: a lone '%' is checked like any value, in one line, not a traceback
        cfg = tmp_path / "run.ini"
        cfg.write_text("[run]\nmesh = 8,8\nlayout = a%b\n")
        assert cli.main(["solve", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("mselast: error: argument --layout: invalid choice: 'a%b'")
        cfg.write_text(f"[run]\nresidual-csv = {tmp_path / 'r%1.csv'}\n")
        assert cli.parse_args(["solve", "--config", str(cfg)]).residual_csv == str(tmp_path / "r%1.csv")

    def test_config_file_naming_another_rejected(self, tmp_path, capsys):
        (tmp_path / "b.ini").write_text("[solver]\nn-max = 3\n")
        (tmp_path / "a.ini").write_text(f"[solver]\nconfig = {tmp_path / 'b.ini'}\n")
        assert cli.parse_args(["solve", "--config", str(tmp_path / "b.ini")]).n_max == 3
        rc = cli.main(["solve", "--config", str(tmp_path / "a.ini")])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert "a.ini: key 'config' not allowed" in captured.err

    @pytest.mark.parametrize("key", ["n-maxx", "reuse-threshold", "snapshots"])
    def test_config_key_of_no_subcommand_rejected(self, key, tmp_path, capsys):
        # volfrac, a key of optimize, is skipped; a key of no subcommand is a
        # typo or a flag that is gone, and would be ignored the same way
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[run]\nmesh = 20,20\ncoarse = 2,2\nn-max = 2\nvolfrac = 0.4\n{key} = 1\n")
        rc = cli.main(["solve", "--config", str(cfg)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"mselast: error: config file {cfg}: key '{key}' is not a flag of any subcommand\n"

    def test_optimize_log_records_what_was_built_and_why(self, tmp_path, capsys):
        rc = cli.main(["optimize", "--mesh", "12", "12", "--coarse", "2", "2", "--iterations", "3",
                       "--n-max", "2", "--variant", "EE", "--snapshot-every", "0", "--outdir", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].endswith("build all (first)") and out[2].endswith("build level1 (stale-level1)")
        assert out[1].endswith("tol 0.001")
        with open(tmp_path / "log.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(row["built"], row["reason"]) for row in rows] == [
            ("all", "first"), ("none", ""), ("level1", "stale-level1")]
        assert [row["tol"] for row in rows] == ["1e-06", "0.001", "1e-06"]
        for row in rows:  # numbers, not np.float64(...)
            for key in ("iteration", "g0", "volume", "inner_pcg_iterations", "tol", "condition"):
                float(row[key])

    @pytest.mark.parametrize("bad", ["nan", "inf", "0"])
    def test_non_finite_or_non_positive_coeff_file_rejected(self, bad, tmp_path, capsys):
        field = np.full((20, 20), 1e-4)
        field[3, 7] = float(bad)
        path = tmp_path / "coeff.txt"
        np.savetxt(path, field)
        rc = cli.main(["solve", "--mesh", "20", "20", "--coarse", "2", "2", "--variant", "EE",
                       "--n-max", "2", "--coeff-file", str(path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "coeff.txt" in err
        assert f"finite and positive, but element 67 has {float(bad)}" in err


@settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    st.integers(1, 12), st.integers(1, 12), st.integers(-1, 13), st.integers(-1, 13),
    st.sampled_from(sorted(schwarz.VARIANTS)), st.integers(1, 8), st.sampled_from(coefficients.LAYOUTS),
)
def test_solve_partition_flags_end_in_a_result_or_one_error_line(capsys, nx, ny, cx, cy, variant, n_max, layout):
    # any mesh and coarse grid, nested or not, with or without neighborhoods,
    # blocks one element wide included, ends in a solve or one error line
    rc = cli.main(["solve", "--mesh", str(nx), str(ny), "--coarse", str(cx), str(cy), "--variant", variant,
                   "--n-max", str(n_max), "--layout", layout])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if rc != 0:
        assert rc in (1, 2) and err.count("\n") == 1 and err.startswith("mselast: error:"), (rc, err)


def test_readme_flag_table_matches_parser():
    # each row of the README's "| Subcommand | Flags |" table names
    # subcommands (or "all four") and flags; together they list every flag
    # of every subcommand, and no other
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    parsed = cli.subcommand_flags(cli.build_parser())
    documented = {}
    for row in text[text.index("| Subcommand | Flags |"):].splitlines()[2:]:
        if not row.startswith("|"):
            break
        who, flags = row.strip("|").split("|")
        for command in parsed if who.strip() == "all four" else re.findall(r"`([^`]+)`", who):
            documented.setdefault(command, set()).update(f.split()[0] for f in re.findall(r"`([^`]+)`", flags))
    assert documented == parsed


def test_python_dash_m_runs_the_cli():
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-m", "mselast", "--help"], capture_output=True, text=True, timeout=60,
                          cwd=root, env={**os.environ, "PYTHONPATH": str(root / "src")})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: mselast ")
