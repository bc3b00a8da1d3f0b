"""Grid I/O, data workflows, and the command line surface."""

import dataclasses
import os
import pathlib
import struct
import subprocess
import sys
import time

import numpy as np
import pytest

from carmafield import cli, estimate, gridio, model, simulate, workflows
from carmafield.errors import (
    ConfigError,
    LengthMismatch,
    MalformedHeader,
    SingularDesign,
    ValidationError,
    ZeroVariance,
)

import oracles

REF_B = (4.8940, -1.1432)
REF_EIGS = ((-1.7776, -2.0948), (-1.3057, -2.5142))


class TestGridIO:
    def test_carf_round_trip_bit_exact(self, tmp_path, rng):
        field = simulate.LatticeField(
            delta=(0.04, 0.05), values=rng.normal(size=(17, 23))
        )
        path = tmp_path / "field.carf"
        gridio.write_carf(field, path)
        back = gridio.read_carf(path)
        assert back.delta == field.delta
        assert np.array_equal(back.values, field.values)

    def test_csv_round_trip_value_exact(self, tmp_path, rng):
        field = simulate.LatticeField(delta=0.1, values=rng.normal(size=(9, 7)))
        path = tmp_path / "field.csv"
        gridio.write_field_csv(field, path)
        back = gridio.read_field_csv(path)
        assert np.array_equal(back.values, field.values)  # 17 digits round-trip

    def test_truncated_carf_rejected(self, tmp_path, rng):
        field = simulate.LatticeField(delta=0.1, values=rng.normal(size=(6, 6)))
        path = tmp_path / "field.carf"
        gridio.write_carf(field, path)
        data = path.read_bytes()
        path.write_bytes(data[:-16])
        with pytest.raises(LengthMismatch):
            gridio.read_carf(path)

    def test_truncated_csv_rejected(self, tmp_path, rng):
        field = simulate.LatticeField(delta=0.1, values=rng.normal(size=(5, 5)))
        path = tmp_path / "field.csv"
        gridio.write_field_csv(field, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-3]) + "\n")
        with pytest.raises(LengthMismatch):
            gridio.read_field_csv(path)

    def test_bare_matrix_needs_delta(self, tmp_path):
        path = tmp_path / "matrix.csv"
        path.write_text("1.5,2.5,3.5\n4.5,5.5,6.5\n")
        with pytest.raises(MalformedHeader):
            gridio.read_field_csv(path)
        field = gridio.read_field_csv(path, default_delta=(0.5, 0.5))
        assert field.n == (2, 3)
        assert field.values[1, 2] == 6.5

    def test_not_a_grid_file(self, tmp_path):
        path = tmp_path / "junk.carf"
        path.write_bytes(b"NOPE")
        with pytest.raises(MalformedHeader):
            gridio.read_carf(path)

    def test_large_ingest_speed(self, tmp_path, rng):
        field = simulate.LatticeField(delta=0.04, values=rng.normal(size=(1000, 1000)))
        path = tmp_path / "big.carf"
        gridio.write_carf(field, path)
        start = time.monotonic()
        back = gridio.ingest_grid(path)
        elapsed = time.monotonic() - start
        assert back.n == (1000, 1000)
        assert elapsed < 2.0


class TestNormalize:
    def test_mean_zero_variance_one(self, rng):
        field = simulate.LatticeField(
            delta=1.0, values=3.0 + 2.5 * rng.normal(size=(40, 40))
        )
        out = workflows.normalize(field)
        assert abs(float(np.mean(out.values))) < 1e-12
        assert float(np.var(out.values)) == pytest.approx(1.0, abs=1e-12)

    def test_idempotent(self, rng):
        field = simulate.LatticeField(delta=1.0, values=rng.normal(size=(30, 30)))
        once = workflows.normalize(field)
        twice = workflows.normalize(once)
        np.testing.assert_allclose(twice.values, once.values, atol=1e-12)

    def test_original_recoverable(self, rng):
        values = 5.0 + 0.3 * rng.normal(size=(20, 20))
        field = simulate.LatticeField(delta=1.0, values=values.copy())
        out = workflows.normalize(field)
        restored = (
            out.values * out.provenance["normalize_scale"]
            + out.provenance["normalize_shift"]
        )
        np.testing.assert_allclose(restored, values, atol=1e-12)

    def test_zero_variance_rejected(self):
        field = simulate.LatticeField(delta=1.0, values=np.full((5, 5), 2.0))
        with pytest.raises(ZeroVariance):
            workflows.normalize(field)


class TestDiagnose:
    def test_constant_field_warns(self):
        field = simulate.LatticeField(delta=1.0, values=np.full((8, 8), 1.0))
        report = workflows.diagnose(field)
        assert report["std"] == 0.0
        assert any("zero variance" in w for w in report["warnings"])

    def test_equal_rows_structure(self):
        profile = np.linspace(0.0, 1.0, 12)
        field = simulate.LatticeField(
            delta=1.0, values=np.tile(profile, (9, 1))
        )
        report = workflows.diagnose(field)
        np.testing.assert_allclose(report["axis_means"][1], profile, atol=1e-14)
        np.testing.assert_allclose(
            report["axis_means"][0], np.full(9, profile.mean()), atol=1e-14
        )

    def test_standard_normal_histogram_close_to_reference(self):
        rng = simulate.substream(100, 0)
        field = simulate.LatticeField(delta=1.0, values=rng.normal(size=(500, 500)))
        report = workflows.diagnose(field)
        sup = float(
            np.max(np.abs(report["histogram_density"] - report["normal_reference"]))
        )
        assert sup < 0.02


def run_cli(args):
    return cli.main([str(a) for a in args])


class TestCliCommands:
    MODEL_FLAGS = [
        "--b", "4.8940,-1.1432",
        "--eigenvalues", "-1.7776,-2.0948;-1.3057,-2.5142",
    ]

    def test_simulate_then_variogram_then_diagnose(self, tmp_path):
        out1 = tmp_path / "sim"
        code = run_cli(
            ["simulate", "--output-dir", out1, "--n", 64, "--delta", 0.05,
             "--m", 80, "--seed", 7, "--csv", "true"] + self.MODEL_FLAGS
        )
        assert code == 0
        assert (out1 / "field.carf").exists()
        assert (out1 / "manifest.txt").exists()
        out2 = tmp_path / "vario"
        code = run_cli(
            ["variogram", "--input", out1 / "field.carf",
             "--output-dir", out2, "--lags", 10]
        )
        assert code == 0
        emp = estimate.EmpiricalVariogram.from_csv(out2 / "variogram.csv")
        assert emp.k == 20
        out3 = tmp_path / "diag"
        code = run_cli(
            ["diagnose", "--input", out1 / "field.carf", "--output-dir", out3]
        )
        assert code == 0
        assert (out3 / "histogram.csv").exists()
        assert (out3 / "stats.txt").exists()

    def test_simulate_deterministic(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run_cli(
                ["simulate", "--output-dir", out, "--n", 32, "--delta", 0.1,
                 "--m", 40, "--seed", 5] + self.MODEL_FLAGS
            ) == 0
            outs.append((out / "field.carf").read_bytes())
        assert outs[0] == outs[1]

    def test_fit_workflow_ranks_true_model_first(self, tmp_path):
        spec = model.CarmaSpec(b=REF_B, eigenvalues=REF_EIGS)
        field = simulate.simulate_truncated_discretized(
            spec, simulate.GaussianBasis(), 300, 400, 0.04, seed=21
        )
        data = tmp_path / "data.carf"
        gridio.write_carf(field, data)
        out = tmp_path / "fit"
        code = run_cli(
            ["fit", "--input", data, "--output-dir", out, "--lags", 25,
             "--models", "car1,carma21", "--generations", 120, "--seed", 2,
             "--plot", "true"]
        )
        assert code == 0
        lines = (out / "summary.csv").read_text().splitlines()
        assert lines[0] == "model,wss,p_params,k_lags,aic"
        assert lines[1].startswith("carma21,")
        assert (out / "params_carma21.txt").exists()
        assert (out / "overlay_axis1.csv").exists()
        assert (out / "overlay_axis1.svg").exists()

    def test_recover_round_trip(self, tmp_path):
        spec = model.CarmaSpec(b=REF_B, eigenvalues=REF_EIGS)
        emp = oracles.synthetic_variogram(spec, 0.2, 9)
        vario = tmp_path / "exact.csv"
        emp.to_csv(vario)
        out = tmp_path / "rec"
        code = run_cli(
            ["recover", "--input", vario, "--output-dir", out,
             "--p", 2, "--q", 1, "--kappa2", 1.0]
        )
        assert code == 0
        text = (out / "recovered.txt").read_text()
        values = {
            line.split(" = ")[0]: line.split(" = ")[1]
            for line in text.strip().splitlines()
        }
        assert float(values["b0"]) == pytest.approx(4.8940, abs=1e-6)
        assert float(values["b1"]) == pytest.approx(-1.1432, abs=1e-6)
        assert float(values["lambda11"]) == pytest.approx(-1.7776, abs=1e-6)
        assert values["verdict"] == "identifiable"

    @staticmethod
    def _shuffled_csv(emp, path, rng):
        order = rng.permutation(emp.k)
        estimate.EmpiricalVariogram(
            lags=emp.lags[order], ordinates=emp.ordinates[order],
            pair_counts=emp.pair_counts[order], delta=emp.delta,
        ).to_csv(path)

    def test_recover_reads_shuffled_rows_by_step(self, tmp_path, rng):
        emp = oracles.synthetic_variogram(model.CarmaSpec(b=REF_B, eigenvalues=REF_EIGS), 0.2, 9)
        emp.to_csv(tmp_path / "ordered.csv")
        self._shuffled_csv(emp, tmp_path / "shuffled.csv", rng)
        texts = []
        for name in ("ordered", "shuffled"):
            assert run_cli(
                ["recover", "--input", tmp_path / f"{name}.csv", "--output-dir", tmp_path / name,
                 "--p", 2, "--q", 1]
            ) == 0
            texts.append((tmp_path / name / "recovered.txt").read_bytes())
        assert texts[0] == texts[1]

    def test_fit_from_shuffled_variogram_writes_ascending_overlay_lags(self, tmp_path, rng):
        spec = model.CarmaSpec(b=(1.3,), eigenvalues=((-0.8,), (-1.4,)))
        vario = tmp_path / "shuffled.csv"
        self._shuffled_csv(oracles.synthetic_variogram(spec, 0.1, 8), vario, rng)
        out = tmp_path / "fit"
        assert run_cli(
            ["fit", "--from-variogram", vario, "--output-dir", out, "--models", "car1",
             "--generations", 10, "--population", 5]
        ) == 0
        for axis in (1, 2):
            lines = (out / f"overlay_axis{axis}.csv").read_text().splitlines()[1:]
            taus = [float(line.split(",")[0]) for line in lines]
            assert taus == pytest.approx(0.1 * np.arange(1, 9), rel=1e-15)

    def test_recover_checks_each_axis_against_its_own_band(self, tmp_path):
        # axis 2's pair -1 +- 10i lies inside its band pi / 0.1 but
        # outside axis 1's band pi / 0.5
        spec = model.CarmaSpec(
            b=(1.0,), eigenvalues=((-1.0, -2.0), (-1 + 10j, -1 - 10j))
        )
        deltas, j_max = (0.5, 0.1), 12
        lags = estimate.axis_lag_set(2, deltas, j_max)
        ordinates = np.concatenate([
            model.axis_variogram(spec, axis, deltas[axis] * np.arange(1, j_max + 1))
            for axis in range(2)
        ])
        vario = tmp_path / "exact.csv"
        estimate.EmpiricalVariogram(
            lags=lags, ordinates=ordinates, pair_counts=np.full(len(lags), 1000),
            delta=deltas,
        ).to_csv(vario)
        out = tmp_path / "rec"
        assert run_cli(
            ["recover", "--input", vario, "--output-dir", out, "--p", 2, "--q", 0]
        ) == 0
        values = dict(
            line.split(" = ", 1)
            for line in (out / "recovered.txt").read_text().strip().splitlines()
        )
        assert float(values["b0"]) == pytest.approx(1.0, abs=1e-8)
        lam21 = complex(values["lambda21"])
        assert (lam21.real, abs(lam21.imag)) == pytest.approx((-1.0, 10.0), abs=1e-8)
        assert values["imag_in_band"] == "[True, True]"
        assert values["verdict"] == "identifiable"

    @pytest.mark.parametrize("rows", ["", "0.2,0,abc,10\n", "0.2,0,0.5\n"])
    def test_malformed_variogram_csv_rejected(self, tmp_path, rows):
        vario = tmp_path / "bad.csv"
        vario.write_text("lag1,lag2,ordinate,pair_count\n" + rows)
        with pytest.raises(ValidationError):
            estimate.EmpiricalVariogram.from_csv(vario)
        assert run_cli(
            ["fit", "--from-variogram", vario, "--output-dir", tmp_path / "f",
             "--models", "car1"]
        ) == 1
        assert run_cli(
            ["recover", "--input", vario, "--output-dir", tmp_path / "r",
             "--p", 1]
        ) == 1

    def test_fit_from_variogram_with_delta_1d(self, tmp_path):
        # the spacing flag applies to every axis of the CSV, whatever d is
        spec = model.CarmaSpec(b=(1.0,), eigenvalues=((-1.2,),))
        vario = tmp_path / "exact.csv"
        oracles.synthetic_variogram(spec, 0.05, 8).to_csv(vario)
        out = tmp_path / "fit"
        assert run_cli(
            ["fit", "--from-variogram", vario, "--delta", 0.05, "--output-dir", out,
             "--models", "car1", "--generations", 10, "--population", 5]
        ) == 0
        assert (out / "params_car1.txt").exists()

    def test_unread_flags_and_config_keys_rejected(self, tmp_path):
        field = simulate.LatticeField(delta=0.1, values=np.arange(64.0).reshape(8, 8))
        grid = tmp_path / "grid.carf"
        gridio.write_carf(field, grid)
        out = tmp_path / "vario"
        # variogram reads neither bins nor models
        assert run_cli(["variogram", "--input", grid, "--output-dir", out,
                        "--lags", 3, "--bins", 5, "--models", "car9"]) == 1
        assert not out.exists()
        config = tmp_path / "run.conf"
        config.write_text("lags = 3\nbins = 5\n")
        assert run_cli(["variogram", "--config", config, "--input", grid,
                        "--output-dir", out]) == 1
        assert not out.exists()
        config.write_text("lags = 3\n")
        assert run_cli(["variogram", "--config", config, "--input", grid,
                        "--output-dir", out]) == 0

    SIMULATE = ["simulate", "--b", "1.0", "--eigenvalues", "-1;-1.5", "--n", 20,
                "--delta", 0.1, "--m", 10]

    @pytest.mark.parametrize("noise", [
        ["--noise", "gaussian", "--vg-shape", "abc"],
        ["--vg-shape", "2.0"],  # gaussian is the default family
        ["--noise", "vg", "--sigma2", "2.0"],
        ["--noise", "cp", "--jump-std", "2.0"],  # rademacher is the default law
        ["--noise", "cp", "--cp-jumps", "uniform", "--jump-mean", "0.5"],
        ["--noise", "cp", "--cp-jumps", "normal", "--vg-variance", "2.0"],
    ])
    def test_noise_keys_of_another_family_rejected(self, tmp_path, capsys, noise):
        out = tmp_path / "sim"
        assert run_cli(self.SIMULATE + noise + ["--output-dir", out]) == 1
        assert "does not read" in capsys.readouterr().err
        assert not out.exists()
        with pytest.raises(ConfigError, match="does not read"):
            cli.run([str(a) for a in self.SIMULATE + noise + ["--output-dir", out]])

    @pytest.mark.parametrize("noise", [
        ["--noise", "gaussian", "--sigma2", "2.0"],
        ["--noise", "vg", "--vg-shape", "2.0", "--vg-variance", "1.5"],
        ["--noise", "cp", "--cp-jumps", "normal", "--jump-std", "2.0", "--cp-intensity", "3"],
        ["--noise", "cp", "--cp-jumps", "uniform", "--jump-low", "-2", "--jump-high", "2"],
    ])
    def test_noise_keys_of_the_chosen_family_accepted(self, tmp_path, noise):
        assert run_cli(self.SIMULATE + noise + ["--output-dir", tmp_path / "sim"]) == 0

    @pytest.mark.parametrize("command", [["fit", "--from-variogram"],
                                         ["recover", "--p", 1, "--input"]])
    def test_variogram_csv_without_lag_columns_exits_1(self, tmp_path, capsys, command):
        vario = tmp_path / "vario.csv"
        vario.write_text("ordinate,pair_count\n0.5,100\n0.8,90\n")
        assert run_cli(command + [vario, "--output-dir", tmp_path / "out"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: variogram lags need one column per axis")
        assert "Traceback" not in err

    def test_study_rejects_noise_keys_of_another_family(self, tmp_path):
        out = tmp_path / "study"
        with pytest.raises(ConfigError, match="variance-gamma noise does not read jump_std"):
            cli.run(["study", "--b", "1.0", "--eigenvalues", "-1;-1.5", "--noise", "vg",
                     "--jump-std", "2.0", "--replications", "1", "--output-dir", str(out)])
        assert not out.exists()

    def test_study_refuses_a_complex_truth(self, tmp_path):
        # the study fits real eigenvalue blocks and tabulates one row per
        # eigenvalue, so a complex truth is refused before any replication
        out = tmp_path / "study"
        assert run_cli(["study", "--b", "1.0,0.5", "--eigenvalues", "-1+2j,-1-2j;-1.5,-2.5",
                        "--replications", 1, "--n", 60, "--lags", 5, "--m", 20,
                        "--generations", 3, "--population", 2, "--output-dir", out]) == 1
        with pytest.raises(ConfigError, match="complex"):
            cli.run(["study", "--b", "1.0,0.5", "--eigenvalues", "-1+2j,-1-2j;-1.5,-2.5",
                     "--output-dir", str(out)])
        assert not list(tmp_path.rglob("study_case*.csv"))

    def test_fit_from_variogram_rejects_field_keys(self, tmp_path):
        spec = model.CarmaSpec(b=(1.0,), eigenvalues=((-1.2,), (-0.8,)))
        vario = tmp_path / "v.csv"
        oracles.synthetic_variogram(spec, 0.05, 8).to_csv(vario)
        out = tmp_path / "fit"
        base = ["fit", "--from-variogram", vario, "--models", "car1",
                "--generations", 5, "--population", 5, "--output-dir", out]
        for extra in (["--lags", 30, "--normalize", "true"], ["--format", "csv"],
                      ["--input", vario]):
            assert run_cli(base + extra) == 1
            with pytest.raises(ConfigError, match="from_variogram does not read"):
                cli.run([str(a) for a in base + extra])
            assert not out.exists()
        assert run_cli(base + ["--delta", 0.05]) == 0

    def test_fit_to_a_constant_field_exits_1(self, tmp_path):
        # its variogram is all zero, with or without normalization
        grid = tmp_path / "const.carf"
        gridio.write_carf(simulate.LatticeField(delta=0.1, values=np.full((30, 30), 2.5)), grid)
        for normalize in ("false", "true"):
            args = ["fit", "--input", grid, "--normalize", normalize, "--models", "car1",
                    "--lags", 5, "--generations", 5, "--output-dir", tmp_path / normalize]
            assert run_cli(args) == 1
            with pytest.raises(ZeroVariance):
                cli.run([str(a) for a in args])

    def test_fit_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        spec = model.CarmaSpec(b=REF_B, eigenvalues=REF_EIGS)
        field = simulate.simulate_truncated_discretized(
            spec, simulate.GaussianBasis(), 100, 200, 0.04, seed=4
        )
        grid = tmp_path / "field.carf"
        gridio.write_carf(field, grid)
        src = pathlib.Path(cli.__file__).resolve().parents[1]
        digests = []
        for threads in ("1", "2"):
            out = tmp_path / f"fit{threads}"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
            subprocess.run(
                [sys.executable, "-m", "carmafield.cli", "fit", "--input", str(grid),
                 "--output-dir", str(out), "--models", "car1,carma21", "--lags", "10",
                 "--generations", "30", "--seed", "3"],
                env=env, check=True, timeout=300,
            )
            digests.append([line for line in (out / "manifest.txt").read_text().splitlines()
                            if line.startswith("sha256:")])
        assert len(digests[0]) == 6  # variogram, two params, summary, two overlays
        assert digests[0] == digests[1]

    def test_select_reproduces_reference_ranking(self, tmp_path):
        table = tmp_path / "models.csv"
        table.write_text(
            "model,wss,p_params,k_lags\n"
            "car1,7.6132e-2,3,100\n"
            "car2,2.5769e-2,5,100\n"
            "carma21,2.0113e-2,6,100\n"
        )
        out = tmp_path / "sel"
        assert run_cli(["select", "--input", table, "--output-dir", out]) == 0
        lines = (out / "selection.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in lines[1:]] == ["carma21", "car2", "car1"]
        aics = [float(row.split(",")[-1]) for row in lines[1:]]
        for got, want in zip(aics, (-839.1583, -816.3761, -712.0453)):
            assert got == pytest.approx(want, rel=1e-4)

    def test_manifest_checksums(self, tmp_path):
        import hashlib

        out = tmp_path / "sim"
        assert run_cli(
            ["simulate", "--output-dir", out, "--n", 16, "--delta", 0.1,
             "--m", 20, "--seed", 1] + self.MODEL_FLAGS
        ) == 0
        manifest = dict(
            line.split(" = ", 1)
            for line in (out / "manifest.txt").read_text().strip().splitlines()
        )
        digest = hashlib.sha256((out / "field.carf").read_bytes()).hexdigest()
        assert manifest["sha256:field.carf"] == digest
        assert manifest["command"] == "simulate"

    def test_flags_do_not_carry_into_the_next_call(self, tmp_path):
        # the parser is built once per process; each call parses afresh
        base = ["simulate", "--n", 16, "--delta", 0.1, "--m", 20] + self.MODEL_FLAGS
        first, second = tmp_path / "first", tmp_path / "second"
        assert run_cli(base + ["--output-dir", first, "--seed", 5]) == 0
        assert run_cli(base + ["--output-dir", second]) == 0
        assert "seed = 5" in (first / "manifest.txt").read_text()
        manifest = (second / "manifest.txt").read_text()
        assert "seed =" not in manifest
        assert f"output_dir = {second}" in manifest

    def test_config_file_with_flag_override(self, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text(
            "# simulation settings\n"
            "n = 16\n"
            "delta = 0.1\n"
            "m = 20\n"
            "seed = 1\n"
            "b = 1.0\n"
            "eigenvalues = -1.0;-1.5\n"
        )
        out = tmp_path / "sim"
        assert run_cli(
            ["simulate", "--config", config, "--output-dir", out, "--seed", 2]
        ) == 0
        manifest = (out / "manifest.txt").read_text()
        assert "seed = 2" in manifest  # flag wins over file

    @pytest.mark.parametrize("command", list(cli._HANDLERS))
    def test_every_common_flag_parses_in_every_command(self, command):
        # each flag of the command gets its own value, negative lists
        # included; a flag of another command is refused
        values = {flag: f"-{i}.5,-2.1;-1.3,-2.5" for i, flag in
                  enumerate(["config"] + sorted(cli._COMMAND_KEYS[command]))}
        argv = [command]
        for flag, value in values.items():
            argv += [f"--{flag.replace('_', '-')}", value]
        args = cli._build_parser().parse_args(argv)
        assert args.command == command
        for flag, value in values.items():
            assert getattr(args, flag) == value
        other = sorted(set().union(*cli._COMMAND_KEYS.values()) - cli._COMMAND_KEYS[command])
        for flag in other:
            with pytest.raises(ConfigError):
                cli._build_parser().parse_args([command, f"--{flag.replace('_', '-')}", "1"])

    def test_exit_codes(self, tmp_path, monkeypatch):
        # missing input file -> I/O failure
        assert run_cli(["diagnose", "--input", tmp_path / "none.carf",
                        "--output-dir", tmp_path]) == 3
        # bad configuration -> validation
        assert run_cli(["simulate", "--output-dir", tmp_path]) == 1
        # unknown flag -> validation
        assert run_cli(["simulate", "--nope", 3]) == 1
        # non-integer worker cap -> validation
        with monkeypatch.context() as env:
            env.setenv("CARMA_FIELD_THREADS", "two")
            assert run_cli(["study", "--output-dir", tmp_path / "s",
                            "--replications", 1] + self.MODEL_FLAGS) == 1
        # non-numeric list entries -> validation
        assert run_cli(["simulate", "--output-dir", tmp_path / "sim",
                        "--b", "1.0,abc", "--eigenvalues", "-1.0;-1.5",
                        "--n", 8, "--delta", 0.1, "--m", 8]) == 1
        assert run_cli(["study", "--output-dir", tmp_path / "s", "--replications", 1,
                        "--cases", "1,x"] + self.MODEL_FLAGS) == 1
        # non-finite or oversized compound-Poisson truncation radius -> validation
        for radius in ("nan", "inf", "1e300"):
            assert run_cli(["simulate", "--output-dir", tmp_path / "cp",
                            "--b", "1.0", "--eigenvalues", "-1.0;-1.5",
                            "--algorithm", "cp", "--noise", "cp",
                            "--n", 8, "--delta", 0.1, "--m", radius]) == 1
        # non-finite or oversized compound-Poisson intensity (TD scheme) -> validation
        for intensity in ("1e30", "inf"):
            assert run_cli(["simulate", "--output-dir", tmp_path / "cpi",
                            "--b", "1.0", "--eigenvalues=-1.0,-1.5",
                            "--noise", "cp", "--cp-intensity", intensity,
                            "--n", 8, "--delta", 0.1, "--m", 8]) == 1
        # numeric failure -> 2: recovery from ordinates of a model whose
        # axis weight vanishes (Hankel matrix of rank below p)
        l11, l12 = -1.0, -2.0
        l21 = -float(np.sqrt(l11 ** 2 + 3 * l11 * l12 + l12 ** 2))
        bad = model.CarmaSpec(b=(1.0,), eigenvalues=((l11, l12), (l21, -1.5)))
        emp = oracles.synthetic_variogram(bad, 0.2, 7)
        vario = tmp_path / "bad.csv"
        emp.to_csv(vario)
        assert run_cli(
            ["recover", "--input", vario, "--output-dir", tmp_path / "r",
             "--p", 2, "--q", 0]
        ) == 2
        # numeric failure -> 2: CARMA(2,1) whose axes share one
        # eigenvalue product (rank-deficient monomial system)
        same = model.CarmaSpec(b=(2.0, 4.0), eigenvalues=((-2.0, -6.0), (-2.0, -6.0)))
        oracles.synthetic_variogram(same, 0.2, 9).to_csv(vario)
        assert run_cli(
            ["recover", "--input", vario, "--output-dir", tmp_path / "r",
             "--p", 2, "--q", 1]
        ) == 2
        # a non-finite variogram ordinate -> validation, not a fit of NaN
        # or an SVD traceback
        ref = model.CarmaSpec(b=REF_B, eigenvalues=REF_EIGS)
        for bad_value in ("nan", "inf"):
            oracles.synthetic_variogram(ref, 0.2, 5).to_csv(vario)
            lines = vario.read_text().splitlines()
            cells = lines[3].split(",")
            cells[-2] = bad_value
            lines[3] = ",".join(cells)
            vario.write_text("\n".join(lines) + "\n")
            assert run_cli(
                ["fit", "--from-variogram", vario, "--output-dir", tmp_path / "fn",
                 "--models", "car1"]
            ) == 1
            assert run_cli(
                ["recover", "--input", vario, "--output-dir", tmp_path / "rn",
                 "--p", 2, "--q", 1]
            ) == 1
        # a noise variance that is not finite and positive -> validation,
        # before any search
        oracles.synthetic_variogram(ref, 0.2, 5).to_csv(vario)
        for kappa2 in ("inf", "nan", "0", "-1"):
            assert run_cli(
                ["fit", "--from-variogram", vario, "--output-dir", tmp_path / "fk",
                 "--models", "car1", "--kappa2", kappa2]
            ) == 1
        # a seed out of range or a search size below one -> validation,
        # before any simulation or search
        assert run_cli(["simulate", "--output-dir", tmp_path / "ss", "--seed", -1,
                        "--b", "1.0", "--eigenvalues", "-1.0;-1.5",
                        "--n", 8, "--delta", 0.1, "--m", 8]) == 1
        for flag, value in (("--seed", -1), ("--seed", 2 ** 32),
                            ("--generations", -3), ("--population", 0)):
            assert run_cli(
                ["fit", "--from-variogram", vario, "--output-dir", tmp_path / "fs",
                 "--models", "car1", flag, value]
            ) == 1
            # the study's master seed may be any non-negative integer
            if value != 2 ** 32:
                assert run_cli(["study", "--output-dir", tmp_path / "st",
                                "--replications", 1, flag, value] + self.MODEL_FLAGS) == 1
        # no lags per axis -> validation naming the lag count
        field = tmp_path / "lags.carf"
        gridio.write_carf(simulate.LatticeField(delta=0.1, values=np.ones((8, 8))), field)
        for command, lags in (("variogram", 0), ("fit", -3)):
            assert run_cli([command, "--input", field, "--output-dir", tmp_path / "lg",
                            "--lags", lags]) == 1
        # malformed model-selection rows -> validation
        for k, row in enumerate(("car1,abc,3,100", "car1,0.5,3", "car1,0.5,3,0")):
            table = tmp_path / f"models{k}.csv"
            table.write_text(f"model,wss,p_params,k_lags\n{row}\n")
            assert run_cli(
                ["select", "--input", table, "--output-dir", tmp_path / "sel"]
            ) == 1
        # no histogram bins -> validation, not numpy's ValueError
        for bins in (0, -3):
            assert run_cli(["diagnose", "--input", field, "--output-dir", tmp_path / "dg",
                            "--bins", bins]) == 1
        # a binary file read as CSV -> validation, not a decoding error
        assert run_cli(["variogram", "--input", field, "--output-dir", tmp_path / "vb",
                        "--format", "csv"]) == 1
        # a jump law numpy would refuse to draw from -> validation
        for law in (["--cp-jumps", "normal", "--jump-std", -1],
                    ["--cp-jumps", "uniform", "--jump-low", 1, "--jump-high", -1]):
            assert run_cli(["simulate", "--output-dir", tmp_path / "cj", "--noise", "cp",
                            "--n", 8, "--delta", 0.1, "--m", 8] + law
                           + self.MODEL_FLAGS) == 1
        # study settings every replication would reject -> validation, before
        # any replication runs
        for flag, value in (("--fine-factor", 0), ("--fine-factor", -1), ("--n", 0),
                            ("--m", 0), ("--lags", 0), ("--delta", 0)):
            assert run_cli(["study", "--output-dir", tmp_path / "sv", "--replications", 1,
                            flag, value] + self.MODEL_FLAGS) == 1
        # an order or noise variance recovery cannot use -> validation, before
        # the eigenvalue step (which fails on this variogram with exit 2)
        oracles.synthetic_variogram(bad, 0.2, 7).to_csv(vario)
        for order in (["--p", -1], ["--p", 0], ["--p", 2, "--q", 2],
                      ["--p", 2, "--q", 3], ["--p", 2, "--kappa2", 0]):
            assert run_cli(["recover", "--input", vario, "--output-dir", tmp_path / "ro"]
                           + order) == 1


    @staticmethod
    def _diagnose_in_subprocess(grid, out):
        src = pathlib.Path(cli.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        return subprocess.run(
            [sys.executable, "-m", "carmafield.cli", "diagnose", "--input", str(grid),
             "--output-dir", str(out)],
            env=env, capture_output=True, text=True, timeout=120,
        )

    @pytest.mark.parametrize("kind", ["zero-length-axis", "overflowing-range",
                                      "sub-ulp-range", "one-value-beyond-half-ulp"])
    def test_diagnose_refuses_a_field_it_cannot_bin(self, tmp_path, kind):
        grid = tmp_path / "field.carf"
        if kind == "zero-length-axis":
            # axis sizes (0, 5): a header no LatticeField can write
            grid.write_bytes(gridio.MAGIC + bytes([gridio.VERSION, 2])
                             + struct.pack("<dQdQ", 0.1, 0, 0.1, 5))
        elif kind == "one-value-beyond-half-ulp":
            # numpy widens a one-value range by 0.5, which 1e20 absorbs
            values = np.full((4, 5), 1e20)
            gridio.write_carf(simulate.LatticeField(delta=0.1, values=values), grid)
        else:
            values = np.ones((4, 5))
            # a span of inf, or one too narrow for 100 distinct bin edges
            values[0, 0] = 1.0 + 1e-14
            if kind == "overflowing-range":
                values[0, :2] = 1.7e308, -1.7e308
            gridio.write_carf(simulate.LatticeField(delta=0.1, values=values), grid)
        done = self._diagnose_in_subprocess(grid, tmp_path / "dg")
        assert done.returncode == 1
        assert done.stderr.startswith("error: ")
        assert "Traceback" not in done.stderr

    def test_diagnose_and_normalize_take_large_finite_values(self, tmp_path):
        # squares of +-1e300 overflowed: std came out inf with numpy's
        # RuntimeWarnings, and normalize reported zero variance
        values = np.ones((4, 5))
        values[1, 2], values[2, 3] = 1e300, -1e300
        field = simulate.LatticeField(delta=0.1, values=values)
        grid = tmp_path / "field.carf"
        gridio.write_carf(field, grid)
        done = self._diagnose_in_subprocess(grid, tmp_path / "dg")
        assert done.returncode == 0, done.stderr
        assert "RuntimeWarning" not in done.stderr
        stats = dict(line.split(" = ", 1)
                     for line in (tmp_path / "dg" / "stats.txt").read_text().splitlines())
        assert np.isfinite(float(stats["std"]))
        # two of twenty cells at +-1e300: the variance is 1e600 / 10
        assert float(stats["std"]) == pytest.approx(1e300 * np.sqrt(0.1), rel=1e-12)
        out = workflows.normalize(field)
        assert np.all(np.isfinite(out.values))
        assert float(np.std(out.values)) == pytest.approx(1.0, rel=1e-12)

    def test_lattice_field_refuses_a_zero_length_axis(self):
        for shape in ((0, 5), (5, 0), (0,)):
            with pytest.raises(ValidationError, match="length 0"):
                simulate.LatticeField(delta=0.1, values=np.zeros(shape))


class TestInputsUntouched:
    def test_fit_does_not_mutate_input(self, tmp_path, rng):
        field = simulate.LatticeField(delta=0.1, values=rng.normal(size=(40, 40)))
        data = tmp_path / "data.carf"
        gridio.write_carf(field, data)
        before = data.read_bytes()
        assert run_cli(
            ["fit", "--input", data, "--output-dir", tmp_path / "out",
             "--lags", 4, "--models", "car1", "--generations", 10]
        ) == 0
        assert data.read_bytes() == before


class TestStudySmall:
    def test_serial_equals_parallel(self, monkeypatch):
        spec = model.CarmaSpec(b=(1.0,), eigenvalues=((-1.0,), (-1.5,)))
        cfg = workflows.StudyConfig(
            spec=spec, basis=simulate.GaussianBasis(), replications=3,
            n=40, delta=0.1, fine_factor=1, m_steps=40, j_max=6,
            cases=(1,), seed=31, generations=20, population_factor=6,
        )
        results = {}
        for label, threads in (("serial", "1"), ("parallel", "2")):
            monkeypatch.setenv("CARMA_FIELD_THREADS", threads)
            results[label] = workflows.run_simulation_study(cfg)[1]["estimates"]
        np.testing.assert_array_equal(results["serial"], results["parallel"])

    def test_three_replications_deterministic(self, tmp_path):
        spec = model.CarmaSpec(b=(1.0,), eigenvalues=((-1.0,), (-1.5,)))
        cfg = workflows.StudyConfig(
            spec=spec,
            basis=simulate.GaussianBasis(),
            replications=3,
            n=60,
            delta=0.1,
            fine_factor=2,
            m_steps=60,
            j_max=8,
            cases=(1,),
            seed=99,
            generations=40,
            population_factor=6,
        )
        res1 = workflows.run_simulation_study(cfg)
        res2 = workflows.run_simulation_study(cfg)
        np.testing.assert_array_equal(
            res1[1]["estimates"], res2[1]["estimates"]
        )
        assert res1[1]["failed"] == 0
        names = [row[0] for row in res1[1]["table"]]
        assert names == ["b0", "lambda11", "lambda21"]

    @staticmethod
    def two_replications():
        spec = model.CarmaSpec(b=(1.0,), eigenvalues=((-1.0,), (-1.5,)))
        return workflows.StudyConfig(
            spec=spec, basis=simulate.GaussianBasis(), replications=2,
            n=40, delta=0.1, fine_factor=1, m_steps=40, j_max=6,
            cases=(1,), seed=31, generations=20, population_factor=6,
        )

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_one_log_line_per_replication(self, monkeypatch, threads):
        monkeypatch.setenv("CARMA_FIELD_THREADS", threads)
        cfg = self.two_replications()
        lines = []
        workflows.run_simulation_study(cfg, log=lines.append)
        assert lines == ["replication 1/2: done", "replication 2/2: done"]

    def test_failed_replication_logs_error_class(self, monkeypatch):
        monkeypatch.setenv("CARMA_FIELD_THREADS", "1")
        fit, calls = estimate.fit, []

        def fail_first(emp, config):
            calls.append(config.seed)
            if len(calls) == 1:
                raise SingularDesign("forced")
            return fit(emp, config)

        monkeypatch.setattr(estimate, "fit", fail_first)
        cfg = self.two_replications()
        lines = []
        results = workflows.run_simulation_study(cfg, log=lines.append)
        assert lines == [
            "replication 1/2: case 1: SingularDesign: forced",
            "replication 2/2: done",
        ]
        assert results[1]["failed"] == 1

    @pytest.mark.parametrize("change, message", [
        (dict(n=6, j_max=6), "must lie in"),  # lag 6 leaves a 6-cell grid
        (dict(j_max=1), "must lie in"),  # a named weight scheme needs two lags
        (dict(n=(40, 40)), "one n for every axis"),  # the fine grid would repeat the tuple
        (dict(delta=(0.1, 0.1)), "one delta for every axis"),  # a tuple has no fine spacing
    ])
    def test_settings_every_replication_rejects_are_refused(self, change, message):
        with pytest.raises(ConfigError, match=message):
            dataclasses.replace(self.two_replications(), **change)

    def test_study_with_lags_past_the_grid_exits_1_before_any_replication(self, tmp_path,
                                                                         capsys):
        assert run_cli(["study", "--output-dir", tmp_path / "st", "--replications", 2,
                        "--n", 20, "--lags", 30] + TestCliCommands.MODEL_FLAGS) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "replication" not in err

    def test_zero_replications_rejected(self):
        spec = model.CarmaSpec(b=(1.0,), eigenvalues=((-1.0,), (-1.5,)))
        with pytest.raises(Exception):
            workflows.StudyConfig(
                spec=spec, basis=simulate.GaussianBasis(), replications=0
            )
