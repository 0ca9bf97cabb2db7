import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toafusion import cli, toa_sim
from toafusion.config import (ExperimentConfig, default_config_text,
                              parse_config_text)
from toafusion.dataset import load_groundtruth, load_imu, load_toa, load_trajectory
from toafusion.errors import ConfigError

from test_dataset import MUTATIONS, PROPERTY_SETTINGS, csv_rows, mutate


def small_config(tmp_path, **overrides):
    """Default template shrunk to a few seconds for fast CLI runs."""
    text = default_config_text()
    replacements = {
        "duration_s = 30.0": "duration_s = 4.0",
        "mode = sliding": "mode = batch",
        **overrides,
    }
    for old, new in replacements.items():
        assert old in text, old
        text = text.replace(old, new)
    path = tmp_path / "config.ini"
    path.write_text(text)
    return str(path)


class TestConfigParsing:
    def test_template_round_trips_to_defaults(self):
        cfg = parse_config_text(default_config_text())
        assert cfg.noise.scenario == "mmmagic_78ghz"
        assert cfg.stations.count == 5
        assert cfg.pgo.window == 100
        assert cfg.run.estimator == "both"
        assert cfg.imu_model.sigma_g == pytest.approx(1e-3)

    def test_template_parses_to_default_config(self):
        assert parse_config_text(default_config_text()) == ExperimentConfig()

    def test_unknown_keys_are_ignored(self):
        # Keys the table does not declare, such as [noise] seed, are skipped.
        text = default_config_text().replace("[noise]\n", "[noise]\nseed = 7\n")
        assert parse_config_text(text) == ExperimentConfig()

    def test_percent_is_literal(self, tmp_path):
        text = default_config_text().replace(
            "# imu = path/to/imu.csv", "imu = data/100%/imu.csv")
        assert parse_config_text(text).input.imu_path == "data/100%/imu.csv"
        out = tmp_path / "run%1"
        config = small_config(tmp_path, **{"out_dir = out": f"out_dir = {out}"})
        assert parse_config_text(open(config).read()).run.out_dir == str(out)
        assert cli.main(["gen-traj", "--config", config]) == 0
        assert (out / "imu.csv").exists()

    def test_bad_estimator(self):
        text = default_config_text().replace("estimator = both",
                                             "estimator = magic")
        with pytest.raises(ConfigError):
            parse_config_text(text)

    @pytest.mark.parametrize("default, bad", [
        ("node_rate_hz = 10.0", "node_rate_hz = 0"),
        ("node_rate_hz = 10.0", "node_rate_hz = -10"),
        ("station_prior_sigma = 1e-3", "station_prior_sigma = 0"),
        ("imu_rate_hz = 200.0", "imu_rate_hz = nan"),
        ("duration_s = 30.0", "duration_s = inf"),
        ("toa_rate_hz = 5.0", "toa_rate_hz = nan"),
        ("gt_rate_hz = 100.0", "gt_rate_hz = inf"),
        ("node_rate_hz = 10.0", "node_rate_hz = inf"),
        ("seeds = 0\n", "seeds =\n"),
        ("seeds = 0, 1, 2, 3", "seeds ="),
        ("estimators = eskf, pgo", "estimators ="),
        ("gyro_bias = 0.002, -0.0015, 0.001", "gyro_bias = 0.002"),
        ("accel_bias = 0.02, -0.015, 0.01", "accel_bias = 0.02, -0.015"),
        ("translation = 0.0, 0.0, 0.0", "translation = 0.0"),
        ("quaternion_wxyz = 1.0, 0.0, 0.0, 0.0", "quaternion_wxyz = 1.0, 0.0, 0.0"),
        ("max_gap_ms = 10.0", "max_gap_ms = -1"),
        ("workers = 1", "workers = -2"),
        ("window = 100", "window = -3"),
        ("max_iters = 50", "max_iters = 0"),
        ("max_iters_stream = 12", "max_iters_stream = 0"),
        ("sigma_g = 1e-3", "sigma_g = -1"),
        ("sigma_a = 2e-2", "sigma_a = -1"),
        ("sigma_wg = 1e-4", "sigma_wg = -1"),
        ("sigma_wa = 3e-3", "sigma_wa = -1"),
        ("speed_mps = 1.0", "speed_mps = 0"),
        ("sigma_floor = 1e-3", "sigma_floor = 0"),
        ("sigma_floor = 1e-3", "sigma_floor = -1"),
    ])
    def test_bad_value(self, tmp_path, capsys, default, bad):
        with pytest.raises(ConfigError):
            parse_config_text(default_config_text().replace(default, bad))
        config = small_config(tmp_path, **{default: bad,
                                           "estimator = both": "estimator = pgo"})
        assert cli.main(["run", "--config", config,
                         "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "config error:" in err and "Traceback" not in err

    @pytest.mark.parametrize("speed", ["1e-200", "1e200"])
    def test_non_finite_imu_is_a_config_error(self, tmp_path, capsys, speed):
        # Both speeds parse, but the figure-eight's IMU samples are not finite.
        config = small_config(tmp_path, **{"speed_mps = 1.0": f"speed_mps = {speed}"})
        assert cli.main(["run", "--config", config,
                         "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "config error:" in err and "Traceback" not in err

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_bad_workers_override(self, tmp_path, capsys, workers):
        # --workers goes through the [run] workers check.
        config = small_config(tmp_path)
        assert cli.main(["sweep", "--config", config, "--out", str(tmp_path / "out"),
                         "--workers", workers]) == 1
        err = capsys.readouterr().err
        assert "config error: [run] workers must be positive" in err
        assert "Traceback" not in err

    def test_hover_at_zero_speed_is_valid(self):
        text = default_config_text().replace("speed_mps = 1.0", "speed_mps = 0")
        for kind in ("circle", "hover_then_dash"):
            parse_config_text(text.replace("kind = figure_eight", f"kind = {kind}"))

    def test_bad_scenario(self):
        text = default_config_text().replace("scenario = mmmagic_78ghz",
                                             "scenario = wifi")
        with pytest.raises(ConfigError):
            parse_config_text(text)

    def test_files_mode_requires_paths(self):
        text = default_config_text().replace("source = synthetic",
                                             "source = files")
        with pytest.raises(ConfigError):
            parse_config_text(text)

    def test_custom_noise_requires_arrays(self):
        text = default_config_text().replace("scenario = mmmagic_78ghz",
                                             "scenario = custom")
        with pytest.raises(ConfigError):
            parse_config_text(text)

    def test_station_override(self):
        text = default_config_text().replace("bs1 = -10.0, -7.0, 2.0",
                                             "bs1 = 1.0, 2.0, 3.0")
        cfg = parse_config_text(text)
        np.testing.assert_array_equal(cfg.base_stations(1)[0].position,
                                      [1.0, 2.0, 3.0])


class TestGenCommands:
    def test_gen_config_writes_parsable_file(self, tmp_path):
        out = tmp_path / "template.ini"
        assert cli.main(["gen-config", "--out", str(out)]) == 0
        parse_config_text(out.read_text())

    def test_gen_traj_outputs_load(self, tmp_path):
        config = small_config(tmp_path)
        outdir = tmp_path / "traj"
        assert cli.main(["gen-traj", "--config", config,
                         "--out", str(outdir)]) == 0
        imu = load_imu(outdir / "imu.csv")
        gt = load_groundtruth(outdir / "groundtruth.csv")
        assert len(imu) == 4 * 200 + 1
        assert len(gt) == 4 * 100 + 1


class TestSimulate:
    def test_noiseless_rows_equal_true_distance(self, tmp_path):
        config = small_config(
            tmp_path,
            **{"scenario = mmmagic_78ghz": "scenario = custom",
               "# mean = 0.0, 0.0, 0.0, 0.0, 0.0 ; custom scenario only [m]":
               "mean = 0, 0, 0, 0, 0",
               "# std = 0.17, 0.17, 0.17, 0.17, 0.17": "std = 0, 0, 0, 0, 0",
               "scenarios = mmmagic_78ghz, indoor_28ghz, industrial_5ghz":
               "scenarios = custom",
               "imu_noise = on": "imu_noise = off"})
        outdir = tmp_path / "sim"
        assert cli.main(["simulate", "--config", config, "--out",
                         str(outdir)]) == 0
        meas = load_toa(outdir / "toa_custom_seed0.csv", num_stations=5)
        assert len(meas) == 5 * (4 * 5 + 1)
        cfg = parse_config_text(open(config).read())
        _, gt = __import__("toafusion.pipeline", fromlist=["x"]).load_inputs(cfg, 0)
        stations = {bs.id: bs for bs in cfg.base_stations(5)}
        for t, bs_id, distance in zip(meas.t[:50], meas.bs_id[:50],
                                      meas.distance[:50]):
            i = int(np.argmin(np.abs(gt.t - t)))
            expected = toa_sim.true_distance(gt.position[i], stations[bs_id])
            assert distance == pytest.approx(expected, abs=1e-6)

    def test_seed_determinism_and_difference(self, tmp_path):
        config = small_config(
            tmp_path,
            **{"scenarios = mmmagic_78ghz, indoor_28ghz, industrial_5ghz":
               "scenarios = mmmagic_78ghz"})
        out_a, out_b, out_c = (tmp_path / d for d in ("a", "b", "c"))
        cli.main(["simulate", "--config", config, "--out", str(out_a), "--seed", "0"])
        cli.main(["simulate", "--config", config, "--out", str(out_b), "--seed", "0"])
        cli.main(["simulate", "--config", config, "--out", str(out_c), "--seed", "1"])
        fa = (out_a / "toa_mmmagic_78ghz_seed0.csv").read_bytes()
        fb = (out_b / "toa_mmmagic_78ghz_seed0.csv").read_bytes()
        fc = (out_c / "toa_mmmagic_78ghz_seed1.csv").read_bytes()
        assert fa == fb
        assert fa != fc


def strip_timing(text: str) -> str:
    lines = []
    for line in text.splitlines():
        if line.startswith("timing_"):
            continue
        lines.append(line)
    return "\n".join(lines)


class TestRun:
    def test_both_estimators_outputs(self, tmp_path):
        config = small_config(tmp_path)
        outdir = tmp_path / "run"
        assert cli.main(["run", "--config", config, "--out", str(outdir)]) == 0
        seed_dir = outdir / "seed0"
        for name in ("eskf_trajectory.csv", "pgo_trajectory.csv",
                     "metrics_eskf.txt", "metrics_pgo.txt",
                     "pgo_cost_log.csv", "eskf_cov_diag.csv"):
            assert (seed_dir / name).exists(), name
        traj = load_trajectory(seed_dir / "pgo_trajectory.csv")
        assert len(traj) == 4 * 10 + 1
        metrics_csv = (outdir / "metrics.csv").read_text().splitlines()
        assert len(metrics_csv) == 3     # header + eskf + pgo

    def test_cost_log_format(self, tmp_path):
        config = small_config(tmp_path)
        outdir = tmp_path / "run"
        cli.main(["run", "--config", config, "--out", str(outdir)])
        lines = (outdir / "seed0" / "pgo_cost_log.csv").read_text().splitlines()
        assert lines[0] == "iter,cost,damping"
        assert len(lines) > 1
        costs = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(costs[i + 1] <= costs[i] + 1e-9 for i in range(len(costs) - 1))

    def test_repeat_runs_identical_modulo_timing(self, tmp_path):
        config = small_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        cli.main(["run", "--config", config, "--out", str(out_a)])
        cli.main(["run", "--config", config, "--out", str(out_b)])
        for name in ("eskf_trajectory.csv", "pgo_trajectory.csv"):
            assert (out_a / "seed0" / name).read_bytes() == \
                (out_b / "seed0" / name).read_bytes()
        for name in ("metrics_eskf.txt", "metrics_pgo.txt"):
            assert strip_timing((out_a / "seed0" / name).read_text()) == \
                strip_timing((out_b / "seed0" / name).read_text())

    def test_missing_config_exit_code(self, tmp_path):
        assert cli.main(["run", "--config", str(tmp_path / "nope.ini")]) == 1

    def test_missing_data_file_exit_code(self, tmp_path, capsys):
        config = small_config(
            tmp_path,
            **{"source = synthetic": "source = files\n"
               "imu = /nonexistent/imu.csv\ngroundtruth = /nonexistent/gt.csv"})
        assert cli.main(["run", "--config", config,
                         "--out", str(tmp_path / "o")]) == 2
        assert "/nonexistent/imu.csv" in capsys.readouterr().err

    def test_non_ascii_byte_exit_code(self, tmp_path, capsys):
        outdir = tmp_path / "traj"
        assert cli.main(["gen-traj", "--config", small_config(tmp_path),
                         "--out", str(outdir)]) == 0
        imu = outdir / "imu.csv"
        lines = imu.read_bytes().split(b"\n")
        lines[1] += b"\xff"
        imu.write_bytes(b"\n".join(lines))
        config = small_config(
            tmp_path,
            **{"source = synthetic": f"source = files\nimu = {imu}\n"
               f"groundtruth = {outdir / 'groundtruth.csv'}",
               "estimator = both": "estimator = eskf"})
        assert cli.main(["run", "--config", config,
                         "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "data error: line 2:" in err and "Traceback" not in err

    def test_empty_groundtruth_with_range_file_exit_code(self, tmp_path, capsys):
        imu, gt, toa = (tmp_path / name for name in ("imu.csv", "gt.csv", "toa.csv"))
        imu.write_text("header\n0,0,0,0,0,0,9.81\n5000000,0,0,0,0,0,9.81\n")
        gt.write_text("header\n")
        toa.write_text("header\n0,1,3.0\n")
        config = small_config(
            tmp_path,
            **{"source = synthetic": f"source = files\nimu = {imu}\n"
               f"groundtruth = {gt}\ntoa = {toa}",
               "estimator = both": "estimator = eskf"})
        assert cli.main(["run", "--config", config,
                         "--out", str(tmp_path / "o")]) == 2
        assert "ground-truth trajectory is empty" in capsys.readouterr().err

    def test_sliding_mode_writes_streamed(self, tmp_path):
        config = small_config(tmp_path, **{"mode = batch": "mode = sliding",
                                           "window = 100": "window = 15"})
        outdir = tmp_path / "run"
        assert cli.main(["run", "--config", config, "--out", str(outdir),
                         "--estimator", "pgo"]) == 0
        assert (outdir / "seed0" / "pgo_streamed.csv").exists()
        assert not (outdir / "seed0" / "eskf_trajectory.csv").exists()


class TestSweep:
    def test_parallel_matches_serial(self, tmp_path):
        config = small_config(
            tmp_path,
            **{"duration_s = 4.0": "duration_s = 3.0",
               "scenarios = mmmagic_78ghz, indoor_28ghz, industrial_5ghz":
               "scenarios = mmmagic_78ghz",
               "bs_counts = 2, 3, 4, 5": "bs_counts = 5",
               "seeds = 0, 1, 2, 3": "seeds = 0, 1"})
        serial, parallel = tmp_path / "serial", tmp_path / "parallel"
        assert cli.main(["sweep", "--config", config, "--out", str(serial),
                         "--workers", "1"]) == 0
        assert cli.main(["sweep", "--config", config, "--out", str(parallel),
                         "--workers", "2"]) == 0

        def strip_timing_cols(path):
            lines = path.read_text().splitlines()
            header = lines[0].split(",")
            keep = [i for i, name in enumerate(header)
                    if not name.startswith("timing_")]
            return ["\t".join(line.split(",")[i] for i in keep)
                    for line in lines]

        assert strip_timing_cols(serial / "sweep.csv") == \
            strip_timing_cols(parallel / "sweep.csv")
        assert strip_timing_cols(serial / "runs.csv") == \
            strip_timing_cols(parallel / "runs.csv")

    def test_row_counts_and_columns(self, tmp_path):
        config = small_config(
            tmp_path,
            **{"scenarios = mmmagic_78ghz, indoor_28ghz, industrial_5ghz":
               "scenarios = mmmagic_78ghz",
               "bs_counts = 2, 3, 4, 5": "bs_counts = 3, 5",
               "seeds = 0, 1, 2, 3": "seeds = 0"})
        outdir = tmp_path / "sweep"
        assert cli.main(["sweep", "--config", config, "--out", str(outdir)]) == 0
        lines = (outdir / "sweep.csv").read_text().splitlines()
        assert lines[0].startswith("scenario,bs_count,estimator,n_seeds,ate_m")
        assert len(lines) == 1 + 1 * 2 * 2      # scenarios x counts x estimators
        runs = (outdir / "runs.csv").read_text().splitlines()
        assert len(runs) == 1 + 1 * 2 * 2 * 1   # ... x seeds


class TestRunFuzz:
    """`run` on tiny, possibly mutated input files ends with an exit code
    and a one-line message, never a traceback."""

    @settings(PROPERTY_SETTINGS)
    @given(data=st.data())
    def test_exit_code_without_traceback(self, tmp_path, capsys, data):
        files = {}
        for name in ("imu", "groundtruth", "toa"):
            rows = data.draw(csv_rows(name))
            # Half the files stay valid, so that some runs get to the filter.
            kind = data.draw(st.sampled_from((None,) * len(MUTATIONS) + MUTATIONS))
            if kind is not None:
                rows = mutate(data.draw, name, rows, kind)
            files[name] = tmp_path / f"{name}.csv"
            files[name].write_bytes(rows)
        toa = f"\ntoa = {files['toa']}" if data.draw(st.booleans()) else ""
        config = small_config(tmp_path, **{
            "source = synthetic": f"source = files\nimu = {files['imu']}\n"
                                  f"groundtruth = {files['groundtruth']}{toa}",
            "estimator = both": "estimator = eskf"})
        code = cli.main(["run", "--config", config, "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err
