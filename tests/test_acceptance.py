"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria 3, 4, and 5 share one 10-seed benchmark matrix (figure-eight,
both estimators, several station counts and two noise scenarios), computed
once per session. Criterion 8 needs externally supplied flight data and
skips when the environment variable TOAFUSION_EUROC_DIR is not set.

Run with `pytest tests/test_acceptance.py -v -s` to see per-criterion
output inline; a summary is printed at the end of the session either way.
"""

import os
import time

import numpy as np
import pytest

from toafusion import eskf, geometry as geo, metrics, pgo
from toafusion import toa_sim
from toafusion.config import EskfOptions, ExperimentConfig
from toafusion.dataset import Trajectory, load_groundtruth, load_imu
from toafusion.eskf import NavState
from toafusion.pipeline import load_inputs, obtain_toa, run_experiment
from toafusion.synthetic import (SyntheticTrajectorySpec,
                                 generate_synthetic_trajectory,
                                 initial_state_from_groundtruth)

from conftest import model_of, random_quaternion, record_acceptance
from test_eskf import (batched_jacobians, finite_difference_f_g,
                       process_noise_error, random_imu, random_noise,
                       random_state)
from test_pgo import (fd_jacobian_check, make_tables, make_values,
                      random_imu_rows)
from test_toa_sim import range_fd_error

SEEDS = tuple(range(10))


def benchmark_config() -> ExperimentConfig:
    cfg = ExperimentConfig()          # figure-eight, 30 s, 1 m/s, IMU noise on
    cfg.pgo.mode = "batch"
    return cfg


@pytest.fixture(scope="session")
def benchmark_matrix():
    """Per-seed metric reports over (scenario, station count)."""
    cfg = benchmark_config()
    combos = [("mmmagic_78ghz", 2), ("mmmagic_78ghz", 3), ("mmmagic_78ghz", 4),
              ("mmmagic_78ghz", 5), ("industrial_5ghz", 5)]
    matrix = {}
    for scenario, bs in combos:
        rows = [run_experiment(cfg, seed, scenario, bs, "both")
                for seed in SEEDS]
        matrix[(scenario, bs)] = {
            "eskf": [r.eskf.report for r in rows],
            "pgo": [r.pgo.report for r in rows],
        }
    return matrix


def median(values) -> float:
    return float(np.median(values))


class TestCriterion1:
    """All analytic Jacobians match central finite differences."""

    def test_jacobian_suite(self, rng):
        tic = time.perf_counter()
        tol = 1e-5

        # One batched call, as run_filter makes once per segment: X = dt F,
        # and the diagonal process noise against G Q G^T.
        states, imus = zip(*[(random_state(rng), random_imu(rng))
                             for _ in range(100)])
        dt = rng.uniform(0.001, 0.1, 100)
        x_all = batched_jacobians(states, imus, dt)
        noise = random_noise(rng)
        worst_f = worst_g = 0.0
        for state, imu, x, h in zip(states, imus, x_all, dt):
            f_fd, g_fd = finite_difference_f_g(state, imu)
            worst_f = max(worst_f, np.linalg.norm(x / h - f_fd) / np.linalg.norm(f_fd))
            worst_g = max(worst_g, process_noise_error(g_fd, noise))
        assert worst_f < tol and worst_g < tol

        # The range Jacobian's position block, from the kernel both estimators use.
        worst_h = range_fd_error([random_state(rng).p for _ in range(100)])
        assert worst_h < tol

        # The PGO kernels the solver runs: whitened Jacobians of range, IMU,
        # state-prior and station-prior tables against central differences.
        worst_r = 0.0
        for _ in range(100):
            values = make_values(rng, 1, 1)
            if np.linalg.norm(values.pos[0] - values.stations[0]) < 0.5:
                continue
            tables = make_tables(ranges=[(0, 0, float(rng.uniform(1, 30)), 0.2)])
            worst_r = max(worst_r, fd_jacobian_check(tables, values))
        assert worst_r < tol

        worst_imu = 0.0
        for _ in range(100):
            values = make_values(rng, 2, 1)
            _, _, imu_tab = random_imu_rows(rng, 0.01 * rng.standard_normal(6))
            worst_imu = max(worst_imu,
                            fd_jacobian_check(make_tables(imu=imu_tab), values))
        assert worst_imu < tol

        worst_prior = 0.0
        for _ in range(20):
            values = make_values(rng, 1, 1)
            spread = rng.standard_normal((15, 15))
            tables = make_tables(
                priors=[(0, geo.quat_to_rot(random_quaternion(rng)),
                         rng.standard_normal(3), rng.standard_normal(3),
                         rng.standard_normal(6),
                         0.01 * np.eye(15) + 1e-3 * spread @ spread.T)],
                stations=[(0, rng.standard_normal(3), 1e-3)])
            worst_prior = max(worst_prior, fd_jacobian_check(tables, values))
        assert worst_prior < tol

        elapsed = time.perf_counter() - tic
        assert elapsed < 10.0
        record_acceptance(
            f"CRITERION 1 PASS: Jacobians vs finite differences, worst rel err "
            f"F={worst_f:.1e} GQG^T={worst_g:.1e} H={worst_h:.1e} range={worst_r:.1e} "
            f"preint={worst_imu:.1e} prior={worst_prior:.1e} (< 1e-5), "
            f"{elapsed:.1f} s (< 10 s)")


class TestCriterion2:
    """Noiseless closure on a 60 s circle."""

    def test_noiseless_closure(self):
        tic = time.perf_counter()
        spec = SyntheticTrajectorySpec(kind="circle", duration_s=60.0,
                                       speed_mps=1.0)
        imu, gt = generate_synthetic_trajectory(spec)
        stations = toa_sim.default_stations(5)
        toa = toa_sim.simulate(gt, stations, toa_sim.noiseless_model(5),
                               rate_hz=5.0).ranges
        init = initial_state_from_groundtruth(gt)

        model = model_of(stations)
        fconfig = eskf.FilterConfig(init, model, EskfOptions())
        eskf_ate = metrics.evaluate(
            eskf.run_filter(imu, toa, fconfig).estimates, gt).ate

        pconfig = pgo.PgoConfig(initial_state=init, range_model=model)
        traj = pgo.run_batch(imu, toa, pconfig).batch
        pgo_ate = metrics.evaluate(traj, gt).ate

        elapsed = time.perf_counter() - tic
        assert eskf_ate < 0.02
        assert pgo_ate < 0.005
        assert elapsed < 60.0
        record_acceptance(
            f"CRITERION 2 PASS: noiseless circle ESKF ATE={eskf_ate:.5f} m "
            f"(< 0.02), PGO batch ATE={pgo_ate:.6f} m (< 0.005), "
            f"{elapsed:.1f} s (< 60 s)")


class TestCriterion3:
    """Desk-scale reproduction of the published 5-station accuracy level."""

    def test_median_ate_brackets(self, benchmark_matrix):
        reports = benchmark_matrix[("mmmagic_78ghz", 5)]
        pgo_med = median([r.ate for r in reports["pgo"]])
        eskf_med = median([r.ate for r in reports["eskf"]])
        assert 0.05 <= pgo_med <= 0.5
        assert 0.1 <= eskf_med <= 1.0
        record_acceptance(
            f"CRITERION 3 PASS: 10-seed medians PGO ATE={pgo_med:.3f} m "
            f"(in [0.05, 0.5]), ESKF ATE={eskf_med:.3f} m (in [0.1, 1.0])")


class TestCriterion4:
    """Ordering properties across estimators, station counts, scenarios."""

    def test_pgo_beats_eskf(self, benchmark_matrix):
        reports = benchmark_matrix[("mmmagic_78ghz", 5)]
        pgo_med = median([r.ate for r in reports["pgo"]])
        eskf_med = median([r.ate for r in reports["eskf"]])
        assert pgo_med <= eskf_med
        record_acceptance(
            f"CRITERION 4a PASS: median PGO ATE {pgo_med:.3f} <= "
            f"median ESKF ATE {eskf_med:.3f}")

    def test_more_stations_never_hurt(self, benchmark_matrix):
        lines = []
        for est in ("eskf", "pgo"):
            meds = [median([r.ate for r in
                            benchmark_matrix[("mmmagic_78ghz", bs)][est]])
                    for bs in (2, 3, 4, 5)]
            assert all(meds[i + 1] <= meds[i] for i in range(3)), (est, meds)
            lines.append(f"{est}: " + " >= ".join(f"{m:.3f}" for m in meds))
        record_acceptance("CRITERION 4b PASS: median ATE non-increasing "
                          "2 -> 5 stations (" + "; ".join(lines) + ")")

    def test_wider_noise_is_worse(self, benchmark_matrix):
        parts = []
        for est in ("eskf", "pgo"):
            noisy = median([r.ate for r in
                            benchmark_matrix[("industrial_5ghz", 5)][est]])
            clean = median([r.ate for r in
                            benchmark_matrix[("mmmagic_78ghz", 5)][est]])
            assert noisy >= clean, (est, noisy, clean)
            parts.append(f"{est} {noisy:.3f} >= {clean:.3f}")
        record_acceptance(
            "CRITERION 4c PASS: industrial preset ATE >= mmWave preset ATE "
            "(" + "; ".join(parts) + ")")


class TestCriterion5:
    """Vertical error dominates with the low-diversity station layout."""

    def test_vertical_error_dominates(self, benchmark_matrix):
        parts = []
        for est in ("eskf", "pgo"):
            reports = benchmark_matrix[("mmmagic_78ghz", 5)][est]
            e_z = median([r.e_z for r in reports])
            e_xy = median([max(r.e_x, r.e_y) for r in reports])
            assert e_z >= e_xy, (est, e_z, e_xy)
            parts.append(f"{est} E_z {e_z:.3f} >= max(E_x,E_y) {e_xy:.3f}")
        record_acceptance("CRITERION 5 PASS: " + "; ".join(parts))


class TestCriterion6:
    """Timing at desk scale."""

    def test_estimator_step_times(self):
        cfg = ExperimentConfig()
        cfg.pgo.mode = "sliding"
        cfg.pgo.final_batch = False
        result = run_experiment(cfg, seed=0, estimator="both")
        eskf_cycle = result.eskf.timing_mean_ms
        pgo_step = result.pgo.timing_mean_ms
        pgo_p95 = float(np.percentile(result.pgo.extra["run"].step_times_ms, 95))
        assert eskf_cycle < 5.0
        assert pgo_step < 50.0
        record_acceptance(
            f"CRITERION 6 PASS: ESKF predict+update cycle {eskf_cycle:.3f} ms "
            f"(< 5), sliding-window step mean {pgo_step:.1f} ms (< 50), "
            f"p95 {pgo_p95:.1f} ms")


class TestCriterion7:
    """Simulator noise calibration against the published industrial row."""

    def test_industrial_station1_moments(self):
        # A two-pose hover spans the full window; interpolation is exact
        # for a constant position.
        pos = np.array([0.0, 0.0, 1.0])
        gt = Trajectory(np.array([0, int(2000e9)]), np.array([pos, pos]),
                        np.array([geo.quat_identity()] * 2))
        stations = toa_sim.default_stations(1)
        model = toa_sim.scenario_preset("industrial_5ghz", "V101").noise_model(
            seed=7, count=1)
        sim = toa_sim.simulate(gt, stations, model, rate_hz=5.0)
        true_d = toa_sim.true_distance(pos, stations[0])
        residuals = sim.ranges.distance - true_d
        assert len(residuals) >= 10_000
        mean = float(np.mean(residuals))
        std = float(np.std(residuals))
        assert abs(mean - 0.129) < 0.02
        assert abs(std - 0.568) < 0.02
        record_acceptance(
            f"CRITERION 7 PASS: simulated station-1 moments mean={mean:.4f} "
            f"(0.129 +/- 0.02), std={std:.4f} (0.568 +/- 0.02) over "
            f"{len(residuals)} ticks")


class TestCriterion8:
    """Optional: real flight data + simulated ranges."""

    def test_real_imu_with_simulated_ranges(self):
        root = os.environ.get("TOAFUSION_EUROC_DIR")
        if not root:
            record_acceptance(
                "CRITERION 8 SKIP: optional; set TOAFUSION_EUROC_DIR to a "
                "V101 directory (mav0 layout) to run")
            pytest.skip("TOAFUSION_EUROC_DIR not set")
        imu_path = os.path.join(root, "mav0", "imu0", "data.csv")
        gt_path = os.path.join(root, "mav0", "state_groundtruth_estimate0",
                               "data.csv")
        imu = load_imu(imu_path)
        gt = load_groundtruth(gt_path)
        # Trim ground truth to the IMU time span, then fuse.
        gt = gt[(imu.t[0] <= gt.t) & (gt.t <= imu.t[-1])]
        imu = imu[(gt.t[0] <= imu.t) & (imu.t <= gt.t[-1])]
        stations = toa_sim.default_stations(5)
        preset = toa_sim.scenario_preset("mmmagic_78ghz", "V101")
        toa = toa_sim.simulate(gt, stations, preset.noise_model(seed=0),
                               rate_hz=5.0).ranges
        init = initial_state_from_groundtruth(gt)
        model = model_of(stations, preset.std)
        pconfig = pgo.PgoConfig(initial_state=init, range_model=model)
        fconfig = eskf.FilterConfig(init, model, EskfOptions())
        eskf_traj = eskf.run_filter(imu, toa, fconfig).estimates
        traj = pgo.run_batch(imu, toa, pconfig, initial=eskf_traj).batch
        ate = metrics.evaluate(traj, gt).ate
        assert ate < 0.5
        record_acceptance(
            f"CRITERION 8 PASS: real-IMU PGO ATE={ate:.3f} m (< 0.5)")
