"""Experiment pipeline: data preparation, estimator runs, evaluation.

This is the layer the CLI and the sweep share. One `run_experiment` call
covers a single (seed, scenario, station-count) combination: obtain IMU and
ground truth (synthetic or files), obtain ranges (file or simulation),
run the selected estimators, and compute metrics.

Range data is always simulated with the full configured station set and
subset afterwards, so runs with different station counts share the same
noise realization per seed (paired comparisons).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import eskf as eskf_mod
from . import geometry as geo
from . import metrics as metrics_mod
from . import pgo as pgo_mod
from . import toa_sim
from .config import ExperimentConfig
from .dataset import (ImuArrays, ToaArrays, Trajectory, load_groundtruth,
                      load_imu, load_toa)
from .errors import ConfigError
from .synthetic import generate_synthetic_trajectory, initial_state_from_groundtruth

TOA_SEED_OFFSET = 1000   # decorrelates range noise from IMU noise per seed


def _apply_extrinsic(cfg: ExperimentConfig, gt: Trajectory) -> Trajectory:
    if not cfg.extrinsic.enabled:
        return gt
    qw, qx, qy, qz = cfg.extrinsic.quaternion_wxyz
    q_ext = geo.quat_normalize(np.array([qx, qy, qz, qw]))
    t_ext = np.array(cfg.extrinsic.translation, dtype=float)
    rot = geo.quat_to_rot_batch(gt.orientation)
    return replace(gt, position=gt.position + rot @ t_ext,
                   orientation=geo.quat_mul_batch(gt.orientation, q_ext))


def load_inputs(cfg: ExperimentConfig, seed: int) -> tuple[ImuArrays, Trajectory]:
    if cfg.input.source == "synthetic":
        return generate_synthetic_trajectory(cfg.trajectory_spec(seed))
    imu = load_imu(cfg.input.imu_path)
    gt = _apply_extrinsic(cfg, load_groundtruth(cfg.input.groundtruth_path))
    return imu, gt


def obtain_toa(cfg: ExperimentConfig, gt: Trajectory, seed: int,
               bs_count: int, scenario: Optional[str] = None) -> ToaArrays:
    """Load ranges from file, or simulate with all stations and subset."""
    if cfg.input.toa_path:
        toa = load_toa(cfg.input.toa_path, num_stations=cfg.stations.count)
    else:
        stations = cfg.base_stations(cfg.stations.count)
        model = cfg.noise_model(seed + TOA_SEED_OFFSET, cfg.stations.count,
                                scenario)
        toa = toa_sim.simulate(gt, stations, model, cfg.noise.toa_rate_hz).ranges
    return toa[toa.bs_id <= bs_count]


def range_model(cfg: ExperimentConfig, bs_count: int,
                scenario: Optional[str] = None) -> toa_sim.RangeModel:
    """Both estimators' range model: bs_count stations with the stds of
    the scenario's noise model, floored at [eskf] sigma_floor."""
    std = cfg.noise_model(0, bs_count, scenario).std
    return toa_sim.RangeModel.build(cfg.base_stations(bs_count), std,
                                    cfg.eskf.sigma_floor)


@dataclass
class EstimatorResult:
    trajectory: Trajectory
    report: metrics_mod.MetricsReport
    timing_mean_ms: float
    extra: dict         # "run": the eskf.FilterRun or pgo.PgoRun


@dataclass
class ExperimentResult:
    seed: int
    scenario: str
    bs_count: int
    groundtruth: Trajectory
    eskf: Optional[EstimatorResult] = None
    pgo: Optional[EstimatorResult] = None

    def get(self, estimator: str) -> EstimatorResult:
        result = getattr(self, estimator)
        if result is None:
            raise ConfigError(f"estimator {estimator!r} was not run")
        return result


def _mean_std(times_ms: np.ndarray) -> tuple[float, float]:
    if len(times_ms):
        return float(np.mean(times_ms)), float(np.std(times_ms))
    return 0.0, 0.0


def _result(cfg: ExperimentConfig, traj: Trajectory, gt: Trajectory, run,
            t_mean: float, t_std: float) -> EstimatorResult:
    report = metrics_mod.evaluate(traj, gt,
                                  max_gap_ns=int(cfg.run.max_gap_ms * 1e6))
    report.timing_mean_ms = t_mean
    report.timing_std_ms = t_std
    return EstimatorResult(traj, report, t_mean, {"run": run})


def _run_eskf(cfg: ExperimentConfig, imu, toa, gt, model) -> EstimatorResult:
    fconfig = eskf_mod.FilterConfig(
        initial_state=initial_state_from_groundtruth(gt), range_model=model,
        options=cfg.eskf, noise=cfg.imu_model)
    run = eskf_mod.run_filter(imu, toa, fconfig)
    # One cycle = one prediction plus one update.
    mean_p, std_p = _mean_std(run.predict_times_ms)
    mean_u, std_u = _mean_std(run.update_times_ms)
    return _result(cfg, run.estimates, gt, run, mean_p + mean_u,
                   float(np.sqrt(std_p ** 2 + std_u ** 2)))


def _run_pgo(cfg: ExperimentConfig, imu, toa, gt, model,
             init_traj: Optional[Trajectory]) -> EstimatorResult:
    pconfig = pgo_mod.PgoConfig(
        initial_state=initial_state_from_groundtruth(gt), range_model=model,
        noise=cfg.imu_model, options=cfg.pgo)
    if cfg.pgo.mode == "sliding":
        run = pgo_mod.run_sliding_window(imu, toa, pconfig)
    else:
        seed_traj = init_traj if cfg.pgo.init_from_eskf else None
        run = pgo_mod.run_batch(imu, toa, pconfig, initial=seed_traj)
    traj = run.batch if run.batch is not None else run.streamed
    return _result(cfg, traj, gt, run, *_mean_std(run.step_times_ms))


def run_experiment(cfg: ExperimentConfig, seed: int,
                   scenario: Optional[str] = None,
                   bs_count: Optional[int] = None,
                   estimator: Optional[str] = None) -> ExperimentResult:
    """Execute one combination end to end."""
    scenario = scenario if scenario is not None else cfg.noise.scenario
    bs_count = bs_count if bs_count is not None else cfg.stations.count
    estimator = estimator if estimator is not None else cfg.run.estimator

    imu, gt = load_inputs(cfg, seed)
    toa = obtain_toa(cfg, gt, seed, bs_count, scenario)
    model = range_model(cfg, bs_count, scenario)

    result = ExperimentResult(seed, scenario, bs_count, gt)
    if estimator in ("eskf", "both"):
        result.eskf = _run_eskf(cfg, imu, toa, gt, model)
    if estimator in ("pgo", "both"):
        init = result.eskf.trajectory if result.eskf is not None else None
        result.pgo = _run_pgo(cfg, imu, toa, gt, model, init)
    return result


SWEEP_CSV_HEADER = ("scenario,bs_count,estimator,n_seeds,"
                    + metrics_mod.REPORT_CSV_HEADER)
RUNS_CSV_HEADER = ("scenario,bs_count,estimator,seed,"
                   + metrics_mod.REPORT_CSV_HEADER)


def aggregate_reports(reports: list[metrics_mod.MetricsReport]
                      ) -> metrics_mod.MetricsReport:
    """Median over seeds for error metrics; pooled mean/std for timing."""
    def med(vals):
        return float(np.median(vals))
    return metrics_mod.MetricsReport(
        ate=med([r.ate for r in reports]),
        e_x=med([r.e_x for r in reports]),
        e_y=med([r.e_y for r in reports]),
        e_z=med([r.e_z for r in reports]),
        rpe_t=med([r.rpe_t for r in reports]),
        rpe_r=med([r.rpe_r for r in reports]),
        timing_mean_ms=float(np.mean([r.timing_mean_ms for r in reports])),
        timing_std_ms=float(np.mean([r.timing_std_ms for r in reports])),
        n_pairs=int(sum(r.n_pairs for r in reports)))


def _sweep_worker(args) -> tuple[str, int, int, dict]:
    cfg, scenario, bs_count, seed, estimators = args
    wants_both = "eskf" in estimators and "pgo" in estimators
    est = "both" if wants_both else estimators[0]
    result = run_experiment(cfg, seed, scenario, bs_count, est)
    out = {}
    for name in estimators:
        out[name] = result.get(name).report
    return scenario, bs_count, seed, out


def run_sweep(cfg: ExperimentConfig, workers: int = 1):
    """All (scenario x station-count x estimator) combinations over seeds.

    Returns (aggregate_rows, run_rows) where each aggregate row is
    (scenario, bs_count, estimator, n_seeds, MetricsReport-median) and run
    rows carry the per-seed reports.
    """
    sw = cfg.sweep
    jobs = [(cfg, scenario, bs, seed, tuple(sw.estimators))
            for scenario in sw.scenarios
            for bs in sw.bs_counts
            for seed in sw.seeds]

    results = []
    if workers > 1:
        import concurrent.futures
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_worker, jobs))
    else:
        results = [_sweep_worker(job) for job in jobs]

    by_combo: dict[tuple, dict[int, dict]] = {}
    for scenario, bs, seed, reports in results:
        by_combo.setdefault((scenario, bs), {})[seed] = reports

    aggregate_rows = []
    run_rows = []
    for scenario in sw.scenarios:
        for bs in sw.bs_counts:
            seed_map = by_combo[(scenario, bs)]
            for est in sw.estimators:
                per_seed = [seed_map[s][est] for s in sw.seeds]
                for s, rep in zip(sw.seeds, per_seed):
                    run_rows.append((scenario, bs, est, s, rep))
                aggregate_rows.append((scenario, bs, est, len(sw.seeds),
                                       aggregate_reports(per_seed)))
    return aggregate_rows, run_rows
