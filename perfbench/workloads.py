"""The benchmark's workloads, their inputs and the check of their outputs.

Each workload is one `pipeline.run_experiment` call on inputs generated
from the seed. The three load the layers very differently:

* fig8_batch: the default config (30 s figure-eight, 5 stations, mmWave
  preset, both estimators) with one batch PGO solve seeded from the ESKF.
  The solve dominates, and every factor is preintegrated at one bias.
* fig8_sliding: the same inputs with the sliding-window PGO and no final
  batch. The same solver runs as 300 small window solves, with
  marginalization and drift reintegration between them.
* eskf_csv_long: a 300 s circle with the industrial preset through the
  ESKF alone, read back from EuRoC-format CSVs written during set-up. PGO
  and preintegration are never called, so changes to them must not move it.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from toafusion import dataset, pipeline
from toafusion.config import ExperimentConfig, InputConfig


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                  # synthetic trajectory kind
    duration_s: float
    scenario: str
    estimator: str             # eskf | both
    pgo_mode: Optional[str]    # batch | sliding | None
    from_files: bool           # inputs written to CSV in set-up, read back in the run
    # Sanity ceilings for the ATE of the ESKF and of the reported trajectory,
    # applied on seeds that have no stored reference.
    ate_ceiling_m: tuple[float, float]


WORKLOADS = {
    "fig8_batch": Workload("fig8_batch", "figure_eight", 30.0, "mmmagic_78ghz",
                           "both", "batch", False, (0.5, 0.3)),
    "fig8_sliding": Workload("fig8_sliding", "figure_eight", 30.0,
                             "mmmagic_78ghz", "both", "sliding", False,
                             (0.5, 1.0)),
    "eskf_csv_long": Workload("eskf_csv_long", "circle", 300.0,
                              "industrial_5ghz", "eskf", None, True,
                              (2.0, 2.0)),
}


def make_config(wl: Workload, duration_s: Optional[float] = None
                ) -> ExperimentConfig:
    cfg = ExperimentConfig()
    cfg.trajectory.kind = wl.kind
    cfg.trajectory.duration_s = duration_s if duration_s is not None else wl.duration_s
    cfg.noise.scenario = wl.scenario
    cfg.run.estimator = wl.estimator
    if wl.pgo_mode is not None:
        cfg.pgo.mode = wl.pgo_mode
        cfg.pgo.final_batch = wl.pgo_mode == "batch"
    return cfg


def prepare(wl: Workload, seed: int, data_dir: str,
            duration_s: Optional[float] = None) -> ExperimentConfig:
    """Set-up work: the config, plus the CSV inputs for a files workload.

    The CSVs hold exactly what synthetic mode would generate for the seed,
    through the program's own generator, simulator and writers.
    """
    cfg = make_config(wl, duration_s)
    if not wl.from_files:
        return cfg
    imu, gt = pipeline.load_inputs(cfg, seed)
    toa = pipeline.obtain_toa(cfg, gt, seed, cfg.stations.count)
    os.makedirs(data_dir, exist_ok=True)
    paths = InputConfig("files", os.path.join(data_dir, "imu.csv"),
                        os.path.join(data_dir, "groundtruth.csv"),
                        os.path.join(data_dir, "toa.csv"))
    dataset.save_imu(paths.imu_path, imu)
    dataset.save_groundtruth(paths.groundtruth_path, gt)
    dataset.save_toa(paths.toa_path, toa, num_stations=cfg.stations.count)
    return replace(cfg, input=paths)


def expected_counts(wl: Workload, cfg: ExperimentConfig) -> dict:
    """Sizes that follow from the config alone, for every seed."""
    t = cfg.trajectory
    imu = round(t.duration_s * t.imu_rate_hz) + 1
    counts = {"imu_samples": imu, "predict_calls": imu - 1,
              "toa_ticks": round(t.duration_s * cfg.noise.toa_rate_hz) + 1}
    if wl.pgo_mode is not None:
        counts["keyframes"] = round(t.duration_s * cfg.pgo.node_rate_hz) + 1
    if wl.pgo_mode == "sliding":
        counts["pgo_steps"] = counts["keyframes"] - 1
    return counts


def _eskf_tick_steps_ms(run, imu_period_ns: int) -> np.ndarray:
    """Program-timed cost of each ESKF estimate: the predictions since the
    previous estimate plus the update that produced it."""
    # The generated IMU stream starts at t = 0 with a fixed period, so an
    # estimate at time t is recorded in loop step i = t / period, after the
    # prediction stored at predict_times_ms[i - 1].
    ends = np.array([e.t for e in run.estimates], dtype=np.int64) // imu_period_ns
    cum = np.concatenate([[0.0], np.cumsum(run.predict_times_ms)])
    predicted = np.diff(cum[ends], prepend=0.0)
    return predicted + run.update_times_ms


@dataclass
class Observed:
    """What one run produced, reduced to the values the benchmark uses."""

    ate_eskf_m: float
    ate_out_m: float
    counts: dict
    step_times_ms: np.ndarray      # per estimate of the reported trajectory
    pgo_step_times_ms: Optional[np.ndarray]
    predict_times_ms: np.ndarray
    update_times_ms: np.ndarray


def observe(wl: Workload, cfg: ExperimentConfig, result) -> Observed:
    frun = result.eskf.extra["run"]
    counts = {"imu_samples": len(frun.predict_times_ms) + 1,
              "predict_calls": len(frun.predict_times_ms),
              "toa_ticks": len(frun.update_times_ms)}
    pgo_steps = None
    if wl.pgo_mode is None:
        ate_out = result.eskf.report.ate
        period = round(1e9 / cfg.trajectory.imu_rate_hz)
        steps = _eskf_tick_steps_ms(frun, period)
    else:
        ate_out = result.pgo.report.ate
        counts["keyframes"] = len(result.pgo.trajectory)
        if wl.pgo_mode == "sliding":
            steps = pgo_steps = result.pgo.extra["run"].step_times_ms
            counts["pgo_steps"] = len(steps)
        else:
            # The program times the batch solve as one step.
            steps = pgo_steps = np.array([result.pgo.timing_mean_ms])
    return Observed(result.eskf.report.ate, ate_out, counts, np.asarray(steps),
                    pgo_steps, frun.predict_times_ms, frun.update_times_ms)


def check(wl: Workload, obs: Observed, expected: dict,
          reference: Optional[dict], tol_m: float,
          first: Optional[Observed]) -> list[str]:
    """Problems with one run's outputs; empty when the run is correct.

    With a stored reference for the seed, the ATEs must match it to tol_m.
    Without one, they must be finite, under the workload's sanity ceilings
    and equal to the first run of the same inputs.
    """
    problems = [f"{key}: {obs.counts.get(key)} != expected {value}"
                for key, value in expected.items()
                if obs.counts.get(key) != value]
    ates = {"ate_eskf_m": obs.ate_eskf_m, "ate_out_m": obs.ate_out_m}
    for (key, value), ceiling in zip(ates.items(), wl.ate_ceiling_m):
        if reference is not None:
            if not abs(value - reference[key]) <= tol_m:
                problems.append(f"{key}: {value!r} != reference {reference[key]!r}")
            continue
        if not (math.isfinite(value) and 0.0 < value <= ceiling):
            problems.append(f"{key}: {value!r} outside (0, {ceiling}]")
        if first is not None and not abs(value - getattr(first, key)) <= tol_m:
            problems.append(f"{key}: {value!r} differs from first run "
                            f"{getattr(first, key)!r}")
    return problems
