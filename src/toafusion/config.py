"""Experiment configuration: one INI file drives the whole pipeline.

Every runtime knob lives here so a run is reproducible from the config file
plus the seed. `default_config_text()` emits a fully commented template with
every default; `load_config()` parses and validates a file into typed
dataclasses.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigError
from .eskf import ImuNoiseParams
from .toa_sim import (DEFAULT_STATIONS, SCENARIO_NAMES, SEQUENCE_NAMES,
                      BaseStation, NoiseModel, scenario_preset)
from .synthetic import TRAJECTORY_KINDS, SyntheticTrajectorySpec

ESTIMATOR_CHOICES = ("eskf", "pgo", "both")
PGO_MODES = ("batch", "sliding")


@dataclass
class InputConfig:
    source: str = "synthetic"            # synthetic | files
    imu_path: str = ""
    groundtruth_path: str = ""
    toa_path: str = ""                   # empty: simulate ranges


@dataclass
class TrajectoryConfig:
    kind: str = "figure_eight"
    duration_s: float = 30.0
    speed_mps: float = 1.0
    radius_m: float = 2.0
    imu_rate_hz: float = 200.0
    gt_rate_hz: float = 100.0
    imu_noise: bool = True
    gyro_bias: tuple = (0.002, -0.0015, 0.001)
    accel_bias: tuple = (0.02, -0.015, 0.01)


@dataclass
class StationConfig:
    count: int = 5
    positions: tuple = tuple(p for _, p in DEFAULT_STATIONS)


@dataclass
class NoiseConfig:
    scenario: str = "mmmagic_78ghz"      # preset name or "custom"
    sequence: str = "V101"
    toa_rate_hz: float = 5.0
    seed: int = 0
    custom_mean: tuple = ()
    custom_std: tuple = ()


@dataclass
class EskfConfig:
    sigma_floor: float = 1e-3
    emit_at_imu_rate: bool = False


@dataclass
class PgoSectionConfig:
    node_rate_hz: float = 10.0
    window: int = 100
    max_iters: int = 50
    max_iters_stream: int = 12
    stream_cost_tol: float = 1e-3
    damping_init: float = 1e-4
    cost_tol: float = 1e-9
    step_tol: float = 1e-9
    station_prior_sigma: float = 1e-3
    final_batch: bool = True
    mode: str = "sliding"                # batch | sliding
    init_from_eskf: bool = True


@dataclass
class RunConfig:
    estimator: str = "both"
    out_dir: str = "out"
    seeds: tuple = (0,)
    max_gap_ms: float = 10.0
    workers: int = 1


@dataclass
class SweepConfig:
    scenarios: tuple = SCENARIO_NAMES
    bs_counts: tuple = (2, 3, 4, 5)
    seeds: tuple = tuple(range(4))
    estimators: tuple = ("eskf", "pgo")


@dataclass
class ExtrinsicConfig:
    enabled: bool = False
    translation: tuple = (0.0, 0.0, 0.0)
    quaternion_wxyz: tuple = (1.0, 0.0, 0.0, 0.0)


@dataclass
class ExperimentConfig:
    input: InputConfig = field(default_factory=InputConfig)
    trajectory: TrajectoryConfig = field(default_factory=TrajectoryConfig)
    stations: StationConfig = field(default_factory=StationConfig)
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    imu_model: ImuNoiseParams = field(default_factory=lambda: ImuNoiseParams(
        sigma_g=1e-3, sigma_a=2e-2, sigma_wg=1e-4, sigma_wa=3e-3))
    eskf: EskfConfig = field(default_factory=EskfConfig)
    pgo: PgoSectionConfig = field(default_factory=PgoSectionConfig)
    run: RunConfig = field(default_factory=RunConfig)
    sweep: SweepConfig = field(default_factory=SweepConfig)
    extrinsic: ExtrinsicConfig = field(default_factory=ExtrinsicConfig)

    def base_stations(self, count: Optional[int] = None) -> list[BaseStation]:
        n = count if count is not None else self.stations.count
        if not 1 <= n <= len(self.stations.positions):
            raise ConfigError(f"station count {n} outside configured set")
        return [BaseStation(i + 1, np.array(p, dtype=float))
                for i, p in enumerate(self.stations.positions[:n])]

    def noise_model(self, seed: int, count: Optional[int] = None,
                    scenario: Optional[str] = None) -> NoiseModel:
        n = count if count is not None else self.stations.count
        name = scenario if scenario is not None else self.noise.scenario
        if name == "custom":
            if len(self.custom_mean()) < n:
                raise ConfigError("custom noise arrays shorter than station count")
            return NoiseModel(self.custom_mean()[:n], self.custom_std()[:n], seed)
        preset = scenario_preset(name, self.noise.sequence)
        return preset.noise_model(seed=seed, count=n)

    def custom_mean(self) -> np.ndarray:
        return np.asarray(self.noise.custom_mean, dtype=float)

    def custom_std(self) -> np.ndarray:
        return np.asarray(self.noise.custom_std, dtype=float)

    def trajectory_spec(self, seed: int) -> SyntheticTrajectorySpec:
        t = self.trajectory
        return SyntheticTrajectorySpec(
            kind=t.kind, duration_s=t.duration_s, speed_mps=t.speed_mps,
            imu_rate_hz=t.imu_rate_hz, gt_rate_hz=t.gt_rate_hz,
            radius_m=t.radius_m, seed=seed,
            imu_noise=self.imu_model if t.imu_noise else None,
            gyro_bias=np.array(t.gyro_bias, dtype=float),
            accel_bias=np.array(t.accel_bias, dtype=float))


_TEMPLATE = """\
# toafusion experiment configuration (all values shown are the defaults)

[input]
# source: synthetic (generate trajectory below) or files (EuRoC-format CSVs)
source = synthetic
# imu = path/to/imu.csv
# groundtruth = path/to/groundtruth.csv
# toa = path/to/toa.csv        ; omit to simulate ranges from ground truth

[trajectory]
# kind: circle | figure_eight | hover_then_dash
kind = figure_eight
duration_s = 30.0
speed_mps = 1.0
radius_m = 2.0                  ; circle only
imu_rate_hz = 200.0
gt_rate_hz = 100.0
imu_noise = on                  ; corrupt IMU samples with the [imu_model] noise
gyro_bias = 0.002, -0.0015, 0.001
accel_bias = 0.02, -0.015, 0.01

[stations]
count = 5
bs1 = -10.0, -7.0, 2.0
bs2 = 7.0, 13.0, 3.0
bs3 = 25.0, -35.0, 4.0
bs4 = -6.0, 9.0, 5.0
bs5 = -4.0, -14.0, 6.0

[noise]
# scenario: industrial_5ghz | indoor_28ghz | mmmagic_78ghz | custom
scenario = mmmagic_78ghz
sequence = V101                 ; preset row: V101 V102 V103 V201 V202 V203
toa_rate_hz = 5.0
seed = 0
# mean = 0.0, 0.0, 0.0, 0.0, 0.0     ; custom scenario only [m]
# std = 0.17, 0.17, 0.17, 0.17, 0.17

[imu_model]
# noise densities assumed by the estimators (and used to corrupt synthetic
# IMU data when trajectory.imu_noise is on)
sigma_g = 1e-3                  ; rad/s/sqrt(Hz)
sigma_a = 2e-2                  ; m/s^2/sqrt(Hz)
sigma_wg = 1e-4
sigma_wa = 3e-3

[eskf]
sigma_floor = 1e-3              ; lower bound on measurement sigma [m]
emit_at_imu_rate = off

[pgo]
node_rate_hz = 10.0
window = 100
max_iters = 50
max_iters_stream = 12
stream_cost_tol = 1e-3       ; relative cost-decrease tolerance per window solve
damping_init = 1e-4
cost_tol = 1e-9
step_tol = 1e-9
station_prior_sigma = 1e-3
final_batch = on
# mode: sliding (incremental window + final batch) or batch (single solve)
mode = sliding
init_from_eskf = on             ; seed batch solve from the ESKF trajectory

[run]
estimator = both                ; eskf | pgo | both
out_dir = out
seeds = 0
max_gap_ms = 10.0
workers = 1

[sweep]
scenarios = mmmagic_78ghz, indoor_28ghz, industrial_5ghz
bs_counts = 2, 3, 4, 5
seeds = 0, 1, 2, 3
estimators = eskf, pgo

[extrinsic]
# optional rigid transform applied to loaded ground truth (sensor-to-body)
enabled = off
translation = 0.0, 0.0, 0.0
quaternion_wxyz = 1.0, 0.0, 0.0, 0.0
"""


def default_config_text() -> str:
    return _TEMPLATE


def _get(parser, section, key, fallback):
    if not parser.has_section(section):
        return fallback
    return parser.get(section, key, fallback=fallback)


def _get_float(parser, section, key, fallback):
    raw = _get(parser, section, key, None)
    if raw is None:
        return fallback
    try:
        return float(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: not a number: {raw!r}") from exc


def _get_int(parser, section, key, fallback):
    raw = _get(parser, section, key, None)
    if raw is None:
        return fallback
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: not an integer: {raw!r}") from exc


def _get_bool(parser, section, key, fallback):
    raw = _get(parser, section, key, None)
    if raw is None:
        return fallback
    val = str(raw).strip().lower()
    if val in ("1", "true", "yes", "on"):
        return True
    if val in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"[{section}] {key}: expected on/off, got {raw!r}")


def _get_tuple(parser, section, key, fallback, cast=float):
    raw = _get(parser, section, key, None)
    if raw is None:
        return fallback
    try:
        return tuple(cast(part.strip()) for part in str(raw).split(",") if part.strip())
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: bad list: {raw!r}") from exc


def parse_config_text(text: str) -> ExperimentConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc

    cfg = ExperimentConfig()

    cfg.input.source = _get(parser, "input", "source", cfg.input.source).strip()
    if cfg.input.source not in ("synthetic", "files"):
        raise ConfigError(f"[input] source must be synthetic or files, "
                          f"got {cfg.input.source!r}")
    cfg.input.imu_path = _get(parser, "input", "imu", cfg.input.imu_path)
    cfg.input.groundtruth_path = _get(parser, "input", "groundtruth",
                                      cfg.input.groundtruth_path)
    cfg.input.toa_path = _get(parser, "input", "toa", cfg.input.toa_path)
    if cfg.input.source == "files" and (not cfg.input.imu_path
                                        or not cfg.input.groundtruth_path):
        raise ConfigError("[input] files mode requires imu and groundtruth paths")

    t = cfg.trajectory
    t.kind = _get(parser, "trajectory", "kind", t.kind).strip()
    if t.kind not in TRAJECTORY_KINDS:
        raise ConfigError(f"[trajectory] kind must be one of {TRAJECTORY_KINDS}")
    t.duration_s = _get_float(parser, "trajectory", "duration_s", t.duration_s)
    t.speed_mps = _get_float(parser, "trajectory", "speed_mps", t.speed_mps)
    t.radius_m = _get_float(parser, "trajectory", "radius_m", t.radius_m)
    t.imu_rate_hz = _get_float(parser, "trajectory", "imu_rate_hz", t.imu_rate_hz)
    t.gt_rate_hz = _get_float(parser, "trajectory", "gt_rate_hz", t.gt_rate_hz)
    t.imu_noise = _get_bool(parser, "trajectory", "imu_noise", t.imu_noise)
    t.gyro_bias = _get_tuple(parser, "trajectory", "gyro_bias", t.gyro_bias)
    t.accel_bias = _get_tuple(parser, "trajectory", "accel_bias", t.accel_bias)
    if t.duration_s <= 0 or t.imu_rate_hz <= 0 or t.gt_rate_hz <= 0:
        raise ConfigError("[trajectory] duration and rates must be positive")

    st = cfg.stations
    st.count = _get_int(parser, "stations", "count", st.count)
    positions = list(st.positions)
    for k in range(len(DEFAULT_STATIONS)):
        raw = _get(parser, "stations", f"bs{k + 1}", None)
        if raw is not None:
            vals = _get_tuple(parser, "stations", f"bs{k + 1}", None)
            if vals is None or len(vals) != 3:
                raise ConfigError(f"[stations] bs{k + 1} must be x, y, z")
            positions[k] = vals
    st.positions = tuple(positions)
    if not 2 <= st.count <= len(st.positions):
        raise ConfigError(f"[stations] count must lie in 2..{len(st.positions)}")

    nz = cfg.noise
    nz.scenario = _get(parser, "noise", "scenario", nz.scenario).strip()
    if nz.scenario != "custom" and nz.scenario not in SCENARIO_NAMES:
        raise ConfigError(f"[noise] scenario must be custom or one of {SCENARIO_NAMES}")
    nz.sequence = _get(parser, "noise", "sequence", nz.sequence).strip()
    if nz.sequence not in SEQUENCE_NAMES:
        raise ConfigError(f"[noise] sequence must be one of {SEQUENCE_NAMES}")
    nz.toa_rate_hz = _get_float(parser, "noise", "toa_rate_hz", nz.toa_rate_hz)
    nz.seed = _get_int(parser, "noise", "seed", nz.seed)
    nz.custom_mean = _get_tuple(parser, "noise", "mean", nz.custom_mean)
    nz.custom_std = _get_tuple(parser, "noise", "std", nz.custom_std)
    if nz.scenario == "custom" and (len(nz.custom_mean) < st.count
                                    or len(nz.custom_std) < st.count):
        raise ConfigError("[noise] custom scenario needs mean/std per station")

    cfg.imu_model = ImuNoiseParams(
        sigma_g=_get_float(parser, "imu_model", "sigma_g", cfg.imu_model.sigma_g),
        sigma_a=_get_float(parser, "imu_model", "sigma_a", cfg.imu_model.sigma_a),
        sigma_wg=_get_float(parser, "imu_model", "sigma_wg", cfg.imu_model.sigma_wg),
        sigma_wa=_get_float(parser, "imu_model", "sigma_wa", cfg.imu_model.sigma_wa))

    cfg.eskf.sigma_floor = _get_float(parser, "eskf", "sigma_floor",
                                      cfg.eskf.sigma_floor)
    cfg.eskf.emit_at_imu_rate = _get_bool(parser, "eskf", "emit_at_imu_rate",
                                          cfg.eskf.emit_at_imu_rate)

    pg = cfg.pgo
    pg.node_rate_hz = _get_float(parser, "pgo", "node_rate_hz", pg.node_rate_hz)
    pg.window = _get_int(parser, "pgo", "window", pg.window)
    pg.max_iters = _get_int(parser, "pgo", "max_iters", pg.max_iters)
    pg.max_iters_stream = _get_int(parser, "pgo", "max_iters_stream",
                                   pg.max_iters_stream)
    pg.stream_cost_tol = _get_float(parser, "pgo", "stream_cost_tol",
                                    pg.stream_cost_tol)
    pg.damping_init = _get_float(parser, "pgo", "damping_init", pg.damping_init)
    pg.cost_tol = _get_float(parser, "pgo", "cost_tol", pg.cost_tol)
    pg.step_tol = _get_float(parser, "pgo", "step_tol", pg.step_tol)
    pg.station_prior_sigma = _get_float(parser, "pgo", "station_prior_sigma",
                                        pg.station_prior_sigma)
    if not (pg.node_rate_hz > 0 and pg.station_prior_sigma > 0):
        raise ConfigError("[pgo] node_rate_hz and station_prior_sigma must be "
                          "positive")
    pg.final_batch = _get_bool(parser, "pgo", "final_batch", pg.final_batch)
    pg.mode = _get(parser, "pgo", "mode", pg.mode).strip()
    if pg.mode not in PGO_MODES:
        raise ConfigError(f"[pgo] mode must be one of {PGO_MODES}")
    pg.init_from_eskf = _get_bool(parser, "pgo", "init_from_eskf",
                                  pg.init_from_eskf)

    rn = cfg.run
    rn.estimator = _get(parser, "run", "estimator", rn.estimator).strip()
    if rn.estimator not in ESTIMATOR_CHOICES:
        raise ConfigError(f"[run] estimator must be one of {ESTIMATOR_CHOICES}")
    rn.out_dir = _get(parser, "run", "out_dir", rn.out_dir)
    rn.seeds = _get_tuple(parser, "run", "seeds", rn.seeds, cast=int)
    rn.max_gap_ms = _get_float(parser, "run", "max_gap_ms", rn.max_gap_ms)
    rn.workers = _get_int(parser, "run", "workers", rn.workers)

    sw = cfg.sweep
    sw.scenarios = _get_tuple(parser, "sweep", "scenarios", sw.scenarios, cast=str)
    for name in sw.scenarios:
        if name != "custom" and name not in SCENARIO_NAMES:
            raise ConfigError(f"[sweep] unknown scenario {name!r}")
    sw.bs_counts = _get_tuple(parser, "sweep", "bs_counts", sw.bs_counts, cast=int)
    for n in sw.bs_counts:
        if not 2 <= n <= st.count:
            raise ConfigError(f"[sweep] bs_count {n} outside 2..{st.count}")
    sw.seeds = _get_tuple(parser, "sweep", "seeds", sw.seeds, cast=int)
    sw.estimators = _get_tuple(parser, "sweep", "estimators", sw.estimators, cast=str)
    for est in sw.estimators:
        if est not in ("eskf", "pgo"):
            raise ConfigError(f"[sweep] estimators must be eskf/pgo, got {est!r}")

    ex = cfg.extrinsic
    ex.enabled = _get_bool(parser, "extrinsic", "enabled", ex.enabled)
    ex.translation = _get_tuple(parser, "extrinsic", "translation", ex.translation)
    ex.quaternion_wxyz = _get_tuple(parser, "extrinsic", "quaternion_wxyz",
                                    ex.quaternion_wxyz)

    return cfg


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text)
