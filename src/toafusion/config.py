"""Experiment configuration: one INI file drives the whole pipeline.

Every runtime knob lives here so a run is reproducible from the config file
plus the seed. Each option is declared once, as a row of `OPTIONS`: its
section, key, type, default (written as INI text), template comment and
check. The section types and their defaults, the `gen-config` template
(`default_config_text()`) and the parser (`parse_config_text()`,
`load_config()`) all come from that table; only the checks that span
several options are written out, in `_check_across_options`.

To add an option, add one row and the code that reads it.

Values are read verbatim (`%` is literal), numbers must be finite, and keys
the table does not know are ignored.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, make_dataclass
from typing import Any, Callable, Optional

import numpy as np

from .errors import ConfigError
from .eskf import ImuNoiseParams
from .toa_sim import (DEFAULT_STATIONS, SCENARIO_NAMES, SEQUENCE_NAMES,
                      BaseStation, NoiseModel, scenario_preset)
from .synthetic import TRAJECTORY_KINDS, SyntheticTrajectorySpec

ESTIMATOR_CHOICES = ("eskf", "pgo", "both")
PGO_MODES = ("batch", "sliding")
SCENARIO_CHOICES = SCENARIO_NAMES + ("custom",)


# Option types: each parses an option's INI text or raises ValueError.
# Besides these, str and int.

def number(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"{raw!r} is not a finite number")
    return value


_ON_OFF = {**dict.fromkeys(("1", "true", "yes", "on"), True),
           **dict.fromkeys(("0", "false", "no", "off"), False)}


def on_off(raw: str) -> bool:
    if raw.lower() not in _ON_OFF:
        raise ValueError(f"{raw!r} is not on/off")
    return _ON_OFF[raw.lower()]


def _list(cast: Callable[[str], Any]) -> Callable[[str], tuple]:
    return lambda raw: tuple(cast(part.strip()) for part in raw.split(",")
                             if part.strip())


numbers = _list(number)
integers = _list(int)
words = _list(str)


@dataclass(frozen=True)
class _Check:
    holds: Callable[[Any], bool]
    what: str                       # completes "[section] key must be ..."


POSITIVE = _Check(lambda v: v > 0, "positive")
NONNEGATIVE = _Check(lambda v: v >= 0, "non-negative")
NONEMPTY = _Check(bool, "non-empty")
XYZ = _Check(lambda v: len(v) == 3, "x, y, z")


def _one_of(choices: tuple) -> _Check:
    return _Check(lambda v: v in choices, f"one of {choices}")


@dataclass(frozen=True)
class Option:
    """One key of an INI section: its type, default, template text and check."""

    section: str
    key: str
    type: Callable[[str], Any]
    default: str                    # INI text
    comment: str = ""               # inline comment in the template
    check: Optional[_Check] = None
    attr: str = ""                  # field name, when it is not the key
    note: str = ""                  # template comment line above the key
    example: str = ""               # shown commented out for an empty default

    @property
    def name(self) -> str:
        return self.attr or self.key

    def parse(self, raw: str) -> Any:
        try:
            value = self.type(raw)
        except ValueError as exc:
            raise ConfigError(f"[{self.section}] {self.key}: {exc}") from exc
        if self.check is not None and not self.check.holds(value):
            raise ConfigError(f"[{self.section}] {self.key} must be "
                              f"{self.check.what}, got {raw!r}")
        return value

    def template_line(self) -> str:
        line = (f"# {self.key} = {self.example}" if self.example and not self.default
                else f"{self.key} = {self.default}")
        return f"{line:<31} ; {self.comment}" if self.comment else line


OPTIONS = (
    Option("input", "source", str, "synthetic", check=_one_of(("synthetic", "files")),
           note="source: synthetic (generate trajectory below) or files (EuRoC-format CSVs)"),
    Option("input", "imu", str, "", attr="imu_path", example="path/to/imu.csv"),
    Option("input", "groundtruth", str, "", attr="groundtruth_path",
           example="path/to/groundtruth.csv"),
    Option("input", "toa", str, "", "omit to simulate ranges from ground truth",
           attr="toa_path", example="path/to/toa.csv"),
    Option("trajectory", "kind", str, "figure_eight", check=_one_of(TRAJECTORY_KINDS),
           note="kind: " + " | ".join(TRAJECTORY_KINDS)),
    Option("trajectory", "duration_s", number, "30.0", check=POSITIVE),
    Option("trajectory", "speed_mps", number, "1.0"),
    Option("trajectory", "radius_m", number, "2.0", "circle only"),
    Option("trajectory", "imu_rate_hz", number, "200.0", check=POSITIVE),
    Option("trajectory", "gt_rate_hz", number, "100.0", check=POSITIVE),
    Option("trajectory", "imu_noise", on_off, "on",
           "corrupt IMU samples with the [imu_model] noise"),
    Option("trajectory", "gyro_bias", numbers, "0.002, -0.0015, 0.001", check=XYZ),
    Option("trajectory", "accel_bias", numbers, "0.02, -0.015, 0.01", check=XYZ),
    Option("stations", "count", int, "5"),
    *(Option("stations", f"bs{k}", numbers, ", ".join(map(str, xyz)), check=XYZ)
      for k, xyz in DEFAULT_STATIONS),
    Option("noise", "scenario", str, "mmmagic_78ghz", check=_one_of(SCENARIO_CHOICES),
           note="scenario: " + " | ".join(SCENARIO_CHOICES)),
    Option("noise", "sequence", str, "V101", "preset row: " + " ".join(SEQUENCE_NAMES),
           check=_one_of(SEQUENCE_NAMES)),
    Option("noise", "toa_rate_hz", number, "5.0", check=POSITIVE),
    Option("noise", "mean", numbers, "", "custom scenario only [m]", attr="custom_mean",
           example="0.0, 0.0, 0.0, 0.0, 0.0"),
    Option("noise", "std", numbers, "", attr="custom_std",
           example="0.17, 0.17, 0.17, 0.17, 0.17"),
    Option("imu_model", "sigma_g", number, "1e-3", "rad/s/sqrt(Hz)", check=NONNEGATIVE),
    Option("imu_model", "sigma_a", number, "2e-2", "m/s^2/sqrt(Hz)", check=NONNEGATIVE),
    Option("imu_model", "sigma_wg", number, "1e-4", check=NONNEGATIVE),
    Option("imu_model", "sigma_wa", number, "3e-3", check=NONNEGATIVE),
    Option("eskf", "sigma_floor", number, "1e-3", "lower bound on measurement sigma [m]",
           check=POSITIVE),
    Option("eskf", "emit_at_imu_rate", on_off, "off"),
    Option("pgo", "node_rate_hz", number, "10.0", check=POSITIVE),
    Option("pgo", "window", int, "100", check=POSITIVE),
    Option("pgo", "max_iters", int, "50", check=POSITIVE),
    Option("pgo", "max_iters_stream", int, "12", check=POSITIVE),
    Option("pgo", "stream_cost_tol", number, "1e-3",
           "relative cost-decrease tolerance per window solve"),
    Option("pgo", "damping_init", number, "1e-4"),
    Option("pgo", "cost_tol", number, "1e-9"),
    Option("pgo", "step_tol", number, "1e-9"),
    Option("pgo", "station_prior_sigma", number, "1e-3", check=POSITIVE),
    Option("pgo", "final_batch", on_off, "on"),
    Option("pgo", "mode", str, "sliding", check=_one_of(PGO_MODES),
           note="mode: sliding (incremental window + final batch) or batch (single solve)"),
    Option("pgo", "init_from_eskf", on_off, "on", "seed batch solve from the ESKF trajectory"),
    Option("run", "estimator", str, "both", " | ".join(ESTIMATOR_CHOICES),
           check=_one_of(ESTIMATOR_CHOICES)),
    Option("run", "out_dir", str, "out"),
    Option("run", "seeds", integers, "0", check=NONEMPTY),
    Option("run", "max_gap_ms", number, "10.0", check=POSITIVE),
    Option("run", "workers", int, "1", check=POSITIVE),
    Option("sweep", "scenarios", words, "mmmagic_78ghz, indoor_28ghz, industrial_5ghz",
           check=_Check(lambda v: set(v) <= set(SCENARIO_CHOICES),
                        f"drawn from {SCENARIO_CHOICES}")),
    Option("sweep", "bs_counts", integers, "2, 3, 4, 5"),
    Option("sweep", "seeds", integers, "0, 1, 2, 3", check=NONEMPTY),
    Option("sweep", "estimators", words, "eskf, pgo",
           check=_Check(lambda v: v and set(v) <= {"eskf", "pgo"},
                        "a non-empty list drawn from ('eskf', 'pgo')")),
    Option("extrinsic", "enabled", on_off, "off"),
    Option("extrinsic", "translation", numbers, "0.0, 0.0, 0.0", check=XYZ),
    Option("extrinsic", "quaternion_wxyz", numbers, "1.0, 0.0, 0.0, 0.0",
           check=_Check(lambda v: len(v) == 4, "w, x, y, z")),
)
OPTION_BY_KEY = {(opt.section, opt.key): opt for opt in OPTIONS}

_SECTION_NOTES = {
    "imu_model": ("noise densities assumed by the estimators (and used to corrupt synthetic",
                  "IMU data when trajectory.imu_noise is on)"),
    "extrinsic": ("optional rigid transform applied to loaded ground truth (sensor-to-body)",),
}


def _defaults(section: str) -> dict:
    return {opt.name: opt.parse(opt.default) for opt in OPTIONS if opt.section == section}


def _section_type(name: str, section: str, namespace: Optional[dict] = None) -> type:
    """A dataclass with one field per option of section, defaulting to the
    parsed INI default. It belongs to this module, so it pickles."""
    fields = [(key, type(value), field(default=value))
              for key, value in _defaults(section).items()]
    return make_dataclass(name, fields, namespace={"__module__": __name__,
                                                   **(namespace or {})})


InputConfig = _section_type("InputConfig", "input")
TrajectoryConfig = _section_type("TrajectoryConfig", "trajectory")
StationConfig = _section_type("StationConfig", "stations", {"positions": property(
    lambda self: tuple(getattr(self, f"bs{k}") for k, _ in DEFAULT_STATIONS))})
NoiseConfig = _section_type("NoiseConfig", "noise")
EskfOptions = _section_type("EskfOptions", "eskf")
PgoOptions = _section_type("PgoOptions", "pgo")
RunConfig = _section_type("RunConfig", "run")
SweepConfig = _section_type("SweepConfig", "sweep")
ExtrinsicConfig = _section_type("ExtrinsicConfig", "extrinsic")


@dataclass
class ExperimentConfig:
    input: InputConfig = field(default_factory=InputConfig)
    trajectory: TrajectoryConfig = field(default_factory=TrajectoryConfig)
    stations: StationConfig = field(default_factory=StationConfig)
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    imu_model: ImuNoiseParams = field(
        default_factory=lambda: ImuNoiseParams(**_defaults("imu_model")))
    eskf: EskfOptions = field(default_factory=EskfOptions)
    pgo: PgoOptions = field(default_factory=PgoOptions)
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


def default_config_text() -> str:
    lines = ["# toafusion experiment configuration (all values shown are the defaults)"]
    section = None
    for opt in OPTIONS:
        if opt.section != section:
            section = opt.section
            lines += ["", f"[{section}]"]
            lines += [f"# {note}" for note in _SECTION_NOTES.get(section, ())]
        if opt.note:
            lines.append(f"# {opt.note}")
        lines.append(opt.template_line())
    return "\n".join(lines) + "\n"


def _check_across_options(cfg: ExperimentConfig) -> None:
    inp, st, nz, tr = cfg.input, cfg.stations, cfg.noise, cfg.trajectory
    if inp.source == "files" and (not inp.imu_path or not inp.groundtruth_path):
        raise ConfigError("[input] files mode requires imu and groundtruth paths")
    if tr.kind == "figure_eight" and tr.speed_mps == 0:
        raise ConfigError("[trajectory] speed_mps must be non-zero for figure_eight")
    if not 2 <= st.count <= len(st.positions):
        raise ConfigError(f"[stations] count must lie in 2..{len(st.positions)}")
    if nz.scenario == "custom" and (len(nz.custom_mean) < st.count
                                    or len(nz.custom_std) < st.count):
        raise ConfigError("[noise] custom scenario needs mean/std per station")
    for n in cfg.sweep.bs_counts:
        if not 2 <= n <= st.count:
            raise ConfigError(f"[sweep] bs_count {n} outside 2..{st.count}")


def parse_config_text(text: str) -> ExperimentConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"),
                                       interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc

    cfg = ExperimentConfig()
    for opt in OPTIONS:
        raw = parser.get(opt.section, opt.key, fallback=None)
        if raw is not None:
            setattr(getattr(cfg, opt.section), opt.name, opt.parse(raw))
    _check_across_options(cfg)
    return cfg


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text)
