"""The ToA range model of both estimators, and a parametric range simulator.

The model (`RangeModel`, `range_directions`): h(p) = |p - s| per station s.
The simulator generates per-base-station distance measurements from a
ground-truth trajectory. Each measurement is the true Euclidean distance
plus a per-station Gaussian bias/spread. The bundled presets carry
empirical range-error statistics for three 5G network configurations
(5 GHz industrial, 28 GHz indoor, 78 GHz mmWave indoor) across six indoor
MAV flight sequences; wider bandwidth means tighter ranging.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import geometry as geo
from .dataset import ToaArrays, Trajectory
from .errors import ConfigError, DegenerateGeometry, EmptyTrajectory, UnknownBsId

# Shortest range: simulated ones are clamped to it, and an estimate closer
# to a station has no range direction.
MIN_RANGE_M = 1e-6

# Default station layout (world frame, meters).
DEFAULT_STATIONS = (
    (1, (-10.0, -7.0, 2.0)),
    (2, (7.0, 13.0, 3.0)),
    (3, (25.0, -35.0, 4.0)),
    (4, (-6.0, 9.0, 5.0)),
    (5, (-4.0, -14.0, 6.0)),
)


@dataclass(frozen=True)
class BaseStation:
    id: int
    position: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "position", np.asarray(self.position, dtype=float))


def default_stations(count: int = 5) -> list[BaseStation]:
    if not 1 <= count <= len(DEFAULT_STATIONS):
        raise ConfigError(f"station count {count} outside 1..{len(DEFAULT_STATIONS)}")
    return [BaseStation(i, np.array(p)) for i, p in DEFAULT_STATIONS[:count]]


@dataclass(frozen=True)
class RangeModel:
    """The range model of both estimators: station k (id ids[k]) at
    positions[k], its ranges with sigma sigma[k]. `build` floors the stds
    once, which keeps R invertible; the estimators use sigma as it is."""

    ids: np.ndarray          # (K,)
    positions: np.ndarray    # (K, 3)
    sigma: np.ndarray        # (K,) [m]

    @classmethod
    def build(cls, stations: Sequence[BaseStation], std, floor: float) -> "RangeModel":
        """The model of stations with range std (per station), floored at floor."""
        return cls(np.array([bs.id for bs in stations], dtype=np.int64),
                   np.array([bs.position for bs in stations], dtype=float).reshape(-1, 3),
                   np.maximum(np.asarray(std, dtype=float), floor))

    def rows(self, bs_id: np.ndarray) -> np.ndarray:
        """Index into the model of each bs_id; UnknownBsId for an id not there."""
        match = np.asarray(bs_id, dtype=np.int64)[:, None] == self.ids[None, :]
        found = match.any(axis=1)
        if not found.all():
            missing = int(np.asarray(bs_id)[~found][0])
            raise UnknownBsId(f"bs_id {missing} has no configured station")
        return match.argmax(axis=1)


def range_directions(p: np.ndarray, sites: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Ranges h = |p - s| from positions p ((3,), or (m, 3) row by row) to
    sites s (m, 3), and their unit directions (p - s) / h (m, 3), the
    gradient of h by p. Raises DegenerateGeometry when a range is below
    MIN_RANGE_M."""
    diff = p - sites
    dist = geo.row_norms(diff)
    if (dist < MIN_RANGE_M).any():
        raise DegenerateGeometry(
            f"estimate coincides with station at {sites[dist < MIN_RANGE_M][0]}")
    return dist, diff / dist[:, None]


@dataclass(frozen=True)
class NoiseModel:
    """Per-station additive Gaussian range error: mean (bias) and std."""

    mean: np.ndarray
    std: np.ndarray
    seed: int = 0

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        std = np.atleast_1d(np.asarray(self.std, dtype=float))
        if mean.shape != std.shape:
            raise ConfigError("noise mean and std must have equal length")
        if np.any(std < 0.0):
            raise ConfigError("noise std must be non-negative")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "std", std)


# Range-error statistics (meters) per scenario and flight sequence,
# stations 1..5. Keyed by (scenario, sequence).
_PRESET_TABLE = {
    ("industrial_5ghz", "V101"): ((0.129, -0.045, 0.006, -0.081, -0.023),
                                  (0.568, 0.810, 0.763, 0.872, 0.718)),
    ("indoor_28ghz", "V101"): ((-0.024, -0.021, -0.059, 0.041, -0.060),
                               (0.344, 0.368, 0.352, 0.394, 0.369)),
    ("mmmagic_78ghz", "V101"): ((0.002, 0.010, -0.008, 0.003, -0.010),
                                (0.185, 0.171, 0.173, 0.159, 0.176)),
    ("industrial_5ghz", "V102"): ((0.160, -0.033, -0.135, -0.129, -0.156),
                                  (0.645, 0.874, 0.722, 0.739, 0.677)),
    ("indoor_28ghz", "V102"): ((-0.104, 0.104, 0.106, -0.122, -0.052),
                               (0.358, 0.390, 0.404, 0.367, 0.322)),
    ("mmmagic_78ghz", "V102"): ((0.037, -0.011, -0.018, 0.016, -0.046),
                                (0.174, 0.153, 0.154, 0.160, 0.193)),
    ("industrial_5ghz", "V103"): ((0.043, -0.065, 1.232, -0.066, -0.387),
                                  (0.775, 0.784, 1.628, 0.772, 1.275)),
    ("indoor_28ghz", "V103"): ((-0.042, 0.053, 0.008, -0.033, -0.022),
                               (0.353, 0.382, 0.387, 0.360, 0.369)),
    ("mmmagic_78ghz", "V103"): ((0.001, -0.011, 0.012, 0.000, -0.013),
                                (0.176, 0.166, 0.170, 0.180, 0.183)),
    ("industrial_5ghz", "V201"): ((0.059, 0.108, -0.182, -0.154, -0.270),
                                  (0.751, 0.897, 0.592, 0.986, 0.790)),
    ("indoor_28ghz", "V201"): ((0.025, -0.070, -0.045, 0.054, 0.120),
                               (0.364, 0.379, 0.392, 0.302, 0.367)),
    ("mmmagic_78ghz", "V201"): ((-0.012, 0.026, 0.015, -0.019, 0.015),
                                (0.164, 0.177, 0.163, 0.180, 0.192)),
    ("industrial_5ghz", "V202"): ((0.027, 0.141, 0.072, 0.082, -0.204),
                                  (0.716, 0.674, 0.908, 0.933, 0.631)),
    ("indoor_28ghz", "V202"): ((0.052, -0.053, -0.039, 0.012, 0.043),
                               (0.391, 0.348, 0.427, 0.359, 0.351)),
    ("mmmagic_78ghz", "V202"): ((-0.007, 0.007, -0.018, 0.013, 0.011),
                                (0.178, 0.168, 0.170, 0.190, 0.192)),
    ("industrial_5ghz", "V203"): ((0.067, -0.017, 0.273, -0.130, -0.045),
                                  (0.754, 0.730, 1.343, 0.724, 0.684)),
    ("indoor_28ghz", "V203"): ((0.009, -0.022, -0.046, 0.043, 0.020),
                               (0.376, 0.351, 0.317, 0.370, 0.358)),
    ("mmmagic_78ghz", "V203"): ((0.018, 0.017, 0.002, 0.004, -0.009),
                                (0.170, 0.181, 0.174, 0.178, 0.174)),
}

SCENARIO_NAMES = ("industrial_5ghz", "indoor_28ghz", "mmmagic_78ghz")
SEQUENCE_NAMES = ("V101", "V102", "V103", "V201", "V202", "V203")


@dataclass(frozen=True)
class ScenarioPreset:
    name: str
    sequence: str
    mean: tuple
    std: tuple

    def noise_model(self, seed: int = 0, count: int = 5) -> NoiseModel:
        return NoiseModel(np.array(self.mean[:count]), np.array(self.std[:count]), seed)


def scenario_preset(name: str, sequence: str = "V101") -> ScenarioPreset:
    key = (name, sequence)
    if key not in _PRESET_TABLE:
        raise ConfigError(
            f"unknown scenario preset {name!r}/{sequence!r}; "
            f"scenarios: {SCENARIO_NAMES}, sequences: {SEQUENCE_NAMES}"
        )
    mean, std = _PRESET_TABLE[key]
    return ScenarioPreset(name, sequence, mean, std)


def noiseless_model(count: int = 5, seed: int = 0) -> NoiseModel:
    return NoiseModel(np.zeros(count), np.zeros(count), seed)


def true_distance(position: np.ndarray, station: BaseStation) -> float:
    """Euclidean distance from a position to a base station."""
    return float(np.linalg.norm(np.asarray(position, dtype=float) - station.position))


@dataclass
class ToaSimulation:
    """Simulated ranges plus clamp diagnostics."""

    ranges: ToaArrays
    clamped_count: int = 0

    def __len__(self):
        return len(self.ranges)


def simulate(groundtruth: Trajectory, stations: Sequence[BaseStation],
             model: NoiseModel, rate_hz: float = 5.0) -> ToaSimulation:
    """Emit one noisy range per station at a fixed tick rate.

    Ticks start at the first ground-truth timestamp with period
    round(1e9 / rate_hz) ns and run while they stay inside the trajectory.
    Positions are linearly interpolated between ground-truth samples. The
    draw sequence is fixed (tick-major, station-minor), so output is
    deterministic for a given seed. Samples that would come out
    non-positive are clamped to a small positive floor and counted.
    """
    if len(groundtruth) == 0:
        raise EmptyTrajectory("ground-truth trajectory is empty")
    if rate_hz <= 0.0:
        raise ConfigError(f"rate_hz must be positive, got {rate_hz}")
    if len(model.mean) < len(stations):
        raise ConfigError(
            f"noise model covers {len(model.mean)} stations, need {len(stations)}"
        )

    gt_t, gt_p = groundtruth.t, groundtruth.position
    period = int(round(1e9 / rate_hz))
    ticks = np.arange(gt_t[0], gt_t[-1] + 1, period, dtype=np.int64)

    # Per-axis linear interpolation at tick times.
    rel = (ticks - gt_t[0]).astype(float)
    base = (gt_t - gt_t[0]).astype(float)
    pos = np.column_stack([np.interp(rel, base, gt_p[:, k]) for k in range(3)])

    rng = np.random.default_rng(model.seed)
    k = len(stations)
    noise = rng.standard_normal((len(ticks), k))

    # (tick, station) rows in draw order.
    sites = np.array([bs.position for bs in stations], dtype=float).reshape(-1, 3)
    dist = geo.row_norms((pos[:, None, :] - sites[None]).reshape(-1, 3))
    d = dist.reshape(-1, k) + (model.mean[:k] + model.std[:k] * noise)
    clamped = d < MIN_RANGE_M
    d[clamped] = MIN_RANGE_M
    ids = np.array([bs.id for bs in stations], dtype=np.int64)
    return ToaSimulation(ToaArrays(np.repeat(ticks, k), np.tile(ids, len(ticks)),
                                   d.ravel()), int(clamped.sum()))
