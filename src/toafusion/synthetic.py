"""Analytic test trajectories with exactly consistent IMU data.

Each trajectory kind defines closed-form position, velocity, acceleration,
and yaw; the emitted IMU samples are the exact body-frame angular rate and
specific force of that path, optionally corrupted by white noise and bias
random walks. Attitude is yaw-only (Rz), which keeps every quantity exact.

The circle runs with the nose tangent to the path, which makes the
body-frame readings constant in time, so zero-order-hold integration of
the samples reproduces the path to integrator precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dataset import ImuArrays, Trajectory
from .errors import ConfigError, EmptyTrajectory
from .eskf import GRAVITY, ImuNoiseParams, NavState

TRAJECTORY_KINDS = ("circle", "figure_eight", "hover_then_dash")


@dataclass
class SyntheticTrajectorySpec:
    kind: str = "circle"
    duration_s: float = 60.0
    speed_mps: float = 1.0
    imu_rate_hz: float = 200.0
    gt_rate_hz: float = 100.0
    radius_m: float = 2.0          # circle only
    z0_m: float = 1.0
    seed: int = 0
    imu_noise: Optional[ImuNoiseParams] = None   # None: noiseless samples
    gyro_bias: np.ndarray = None                 # constant true bias offsets
    accel_bias: np.ndarray = None

    def __post_init__(self):
        if self.kind not in TRAJECTORY_KINDS:
            raise ConfigError(f"unknown trajectory kind {self.kind!r}")
        if self.duration_s <= 0 or self.imu_rate_hz <= 0 or self.gt_rate_hz <= 0:
            raise ConfigError("duration and rates must be positive")
        if self.gyro_bias is None:
            self.gyro_bias = np.zeros(3)
        if self.accel_bias is None:
            self.accel_bias = np.zeros(3)


def _circle(spec: SyntheticTrajectorySpec, t: np.ndarray):
    r = spec.radius_m
    s = spec.speed_mps
    w = s / r
    c, sn = np.cos(w * t), np.sin(w * t)
    pos = np.column_stack([r * c, r * sn, np.full_like(t, spec.z0_m)])
    vel = np.column_stack([-s * sn, s * c, np.zeros_like(t)])
    acc = np.column_stack([-s * w * c, -s * w * sn, np.zeros_like(t)])
    yaw = w * t + 0.5 * np.pi
    yaw_rate = np.full_like(t, w)
    return pos, vel, acc, yaw, yaw_rate


def _figure_eight(spec: SyntheticTrajectorySpec, t: np.ndarray):
    ax, ay, az = 3.0, 1.5, 0.3
    scale = np.sqrt((ax ** 2 + 4.0 * ay ** 2 + az ** 2) / 2.0)
    w = spec.speed_mps / scale
    pos = np.column_stack([
        ax * np.sin(w * t),
        ay * np.sin(2.0 * w * t),
        spec.z0_m + az * np.sin(w * t),
    ])
    vel = np.column_stack([
        ax * w * np.cos(w * t),
        2.0 * ay * w * np.cos(2.0 * w * t),
        az * w * np.cos(w * t),
    ])
    acc = np.column_stack([
        -ax * w * w * np.sin(w * t),
        -4.0 * ay * w * w * np.sin(2.0 * w * t),
        -az * w * w * np.sin(w * t),
    ])
    yaw = np.arctan2(vel[:, 1], vel[:, 0])
    planar_sq = vel[:, 0] ** 2 + vel[:, 1] ** 2
    yaw_rate = (vel[:, 0] * acc[:, 1] - vel[:, 1] * acc[:, 0]) / planar_sq
    return pos, vel, acc, yaw, yaw_rate


def _hover_then_dash(spec: SyntheticTrajectorySpec, t: np.ndarray):
    # Phases on whole seconds: hover, constant accel, constant decel, hover.
    total = spec.duration_s
    t1 = max(1.0, np.floor(total / 3.0))
    ramp = max(1.0, np.floor(total / 6.0))
    t2 = t1 + ramp
    t3 = t2 + ramp
    a_mag = spec.speed_mps / ramp

    pos = np.zeros((len(t), 3))
    vel = np.zeros((len(t), 3))
    acc = np.zeros((len(t), 3))
    pos[:, 2] = spec.z0_m

    seg1 = (t >= t1) & (t < t2)
    dt1 = t[seg1] - t1
    acc[seg1, 0] = a_mag
    vel[seg1, 0] = a_mag * dt1
    pos[seg1, 0] = 0.5 * a_mag * dt1 ** 2

    x2 = 0.5 * a_mag * ramp ** 2
    v2 = a_mag * ramp
    seg2 = (t >= t2) & (t < t3)
    dt2 = t[seg2] - t2
    acc[seg2, 0] = -a_mag
    vel[seg2, 0] = v2 - a_mag * dt2
    pos[seg2, 0] = x2 + v2 * dt2 - 0.5 * a_mag * dt2 ** 2

    seg3 = t >= t3
    pos[seg3, 0] = x2 + v2 * ramp - 0.5 * a_mag * ramp ** 2

    yaw = np.zeros_like(t)
    yaw_rate = np.zeros_like(t)
    return pos, vel, acc, yaw, yaw_rate


_GENERATORS = {
    "circle": _circle,
    "figure_eight": _figure_eight,
    "hover_then_dash": _hover_then_dash,
}


def _body_rates(acc: np.ndarray, yaw: np.ndarray, yaw_rate: np.ndarray,
                gravity: np.ndarray):
    """Exact specific force and angular rate in the yaw-only body frame."""
    f_world = acc - gravity
    c, s = np.cos(yaw), np.sin(yaw)
    f_body = np.column_stack([
        c * f_world[:, 0] + s * f_world[:, 1],
        -s * f_world[:, 0] + c * f_world[:, 1],
        f_world[:, 2],
    ])
    omega_body = np.column_stack([np.zeros_like(yaw), np.zeros_like(yaw), yaw_rate])
    return omega_body, f_body


def _yaw_quat(yaw: np.ndarray) -> np.ndarray:
    """Scalar-last quaternions for rotations about z."""
    half = 0.5 * yaw
    return np.column_stack([np.zeros_like(yaw), np.zeros_like(yaw),
                            np.sin(half), np.cos(half)])


@np.errstate(all="ignore")    # non-finite samples are checked below
def generate_synthetic_trajectory(spec: SyntheticTrajectorySpec,
                                  gravity: np.ndarray = GRAVITY
                                  ) -> tuple[ImuArrays, Trajectory]:
    """Emit IMU samples and ground truth (with the true biases) for an
    analytic path; ConfigError if an IMU sample is not finite."""
    gen = _GENERATORS[spec.kind]

    imu_period = int(round(1e9 / spec.imu_rate_hz))
    gt_period = int(round(1e9 / spec.gt_rate_hz))
    end_ns = int(round(spec.duration_s * 1e9))
    imu_t = np.arange(0, end_ns + 1, imu_period, dtype=np.int64)
    gt_t = np.arange(0, end_ns + 1, gt_period, dtype=np.int64)

    t_imu = imu_t * 1e-9
    pos_i, vel_i, acc_i, yaw_i, yaw_rate_i = gen(spec, t_imu)
    omega, f_body = _body_rates(acc_i, yaw_i, yaw_rate_i, gravity)

    n = len(imu_t)
    bias_g = np.repeat(spec.gyro_bias[None], n, axis=0).astype(float)
    bias_a = np.repeat(spec.accel_bias[None], n, axis=0).astype(float)
    if spec.imu_noise is not None:
        rng = np.random.default_rng(spec.seed)
        noise = spec.imu_noise
        rate = spec.imu_rate_hz
        dt = 1.0 / rate
        omega = omega + noise.sigma_g * np.sqrt(rate) * rng.standard_normal((n, 3))
        f_body = f_body + noise.sigma_a * np.sqrt(rate) * rng.standard_normal((n, 3))
        walk_g = np.cumsum(noise.sigma_wg * np.sqrt(dt)
                           * rng.standard_normal((n, 3)), axis=0)
        walk_a = np.cumsum(noise.sigma_wa * np.sqrt(dt)
                           * rng.standard_normal((n, 3)), axis=0)
        bias_g += walk_g
        bias_a += walk_a
    measured_omega = omega + bias_g
    measured_accel = f_body + bias_a
    if not (np.isfinite(measured_omega).all() and np.isfinite(measured_accel).all()):
        raise ConfigError(f"{spec.kind} at speed_mps={spec.speed_mps!r} gives "
                          "non-finite IMU samples")

    t_gt = gt_t * 1e-9
    pos_g, vel_g, _, yaw_g, _ = gen(spec, t_gt)
    gt_bias_idx = np.minimum((gt_t // imu_period).astype(int), n - 1)
    gt = Trajectory(gt_t, pos_g, _yaw_quat(yaw_g), vel_g,
                    bias_gyro=bias_g[gt_bias_idx], bias_accel=bias_a[gt_bias_idx])
    return ImuArrays(imu_t, measured_omega, measured_accel), gt


def initial_state_from_groundtruth(gt: Trajectory) -> NavState:
    """Filter/graph starting point: first reference pose, zero biases."""
    if len(gt) == 0:
        raise EmptyTrajectory("ground-truth trajectory is empty")
    vel = gt.velocity[0] if gt.velocity is not None else np.zeros(3)
    return NavState(gt.orientation[0].copy(), np.zeros(3), vel.copy(),
                    np.zeros(3), gt.position[0].copy())
