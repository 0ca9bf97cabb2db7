"""Error-state Kalman filter fusing IMU propagation with ToA range updates.

The nominal state (quaternion, gyro bias, velocity, accel bias, position)
is integrated from IMU readings with RK4; uncertainty is tracked over the
15-dimensional error state

    [dtheta, db_g, dv, db_a, dp]

where ``dtheta`` is a body-frame attitude increment: the true attitude is
``q = q_nom (x) quat_from_small_angle(dtheta)``. Range updates inject the
estimated error into the nominal state and reset it to zero.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import geometry as geo
from .dataset import ImuSample, ToaMeasurement, Trajectory
from .errors import (DegenerateGeometry, InvalidDt, SingularInnovation,
                     UnknownBsId)
from .toa_sim import BaseStation

# Error-state slices.
SL_TH = slice(0, 3)
SL_BG = slice(3, 6)
SL_V = slice(6, 9)
SL_BA = slice(9, 12)
SL_P = slice(12, 15)

GRAVITY = np.array([0.0, 0.0, -9.81])
MAX_DT_S = 0.1
MIN_RANGE_M = 1e-6


@dataclass
class NavState:
    """Nominal navigation state."""

    q: np.ndarray       # scalar-last unit quaternion, body to world
    b_g: np.ndarray     # gyro bias [rad/s]
    v: np.ndarray       # velocity, world frame [m/s]
    b_a: np.ndarray     # accel bias [m/s^2]
    p: np.ndarray       # position, world frame [m]

    def copy(self) -> "NavState":
        return NavState(self.q.copy(), self.b_g.copy(), self.v.copy(),
                        self.b_a.copy(), self.p.copy())

    @staticmethod
    def identity() -> "NavState":
        return NavState(geo.quat_identity(), np.zeros(3), np.zeros(3),
                        np.zeros(3), np.zeros(3))


@dataclass
class ImuNoiseParams:
    """Continuous-time IMU noise densities.

    sigma_g / sigma_a are white-noise densities (rad/s/sqrt(Hz),
    m/s^2/sqrt(Hz)); sigma_wg / sigma_wa are bias random-walk densities.
    """

    sigma_g: float = 1.7e-4
    sigma_a: float = 2.0e-3
    sigma_wg: float = 1.9e-5
    sigma_wa: float = 3.0e-3

    def q_matrix(self) -> np.ndarray:
        """12x12 process-noise PSD, ordered (eta_g, eta_wg, eta_a, eta_wa)."""
        d = ([self.sigma_g ** 2] * 3 + [self.sigma_wg ** 2] * 3 +
             [self.sigma_a ** 2] * 3 + [self.sigma_wa ** 2] * 3)
        return np.diag(d)


def default_initial_covariance() -> np.ndarray:
    d = ([0.01 ** 2] * 3    # attitude [rad]
         + [0.01 ** 2] * 3  # gyro bias
         + [0.1 ** 2] * 3   # velocity
         + [0.01 ** 2] * 3  # accel bias
         + [0.1 ** 2] * 3)  # position
    return np.diag(d)


def _omega_matrix(w: np.ndarray) -> np.ndarray:
    """Quaternion-rate matrix: q_dot = 0.5 * Omega(w) @ q (scalar-last)."""
    o = np.zeros((4, 4))
    o[:3, :3] = -geo.skew(w)
    o[:3, 3] = w
    o[3, :3] = -w
    return o


def propagate_nominal(state: NavState, imu: ImuSample, dt: float,
                      gravity: np.ndarray = GRAVITY) -> NavState:
    """RK4 integration of the nominal kinematics over one IMU interval.

    Body rates and specific force are held constant across the step;
    biases are constant. The quaternion is renormalized afterwards.
    """
    if not 0.0 < dt <= MAX_DT_S:
        raise InvalidDt(f"dt={dt} outside (0, {MAX_DT_S}]")
    w_hat = imu.omega - state.b_g
    a_hat = imu.accel - state.b_a
    omega = _omega_matrix(w_hat)

    def deriv(y: np.ndarray) -> np.ndarray:
        q, v = y[0:4], y[4:7]
        dq = 0.5 * (omega @ q)
        dv = geo.quat_to_rot(q) @ a_hat + gravity
        dp = v
        return np.concatenate([dq, dv, dp])

    y = np.concatenate([state.q, state.v, state.p])
    k1 = deriv(y)
    k2 = deriv(y + 0.5 * dt * k1)
    k3 = deriv(y + 0.5 * dt * k2)
    k4 = deriv(y + dt * k3)
    y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    return NavState(geo.quat_normalize(y[0:4]), state.b_g.copy(), y[4:7],
                    state.b_a.copy(), y[7:10])


def error_jacobians(state: NavState, imu: ImuSample) -> tuple[np.ndarray, np.ndarray]:
    """Continuous-time error dynamics matrices F (15x15) and G (15x12)."""
    w_hat = imu.omega - state.b_g
    a_hat = imu.accel - state.b_a
    r_wb = geo.quat_to_rot(state.q)

    f = np.zeros((15, 15))
    f[SL_TH, SL_TH] = -geo.skew(w_hat)
    f[SL_TH, SL_BG] = -np.eye(3)
    f[SL_V, SL_TH] = -r_wb @ geo.skew(a_hat)
    f[SL_V, SL_BA] = -r_wb
    f[SL_P, SL_V] = np.eye(3)

    g = np.zeros((15, 12))
    g[SL_TH, 0:3] = -np.eye(3)
    g[SL_BG, 3:6] = np.eye(3)
    g[SL_V, 6:9] = -r_wb
    g[SL_BA, 9:12] = np.eye(3)
    return f, g


def propagate_covariance(p_cov: np.ndarray, f: np.ndarray, g: np.ndarray,
                         q_imu: np.ndarray, dt: float) -> np.ndarray:
    """RK4 step of P_dot = F P + P F^T + G Q G^T with F, G held constant."""
    gqg = g @ q_imu @ g.T

    def deriv(p):
        return f @ p + p @ f.T + gqg

    k1 = deriv(p_cov)
    k2 = deriv(p_cov + 0.5 * dt * k1)
    k3 = deriv(p_cov + 0.5 * dt * k2)
    k4 = deriv(p_cov + dt * k3)
    out = p_cov + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return 0.5 * (out + out.T)


def predicted_ranges(state: NavState, stations: Sequence[BaseStation]) -> np.ndarray:
    """Measurement function h: distances from the estimate to each station."""
    return np.array([np.linalg.norm(state.p - bs.position) for bs in stations])


def measurement_jacobian(state: NavState, stations: Sequence[BaseStation]) -> np.ndarray:
    """K x 15 range Jacobian; only the position block is non-zero."""
    h = np.zeros((len(stations), 15))
    for k, bs in enumerate(stations):
        diff = state.p - bs.position
        dist = np.linalg.norm(diff)
        if dist < MIN_RANGE_M:
            raise DegenerateGeometry(f"estimate coincides with station {bs.id}")
        h[k, SL_P] = diff / dist
    return h


def inject_error(state: NavState, delta: np.ndarray) -> NavState:
    """Fold an error-state estimate into the nominal state."""
    q = geo.quat_mul(state.q, geo.quat_from_small_angle(delta[SL_TH]))
    return NavState(q, state.b_g + delta[SL_BG], state.v + delta[SL_V],
                    state.b_a + delta[SL_BA], state.p + delta[SL_P])


def update(state: NavState, p_cov: np.ndarray, meas: Sequence[ToaMeasurement],
           stations: Sequence[BaseStation],
           r_cov: np.ndarray) -> tuple[NavState, np.ndarray]:
    """Joint vector update with all ranges of one tick.

    meas may cover a subset of the stations; r_cov must be sized to the
    measurements provided, in the same order.
    """
    by_id = {bs.id: bs for bs in stations}
    used = [by_id[m.bs_id] for m in meas]
    d_meas = np.array([m.distance for m in meas])

    h = measurement_jacobian(state, used)
    residual = d_meas - predicted_ranges(state, used)

    s = h @ p_cov @ h.T + r_cov
    try:
        gain = np.linalg.solve(s, h @ p_cov).T      # P H^T S^-1
    except np.linalg.LinAlgError as exc:
        raise SingularInnovation(str(exc)) from exc
    if not np.all(np.isfinite(gain)):
        raise SingularInnovation("non-finite Kalman gain")

    delta = gain @ residual
    new_state = inject_error(state, delta)
    new_cov = (np.eye(15) - gain @ h) @ p_cov
    return new_state, 0.5 * (new_cov + new_cov.T)


@dataclass
class FilterConfig:
    initial_state: NavState
    stations: Sequence[BaseStation]
    meas_std: np.ndarray                     # per station, in station order
    noise: ImuNoiseParams = field(default_factory=ImuNoiseParams)
    initial_cov: Optional[np.ndarray] = None
    gravity: np.ndarray = field(default_factory=lambda: GRAVITY.copy())
    sigma_floor: float = 1e-3                # keeps R invertible when std = 0
    emit_at_imu_rate: bool = False


@dataclass
class FilterEstimate:
    t: int
    state: NavState
    cov_diag: np.ndarray


@dataclass
class FilterRun:
    estimates: list[FilterEstimate]
    predict_times_ms: np.ndarray
    update_times_ms: np.ndarray
    final_state: NavState
    final_cov: np.ndarray

    def to_trajectory(self) -> Trajectory:
        t = np.array([e.t for e in self.estimates], dtype=np.int64)
        pos = np.array([e.state.p for e in self.estimates]).reshape(-1, 3)
        quat = np.array([e.state.q for e in self.estimates]).reshape(-1, 4)
        vel = np.array([e.state.v for e in self.estimates]).reshape(-1, 3)
        cov = np.array([e.cov_diag for e in self.estimates]).reshape(-1, 15)
        return Trajectory(t, pos, quat, vel, cov)


def _group_by_time(toa: Sequence[ToaMeasurement]) -> list[tuple[int, list[ToaMeasurement]]]:
    groups: list[tuple[int, list[ToaMeasurement]]] = []
    for m in toa:
        if groups and groups[-1][0] == m.t:
            groups[-1][1].append(m)
        else:
            groups.append((m.t, [m]))
    return groups


def run_filter(imu: Sequence[ImuSample], toa: Sequence[ToaMeasurement],
               config: FilterConfig) -> FilterRun:
    """Predict on every IMU sample, update on every ToA tick.

    A tick's measurements are applied jointly once the filter time reaches
    the tick timestamp. Estimates are recorded at every update (or at every
    IMU sample with emit_at_imu_rate).
    """
    state = config.initial_state.copy()
    p_cov = (config.initial_cov.copy() if config.initial_cov is not None
             else default_initial_covariance())
    q_imu = config.noise.q_matrix()
    std = np.maximum(np.asarray(config.meas_std, dtype=float), config.sigma_floor)
    sigma_by_id = {bs.id: std[k] for k, bs in enumerate(config.stations)}
    unknown = {m.bs_id for m in toa}.difference(sigma_by_id)
    if unknown:
        raise UnknownBsId(f"bs_id {min(unknown)} has no configured station")

    groups = _group_by_time(toa)
    next_group = 0

    estimates: list[FilterEstimate] = []
    predict_times: list[float] = []
    update_times: list[float] = []

    for i in range(1, len(imu)):
        dt = (imu[i].t - imu[i - 1].t) * 1e-9
        tic = time.perf_counter()
        state = propagate_nominal(state, imu[i - 1], dt, config.gravity)
        f, g = error_jacobians(state, imu[i - 1])
        p_cov = propagate_covariance(p_cov, f, g, q_imu, dt)
        predict_times.append((time.perf_counter() - tic) * 1e3)

        now = imu[i].t
        while next_group < len(groups) and groups[next_group][0] <= now:
            _, meas = groups[next_group]
            r_cov = np.diag([sigma_by_id[m.bs_id] ** 2 for m in meas])
            tic = time.perf_counter()
            state, p_cov = update(state, p_cov, meas, config.stations, r_cov)
            update_times.append((time.perf_counter() - tic) * 1e3)
            estimates.append(FilterEstimate(now, state.copy(), np.diag(p_cov).copy()))
            next_group += 1

        if config.emit_at_imu_rate:
            estimates.append(FilterEstimate(now, state.copy(), np.diag(p_cov).copy()))

    return FilterRun(estimates, np.array(predict_times), np.array(update_times),
                     state, p_cov)
