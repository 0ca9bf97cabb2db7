"""Error-state Kalman filter fusing IMU propagation with ToA range updates.

The nominal state (quaternion, gyro bias, velocity, accel bias, position)
is integrated from IMU readings with RK4; uncertainty is tracked over the
15-dimensional error state

    [dtheta, db_g, dv, db_a, dp]

where ``dtheta`` is a body-frame attitude increment: the true attitude is
``q = q_nom (x) quat_from_small_angle(dtheta)``. Range updates inject the
estimated error into the nominal state and reset it to zero.

Prediction runs in segments: the IMU samples from one ToA tick to the
next. Within a segment the biases are fixed and no covariance is read, so

* the nominal state is stepped once per sample by ``propagate_nominal``,
  an RK4 step on Python floats (four stages, quaternion rate
  ``0.5 Omega(w) q``, the rotation of the unnormalized stage quaternion,
  one renormalization at the end);
* ``error_jacobians`` builds F and G for every sample of the segment at
  once, and ``propagate_covariance`` chains ``P <- Phi P Phi^T + D`` over
  the segment, with ``Phi = I + X + X^2/2 + X^3/6 + X^4/24``,
  ``X = dt F`` and ``D`` the RK4 step of ``P_dot = F P + P F^T + G Q G^T``
  from ``P = 0``.

The RK4 step is affine in P: ``RK4(P) = H(P) + RK4(0)`` with
``H(P) = sum_{j+l<=4} X^j P (X^T)^l / (j! l!)``. ``Phi P Phi^T`` holds the
same terms plus those with ``j + l >= 5``, so the segment form differs
from a per-sample RK4 step only in terms of order X^5 (about 1e-10
relative in ``cov_diag`` on the default 200 Hz figure-eight).
"""

from __future__ import annotations

import math
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
# Longest prediction segment; bounds the (n, 15, 15) stacks when ToA ticks
# are sparse. Splitting a segment changes the result only by rounding.
MAX_SEGMENT = 256


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


def _rates(q: list, dq: tuple, h: float, w: tuple, a: tuple,
           g: tuple) -> tuple:
    """Quaternion and velocity rates at the RK4 stage quaternion q + h dq.

    The quaternion rate is 0.5 * Omega(w) q (scalar-last); the velocity
    rate is quat_to_rot(q) a + g with the stage quaternion as given,
    unnormalized. Python floats throughout.
    """
    x, y = q[0] + h * dq[0], q[1] + h * dq[1]
    z, s = q[2] + h * dq[2], q[3] + h * dq[3]
    wx, wy, wz = w
    ax, ay, az = a
    c = 2.0 / (x * x + y * y + z * z + s * s)
    xx, yy, zz = x * x * c, y * y * c, z * z * c
    xy, xz, yz = x * y * c, x * z * c, y * z * c
    sx, sy, sz = s * x * c, s * y * c, s * z * c
    return (0.5 * (wz * y - wy * z + wx * s),
            0.5 * (wx * z - wz * x + wy * s),
            0.5 * (wy * x - wx * y + wz * s),
            -0.5 * (wx * x + wy * y + wz * z),
            (1.0 - (yy + zz)) * ax + (xy - sz) * ay + (xz + sy) * az + g[0],
            (xy + sz) * ax + (1.0 - (xx + zz)) * ay + (yz - sx) * az + g[1],
            (xz - sy) * ax + (yz + sx) * ay + (1.0 - (xx + yy)) * az + g[2])


def propagate_nominal(state: NavState, imu: ImuSample, dt: float,
                      gravity: np.ndarray = GRAVITY) -> NavState:
    """RK4 integration of the nominal kinematics over one IMU interval.

    Body rates and specific force are held constant across the step;
    biases are constant. The quaternion is renormalized afterwards. The
    arithmetic runs on Python floats: numpy call overhead on 4-vectors
    would cost more than the step itself.
    """
    if not 0.0 < dt <= MAX_DT_S:
        raise InvalidDt(f"dt={dt} outside (0, {MAX_DT_S}]")
    om, acc = imu.omega.tolist(), imu.accel.tolist()
    bg, ba = state.b_g.tolist(), state.b_a.tolist()
    w = (om[0] - bg[0], om[1] - bg[1], om[2] - bg[2])
    a = (acc[0] - ba[0], acc[1] - ba[1], acc[2] - ba[2])
    g = gravity.tolist()
    q, v, p = state.q.tolist(), state.v.tolist(), state.p.tolist()

    # Stages k1..k4 of (q, v); the position rate of a stage is its velocity.
    half = 0.5 * dt
    k1 = _rates(q, (0.0, 0.0, 0.0, 0.0), 0.0, w, a, g)
    k2 = _rates(q, k1, half, w, a, g)
    k3 = _rates(q, k2, half, w, a, g)
    k4 = _rates(q, k3, dt, w, a, g)
    sixth = dt / 6.0
    qv = [y + sixth * (c1 + 2.0 * c2 + 2.0 * c3 + c4)
          for y, c1, c2, c3, c4 in zip(q + v, k1, k2, k3, k4)]
    p = [pi + sixth * (vi + 2.0 * (vi + half * c1) + 2.0 * (vi + half * c2)
                       + (vi + dt * c3))
         for pi, vi, c1, c2, c3 in zip(p, v, k1[4:], k2[4:], k3[4:])]

    norm = math.sqrt(qv[0] * qv[0] + qv[1] * qv[1] + qv[2] * qv[2] + qv[3] * qv[3])
    y = np.array([qv[0] / norm, qv[1] / norm, qv[2] / norm, qv[3] / norm,
                  qv[4], qv[5], qv[6], p[0], p[1], p[2]])
    return NavState(y[0:4], state.b_g.copy(), y[4:7], state.b_a.copy(), y[7:10])


def error_jacobians(q: np.ndarray, w_hat: np.ndarray,
                    a_hat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Continuous-time error dynamics F (n, 15, 15) and G (n, 15, 12).

    q (n, 4) are the nominal attitudes; w_hat and a_hat (n, 3) are the
    bias-corrected body rates and specific forces.
    """
    n = q.shape[0]
    r_wb = geo.quat_to_rot_batch(q)
    eye = np.eye(3)

    f = np.zeros((n, 15, 15))
    f[:, SL_TH, SL_TH] = -geo.skew_batch(w_hat)
    f[:, SL_TH, SL_BG] = -eye
    f[:, SL_V, SL_TH] = -r_wb @ geo.skew_batch(a_hat)
    f[:, SL_V, SL_BA] = -r_wb
    f[:, SL_P, SL_V] = eye

    g = np.zeros((n, 15, 12))
    g[:, SL_TH, 0:3] = -eye
    g[:, SL_BG, 3:6] = eye
    g[:, SL_V, 6:9] = -r_wb
    g[:, SL_BA, 9:12] = eye
    return f, g


def propagate_covariance(p_cov: np.ndarray, f: np.ndarray, g: np.ndarray,
                         q_imu: np.ndarray, dt: np.ndarray) -> np.ndarray:
    """Covariance after each of n steps of P_dot = F P + P F^T + G Q G^T.

    f (n, 15, 15), g (n, 15, 12) and dt (n,) hold step k's matrices and
    length; F and G are constant over a step. Step k maps P to
    Phi_k P Phi_k^T + D_k, where Phi_k is the fourth-order Taylor series
    of exp(dt_k F_k) and D_k is the RK4 step from P = 0. Returns the
    (n, 15, 15) covariances after every step.
    """
    n = f.shape[0]
    h = np.asarray(dt, dtype=float).reshape(n, 1, 1)
    x = h * f
    gqg = (g @ q_imu) @ np.ascontiguousarray(g.transpose(0, 2, 1))

    def lie(p):
        xp = x @ p
        return xp + xp.transpose(0, 2, 1)

    # With L(P) = X P + P X^T, the RK4 step from 0 is
    # dt (Qc + L Qc / 2 + L^2 Qc / 6 + L^3 Qc / 24); Phi is
    # I + X + X^2 / 2 + X^3 / 6 + X^4 / 24. Both in Horner form.
    d = gqg + lie(gqg) / 4.0
    d = gqg + lie(d) / 3.0
    d = h * (gqg + lie(d) / 2.0)
    eye = np.eye(15)
    phi = eye + x / 4.0
    phi = eye + (x @ phi) / 3.0
    phi = eye + (x @ phi) / 2.0
    phi = eye + x @ phi

    out = np.empty_like(d)
    p = p_cov
    for phi_k, phi_kt, d_k, out_k in zip(phi, phi.transpose(0, 2, 1), d, out):
        np.dot(phi_k.dot(p), phi_kt, out=out_k)
        out_k += d_k
        p = out_k
    return 0.5 * (out + out.transpose(0, 2, 1))


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

    Prediction runs in segments: the samples up to and including the one
    at which the next tick is due (or the last sample), at most MAX_SEGMENT
    long. The nominal state is stepped once per sample; the covariance of
    the whole segment is propagated with one error_jacobians and one
    propagate_covariance call. Each predict_times_ms entry is its sample's
    nominal step time plus an equal share of the segment's covariance time.
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

    i = 1
    while i < len(imu):
        tick = groups[next_group][0] if next_group < len(groups) else None
        first = i
        states: list[NavState] = []
        dts: list[float] = []
        nominal_ms: list[float] = []
        while True:
            dt = (imu[i].t - imu[i - 1].t) * 1e-9
            tic = time.perf_counter()
            state = propagate_nominal(state, imu[i - 1], dt, config.gravity)
            nominal_ms.append((time.perf_counter() - tic) * 1e3)
            states.append(state)
            dts.append(dt)
            i += 1
            if (i == len(imu) or len(states) == MAX_SEGMENT
                    or (tick is not None and tick <= imu[i - 1].t)):
                break

        tic = time.perf_counter()
        inputs = imu[first - 1:i - 1]
        f, g = error_jacobians(np.array([s.q for s in states]),
                               np.array([m.omega for m in inputs]) - state.b_g,
                               np.array([m.accel for m in inputs]) - state.b_a)
        covs = propagate_covariance(p_cov, f, g, q_imu, np.array(dts))
        share = (time.perf_counter() - tic) * 1e3 / len(states)
        predict_times.extend(t + share for t in nominal_ms)
        p_cov = covs[-1]

        if config.emit_at_imu_rate:
            diags = covs.diagonal(axis1=1, axis2=2).copy()
            estimates.extend(FilterEstimate(imu[first + k].t, states[k], diags[k])
                             for k in range(len(states) - 1))

        now = imu[i - 1].t
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
