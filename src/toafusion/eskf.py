"""Error-state Kalman filter fusing IMU propagation with ToA range updates.

The nominal state (quaternion, gyro bias, velocity, accel bias, position)
is integrated from IMU readings with RK4; uncertainty is tracked over the
15-dimensional error state

    [dtheta, db_g, dv, db_a, dp]

where ``dtheta`` is a body-frame attitude increment: the true attitude is
``q = q_nom (x) quat_from_small_angle(dtheta)``. Range updates inject the
estimated error into the nominal state and reset it to zero.

The filter reads IMU and ToA columns. Prediction runs in segments: the
IMU samples from one ToA tick to the next. Within a segment the biases are
fixed and no covariance is read, so

* the nominal state is stepped once per sample by ``propagate_nominal``,
  an RK4 step on Python floats (four stages, quaternion rate
  ``0.5 Omega(w) q``, the rotation of the unnormalized stage quaternion,
  one renormalization at the end), with the segment's inputs converted
  to floats in one call;
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

A tick's ranges update the state jointly. The range Jacobian H is zero
outside its position columns, so the update works with the (k, 3) unit
directions U alone: ``H P = U P[p, :]`` and ``S = U P_pp U^T + R``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
import scipy.linalg.lapack

from . import geometry as geo
from . import toa_sim
from .dataset import ImuArrays, ToaArrays, Trajectory
from .errors import DegenerateGeometry, InvalidDt, SingularInnovation

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


def propagate_nominal(q: list, v: list, p: list, w: list, a: list,
                      dt: float, g: tuple = tuple(GRAVITY.tolist())
                      ) -> tuple[list, list, list]:
    """RK4 integration of the nominal kinematics over one IMU interval.

    q (scalar-last), v and p are the state, w and a the bias-corrected body
    rate and specific force, held constant across the step, and g gravity;
    all are sequences of Python floats, and so are the returned q, v and p.
    The quaternion is renormalized afterwards. Numpy call overhead on
    4-vectors would cost more than the step itself.
    """
    if not 0.0 < dt <= MAX_DT_S:
        raise InvalidDt(f"dt={dt} outside (0, {MAX_DT_S}]")
    # Stages k1..k4 of (q, v); the position rate of a stage is its velocity.
    half = 0.5 * dt
    k1 = _rates(q, (0.0, 0.0, 0.0, 0.0), 0.0, w, a, g)
    k2 = _rates(q, k1, half, w, a, g)
    k3 = _rates(q, k2, half, w, a, g)
    k4 = _rates(q, k3, dt, w, a, g)
    sixth = dt / 6.0
    # Stage k's quaternion rate is (dxk, dyk, dzk, dsk), its velocity rate
    # (axk, ayk, azk).
    dx1, dy1, dz1, ds1, ax1, ay1, az1 = k1
    dx2, dy2, dz2, ds2, ax2, ay2, az2 = k2
    dx3, dy3, dz3, ds3, ax3, ay3, az3 = k3
    dx4, dy4, dz4, ds4, ax4, ay4, az4 = k4
    vx, vy, vz = v
    qx = q[0] + sixth * (dx1 + 2.0 * dx2 + 2.0 * dx3 + dx4)
    qy = q[1] + sixth * (dy1 + 2.0 * dy2 + 2.0 * dy3 + dy4)
    qz = q[2] + sixth * (dz1 + 2.0 * dz2 + 2.0 * dz3 + dz4)
    qs = q[3] + sixth * (ds1 + 2.0 * ds2 + 2.0 * ds3 + ds4)
    v_next = [vx + sixth * (ax1 + 2.0 * ax2 + 2.0 * ax3 + ax4),
              vy + sixth * (ay1 + 2.0 * ay2 + 2.0 * ay3 + ay4),
              vz + sixth * (az1 + 2.0 * az2 + 2.0 * az3 + az4)]
    p_next = [p[0] + sixth * (vx + 2.0 * (vx + half * ax1)
                              + 2.0 * (vx + half * ax2) + (vx + dt * ax3)),
              p[1] + sixth * (vy + 2.0 * (vy + half * ay1)
                              + 2.0 * (vy + half * ay2) + (vy + dt * ay3)),
              p[2] + sixth * (vz + 2.0 * (vz + half * az1)
                              + 2.0 * (vz + half * az2) + (vz + dt * az3))]
    norm = math.sqrt(qx * qx + qy * qy + qz * qz + qs * qs)
    return [qx / norm, qy / norm, qz / norm, qs / norm], v_next, p_next


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


def range_directions(p: np.ndarray, positions: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Distances from position p to station positions (k, 3), the
    measurement function h, and their unit directions U (k, 3).

    U is the position block of the range Jacobian H; its other blocks are
    zero.
    """
    diff = p - positions
    dist = geo.row_norms(diff)
    if (dist < MIN_RANGE_M).any():
        raise DegenerateGeometry(
            f"estimate coincides with station at {positions[dist < MIN_RANGE_M][0]}")
    return dist, diff / dist[:, None]


def inject_error(state: NavState, delta: np.ndarray) -> NavState:
    """Fold an error-state estimate into the nominal state."""
    q = geo.quat_mul(state.q, geo.quat_from_small_angle(delta[SL_TH]))
    return NavState(q, state.b_g + delta[SL_BG], state.v + delta[SL_V],
                    state.b_a + delta[SL_BA], state.p + delta[SL_P])


def update(state: NavState, p_cov: np.ndarray, meas: np.ndarray,
           positions: np.ndarray, var: np.ndarray
           ) -> tuple[NavState, np.ndarray]:
    """Joint vector update with the ranges meas (k,) of one tick, measured
    to stations at positions (k, 3) with variances var (k,); see the module
    docstring for the position-block form."""
    dist, u = range_directions(state.p, positions)
    hp = u @ p_cov[SL_P]
    s = hp[:, SL_P] @ u.T
    s.flat[::len(var) + 1] += var
    _, _, gain_t, info = scipy.linalg.lapack.dgesv(s, hp)    # S^-1 H P
    if info != 0 or not np.isfinite(gain_t).all():
        raise SingularInnovation("singular innovation covariance"
                                 if info else "non-finite Kalman gain")
    gain = gain_t.T
    new_state = inject_error(state, gain @ (meas - dist))
    new_cov = p_cov - gain @ hp
    return new_state, 0.5 * (new_cov + new_cov.T)


@dataclass
class FilterConfig:
    initial_state: NavState
    stations: Sequence[toa_sim.BaseStation]
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


def run_filter(imu: ImuArrays, toa: ToaArrays,
               config: FilterConfig) -> FilterRun:
    """Predict on every IMU sample, update on every ToA tick.

    A tick's ranges (the consecutive ToA rows sharing a timestamp) are
    applied jointly once the filter time reaches the tick timestamp.
    Estimates are recorded at every update (or at every IMU sample with
    emit_at_imu_rate). Every IMU interval must lie in (0, MAX_DT_S].

    Prediction runs in segments: the samples up to and including the one
    at which the next tick is due (or the last sample), at most MAX_SEGMENT
    long. The nominal state is stepped once per sample on Python floats;
    the covariance of the whole segment is propagated with one
    error_jacobians and one propagate_covariance call. Each sample's
    predict_times_ms entry is an equal share of its segment's time.
    """
    state = config.initial_state.copy()
    p_cov = (config.initial_cov.copy() if config.initial_cov is not None
             else default_initial_covariance())
    q_imu = config.noise.q_matrix()
    gravity = tuple(config.gravity.tolist())
    t = imu.t
    dts = np.diff(t) * 1e-9
    bad = np.flatnonzero(~((dts > 0.0) & (dts <= MAX_DT_S)))
    if bad.size:
        raise InvalidDt(f"dt={dts[bad[0]]} outside (0, {MAX_DT_S}]")

    # Station positions and variances of every ToA row, stacked once.
    rows = toa_sim.station_rows(config.stations, toa.bs_id)
    std = np.maximum(np.asarray(config.meas_std, dtype=float), config.sigma_floor)
    positions = np.array([bs.position for bs in config.stations]).reshape(-1, 3)[rows]
    var = (std ** 2)[rows]
    # Tick k's rows are bounds[k]:bounds[k + 1].
    bounds = np.append(np.flatnonzero(np.diff(toa.t, prepend=toa.t[:1] - 1)),
                       len(toa))
    ticks = toa.t[bounds[:-1]].tolist()
    due = np.searchsorted(t, ticks).tolist()    # first sample at each tick
    bounds = bounds.tolist()

    estimates, predict_times, update_times = [], [], []
    emit = config.emit_at_imu_rate
    tick, first = 0, 1
    while first < len(t):
        last = min(len(t) - 1, first + MAX_SEGMENT - 1)
        if tick < len(ticks):
            last = min(last, max(due[tick], first))
        tic = time.perf_counter()
        seg = slice(first - 1, last)
        w_hat = imu.omega[seg] - state.b_g
        a_hat = imu.accel[seg] - state.b_a
        q, v, p = state.q.tolist(), state.v.tolist(), state.p.tolist()
        qs, vs, ps = [], [], []
        for w, a, dt in zip(w_hat.tolist(), a_hat.tolist(), dts[seg].tolist()):
            q, v, p = propagate_nominal(q, v, p, w, a, dt, gravity)
            qs.append(q)
            vs.append(v)
            ps.append(p)
        q_seg = np.array(qs)
        f, g = error_jacobians(q_seg, w_hat, a_hat)
        covs = propagate_covariance(p_cov, f, g, q_imu, dts[seg])
        p_cov = covs[-1]
        state = NavState(q_seg[-1], state.b_g, np.array(v), state.b_a, np.array(p))
        n = len(qs)
        predict_times.extend([(time.perf_counter() - tic) * 1e3 / n] * n)

        if emit:
            diags = covs.diagonal(axis1=1, axis2=2).copy()
            v_seg, p_seg = np.array(vs), np.array(ps)
            estimates.extend(
                FilterEstimate(int(t[first + k]), NavState(
                    q_seg[k], state.b_g, v_seg[k], state.b_a, p_seg[k]), diags[k])
                for k in range(n - 1))

        now = int(t[last])
        while tick < len(ticks) and ticks[tick] <= now:
            sel = slice(bounds[tick], bounds[tick + 1])
            tic = time.perf_counter()
            state, p_cov = update(state, p_cov, toa.distance[sel],
                                  positions[sel], var[sel])
            update_times.append((time.perf_counter() - tic) * 1e3)
            estimates.append(FilterEstimate(now, state, np.diag(p_cov).copy()))
            tick += 1

        if emit:
            estimates.append(FilterEstimate(now, state, np.diag(p_cov).copy()))
        first = last + 1

    return FilterRun(estimates, np.array(predict_times), np.array(update_times),
                     state, p_cov)
