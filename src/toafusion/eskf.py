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

* ``rk4_increments`` computes, for every sample of the segment at once,
  what one RK4 step does in the body frame. The quaternion rate
  ``0.5 q (x) w`` is linear in q, so the step is ``q' = q (x) r`` with r
  the fourth-order series of ``exp((dt/2) w)``; every stage rotation
  turns about w, so the velocity and position steps are
  ``v' = v + R(q) u + dt g`` and ``p' = p + dt v + R(q) c + dt^2 g / 2``
  with body-frame increments u and c;
* ``nominal_segment`` steps the attitude once per sample with
  ``propagate_nominal``, one quaternion product and a renormalization on
  Python floats, converts the attitudes to rotations in one call, and
  forms velocities and positions as running sums of the rotated
  increments;
* ``error_jacobians`` builds ``X = dt F`` for every sample from those
  rotations, and ``propagate_covariance`` chains ``P <- Phi P Phi^T + D``
  over the segment, with ``Phi = I + X + X^2/2 + X^3/6 + X^4/24`` and
  ``D`` the RK4 step of ``P_dot = F P + P F^T + Qc`` from ``P = 0``. The
  process noise ``Qc = G Q G^T`` is diagonal and constant: its velocity
  block ``sigma_a^2 R R^T`` is ``sigma_a^2 I``.

The RK4 step is affine in P: ``RK4(P) = H(P) + RK4(0)`` with
``H(P) = sum_{j+l<=4} X^j P (X^T)^l / (j! l!)``. ``Phi P Phi^T`` holds the
same terms plus those with ``j + l >= 5``, so the segment form differs
from a per-sample RK4 step only in terms of order X^5 (about 1e-10
relative in ``cov_diag`` on the default 200 Hz figure-eight).

A tick's ranges update the state jointly. ``toa_sim.range_directions``
gives the predicted ranges and their unit directions U, and R the squared
sigmas of ``toa_sim.RangeModel``, floored once when the model was built.
H is zero outside its position columns, so the update works with U alone:
``H P = U P[p, :]`` and ``S = U P_pp U^T + R``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np
import scipy.linalg.lapack

from . import geometry as geo
from . import toa_sim
from .dataset import ImuArrays, ToaArrays, Trajectory
from .errors import InvalidDt, SingularInnovation

# Error-state slices.
SL_TH = slice(0, 3)
SL_BG = slice(3, 6)
SL_V = slice(6, 9)
SL_BA = slice(9, 12)
SL_P = slice(12, 15)

GRAVITY = np.array([0.0, 0.0, -9.81])
MAX_DT_S = 0.1
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

    def process_noise(self) -> np.ndarray:
        """Diagonal (15,) of the error-state process noise G Q G^T.

        G routes the noises (eta_g, eta_wg, eta_a, eta_wa) to the attitude,
        gyro-bias, velocity and accel-bias rows. Its velocity block is -R,
        a rotation, and the accel noise is isotropic, so that block of
        G Q G^T is sigma_a^2 R R^T = sigma_a^2 I: the process noise is
        diagonal and the same for every sample.
        """
        return np.repeat([self.sigma_g ** 2, self.sigma_wg ** 2,
                          self.sigma_a ** 2, self.sigma_wa ** 2, 0.0], 3)


def default_initial_covariance() -> np.ndarray:
    d = ([0.01 ** 2] * 3    # attitude [rad]
         + [0.01 ** 2] * 3  # gyro bias
         + [0.1 ** 2] * 3   # velocity
         + [0.01 ** 2] * 3  # accel bias
         + [0.1 ** 2] * 3)  # position
    return np.diag(d)


def _diagonal(a: np.ndarray, row: int = 0, col: int = 0,
              size: int = 15) -> np.ndarray:
    """Writable (n, size) view of the diagonal of the size x size block at
    (row, col) of each matrix of a C-contiguous (n, 15, 15) stack."""
    start = 15 * row + col
    return a.reshape(len(a), 225)[:, start:start + 16 * size:16]


def rk4_increments(w_hat: np.ndarray, a_hat: np.ndarray, dt: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Body-frame RK4 increments (r, u, c) of n IMU intervals, in closed form.

    w_hat and a_hat (n, 3) are the bias-corrected body rate and specific
    force, held constant over interval k of length dt[k]. One RK4 step of
    the nominal kinematics from (q, v, p) gives

        q' = q (x) r
        v' = v + R(q) u + dt g
        p' = p + dt v + R(q) c + dt^2 g / 2

    The quaternion rate 0.5 q (x) w is linear in q, so RK4 multiplies q on
    the right by the fourth-order Taylor series of exp(hw), hw = (dt/2) w:
    r = [(1 - theta^2/6) hw, 1 - theta^2/2 + theta^4/24], theta = |hw|.
    Its stage quaternions are q (x) [s_j hw, m_j], all turning about hw, so
    the rotation of stage j maps a_hat to
    a_hat + lam_j (hw x a_hat) + mu_j hw x (hw x a_hat); u is RK4's
    weighted sum of the four stage vectors and c that of the position
    rates.
    """
    h = dt[:, None]
    hw = (0.5 * h) * w_hat
    th2 = (hw * hw).sum(axis=1)
    r = np.empty((len(dt), 4))
    r[:, :3] = (1.0 - th2 / 6.0)[:, None] * hw
    r[:, 3] = 1.0 - th2 / 2.0 + th2 * th2 / 24.0
    # Stage j's quaternion [s hw, m] rotates a_hat by lam = 2 s m / N and
    # mu = 2 s^2 / N, N = s^2 theta^2 + m^2. Stage 1 is the identity;
    # (s, m) is (1/2, 1) for stage 2, (1/2, m3) for 3 and (m3, m4) for 4.
    quarter = 0.25 * th2
    m3 = 1.0 - quarter
    m4 = 1.0 - 0.5 * th2
    n2 = 1.0 + quarter
    n3 = quarter + m3 * m3
    n4 = m3 * m3 * th2 + m4 * m4
    lam2, mu2 = 1.0 / n2, 0.5 / n2
    lam3, mu3 = m3 / n3, 0.5 / n3
    lam4, mu4 = 2.0 * m3 * m4 / n4, 2.0 * m3 * m3 / n4
    # Stage j's vector is a_hat + lam_j b1 + mu_j b2;
    # u = dt (a1 + 2 a2 + 2 a3 + a4) / 6 and c = dt^2 (a1 + a2 + a3) / 6.
    cross = geo.skew_batch(hw)
    b1 = (cross @ a_hat[:, :, None])[:, :, 0]       # hw x a_hat
    b2 = (cross @ b1[:, :, None])[:, :, 0]          # hw x (hw x a_hat)
    lam, mu = (lam2 + lam3) / 6.0, (mu2 + mu3) / 6.0
    u = h * (a_hat + (2.0 * lam + lam4 / 6.0)[:, None] * b1
             + (2.0 * mu + mu4 / 6.0)[:, None] * b2)
    c = (h * h) * (0.5 * a_hat + lam[:, None] * b1 + mu[:, None] * b2)
    return r, u, c


def propagate_nominal(q: list, r: list) -> list:
    """One RK4 attitude step on Python floats: q (x) r, renormalized.

    q is the attitude (scalar-last) before an IMU interval and r the
    interval's attitude factor from rk4_increments. Numpy call overhead on
    4-vectors would cost more than the step itself.
    """
    x, y, z, w = geo.hamilton(q, r)
    norm = math.sqrt(x * x + y * y + z * z + w * w)
    return [x / norm, y / norm, z / norm, w / norm]


def nominal_segment(q: np.ndarray, v: np.ndarray, p: np.ndarray,
                    w_hat: np.ndarray, a_hat: np.ndarray, dt: np.ndarray,
                    gravity: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Nominal states over n IMU intervals from the state (q, v, p).

    w_hat, a_hat (n, 3) and dt (n,) as in rk4_increments. Returns the
    attitudes (n + 1, 4), their rotations (n + 1, 3, 3), the velocities and
    the positions (n + 1, 3): row 0 is the start, row k the state after
    interval k. The attitude is stepped once per interval by
    propagate_nominal; velocities and positions are running sums of the
    rotated increments. The interval lengths are not checked here:
    run_filter checks them all once per run.
    """
    r, u, c = rk4_increments(w_hat, a_hat, dt)
    quats = [q.tolist()]
    for r_k in r.tolist():
        quats.append(propagate_nominal(quats[-1], r_k))
    quats = np.array(quats)
    rot = geo.quat_to_rot_batch(quats)
    h = dt[:, None]
    steps = np.empty((len(quats), 3))
    steps[0] = v
    steps[1:] = (rot[:-1] @ u[:, :, None])[:, :, 0] + h * gravity
    vel = np.cumsum(steps, axis=0)
    steps[0] = p
    steps[1:] = (h * vel[:-1] + (rot[:-1] @ c[:, :, None])[:, :, 0]
                 + (0.5 * h * h) * gravity)
    return quats, rot, vel, np.cumsum(steps, axis=0)


def error_jacobians(rot: np.ndarray, w_hat: np.ndarray, a_hat: np.ndarray,
                    dt: np.ndarray) -> np.ndarray:
    """X = dt F (n, 15, 15) of n IMU intervals, F the continuous-time error
    dynamics.

    rot (n, 3, 3) are the nominal attitudes as rotations, w_hat and a_hat
    (n, 3) the bias-corrected body rates and specific forces, dt (n,) the
    interval lengths. F has five non-zero 3 x 3 blocks: -[w_hat]x and -I in
    the attitude rows, -R [a_hat]x and -R in the velocity rows, I in the
    position rows.
    """
    n = len(dt)
    minus_h = -dt[:, None, None]
    x = np.zeros((n, 15, 15))
    x[:, SL_TH, SL_TH] = geo.skew_batch(w_hat) * minus_h
    _diagonal(x, SL_TH.start, SL_BG.start, 3)[:] = minus_h[:, :, 0]
    x[:, SL_V, SL_TH] = (rot @ geo.skew_batch(a_hat)) * minus_h
    x[:, SL_V, SL_BA] = rot * minus_h
    _diagonal(x, SL_P.start, SL_V.start, 3)[:] = dt[:, None]
    return x


def propagate_covariance(p_cov: np.ndarray, x: np.ndarray, qc: np.ndarray,
                         dt: np.ndarray) -> np.ndarray:
    """Covariance after each of n steps of P_dot = F P + P F^T + Qc.

    x (n, 15, 15) holds X_k = dt_k F_k from error_jacobians, qc (15,) the
    diagonal of Qc from ImuNoiseParams.process_noise and dt (n,) the step
    lengths; F is constant over a step. Step k maps P to
    Phi_k P Phi_k^T + D_k, where Phi_k is the fourth-order Taylor series
    of exp(X_k) and D_k is the RK4 step from P = 0. Returns the
    (n, 15, 15) covariances after every step as chained, symmetric up to
    rounding.
    """
    # Phi = I + X + X^2/2 + X^3/6 + X^4/24
    #     = I + X (24 I + X (12 I + X (4 I + X))) / 24.
    phi = x.copy()
    _diagonal(phi)[:] += 4.0
    for k in (12.0, 24.0):
        phi = x @ phi
        _diagonal(phi)[:] += k
    phi = x @ phi
    phi *= 1.0 / 24.0
    _diagonal(phi)[:] += 1.0
    # With L(P) = X P + P X^T, the RK4 step from P = 0 is
    # D = dt (Qc + L Qc / 2 + L^2 Qc / 6 + L^3 Qc / 24)
    #   = dt (L (L (L Qc + 4 Qc) + 12 Qc) + 24 Qc) / 24.
    # X Qc scales the columns of X.
    xd = x * qc
    for k in (4.0, 12.0, 24.0):
        d = xd + xd.transpose(0, 2, 1)
        _diagonal(d)[:] += k * qc
        if k < 24.0:
            xd = x @ d
    d *= (dt / 24.0)[:, None, None]

    out = np.empty_like(d)
    p = p_cov
    for phi_k, phi_kt, d_k, out_k in zip(phi, phi.transpose(0, 2, 1), d, out):
        np.dot(phi_k.dot(p), phi_kt, out=out_k)
        out_k += d_k
        p = out_k
    return out


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
    dist, u = toa_sim.range_directions(state.p, positions)
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
    """One estimation problem: the initial state, the range model (its
    sigmas already floored, see `toa_sim.RangeModel.build`), the IMU
    noise, and `options`, the [eskf] section of the experiment config
    (`config.EskfOptions`), of which the filter reads emit_at_imu_rate."""

    initial_state: NavState
    range_model: toa_sim.RangeModel
    options: Any
    noise: ImuNoiseParams = field(default_factory=ImuNoiseParams)
    initial_cov: Optional[np.ndarray] = None


@dataclass
class FilterRun:
    estimates: Trajectory       # with cov_diag and biases; see run_filter
    predict_times_ms: np.ndarray
    update_times_ms: np.ndarray
    final_state: NavState


def run_filter(imu: ImuArrays, toa: ToaArrays,
               config: FilterConfig) -> FilterRun:
    """Predict on every IMU sample, update on every ToA tick.

    A tick's ranges (the consecutive ToA rows sharing a timestamp) are
    applied jointly once the filter time reaches the tick timestamp.
    The estimates, a Trajectory with cov_diag and biases, are recorded
    at every update (and after them at every IMU sample with
    emit_at_imu_rate). Every IMU interval must lie in (0, MAX_DT_S].

    Prediction runs in segments: the samples up to and including the one
    at which the next tick is due (or the last sample), at most MAX_SEGMENT
    long. One nominal_segment call steps the nominal state (one
    propagate_nominal call per sample), and one error_jacobians and one
    propagate_covariance call propagate the covariance; the same chain
    serves both output modes. Each sample's predict_times_ms entry is an
    equal share of its segment's time.
    """
    state = config.initial_state.copy()
    p_cov = (config.initial_cov.copy() if config.initial_cov is not None
             else default_initial_covariance())
    qc = config.noise.process_noise()
    t = imu.t
    dts = np.diff(t) * 1e-9
    bad = np.flatnonzero(~((dts > 0.0) & (dts <= MAX_DT_S)))
    if bad.size:
        raise InvalidDt(f"dt={dts[bad[0]]} outside (0, {MAX_DT_S}]")

    # Station positions and variances of every ToA row, stacked once.
    model = config.range_model
    rows = model.rows(toa.bs_id)
    positions = model.positions[rows]
    var = (model.sigma ** 2)[rows]
    # Tick k's rows are bounds[k]:bounds[k + 1].
    bounds = np.append(np.flatnonzero(np.diff(toa.t, prepend=toa.t[:1] - 1)),
                       len(toa))
    ticks = toa.t[bounds[:-1]].tolist()
    due = np.searchsorted(t, ticks).tolist()    # first sample at each tick
    bounds = bounds.tolist()

    # Estimate columns: rows and segment blocks, stacked once at the end.
    # The empty first blocks give a run without estimates its shapes.
    est_t: list[int] = []
    est_q, est_v, est_p, est_bg, est_ba, est_cov = (
        [np.empty((0, w))] for w in (4, 3, 3, 3, 3, 15))
    predict_times, update_times = [], []

    def record(stamp: int, state: NavState, p_cov: np.ndarray) -> None:
        est_t.append(stamp)
        est_q.append(state.q)
        est_v.append(state.v)
        est_p.append(state.p)
        est_bg.append(state.b_g)
        est_ba.append(state.b_a)
        est_cov.append(np.diag(p_cov).copy())

    emit = config.options.emit_at_imu_rate
    tick, first = 0, 1
    while first < len(t):
        last = min(len(t) - 1, first + MAX_SEGMENT - 1)
        if tick < len(ticks):
            last = min(last, max(due[tick], first))
        tic = time.perf_counter()
        seg = slice(first - 1, last)
        w_hat = imu.omega[seg] - state.b_g
        a_hat = imu.accel[seg] - state.b_a
        dt = dts[seg]
        q_seg, rot, v_seg, p_seg = nominal_segment(
            state.q, state.v, state.p, w_hat, a_hat, dt, GRAVITY)
        covs = propagate_covariance(
            p_cov, error_jacobians(rot[1:], w_hat, a_hat, dt), qc, dt)
        p_cov = 0.5 * (covs[-1] + covs[-1].T)
        state = NavState(q_seg[-1], state.b_g, v_seg[-1], state.b_a, p_seg[-1])
        n = len(dt)
        predict_times.extend([(time.perf_counter() - tic) * 1e3 / n] * n)

        if emit:
            # All but the last sample, which is recorded after its updates.
            est_t.extend(t[first:last].tolist())
            est_q.append(q_seg[1:n])
            est_v.append(v_seg[1:n])
            est_p.append(p_seg[1:n])
            est_bg.append(np.tile(state.b_g, (n - 1, 1)))
            est_ba.append(np.tile(state.b_a, (n - 1, 1)))
            est_cov.append(covs[:n - 1].diagonal(axis1=1, axis2=2).copy())

        now = int(t[last])
        while tick < len(ticks) and ticks[tick] <= now:
            sel = slice(bounds[tick], bounds[tick + 1])
            tic = time.perf_counter()
            state, p_cov = update(state, p_cov, toa.distance[sel],
                                  positions[sel], var[sel])
            update_times.append((time.perf_counter() - tic) * 1e3)
            record(now, state, p_cov)
            tick += 1

        if emit:
            record(now, state, p_cov)
        first = last + 1

    estimates = Trajectory(np.array(est_t, dtype=np.int64), np.vstack(est_p),
                           np.vstack(est_q), np.vstack(est_v), np.vstack(est_cov),
                           np.vstack(est_bg), np.vstack(est_ba))
    return FilterRun(estimates, np.array(predict_times), np.array(update_times),
                     state)
