"""IMU preintegration between keyframes.

Batches of IMU samples are condensed into relative-motion increments
(rotation, velocity, position) defined at a fixed bias linearization
point, together with a 9x9 noise covariance over the residual blocks in
(rotation, position, velocity) order. The IMU factor kernel of `pgo`
evaluates how well a pair of keyframe states matches the increments.

The increments are those of the Euler-forward recursion of Forster et al.,
"On-Manifold Preintegration for Real-Time Visual-Inertial Odometry", IEEE
T-RO 2017, exact for piecewise-constant body rates. Bias sensitivities
(the derivatives of the increments with respect to the linearization
biases) come alongside, so residuals can be corrected to first order when
the bias estimate moves; callers re-integrate when it moves far.

The kernel evaluates that recursion in closed form. Let R_s be the
rotation before sample s (R_0 = I; R_n is the increment), dt_s its step,
T_s+1 the time from its end to the end of the interval, c_s = R_s a_s dt_s
and w_s = T_s+1 + dt_s / 2. Then d_vel = sum c_s and d_pos = sum w_s c_s,
and j_vel_ba and j_pos_ba are the same two sums of -R_s dt_s. In the frame
of the interval start, the attitude error eps = R_s dphi has a unipotent
per-sample transition, so every other end-of-interval quantity is a sum
as well. Let g_s = R_s+1 J_r(w_hat_s dt_s) dt_s, S_s+1 and q_s+1 the sums
of c_l and of w_l c_l over the later samples l > s, and
G_s = [I; -[q_s+1]x; -[S_s+1]x] g_s the response of the (eps, position,
velocity) error to sample s's gyro noise. Then:

* the gyro bias Jacobians (rotation, position, velocity) are
  -diag(R_n^T, I, I) sum_s G_s;
* the covariance is sum_s (sigma_g^2 / dt_s) G_s G_s^T, plus
  sigma_a^2 sum_s dt_s [w_s^2, w_s; w_s, 1] (x) I on (position,
  velocity), rotated back from eps to dphi = R_n^T eps.

One kernel integrates m intervals at once, each at its own bias point.
Its inputs carry a leading interval axis: rates and accelerations
(m, n, 3), steps (m, n), biases (m, 3). Only the 3x3 rotation chain is a
loop over the n sample slots, batched over the intervals; every sum above
is a prefix sum, a suffix sum or one batched product over all samples.
Intervals shorter than n are padded at the end: counts[k] leading slots of
interval k are real samples, the rest are padding whose values are
ignored. Padding slots are zeroed before any sum, so they add exact zeros
and leave the result bit-for-bit unchanged. `integrate_batch` is the
entry point.

The padded form comes from `slice_imu_between`, which cuts the samples of
many intervals, each given by its start and end stamps, out of the IMU
columns with one binary search and one gather. `predict` dead-reckons
through consecutive intervals at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import geometry as geo
from .dataset import ImuArrays
from .errors import InvalidDt
from .eskf import GRAVITY, MAX_DT_S, ImuNoiseParams


@dataclass
class PreintegratedBatch:
    """Increments of m intervals, stacked along a leading axis; one noise
    model for all of them."""

    d_rot: np.ndarray          # (m, 3, 3)
    d_vel: np.ndarray          # (m, 3)
    d_pos: np.ndarray          # (m, 3)
    dt_total: np.ndarray       # (m,)
    cov: np.ndarray            # (m, 9, 9)
    bias_gyro: np.ndarray      # (m, 3)
    bias_accel: np.ndarray     # (m, 3)
    counts: np.ndarray         # (m,) samples per interval
    noise: ImuNoiseParams
    j_rot_bg: np.ndarray       # (m, 3, 3) each
    j_pos_bg: np.ndarray
    j_pos_ba: np.ndarray
    j_vel_bg: np.ndarray
    j_vel_ba: np.ndarray

    # perfbench/tracing.py reads `count` by name.
    @property
    def count(self) -> int:
        """Samples over all intervals."""
        return int(self.counts.sum())


def _running_sum(start: np.ndarray, *steps: np.ndarray) -> np.ndarray:
    """Value before every slot and after the last, (m, n + 1, ...).

    Slot s adds steps[0][:, s], then steps[1][:, s], ... to the running
    value, one addition at a time as a per-sample loop would.
    """
    m, n = steps[0].shape[:2]
    seq = np.stack(steps, axis=2).reshape((m, n * len(steps)) + start.shape[1:])
    out = np.cumsum(np.concatenate([start[:, None], seq], axis=1), axis=1)
    return out[:, ::len(steps)]


def _later_sums(x: np.ndarray) -> np.ndarray:
    """Sums over the later slots, out[:, s] = sum of x[:, l] for l > s."""
    out = np.zeros_like(x)
    out[:, :-1] = np.cumsum(x[:, :0:-1], axis=1)[:, ::-1]
    return out


def integrate_batch(omega: np.ndarray, accel: np.ndarray, dts: np.ndarray,
                    bias_gyro: np.ndarray, bias_accel: np.ndarray,
                    noise: ImuNoiseParams | None = None,
                    counts: Optional[np.ndarray] = None) -> PreintegratedBatch:
    """Integrate m padded intervals of samples into increments.

    omega and accel are (m, n, 3), dts (m, n), biases (3,) or (m, 3).
    Interval k holds its first counts[k] samples (default: all n) and the
    rest of its row is padding.
    """
    dts = np.asarray(dts, dtype=float)
    m, n = dts.shape
    counts = (np.full(m, n, dtype=np.int64) if counts is None
              else np.asarray(counts, dtype=np.int64))
    noise = noise if noise is not None else ImuNoiseParams()
    real = np.arange(n) < counts[:, None]
    bad = real & ~((dts > 0.0) & (dts <= MAX_DT_S))
    if np.any(bad):
        raise InvalidDt(f"dt={float(dts[bad][0])} outside (0, {MAX_DT_S}]")
    bias_gyro = np.array(np.broadcast_to(bias_gyro, (m, 3)), dtype=float)
    bias_accel = np.array(np.broadcast_to(bias_accel, (m, 3)), dtype=float)

    # Padding becomes zero steps of zero inputs: exact zeros in every sum.
    dt = np.where(real, dts, 0.0)
    dt1 = dt[..., None]
    theta = np.where(real[..., None], omega - bias_gyro[:, None], 0.0) * dt1
    a_hat = np.where(real[..., None], accel - bias_accel[:, None], 0.0)
    rot_inc = geo.exp_so3_batch(theta.reshape(-1, 3)).reshape(m, n, 3, 3)
    jr = geo.right_jacobian_batch(theta.reshape(-1, 3)).reshape(m, n, 3, 3)

    # The rotation before every slot and after the last: the one chain.
    rot = np.empty((m, n + 1, 3, 3))
    rot[:, 0] = np.eye(3)
    for s in range(n):
        rot[:, s + 1] = rot[:, s] @ rot_inc[:, s]
    rot_prev, rot_end = rot[:, :n], rot[:, n].copy()
    rot_end_t = rot_end.swapaxes(-1, -2)
    c = (rot_prev @ a_hat[..., None])[..., 0] * dt1
    weight = _later_sums(dt) + 0.5 * dt

    # Both sums of [-R dt | c | dt | w dt], plain and weighted by w_s, in
    # one product.
    terms = np.concatenate([-(rot_prev * dt1[..., None]).reshape(m, n, 9), c,
                            dt1, dt1 * weight[..., None]], axis=2)
    plain, weighted = (np.stack([np.ones((m, n)), weight], axis=1)
                       @ terms).transpose(1, 0, 2)
    dt_total = plain[:, 12]

    # G_s^T, row r = [g_r, g_r x q_s+1, g_r x S_s+1] for the columns g_r of
    # g_s: its sum gives the gyro bias Jacobians, one product the gyro noise.
    g_rows = (jr.swapaxes(-1, -2) @ rot[:, 1:].swapaxes(-1, -2)) * dt1[..., None]
    later = _later_sums(np.concatenate([c * weight[..., None], c], axis=2))[:, :, None]
    g_t = np.concatenate([g_rows, np.cross(g_rows, later[..., 0:3]),
                          np.cross(g_rows, later[..., 3:6])], axis=3)
    j_bg = -g_t.sum(axis=1).swapaxes(-1, -2)
    g_t *= np.sqrt(np.divide(noise.sigma_g ** 2, dt, out=np.zeros((m, n)),
                             where=real))[..., None, None]
    g_t = g_t.reshape(m, 3 * n, 9)
    cov = g_t.swapaxes(-1, -2) @ g_t
    d = np.arange(3)
    sigma_a2 = noise.sigma_a ** 2
    cov[:, 3 + d, 3 + d] += sigma_a2 * weighted[:, 13, None]
    cov[:, 3 + d, 6 + d] += sigma_a2 * plain[:, 13, None]
    cov[:, 6 + d, 3 + d] += sigma_a2 * plain[:, 13, None]
    cov[:, 6 + d, 6 + d] += sigma_a2 * dt_total[:, None]
    # Back from the interval-start frame: dphi = R_n^T eps.
    cov[:, 0:3] = rot_end_t @ cov[:, 0:3]
    cov[:, :, 0:3] = cov[:, :, 0:3] @ rot_end
    return PreintegratedBatch(
        d_rot=rot_end, d_vel=plain[:, 9:12], d_pos=weighted[:, 9:12],
        dt_total=dt_total, cov=0.5 * (cov + cov.swapaxes(-1, -2)),
        bias_gyro=bias_gyro, bias_accel=bias_accel, counts=counts, noise=noise,
        j_rot_bg=rot_end_t @ j_bg[:, 0:3], j_pos_bg=j_bg[:, 3:6],
        j_vel_bg=j_bg[:, 6:9], j_pos_ba=weighted[:, 0:9].reshape(m, 3, 3),
        j_vel_ba=plain[:, 0:9].reshape(m, 3, 3))


# perfbench/tracing.py wraps `predict` by name.
def predict(batch: PreintegratedBatch, rot_0: np.ndarray, p_0: np.ndarray,
            v_0: np.ndarray, gravity: np.ndarray = GRAVITY
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dead-reckon keyframes 1..m from keyframe 0 through the m consecutive
    intervals of batch: (m + 1, ...) rotations, positions and velocities.
    Through interval k, R_k+1 = R_k dR, v_k+1 = v_k + g dt + R_k dv and
    p_k+1 = p_k + v_k dt + g dt^2 / 2 + R_k dp, summed in that order.
    Rotations chain by 3 x 3 products; velocities and positions are
    running sums."""
    m = len(batch.dt_total)
    rot = np.empty((m + 1, 3, 3))
    rot[0] = rot_0
    for k in range(m):
        rot[k + 1] = rot[k] @ batch.d_rot[k]
    dt = batch.dt_total[:, None]
    vel = _running_sum(v_0[None], (gravity * dt)[None],
                       (rot[:m] @ batch.d_vel[..., None])[None, ..., 0])[0]
    pos = _running_sum(p_0[None], (vel[:m] * dt)[None],
                       (0.5 * gravity * dt * dt)[None],
                       (rot[:m] @ batch.d_pos[..., None])[None, ..., 0])[0]
    return rot, pos, vel


def slice_imu_between(imu: ImuArrays, starts: np.ndarray, ends: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The IMU samples of m intervals [starts[k], ends[k]), padded.

    Returns omega and accel (m, n, 3), dt (m, n) and the (m,) counts: row k
    holds the counts[k] samples of interval k followed by zeros, and n is
    the largest count. Intervals may overlap or repeat; starts[k] <=
    ends[k] is required.

    Each sample's dt runs to the next IMU stamp, capped at the end of its
    own interval, so consecutive intervals tile the timeline exactly. The
    timestamps must be strictly increasing. One binary search places every
    bound and one gather fills the rows.
    """
    t = imu.t
    bounds = np.asarray([starts, ends], dtype=np.int64)
    lo, hi = np.searchsorted(t, bounds)
    ends = bounds[1]
    counts = hi - lo
    rows = lo[:, None] + np.arange(counts.max(initial=0))
    pad = rows >= hi[:, None]
    rows[pad] = 0
    # After the last sample, the cap at the interval's end is the next stamp.
    t_next = np.append(t[1:], np.iinfo(np.int64).max)[rows]
    dt = (np.minimum(t_next, ends[:, None]) - t[rows]) * 1e-9
    omega, accel = imu.omega[rows], imu.accel[rows]
    omega[pad], accel[pad], dt[pad] = 0.0, 0.0, 0.0
    return omega, accel, dt, counts
