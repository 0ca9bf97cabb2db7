"""IMU preintegration between keyframes.

Batches of IMU samples are condensed into relative-motion increments
(rotation, velocity, position) defined at a fixed bias linearization
point, together with a 9x9 noise covariance over the residual blocks in
(rotation, position, velocity) order. The IMU factor kernel of `pgo`
evaluates how well a pair of keyframe states matches the increments.

Integration is Euler-forward per sample; increments are exact for
piecewise-constant body rates. Bias sensitivities (the derivatives of the
increments with respect to the linearization biases) are accumulated
alongside, so residuals can be corrected to first order when the bias
estimate moves; callers re-integrate when it moves far. The recursion is
that of Forster et al., "On-Manifold Preintegration for Real-Time
Visual-Inertial Odometry", IEEE T-RO 2017.

One kernel integrates m intervals at once, each at its own bias point.
Its inputs carry a leading interval axis: rates and accelerations
(m, n, 3), steps (m, n), biases (m, 3). Everything that does not depend on
the running rotation is computed for all m * n samples first: the
rotation increments, the right Jacobians and the skews of the
bias-corrected inputs. Three short loops over the n sample slots, each
batched over the intervals, then chain the rotation, the rotation bias
Jacobian and the covariance. The velocity, position and the other bias
Jacobians are running sums, taken with a sequential cumulative sum in the
same order of additions as a per-sample loop.

Intervals shorter than n are padded at the end: counts[k] leading slots of
interval k are real samples, the rest are padding whose values are
ignored. The kernel keeps the state after every slot and returns interval
k's state after its counts[k]-th sample, so padding leaves the result
bit-for-bit unchanged. Intervals go through the kernel in passes of at
most 1024 sample slots, which bounds the memory of the per-sample 9x9
terms. `integrate_batch` is the entry point.

The padded form comes from `slice_imu_between`, which cuts the samples of
many intervals, each given by its start and end stamps, out of the IMU
columns with one binary search and one gather. `predict` dead-reckons
through consecutive intervals at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import geometry as geo
from .dataset import ImuArrays
from .errors import InvalidDt
from .eskf import GRAVITY, MAX_DT_S, ImuNoiseParams

# Sample slots per kernel pass: about 1 MB per (slots, 9, 9) temporary.
_PASS_SAMPLES = 1024

# The array fields of a batch, each with a leading interval axis.
_JACOBIAN_FIELDS = ("j_rot_bg", "j_pos_bg", "j_pos_ba", "j_vel_bg", "j_vel_ba")
_ARRAY_FIELDS = ("d_rot", "d_vel", "d_pos", "cov", "bias_gyro",
                 "bias_accel") + _JACOBIAN_FIELDS


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

    def rows(self, sel: slice) -> "PreintegratedBatch":
        """The intervals in sel, as views into this batch."""
        return PreintegratedBatch(
            dt_total=self.dt_total[sel], counts=self.counts[sel], noise=self.noise,
            **{f: getattr(self, f)[sel] for f in _ARRAY_FIELDS})

    @staticmethod
    def concat(parts: Sequence["PreintegratedBatch"]) -> "PreintegratedBatch":
        return PreintegratedBatch(
            dt_total=np.concatenate([p.dt_total for p in parts]),
            counts=np.concatenate([p.counts for p in parts]), noise=parts[0].noise,
            **{f: np.concatenate([getattr(p, f) for p in parts])
               for f in _ARRAY_FIELDS})

    @staticmethod
    def create(bias_gyro: np.ndarray, bias_accel: np.ndarray,
               noise: ImuNoiseParams | None = None) -> "PreintegratedBatch":
        """Identity increments at the (m, 3) linearization biases."""
        m = bias_gyro.shape[0]
        zeros = {f: np.zeros((m, 3, 3)) for f in _JACOBIAN_FIELDS}
        return PreintegratedBatch(
            d_rot=np.repeat(np.eye(3)[None], m, axis=0), d_vel=np.zeros((m, 3)),
            d_pos=np.zeros((m, 3)), dt_total=np.zeros(m),
            cov=np.zeros((m, 9, 9)),
            bias_gyro=np.array(bias_gyro, dtype=float),
            bias_accel=np.array(bias_accel, dtype=float),
            counts=np.zeros(m, dtype=np.int64),
            noise=noise if noise is not None else ImuNoiseParams(), **zeros)


def _running_sum(start: np.ndarray, *steps: np.ndarray) -> np.ndarray:
    """Value before every slot and after the last, (m, n + 1, ...).

    Slot s adds steps[0][:, s], then steps[1][:, s], ... to the running
    value, one addition at a time as a per-sample loop would.
    """
    m, n = steps[0].shape[:2]
    seq = np.stack(steps, axis=2).reshape((m, n * len(steps)) + start.shape[1:])
    out = np.cumsum(np.concatenate([start[:, None], seq], axis=1), axis=1)
    return out[:, ::len(steps)]


def _propagate(start: PreintegratedBatch, omega: np.ndarray, accel: np.ndarray,
               dts: np.ndarray, counts: np.ndarray) -> PreintegratedBatch:
    """Absorb the first counts[k] samples of row k into interval k of start."""
    m, n = dts.shape
    real = np.arange(n) < counts[:, None]
    bad = real & ~((dts > 0.0) & (dts <= MAX_DT_S))
    if np.any(bad):
        raise InvalidDt(f"dt={float(dts[bad][0])} outside (0, {MAX_DT_S}]")
    # Passes over at most _PASS_SAMPLES sample slots bound the memory of
    # the per-sample 9x9 terms.
    step = max(1, _PASS_SAMPLES // max(n, 1))
    parts = [_propagate_pass(start.rows(c), omega[c], accel[c], dts[c], counts[c],
                             real[c])
             for c in (slice(k, k + step) for k in range(0, max(m, 1), step))]
    return parts[0] if len(parts) == 1 else PreintegratedBatch.concat(parts)


def _propagate_pass(start: PreintegratedBatch, omega: np.ndarray,
                    accel: np.ndarray, dts: np.ndarray, counts: np.ndarray,
                    real: np.ndarray) -> PreintegratedBatch:
    """_propagate over one slice of intervals; real marks the sample slots."""
    m, n = dts.shape
    # Padded slots are computed like samples, but no result reads them.
    dt1 = dts[..., None]
    dt2 = dts[..., None, None]
    w_hat = omega - start.bias_gyro[:, None]
    a_hat = accel - start.bias_accel[:, None]

    # Per-sample terms, independent of the running rotation.
    theta = (w_hat * dt1).reshape(-1, 3)
    rot_inc = geo.exp_so3_batch(theta).reshape(m, n, 3, 3)
    rot_inc_t = rot_inc.swapaxes(-1, -2)
    jr_dt = geo.right_jacobian_batch(theta).reshape(m, n, 3, 3) * dt2
    a_skew = geo.skew_batch(a_hat.reshape(-1, 3)).reshape(m, n, 3, 3)
    noise = start.noise
    sigma = np.array([noise.sigma_g ** 2] * 3 + [noise.sigma_a ** 2] * 3)
    sigma_dt = np.divide(sigma, dt1, out=np.zeros((m, n, 6)), where=real[..., None])

    # The rotation before every slot, then everything that depends on it.
    rot = np.empty((m, n + 1, 3, 3))
    rot[:, 0] = start.d_rot
    for s in range(n):
        rot[:, s + 1] = rot[:, s] @ rot_inc[:, s]
    rot_prev = rot[:, :n]
    ra = (rot_prev @ a_hat[..., None])[..., 0]
    ra_skew = rot_prev @ a_skew
    half_r_dt2 = 0.5 * rot_prev * dt2 * dt2
    r_dt = rot_prev * dt2

    vel = _running_sum(start.d_vel, ra * dt1)
    pos = _running_sum(start.d_pos, vel[:, :n] * dt1, 0.5 * ra * dt1 * dt1)

    j_rot_bg = np.empty((m, n + 1, 3, 3))
    j_rot_bg[:, 0] = start.j_rot_bg
    for s in range(n):
        j_rot_bg[:, s + 1] = rot_inc_t[:, s] @ j_rot_bg[:, s] - jr_dt[:, s]
    j_rot_prev = j_rot_bg[:, :n]
    j_vel_bg = _running_sum(start.j_vel_bg, -(ra_skew @ j_rot_prev * dt2))
    j_vel_ba = _running_sum(start.j_vel_ba, -r_dt)
    j_pos_bg = _running_sum(start.j_pos_bg, j_vel_bg[:, :n] * dt2,
                            -(0.5 * ra_skew @ j_rot_prev * dt2 * dt2))
    j_pos_ba = _running_sum(start.j_pos_ba, j_vel_ba[:, :n] * dt2, -half_r_dt2)

    # First-order discrete propagation of the (rot, pos, vel) error.
    a_mat = np.zeros((m, n, 9, 9))
    a_mat[..., 0:3, 0:3] = rot_inc_t
    a_mat[..., 3:6, 0:3] = -0.5 * ra_skew * dt2 * dt2
    a_mat[..., 3:6, 3:6] = np.eye(3)
    a_mat[..., 3:6, 6:9] = np.eye(3) * dt2
    a_mat[..., 6:9, 0:3] = -ra_skew * dt2
    a_mat[..., 6:9, 6:9] = np.eye(3)
    b_mat = np.zeros((m, n, 9, 6))
    b_mat[..., 0:3, 0:3] = jr_dt
    b_mat[..., 3:6, 3:6] = half_r_dt2
    b_mat[..., 6:9, 3:6] = r_dt
    noise_cov = (b_mat * sigma_dt[..., None, :]) @ b_mat.swapaxes(-1, -2)
    cov = np.empty((m, n + 1, 9, 9))
    cov[:, 0] = start.cov
    for s in range(n):
        a_s = a_mat[:, s]
        step = a_s @ cov[:, s] @ a_s.swapaxes(-1, -2) + noise_cov[:, s]
        cov[:, s + 1] = 0.5 * (step + step.swapaxes(-1, -2))

    rows = np.arange(m)
    dt_total = _running_sum(start.dt_total, dts)
    return PreintegratedBatch(
        d_rot=rot[rows, counts], d_vel=vel[rows, counts], d_pos=pos[rows, counts],
        dt_total=dt_total[rows, counts], cov=cov[rows, counts],
        bias_gyro=start.bias_gyro, bias_accel=start.bias_accel,
        counts=start.counts + counts, noise=start.noise,
        j_rot_bg=j_rot_bg[rows, counts], j_pos_bg=j_pos_bg[rows, counts],
        j_pos_ba=j_pos_ba[rows, counts], j_vel_bg=j_vel_bg[rows, counts],
        j_vel_ba=j_vel_ba[rows, counts])


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
    start = PreintegratedBatch.create(
        np.broadcast_to(np.asarray(bias_gyro, dtype=float), (m, 3)),
        np.broadcast_to(np.asarray(bias_accel, dtype=float), (m, 3)), noise)
    return _propagate(start, np.asarray(omega, dtype=float),
                      np.asarray(accel, dtype=float), dts, counts)


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
