"""SO(3) / quaternion kernel shared by all estimators.

Conventions used throughout the package:

* quaternions are scalar-last ``[x, y, z, w]`` with Hamilton multiplication;
* ``quat_to_rot(q)`` is the body-to-world rotation matrix, so a body vector
  ``v_b`` maps to the world frame as ``R @ v_b``;
* rotation increments are applied on the right, ``R @ exp(theta)``,
  i.e. expressed in the body frame.

All functions are pure and operate on plain numpy arrays.
"""

from __future__ import annotations

import math

import numpy as np

_EXP_TAYLOR_EPS = 1e-8
_LOG_TAYLOR_EPS = 1e-10
_LOG_PI_BRANCH = 1e-4


def log_so3(rot: np.ndarray) -> np.ndarray:
    """Rotation-vector logarithm, inverse of the exponential for angles below
    pi."""
    trace = np.clip(np.trace(rot), -1.0, 3.0)
    cos_angle = np.clip(0.5 * (trace - 1.0), -1.0, 1.0)
    angle = np.arccos(cos_angle)
    vee = 0.5 * np.array([
        rot[2, 1] - rot[1, 2],
        rot[0, 2] - rot[2, 0],
        rot[1, 0] - rot[0, 1],
    ])
    if 3.0 - trace < _LOG_TAYLOR_EPS or angle < 1e-7:
        # Near identity sin(angle) ~ angle; series for angle/sin(angle).
        return vee * (1.0 + angle * angle / 6.0)
    if np.pi - angle < _LOG_PI_BRANCH:
        # Near pi the vee part cancels; recover the axis from R + I whose
        # columns are all parallel to it.
        m = rot + np.eye(3)
        col = m[:, int(np.argmax(np.diag(m)))]
        axis = col / np.linalg.norm(col)
        # Sign of vee still carries the (tiny) off-pi component; fall back
        # to a fixed canonical sign at exactly pi.
        if np.dot(axis, vee) < 0.0:
            axis = -axis
        elif np.allclose(vee, 0.0):
            idx = int(np.argmax(np.abs(axis)))
            if axis[idx] < 0.0:
                axis = -axis
        return angle * axis
    return vee * (angle / np.sin(angle))


def quat_identity() -> np.ndarray:
    return np.array([0.0, 0.0, 0.0, 1.0])


def quat_normalize(q: np.ndarray) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    return q / np.linalg.norm(q)


def hamilton(a, b) -> tuple:
    """Components of a (x) b, unnormalized, from components of a and b."""
    ax, ay, az, aw = a
    bx, by, bz, bw = b
    return (aw * bx + bw * ax + (ay * bz - az * by),
            aw * by + bw * ay + (az * bx - ax * bz),
            aw * bz + bw * az + (ax * by - ay * bx),
            aw * bw - (ax * bx + ay * by + az * bz))


def quat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product a (x) b, renormalized."""
    x, y, z, w = hamilton(np.asarray(a, dtype=float).tolist(),
                           np.asarray(b, dtype=float).tolist())
    norm = math.sqrt(x * x + y * y + z * z + w * w)
    return np.array([x / norm, y / norm, z / norm, w / norm])


def quat_from_small_angle(theta: np.ndarray) -> np.ndarray:
    """First-order error quaternion (theta/2, 1), renormalized."""
    x, y, z = (0.5 * np.asarray(theta, dtype=float)).tolist()
    norm = math.sqrt(x * x + y * y + z * z + 1.0)
    return np.array([x / norm, y / norm, z / norm, 1.0 / norm])


def quat_to_rot(q: np.ndarray) -> np.ndarray:
    """Body-to-world rotation matrix of a unit quaternion."""
    x, y, z, w = q
    n = x * x + y * y + z * z + w * w
    s = 2.0 / n
    xx, yy, zz = x * x * s, y * y * s, z * z * s
    xy, xz, yz = x * y * s, x * z * s, y * z * s
    wx, wy, wz = w * x * s, w * y * s, w * z * s
    return np.array([
        [1.0 - (yy + zz), xy - wz, xz + wy],
        [xy + wz, 1.0 - (xx + zz), yz - wx],
        [xz - wy, yz + wx, 1.0 - (xx + yy)],
    ])


def row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of an (N, k) array, bit for bit as
    ``np.linalg.norm`` of each row alone (the same dot product)."""
    x = np.ascontiguousarray(x, dtype=float)
    return np.sqrt((x[:, None, :] @ x[:, :, None])[:, 0, 0])


def skew_batch(omega: np.ndarray) -> np.ndarray:
    """Skew-symmetric matrices (N, 3, 3) of an (N, 3) stack: skew(a) @ b ==
    cross(a, b)."""
    n = omega.shape[0]
    out = np.zeros((n, 3, 3))
    out[:, 0, 1] = -omega[:, 2]
    out[:, 0, 2] = omega[:, 1]
    out[:, 1, 0] = omega[:, 2]
    out[:, 1, 2] = -omega[:, 0]
    out[:, 2, 0] = -omega[:, 1]
    out[:, 2, 1] = omega[:, 0]
    return out


def quat_mul_batch(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """quat_mul for an (N, 4) stack a and one quaternion or a stack b."""
    q = np.stack(hamilton(a.T, np.asarray(b).T), axis=1)
    return q / row_norms(q)[:, None]


def quat_to_rot_batch(q: np.ndarray) -> np.ndarray:
    """quat_to_rot for an (N, 4) stack, returning (N, 3, 3)."""
    x, y, z, w = np.asarray(q, dtype=float).T
    n = x * x + y * y + z * z + w * w
    s = 2.0 / n
    xx, yy, zz = x * x * s, y * y * s, z * z * s
    xy, xz, yz = x * y * s, x * z * s, y * z * s
    wx, wy, wz = w * x * s, w * y * s, w * z * s
    return np.stack([
        1.0 - (yy + zz), xy - wz, xz + wy,
        xy + wz, 1.0 - (xx + zz), yz - wx,
        xz - wy, yz + wx, 1.0 - (xx + yy),
    ], axis=1).reshape(-1, 3, 3)


def rot_to_quat_batch(rot: np.ndarray) -> np.ndarray:
    """Unit quaternions (N, 4) of an (N, 3, 3) stack of rotations,
    canonicalized to w >= 0: each row takes its own branch of four, chosen
    by its diagonal, then the w >= 0 flip and the normalization."""
    m = np.asarray(rot, dtype=float)
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = m.transpose(1, 2, 0)
    # The four branches, each as (t, q).
    t = np.stack([1.0 + m00 - m11 - m22, 1.0 - m00 + m11 - m22,
                  1.0 - m00 - m11 + m22, 1.0 + m00 + m11 + m22])
    q = np.stack([[t[0], m10 + m01, m02 + m20, m21 - m12],
                  [m10 + m01, t[1], m21 + m12, m02 - m20],
                  [m02 + m20, m21 + m12, t[2], m10 - m01],
                  [m21 - m12, m02 - m20, m10 - m01, t[3]]])
    branch = np.where(m22 < 0.0, np.where(m00 > m11, 0, 1),
                      np.where(m00 < -m11, 2, 3))
    rows = np.arange(len(m))
    q = q[branch, :, rows] * (0.5 / np.sqrt(t[branch, rows]))[:, None]
    q[q[:, 3] < 0.0] *= -1.0
    return q / row_norms(q)[:, None]


def exp_so3_batch(theta: np.ndarray) -> np.ndarray:
    """Rodrigues exponentials (N, 3, 3) of an (N, 3) stack of rotation
    increments; below 1e-8 rad a second-order Taylor series keeps them
    finite and orthonormal."""
    theta = np.asarray(theta, dtype=float)
    angle = np.linalg.norm(theta, axis=1)
    k = skew_batch(theta)
    k2 = k @ k
    small = angle < _EXP_TAYLOR_EPS
    safe = np.where(small, 1.0, angle)
    s = np.where(small, 1.0, np.sin(safe) / safe)
    c = np.where(small, 0.5, (1.0 - np.cos(safe)) / (safe * safe))
    out = np.eye(3)[None] + s[:, None, None] * k + c[:, None, None] * k2
    if np.any(small):
        out[small] = np.eye(3)[None] + k[small] + 0.5 * k2[small]
    return out


def log_so3_batch(rot: np.ndarray) -> np.ndarray:
    """log_so3 for an (N, 3, 3) stack; near-pi rows fall back to the scalar path."""
    trace = np.clip(np.trace(rot, axis1=1, axis2=2), -1.0, 3.0)
    angle = np.arccos(np.clip(0.5 * (trace - 1.0), -1.0, 1.0))
    vee = 0.5 * np.stack([rot[:, 2, 1] - rot[:, 1, 2],
                          rot[:, 0, 2] - rot[:, 2, 0],
                          rot[:, 1, 0] - rot[:, 0, 1]], axis=1)
    small = angle < 1e-7
    near_pi = np.pi - angle < _LOG_PI_BRANCH
    safe = np.where(small | near_pi, 1.0, angle)
    scale = np.where(small, 1.0 + angle * angle / 6.0, safe / np.sin(safe))
    out = vee * scale[:, None]
    if np.any(near_pi):
        for i in np.flatnonzero(near_pi):
            out[i] = log_so3(rot[i])
    return out


def right_jacobian_inv_batch(theta: np.ndarray) -> np.ndarray:
    """Inverses of the right Jacobians of an (N, 3) stack."""
    angle = np.linalg.norm(theta, axis=1)
    k = skew_batch(theta)
    k2 = k @ k
    small = angle < _EXP_TAYLOR_EPS
    safe = np.where(small, 1.0, angle)
    c = np.where(small, 1.0 / 12.0,
                 1.0 / (safe * safe)
                 - (1.0 + np.cos(safe)) / (2.0 * safe * np.sin(safe)))
    return np.eye(3)[None] + 0.5 * k + c[:, None, None] * k2


def right_jacobian_batch(theta: np.ndarray) -> np.ndarray:
    """Right Jacobians of the exponential for an (N, 3) stack:
    exp(theta + d) ~ exp(theta) exp(J_r d)."""
    angle = np.linalg.norm(theta, axis=1)
    k = skew_batch(theta)
    k2 = k @ k
    small = angle < _EXP_TAYLOR_EPS
    safe = np.where(small, 1.0, angle)
    a2 = safe * safe
    c1 = np.where(small, 0.5, (1.0 - np.cos(safe)) / a2)
    c2 = np.where(small, 1.0 / 6.0, (safe - np.sin(safe)) / (a2 * safe))
    return np.eye(3)[None] - c1[:, None, None] * k + c2[:, None, None] * k2
