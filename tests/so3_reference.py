"""Scalar SO(3) and quaternion helpers, kept as references for the batched
kernels of `toafusion.geometry`, which the package uses instead."""

import numpy as np

from toafusion import geometry as geo


def skew(omega: np.ndarray) -> np.ndarray:
    """Skew-symmetric matrix such that skew(a) @ b == cross(a, b)."""
    x, y, z = omega
    return np.array([
        [0.0, -z, y],
        [z, 0.0, -x],
        [-y, x, 0.0],
    ])


def exp_so3(theta: np.ndarray) -> np.ndarray:
    """Rodrigues exponential of a rotation increment."""
    theta = np.asarray(theta, dtype=float)
    angle = np.linalg.norm(theta)
    k = skew(theta)
    if angle < geo._EXP_TAYLOR_EPS:
        # Second-order Taylor keeps the result finite and orthonormal
        # to machine precision for vanishing angles.
        return np.eye(3) + k + 0.5 * (k @ k)
    s = np.sin(angle) / angle
    c = (1.0 - np.cos(angle)) / (angle * angle)
    return np.eye(3) + s * k + c * (k @ k)


def right_jacobian_so3(theta: np.ndarray) -> np.ndarray:
    """Right Jacobian of exp_so3: exp(theta + d) ~ exp(theta) exp(J_r d)."""
    angle = np.linalg.norm(theta)
    k = skew(theta)
    if angle < geo._EXP_TAYLOR_EPS:
        return np.eye(3) - 0.5 * k + (k @ k) / 6.0
    a2 = angle * angle
    c1 = (1.0 - np.cos(angle)) / a2
    c2 = (angle - np.sin(angle)) / (a2 * angle)
    return np.eye(3) - c1 * k + c2 * (k @ k)


def right_jacobian_inv_so3(theta: np.ndarray) -> np.ndarray:
    """Inverse of right_jacobian_so3."""
    angle = np.linalg.norm(theta)
    k = skew(theta)
    if angle < geo._EXP_TAYLOR_EPS:
        return np.eye(3) + 0.5 * k + (k @ k) / 12.0
    a2 = angle * angle
    c = 1.0 / a2 - (1.0 + np.cos(angle)) / (2.0 * angle * np.sin(angle))
    return np.eye(3) + 0.5 * k + c * (k @ k)


def rot_to_quat(rot: np.ndarray) -> np.ndarray:
    """Unit quaternion of a rotation matrix, canonicalized to w >= 0."""
    m = rot
    if m[2, 2] < 0.0:
        if m[0, 0] > m[1, 1]:
            t = 1.0 + m[0, 0] - m[1, 1] - m[2, 2]
            q = np.array([t, m[1, 0] + m[0, 1], m[0, 2] + m[2, 0], m[2, 1] - m[1, 2]])
        else:
            t = 1.0 - m[0, 0] + m[1, 1] - m[2, 2]
            q = np.array([m[1, 0] + m[0, 1], t, m[2, 1] + m[1, 2], m[0, 2] - m[2, 0]])
    else:
        if m[0, 0] < -m[1, 1]:
            t = 1.0 - m[0, 0] - m[1, 1] + m[2, 2]
            q = np.array([m[0, 2] + m[2, 0], m[2, 1] + m[1, 2], t, m[1, 0] - m[0, 1]])
        else:
            t = 1.0 + m[0, 0] + m[1, 1] + m[2, 2]
            q = np.array([m[2, 1] - m[1, 2], m[0, 2] - m[2, 0], m[1, 0] - m[0, 1], t])
    q = q * (0.5 / np.sqrt(t))
    if q[3] < 0.0:
        q = -q
    return geo.quat_normalize(q)
