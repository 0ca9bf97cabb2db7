import numpy as np
import pytest
from scipy.linalg import expm
from scipy.spatial.transform import Rotation

from toafusion import geometry as geo

from conftest import random_quaternion, random_rotation
from so3_reference import (exp_so3, right_jacobian_inv_so3, right_jacobian_so3,
                           rot_to_quat, skew)


# Reference helpers; the package itself never needs them.
def is_rotation(rot: np.ndarray, tol: float = 1e-9) -> bool:
    """Orthonormal with unit determinant, entrywise within tol."""
    return (rot.shape == (3, 3) and np.all(np.abs(rot @ rot.T - np.eye(3)) < tol)
            and abs(np.linalg.det(rot) - 1.0) < tol)


def quat_conj(q: np.ndarray) -> np.ndarray:
    return np.array([-q[0], -q[1], -q[2], q[3]])


def quat_exp(theta: np.ndarray) -> np.ndarray:
    """Exact exponential quaternion of a rotation vector."""
    angle = np.linalg.norm(theta)
    if angle < 1e-8:
        return geo.quat_from_small_angle(theta)
    half = 0.5 * angle
    axis = theta / angle
    return np.array([*(axis * np.sin(half)), np.cos(half)])


class TestSkew:
    def test_zero(self):
        np.testing.assert_array_equal(skew(np.zeros(3)), np.zeros((3, 3)))

    def test_reference_layout(self):
        expected = np.array([[0, -3, 2], [3, 0, -1], [-2, 1, 0]], dtype=float)
        np.testing.assert_array_equal(skew(np.array([1.0, 2.0, 3.0])), expected)

    def test_matches_cross_product(self, rng):
        for _ in range(100):
            a, b = rng.standard_normal(3), rng.standard_normal(3)
            np.testing.assert_allclose(skew(a) @ b, np.cross(a, b), atol=1e-12)
            np.testing.assert_allclose(skew(a) @ a, np.zeros(3), atol=1e-12)

    def test_antisymmetry_exact(self, rng):
        for _ in range(20):
            k = skew(rng.standard_normal(3))
            assert np.all(k + k.T == 0.0)


class TestExpLog:
    def test_exp_zero_is_identity(self):
        np.testing.assert_allclose(exp_so3(np.zeros(3)), np.eye(3), atol=1e-15)

    def test_quarter_turn_about_z(self):
        expected = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        np.testing.assert_allclose(exp_so3(np.array([0, 0, np.pi / 2])),
                                   expected, atol=1e-12)

    def test_exp_matches_matrix_exponential(self, rng):
        for _ in range(50):
            theta = rng.uniform(-2.0, 2.0, 3)
            np.testing.assert_allclose(exp_so3(theta), expm(skew(theta)),
                                       atol=1e-12)

    def test_log_identity(self):
        np.testing.assert_allclose(geo.log_so3(np.eye(3)), np.zeros(3), atol=1e-15)

    def test_log_pi_about_x(self):
        rot = exp_so3(np.array([np.pi, 0.0, 0.0]))
        np.testing.assert_allclose(geo.log_so3(rot), [np.pi, 0.0, 0.0], atol=1e-7)

    def test_log_exp_round_trip(self, rng):
        # Angles spanning the Taylor branch up to just below pi.
        for _ in range(1000):
            axis = rng.standard_normal(3)
            axis /= np.linalg.norm(axis)
            angle = 10 ** rng.uniform(-12, np.log10(np.pi - 1e-3))
            theta = axis * angle
            np.testing.assert_allclose(geo.log_so3(exp_so3(theta)), theta,
                                       atol=1e-8)

    def test_exp_log_round_trip(self, rng):
        for _ in range(1000):
            rot = random_rotation(rng)
            np.testing.assert_allclose(exp_so3(geo.log_so3(rot)), rot, atol=1e-8)

    def test_small_angle_branch_finite(self):
        theta = np.array([1e-12, -2e-13, 5e-13])
        rot = exp_so3(theta)
        assert is_rotation(rot)
        np.testing.assert_allclose(geo.log_so3(rot), theta, atol=1e-15)


class TestQuaternion:
    def test_identity_element(self, rng):
        q = random_quaternion(rng)
        np.testing.assert_allclose(geo.quat_mul(q, geo.quat_identity()), q, atol=1e-12)
        np.testing.assert_allclose(geo.quat_mul(geo.quat_identity(), q), q, atol=1e-12)

    def test_conjugate_is_inverse(self, rng):
        for _ in range(50):
            q = random_quaternion(rng)
            ident = geo.quat_mul(q, quat_conj(q))
            np.testing.assert_allclose(np.abs(ident), [0, 0, 0, 1], atol=1e-12)

    def test_homomorphism_with_rotation_matrices(self, rng):
        for _ in range(1000):
            a, b = random_quaternion(rng), random_quaternion(rng)
            lhs = geo.quat_to_rot(geo.quat_mul(a, b))
            rhs = geo.quat_to_rot(a) @ geo.quat_to_rot(b)
            np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    def test_matches_scipy_convention(self, rng):
        # scipy.Rotation quaternions are also scalar-last and Hamilton.
        for _ in range(50):
            q = random_quaternion(rng)
            np.testing.assert_allclose(geo.quat_to_rot(q),
                                       Rotation.from_quat(q).as_matrix(), atol=1e-12)

    def test_round_trip_canonical_sign(self, rng):
        for _ in range(1000):
            q = random_quaternion(rng)
            back = rot_to_quat(geo.quat_to_rot(q))
            assert back[3] >= 0.0
            sign = np.sign(q[3]) if q[3] != 0 else 1.0
            np.testing.assert_allclose(back, sign * q, atol=1e-9)

    def test_quat_to_rot_is_rotation(self, rng):
        for _ in range(1000):
            assert is_rotation(geo.quat_to_rot(random_quaternion(rng)))

    def test_quat_to_rot_batch_matches_scalar(self, rng):
        # Unnormalized rows too: the ESKF rotates by RK4 stage quaternions.
        q = rng.standard_normal((50, 4)) * rng.uniform(0.5, 2.0, (50, 1))
        rot = geo.quat_to_rot_batch(q)
        assert rot.shape == (50, 3, 3)
        for k in range(50):
            np.testing.assert_array_equal(rot[k], geo.quat_to_rot(q[k]))

    def test_identity_round_trip(self):
        np.testing.assert_allclose(geo.quat_to_rot(geo.quat_identity()), np.eye(3),
                                   atol=1e-15)
        np.testing.assert_allclose(rot_to_quat(np.eye(3)), geo.quat_identity(),
                                   atol=1e-15)


class TestSmallAngleQuaternion:
    def test_zero(self):
        np.testing.assert_allclose(geo.quat_from_small_angle(np.zeros(3)),
                                   geo.quat_identity(), atol=1e-15)

    def test_matches_exact_exponential(self):
        theta = np.array([0.0, 0.0, 0.02])
        np.testing.assert_allclose(geo.quat_from_small_angle(theta),
                                   quat_exp(theta), atol=1e-6)

    def test_unit_norm_for_any_input(self, rng):
        for _ in range(100):
            theta = rng.uniform(-2.0, 2.0, 3)
            q = geo.quat_from_small_angle(theta)
            assert abs(np.linalg.norm(q) - 1.0) < 1e-12

    def test_cubic_agreement_bound(self, rng):
        for _ in range(200):
            theta = rng.uniform(-1.0, 1.0, 3)
            theta *= rng.uniform(0.0, 0.1) / max(np.linalg.norm(theta), 1e-12)
            err = np.linalg.norm(geo.quat_from_small_angle(theta) - quat_exp(theta))
            assert err < max(np.linalg.norm(theta) ** 3, 1e-15)


class TestRightJacobian:
    def test_defining_property(self, rng):
        # exp(theta + d) ~ exp(theta) exp(J_r d) for small d.
        for _ in range(50):
            theta = rng.uniform(-2.0, 2.0, 3)
            d = 1e-7 * rng.standard_normal(3)
            lhs = exp_so3(theta + d)
            rhs = exp_so3(theta) @ exp_so3(right_jacobian_so3(theta) @ d)
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_inverse(self, rng):
        for _ in range(50):
            theta = rng.uniform(-2.0, 2.0, 3)
            prod = right_jacobian_so3(theta) @ right_jacobian_inv_so3(theta)
            np.testing.assert_allclose(prod, np.eye(3), atol=1e-10)

    def test_small_angle_limit(self):
        np.testing.assert_allclose(right_jacobian_so3(np.zeros(3)), np.eye(3),
                                   atol=1e-15)
        theta = np.array([1e-10, 0, 0])
        np.testing.assert_allclose(right_jacobian_inv_so3(theta), np.eye(3),
                                   atol=1e-9)


class TestQuaternionBatch:
    def test_quat_mul_batch_matches_scalar(self, rng):
        a = np.array([random_quaternion(rng) for _ in range(20)])
        b = np.array([random_quaternion(rng) for _ in range(20)])
        for other in (b, b[0]):
            got = geo.quat_mul_batch(a, other)
            want = [geo.quat_mul(x, y) for x, y in zip(a, np.broadcast_to(other, a.shape))]
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)

    def test_rot_to_quat_batch_matches_scalar_bit_for_bit(self, rng):
        rot = np.concatenate([
            np.array([random_rotation(rng) for _ in range(400)]),
            # Half turns about each axis and the identity sit on branch edges.
            np.array([np.eye(3), np.diag([1.0, -1.0, -1.0]),
                      np.diag([-1.0, 1.0, -1.0]), np.diag([-1.0, -1.0, 1.0])])])
        m00, m11, m22 = rot[:, 0, 0], rot[:, 1, 1], rot[:, 2, 2]
        branch = np.where(m22 < 0.0, np.where(m00 > m11, 0, 1),
                          np.where(m00 < -m11, 2, 3))
        assert np.bincount(branch, minlength=4).min() >= 20
        got = geo.rot_to_quat_batch(rot)
        want = np.array([rot_to_quat(r) for r in rot])
        assert got.shape == (len(rot), 4)
        assert got.tobytes() == want.tobytes()

    def test_row_norms_match_linalg_norm_bit_for_bit(self, rng):
        x = rng.standard_normal((500, 4)) * 10.0 ** rng.integers(-3, 4, (500, 1))
        np.testing.assert_array_equal(geo.row_norms(x),
                                      [np.linalg.norm(row) for row in x])
