import numpy as np
import pytest

from toafusion import geometry as geo
from toafusion.errors import ConfigError
from toafusion.eskf import GRAVITY, ImuNoiseParams
from toafusion.synthetic import (SyntheticTrajectorySpec,
                                 generate_synthetic_trajectory,
                                 initial_state_from_groundtruth)

from conftest import nominal_step


def dead_reckon(imu, gt):
    state = initial_state_from_groundtruth(gt)
    for k in range(1, len(imu)):
        dt = (imu.t[k] - imu.t[k - 1]) * 1e-9
        state = nominal_step(state, imu.omega[k - 1], imu.accel[k - 1], dt)
    return state


class TestHover:
    def test_equilibrium_outputs(self):
        spec = SyntheticTrajectorySpec(kind="hover_then_dash", duration_s=3.0,
                                       speed_mps=0.0)
        imu, gt = generate_synthetic_trajectory(spec)
        np.testing.assert_allclose(imu.omega[:10], 0.0, atol=1e-15)
        np.testing.assert_allclose(imu.accel[:10], np.tile(-GRAVITY, (10, 1)),
                                   atol=1e-12)
        np.testing.assert_allclose(gt.position[0], gt.position[-1], atol=1e-12)
        np.testing.assert_allclose(gt.orientation[0], gt.orientation[-1], atol=1e-15)


class TestCircle:
    def test_centripetal_magnitude(self):
        spec = SyntheticTrajectorySpec(kind="circle", duration_s=10.0,
                                       speed_mps=1.2, radius_m=2.0)
        imu, _ = generate_synthetic_trajectory(spec)
        # Lateral body accel is the centripetal term; vertical carries gravity.
        expected_lat = spec.speed_mps ** 2 / spec.radius_m
        accel = imu.accel[::100]
        np.testing.assert_allclose(accel[:, 1], expected_lat, rtol=0, atol=1e-9)
        np.testing.assert_allclose(accel[:, 2], 9.81, rtol=0, atol=1e-9)
        assert np.all(np.abs(accel[:, 0]) < 1e-9)

    def test_speed_matches_spec(self):
        spec = SyntheticTrajectorySpec(kind="circle", duration_s=5.0, speed_mps=0.7)
        _, gt = generate_synthetic_trajectory(spec)
        np.testing.assert_allclose(np.linalg.norm(gt.velocity, axis=1), 0.7,
                                   atol=1e-12)

    def test_dead_reckoning_round_trip_60s(self):
        spec = SyntheticTrajectorySpec(kind="circle", duration_s=60.0, speed_mps=1.0)
        imu, gt = generate_synthetic_trajectory(spec)
        state = dead_reckon(imu, gt)
        drift = np.linalg.norm(state.p - gt.position[-1])
        assert drift < 1e-3     # < 1 mm over a full minute


class TestFigureEight:
    def test_velocity_consistent_with_position(self):
        spec = SyntheticTrajectorySpec(kind="figure_eight", duration_s=20.0)
        _, gt = generate_synthetic_trajectory(spec)
        # Central difference of positions approximates the analytic velocity.
        for k in range(1, len(gt) - 1, 50):
            dt = (gt.t[k + 1] - gt.t[k - 1]) * 1e-9
            v_num = (gt.position[k + 1] - gt.position[k - 1]) / dt
            np.testing.assert_allclose(v_num, gt.velocity[k], atol=2e-3)

    def test_dead_reckoning_reasonable(self):
        spec = SyntheticTrajectorySpec(kind="figure_eight", duration_s=30.0,
                                       speed_mps=1.0)
        imu, gt = generate_synthetic_trajectory(spec)
        state = dead_reckon(imu, gt)
        # Zero-order-hold sampling of a curving path costs ~ speed * dt / 2
        # in velocity; centimeters over half a minute.
        assert np.linalg.norm(state.p - gt.position[-1]) < 0.15

    @pytest.mark.parametrize("speed", [1e-200, 1e200])
    def test_non_finite_samples_are_a_config_error(self, speed):
        # 1e-200 gives 0/0 yaw rates, 1e200 overflowing accelerations.
        spec = SyntheticTrajectorySpec(kind="figure_eight", duration_s=2.0,
                                       speed_mps=speed)
        with pytest.raises(ConfigError, match="non-finite IMU samples"):
            generate_synthetic_trajectory(spec)


class TestHoverThenDash:
    def test_phases(self):
        spec = SyntheticTrajectorySpec(kind="hover_then_dash", duration_s=12.0,
                                       speed_mps=1.0)
        imu, gt = generate_synthetic_trajectory(spec)
        assert np.linalg.norm(gt.velocity[0]) == 0.0
        assert np.linalg.norm(gt.velocity[-1]) == 0.0
        top = np.max(np.linalg.norm(gt.velocity, axis=1))
        assert top == pytest.approx(spec.speed_mps, rel=1e-9)
        assert gt.position[-1, 0] > 0.5

    def test_dead_reckoning_exact(self):
        spec = SyntheticTrajectorySpec(kind="hover_then_dash", duration_s=12.0,
                                       speed_mps=1.0)
        imu, gt = generate_synthetic_trajectory(spec)
        state = dead_reckon(imu, gt)
        assert np.linalg.norm(state.p - gt.position[-1]) < 1e-9


class TestNoiseAndBias:
    def test_noiseless_by_default(self):
        spec = SyntheticTrajectorySpec(kind="circle", duration_s=1.0)
        a, _ = generate_synthetic_trajectory(spec)
        b, _ = generate_synthetic_trajectory(spec)
        np.testing.assert_array_equal(a.omega, b.omega)

    def test_noise_deterministic_per_seed(self):
        spec = SyntheticTrajectorySpec(kind="circle", duration_s=1.0,
                                       imu_noise=ImuNoiseParams(), seed=4)
        a, _ = generate_synthetic_trajectory(spec)
        b, _ = generate_synthetic_trajectory(spec)
        np.testing.assert_array_equal(a.omega, b.omega)
        spec2 = SyntheticTrajectorySpec(kind="circle", duration_s=1.0,
                                        imu_noise=ImuNoiseParams(), seed=5)
        c, _ = generate_synthetic_trajectory(spec2)
        assert not np.array_equal(a.omega[0], c.omega[0])

    def test_constant_bias_applied(self):
        bias = np.array([0.01, -0.02, 0.03])
        spec = SyntheticTrajectorySpec(kind="hover_then_dash", duration_s=2.0,
                                       speed_mps=0.0, gyro_bias=bias)
        imu, gt = generate_synthetic_trajectory(spec)
        np.testing.assert_allclose(imu.omega[0], bias, atol=1e-15)
        np.testing.assert_allclose(gt.bias_gyro[0], bias, atol=1e-15)

    def test_white_noise_level(self):
        noise = ImuNoiseParams(sigma_g=1e-3, sigma_a=1e-2)
        spec = SyntheticTrajectorySpec(kind="hover_then_dash", duration_s=30.0,
                                       speed_mps=0.0, imu_noise=noise, seed=0)
        imu, _ = generate_synthetic_trajectory(spec)
        omegas = imu.omega
        # Discrete sigma = density * sqrt(rate)
        expected = 1e-3 * np.sqrt(200.0)
        assert np.std(omegas[:, 0]) == pytest.approx(expected, rel=0.05)

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            SyntheticTrajectorySpec(kind="spiral")


class TestGroundTruthRates:
    def test_rates_and_spans(self):
        spec = SyntheticTrajectorySpec(kind="circle", duration_s=10.0)
        imu, gt = generate_synthetic_trajectory(spec)
        assert len(imu) == 10 * 200 + 1
        assert len(gt) == 10 * 100 + 1
        assert imu.t[0] == gt.t[0] == 0
        assert imu.t[-1] == gt.t[-1] == int(10e9)

    def test_orientation_is_unit_yaw_quaternion(self):
        spec = SyntheticTrajectorySpec(kind="figure_eight", duration_s=5.0)
        _, gt = generate_synthetic_trajectory(spec)
        for q in gt.orientation[::37]:
            assert abs(np.linalg.norm(q) - 1.0) < 1e-12
            rot = geo.quat_to_rot(q)
            assert abs(rot[2, 2] - 1.0) < 1e-12    # yaw-only attitude
