import dataclasses

import numpy as np
import pytest

from toafusion import geometry as geo
from toafusion import preintegration as pre
from toafusion.errors import InvalidDt
from toafusion.eskf import GRAVITY, MAX_DT_S, ImuNoiseParams, NavState

from conftest import (assert_matches_oracle, dead_reckon, imu_residual,
                      make_imu, nominal_step, oracle_integrate, oracle_slice,
                      random_rotation)
from so3_reference import exp_so3


def constant(omega, accel, n, dt=0.005, bias_g=np.zeros(3), bias_a=np.zeros(3),
             noise=None):
    """Increments of one interval of n samples of one constant reading."""
    return pre.integrate_batch(np.tile(omega, (1, n, 1)), np.tile(accel, (1, n, 1)),
                               np.full((1, n), dt), bias_g, bias_a, noise)


def one_interval(omega, accel, dts, bias_g=np.zeros(3), bias_a=np.zeros(3)):
    """Increments of the (n, 3) samples of one interval."""
    return pre.integrate_batch(omega[None], accel[None], dts[None], bias_g, bias_a)


def no_samples():
    """Identity increments over no time."""
    return pre.integrate_batch(np.zeros((1, 0, 3)), np.zeros((1, 0, 3)),
                               np.zeros((1, 0)), np.zeros(3), np.zeros(3))


REST = (np.eye(3), np.zeros(3), np.zeros(3))


class TestIntegrate:
    def test_zero_input_identity_increments(self):
        p = constant(np.zeros(3), np.zeros(3), 50)
        np.testing.assert_allclose(p.d_rot[0], np.eye(3), atol=1e-12)
        np.testing.assert_allclose(p.d_vel[0], np.zeros(3), atol=1e-12)
        np.testing.assert_allclose(p.d_pos[0], np.zeros(3), atol=1e-12)
        assert p.count == 50
        assert p.dt_total[0] == pytest.approx(0.25)

    def test_constant_acceleration_closed_form(self):
        p = constant(np.zeros(3), np.array([1.0, 0.0, 0.0]), 200)
        np.testing.assert_allclose(p.d_vel[0], [1.0, 0.0, 0.0], atol=1e-6)
        np.testing.assert_allclose(p.d_pos[0], [0.5, 0.0, 0.0], atol=1e-6)

    def test_bias_removed_at_linearization_point(self):
        bias_g = np.array([0.01, -0.02, 0.005])
        bias_a = np.array([0.1, 0.2, -0.1])
        # The reading equals the bias.
        p = constant(bias_g, bias_a, 20, bias_g=bias_g, bias_a=bias_a)
        np.testing.assert_allclose(p.d_rot[0], np.eye(3), atol=1e-12)
        np.testing.assert_allclose(p.d_vel[0], np.zeros(3), atol=1e-12)

    def test_invalid_dt(self):
        for dt in (0.0, 0.2):
            with pytest.raises(InvalidDt):
                constant(np.zeros(3), np.zeros(3), 1, dt=dt)

    def test_covariance_psd_and_growing(self, rng):
        # Interval k holds the first k + 1 of the same 100 samples.
        omega = np.tile(rng.uniform(-1, 1, (1, 100, 3)), (100, 1, 1))
        accel = np.tile(rng.uniform(-5, 5, (1, 100, 3)), (100, 1, 1))
        batch = pre.integrate_batch(omega, accel, np.full((100, 100), 0.005),
                                    np.zeros(3), np.zeros(3), ImuNoiseParams(),
                                    counts=np.arange(1, 101))
        traces = [0.0]
        for cov in batch.cov:
            assert np.linalg.eigvalsh(cov).min() > -1e-15
            traces.append(np.trace(cov))
        assert all(traces[i + 1] > traces[i] for i in range(len(traces) - 1))


class TestResiduals:
    """The IMU kernel's unwhitened residual blocks."""

    def test_rotation_residual_zero_when_consistent(self, rng):
        for _ in range(20):
            rot_i = random_rotation(rng)
            p = one_interval(rng.uniform(-1, 1, (10, 3)), np.zeros((10, 3)),
                             np.full(10, 0.005))
            rot_j = rot_i @ p.d_rot[0]
            r = imu_residual(p, (rot_i, np.zeros(3), np.zeros(3)),
                             (rot_j, np.zeros(3), np.zeros(3)))
            np.testing.assert_allclose(r[0:3], np.zeros(3), atol=1e-10)

    def test_rotation_residual_pure_yaw_offset(self):
        rot_j = exp_so3([0.0, 0.0, 0.1])
        r = imu_residual(no_samples(), REST, (rot_j, np.zeros(3), np.zeros(3)))
        np.testing.assert_allclose(r[0:3], [0.0, 0.0, 0.1], atol=1e-12)

    def test_hover_cancellation(self):
        # Gravity-reaction accel makes the position increment cancel the
        # -g dt^2 / 2 term exactly.
        p = constant(np.zeros(3), -GRAVITY, 40)
        r = imu_residual(p, REST, REST)
        np.testing.assert_allclose(r[3:6], np.zeros(3), atol=1e-9)

    def test_position_residual_linearity_in_pj(self, rng):
        rot_i = random_rotation(rng)
        state_i = (rot_i, np.zeros(3), np.zeros(3))
        base = imu_residual(no_samples(), state_i, REST)
        eps = np.array([0.3, 0.0, 0.0])
        shifted = imu_residual(no_samples(), state_i, (np.eye(3), eps, np.zeros(3)))
        np.testing.assert_allclose(shifted[3:6] - base[3:6], rot_i.T @ eps,
                                   atol=1e-12)

    def test_velocity_residual_free_fall(self):
        p = no_samples()
        p.dt_total[0] = 0.5
        r = imu_residual(p, REST, (np.eye(3), np.zeros(3), GRAVITY * 0.5))
        np.testing.assert_allclose(r[6:9], np.zeros(3), atol=1e-12)

    def test_velocity_residual_linear_coefficient(self, rng):
        rot_i = random_rotation(rng)
        state_i = (rot_i, np.zeros(3), np.zeros(3))
        dv = rng.standard_normal(3)
        base = imu_residual(no_samples(), state_i, REST)
        shifted = imu_residual(no_samples(), state_i, (np.eye(3), np.zeros(3), dv))
        np.testing.assert_allclose(shifted[6:9] - base[6:9], rot_i.T @ dv,
                                   atol=1e-12)

    def test_bias_residual(self):
        b_i = np.zeros(6)
        b_j = np.array([1.0, 0, 0, 0, 0, 0])

        def bias_block(bias_i, bias_j):
            return imu_residual(no_samples(), REST + (bias_i,),
                                REST + (bias_j,))[9:15]
        np.testing.assert_array_equal(bias_block(b_i, b_j), [1.0, 0, 0, 0, 0, 0])
        np.testing.assert_array_equal(bias_block(b_i, b_j), -bias_block(b_j, b_i))
        np.testing.assert_array_equal(bias_block(b_j, b_j), np.zeros(6))


class TestConsistencyWithNominalPropagation:
    def propagate_states(self, omega, accel, dts, state0):
        state = state0.copy()
        for w, a, dt in zip(omega, accel, dts):
            state = nominal_step(state, w, a, dt)
        return state

    def motion_residual(self, p, state0, state_j):
        """Rotation, position and velocity residuals between two states."""
        return imu_residual(
            p, (geo.quat_to_rot(state0.q), state0.p, state0.v),
            (geo.quat_to_rot(state_j.q), state_j.p, state_j.v))[0:9]

    def test_residuals_vanish_on_translation_only_stream(self, rng):
        # Without rotation the Euler increments and the RK4 nominal
        # propagation agree exactly, so all residuals must vanish.
        state0 = NavState.identity()
        state0.v = rng.standard_normal(3)
        omega, accel = np.zeros((40, 3)), rng.uniform(-3, 3, (40, 3))
        dts = np.full(40, 0.005)
        state_j = self.propagate_states(omega, accel, dts, state0)

        p = one_interval(omega, accel, dts)
        r = self.motion_residual(p, state0, state_j)
        np.testing.assert_allclose(r[0:3], np.zeros(3), atol=1e-8)
        np.testing.assert_allclose(r[3:6], np.zeros(3), atol=1e-6)
        np.testing.assert_allclose(r[6:9], np.zeros(3), atol=1e-6)

    def test_predict_is_exact_inverse_of_residuals(self, rng):
        # With rotating streams the residuals vanish identically against the
        # increments' own prediction (the first-order scheme is compared
        # with itself, not with the RK4 integrator).
        omega = rng.uniform(-1, 1, (40, 3))
        accel = rng.uniform(-5, 5, (40, 3))
        dts = np.full(40, 0.005)
        p = one_interval(omega, accel, dts)
        rot_i = random_rotation(rng)
        p_i, v_i = rng.standard_normal(3), rng.standard_normal(3)
        rot_j, p_j, v_j = (x[1] for x in pre.predict(p, rot_i, p_i, v_i))
        r = imu_residual(p, (rot_i, p_i, v_i), (rot_j, p_j, v_j))
        np.testing.assert_allclose(r[0:3], np.zeros(3), atol=1e-12)
        np.testing.assert_allclose(r[3:6], np.zeros(3), atol=1e-12)
        np.testing.assert_allclose(r[6:9], np.zeros(3), atol=1e-12)

    def test_slow_rotation_stream_against_nominal(self):
        # First-order versus RK4 discrepancy scales with omega * |a| * dt,
        # so a gentle rotation keeps the residuals small.
        state0 = NavState.identity()
        omega = np.tile([0.0, 0.0, 0.02], (40, 1))
        accel = np.tile(-GRAVITY, (40, 1))
        dts = np.full(40, 0.005)
        state_j = self.propagate_states(omega, accel, dts, state0)
        p = one_interval(omega, accel, dts)
        r = self.motion_residual(p, state0, state_j)
        assert np.linalg.norm(r[3:6]) < 2e-4
        assert np.linalg.norm(r[6:9]) < 2e-3


def random_intervals(rng, lengths, pad=np.nan):
    """Padded (m, n, 3) rates and accelerations and (m, n) steps."""
    m, n = len(lengths), max(lengths)
    omega = np.full((m, n, 3), pad)
    accel = np.full((m, n, 3), pad)
    dts = np.full((m, n), pad)
    for k, count in enumerate(lengths):
        omega[k, :count] = rng.uniform(-1, 1, (count, 3))
        accel[k, :count] = rng.uniform(-5, 5, (count, 3))
        dts[k, :count] = rng.uniform(0.004, 0.006, count)
    return omega, accel, dts


class TestBatchedKernel:
    def test_single_interval_matches_oracle(self, rng):
        noise = ImuNoiseParams()
        for _ in range(5):
            omega, accel, dts = random_intervals(rng, [20])
            bias_g = 0.05 * rng.standard_normal(3)
            bias_a = 0.2 * rng.standard_normal(3)
            p = pre.integrate_batch(omega, accel, dts, bias_g, bias_a, noise)
            assert isinstance(p, pre.PreintegratedBatch)
            assert_matches_oracle(p, 0, oracle_integrate(omega[0], accel[0], dts[0],
                                                         bias_g, bias_a, noise))

    def test_unequal_lengths_match_oracle(self, rng):
        # Dropped or jittered stamps give keyframe intervals of 19-21 samples.
        noise = ImuNoiseParams(sigma_g=3e-3, sigma_a=2e-2)
        lengths = [19, 20, 21, 1, 20]
        omega, accel, dts = random_intervals(rng, lengths)
        bias_g = 0.05 * rng.standard_normal((len(lengths), 3))
        bias_a = 0.2 * rng.standard_normal((len(lengths), 3))
        batch = pre.integrate_batch(omega, accel, dts, bias_g, bias_a, noise,
                                    counts=lengths)
        assert isinstance(batch, pre.PreintegratedBatch)
        assert batch.count == sum(lengths) and isinstance(batch.count, int)
        for k, count in enumerate(lengths):
            expected = oracle_integrate(omega[k, :count], accel[k, :count],
                                        dts[k, :count], bias_g[k], bias_a[k], noise)
            assert_matches_oracle(batch, k, expected)
            np.testing.assert_array_equal(batch.bias_gyro[k], bias_g[k])

    def test_many_intervals_match_oracle(self, rng):
        lengths = list(rng.integers(19, 22, 100))
        omega, accel, dts = random_intervals(rng, lengths)
        bias_g = 0.05 * rng.standard_normal((len(lengths), 3))
        bias_a = 0.2 * rng.standard_normal((len(lengths), 3))
        batch = pre.integrate_batch(omega, accel, dts, bias_g, bias_a,
                                    counts=lengths)
        assert batch.count == sum(lengths)
        for k, count in enumerate(lengths):
            assert_matches_oracle(batch, k, oracle_integrate(
                omega[k, :count], accel[k, :count], dts[k, :count], bias_g[k],
                bias_a[k], ImuNoiseParams()))

    def test_long_fast_intervals_match_oracle(self, rng):
        # 1-256 samples, rates up to 5 rad/s, a bias point per interval and
        # an interval without samples.
        lengths = [256, 1, 0, 97, 200, 13]
        omega, accel, dts = random_intervals(rng, lengths)
        for k, count in enumerate(lengths):
            axis = rng.standard_normal((count, 3))
            omega[k, :count] = (rng.uniform(0.0, 5.0, count)[:, None] * axis
                                / np.linalg.norm(axis, axis=1)[:, None])
        bias_g = 0.05 * rng.standard_normal((len(lengths), 3))
        bias_a = 0.2 * rng.standard_normal((len(lengths), 3))
        noise = ImuNoiseParams(sigma_g=3e-3, sigma_a=2e-2)
        batch = pre.integrate_batch(omega, accel, dts, bias_g, bias_a, noise,
                                    counts=lengths)
        assert batch.count == sum(lengths)
        for k, count in enumerate(lengths):
            assert_matches_oracle(batch, k, oracle_integrate(
                omega[k, :count], accel[k, :count], dts[k, :count], bias_g[k],
                bias_a[k], noise))

    def test_shared_bias_point(self, rng):
        omega, accel, dts = random_intervals(rng, [20, 20, 20])
        bias_g, bias_a = 0.01 * np.ones(3), -0.1 * np.ones(3)
        batch = pre.integrate_batch(omega, accel, dts, bias_g, bias_a)
        for k in range(3):
            assert_matches_oracle(batch, k, oracle_integrate(
                omega[k], accel[k], dts[k], bias_g, bias_a, ImuNoiseParams()))

    def test_padding_leaves_state_bit_for_bit_unchanged(self, rng):
        lengths = [19, 21, 20]
        omega, accel, dts = random_intervals(rng, lengths, pad=np.nan)
        garbage = random_intervals(np.random.default_rng(1), lengths, pad=1e6)
        for k, count in enumerate(lengths):
            for arr, other in zip((omega, accel, dts), garbage):
                other[k, :count] = arr[k, :count]
        args = (np.full(3, 0.02), np.full(3, -0.3), ImuNoiseParams())
        a = pre.integrate_batch(omega, accel, dts, *args, counts=lengths)
        b = pre.integrate_batch(*garbage, *args, counts=lengths)
        for fld in dataclasses.fields(pre.PreintegratedBatch):
            np.testing.assert_array_equal(getattr(a, fld.name), getattr(b, fld.name))
        assert np.all(np.isfinite(a.cov))

    def test_gap_inside_an_interval_is_invalid_dt(self, rng):
        omega, accel, dts = random_intervals(rng, [20, 18, 20])
        dts[1, 7] = MAX_DT_S + 0.05
        with pytest.raises(InvalidDt):
            pre.integrate_batch(omega, accel, dts, np.zeros(3), np.zeros(3),
                                counts=[20, 18, 20])
        dts[1, 7] = 0.0
        with pytest.raises(InvalidDt):
            pre.integrate_batch(omega, accel, dts, np.zeros(3), np.zeros(3),
                                counts=[20, 18, 20])
        # A huge step in a padded slot is not a sample.
        dts[1, 7] = 0.005
        dts[1, 19] = 10.0
        pre.integrate_batch(omega, accel, dts, np.zeros(3), np.zeros(3),
                            counts=[20, 18, 20])

    def test_empty_interval_is_identity(self):
        batch = pre.integrate_batch(np.zeros((2, 0, 3)), np.zeros((2, 0, 3)),
                                    np.zeros((2, 0)), np.zeros(3), np.zeros(3))
        assert batch.count == 0
        np.testing.assert_array_equal(batch.d_rot, np.repeat(np.eye(3)[None], 2, 0))


def assert_bits(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


class TestSlicing:
    def stamps(self, rng, n=400, period=5_000_000, jitter=1_500_000):
        t = np.arange(n, dtype=np.int64) * period
        t[1:] += rng.integers(-jitter, jitter + 1, n - 1)
        return t

    def readings(self, rng, t):
        return make_imu(t, rng.uniform(-1, 1, (len(t), 3)),
                        rng.uniform(-5, 5, (len(t), 3)))

    def check(self, imu, starts, ends):
        """Row k of the padded slice holds, bit for bit, what the
        linear-scan oracle gives for interval [starts[k], ends[k]), and
        counts[k] is its number of samples."""
        omega, accel, dt, counts = pre.slice_imu_between(imu, np.array(starts),
                                                         np.array(ends))
        assert omega.shape == accel.shape == dt.shape + (3,)
        assert dt.shape == (len(starts), int(counts.max(initial=0)))
        for k in range(len(starts)):
            c = counts[k]
            want = oracle_slice(imu, starts[k], ends[k])
            assert c == len(want[2])
            for got, expected in zip((omega[k], accel[k], dt[k]), want):
                assert_bits(got[:c], expected)
                assert not np.any(got[c:])       # padding is zero
        return counts

    def test_jittered_stamps_match_the_per_interval_oracle(self, rng):
        t = self.stamps(rng)
        imu = self.readings(rng, t)
        bounds = list(range(0, int(t[-1]), 100_000_000))
        counts = self.check(imu, bounds[:-1], bounds[1:])
        assert len(set(counts.tolist())) >= 3

    def test_gap_and_capped_last_interval(self, rng):
        t = self.stamps(rng)
        keep = (t < 600_000_000) | (t >= 950_000_000)   # a 350 ms gap
        t = t[keep]
        imu = self.readings(rng, t)
        # Boundaries off the sample grid; the last one before the final
        # sample caps that interval's last step, and the one after the
        # last sample caps the step of the last sample itself.
        bounds = [3_000_000, 250_000_001, 597_000_000, 700_000_000, 900_000_000,
                  1_000_000_000, int(t[-2]) + 1, int(t[-1]) + 2_000_000]
        counts = self.check(imu, bounds[:-1], bounds[1:])
        assert counts[3] == 0              # wholly inside the gap
        _, _, dt, _ = pre.slice_imu_between(imu, np.array(bounds[:-1]),
                                            np.array(bounds[1:]))
        assert dt[-1, counts[-1] - 1] == pytest.approx(2e-3)
        assert dt[-2, counts[-2] - 1] == pytest.approx(1e-9)

    def test_non_adjacent_intervals_match_the_oracle(self, rng):
        # Overlapping, repeated, out of order, apart from each other, one
        # starting before the first sample and one ending past the last.
        t = self.stamps(rng, n=200)
        imu = self.readings(rng, t)
        starts = [300_000_000, 100_000_000, 300_000_000, 640_000_000, -50_000_000,
                  int(t[-3]), 420_000_001, 500_000_000]
        ends = [400_000_000, 350_000_000, 400_000_000, 700_000_000, 20_000_000,
                int(t[-1]) + 3_000_000, 420_000_002, 500_000_000]
        counts = self.check(imu, starts, ends)
        assert counts[5] == 3 and counts[7] == 0
        _, _, dt, _ = pre.slice_imu_between(imu, np.array(starts), np.array(ends))
        assert dt[5, 2] == pytest.approx(3e-3)

    def test_no_samples(self):
        imu = make_imu(np.array([0, 5_000_000]), np.zeros(3), np.zeros(3))
        omega, accel, dt, counts = pre.slice_imu_between(
            imu, np.array([10_000_000, 20_000_000]), np.array([20_000_000, 30_000_000]))
        assert counts.tolist() == [0, 0] and dt.shape == (2, 0)
        assert omega.shape == accel.shape == (2, 0, 3)


class TestPredict:
    def test_matches_a_per_interval_loop(self, rng):
        lengths = [19, 21, 20, 20, 1, 21]
        omega, accel, dts = random_intervals(rng, lengths)
        batch = pre.integrate_batch(omega, accel, dts, np.full(3, 0.01),
                                    np.full(3, -0.2), counts=lengths)
        rot0 = random_rotation(rng)
        p0, v0 = rng.standard_normal(3), rng.standard_normal(3)
        gravity = np.array([0.1, -0.2, -9.8])
        rot, pos, vel = pre.predict(batch, rot0, p0, v0, gravity)
        want = [(rot0, p0, v0)]
        for k in range(len(lengths)):
            want.append(dead_reckon(batch, k, *want[-1], gravity))
        for got, col in zip((rot, pos, vel), zip(*want)):
            assert_bits(got, np.array(col))
