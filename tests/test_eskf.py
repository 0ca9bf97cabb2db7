import numpy as np
import pytest
from scipy.linalg import expm

from toafusion import eskf
from toafusion import geometry as geo
from toafusion.dataset import ImuSample, ToaMeasurement
from toafusion.errors import DegenerateGeometry, InvalidDt, UnknownBsId
from toafusion.eskf import (GRAVITY, FilterConfig, ImuNoiseParams, NavState,
                            SL_BA, SL_BG, SL_P, SL_TH, SL_V)
from toafusion.toa_sim import BaseStation, default_stations

from conftest import random_quaternion


def random_state(rng) -> NavState:
    return NavState(q=random_quaternion(rng),
                    b_g=0.01 * rng.standard_normal(3),
                    v=rng.standard_normal(3),
                    b_a=0.05 * rng.standard_normal(3),
                    p=rng.uniform(-5, 5, 3))


def random_imu(rng, t=0) -> ImuSample:
    return ImuSample(t, rng.uniform(-1, 1, 3), rng.uniform(-5, 5, 3))


def error_rate_oracle(state: NavState, imu: ImuSample, delta: np.ndarray,
                      eta: np.ndarray) -> np.ndarray:
    """Exact time derivative of the error state (nonlinear, no truncation).

    The error convention matches the filter: the true attitude is
    q_nom (x) exp(dtheta) with dtheta expressed in the body frame; all
    other errors are additive. Independent of the Jacobian code under test.
    """
    dtheta = delta[SL_TH]
    b_g = state.b_g + delta[SL_BG]
    b_a = state.b_a + delta[SL_BA]
    eta_g, eta_wg, eta_a, eta_wa = eta[0:3], eta[3:6], eta[6:9], eta[9:12]

    w_true = imu.omega - b_g - eta_g
    a_true = imu.accel - b_a - eta_a
    w_nom = imu.omega - state.b_g
    a_nom = imu.accel - state.b_a

    rot_nom = geo.quat_to_rot(state.q)
    rot_true = rot_nom @ geo.exp_so3(dtheta)

    dtheta_dot = geo.right_jacobian_inv_so3(dtheta) @ (
        w_true - geo.exp_so3(dtheta).T @ w_nom)
    dv_dot = rot_true @ a_true - rot_nom @ a_nom
    return np.concatenate([dtheta_dot, eta_wg, dv_dot, eta_wa, delta[SL_V]])


def finite_difference_f_g(state, imu, eps=1e-6):
    f_fd = np.zeros((15, 15))
    for j in range(15):
        d = np.zeros(15)
        d[j] = eps
        plus = error_rate_oracle(state, imu, d, np.zeros(12))
        minus = error_rate_oracle(state, imu, -d, np.zeros(12))
        f_fd[:, j] = (plus - minus) / (2 * eps)
    g_fd = np.zeros((15, 12))
    for j in range(12):
        e = np.zeros(12)
        e[j] = eps
        plus = error_rate_oracle(state, imu, np.zeros(15), e)
        minus = error_rate_oracle(state, imu, np.zeros(15), -e)
        g_fd[:, j] = (plus - minus) / (2 * eps)
    return f_fd, g_fd


class TestPropagateNominal:
    def test_hover_equilibrium(self):
        state = NavState.identity()
        imu = ImuSample(0, np.zeros(3), -GRAVITY)   # measures +9.81 up
        for _ in range(200):
            state = eskf.propagate_nominal(state, imu, 0.005)
        np.testing.assert_allclose(state.p, np.zeros(3), atol=1e-9)
        np.testing.assert_allclose(state.v, np.zeros(3), atol=1e-9)
        np.testing.assert_allclose(state.q, geo.quat_identity(), atol=1e-9)

    def test_free_fall_closed_form(self):
        state = NavState.identity()
        imu = ImuSample(0, np.zeros(3), np.zeros(3))
        for _ in range(200):
            state = eskf.propagate_nominal(state, imu, 0.005)
        np.testing.assert_allclose(state.v, GRAVITY, atol=1e-9)
        np.testing.assert_allclose(state.p, 0.5 * GRAVITY, atol=1e-9)

    def test_constant_yaw_rate(self):
        state = NavState.identity()
        imu = ImuSample(0, np.array([0.0, 0.0, 1.0]), np.zeros(3))
        steps = 1000
        dt = np.pi / steps
        for _ in range(steps):
            state = eskf.propagate_nominal(state, imu, dt)
        np.testing.assert_allclose(geo.quat_to_rot(state.q),
                                   geo.exp_so3([0.0, 0.0, np.pi]), atol=1e-6)

    def test_bias_subtraction(self, rng):
        # A bias equal to the reading makes the step a pure-gravity fall.
        omega = rng.standard_normal(3)
        accel = rng.standard_normal(3)
        state = NavState.identity()
        state.b_g = omega.copy()
        state.b_a = accel.copy()
        out = eskf.propagate_nominal(state, ImuSample(0, omega, accel), 0.01)
        np.testing.assert_allclose(out.v, 0.01 * GRAVITY, atol=1e-12)

    @pytest.mark.parametrize("dt", [0.0, -0.01, 0.11])
    def test_invalid_dt(self, dt):
        with pytest.raises(InvalidDt):
            eskf.propagate_nominal(NavState.identity(), ImuSample(0, np.zeros(3), np.zeros(3)), dt)


class TestErrorJacobians:
    def test_structure_at_rest(self):
        state = NavState.identity()
        imu = ImuSample(0, np.zeros(3), np.zeros(3))
        f, g = eskf.error_jacobians(state, imu)
        expected_f = np.zeros((15, 15))
        expected_f[SL_TH, SL_BG] = -np.eye(3)
        expected_f[SL_V, SL_BA] = -np.eye(3)
        expected_f[SL_P, SL_V] = np.eye(3)
        np.testing.assert_array_equal(f, expected_f)
        assert np.all(f[SL_TH, SL_TH] == 0.0)

    def test_attitude_block_is_minus_skew(self):
        state = NavState.identity()
        imu = ImuSample(0, np.array([0.0, 0.0, 1.0]), np.zeros(3))
        f, _ = eskf.error_jacobians(state, imu)
        np.testing.assert_array_equal(f[SL_TH, SL_TH], -geo.skew([0.0, 0.0, 1.0]))

    def test_g_noise_routing(self, rng):
        state = random_state(rng)
        _, g = eskf.error_jacobians(state, random_imu(rng))
        np.testing.assert_array_equal(g[SL_TH, 0:3], -np.eye(3))
        np.testing.assert_array_equal(g[SL_BG, 3:6], np.eye(3))
        np.testing.assert_allclose(g[SL_V, 6:9], -geo.quat_to_rot(state.q))
        np.testing.assert_array_equal(g[SL_BA, 9:12], np.eye(3))

    def test_matches_finite_differences(self, rng):
        for _ in range(100):
            state = random_state(rng)
            imu = random_imu(rng)
            f, g = eskf.error_jacobians(state, imu)
            f_fd, g_fd = finite_difference_f_g(state, imu)
            assert np.linalg.norm(f - f_fd) / np.linalg.norm(f_fd) < 1e-5
            assert np.linalg.norm(g - g_fd) / np.linalg.norm(g_fd) < 1e-5


class TestPropagateCovariance:
    def test_zero_dynamics_zero_noise(self, rng):
        p = np.diag(rng.uniform(0.1, 1.0, 15))
        out = eskf.propagate_covariance(p, np.zeros((15, 15)), np.zeros((15, 12)),
                                        np.zeros((12, 12)), 0.01)
        np.testing.assert_allclose(out, p, atol=1e-15)

    def test_linear_growth_without_dynamics(self, rng):
        p = np.eye(15)
        g = np.zeros((15, 12))
        g[SL_TH, 0:3] = -np.eye(3)
        q = np.diag([0.01] * 12)
        dt = 0.002
        out = eskf.propagate_covariance(p, np.zeros((15, 15)), g, q, dt)
        expected = p + g @ q @ g.T * dt
        np.testing.assert_allclose(out, expected, atol=1e-9)

    def test_van_loan_oracle(self, rng):
        # Exact discrete propagation via the matrix-exponential construction.
        for _ in range(20):
            f = rng.standard_normal((15, 15))
            f /= max(np.linalg.norm(f, 2), 1.0)
            g = rng.standard_normal((15, 12)) * 0.5
            q = np.diag(rng.uniform(0.0, 0.1, 12))
            p0 = rng.standard_normal((15, 15))
            p0 = p0 @ p0.T + 0.1 * np.eye(15)
            dt = 0.005
            big = np.zeros((30, 30))
            big[:15, :15] = -f
            big[:15, 15:] = g @ q @ g.T
            big[15:, 15:] = f.T
            ed = expm(big * dt)
            phi = ed[15:, 15:].T
            q_d = phi @ ed[:15, 15:]
            exact = phi @ p0 @ phi.T + q_d
            out = eskf.propagate_covariance(p0, f, g, q, dt)
            np.testing.assert_allclose(out, 0.5 * (exact + exact.T), atol=1e-8)

    def test_stays_symmetric_and_psd(self, rng):
        state = random_state(rng)
        imu = random_imu(rng)
        f, g = eskf.error_jacobians(state, imu)
        p = eskf.default_initial_covariance()
        q = ImuNoiseParams().q_matrix()
        for _ in range(500):
            p = eskf.propagate_covariance(p, f, g, q, 0.005)
        assert np.max(np.abs(p - p.T)) < 1e-9
        assert np.min(np.linalg.eigvalsh(p)) > -1e-9


class TestMeasurementJacobian:
    def test_unit_direction(self):
        state = NavState.identity()
        state.p = np.array([1.0, 0.0, 0.0])
        h = eskf.measurement_jacobian(state, [BaseStation(1, np.zeros(3))])
        expected = np.zeros((1, 15))
        expected[0, 12] = 1.0
        np.testing.assert_allclose(h, expected, atol=1e-12)

    def test_shape_and_zero_blocks(self, rng):
        state = random_state(rng)
        h = eskf.measurement_jacobian(state, default_stations(2))
        assert h.shape == (2, 15)
        assert np.all(h[:, :12] == 0.0)

    def test_matches_finite_differences(self, rng):
        stations = default_stations(5)
        for _ in range(100):
            state = random_state(rng)
            h = eskf.measurement_jacobian(state, stations)
            eps = 1e-6
            for j in range(3):
                plus, minus = state.copy(), state.copy()
                plus.p = state.p + eps * np.eye(3)[j]
                minus.p = state.p - eps * np.eye(3)[j]
                col = (eskf.predicted_ranges(plus, stations)
                       - eskf.predicted_ranges(minus, stations)) / (2 * eps)
                rel = np.abs(h[:, 12 + j] - col) / np.maximum(np.abs(col), 1e-3)
                assert np.all(rel < 1e-6)

    def test_degenerate_geometry(self):
        state = NavState.identity()
        with pytest.raises(DegenerateGeometry):
            eskf.measurement_jacobian(state, [BaseStation(1, np.zeros(3))])


class TestUpdate:
    def test_zero_residual_leaves_state(self, rng):
        state = random_state(rng)
        stations = default_stations(5)
        p = eskf.default_initial_covariance()
        d = eskf.predicted_ranges(state, stations)
        meas = [ToaMeasurement(0, bs.id, d[k]) for k, bs in enumerate(stations)]
        new_state, new_p = eskf.update(state, p, meas, stations, 0.01 * np.eye(5))
        np.testing.assert_allclose(new_state.p, state.p, atol=1e-12)
        np.testing.assert_allclose(new_state.q, state.q, atol=1e-12)
        assert np.trace(new_p) <= np.trace(p) + 1e-12

    def test_scalar_kalman_oracle(self):
        # Single station on the x axis reduces to the textbook 1-D filter.
        state = NavState.identity()
        state.p = np.array([2.0, 0.0, 0.0])
        stations = [BaseStation(1, np.zeros(3))]
        p = np.diag([1e-9] * 12 + [0.25, 1e-9, 1e-9])
        r_var = 0.04
        d_meas = 2.5
        new_state, new_p = eskf.update(state, p, [ToaMeasurement(0, 1, d_meas)],
                                       stations, np.array([[r_var]]))
        gain = 0.25 / (0.25 + r_var)
        np.testing.assert_allclose(new_state.p[0], 2.0 + gain * 0.5, atol=1e-8)
        np.testing.assert_allclose(new_p[12, 12], (1 - gain) * 0.25, atol=1e-8)

    def test_repeated_updates_converge(self):
        stations = default_stations(5)
        truth = np.array([0.5, -0.3, 1.2])
        meas = [ToaMeasurement(0, bs.id, float(np.linalg.norm(truth - bs.position)))
                for bs in stations]
        state = NavState.identity()
        state.p = truth + np.array([0.5, 0.4, -0.6])
        p = eskf.default_initial_covariance()
        r = 1e-6 * np.eye(5)
        errs = [np.linalg.norm(state.p - truth)]
        for _ in range(200):
            state, p = eskf.update(state, p, meas, stations, r)
            errs.append(np.linalg.norm(state.p - truth))
        # Repeated identical measurements accumulate information, so the
        # error decays harmonically (P ~ R/k), not geometrically.
        assert all(errs[i + 1] <= errs[i] + 1e-12 for i in range(len(errs) - 1))
        assert errs[10] < 0.02 * errs[0]
        assert errs[-1] < 1e-3

    def test_huge_r_ignores_measurement(self, rng):
        state = random_state(rng)
        stations = default_stations(3)
        p = eskf.default_initial_covariance()
        meas = [ToaMeasurement(0, bs.id, 10.0) for bs in stations]
        new_state, _ = eskf.update(state, p, meas, stations, 1e12 * np.eye(3))
        assert np.linalg.norm(new_state.p - state.p) < 1e-6
        assert np.linalg.norm(new_state.v - state.v) < 1e-6

    def test_trace_never_increases(self, rng):
        stations = default_stations(4)
        for _ in range(20):
            state = random_state(rng)
            p = eskf.default_initial_covariance() * rng.uniform(0.5, 2.0)
            meas = [ToaMeasurement(0, bs.id, float(rng.uniform(1, 50)))
                    for bs in stations]
            _, new_p = eskf.update(state, p, meas, stations, 0.01 * np.eye(4))
            assert np.trace(new_p) <= np.trace(p) + 1e-12

    def test_subset_of_stations(self, rng):
        state = random_state(rng)
        stations = default_stations(5)
        p = eskf.default_initial_covariance()
        meas = [ToaMeasurement(0, 2, 10.0), ToaMeasurement(0, 5, 12.0)]
        new_state, new_p = eskf.update(state, p, meas, stations, 0.01 * np.eye(2))
        assert new_p.shape == (15, 15)
        assert np.all(np.isfinite(new_state.p))

    def test_inject_zero_is_identity(self, rng):
        state = random_state(rng)
        out = eskf.inject_error(state, np.zeros(15))
        np.testing.assert_allclose(out.q, state.q, atol=1e-15)
        np.testing.assert_allclose(out.p, state.p, atol=1e-15)
        np.testing.assert_allclose(out.b_g, state.b_g, atol=1e-15)


class TestRunFilter:
    def make_inputs(self, with_toa=True):
        imu = [ImuSample(int(i * 5e6), np.zeros(3), -GRAVITY) for i in range(401)]
        toa = []
        if with_toa:
            stations = default_stations(5)
            for tick in range(0, 11):
                t = int(tick * 2e8)
                for bs in stations:
                    toa.append(ToaMeasurement(t, bs.id,
                                              float(np.linalg.norm(bs.position))))
        return imu, toa

    def make_config(self):
        return FilterConfig(initial_state=NavState.identity(),
                            stations=default_stations(5),
                            meas_std=np.zeros(5))

    def test_empty_toa_gives_empty_output(self):
        imu, _ = self.make_inputs(with_toa=False)
        run = eskf.run_filter(imu, [], self.make_config())
        assert run.estimates == []

    def test_emit_at_imu_rate(self):
        imu, _ = self.make_inputs(with_toa=False)
        config = self.make_config()
        config.emit_at_imu_rate = True
        run = eskf.run_filter(imu, [], config)
        assert len(run.estimates) == len(imu) - 1

    def test_update_cadence_output(self):
        imu, toa = self.make_inputs()
        run = eskf.run_filter(imu, toa, self.make_config())
        assert len(run.estimates) == 11
        assert run.estimates[0].t == 0 or run.estimates[0].t == int(5e6)

    def test_deterministic(self):
        imu, toa = self.make_inputs()
        a = eskf.run_filter(imu, toa, self.make_config())
        b = eskf.run_filter(imu, toa, self.make_config())
        for ea, eb in zip(a.estimates, b.estimates):
            assert ea.t == eb.t
            np.testing.assert_array_equal(ea.state.p, eb.state.p)
            np.testing.assert_array_equal(ea.state.q, eb.state.q)

    def test_hover_stays_put(self):
        imu, toa = self.make_inputs()
        run = eskf.run_filter(imu, toa, self.make_config())
        final = run.estimates[-1].state
        np.testing.assert_allclose(final.p, np.zeros(3), atol=1e-6)

    def test_unknown_bs_id_is_a_data_error(self):
        imu, toa = self.make_inputs()
        toa.append(ToaMeasurement(toa[-1].t + int(2e8), 99, 5.0))
        with pytest.raises(UnknownBsId, match="bs_id 99"):
            eskf.run_filter(imu, toa, self.make_config())
