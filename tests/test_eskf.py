import time

import numpy as np
import pytest
from scipy.linalg import expm

from toafusion import eskf
from toafusion import geometry as geo
from toafusion.config import ExperimentConfig
from toafusion.dataset import ImuSample, ToaMeasurement
from toafusion.errors import DegenerateGeometry, InvalidDt, UnknownBsId
from toafusion.eskf import (GRAVITY, FilterConfig, ImuNoiseParams, NavState,
                            SL_BA, SL_BG, SL_P, SL_TH, SL_V)
from toafusion.pipeline import load_inputs, meas_std, obtain_toa
from toafusion.synthetic import initial_state_from_groundtruth
from toafusion.toa_sim import BaseStation, default_stations

from conftest import (oracle_error_jacobians, oracle_propagate_covariance,
                      oracle_propagate_nominal, oracle_run_filter,
                      random_quaternion)


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


def batched_jacobians(states, imus):
    """error_jacobians on the stacked attitudes and bias-corrected inputs."""
    return eskf.error_jacobians(
        np.array([s.q for s in states]),
        np.array([m.omega - s.b_g for s, m in zip(states, imus)]),
        np.array([m.accel - s.b_a for s, m in zip(states, imus)]))


class TestErrorJacobians:
    def test_structure_at_rest(self):
        expected_f = np.zeros((15, 15))
        expected_f[SL_TH, SL_BG] = -np.eye(3)
        expected_f[SL_V, SL_BA] = -np.eye(3)
        expected_f[SL_P, SL_V] = np.eye(3)
        for n in (1, 3):
            f, g = batched_jacobians([NavState.identity()] * n,
                                     [ImuSample(0, np.zeros(3), np.zeros(3))] * n)
            assert f.shape == (n, 15, 15) and g.shape == (n, 15, 12)
            for k in range(n):
                np.testing.assert_array_equal(f[k], expected_f)
                assert np.all(f[k, SL_TH, SL_TH] == 0.0)

    def test_attitude_block_is_minus_skew(self):
        for n in (1, 4):
            rates = [np.array([0.0, 0.0, 1.0 + k]) for k in range(n)]
            f, _ = batched_jacobians([NavState.identity()] * n,
                                     [ImuSample(0, w, np.zeros(3)) for w in rates])
            for k, w in enumerate(rates):
                np.testing.assert_array_equal(f[k, SL_TH, SL_TH], -geo.skew(w))

    def test_g_noise_routing(self, rng):
        for n in (1, 5):
            states = [random_state(rng) for _ in range(n)]
            _, g = batched_jacobians(states, [random_imu(rng) for _ in range(n)])
            for k, state in enumerate(states):
                np.testing.assert_array_equal(g[k, SL_TH, 0:3], -np.eye(3))
                np.testing.assert_array_equal(g[k, SL_BG, 3:6], np.eye(3))
                np.testing.assert_allclose(g[k, SL_V, 6:9], -geo.quat_to_rot(state.q))
                np.testing.assert_array_equal(g[k, SL_BA, 9:12], np.eye(3))

    def test_matches_finite_differences(self, rng):
        # 100 samples one at a time (n = 1), then 100 in one call.
        for n, calls in ((1, 100), (100, 1)):
            for _ in range(calls):
                states = [random_state(rng) for _ in range(n)]
                imus = [random_imu(rng) for _ in range(n)]
                f, g = batched_jacobians(states, imus)
                for k in range(n):
                    f_fd, g_fd = finite_difference_f_g(states[k], imus[k])
                    assert np.linalg.norm(f[k] - f_fd) / np.linalg.norm(f_fd) < 1e-5
                    assert np.linalg.norm(g[k] - g_fd) / np.linalg.norm(g_fd) < 1e-5

    def test_matches_per_sample_oracle_exactly(self, rng):
        states = [random_state(rng) for _ in range(30)]
        imus = [random_imu(rng) for _ in range(30)]
        f, g = batched_jacobians(states, imus)
        for k in range(30):
            f_one, g_one = oracle_error_jacobians(states[k], imus[k])
            np.testing.assert_array_equal(f[k], f_one)
            np.testing.assert_array_equal(g[k], g_one)


def van_loan(p0, f, g, q, dt):
    """Exact discrete propagation via the matrix-exponential construction."""
    big = np.zeros((30, 30))
    big[:15, :15] = -f
    big[:15, 15:] = g @ q @ g.T
    big[15:, 15:] = f.T
    ed = expm(big * dt)
    phi = ed[15:, 15:].T
    q_d = phi @ ed[:15, 15:]
    exact = phi @ p0 @ phi.T + q_d
    return 0.5 * (exact + exact.T)


class TestPropagateCovariance:
    def test_zero_dynamics_zero_noise(self, rng):
        p = np.diag(rng.uniform(0.1, 1.0, 15))
        for n in (1, 4):
            out = eskf.propagate_covariance(p, np.zeros((n, 15, 15)),
                                            np.zeros((n, 15, 12)),
                                            np.zeros((12, 12)), np.full(n, 0.01))
            assert out.shape == (n, 15, 15)
            for k in range(n):
                np.testing.assert_allclose(out[k], p, atol=1e-15)

    def test_linear_growth_without_dynamics(self, rng):
        p = np.eye(15)
        g = np.zeros((15, 12))
        g[SL_TH, 0:3] = -np.eye(3)
        q = np.diag([0.01] * 12)
        dt = 0.002
        for n in (1, 4):
            out = eskf.propagate_covariance(p, np.zeros((n, 15, 15)),
                                            np.repeat(g[None], n, axis=0), q,
                                            np.full(n, dt))
            for k in range(n):
                expected = p + g @ q @ g.T * dt * (k + 1)
                np.testing.assert_allclose(out[k], expected, atol=1e-9)

    def test_van_loan_oracle(self, rng):
        for _ in range(20):
            f = rng.standard_normal((15, 15))
            f /= max(np.linalg.norm(f, 2), 1.0)
            g = rng.standard_normal((15, 12)) * 0.5
            q = np.diag(rng.uniform(0.0, 0.1, 12))
            p0 = rng.standard_normal((15, 15))
            p0 = p0 @ p0.T + 0.1 * np.eye(15)
            dt = 0.005
            out = eskf.propagate_covariance(p0, f[None], g[None], q,
                                            np.array([dt]))
            np.testing.assert_allclose(out[0], van_loan(p0, f, g, q, dt),
                                       atol=1e-8)

    def test_van_loan_oracle_chained(self, rng):
        # Five different steps in one call, each checked against Van Loan
        # from the previous exact covariance.
        n = 5
        f = rng.standard_normal((n, 15, 15))
        f /= np.maximum(np.linalg.norm(f, 2, axis=(1, 2)), 1.0)[:, None, None]
        g = rng.standard_normal((n, 15, 12)) * 0.5
        q = np.diag(rng.uniform(0.0, 0.1, 12))
        dt = rng.uniform(0.004, 0.006, n)
        p = rng.standard_normal((15, 15))
        p = p @ p.T + 0.1 * np.eye(15)
        out = eskf.propagate_covariance(p, f, g, q, dt)
        for k in range(n):
            p = van_loan(p, f[k], g[k], q, dt[k])
            np.testing.assert_allclose(out[k], p, atol=1e-8)

    def test_stays_symmetric_and_psd(self, rng):
        f, g = batched_jacobians([random_state(rng)], [random_imu(rng)])
        q = ImuNoiseParams().q_matrix()
        # 500 steps: one per call (n = 1), then all in one call.
        for n, calls in ((1, 500), (500, 1)):
            p = eskf.default_initial_covariance()
            for _ in range(calls):
                p = eskf.propagate_covariance(p, np.repeat(f, n, axis=0),
                                              np.repeat(g, n, axis=0), q,
                                              np.full(n, 0.005))[-1]
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


def figure_eight_inputs(seed: int, duration_s: float = 10.0):
    """IMU, ToA and a FilterConfig for a noisy figure-eight, as the pipeline
    builds them."""
    cfg = ExperimentConfig()
    cfg.trajectory.duration_s = duration_s
    imu, gt = load_inputs(cfg, seed)
    toa = obtain_toa(cfg, gt, seed, cfg.stations.count)
    config = FilterConfig(initial_state=initial_state_from_groundtruth(gt),
                          stations=cfg.base_stations(cfg.stations.count),
                          meas_std=meas_std(cfg, cfg.stations.count),
                          noise=cfg.imu_model, sigma_floor=cfg.eskf.sigma_floor)
    return imu, toa, config


class TestSegmentsMatchPerSampleOracle:
    @pytest.mark.parametrize("dt", [0.001, 0.005, 0.02])
    def test_scalar_nominal_step(self, rng, dt):
        for _ in range(50):
            state = random_state(rng)
            imu = random_imu(rng)
            got = eskf.propagate_nominal(state, imu, dt)
            want = oracle_propagate_nominal(state, imu, dt, GRAVITY)
            for name in ("q", "b_g", "v", "b_a", "p"):
                np.testing.assert_allclose(getattr(got, name), getattr(want, name),
                                           rtol=0, atol=1e-14, err_msg=name)

    def test_segment_chain_matches_rk4(self, rng):
        # A 40-step segment of one trajectory: attitudes and inputs vary.
        state = random_state(rng)
        states, imus = [], []
        for _ in range(40):
            imus.append(random_imu(rng))
            state = eskf.propagate_nominal(state, imus[-1], 0.005)
            states.append(state)
        f, g = batched_jacobians(states, imus)
        q = ImuNoiseParams().q_matrix()
        p = eskf.default_initial_covariance()
        out = eskf.propagate_covariance(p, f, g, q, np.full(40, 0.005))
        for k in range(40):
            p = oracle_propagate_covariance(p, f[k], g[k], q, 0.005)
            assert np.max(np.abs(out[k] - p)) <= 1e-9 * np.max(np.abs(p))

    @pytest.mark.parametrize("emit", [False, True])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_run_filter(self, seed, emit):
        imu, toa, config = figure_eight_inputs(seed)
        config.emit_at_imu_rate = emit
        run = eskf.run_filter(imu, toa, config)
        want = oracle_run_filter(imu, toa, config)
        assert len(run.estimates) == len(want)
        assert len(run.estimates) == (len(imu) - 1 + 51 if emit else 51)
        for est, (t, state, cov_diag) in zip(run.estimates, want):
            assert est.t == t
            np.testing.assert_allclose(est.state.p, state.p, rtol=0, atol=1e-9)
            np.testing.assert_allclose(est.state.q, state.q, rtol=0, atol=1e-9)
            np.testing.assert_allclose(est.cov_diag, cov_diag, rtol=1e-8)

    def test_gap_inside_a_segment_raises_invalid_dt(self):
        imu, toa, config = figure_eight_inputs(0, duration_s=2.0)
        # Ticks every 40 samples; drop 30 samples between the ticks at
        # samples 40 and 80, a 155 ms gap.
        gappy = imu[:50] + imu[80:]
        with pytest.raises(InvalidDt):
            eskf.run_filter(gappy, toa, config)

    def test_segments_longer_than_the_cap(self, monkeypatch):
        # Without ToA the stream is cut only by MAX_SEGMENT.
        imu, _, config = figure_eight_inputs(0, duration_s=3.0)
        assert len(imu) - 1 > 2 * eskf.MAX_SEGMENT
        config.emit_at_imu_rate = True
        sizes = []
        propagate = eskf.propagate_covariance

        def recording(p_cov, f, *args):
            sizes.append(f.shape[0])
            return propagate(p_cov, f, *args)

        monkeypatch.setattr(eskf, "propagate_covariance", recording)
        run = eskf.run_filter(imu, [], config)
        assert max(sizes) == eskf.MAX_SEGMENT and sum(sizes) == len(imu) - 1
        want = oracle_run_filter(imu, [], config)
        assert [e.t for e in run.estimates] == [t for t, _, _ in want]
        for est, (_, state, cov_diag) in zip(run.estimates, want):
            np.testing.assert_allclose(est.state.p, state.p, rtol=0, atol=1e-9)
            np.testing.assert_allclose(est.cov_diag, cov_diag, rtol=1e-8)


class TestPredictTiming:
    @pytest.mark.parametrize("emit", [False, True])
    def test_one_positive_entry_per_interval_within_wall_time(self, emit):
        imu, toa, config = figure_eight_inputs(0, duration_s=5.0)
        config.emit_at_imu_rate = emit
        tic = time.perf_counter()
        run = eskf.run_filter(imu, toa, config)
        wall_ms = (time.perf_counter() - tic) * 1e3
        assert len(run.predict_times_ms) == len(imu) - 1
        assert np.all(run.predict_times_ms > 0.0)
        assert len(run.update_times_ms) == 26
        assert run.predict_times_ms.sum() + run.update_times_ms.sum() <= wall_ms
