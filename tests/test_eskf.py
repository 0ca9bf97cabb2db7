import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm

from toafusion import dataset, eskf, pipeline, toa_sim
from toafusion import geometry as geo
from toafusion.config import EskfOptions, ExperimentConfig, InputConfig
from toafusion.errors import DegenerateGeometry, InvalidDt, UnknownBsId
from toafusion.eskf import (GRAVITY, FilterConfig, ImuNoiseParams, NavState,
                            SL_BA, SL_BG, SL_P, SL_TH, SL_V)
from toafusion.pipeline import load_inputs, obtain_toa, range_model
from toafusion.synthetic import initial_state_from_groundtruth
from toafusion.toa_sim import default_stations

from conftest import (make_imu, make_toa, nominal_step, oracle_error_jacobians,
                      oracle_propagate_covariance, oracle_propagate_nominal,
                      oracle_q_matrix, oracle_run_filter, oracle_update,
                      model_of, random_quaternion)
from so3_reference import exp_so3, right_jacobian_inv_so3, skew


def random_state(rng) -> NavState:
    return NavState(q=random_quaternion(rng),
                    b_g=0.01 * rng.standard_normal(3),
                    v=rng.standard_normal(3),
                    b_a=0.05 * rng.standard_normal(3),
                    p=rng.uniform(-5, 5, 3))


def random_imu(rng) -> tuple[np.ndarray, np.ndarray]:
    """One (omega, accel) reading."""
    return rng.uniform(-1, 1, 3), rng.uniform(-5, 5, 3)


def error_rate_oracle(state: NavState, imu: tuple, delta: np.ndarray,
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
    omega, accel = imu

    w_true = omega - b_g - eta_g
    a_true = accel - b_a - eta_a
    w_nom = omega - state.b_g
    a_nom = accel - state.b_a

    rot_nom = geo.quat_to_rot(state.q)
    rot_true = rot_nom @ exp_so3(dtheta)

    dtheta_dot = right_jacobian_inv_so3(dtheta) @ (
        w_true - exp_so3(dtheta).T @ w_nom)
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
        for _ in range(200):      # measures +9.81 up
            state = nominal_step(state, np.zeros(3), -GRAVITY, 0.005)
        np.testing.assert_allclose(state.p, np.zeros(3), atol=1e-9)
        np.testing.assert_allclose(state.v, np.zeros(3), atol=1e-9)
        np.testing.assert_allclose(state.q, geo.quat_identity(), atol=1e-9)

    def test_free_fall_closed_form(self):
        state = NavState.identity()
        for _ in range(200):
            state = nominal_step(state, np.zeros(3), np.zeros(3), 0.005)
        np.testing.assert_allclose(state.v, GRAVITY, atol=1e-9)
        np.testing.assert_allclose(state.p, 0.5 * GRAVITY, atol=1e-9)

    def test_constant_yaw_rate(self):
        state = NavState.identity()
        steps = 1000
        dt = np.pi / steps
        for _ in range(steps):
            state = nominal_step(state, np.array([0.0, 0.0, 1.0]), np.zeros(3), dt)
        np.testing.assert_allclose(geo.quat_to_rot(state.q),
                                   exp_so3([0.0, 0.0, np.pi]), atol=1e-6)

    def test_bias_subtraction(self, rng):
        # run_filter subtracts the state's biases from the readings: biases
        # equal to the readings make the step a pure-gravity fall.
        omega = rng.standard_normal(3)
        accel = rng.standard_normal(3)
        state = NavState.identity()
        state.b_g = omega.copy()
        state.b_a = accel.copy()
        config = FilterConfig(state, model_of(default_stations(1)),
                              EskfOptions(emit_at_imu_rate=True))
        imu = make_imu([0, 10_000_000], omega, accel)
        run = eskf.run_filter(imu, make_toa([]), config)
        np.testing.assert_allclose(run.final_state.v, 0.01 * GRAVITY, atol=1e-12)

    @pytest.mark.parametrize("dt", [0.0, -0.01, 0.11])
    def test_invalid_dt(self, dt):
        # run_filter checks every interval once per run, before predicting.
        imu = make_imu([0, int(round(dt * 1e9))], np.zeros(3), np.zeros(3))
        config = FilterConfig(NavState.identity(), model_of(default_stations(1)),
                              EskfOptions())
        with pytest.raises(InvalidDt):
            eskf.run_filter(imu, make_toa([]), config)


def batched_jacobians(states, imus, dt):
    """error_jacobians as run_filter calls it: the rotations of the stacked
    attitudes, the bias-corrected inputs and the interval lengths."""
    return eskf.error_jacobians(
        geo.quat_to_rot_batch(np.array([s.q for s in states])),
        np.array([omega - s.b_g for s, (omega, _) in zip(states, imus)]),
        np.array([accel - s.b_a for s, (_, accel) in zip(states, imus)]),
        np.asarray(dt, dtype=float))


def random_noise(rng) -> ImuNoiseParams:
    """Noise densities of one order of magnitude, so that every block of
    G Q G^T weighs in a relative norm."""
    return ImuNoiseParams(*rng.uniform(0.5, 2.0, 4))


def process_noise_error(g: np.ndarray, noise: ImuNoiseParams) -> float:
    """Relative distance of G Q G^T from the filter's diagonal process
    noise."""
    gqg = g @ oracle_q_matrix(noise) @ g.T
    return np.linalg.norm(np.diag(noise.process_noise()) - gqg) / np.linalg.norm(gqg)


class TestErrorJacobians:
    def test_structure_at_rest(self):
        expected_f = np.zeros((15, 15))
        expected_f[SL_TH, SL_BG] = -np.eye(3)
        expected_f[SL_V, SL_BA] = -np.eye(3)
        expected_f[SL_P, SL_V] = np.eye(3)
        for n in (1, 3):
            x = batched_jacobians([NavState.identity()] * n,
                                  [(np.zeros(3), np.zeros(3))] * n, np.full(n, 0.005))
            assert x.shape == (n, 15, 15)
            for k in range(n):
                np.testing.assert_array_equal(x[k], 0.005 * expected_f)
                assert np.all(x[k, SL_TH, SL_TH] == 0.0)

    def test_attitude_block_is_minus_skew(self):
        for n in (1, 4):
            rates = [np.array([0.0, 0.0, 1.0 + k]) for k in range(n)]
            dt = np.linspace(0.004, 0.006, n)
            x = batched_jacobians([NavState.identity()] * n,
                                  [(w, np.zeros(3)) for w in rates], dt)
            for k, w in enumerate(rates):
                np.testing.assert_array_equal(x[k, SL_TH, SL_TH], -skew(w) * dt[k])

    def test_g_noise_routing(self, rng):
        # G routes the IMU noises to the error state, with -R in its
        # velocity block; G Q G^T is the filter's diagonal process noise
        # for every attitude.
        for _ in range(20):
            noise = random_noise(rng)
            _, g = oracle_error_jacobians(random_state(rng), *random_imu(rng))
            assert process_noise_error(g, noise) < 10 * np.finfo(float).eps

    def test_matches_finite_differences(self, rng):
        # 100 samples one at a time (n = 1), then 100 in one call.
        for n, calls in ((1, 100), (100, 1)):
            for _ in range(calls):
                states = [random_state(rng) for _ in range(n)]
                imus = [random_imu(rng) for _ in range(n)]
                dt = rng.uniform(0.001, 0.1, n)
                x = batched_jacobians(states, imus, dt)
                noise = random_noise(rng)
                for k in range(n):
                    f_fd, g_fd = finite_difference_f_g(states[k], imus[k])
                    f = x[k] / dt[k]
                    assert np.linalg.norm(f - f_fd) / np.linalg.norm(f_fd) < 1e-5
                    assert process_noise_error(g_fd, noise) < 1e-5

    def test_matches_per_sample_oracle_exactly(self, rng):
        states = [random_state(rng) for _ in range(30)]
        imus = [random_imu(rng) for _ in range(30)]
        dt = rng.uniform(0.001, 0.1, 30)
        x = batched_jacobians(states, imus, dt)
        for k in range(30):
            f_one, _ = oracle_error_jacobians(states[k], *imus[k])
            np.testing.assert_array_equal(x[k], dt[k] * f_one)


def van_loan(p0, f, qc, dt):
    """Exact discrete propagation via the matrix-exponential construction,
    for continuous process noise qc (15, 15)."""
    big = np.zeros((30, 30))
    big[:15, :15] = -f
    big[:15, 15:] = qc
    big[15:, 15:] = f.T
    ed = expm(big * dt)
    phi = ed[15:, 15:].T
    q_d = phi @ ed[:15, 15:]
    exact = phi @ p0 @ phi.T + q_d
    return 0.5 * (exact + exact.T)


def random_dynamics(rng, n):
    """n random F (n, 15, 15) of spectral norm at most 1."""
    f = rng.standard_normal((n, 15, 15))
    return f / np.maximum(np.linalg.norm(f, 2, axis=(1, 2)), 1.0)[:, None, None]


def random_covariance(rng):
    p = rng.standard_normal((15, 15))
    return p @ p.T + 0.1 * np.eye(15)


class TestPropagateCovariance:
    def test_zero_dynamics_zero_noise(self, rng):
        p = np.diag(rng.uniform(0.1, 1.0, 15))
        for n in (1, 4):
            out = eskf.propagate_covariance(p, np.zeros((n, 15, 15)), np.zeros(15),
                                            np.full(n, 0.01))
            assert out.shape == (n, 15, 15)
            for k in range(n):
                np.testing.assert_allclose(out[k], p, atol=1e-15)

    def test_linear_growth_without_dynamics(self, rng):
        p = np.eye(15)
        qc = np.zeros(15)
        qc[SL_TH] = 0.01        # gyro noise alone
        dt = 0.002
        for n in (1, 4):
            out = eskf.propagate_covariance(p, np.zeros((n, 15, 15)), qc,
                                            np.full(n, dt))
            for k in range(n):
                expected = p + np.diag(qc) * dt * (k + 1)
                np.testing.assert_allclose(out[k], expected, atol=1e-9)

    def test_van_loan_oracle(self, rng):
        for _ in range(20):
            f = random_dynamics(rng, 1)
            qc = rng.uniform(0.0, 0.5, 15)
            p0 = random_covariance(rng)
            dt = 0.005
            out = eskf.propagate_covariance(p0, dt * f, qc, np.array([dt]))
            np.testing.assert_allclose(out[0], van_loan(p0, f[0], np.diag(qc), dt),
                                       atol=1e-8)

    def test_van_loan_oracle_chained(self, rng):
        # Five different steps in one call, each checked against Van Loan
        # from the previous exact covariance.
        n = 5
        f = random_dynamics(rng, n)
        qc = rng.uniform(0.0, 0.5, 15)
        dt = rng.uniform(0.004, 0.006, n)
        p = random_covariance(rng)
        out = eskf.propagate_covariance(p, dt[:, None, None] * f, qc, dt)
        for k in range(n):
            p = van_loan(p, f[k], np.diag(qc), dt[k])
            np.testing.assert_allclose(out[k], p, atol=1e-8)

    def test_stays_symmetric_and_psd(self, rng):
        x = batched_jacobians([random_state(rng)], [random_imu(rng)], [0.005])
        qc = ImuNoiseParams().process_noise()
        # 500 steps: one per call (n = 1), then all in one call.
        for n, calls in ((1, 500), (500, 1)):
            p = eskf.default_initial_covariance()
            for _ in range(calls):
                p = eskf.propagate_covariance(p, np.repeat(x, n, axis=0), qc,
                                              np.full(n, 0.005))[-1]
            assert np.max(np.abs(p - p.T)) < 1e-9
            assert np.min(np.linalg.eigvalsh(p)) > -1e-9


class TestMeasurementJacobian:
    """The position block U of H, from the range kernel the update calls."""

    def test_unit_direction(self):
        dist, u = toa_sim.range_directions(np.array([1.0, 0.0, 0.0]), np.zeros((1, 3)))
        np.testing.assert_allclose(dist, [1.0], atol=1e-12)
        np.testing.assert_allclose(u, [[1.0, 0.0, 0.0]], atol=1e-12)

    def test_shape_and_zero_blocks(self, rng):
        # The update uses only the position block U of H; it must equal the
        # update with the full (k, 15) H, whose other blocks are zero.
        positions = model_of(default_stations(2)).positions
        for _ in range(20):
            state = random_state(rng)
            dist, u = toa_sim.range_directions(state.p, positions)
            assert dist.shape == (2,) and u.shape == (2, 3)
            p = rng.standard_normal((15, 15))
            p = p @ p.T + np.eye(15)
            meas = dist + rng.standard_normal(2)
            var = rng.uniform(0.01, 1.0, 2)
            got_state, got_p = eskf.update(state, p, meas, positions, var)
            want_state, want_p = oracle_update(state, p, meas, positions, var)
            for name in ("q", "b_g", "v", "b_a", "p"):
                np.testing.assert_allclose(getattr(got_state, name),
                                           getattr(want_state, name),
                                           rtol=0, atol=1e-12, err_msg=name)
            np.testing.assert_allclose(got_p, want_p, rtol=0, atol=1e-12)

    def test_matches_finite_differences(self, rng):
        positions = model_of(default_stations(5)).positions
        for _ in range(100):
            p = random_state(rng).p
            _, u = toa_sim.range_directions(p, positions)
            eps = 1e-6
            for j in range(3):
                col = (toa_sim.range_directions(p + eps * np.eye(3)[j], positions)[0]
                       - toa_sim.range_directions(p - eps * np.eye(3)[j], positions)[0]
                       ) / (2 * eps)
                rel = np.abs(u[:, j] - col) / np.maximum(np.abs(col), 1e-3)
                assert np.all(rel < 1e-6)

    def test_degenerate_geometry(self):
        with pytest.raises(DegenerateGeometry):
            toa_sim.range_directions(np.zeros(3), np.zeros((1, 3)))
        state = NavState.identity()
        with pytest.raises(DegenerateGeometry):
            eskf.update(state, np.eye(15), np.array([1.0]), np.zeros((1, 3)),
                        np.array([0.01]))


class TestUpdate:
    def test_zero_residual_leaves_state(self, rng):
        state = random_state(rng)
        positions = model_of(default_stations(5)).positions
        p = eskf.default_initial_covariance()
        d = toa_sim.range_directions(state.p, positions)[0]
        new_state, new_p = eskf.update(state, p, d, positions, np.full(5, 0.01))
        np.testing.assert_allclose(new_state.p, state.p, atol=1e-12)
        np.testing.assert_allclose(new_state.q, state.q, atol=1e-12)
        assert np.trace(new_p) <= np.trace(p) + 1e-12

    def test_scalar_kalman_oracle(self):
        # Single station on the x axis reduces to the textbook 1-D filter.
        state = NavState.identity()
        state.p = np.array([2.0, 0.0, 0.0])
        p = np.diag([1e-9] * 12 + [0.25, 1e-9, 1e-9])
        r_var = 0.04
        d_meas = 2.5
        new_state, new_p = eskf.update(state, p, np.array([d_meas]),
                                       np.zeros((1, 3)), np.array([r_var]))
        gain = 0.25 / (0.25 + r_var)
        np.testing.assert_allclose(new_state.p[0], 2.0 + gain * 0.5, atol=1e-8)
        np.testing.assert_allclose(new_p[12, 12], (1 - gain) * 0.25, atol=1e-8)

    def test_repeated_updates_converge(self):
        positions = model_of(default_stations(5)).positions
        truth = np.array([0.5, -0.3, 1.2])
        meas = np.linalg.norm(truth - positions, axis=1)
        state = NavState.identity()
        state.p = truth + np.array([0.5, 0.4, -0.6])
        p = eskf.default_initial_covariance()
        var = np.full(5, 1e-6)
        errs = [np.linalg.norm(state.p - truth)]
        for _ in range(200):
            state, p = eskf.update(state, p, meas, positions, var)
            errs.append(np.linalg.norm(state.p - truth))
        # Repeated identical measurements accumulate information, so the
        # error decays harmonically (P ~ R/k), not geometrically.
        assert all(errs[i + 1] <= errs[i] + 1e-12 for i in range(len(errs) - 1))
        assert errs[10] < 0.02 * errs[0]
        assert errs[-1] < 1e-3

    def test_huge_r_ignores_measurement(self, rng):
        state = random_state(rng)
        positions = model_of(default_stations(3)).positions
        p = eskf.default_initial_covariance()
        new_state, _ = eskf.update(state, p, np.full(3, 10.0), positions,
                                   np.full(3, 1e12))
        assert np.linalg.norm(new_state.p - state.p) < 1e-6
        assert np.linalg.norm(new_state.v - state.v) < 1e-6

    def test_trace_never_increases(self, rng):
        positions = model_of(default_stations(4)).positions
        for _ in range(20):
            state = random_state(rng)
            p = eskf.default_initial_covariance() * rng.uniform(0.5, 2.0)
            meas = rng.uniform(1, 50, 4)
            _, new_p = eskf.update(state, p, meas, positions, np.full(4, 0.01))
            assert np.trace(new_p) <= np.trace(p) + 1e-12

    def test_subset_of_stations(self):
        # Ticks with ranges to stations 2 and 5 only, in either order: the
        # filter stacks each row's own station position and variance.
        imu = make_imu(np.arange(201) * 5_000_000, np.zeros(3), -GRAVITY)
        toa = make_toa([(t, bs, 10.0 + bs) for t in range(0, int(1e9), int(2e8))
                        for bs in ((2, 5) if t % int(4e8) else (5, 2))])
        model = model_of(default_stations(5), [0.1, 0.2, 0.3, 0.4, 0.5])
        config = FilterConfig(NavState.identity(), model, EskfOptions())
        run = eskf.run_filter(imu, toa, config)
        want = oracle_run_filter(imu, toa, config)
        assert len(run.estimates) == len(want) == 5
        for est, (t, state, cov_diag) in zip(run.estimates, want):
            assert est.t == t
            np.testing.assert_allclose(est.position, state.p, rtol=0, atol=1e-9)
            np.testing.assert_allclose(est.cov_diag, cov_diag, rtol=1e-8)

    def test_inject_zero_is_identity(self, rng):
        state = random_state(rng)
        out = eskf.inject_error(state, np.zeros(15))
        np.testing.assert_allclose(out.q, state.q, atol=1e-15)
        np.testing.assert_allclose(out.p, state.p, atol=1e-15)
        np.testing.assert_allclose(out.b_g, state.b_g, atol=1e-15)


class TestRunFilter:
    def make_inputs(self, with_toa=True):
        imu = make_imu(np.arange(401) * 5_000_000, np.zeros(3), -GRAVITY)
        rows = []
        if with_toa:
            rows = [(int(tick * 2e8), bs.id, float(np.linalg.norm(bs.position)))
                    for tick in range(0, 11) for bs in default_stations(5)]
        return imu, rows

    def make_config(self):
        return FilterConfig(NavState.identity(), model_of(default_stations(5)),
                            EskfOptions())

    def test_empty_toa_gives_empty_output(self):
        imu, _ = self.make_inputs(with_toa=False)
        run = eskf.run_filter(imu, make_toa([]), self.make_config())
        assert len(run.estimates) == 0

    def test_emit_at_imu_rate(self):
        imu, _ = self.make_inputs(with_toa=False)
        config = self.make_config()
        config.options.emit_at_imu_rate = True
        run = eskf.run_filter(imu, make_toa([]), config)
        assert len(run.estimates) == len(imu) - 1

    def test_update_cadence_output(self):
        imu, rows = self.make_inputs()
        toa = make_toa(rows)
        run = eskf.run_filter(imu, toa, self.make_config())
        assert len(run.estimates) == 11
        assert run.estimates[0].t == 0 or run.estimates[0].t == int(5e6)

    def test_deterministic(self):
        imu, rows = self.make_inputs()
        toa = make_toa(rows)
        a = eskf.run_filter(imu, toa, self.make_config())
        b = eskf.run_filter(imu, toa, self.make_config())
        for ea, eb in zip(a.estimates, b.estimates):
            assert ea.t == eb.t
            np.testing.assert_array_equal(ea.position, eb.position)
            np.testing.assert_array_equal(ea.orientation, eb.orientation)

    def test_hover_stays_put(self):
        imu, rows = self.make_inputs()
        toa = make_toa(rows)
        run = eskf.run_filter(imu, toa, self.make_config())
        final = run.estimates[-1]
        np.testing.assert_allclose(final.position, np.zeros(3), atol=1e-6)

    def test_unknown_bs_id_is_a_data_error(self):
        imu, rows = self.make_inputs()
        rows.append((rows[-1][0] + int(2e8), 99, 5.0))
        with pytest.raises(UnknownBsId, match="bs_id 99"):
            eskf.run_filter(imu, make_toa(rows), self.make_config())


def figure_eight_inputs(seed: int, duration_s: float = 10.0):
    """IMU, ToA and a FilterConfig for a noisy figure-eight, as the pipeline
    builds them."""
    cfg = ExperimentConfig()
    cfg.trajectory.duration_s = duration_s
    imu, gt = load_inputs(cfg, seed)
    toa = obtain_toa(cfg, gt, seed, cfg.stations.count)
    config = FilterConfig(initial_state=initial_state_from_groundtruth(gt),
                          range_model=range_model(cfg, cfg.stations.count),
                          options=cfg.eskf, noise=cfg.imu_model)
    return imu, toa, config


class TestSegmentsMatchPerSampleOracle:
    @pytest.mark.parametrize("dt", [0.001, 0.005, 0.02])
    def test_scalar_nominal_step(self, rng, dt):
        for _ in range(50):
            state = random_state(rng)
            omega, accel = random_imu(rng)
            got = nominal_step(state, omega, accel, dt)
            want = oracle_propagate_nominal(state, omega, accel, dt, GRAVITY)
            for name in ("q", "b_g", "v", "b_a", "p"):
                np.testing.assert_allclose(getattr(got, name), getattr(want, name),
                                           rtol=0, atol=1e-14, err_msg=name)

    def test_segment_matches_rk4(self, rng):
        # A 40-sample segment of one trajectory with interval lengths up to
        # MAX_DT_S, one sample at zero rate (theta = 0) and one at the
        # largest rate random_imu draws.
        state = random_state(rng)
        imus = [random_imu(rng) for _ in range(40)]
        imus[3] = (state.b_g.copy(), imus[3][1])
        imus[17] = (state.b_g + np.array([1.0, -1.0, 1.0]), imus[17][1])
        dt = rng.uniform(0.001, 0.02, 40)
        dt[17] = eskf.MAX_DT_S
        w_hat = np.array([omega for omega, _ in imus]) - state.b_g
        a_hat = np.array([accel for _, accel in imus]) - state.b_a
        r, u, c = eskf.rk4_increments(w_hat, a_hat, dt)
        q, rot, v, p = eskf.nominal_segment(state.q, state.v, state.p,
                                            w_hat, a_hat, dt, GRAVITY)
        assert q.shape == (41, 4) and v.shape == p.shape == (41, 3)
        np.testing.assert_array_equal(rot, geo.quat_to_rot_batch(q))
        want = state
        for k in range(40):
            # The increments take the segment's state k one RK4 step on.
            one = oracle_propagate_nominal(
                NavState(q[k], state.b_g, v[k], state.b_a, p[k]),
                *imus[k], dt[k], GRAVITY)
            stepped = (geo.quat_normalize(geo.hamilton(q[k], r[k])),
                       v[k] + rot[k] @ u[k] + dt[k] * GRAVITY,
                       p[k] + dt[k] * v[k] + rot[k] @ c[k] + 0.5 * dt[k] ** 2 * GRAVITY)
            # The segment follows the oracle's chain from the start.
            want = oracle_propagate_nominal(want, *imus[k], dt[k], GRAVITY)
            after = (q[k + 1], v[k + 1], p[k + 1])
            for name, got_one, got in zip("qvp", stepped, after):
                np.testing.assert_allclose(got_one, getattr(one, name), rtol=0,
                                           atol=1e-14, err_msg=f"{name}, step {k}")
                np.testing.assert_allclose(got, getattr(want, name), rtol=0,
                                           atol=1e-14, err_msg=f"{name}, sample {k}")

    def test_segment_chain_matches_rk4(self, rng):
        # A 40-step segment of one trajectory: attitudes and inputs vary.
        state = random_state(rng)
        states, imus = [], []
        for _ in range(40):
            imus.append(random_imu(rng))
            state = nominal_step(state, *imus[-1], 0.005)
            states.append(state)
        dt = np.full(40, 0.005)
        noise = ImuNoiseParams()
        q = oracle_q_matrix(noise)
        p = eskf.default_initial_covariance()
        out = eskf.propagate_covariance(p, batched_jacobians(states, imus, dt),
                                        noise.process_noise(), dt)
        for k in range(40):
            f, g = oracle_error_jacobians(states[k], *imus[k])
            p = oracle_propagate_covariance(p, f, g, q, 0.005)
            assert np.max(np.abs(out[k] - p)) <= 1e-9 * np.max(np.abs(p))

    @pytest.mark.parametrize("emit", [False, True])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_run_filter(self, seed, emit):
        imu, toa, config = figure_eight_inputs(seed)
        config.options.emit_at_imu_rate = emit
        run = eskf.run_filter(imu, toa, config)
        want = oracle_run_filter(imu, toa, config)
        assert len(run.estimates) == len(want)
        assert len(run.estimates) == (len(imu) - 1 + 51 if emit else 51)
        for est, (t, state, cov_diag) in zip(run.estimates, want):
            assert est.t == t
            np.testing.assert_allclose(est.position, state.p, rtol=0, atol=1e-9)
            np.testing.assert_allclose(est.orientation, state.q, rtol=0, atol=1e-9)
            np.testing.assert_allclose(est.cov_diag, cov_diag, rtol=1e-8)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_emit_keeps_tick_estimates(self, seed):
        # One covariance chain serves both modes: with emit_at_imu_rate the
        # estimates at the ticks (the update's and the sample's) carry the
        # same bits as without it.
        imu, toa, config = figure_eight_inputs(seed)
        ticks = eskf.run_filter(imu, toa, config).estimates
        config.options.emit_at_imu_rate = True
        at_time = {}
        for est in eskf.run_filter(imu, toa, config).estimates:
            at_time.setdefault(est.t, []).append(est)

        def bits(est):
            return (est.t, *(getattr(est, name).tobytes()
                             for name in ("orientation", "bias_gyro", "velocity",
                                          "bias_accel", "position")),
                    est.cov_diag.tobytes())

        assert len(ticks) == 51
        for est in ticks:
            assert [bits(e) for e in at_time[est.t]] == [bits(est)] * 2

    def test_gap_inside_a_segment_raises_invalid_dt(self):
        imu, toa, config = figure_eight_inputs(0, duration_s=2.0)
        # Ticks every 40 samples; drop 30 samples between the ticks at
        # samples 40 and 80, a 155 ms gap.
        gappy = imu[np.r_[0:50, 80:len(imu)]]
        with pytest.raises(InvalidDt):
            eskf.run_filter(gappy, toa, config)

    def test_segments_longer_than_the_cap(self, monkeypatch):
        # Without ToA the stream is cut only by MAX_SEGMENT.
        imu, _, config = figure_eight_inputs(0, duration_s=3.0)
        assert len(imu) - 1 > 2 * eskf.MAX_SEGMENT
        config.options.emit_at_imu_rate = True
        sizes = []
        propagate = eskf.propagate_covariance

        def recording(p_cov, x, *args):
            sizes.append(x.shape[0])
            return propagate(p_cov, x, *args)

        monkeypatch.setattr(eskf, "propagate_covariance", recording)
        run = eskf.run_filter(imu, make_toa([]), config)
        assert max(sizes) == eskf.MAX_SEGMENT and sum(sizes) == len(imu) - 1
        want = oracle_run_filter(imu, make_toa([]), config)
        assert [e.t for e in run.estimates] == [t for t, _, _ in want]
        for est, (_, state, cov_diag) in zip(run.estimates, want):
            np.testing.assert_allclose(est.position, state.p, rtol=0, atol=1e-9)
            np.testing.assert_allclose(est.cov_diag, cov_diag, rtol=1e-8)


class TestPredictTiming:
    @pytest.mark.parametrize("emit", [False, True])
    def test_one_positive_entry_per_interval_within_wall_time(self, emit):
        imu, toa, config = figure_eight_inputs(0, duration_s=5.0)
        config.options.emit_at_imu_rate = emit
        tic = time.perf_counter()
        run = eskf.run_filter(imu, toa, config)
        wall_ms = (time.perf_counter() - tic) * 1e3
        assert len(run.predict_times_ms) == len(imu) - 1
        assert np.all(run.predict_times_ms > 0.0)
        assert len(run.update_times_ms) == 26
        assert run.predict_times_ms.sum() + run.update_times_ms.sum() <= wall_ms


class TestCallContract:
    """The calls an outside tracer counts: one nominal step per IMU
    interval, one update per tick with that tick's ranges as the third
    argument, and loaders whose len() is their row count."""

    def test_counts_through_a_files_run(self, tmp_path, monkeypatch):
        cfg = ExperimentConfig()
        cfg.trajectory.duration_s = 3.0
        cfg.run.estimator = "eskf"
        imu, gt = load_inputs(cfg, 0)
        toa = obtain_toa(cfg, gt, 0, cfg.stations.count)
        paths = [str(tmp_path / name) for name in ("imu.csv", "gt.csv", "toa.csv")]
        dataset.save_imu(paths[0], imu)
        dataset.save_groundtruth(paths[1], gt)
        dataset.save_toa(paths[2], toa)
        rows = [len(open(path).read().splitlines()) - 1 for path in paths]
        cfg = replace(cfg, input=InputConfig("files", *paths))

        lengths = []
        for name in ("load_imu", "load_groundtruth", "load_toa"):
            def measured(*args, _load=getattr(pipeline, name), **kwargs):
                out = _load(*args, **kwargs)
                lengths.append(len(out))
                return out
            monkeypatch.setattr(pipeline, name, measured)
        nominal_calls = []
        update_rows = []
        step, update = eskf.propagate_nominal, eskf.update

        def counting_step(*args):
            nominal_calls.append(1)
            return step(*args)

        def counting_update(state, p_cov, meas, *args):
            update_rows.append(len(meas))
            return update(state, p_cov, meas, *args)

        monkeypatch.setattr(eskf, "propagate_nominal", counting_step)
        monkeypatch.setattr(eskf, "update", counting_update)
        result = pipeline.run_experiment(cfg, 0)

        assert lengths == rows == [len(imu), len(gt), len(toa)]
        assert len(nominal_calls) == len(imu) - 1 == 600
        _, per_tick = np.unique(toa.t, return_counts=True)
        assert update_rows == per_tick.tolist() == [5] * 16
        assert len(result.eskf.extra["run"].update_times_ms) == 16
