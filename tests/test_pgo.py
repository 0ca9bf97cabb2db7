import dataclasses

import numpy as np
import pytest
import scipy.linalg

from toafusion import eskf, geometry as geo, metrics, pgo, preintegration as pre
from toafusion import toa_sim
from toafusion.dataset import ImuSample, ToaMeasurement, groundtruth_to_trajectory
from toafusion.errors import (DataError, DegenerateGeometry, EmptyInput,
                              IndefiniteCovariance, InvalidDt, NonFiniteCost,
                              NonMonotonicTimestamp, NumericalError,
                              SingularNormalEquations)
from toafusion.eskf import GRAVITY, ImuNoiseParams, NavState
from toafusion.synthetic import (SyntheticTrajectorySpec,
                                 generate_synthetic_trajectory,
                                 initial_state_from_groundtruth)
from toafusion.toa_sim import BaseStation, default_stations

from conftest import (assert_matches_oracle, oracle_integrate, oracle_slice,
                      random_rotation)


def make_values(rng, n_kf, n_st):
    return pgo.GraphValues(
        rot=np.array([random_rotation(rng) for _ in range(n_kf)]),
        pos=rng.uniform(-3, 3, (n_kf, 3)),
        vel=rng.standard_normal((n_kf, 3)),
        bias=0.05 * rng.standard_normal((n_kf, 6)),
        stations=rng.uniform(-10, 10, (n_st, 3)))


def whitened_residual(factor, values):
    if hasattr(factor, "sqrt_info"):
        return factor.sqrt_info @ factor.residual(values)
    return factor.residual(values) / factor.sigma


def fd_jacobian_check(factor, values, eps=1e-6):
    """Max relative error of factor.linearize against central differences."""
    _, blocks = factor.linearize(values)
    worst = 0.0
    for key, jac in blocks:
        tag, idx = key
        fd = np.zeros_like(jac)
        for c in range(jac.shape[1]):
            out = []
            for sign in (1.0, -1.0):
                v = values.copy()
                if tag == "kf":
                    d = np.zeros(15)
                    d[c] = sign * eps
                    v.rot[idx] = v.rot[idx] @ geo.exp_so3(d[0:3])
                    v.pos[idx] = v.pos[idx] + d[3:6]
                    v.vel[idx] = v.vel[idx] + d[6:9]
                    v.bias[idx] = v.bias[idx] + d[9:15]
                else:
                    d = np.zeros(3)
                    d[c] = sign * eps
                    v.stations[idx] = v.stations[idx] + d
                out.append(whitened_residual(factor, v))
            fd[:, c] = (out[0] - out[1]) / (2 * eps)
        rel = np.linalg.norm(jac - fd) / max(np.linalg.norm(fd), 1e-9)
        worst = max(worst, rel)
    return worst


class TestRangeResidual:
    def test_examples(self):
        assert pgo.range_residual(np.zeros(3), np.array([3.0, 4.0, 0.0]), 5.0) \
            == pytest.approx(0.0)
        assert pgo.range_residual(np.zeros(3), np.array([3.0, 4.0, 0.0]), 6.0) \
            == pytest.approx(1.0)

    def test_gradient_matches_finite_differences(self, rng):
        for _ in range(100):
            p = rng.uniform(-10, 10, 3)
            loc = rng.uniform(-10, 10, 3)
            if np.linalg.norm(p - loc) < 0.1:
                continue
            d = float(rng.uniform(1, 30))
            grad = pgo.range_gradient(p, loc)
            eps = 1e-6
            for j in range(3):
                e = np.zeros(3)
                e[j] = eps
                fd = (pgo.range_residual(p + e, loc, d)
                      - pgo.range_residual(p - e, loc, d)) / (2 * eps)
                assert abs(grad[j] - fd) / max(abs(fd), 1e-6) < 1e-6

    def test_degenerate(self):
        with pytest.raises(DegenerateGeometry):
            pgo.range_residual(np.zeros(3), np.zeros(3), 1.0)


class TestFactorJacobians:
    def test_imu_factor(self, rng):
        for _ in range(20):
            values = make_values(rng, 2, 1)
            omega = rng.uniform(-1, 1, (20, 3))
            accel = rng.uniform(-5, 5, (20, 3))
            dts = np.full(20, 0.005)
            p = pre.integrate_batch(omega, accel, dts, np.zeros(3), np.zeros(3),
                                    ImuNoiseParams())
            factor = pgo.ImuFactor(0, 1, p, (omega, accel, dts))
            assert fd_jacobian_check(factor, values) < 1e-5

    def test_range_factor(self, rng):
        for _ in range(20):
            values = make_values(rng, 1, 2)
            factor = pgo.RangeFactor(0, 1, float(rng.uniform(1, 20)), 0.2)
            assert fd_jacobian_check(factor, values) < 1e-5

    def test_prior_factors(self, rng):
        values = make_values(rng, 1, 1)
        pose = pgo.PriorPoseFactor(0, random_rotation(rng), rng.standard_normal(3),
                                   np.diag([0.01] * 6))
        vel = pgo.PriorVelocityFactor(0, rng.standard_normal(3), 0.01 * np.eye(3))
        bias = pgo.PriorBiasFactor(0, rng.standard_normal(6), 0.01 * np.eye(6))
        station = pgo.PriorStationFactor(0, rng.standard_normal(3), 1e-3)
        for factor in (pose, vel, bias, station):
            assert fd_jacobian_check(factor, values) < 1e-5


def noiseless_setup(kind="hover_then_dash", duration=4.0, n_bs=5, speed=0.5):
    spec = SyntheticTrajectorySpec(kind=kind, duration_s=duration,
                                   speed_mps=speed)
    imu, gt = generate_synthetic_trajectory(spec)
    stations = default_stations(n_bs)
    toa = list(toa_sim.simulate(gt, stations, toa_sim.noiseless_model(n_bs),
                                rate_hz=5.0))
    config = pgo.PgoConfig(initial_state=initial_state_from_groundtruth(gt),
                           stations=stations, meas_std=np.zeros(n_bs))
    return imu, gt, toa, config


class TestBuildGraph:
    def test_keyframe_and_factor_counts(self):
        imu = [ImuSample(int(i * 5e6), np.zeros(3), -GRAVITY) for i in range(201)]
        config = pgo.PgoConfig(initial_state=NavState.identity(),
                               stations=default_stations(5),
                               meas_std=np.zeros(5))
        graph, _ = pgo.build_graph(imu, [], config)
        assert len(graph.keyframes) == 11
        assert len(graph.imu_factors()) == 10

    def test_range_factor_count(self):
        imu = [ImuSample(int(i * 5e6), np.zeros(3), -GRAVITY) for i in range(201)]
        stations = default_stations(5)
        toa = [ToaMeasurement(int(tick * 2e8), bs.id, 10.0)
               for tick in range(6) for bs in stations]
        config = pgo.PgoConfig(initial_state=NavState.identity(),
                               stations=stations, meas_std=np.zeros(5))
        graph, _ = pgo.build_graph(imu, toa, config)
        assert len(graph.range_factors()) == 30

    def test_tie_goes_to_earlier_keyframe(self):
        imu = [ImuSample(int(i * 5e6), np.zeros(3), -GRAVITY) for i in range(201)]
        toa = [ToaMeasurement(int(5e7), 1, 10.0)]   # exactly between kf 0 and 1
        config = pgo.PgoConfig(initial_state=NavState.identity(),
                               stations=default_stations(1),
                               meas_std=np.zeros(1))
        graph, _ = pgo.build_graph(imu, toa, config)
        assert graph.range_factors()[0].kf == 0

    def test_range_within_half_cadence(self):
        imu, gt, toa, config = noiseless_setup()
        graph, _ = pgo.build_graph(imu, toa, config)
        times = [kf.t for kf in graph.keyframes]
        half_period = 0.5e9 / config.node_rate_hz
        for factor, meas in zip(graph.range_factors(), toa):
            assert abs(times[factor.kf] - meas.t) <= half_period

    def test_empty_input(self):
        config = pgo.PgoConfig(initial_state=NavState.identity(),
                               stations=default_stations(1),
                               meas_std=np.zeros(1))
        with pytest.raises(EmptyInput):
            pgo.build_graph([], [], config)


def jittered_imu(rng, seconds=2.0, rate_hz=200.0, jitter_ns=1_500_000,
                 drop=0.05):
    """Random IMU readings on jittered stamps with some samples dropped."""
    period = int(1e9 / rate_hz)
    stamps = np.arange(0, int(seconds * 1e9) + 1, period)
    stamps[1:-1] += rng.integers(-jitter_ns, jitter_ns + 1, len(stamps) - 2)
    keep = np.ones(len(stamps), dtype=bool)
    keep[1:-1] = rng.uniform(size=len(stamps) - 2) > drop
    return [ImuSample(int(t), rng.uniform(-1, 1, 3), rng.uniform(-5, 5, 3) - GRAVITY)
            for t in stamps[keep]]


def imu_config(n_bs=3, **kwargs):
    state = NavState.identity()
    state.b_g = np.array([0.01, -0.02, 0.005])
    state.b_a = np.array([0.1, 0.05, -0.2])
    return pgo.PgoConfig(initial_state=state, stations=default_stations(n_bs),
                         meas_std=np.full(n_bs, 0.1), **kwargs)


def regular_imu(seconds=1.0, skip=()):
    """200 Hz hover readings, without the samples whose index is in skip."""
    return [ImuSample(int(k * 5e6), np.zeros(3), -GRAVITY)
            for k in range(int(seconds * 200) + 1) if k not in skip]


class TestImuDataPath:
    def test_jittered_imu_factors_match_per_sample_oracle(self, rng):
        imu = jittered_imu(rng)
        config = imu_config()
        graph, _ = pgo.build_graph(imu, [], config)
        times = [kf.t for kf in graph.keyframes]
        bias0_g, bias0_a = config.initial_state.b_g, config.initial_state.b_a
        counts = set()
        for f in graph.imu_factors():
            omega, accel, dts = oracle_slice(imu, times[f.i], times[f.j])
            for got, want in zip(f.samples, (omega, accel, dts)):
                np.testing.assert_array_equal(got, want)
            assert_matches_oracle(f.pre, oracle_integrate(
                omega, accel, dts, bias0_g, bias0_a, config.noise))
            counts.add(len(dts))
        assert len(counts) >= 3     # unequal interval lengths were padded

    def test_sliding_factors_match_oracle_at_their_bias_point(self, rng,
                                                              monkeypatch):
        imu = jittered_imu(rng, seconds=1.5)
        config = imu_config(window=5, final_batch=False,
                            bias_drift_threshold=5e-3)
        graph, _ = pgo.build_graph(imu, [], config)
        toa = [ToaMeasurement(kf.t, bs.id, 5.0 + bs.id)
               for kf in graph.keyframes for bs in config.stations]
        built, moves = [], []
        real_factor, real_reintegrate = pgo.ImuFactor, pgo._reintegrate

        def factor(*args, **kwargs):
            built.append(real_factor(*args, **kwargs))
            return built[-1]

        def reintegrate(factors, bias):
            for f, b in zip(factors, bias):
                lin = np.concatenate([f.pre.bias_gyro, f.pre.bias_accel])
                moves.append(np.max(np.abs(lin - b)))
            real_reintegrate(factors, bias)
        monkeypatch.setattr(pgo, "ImuFactor", factor)
        monkeypatch.setattr(pgo, "_reintegrate", reintegrate)
        run = pgo.run_sliding_window(imu, toa, config)
        # Only factors whose own bias point is stale are re-integrated.
        assert run.reintegrations == len(moves) > 0
        assert min(moves) > config.bias_drift_threshold
        times = [kf.t for kf in graph.keyframes]
        for f in built:
            omega, accel, dts = oracle_slice(imu, times[f.i], times[f.j])
            assert_matches_oracle(f.pre, oracle_integrate(
                omega, accel, dts, f.pre.bias_gyro, f.pre.bias_accel, config.noise))

    def test_empty_interval(self):
        # Samples 60-89 (0.30-0.445 s) are missing: keyframes 3 and 4 have
        # nothing between them.
        imu = regular_imu(skip=range(60, 90))
        config = imu_config()
        with pytest.raises(EmptyInput, match="keyframes 3 and 4"):
            pgo.build_graph(imu, [], config)
        with pytest.raises(EmptyInput, match="keyframes 3 and 4"):
            pgo.run_sliding_window(imu, [], config)

    def test_gap_inside_an_interval(self):
        # Keyframes every 0.5 s; a 0.2 s gap after the sample at 0.1 s.
        imu = regular_imu(skip=range(21, 60))
        config = imu_config(node_rate_hz=2.0)
        with pytest.raises(InvalidDt):
            pgo.build_graph(imu, [], config)
        with pytest.raises(InvalidDt):
            pgo.run_sliding_window(imu, [], config)

    @pytest.mark.parametrize("swap", [(10, 11), (0, 200)])
    def test_unsorted_timestamps_rejected(self, swap):
        imu = regular_imu()
        i, j = swap
        imu[i], imu[j] = imu[j], imu[i]
        config = imu_config()
        for run in (pgo.build_graph, pgo.run_batch, pgo.run_sliding_window):
            with pytest.raises(NonMonotonicTimestamp, match="IMU sample"):
                run(imu, [], config)

    def test_repeated_timestamp_rejected(self):
        imu = regular_imu()
        imu[50].t = imu[49].t
        with pytest.raises(NonMonotonicTimestamp, match="IMU sample 50"):
            pgo.build_graph(imu, [], imu_config())
        assert issubclass(NonMonotonicTimestamp, DataError)


def groundtruth_values(graph, gt, config):
    gt_t = np.array([p.t for p in gt])
    values = pgo.GraphValues(
        rot=np.zeros((len(graph.keyframes), 3, 3)),
        pos=np.zeros((len(graph.keyframes), 3)),
        vel=np.zeros((len(graph.keyframes), 3)),
        bias=np.zeros((len(graph.keyframes), 6)),
        stations=np.array([bs.position for bs in config.stations]))
    for k, kf in enumerate(graph.keyframes):
        i = int(np.argmin(np.abs(gt_t - kf.t)))
        values.rot[k] = geo.quat_to_rot(gt[i].orientation)
        values.pos[k] = gt[i].position
        values.vel[k] = gt[i].velocity
    return values


class TestTotalCost:
    def test_groundtruth_noiseless_cost_tiny(self):
        imu, gt, toa, config = noiseless_setup()
        graph, _ = pgo.build_graph(imu, toa, config)
        values = groundtruth_values(graph, gt, config)
        assert pgo.total_cost(graph, values) < 1e-10

    def test_doubling_covariance_halves_contribution(self, rng):
        values = make_values(rng, 1, 1)
        base = pgo.RangeFactor(0, 0, 5.0, 0.2)
        doubled = pgo.RangeFactor(0, 0, 5.0, 0.2 * np.sqrt(2.0))
        graph_base = pgo.FactorGraph([pgo.KeyframeId(0, 0)], [base], [1])
        graph_doubled = pgo.FactorGraph([pgo.KeyframeId(0, 0)], [doubled], [1])
        c0 = pgo.total_cost(graph_base, values)
        c1 = pgo.total_cost(graph_doubled, values)
        assert c1 == pytest.approx(0.5 * c0, rel=1e-12)

    def test_matches_per_factor_oracle(self, rng):
        imu, gt, toa, config = noiseless_setup(duration=2.0)
        graph, values = pgo.build_graph(imu, toa, config)
        # Perturb away from the optimum so the cost is non-trivial.
        values.pos += 0.1 * rng.standard_normal(values.pos.shape)
        expected = 0.0
        for f in graph.factors:
            r = f.residual(values)
            expected += float(r @ np.linalg.solve(f.cov, r))
        assert pgo.total_cost(graph, values) == pytest.approx(expected, rel=1e-9)


class TestOptimize:
    def multilateration_graph(self):
        stations = [BaseStation(1, np.zeros(3)),
                    BaseStation(2, np.array([10.0, 0.0, 0.0])),
                    BaseStation(3, np.array([0.0, 10.0, 0.0])),
                    BaseStation(4, np.array([0.0, 0.0, 10.0]))]
        truth = np.array([2.0, 3.0, 4.0])
        factors = [pgo.RangeFactor(0, k, float(np.linalg.norm(truth - bs.position)),
                                   0.01) for k, bs in enumerate(stations)]
        factors += [pgo.PriorStationFactor(k, bs.position.copy(), 1e-3)
                    for k, bs in enumerate(stations)]
        graph = pgo.FactorGraph([pgo.KeyframeId(0, 0)], factors,
                                [bs.id for bs in stations])
        values = pgo.GraphValues(
            rot=np.eye(3)[None].copy(), pos=truth[None] + 0.0,
            vel=np.zeros((1, 3)), bias=np.zeros((1, 6)),
            stations=np.array([bs.position for bs in stations]))
        return graph, values, truth

    def test_recovers_position_from_perturbed_start(self):
        graph, values, truth = self.multilateration_graph()
        values.pos[0] = truth + np.array([0.3, -0.3, 0.2])   # 0.5 m offset
        out, report = pgo.optimize(graph, values)
        np.testing.assert_allclose(out.pos[0], truth, atol=1e-6)
        assert report.termination in ("cost_tolerance", "step_tolerance")

    def test_fixed_point_terminates_fast(self):
        graph, values, _ = self.multilateration_graph()
        out, report = pgo.optimize(graph, values)
        assert report.iterations <= 2
        assert report.costs[-1] <= report.initial_cost + 1e-12

    def test_accepted_costs_non_increasing(self, rng):
        imu, gt, toa, config = noiseless_setup(duration=3.0)
        graph, values = pgo.build_graph(imu, toa, config)
        values.pos += 0.2 * rng.standard_normal(values.pos.shape)
        _, report = pgo.optimize(graph, values)
        costs = [report.initial_cost] + report.costs
        assert all(costs[i + 1] <= costs[i] + 1e-12 for i in range(len(costs) - 1))

    def test_cost_log_columns(self):
        graph, values, truth = self.multilateration_graph()
        values.pos[0] = truth + 0.1
        _, report = pgo.optimize(graph, values)
        for it, cost, damping in report.cost_log:
            assert it >= 1 and cost >= 0.0 and damping > 0.0


class TestBiasCorrection:
    def test_corrected_increments_match_reintegration(self, rng):
        omega = rng.uniform(-1, 1, (40, 3))
        accel = rng.uniform(-5, 5, (40, 3))
        dts = np.full(40, 0.005)
        base = pre.integrate_batch(omega, accel, dts, np.zeros(3), np.zeros(3))
        db_g = 1e-3 * rng.standard_normal(3)
        db_a = 1e-2 * rng.standard_normal(3)
        exact = pre.integrate_batch(omega, accel, dts, db_g, db_a)
        rot_c, pos_c, vel_c = pre.corrected_increments(base, db_g, db_a)
        assert np.linalg.norm(geo.log_so3(rot_c.T @ exact.d_rot)) < 1e-7
        assert np.linalg.norm(pos_c - exact.d_pos) < 1e-6
        assert np.linalg.norm(vel_c - exact.d_vel) < 1e-5

    def test_reintegration_triggers_on_large_drift(self, rng):
        omega = rng.uniform(-1, 1, (20, 3))
        accel = rng.uniform(-5, 5, (20, 3))
        dts = np.full(20, 0.005)
        p = pre.integrate_batch(omega, accel, dts, np.zeros(3), np.zeros(3),
                                ImuNoiseParams())
        factor = pgo.ImuFactor(0, 1, p, (omega, accel, dts))
        values = make_values(rng, 2, 1)
        values.bias[0] = np.full(6, 0.1)
        graph = pgo.FactorGraph([pgo.KeyframeId(0, 0), pgo.KeyframeId(1, 10)],
                                [factor], [1])
        count = pgo._reintegrate_drifted(graph, values, threshold=0.05)
        assert count == 1
        np.testing.assert_allclose(factor.pre.bias_gyro, values.bias[0][0:3])
        # After re-integration the linearization matches; no further trigger.
        assert pgo._reintegrate_drifted(graph, values, threshold=0.05) == 0

    def test_only_drifted_factors_reintegrated(self, rng):
        graph, values = oracle_graph(rng, n_kf=5)
        imu_fs = graph.imu_factors()
        before = [f.pre for f in imu_fs]
        for f in imu_fs:
            values.bias[f.i] = np.concatenate([f.pre.bias_gyro, f.pre.bias_accel])
        values.bias[1, 4] += 0.06       # accel component past the threshold
        values.bias[3, 0] -= 0.2        # gyro component past the threshold
        values.bias[2] += 0.04          # within it
        assert pgo._reintegrate_drifted(graph, values, threshold=0.05) == 2
        for f, old in zip(imu_fs, before):
            if f.i in (1, 3):
                omega, accel, dts = f.samples
                np.testing.assert_array_equal(f.pre.bias_gyro, values.bias[f.i, 0:3])
                np.testing.assert_array_equal(f.pre.bias_accel, values.bias[f.i, 3:6])
                assert_matches_oracle(f.pre, oracle_integrate(
                    omega, accel, dts, values.bias[f.i, 0:3],
                    values.bias[f.i, 3:6], old.noise))
            else:
                assert f.pre is old


class TestRunBatch:
    def test_noiseless_batch_matches_groundtruth(self):
        imu, gt, toa, config = noiseless_setup(kind="circle", duration=8.0,
                                               speed=1.0)
        traj, report = pgo.run_batch(imu, toa, config)
        rep = metrics.evaluate(traj, groundtruth_to_trajectory(gt))
        assert rep.ate < 0.01

    def test_deterministic(self):
        imu, gt, toa, config = noiseless_setup(duration=3.0)
        a, _ = pgo.run_batch(imu, toa, config)
        b, _ = pgo.run_batch(imu, toa, config)
        np.testing.assert_array_equal(a.position, b.position)
        np.testing.assert_array_equal(a.orientation, b.orientation)


class TestSlidingWindow:
    def test_wide_window_equals_batch(self):
        imu, gt, toa, config = noiseless_setup(duration=4.0)
        config.window = 10 ** 6
        run = pgo.run_sliding_window(imu, toa, config)
        batch, _ = pgo.run_batch(imu, toa, config)
        np.testing.assert_allclose(run.batch.position, batch.position, atol=1e-4)

    def test_noiseless_streamed_accuracy(self):
        imu, gt, toa, config = noiseless_setup(kind="circle", duration=8.0,
                                               speed=1.0)
        config.window = 20
        run = pgo.run_sliding_window(imu, toa, config)
        gt_traj = groundtruth_to_trajectory(gt)
        assert metrics.evaluate(run.streamed, gt_traj).ate < 0.01
        assert metrics.evaluate(run.batch, gt_traj).ate < 0.01
        assert len(run.step_times_ms) == len(run.streamed) - 1

    def test_deterministic(self):
        imu, gt, toa, config = noiseless_setup(duration=3.0)
        config.window = 10
        a = pgo.run_sliding_window(imu, toa, config)
        b = pgo.run_sliding_window(imu, toa, config)
        np.testing.assert_array_equal(a.streamed.position, b.streamed.position)
        np.testing.assert_array_equal(a.batch.position, b.batch.position)

    def test_marginalization_engages(self):
        imu, gt, toa, config = noiseless_setup(duration=5.0)
        config.window = 8
        run = pgo.run_sliding_window(imu, toa, config)
        gt_traj = groundtruth_to_trajectory(gt)
        assert metrics.evaluate(run.streamed, gt_traj).ate < 0.05


def reintegrating_setup(rng, **kwargs):
    """A short sliding-window run whose bias drift re-integrates factors."""
    imu = jittered_imu(rng, seconds=1.5)
    config = imu_config(window=5, bias_drift_threshold=5e-3, **kwargs)
    graph, _ = pgo.build_graph(imu, [], config)
    toa = [ToaMeasurement(kf.t, bs.id, 5.0 + bs.id)
           for kf in graph.keyframes for bs in config.stations]
    return imu, toa, config


def assert_same_bits(actual, expected):
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


class TestSlidingWindowTables:
    def test_window_tables_match_restacked_factors(self, rng, monkeypatch):
        imu, toa, config = reintegrating_setup(rng, final_batch=False)
        built, ranges, steps = [], [], []
        real_factor, real_range, real_optimize = (pgo.ImuFactor, pgo.RangeFactor,
                                                  pgo.optimize)

        def factor(*args, **kwargs):
            built.append(real_factor(*args, **kwargs))
            return built[-1]

        def range_factor(*args, **kwargs):
            ranges.append(real_range(*args, **kwargs))
            return ranges[-1]

        def optimize(graph, values, options=None, first_kf=0):
            # Restack the window's factors from the objects: IMU factors
            # and ranges on keyframes [first_kf, n).
            n = values.n_keyframes
            factors = built + [f for f in ranges if f.kf < n]
            want = pgo._Window(pgo._active_factors(
                pgo.FactorGraph(graph.keyframes, factors, graph.station_ids),
                first_kf))
            got = graph.window
            for table in ("imu", "ranges"):
                for fld in dataclasses.fields(getattr(want, table)):
                    assert_same_bits(getattr(getattr(got, table), fld.name),
                                     getattr(getattr(want, table), fld.name))
            steps.append(n)
            return real_optimize(graph, values, options, first_kf)
        monkeypatch.setattr(pgo, "ImuFactor", factor)
        monkeypatch.setattr(pgo, "RangeFactor", range_factor)
        monkeypatch.setattr(pgo, "optimize", optimize)
        run = pgo.run_sliding_window(imu, toa, config)
        assert steps == list(range(2, len(run.streamed) + 1))
        assert run.reintegrations > 0

    def test_reintegrations_count_factors(self, rng, monkeypatch):
        imu, toa, config = reintegrating_setup(rng, final_batch=True)
        passed, in_final_batch = [], []
        real_reintegrate, real_drifted = pgo._reintegrate, pgo._reintegrate_drifted

        def reintegrate(factors, bias):
            passed.append(len(factors))
            real_reintegrate(factors, bias)

        def reintegrate_drifted(graph, values, threshold):
            in_final_batch.append(real_drifted(graph, values, threshold))
            return in_final_batch[-1]
        monkeypatch.setattr(pgo, "_reintegrate", reintegrate)
        monkeypatch.setattr(pgo, "_reintegrate_drifted", reintegrate_drifted)
        run = pgo.run_sliding_window(imu, toa, config)
        assert sum(in_final_batch) > 0
        assert run.reintegrations == sum(passed) > sum(in_final_batch)

    def test_marginal_fallback_counted(self, monkeypatch):
        imu, gt, toa, config = noiseless_setup(duration=3.0)
        config.window = 8
        config.final_batch = False
        assert pgo.run_sliding_window(imu, toa, config).marginal_fallbacks == 0
        calls = []

        def marginalize(*args):
            calls.append(args)
            return None
        monkeypatch.setattr(pgo, "_marginalize_dropped", marginalize)
        run = pgo.run_sliding_window(imu, toa, config)
        assert run.marginal_fallbacks == len(calls) \
            == len(run.streamed) - config.window > 0


def oracle_graph(rng, n_kf=4, n_st=2):
    """Values and factors of every kind over a short keyframe chain."""
    values = make_values(rng, n_kf, n_st)
    noise = ImuNoiseParams()
    factors = [
        pgo.PriorPoseFactor(0, random_rotation(rng), rng.standard_normal(3),
                            np.diag([0.01] * 3 + [0.04] * 3)),
        pgo.PriorVelocityFactor(0, rng.standard_normal(3), 0.01 * np.eye(3)),
        pgo.PriorBiasFactor(0, rng.standard_normal(6), 0.01 * np.eye(6)),
        pgo.PriorStateFactor(2, random_rotation(rng), rng.standard_normal(3),
                             rng.standard_normal(3), rng.standard_normal(6),
                             0.02 * np.eye(15)),
    ]
    factors += [pgo.PriorStationFactor(s, values.stations[s] + 0.01, 1e-2)
                for s in range(n_st)]
    for k in range(n_kf - 1):
        omega = rng.uniform(-1, 1, (20, 3))
        accel = rng.uniform(-5, 5, (20, 3))
        dts = np.full(20, 0.005)
        p = pre.integrate_batch(omega, accel, dts, values.bias[k, 0:3],
                                values.bias[k, 3:6] + 0.01, noise)
        factors.append(pgo.ImuFactor(k, k + 1, p, (omega, accel, dts)))
    for k in range(n_kf):
        for s in range(n_st):
            factors.append(pgo.RangeFactor(k, s, float(rng.uniform(1, 20)), 0.2))
    graph = pgo.FactorGraph([pgo.KeyframeId(k, k) for k in range(n_kf)],
                            factors, list(range(1, n_st + 1)))
    return graph, values


def dense_oracle(factors, values, first_kf, n_kf, n_st):
    """Dense J^T J, J^T r and r^T r from the per-factor linearize() blocks."""
    col = pgo._column_map(first_kf, n_kf)
    jac_rows, res = [], []
    for f in factors:
        r_w, blocks = f.linearize(values)
        jac = np.zeros((len(r_w), pgo.KF_DIM * n_kf + 3 * n_st))
        for key, block in blocks:
            jac[:, col(key):col(key) + block.shape[1]] += block
        jac_rows.append(jac)
        res.append(r_w)
    jac, r = np.vstack(jac_rows), np.concatenate(res)
    return jac.T @ jac, jac.T @ r, float(r @ r)


def upper_band(h, u):
    """LAPACK upper band storage of the symmetric matrix h."""
    n = h.shape[0]
    band = np.zeros((u + 1, n))
    for j in range(n):
        for i in range(max(0, j - u), j + 1):
            band[u + i - j, j] = h[i, j]
    return band


def assert_rel_close(actual, expected, rtol):
    assert np.linalg.norm(actual - expected) <= rtol * np.linalg.norm(expected)


class TestNormalEquations:
    @pytest.mark.parametrize("first_kf", [0, 1])
    def test_arrow_assembly_matches_dense_oracle(self, rng, first_kf):
        graph, values = oracle_graph(rng)
        n_kf, n_st = values.n_keyframes - first_kf, values.stations.shape[0]
        factors = pgo._active_factors(graph, first_kf)
        neq = pgo._build_normal_equations(pgo._Window(factors), values,
                                          first_kf, n_kf, n_st)
        h, g, cost = dense_oracle(factors, values, first_kf, n_kf, n_st)
        nk = pgo.KF_DIM * n_kf
        # The keyframe block has nothing outside the band.
        assert not np.any(np.triu(h[:nk, :nk], pgo.BAND_U + 1))
        assert_rel_close(neq.band, upper_band(h[:nk, :nk], pgo.BAND_U), 1e-10)
        assert_rel_close(neq.coupling, h[:nk, nk:], 1e-10)
        assert_rel_close(neq.stations, h[nk:, nk:], 1e-10)
        assert_rel_close(neq.grad, g, 1e-10)
        assert neq.cost == pytest.approx(cost, rel=1e-10)
        assert pgo._window_cost(pgo._Window(factors), values) == \
            pytest.approx(cost, rel=1e-10)

    def test_banded_schur_step_matches_dense_solve(self, rng):
        # With two stations, and without any (no Schur complement).
        for graph, values in (oracle_graph(rng), oracle_graph(rng, n_st=0)):
            n_kf, n_st = values.n_keyframes, values.stations.shape[0]
            neq = pgo._build_normal_equations(pgo._Window(graph.factors),
                                              values, 0, n_kf, n_st)
            h, g, _ = dense_oracle(graph.factors, values, 0, n_kf, n_st)
            for lam in (1e-6, 1e-3, 1.0):
                damping = lam * np.maximum(neq.diagonal(), 1e-8)
                expected = np.linalg.solve(h + np.diag(damping), -g)
                assert_rel_close(pgo._solve_damped(neq, damping), expected, 1e-8)

    @pytest.mark.parametrize("first_kf", [0, 1])
    def test_initial_cost_is_the_window_cost(self, rng, first_kf):
        graph, values = oracle_graph(rng)
        window = pgo._Window(pgo._active_factors(graph, first_kf))
        _, report = pgo.optimize(graph, values, first_kf=first_kf)
        assert report.initial_cost == pytest.approx(
            pgo._window_cost(window, values), rel=1e-12)

    @pytest.mark.parametrize("fault, error", [("nan", NonFiniteCost),
                                              ("on_station", DegenerateGeometry)])
    def test_bad_initial_values_raise_before_any_step(self, rng, monkeypatch,
                                                      fault, error):
        graph, values = oracle_graph(rng)
        if fault == "nan":
            values.pos[1] = np.nan
        else:
            values.pos[1] = values.stations[0]

        def solve_damped(*args):
            raise AssertionError("a step was solved")
        monkeypatch.setattr(pgo, "_solve_damped", solve_damped)
        with pytest.raises(error):
            pgo.optimize(graph, values)

    def test_non_consecutive_imu_factor_rejected(self, rng):
        graph, values = oracle_graph(rng, n_kf=3)
        imu = next(f for f in graph.factors if f.kind == "Imu")
        graph.factors.append(pgo.ImuFactor(0, 2, imu.pre, imu.samples))
        with pytest.raises(ValueError, match="links keyframes 0 and 2"):
            pgo.optimize(graph, values)


class TestSolverFailures:
    def failing_cholesky(self, monkeypatch, failures):
        """Make the first `failures` banded factorizations fail; record the
        damped diagonal each call saw."""
        seen = []
        real = scipy.linalg.cholesky_banded

        def cholesky_banded(ab, *args, **kwargs):
            seen.append(ab[-1].copy())
            if len(seen) <= failures:
                raise np.linalg.LinAlgError("not positive definite")
            return real(ab, *args, **kwargs)
        monkeypatch.setattr(scipy.linalg, "cholesky_banded", cholesky_banded)
        return seen

    def test_failed_factorization_escalates_then_raises(self, rng, monkeypatch):
        graph, values = oracle_graph(rng)
        neq = pgo._build_normal_equations(pgo._Window(graph.factors), values, 0,
                                          values.n_keyframes, 2)
        nk = neq.band.shape[1]
        damp = np.maximum(neq.diagonal(), 1e-8)[:nk]
        seen = self.failing_cholesky(monkeypatch, failures=10 ** 6)
        with pytest.raises(SingularNormalEquations):
            pgo.optimize(graph, values)
        assert len(seen) == 16
        lams = [np.median((d - neq.band[-1]) / damp) for d in seen]
        np.testing.assert_allclose(lams, 1e-4 * 10.0 ** np.arange(16), rtol=1e-9)

    def test_recovers_after_failed_factorizations(self, rng, monkeypatch):
        graph, values = oracle_graph(rng)
        self.failing_cholesky(monkeypatch, failures=3)
        out, report = pgo.optimize(graph, values)
        assert report.cost_log[0][2] == pytest.approx(1e-4 * 1e3)
        assert report.costs[-1] < report.initial_cost

    def test_indefinite_covariance_is_a_numerical_error(self):
        with pytest.raises(IndefiniteCovariance):
            pgo.PriorVelocityFactor(0, np.zeros(3), np.diag([1.0, -1.0, 1.0]))
        assert issubclass(IndefiniteCovariance, NumericalError)


class TestWindowSolveSize:
    def test_window_solve_spans_only_the_window(self, monkeypatch):
        imu, gt, toa, config = noiseless_setup(duration=3.0)
        config.window = 8
        config.final_batch = False
        spans = []
        real = pgo.optimize

        def optimize(graph, values, options=None, first_kf=0):
            spans.append(values.n_keyframes - first_kf)
            return real(graph, values, options, first_kf)
        monkeypatch.setattr(pgo, "optimize", optimize)
        run = pgo.run_sliding_window(imu, toa, config)
        assert len(spans) == len(run.streamed) - 1
        assert max(spans) == config.window
        assert spans[:3] == [2, 3, 4]
