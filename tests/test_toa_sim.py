import numpy as np
import pytest

from toafusion import eskf, pgo, toa_sim
from toafusion.config import EskfOptions
from toafusion.dataset import Trajectory
from toafusion.errors import ConfigError, DegenerateGeometry, EmptyTrajectory, UnknownBsId
from toafusion.eskf import GRAVITY, NavState

from conftest import make_imu, make_toa, model_of


def poses(t, positions) -> Trajectory:
    """Ground truth with identity attitude."""
    t = np.asarray(t, dtype=np.int64)
    position = np.array(np.broadcast_to(positions, (len(t), 3)), dtype=float)
    return Trajectory(t, position, np.tile([0.0, 0.0, 0.0, 1.0], (len(t), 1)))


def hover_gt(duration_s: float, rate_hz: float = 100.0, position=(0.0, 0.0, 1.0)):
    period = int(round(1e9 / rate_hz))
    return poses(np.arange(0, int(duration_s * 1e9) + 1, period), position)


class TestTrueDistance:
    def test_three_four_five(self):
        bs = toa_sim.BaseStation(1, np.array([3.0, 4.0, 0.0]))
        assert toa_sim.true_distance(np.zeros(3), bs) == pytest.approx(5.0)

    def test_coincident(self):
        bs = toa_sim.BaseStation(1, np.array([1.0, 2.0, 3.0]))
        assert toa_sim.true_distance(np.array([1.0, 2.0, 3.0]), bs) == 0.0

    def test_matches_componentwise_oracle(self, rng):
        for _ in range(1000):
            p = rng.uniform(-50, 50, 3)
            loc = rng.uniform(-50, 50, 3)
            expected = np.sqrt(sum((p[k] - loc[k]) ** 2 for k in range(3)))
            bs = toa_sim.BaseStation(1, loc)
            assert toa_sim.true_distance(p, bs) == pytest.approx(expected, abs=1e-12)


class TestPresets:
    def test_default_station_positions(self):
        stations = toa_sim.default_stations(5)
        np.testing.assert_array_equal(stations[0].position, [-10.0, -7.0, 2.0])
        np.testing.assert_array_equal(stations[4].position, [-4.0, -14.0, 6.0])
        assert [bs.id for bs in stations] == [1, 2, 3, 4, 5]

    @pytest.mark.parametrize("name", toa_sim.SCENARIO_NAMES)
    @pytest.mark.parametrize("sequence", toa_sim.SEQUENCE_NAMES)
    def test_all_presets_resolve(self, name, sequence):
        preset = toa_sim.scenario_preset(name, sequence)
        model = preset.noise_model(seed=1)
        assert model.mean.shape == (5,)
        assert np.all(model.std >= 0.0)

    def test_reference_rows(self):
        industrial = toa_sim.scenario_preset("industrial_5ghz", "V101")
        assert industrial.mean[0] == pytest.approx(0.129)
        assert industrial.std[0] == pytest.approx(0.568)
        mmmagic = toa_sim.scenario_preset("mmmagic_78ghz", "V101")
        assert mmmagic.mean[0] == pytest.approx(0.002)
        assert mmmagic.std[0] == pytest.approx(0.185)

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            toa_sim.scenario_preset("wifi_2ghz")


class TestSimulate:
    def test_noiseless_equals_true_distance(self):
        gt = hover_gt(2.0)
        stations = toa_sim.default_stations(5)
        model = toa_sim.noiseless_model(5)
        toa = toa_sim.simulate(gt, stations, model, rate_hz=5.0).ranges
        by_id = {bs.id: bs for bs in stations}
        for bs_id, distance in zip(toa.bs_id.tolist(), toa.distance.tolist()):
            expected = toa_sim.true_distance(np.array([0.0, 0.0, 1.0]), by_id[bs_id])
            assert distance == pytest.approx(expected, abs=1e-12)

    def test_tick_count_and_timestamps(self):
        gt = hover_gt(60.0)
        stations = toa_sim.default_stations(5)
        sim = toa_sim.simulate(gt, stations, toa_sim.noiseless_model(5), rate_hz=5.0)
        assert len(sim) == len(sim.ranges) == 5 * (60 * 5 + 1)
        times = np.unique(sim.ranges.t)
        diffs = np.diff(times)
        assert np.all(diffs == int(round(1e9 / 5.0)))
        assert times[0] == gt.t[0]
        # Tick-major, station-minor rows.
        np.testing.assert_array_equal(sim.ranges.t, np.repeat(times, 5))
        np.testing.assert_array_equal(sim.ranges.bs_id, np.tile([1, 2, 3, 4, 5],
                                                                len(times)))

    def test_deterministic_under_seed(self):
        gt = hover_gt(5.0)
        stations = toa_sim.default_stations(3)
        model = toa_sim.NoiseModel(np.zeros(3), 0.5 * np.ones(3), seed=7)
        a = toa_sim.simulate(gt, stations, model).ranges
        b = toa_sim.simulate(gt, stations, model).ranges
        for column in ("t", "bs_id", "distance"):
            np.testing.assert_array_equal(getattr(a, column), getattr(b, column))
        other = toa_sim.simulate(gt, stations,
                                 toa_sim.NoiseModel(np.zeros(3), 0.5 * np.ones(3),
                                                    seed=8)).ranges
        assert not np.array_equal(a.distance, other.distance)

    def test_sample_moments_match_model(self):
        # Long hover; the residual d - d_true must reproduce the configured
        # bias and spread within sampling tolerance.
        gt = poses([0, int(2000e9)], [0.0, 0.0, 1.0])
        stations = toa_sim.default_stations(1)
        model = toa_sim.NoiseModel(np.array([0.129]), np.array([0.568]), seed=3)
        sim = toa_sim.simulate(gt, stations, model, rate_hz=5.0)
        true_d = toa_sim.true_distance(np.array([0.0, 0.0, 1.0]), stations[0])
        residuals = sim.ranges.distance - true_d
        assert len(residuals) >= 10_000
        assert abs(np.mean(residuals) - 0.129) < 0.02
        assert abs(np.std(residuals) - 0.568) < 0.02

    def test_interpolation_between_poses(self):
        gt = poses([0, int(1e9)], [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        bs = [toa_sim.BaseStation(1, np.array([10.0, 0.0, 0.0]))]
        sim = toa_sim.simulate(gt, bs, toa_sim.noiseless_model(1), rate_hz=4.0)
        np.testing.assert_allclose(sim.ranges.distance, [10.0, 9.75, 9.5, 9.25, 9.0],
                                   atol=1e-9)

    def test_clamping_counter(self):
        gt = poses([0, int(10e9)], np.zeros(3))
        bs = [toa_sim.BaseStation(1, np.array([0.001, 0.0, 0.0]))]
        model = toa_sim.NoiseModel(np.array([0.0]), np.array([5.0]), seed=0)
        sim = toa_sim.simulate(gt, bs, model, rate_hz=5.0)
        assert sim.clamped_count > 0
        assert np.all(sim.ranges.distance >= toa_sim.MIN_RANGE_M)
        # The same draws, one range at a time: the clamp count must agree.
        noise = np.random.default_rng(0).standard_normal(len(sim))
        unclamped = 0.001 + 5.0 * noise
        assert sim.clamped_count == int(np.sum(unclamped < toa_sim.MIN_RANGE_M))

    def test_empty_trajectory(self):
        with pytest.raises(EmptyTrajectory):
            toa_sim.simulate(poses([], np.zeros(3)), toa_sim.default_stations(1),
                             toa_sim.noiseless_model(1))

    def test_negative_rate(self):
        with pytest.raises(ConfigError):
            toa_sim.simulate(hover_gt(1.0), toa_sim.default_stations(1),
                             toa_sim.noiseless_model(1), rate_hz=0.0)


class TestLoopOracle:
    def test_matches_tick_by_tick_draws(self, rng):
        # The range loop the simulator replaced: one draw per (tick, station)
        # in tick-major order, clamped one at a time.
        t = np.arange(0, int(3e9) + 1, int(1e7))
        gt = poses(t, rng.uniform(-5, 5, (len(t), 3)))
        stations = toa_sim.default_stations(4)
        model = toa_sim.NoiseModel(rng.uniform(-0.5, 0.5, 4), rng.uniform(0, 20, 4),
                                   seed=5)
        sim = toa_sim.simulate(gt, stations, model, rate_hz=7.0)
        ticks = np.arange(0, int(3e9) + 1, int(round(1e9 / 7.0)))
        noise = np.random.default_rng(5).standard_normal((len(ticks), 4))
        rows, clamped = [], 0
        for i, tick in enumerate(ticks):
            p = [np.interp(tick, t, gt.position[:, k]) for k in range(3)]
            for k, bs in enumerate(stations):
                d = toa_sim.true_distance(np.array(p), bs)
                d += float(model.mean[k]) + float(model.std[k]) * float(noise[i, k])
                if d < toa_sim.MIN_RANGE_M:
                    d, clamped = toa_sim.MIN_RANGE_M, clamped + 1
                rows.append((int(tick), bs.id, d))
        assert clamped > 0 and sim.clamped_count == clamped
        assert sim.ranges.t.tolist() == [r[0] for r in rows]
        assert sim.ranges.bs_id.tolist() == [r[1] for r in rows]
        np.testing.assert_allclose(sim.ranges.distance, [r[2] for r in rows],
                                   rtol=1e-15, atol=1e-15)


class TestStationRows:
    def test_index_and_unknown_id(self):
        model = model_of(toa_sim.default_stations(5)[::-1])
        np.testing.assert_array_equal(model.rows(np.array([1, 5, 3])), [4, 0, 2])
        with pytest.raises(UnknownBsId, match="bs_id 9"):
            model.rows(np.array([1, 9, 3]))


def range_fd_error(points, eps=1e-6) -> float:
    """Worst relative error, over the points p, of range_directions'
    directions to the five default stations against central differences of
    its ranges."""
    sites = model_of(toa_sim.default_stations(5)).positions
    worst = 0.0
    for p in points:
        fd = np.column_stack([toa_sim.range_directions(p + e, sites)[0]
                              - toa_sim.range_directions(p - e, sites)[0]
                              for e in eps * np.eye(3)]) / (2 * eps)
        u = toa_sim.range_directions(p, sites)[1]
        worst = max(worst, np.linalg.norm(u - fd) / np.linalg.norm(fd))
    return worst


class TestRangeDirections:
    """The range kernel of both estimators: h(p) = |p - s| and its gradient."""

    def test_examples(self):
        dist, u = toa_sim.range_directions(np.zeros(3), np.array([[3.0, 4.0, 0.0],
                                                                  [-1.0, 0.0, 0.0]]))
        np.testing.assert_allclose(np.c_[dist, u], [[5.0, -0.6, -0.8, 0.0],
                                                    [1.0, 1.0, 0.0, 0.0]], rtol=0, atol=1e-15)
        # Row by row, as PGO's range factors call it.
        dist, u = toa_sim.range_directions(np.diag([1.0, 2.0, 3.0]), np.zeros((3, 3)))
        np.testing.assert_array_equal(np.c_[dist, u], np.c_[[1.0, 2.0, 3.0], np.eye(3)])

    def test_matches_finite_differences(self, rng):
        assert range_fd_error(rng.uniform(-5, 5, (100, 3))) < 1e-6

    def test_degenerate(self):
        sites = np.array([[5.0, 0.0, 0.0], [1.0, 2.0, 3.0]])
        for offset in (0.0, 0.5 * toa_sim.MIN_RANGE_M):
            with pytest.raises(DegenerateGeometry, match=r"station at \[1\. 2\. 3\.\]"):
                toa_sim.range_directions(sites[1] + offset, sites)
        toa_sim.range_directions(sites[1] + 2 * toa_sim.MIN_RANGE_M, sites)


class TestOneRangeModel:
    """The ESKF and PGO read one model. Inputs: IMU at rest for 0.2 s, and
    one tick of ranges to stations 2, 1, 3."""

    imu = make_imu(np.arange(41) * 5_000_000, np.zeros(3), -GRAVITY)
    toa = make_toa([(0, bs_id, 5.0) for bs_id in (2, 1, 3)])

    def test_floored_sigma_in_both_estimators(self, monkeypatch):
        model = model_of(toa_sim.default_stations(3), [0.2, 1e-5, 0.3])
        np.testing.assert_array_equal(model.sigma, [0.2, EskfOptions.sigma_floor, 0.3])
        variances, update = [], eskf.update     # the 5th argument of each update
        monkeypatch.setattr(eskf, "update", lambda *args: variances.append(args[4])
                            or update(*args))
        eskf.run_filter(self.imu, self.toa, eskf.FilterConfig(NavState.identity(), model,
                                                              EskfOptions()))
        graph, _ = pgo.build_graph(self.imu, self.toa,
                                   pgo.PgoConfig(NavState.identity(), model))
        sigma = graph.tables.ranges.sigma
        assert sigma[0] == EskfOptions.sigma_floor
        np.testing.assert_array_equal(variances[0], sigma ** 2)

    def test_same_degenerate_message(self):
        model = model_of(toa_sim.default_stations(3))
        state = NavState.identity()
        state.p = model.positions[1].copy()
        with pytest.raises(DegenerateGeometry) as from_eskf:
            eskf.update(state, np.eye(15), np.full(3, 5.0), model.positions,
                        model.sigma ** 2)
        graph, values = pgo.build_graph(self.imu, self.toa, pgo.PgoConfig(state, model))
        with pytest.raises(DegenerateGeometry) as from_pgo:
            pgo._evaluate(graph.tables, values)
        assert str(from_pgo.value) == str(from_eskf.value)
