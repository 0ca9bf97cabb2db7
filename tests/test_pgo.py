import dataclasses
import types

import numpy as np
import pytest
import scipy.linalg

from toafusion import eskf, geometry as geo, metrics, pgo, preintegration as pre
from toafusion import toa_sim
from toafusion.config import EskfOptions, PgoOptions
from toafusion.dataset import Trajectory
from toafusion.errors import (DataError, DegenerateGeometry, EmptyInput,
                              IndefiniteCovariance, InvalidDt, NonFiniteCost,
                              NonMonotonicTimestamp, NumericalError,
                              SingularNormalEquations)
from toafusion.eskf import GRAVITY, ImuNoiseParams, NavState
from toafusion.synthetic import (SyntheticTrajectorySpec,
                                 generate_synthetic_trajectory,
                                 initial_state_from_groundtruth)
from toafusion.toa_sim import BaseStation, default_stations

from conftest import (assert_matches_oracle, dead_reckon, imu_residual, imu_table,
                      make_imu, make_toa, oracle_integrate, oracle_slice,
                      model_of, random_rotation)
from so3_reference import exp_so3


def make_values(rng, n_kf, n_st):
    return pgo.GraphValues(
        rot=np.array([random_rotation(rng) for _ in range(n_kf)]),
        pos=rng.uniform(-3, 3, (n_kf, 3)),
        vel=rng.standard_normal((n_kf, 3)),
        bias=0.05 * rng.standard_normal((n_kf, 6)),
        stations=rng.uniform(-10, 10, (n_st, 3)))


def make_tables(imu=None, ranges=(), priors=(), stations=()):
    """Factor tables from an IMU table (default: none) and plain rows:
    ranges (kf, station, distance, sigma), priors (kf, rot0, p0, v0, b0,
    cov) and stations (station, center, sigma)."""
    imu_tab = imu if imu is not None else pgo._ImuTable.chain(0)

    def col(rows, c, dtype=float, shape=()):
        return np.array([r[c] for r in rows], dtype=dtype).reshape((len(rows),) + shape)
    return pgo.FactorTables(
        imu_tab,
        pgo._RangeTable(col(ranges, 0, np.int64), col(ranges, 1, np.int64),
                        col(ranges, 2), col(ranges, 3)),
        pgo._PriorTable(col(priors, 0, np.int64), col(priors, 1, shape=(3, 3)),
                        col(priors, 2, shape=(3,)), col(priors, 3, shape=(3,)),
                        col(priors, 4, shape=(6,)),
                        np.array([pgo._sqrt_info(r[5]) for r in priors]
                                 ).reshape(-1, 15, 15)),
        pgo._StationPriorTable(col(stations, 0, np.int64),
                               col(stations, 1, shape=(3,)),
                               1.0 / col(stations, 2)))


def dense_jacobian(tables, values, first_kf=0):
    """Dense whitened J and r of the factors in tables on keyframes
    [first_kf, N) and every station, scattered from the kernels' own
    Jacobians one row block at a time."""
    n_kf = values.n_keyframes - first_kf
    nk = pgo.KF_DIM * n_kf
    n_cols = nk + 3 * values.stations.shape[0]
    jac_rows, res = [], []

    def add(r_w, blocks):
        jac = np.zeros((len(r_w), n_cols))
        for col, block in blocks:
            jac[:, col:col + block.shape[1]] += block
        jac_rows.append(jac)
        res.append(r_w)

    def kf_col(kf):
        return pgo.KF_DIM * (kf - first_kf)

    ev = pgo._evaluate(tables, values)
    imu = tables.imu
    r_w, jac = ev.imu.r_w, pgo._imu_jacobians(imu, values, ev.imu)
    for k in range(len(imu)):
        if imu.i[k] >= first_kf:
            add(r_w[k], [(kf_col(imu.i[k]), jac[k][:, :15]),
                         (kf_col(imu.j[k]), jac[k][:, 15:])])
    rt = tables.ranges
    u, r_w = ev.ranges
    for k in range(len(rt)):
        if rt.kf[k] >= first_kf:
            row = (u[k] / rt.sigma[k])[None]
            add(r_w[k:k + 1], [(kf_col(rt.kf[k]) + 3, -row),
                               (nk + 3 * rt.station[k], row)])
    pt = tables.priors
    r_w, jac = ev.priors[0], pgo._prior_jacobians(pt, ev.priors[1])
    for k in range(len(pt)):
        if pt.kf[k] >= first_kf:
            add(r_w[k], [(kf_col(pt.kf[k]), jac[k])])
    sp = tables.stations
    r_w = ev.stations
    for k in range(len(sp)):
        add(r_w[k], [(nk + 3 * sp.station[k], sp.inv_sigma[k] * np.eye(3))])
    return np.vstack(jac_rows), np.concatenate(res)


def stacked_residual(tables, values, copies=1):
    """Every whitened residual of tables (of `copies` replicas, one row
    each), in the row order of dense_jacobian with first_kf 0."""
    ev = pgo._evaluate(tables, values)
    parts = [ev.imu.r_w, ev.ranges[1], ev.priors[0], ev.stations]
    return np.concatenate([p.reshape(copies, -1) for p in parts], axis=1)


def replicate(tables, values, copies):
    """The factors and variables of tables and values, stacked `copies`
    times: copy b holds keyframe k at b * N + k and station s at b * K + s."""
    n_kf, n_st = values.n_keyframes, values.stations.shape[0]

    def rep(tab, **strides):
        out = tab.rows(np.tile(np.arange(len(tab)), copies))
        copy = np.repeat(np.arange(copies), len(tab))
        for name, stride in strides.items():
            setattr(out, name, getattr(out, name) + copy * stride)
        return out
    big = pgo.FactorTables(rep(tables.imu, i=n_kf, j=n_kf),
                           rep(tables.ranges, kf=n_kf, station=n_st),
                           rep(tables.priors, kf=n_kf),
                           rep(tables.stations, station=n_st))
    return big, pgo.GraphValues(*(np.concatenate([a] * copies) for a in (
        values.rot, values.pos, values.vel, values.bias, values.stations)))


def fd_jacobian_check(tables, values, eps=1e-6):
    """Max relative error, over the variable blocks (keyframes, stations),
    of the kernels' Jacobians against central differences of their
    residuals under the solver's retraction. The 2 n perturbed copies of
    the n coordinates are evaluated in one call per kernel."""
    jac, _ = dense_jacobian(tables, values)
    n = jac.shape[1]
    n_kf, n_st = values.n_keyframes, values.stations.shape[0]
    nk = pgo.KF_DIM * n_kf
    big, big_values = replicate(tables, values, 2 * n)
    # Copy 2c moves coordinate c by +eps, copy 2c + 1 by -eps.
    steps = np.zeros((2 * n, n))
    steps[0::2] = eps * np.eye(n)
    steps[1::2] = -eps * np.eye(n)
    delta = np.concatenate([steps[:, :nk].ravel(), steps[:, nk:].ravel()])
    moved = pgo._retract(big_values, delta, 0, 2 * n * n_kf)
    out = stacked_residual(big, moved, 2 * n)
    fd = ((out[0::2] - out[1::2]) / (2 * eps)).T
    blocks = [slice(c, c + pgo.KF_DIM) for c in range(0, nk, pgo.KF_DIM)]
    blocks += [slice(c, c + 3) for c in range(nk, n, 3)]
    return max(np.linalg.norm(jac[:, b] - fd[:, b])
               / max(np.linalg.norm(fd[:, b]), 1e-9) for b in blocks)


def random_imu_rows(rng, bias, noise=ImuNoiseParams()):
    """IMU factors between keyframes k and k + 1, one per row of the (m, 6)
    or (6,) bias, each over 20 random samples 5 ms apart and linearized at
    its bias row: the IMU columns, the m + 1 keyframe stamps 100 ms apart
    and the factor table."""
    bias = np.atleast_2d(bias)
    m = len(bias)
    omega, accel = (np.array(part) for part in zip(*[
        (rng.uniform(-1, 1, (20, 3)), rng.uniform(-5, 5, (20, 3))) for _ in range(m)]))
    batch = pre.integrate_batch(omega, accel, np.full((m, 20), 0.005), bias[:, 0:3],
                                bias[:, 3:6], noise)
    imu = make_imu(np.arange(20 * m) * 5_000_000, omega.reshape(-1, 3),
                   accel.reshape(-1, 3))
    times = np.arange(m + 1) * 100_000_000
    return imu, times, imu_table(batch, pgo._imu_sqrt_info(batch))


def record(monkeypatch, module, name):
    """The results of every call of module.name, as the calls return them."""
    results = []
    real = getattr(module, name)

    def wrapper(*args, **kwargs):
        results.append(real(*args, **kwargs))
        return results[-1]
    monkeypatch.setattr(module, name, wrapper)
    return results


class TestRangeResidual:
    """The range factor as _evaluate whitens it: measured minus predicted
    distance over sigma."""

    def one_range(self, p, station, distance, sigma=1.0):
        values = pgo.GraphValues(np.eye(3)[None], np.asarray(p, float)[None],
                                 np.zeros((1, 3)), np.zeros((1, 6)),
                                 np.asarray(station, float)[None])
        return make_tables(ranges=[(0, 0, distance, sigma)]), values

    @staticmethod
    def ranges(tables, values):
        return pgo._evaluate(tables, values).ranges

    def test_examples(self):
        for distance, expected in ((5.0, 0.0), (6.0, 1.0)):
            tables, values = self.one_range(np.zeros(3), [3.0, 4.0, 0.0], distance)
            _, r_w = self.ranges(tables, values)
            assert r_w[0] == pytest.approx(expected)
        tables, values = self.one_range(np.zeros(3), [3.0, 4.0, 0.0], 6.0, 0.5)
        assert self.ranges(tables, values)[1][0] == pytest.approx(2.0)

    def test_gradient_matches_finite_differences(self, rng):
        for _ in range(100):
            p = rng.uniform(-10, 10, 3)
            loc = rng.uniform(-10, 10, 3)
            if np.linalg.norm(p - loc) < 0.1:
                continue
            d = float(rng.uniform(1, 30))
            tables, values = self.one_range(p, loc, d)
            u, _ = self.ranges(tables, values)
            grad = -u[0]            # of the residual, by the position
            # At eps 1e-6 the rounding of a distance of up to 40 m (~5e-15)
            # is ~1e-9 of the quotient, over 1e-6 of its smallest entries.
            eps = 1e-5
            for j in range(3):
                e = np.zeros(3)
                e[j] = eps
                plus = self.ranges(tables, self.one_range(p + e, loc, d)[1])
                minus = self.ranges(tables, self.one_range(p - e, loc, d)[1])
                fd = (plus[1][0] - minus[1][0]) / (2 * eps)
                assert abs(grad[j] - fd) / max(abs(fd), 1e-6) < 1e-6

    def test_degenerate(self):
        tables, values = self.one_range(np.zeros(3), np.zeros(3), 1.0)
        with pytest.raises(DegenerateGeometry):
            self.ranges(tables, values)


class TestFactorJacobians:
    def test_imu_factor(self, rng):
        for _ in range(20):
            values = make_values(rng, 2, 1)
            tables = make_tables(imu=random_imu_rows(rng, np.zeros(6))[2])
            assert fd_jacobian_check(tables, values) < 1e-5

    def test_range_factor(self, rng):
        for _ in range(20):
            values = make_values(rng, 1, 2)
            tables = make_tables(ranges=[(0, 1, float(rng.uniform(1, 20)), 0.2)])
            assert fd_jacobian_check(tables, values) < 1e-5

    def test_prior_factors(self, rng):
        for _ in range(5):
            values = make_values(rng, 2, 2)
            cov = np.diag(rng.uniform(1e-3, 1e-1, 15))
            tables = make_tables(
                priors=[(1, random_rotation(rng), rng.standard_normal(3),
                         rng.standard_normal(3), rng.standard_normal(6), cov)],
                stations=[(1, rng.standard_normal(3), 1e-3)])
            assert fd_jacobian_check(tables, values) < 1e-5


def noiseless_setup(kind="hover_then_dash", duration=4.0, n_bs=5, speed=0.5):
    spec = SyntheticTrajectorySpec(kind=kind, duration_s=duration,
                                   speed_mps=speed)
    imu, gt = generate_synthetic_trajectory(spec)
    stations = default_stations(n_bs)
    toa = toa_sim.simulate(gt, stations, toa_sim.noiseless_model(n_bs),
                           rate_hz=5.0).ranges
    config = pgo.PgoConfig(initial_state=initial_state_from_groundtruth(gt),
                           range_model=model_of(stations))
    return imu, gt, toa, config


class TestBuildGraph:
    def test_keyframe_and_factor_counts(self):
        imu = regular_imu()
        config = pgo.PgoConfig(NavState.identity(), model_of(default_stations(5)))
        graph, _ = pgo.build_graph(imu, NO_RANGES, config)
        assert len(graph.keyframes) == 11
        assert graph.tables.imu.i.tolist() == list(range(10))
        assert graph.tables.imu.j.tolist() == list(range(1, 11))

    def test_range_factor_count(self):
        imu = regular_imu()
        stations = default_stations(5)
        toa = make_toa((int(tick * 2e8), bs.id, 10.0)
                       for tick in range(6) for bs in stations)
        config = pgo.PgoConfig(NavState.identity(), model_of(stations))
        graph, _ = pgo.build_graph(imu, toa, config)
        assert len(graph.tables.ranges) == 30

    def test_tie_goes_to_earlier_keyframe(self):
        imu = regular_imu()
        toa = make_toa([(int(5e7), 1, 10.0)])   # exactly between kf 0 and 1
        config = pgo.PgoConfig(NavState.identity(), model_of(default_stations(1)))
        graph, _ = pgo.build_graph(imu, toa, config)
        assert list(graph.tables.ranges.kf) == [0]

    def test_range_within_half_cadence(self):
        imu, gt, toa, config = noiseless_setup()
        graph, _ = pgo.build_graph(imu, toa, config)
        times = [kf.t for kf in graph.keyframes]
        half_period = 0.5e9 / config.options.node_rate_hz
        assert len(graph.tables.ranges) == len(toa)
        for kf, t in zip(graph.tables.ranges.kf, toa.t):
            assert abs(times[kf] - t) <= half_period

    def test_empty_input(self):
        config = pgo.PgoConfig(NavState.identity(), model_of(default_stations(1)))
        with pytest.raises(EmptyInput):
            pgo.build_graph(regular_imu(skip=range(201)), NO_RANGES, config)

    def test_empty_interval_names_its_keyframes(self):
        # Samples 60-80 (0.300-0.400 s) missing: keyframes 3 and 4 have none
        # between them.
        imu = regular_imu(skip=range(60, 81))
        config = imu_config(final_batch=False)
        for run in (pgo.build_graph, pgo.run_sliding_window):
            with pytest.raises(EmptyInput, match="between keyframes 3 and 4$"):
                run(imu, NO_RANGES, config)


def jittered_imu(rng, seconds=2.0, rate_hz=200.0, jitter_ns=1_500_000,
                 drop=0.05):
    """Random IMU readings on jittered stamps with some samples dropped."""
    period = int(1e9 / rate_hz)
    stamps = np.arange(0, int(seconds * 1e9) + 1, period)
    stamps[1:-1] += rng.integers(-jitter_ns, jitter_ns + 1, len(stamps) - 2)
    keep = np.ones(len(stamps), dtype=bool)
    keep[1:-1] = rng.uniform(size=len(stamps) - 2) > drop
    n = int(keep.sum())
    return make_imu(stamps[keep], rng.uniform(-1, 1, (n, 3)),
                    rng.uniform(-5, 5, (n, 3)) - GRAVITY)


def imu_config(n_bs=3, bias_drift_threshold=None, **options):
    """A problem with a biased initial state; options are [pgo] options."""
    state = NavState.identity()
    state.b_g = np.array([0.01, -0.02, 0.005])
    state.b_a = np.array([0.1, 0.05, -0.2])
    config = pgo.PgoConfig(state, model_of(default_stations(n_bs), 0.1),
                           options=PgoOptions(**options))
    if bias_drift_threshold is not None:
        config.bias_drift_threshold = bias_drift_threshold
    return config


def regular_imu(seconds=1.0, skip=()):
    """200 Hz hover readings, without the samples whose index is in skip."""
    k = np.setdiff1d(np.arange(int(seconds * 200) + 1), list(skip))
    return make_imu(k * 5_000_000, np.zeros(3), -GRAVITY)


NO_RANGES = make_toa([])


class TestImuDataPath:
    def test_jittered_imu_factors_match_per_sample_oracle(self, rng, monkeypatch):
        imu = jittered_imu(rng)
        config = imu_config()
        slices = record(monkeypatch, pre, "slice_imu_between")
        batches = record(monkeypatch, pre, "integrate_batch")
        graph, _ = pgo.build_graph(imu, NO_RANGES, config)
        (omega, accel, dt, counts), = slices
        batch, = batches
        times = [kf.t for kf in graph.keyframes]
        bias0_g, bias0_a = config.initial_state.b_g, config.initial_state.b_a
        assert len(counts) == len(times) - 1
        for k, c in enumerate(counts):
            want = oracle_slice(imu, times[k], times[k + 1])
            for got, w in zip((omega[k, :c], accel[k, :c], dt[k, :c]), want):
                np.testing.assert_array_equal(got, w)
            assert_matches_oracle(batch, k, oracle_integrate(
                *want, bias0_g, bias0_a, config.noise))
        assert len(set(counts.tolist())) >= 3     # unequal interval lengths were padded

    def test_table_factors_and_dead_reckoning_agree(self, rng, monkeypatch):
        imu = jittered_imu(rng)
        config = imu_config()
        batches = record(monkeypatch, pre, "integrate_batch")
        graph, values = pgo.build_graph(imu, NO_RANGES, config)
        batch, = batches
        tab = graph.tables.imu
        # The table filled by slice holds each interval's own row, bit for bit.
        want = imu_table(batch, tab.sqrt_info)
        for fld in dataclasses.fields(want):
            assert_same_bits(getattr(tab, fld.name), getattr(want, fld.name))
        assert_whitened(tab.sqrt_info, batch)
        for k in range(len(tab)):
            # Keyframe j is dead-reckoned from keyframe i, bit for bit.
            i, j = tab.i[k], tab.j[k]
            state_j = dead_reckon(batch, k, values.rot[i], values.pos[i],
                                  values.vel[i], GRAVITY)
            for got, exp in zip((values.rot[j], values.pos[j], values.vel[j]),
                                state_j):
                assert_same_bits(got, exp)

    def test_sliding_factors_match_oracle_at_their_bias_point(self, rng,
                                                              monkeypatch):
        imu = jittered_imu(rng, seconds=1.5)
        config = imu_config(window=5, final_batch=False,
                            bias_drift_threshold=5e-3)
        graph, _ = pgo.build_graph(imu, NO_RANGES, config)
        toa = make_toa((kf.t, bs_id, 5.0 + bs_id) for kf in graph.keyframes
                       for bs_id in config.range_model.ids.tolist())
        latest, moves = {}, []
        real_put = pgo._put_imu_rows

        def put_imu_rows(imu, times, tab, rows, bias, noise):
            idx = np.arange(len(tab))[rows]
            if bias.ndim == 2:          # re-integration: a bias row per factor
                moves.extend(np.max(np.abs(tab.bias_lin[idx] - bias), axis=1))
            batch = real_put(imu, times, tab, rows, bias, noise)
            latest.update((row, (batch, k)) for k, row in enumerate(idx))
            return batch
        monkeypatch.setattr(pgo, "_put_imu_rows", put_imu_rows)
        run = pgo.run_sliding_window(imu, toa, config)
        # Only factors whose own bias point is stale are re-integrated.
        assert run.reintegrations == len(moves) > 0
        assert min(moves) > config.bias_drift_threshold
        times = [kf.t for kf in graph.keyframes]
        assert sorted(latest) == list(range(len(times) - 1))
        for row, (batch, k) in latest.items():
            omega, accel, dts = oracle_slice(imu, times[row], times[row + 1])
            assert_matches_oracle(batch, k, oracle_integrate(
                omega, accel, dts, batch.bias_gyro[k], batch.bias_accel[k],
                config.noise))

    def test_empty_interval(self):
        # Samples 60-89 (0.30-0.445 s) are missing: keyframes 3 and 4 have
        # nothing between them.
        imu = regular_imu(skip=range(60, 90))
        config = imu_config()
        with pytest.raises(EmptyInput, match="keyframes 3 and 4"):
            pgo.build_graph(imu, NO_RANGES, config)
        with pytest.raises(EmptyInput, match="keyframes 3 and 4"):
            pgo.run_sliding_window(imu, NO_RANGES, config)

    def test_gap_inside_an_interval(self):
        # Keyframes every 0.5 s; a 0.2 s gap after the sample at 0.1 s.
        imu = regular_imu(skip=range(21, 60))
        config = imu_config(node_rate_hz=2.0)
        with pytest.raises(InvalidDt):
            pgo.build_graph(imu, NO_RANGES, config)
        with pytest.raises(InvalidDt):
            pgo.run_sliding_window(imu, NO_RANGES, config)

    @pytest.mark.parametrize("swap", [(10, 11), (0, 200)])
    def test_unsorted_timestamps_rejected(self, swap):
        imu = regular_imu()
        imu.t[list(swap)] = imu.t[list(swap[::-1])]
        config = imu_config()
        for run in (pgo.build_graph, pgo.run_batch, pgo.run_sliding_window):
            with pytest.raises(NonMonotonicTimestamp, match="IMU sample"):
                run(imu, NO_RANGES, config)

    def test_repeated_timestamp_rejected(self):
        imu = regular_imu()
        imu.t[50] = imu.t[49]
        with pytest.raises(NonMonotonicTimestamp, match="IMU sample 50"):
            pgo.build_graph(imu, NO_RANGES, imu_config())
        assert issubclass(NonMonotonicTimestamp, DataError)


def groundtruth_values(graph, gt, config):
    values = pgo.GraphValues(
        rot=np.zeros((len(graph.keyframes), 3, 3)),
        pos=np.zeros((len(graph.keyframes), 3)),
        vel=np.zeros((len(graph.keyframes), 3)),
        bias=np.zeros((len(graph.keyframes), 6)),
        stations=config.range_model.positions.copy())
    for k, kf in enumerate(graph.keyframes):
        i = int(np.argmin(np.abs(gt.t - kf.t)))
        values.rot[k] = geo.quat_to_rot(gt.orientation[i])
        values.pos[k] = gt.position[i]
        values.vel[k] = gt.velocity[i]
    return values


def imu_residual_oracle(batch, k, i, j, values, gravity):
    """The unwhitened residual of the IMU factor of interval k of batch
    between keyframes i and j, from its increments corrected to first order
    for the bias at keyframe i."""
    dbg = values.bias[i, 0:3] - batch.bias_gyro[k]
    dba = values.bias[i, 3:6] - batch.bias_accel[k]
    d_rot = batch.d_rot[k] @ exp_so3(batch.j_rot_bg[k] @ dbg)
    d_pos = batch.d_pos[k] + batch.j_pos_bg[k] @ dbg + batch.j_pos_ba[k] @ dba
    d_vel = batch.d_vel[k] + batch.j_vel_bg[k] @ dbg + batch.j_vel_ba[k] @ dba
    rot_i, dt = values.rot[i], batch.dt_total[k]
    return np.concatenate([
        geo.log_so3(d_rot.T @ rot_i.T @ values.rot[j]),
        rot_i.T @ (values.pos[j] - values.pos[i] - values.vel[i] * dt
                   - 0.5 * gravity * dt * dt) - d_pos,
        rot_i.T @ (values.vel[j] - values.vel[i] - gravity * dt) - d_vel,
        values.bias[j] - values.bias[i]])


class TestTotalCost:
    def test_groundtruth_noiseless_cost_tiny(self):
        imu, gt, toa, config = noiseless_setup()
        graph, _ = pgo.build_graph(imu, toa, config)
        values = groundtruth_values(graph, gt, config)
        assert pgo._evaluate(graph.tables, values).cost < 1e-10

    def test_doubling_covariance_halves_contribution(self, rng):
        values = make_values(rng, 1, 1)
        c0 = pgo._evaluate(make_tables(ranges=[(0, 0, 5.0, 0.2)]), values).cost
        c1 = pgo._evaluate(make_tables(ranges=[(0, 0, 5.0, 0.2 * np.sqrt(2.0))]),
                           values).cost
        assert c1 == pytest.approx(0.5 * c0, rel=1e-12)

    def test_matches_per_factor_oracle(self, rng, monkeypatch):
        imu, gt, toa, config = noiseless_setup(duration=2.0)
        batches = record(monkeypatch, pre, "integrate_batch")
        graph, values = pgo.build_graph(imu, toa, config)
        batch, = batches
        # Perturb away from the optimum so the cost is non-trivial.
        values.pos += 0.1 * rng.standard_normal(values.pos.shape)
        values.bias += 0.01 * rng.standard_normal(values.bias.shape)
        values.stations += 1e-3 * rng.standard_normal(values.stations.shape)
        terms = []                                   # (residual, covariance)
        noise = config.noise
        for k in range(len(batch.dt_total)):
            cov = scipy.linalg.block_diag(
                batch.cov[k], noise.sigma_wg ** 2 * batch.dt_total[k] * np.eye(3),
                noise.sigma_wa ** 2 * batch.dt_total[k] * np.eye(3))
            terms.append((imu_residual_oracle(batch, k, k, k + 1, values,
                                              GRAVITY), cov))
        times = np.array([kf.t for kf in graph.keyframes])
        for t, bs_id, distance in zip(toa.t, toa.bs_id, toa.distance):
            kf = int(np.argmin(np.abs(times - t)))
            s = bs_id - 1
            r = distance - np.linalg.norm(values.pos[kf] - values.stations[s])
            terms.append((np.array([r]), np.array([[EskfOptions.sigma_floor ** 2]])))
        state = config.initial_state
        terms.append((np.concatenate([
            geo.log_so3(geo.quat_to_rot(state.q).T @ values.rot[0]),
            values.pos[0] - state.p, values.vel[0] - state.v,
            values.bias[0] - np.concatenate([state.b_g, state.b_a])]),
            np.diag(pgo.PRIOR_SIGMA ** 2)))
        for s, position in enumerate(config.range_model.positions):
            terms.append((values.stations[s] - position,
                           config.options.station_prior_sigma ** 2 * np.eye(3)))
        expected = sum(float(r @ np.linalg.solve(cov, r)) for r, cov in terms)
        assert pgo._evaluate(graph.tables, values).cost == pytest.approx(
            expected, rel=1e-9)


class TestOptimize:
    def multilateration_graph(self):
        stations = [BaseStation(1, np.zeros(3)),
                    BaseStation(2, np.array([10.0, 0.0, 0.0])),
                    BaseStation(3, np.array([0.0, 10.0, 0.0])),
                    BaseStation(4, np.array([0.0, 0.0, 10.0]))]
        truth = np.array([2.0, 3.0, 4.0])
        tables = make_tables(
            ranges=[(0, k, float(np.linalg.norm(truth - bs.position)), 0.01)
                    for k, bs in enumerate(stations)],
            stations=[(k, bs.position.copy(), 1e-3) for k, bs in enumerate(stations)])
        graph = pgo.FactorGraph([pgo.KeyframeId(0, 0)], tables)
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

    def test_candidates_are_evaluated_once(self, rng, monkeypatch):
        # The reference solve assembles every iteration from scratch, so it
        # evaluates each accepted candidate's residuals twice.
        imu, gt, toa, config = noiseless_setup(duration=3.0)
        graph, values = pgo.build_graph(imu, toa, config)
        values.pos += 0.2 * rng.standard_normal(values.pos.shape)
        real_build = pgo._build_normal_equations
        fresh = []

        def build_fresh(tables, values, first_kf, n_kf, n_st, evaluation=None):
            fresh.append(real_build(tables, values, first_kf, n_kf, n_st))
            return fresh[-1]
        monkeypatch.setattr(pgo, "_build_normal_equations", build_fresh)
        want_values, want = pgo.optimize(graph, values)
        monkeypatch.undo()
        evaluations = record(monkeypatch, pgo, "_imu_residuals")
        kept = record(monkeypatch, pgo, "_build_normal_equations")
        got_values, got = pgo.optimize(graph, values)

        assert got.iterations > 1
        assert len(evaluations) <= got.iterations + 1
        assert (got.iterations, got.termination, got.initial_cost, got.costs,
                got.cost_log) == (want.iterations, want.termination,
                                  want.initial_cost, want.costs, want.cost_log)
        assert len(kept) == len(fresh) == got.iterations
        for neq, ref in zip(kept, fresh):
            for fld in ("band", "coupling", "stations", "grad"):
                assert_same_bits(getattr(neq, fld), getattr(ref, fld))
            assert neq.cost == ref.cost
        for fld in ("rot", "pos", "vel", "bias", "stations"):
            assert_same_bits(getattr(got_values, fld), getattr(want_values, fld))


class TestBiasCorrection:
    def test_corrected_increments_match_reintegration(self, rng):
        omega = rng.uniform(-1, 1, (40, 3))
        accel = rng.uniform(-5, 5, (40, 3))
        dts = np.full(40, 0.005)
        base = pre.integrate_batch(omega[None], accel[None], dts[None], np.zeros(3),
                                   np.zeros(3))
        db_g = 1e-3 * rng.standard_normal(3)
        db_a = 1e-2 * rng.standard_normal(3)
        exact = pre.integrate_batch(omega[None], accel[None], dts[None], db_g, db_a)
        # Keyframe j dead-reckoned through the exact increments: the
        # residual of the base increments at the moved bias is the gap
        # between their first-order correction and the exact increments.
        rot_j, p_j, v_j = (x[1] for x in pre.predict(exact, np.eye(3), np.zeros(3),
                                                     np.zeros(3)))
        bias = np.concatenate([db_g, db_a])
        r = imu_residual(base, (np.eye(3), np.zeros(3), np.zeros(3), bias),
                         (rot_j, p_j, v_j, bias))
        assert np.linalg.norm(r[0:3]) < 1e-7
        assert np.linalg.norm(r[3:6]) < 1e-6
        assert np.linalg.norm(r[6:9]) < 1e-5

    def test_reintegration_triggers_on_large_drift(self, rng):
        imu, times, tab = random_imu_rows(rng, np.zeros(6))
        values = make_values(rng, 2, 1)
        values.bias[0] = np.full(6, 0.1)
        noise = ImuNoiseParams()
        count = pgo._reintegrate_drifted(imu, times, tab, values.bias, noise,
                                         threshold=0.05)
        assert count == 1
        np.testing.assert_array_equal(tab.bias_lin[0], values.bias[0])
        # After re-integration the linearization matches; no further trigger.
        assert pgo._reintegrate_drifted(imu, times, tab, values.bias, noise,
                                        threshold=0.05) == 0

    def test_only_drifted_factors_reintegrated(self, rng, monkeypatch):
        noise = ImuNoiseParams()
        values = make_values(rng, 5, 2)
        imu, times, tab = random_imu_rows(
            rng, values.bias[:-1] + [0, 0, 0, 0.01, 0.01, 0.01], noise)
        values.bias[:-1] = tab.bias_lin
        values.bias[1, 4] += 0.06       # accel component past the threshold
        values.bias[3, 0] -= 0.2        # gyro component past the threshold
        values.bias[2] += 0.04          # within it
        before = tab.rows(np.arange(len(tab)))
        batches = record(monkeypatch, pre, "integrate_batch")
        assert pgo._reintegrate_drifted(imu, times, tab, values.bias, noise,
                                        threshold=0.05) == 2
        batch, = batches
        drifted, kept = np.array([1, 3]), np.array([0, 2])
        for k, row in enumerate(drifted):
            # Sliced again from the IMU columns, at the bias estimate.
            np.testing.assert_array_equal(batch.bias_gyro[k], values.bias[row, 0:3])
            np.testing.assert_array_equal(batch.bias_accel[k], values.bias[row, 3:6])
            assert_matches_oracle(batch, k, oracle_integrate(
                *oracle_slice(imu, times[row], times[row + 1]),
                values.bias[row, 0:3], values.bias[row, 3:6], noise))
        # The drifted rows hold their new preintegration, the others their
        # old bits.
        want = imu_table(batch, tab.sqrt_info[drifted], i=drifted)
        for fld in dataclasses.fields(want):
            assert_same_bits(getattr(tab.rows(drifted), fld.name),
                             getattr(want, fld.name))
            assert_same_bits(getattr(tab.rows(kept), fld.name),
                             getattr(before.rows(kept), fld.name))
        assert_whitened(tab.sqrt_info[drifted], batch)


class TestRunBatch:
    def test_noiseless_batch_matches_groundtruth(self):
        imu, gt, toa, config = noiseless_setup(kind="circle", duration=8.0,
                                               speed=1.0)
        traj = pgo.run_batch(imu, toa, config).batch
        rep = metrics.evaluate(traj, gt)
        assert rep.ate < 0.01

    def test_deterministic(self):
        imu, gt, toa, config = noiseless_setup(duration=3.0)
        a = pgo.run_batch(imu, toa, config).batch
        b = pgo.run_batch(imu, toa, config).batch
        np.testing.assert_array_equal(a.position, b.position)
        np.testing.assert_array_equal(a.orientation, b.orientation)

    def test_run_record(self):
        # The same record as the sliding window: no streamed estimate, one
        # step time for the whole solve and the solve's report.
        imu, gt, toa, config = noiseless_setup(duration=3.0)
        run = pgo.run_batch(imu, toa, config)
        assert run.streamed is None
        assert len(run.batch) == 31
        assert run.step_times_ms.shape == (1,) and run.step_times_ms[0] > 0.0
        assert run.final_report is not None and run.final_report.iterations > 0


class TestSeedFromTrajectory:
    def test_matches_per_keyframe_assignment(self, rng):
        imu, gt, toa, config = noiseless_setup(duration=2.0)
        graph, values = pgo.build_graph(imu, toa, config)
        # Every other ground-truth pose, perturbed: each keyframe takes the
        # pose nearest in time.
        sub = gt[::2]
        n = len(sub)
        quat = sub.orientation + 0.1 * rng.standard_normal((n, 4))
        traj = Trajectory(sub.t, sub.position + rng.standard_normal((n, 3)),
                          quat / np.linalg.norm(quat, axis=1)[:, None],
                          sub.velocity + rng.standard_normal((n, 3)))
        want = values.copy()
        times = np.array([kf.t for kf in graph.keyframes])
        for k, t in enumerate(times):
            est = int(np.argmin(np.abs(traj.t - t)))   # earlier one on ties
            want.rot[k] = geo.quat_to_rot(traj.orientation[est])
            want.pos[k], want.vel[k] = traj.position[est], traj.velocity[est]
        pgo._seed_from_trajectory(graph, values, traj)
        for name in ("rot", "pos", "vel", "bias"):
            assert_same_bits(getattr(values, name), getattr(want, name))


class TestSlidingWindow:
    def test_wide_window_equals_batch(self):
        imu, gt, toa, config = noiseless_setup(duration=4.0)
        config.options.window = 10 ** 6
        run = pgo.run_sliding_window(imu, toa, config)
        batch = pgo.run_batch(imu, toa, config).batch
        np.testing.assert_allclose(run.batch.position, batch.position, atol=1e-4)

    def test_noiseless_streamed_accuracy(self):
        imu, gt, toa, config = noiseless_setup(kind="circle", duration=8.0,
                                               speed=1.0)
        config.options.window = 20
        run = pgo.run_sliding_window(imu, toa, config)
        gt_traj = gt
        assert metrics.evaluate(run.streamed, gt_traj).ate < 0.01
        assert metrics.evaluate(run.batch, gt_traj).ate < 0.01
        assert len(run.step_times_ms) == len(run.streamed) - 1

    def test_deterministic(self):
        imu, gt, toa, config = noiseless_setup(duration=3.0)
        config.options.window = 10
        a = pgo.run_sliding_window(imu, toa, config)
        b = pgo.run_sliding_window(imu, toa, config)
        np.testing.assert_array_equal(a.streamed.position, b.streamed.position)
        np.testing.assert_array_equal(a.batch.position, b.batch.position)

    def test_marginalization_engages(self):
        imu, gt, toa, config = noiseless_setup(duration=5.0)
        config.options.window = 8
        run = pgo.run_sliding_window(imu, toa, config)
        gt_traj = gt
        assert metrics.evaluate(run.streamed, gt_traj).ate < 0.05


def reintegrating_setup(rng, **kwargs):
    """A short sliding-window run whose bias drift re-integrates factors."""
    imu = jittered_imu(rng, seconds=1.5)
    config = imu_config(window=5, bias_drift_threshold=5e-3, **kwargs)
    graph, _ = pgo.build_graph(imu, NO_RANGES, config)
    toa = make_toa((kf.t, bs_id, 5.0 + bs_id) for kf in graph.keyframes
                   for bs_id in config.range_model.ids.tolist())
    return imu, toa, config


def assert_same_bits(actual, expected):
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def assert_whitened(sqrt_info, batch):
    """sqrt_info[k] whitens interval k of batch: its covariance, then the
    bias random walk over the interval, whitened per matrix by scipy."""
    noise = batch.noise
    for k, s in enumerate(sqrt_info):
        cov = scipy.linalg.block_diag(
            batch.cov[k], noise.sigma_wg ** 2 * batch.dt_total[k] * np.eye(3),
            noise.sigma_wa ** 2 * batch.dt_total[k] * np.eye(3))
        ref = TestWhitening.reference(cov)
        assert np.max(np.abs(s - ref)) <= 1e-12 * np.max(np.abs(ref))


class TestSlidingWindowTables:
    def test_window_tables_match_restacked_factors(self, rng, monkeypatch):
        imu, toa, config = reintegrating_setup(rng, final_batch=False)
        graph, _ = pgo.build_graph(imu, NO_RANGES, config)
        times = np.array([kf.t for kf in graph.keyframes])
        nearest = [int(np.argmin(np.abs(times - t))) for t in toa.t]
        latest, steps = {}, []
        real_put, real_optimize = pgo._put_imu_rows, pgo.optimize

        def put_imu_rows(imu, times, tab, rows, bias, noise):
            batch = real_put(imu, times, tab, rows, bias, noise)
            for k, row in enumerate(np.arange(len(tab))[rows]):
                # Interval k of the batch, every field but the shared noise.
                latest[row] = ({f.name: getattr(batch, f.name)[k]
                                for f in dataclasses.fields(batch) if f.name != "noise"},
                               tab.sqrt_info[row].copy())
            return batch

        def optimize(graph, values, options=None, first_kf=0):
            # Restack the window's factors: IMU factors [first_kf, n - 1)
            # from the last batch row built for each, and the ranges on
            # keyframes [first_kf, n) from the measurements, by keyframe.
            n = values.n_keyframes
            ranges = sorted(((kf, bs_id - 1, distance, 0.1)
                             for kf, bs_id, distance
                             in zip(nearest, toa.bs_id, toa.distance)
                             if first_kf <= kf < n),
                            key=lambda row: row[0])
            rows = [latest[row] for row in range(first_kf, n - 1)]
            restacked = types.SimpleNamespace(**{
                name: np.stack([r[0][name] for r in rows]) for name in rows[0][0]})
            want = make_tables(
                imu=imu_table(restacked, [r[1] for r in rows], i=range(first_kf, n - 1)),
                ranges=ranges)
            got = graph.tables
            for table in ("imu", "ranges"):
                for fld in dataclasses.fields(getattr(want, table)):
                    assert_same_bits(getattr(getattr(got, table), fld.name),
                                     getattr(getattr(want, table), fld.name))
            assert got.priors.kf.tolist() == [first_kf]
            steps.append(n)
            return real_optimize(graph, values, options, first_kf)
        monkeypatch.setattr(pgo, "_put_imu_rows", put_imu_rows)
        monkeypatch.setattr(pgo, "optimize", optimize)
        run = pgo.run_sliding_window(imu, toa, config)
        assert steps == list(range(2, len(run.streamed) + 1))
        assert run.reintegrations > 0

    def test_reintegrations_count_factors(self, rng, monkeypatch):
        imu, toa, config = reintegrating_setup(rng, final_batch=True)
        passed, in_final_batch = [], []
        real_put, real_solve = pgo._put_imu_rows, pgo._solve_relinearizing

        def put_imu_rows(imu, times, tab, rows, bias, noise):
            if bias.ndim == 2:          # re-integration: a bias row per factor
                passed.append(len(bias))
            return real_put(imu, times, tab, rows, bias, noise)

        def solve_relinearizing(imu, graph, values, config):
            out = real_solve(imu, graph, values, config)
            in_final_batch.append(out[2])
            return out
        monkeypatch.setattr(pgo, "_put_imu_rows", put_imu_rows)
        monkeypatch.setattr(pgo, "_solve_relinearizing", solve_relinearizing)
        run = pgo.run_sliding_window(imu, toa, config)
        assert sum(in_final_batch) > 0
        assert run.reintegrations == sum(passed) > sum(in_final_batch)

    def test_marginal_fallback_counted(self, monkeypatch):
        imu, gt, toa, config = noiseless_setup(duration=3.0)
        config.options.window = 8
        config.options.final_batch = False
        assert pgo.run_sliding_window(imu, toa, config).marginal_fallbacks == 0
        calls = []

        def marginalize(*args):
            calls.append(args)
            return None
        monkeypatch.setattr(pgo, "_marginalize_dropped", marginalize)
        run = pgo.run_sliding_window(imu, toa, config)
        assert run.marginal_fallbacks == len(calls) \
            == len(run.streamed) - config.options.window > 0


def oracle_graph(rng, n_kf=4, n_st=2, noise=ImuNoiseParams()):
    """Values and factors of every kind over a short keyframe chain."""
    values = make_values(rng, n_kf, n_st)
    _, times, imu_tab = random_imu_rows(
        rng, values.bias[:-1] + [0, 0, 0, 0.01, 0.01, 0.01], noise)
    spread = rng.standard_normal((15, 15))
    priors = [
        (0, random_rotation(rng), rng.standard_normal(3), rng.standard_normal(3),
         rng.standard_normal(6), np.diag([0.01] * 3 + [0.04] * 3 + [0.01] * 9)),
        (2, random_rotation(rng), rng.standard_normal(3), rng.standard_normal(3),
         rng.standard_normal(6), 0.02 * np.eye(15) + 1e-3 * spread @ spread.T),
    ]
    ranges = [(k, s, float(rng.uniform(1, 20)), 0.2)
              for k in range(n_kf) for s in range(n_st)]
    stations = [(s, values.stations[s] + 0.01, 1e-2) for s in range(n_st)]
    graph = pgo.FactorGraph([pgo.KeyframeId(k, t) for k, t in enumerate(times.tolist())],
                            make_tables(imu_tab, ranges, priors, stations))
    return graph, values


def dense_oracle(tables, values, first_kf):
    """Dense J^T J, J^T r and r^T r of the factors on keyframes
    [first_kf, N)."""
    jac, r = dense_jacobian(tables, values, first_kf)
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
        tables = graph.tables.from_keyframe(first_kf)
        neq = pgo._build_normal_equations(tables, values, first_kf, n_kf, n_st)
        h, g, cost = dense_oracle(graph.tables, values, first_kf)
        nk = pgo.KF_DIM * n_kf
        # The keyframe block has nothing outside the band, and the band is
        # tight: each IMU factor's (i, j) block of J^T J is exactly zero in
        # the motion rows of i by the bias columns of j.
        assert not np.any(np.triu(h[:nk, :nk], pgo.BAND_U + 1))
        assert np.any(np.diagonal(h[:nk, :nk], pgo.BAND_U))
        imu = graph.tables.imu
        jac = pgo._imu_jacobians(imu, values, pgo._imu_residuals(imu, values))
        gram = jac[:, :, :pgo.KF_DIM].transpose(0, 2, 1) @ jac[:, :, pgo.KF_DIM:]
        assert not np.any(gram[:, 0:9, 9:15])
        assert_rel_close(neq.band, upper_band(h[:nk, :nk], pgo.BAND_U), 1e-10)
        assert_rel_close(neq.coupling, h[:nk, nk:], 1e-10)
        assert_rel_close(neq.stations, h[nk:, nk:], 1e-10)
        assert_rel_close(neq.grad, g, 1e-10)
        assert neq.cost == pytest.approx(cost, rel=1e-10)
        assert pgo._evaluate(tables, values).cost == pytest.approx(cost, rel=1e-10)

    def test_window_assembly_matches_dense_oracle(self, rng):
        # A window on keyframes 2..6 of 7, as a sliding solve reads it:
        # ranges only on its first and last keyframes, with one
        # keyframe-station pair measured twice, and two priors on a
        # keyframe after the first.
        graph, values = oracle_graph(rng, n_kf=7)
        first_kf, n_kf, n_st = 2, 5, values.stations.shape[0]
        spread = rng.standard_normal((15, 15))
        ranges = [(k, s, float(rng.uniform(1, 20)), 0.2)
                  for k in (2, 6) for s in range(n_st)] + [(6, 1, 4.0, 0.3)]
        priors = [(4, random_rotation(rng), rng.standard_normal(3),
                   rng.standard_normal(3), rng.standard_normal(6),
                   0.02 * np.eye(15) + 1e-3 * spread @ spread.T)] * 2
        stations = [(s, values.stations[s] + 0.01, 1e-2) for s in range(n_st)]
        window = make_tables(graph.tables.imu.rows(slice(first_kf, None)), ranges,
                             priors, stations)
        neq = pgo._build_normal_equations(window, values, first_kf, n_kf, n_st)
        h, g, cost = dense_oracle(window, values, first_kf)
        nk = pgo.KF_DIM * n_kf
        assert_rel_close(neq.band, upper_band(h[:nk, :nk], pgo.BAND_U), 1e-10)
        assert_rel_close(neq.coupling, h[:nk, nk:], 1e-10)
        assert_rel_close(neq.stations, h[nk:, nk:], 1e-10)
        assert_rel_close(neq.grad, g, 1e-10)
        assert neq.cost == pytest.approx(cost, rel=1e-10)

    def test_band_gather_matches_upper_band(self, rng):
        # Keyframe rows [H_kk | H_k-1,k | 0] of a random block-tridiagonal
        # symmetric matrix.
        n, d = 4, pgo.KF_DIM
        h = np.zeros((n * d, n * d))
        rows = np.zeros((n, 2 * d * d + 1))
        for k in range(n):
            block = rng.standard_normal((d, d))
            h[k * d:(k + 1) * d, k * d:(k + 1) * d] = block + block.T
            rows[k, :d * d] = (block + block.T).ravel()
            if k:
                above = rng.standard_normal((d, d))
                h[(k - 1) * d:k * d, k * d:(k + 1) * d] = above
                h[k * d:(k + 1) * d, (k - 1) * d:k * d] = above.T
                rows[k, d * d:2 * d * d] = above.ravel()
        np.testing.assert_array_equal(pgo._band(rows),
                                      upper_band(h, pgo.BAND_U))

    def test_banded_schur_step_matches_dense_solve(self, rng):
        # With two stations, and without any (no Schur complement).
        for graph, values in (oracle_graph(rng), oracle_graph(rng, n_st=0)):
            n_kf, n_st = values.n_keyframes, values.stations.shape[0]
            neq = pgo._build_normal_equations(graph.tables, values, 0, n_kf, n_st)
            h, g, _ = dense_oracle(graph.tables, values, 0)
            for lam in (1e-6, 1e-3, 1.0):
                damping = lam * np.maximum(neq.diagonal(), 1e-8)
                expected = np.linalg.solve(h + np.diag(damping), -g)
                assert_rel_close(pgo._solve_damped(neq, damping), expected, 1e-8)

    @pytest.mark.parametrize("first_kf", [0, 1])
    def test_initial_cost_is_the_window_cost(self, rng, first_kf):
        graph, values = oracle_graph(rng)
        _, report = pgo.optimize(graph, values, first_kf=first_kf)
        assert report.initial_cost == pytest.approx(
            pgo._evaluate(graph.tables.from_keyframe(first_kf), values).cost,
            rel=1e-12)

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

    @pytest.mark.parametrize("fault, error", [("nan", NonFiniteCost),
                                              ("on_station", DegenerateGeometry)])
    def test_marginalization_raises_on_bad_values(self, rng, fault, error):
        # It holds the stations fixed, but still evaluates their ranges and
        # the cost.
        graph, values = oracle_graph(rng)
        values.pos[0] = np.nan if fault == "nan" else values.stations[0]
        dropped = TestMarginalization().dropped(graph, 0, 1)
        with pytest.raises(error):
            pgo._marginalize_dropped(dropped, values, 0, 1)

    def test_non_consecutive_imu_factor_rejected(self, rng):
        graph, values = oracle_graph(rng, n_kf=3)
        tab = graph.tables.imu.rows(np.array([0, 1, 0]))
        tab.j[2] = 2
        graph.tables.imu = tab
        with pytest.raises(ValueError, match="links keyframes 0 and 2"):
            pgo.optimize(graph, values)

    def test_repeated_imu_keyframe_rejected(self, rng):
        graph, values = oracle_graph(rng, n_kf=3)
        tab = graph.tables.imu.rows(np.array([0, 1, 1]))
        tab.i[1], tab.j[1] = 0, 1
        graph.tables.imu = tab
        with pytest.raises(ValueError, match="IMU factor 1 links keyframes 0 and 1"):
            pgo.optimize(graph, values)


class TestMarginalization:
    def dropped(self, graph, first_kf, new_first):
        """The factors leaving a window that starts at first_kf when it
        moves to new_first: IMU and range factors on keyframes
        [first_kf, new_first) and the priors on [first_kf, new_first]."""
        t = graph.tables
        in_range = (t.ranges.kf >= first_kf) & (t.ranges.kf < new_first)
        return pgo.FactorTables(
            t.imu.rows(slice(first_kf, new_first)), t.ranges.rows(in_range),
            t.priors.rows((t.priors.kf >= first_kf) & (t.priors.kf <= new_first)),
            t.stations.rows(slice(0, 0)))

    def dense_schur(self, dropped, values, first_kf, new_first):
        """Reference: the separator's information with the dropped keyframes
        eliminated from the dense keyframe block (stations held fixed), both
        diagonals jittered by 1e-9 as the banded path does."""
        jac, _ = dense_jacobian(dropped, values.head(new_first + 1), first_kf)
        nk = pgo.KF_DIM * (new_first - first_kf + 1)
        h = jac[:, :nk].T @ jac[:, :nk] + 1e-9 * np.eye(nk)
        d, s = slice(0, nk - pgo.KF_DIM), slice(nk - pgo.KF_DIM, nk)
        return h[s, s] - h[s, d] @ np.linalg.solve(h[d, d], h[d, s])

    @pytest.mark.parametrize("first_kf, new_first", [(0, 1), (0, 3), (1, 4)])
    def test_banded_marginal_matches_dense_schur(self, rng, first_kf, new_first):
        # With the default IMU noise the bias random walk carries ~1e10 of
        # information against priors of ~1e4, and either elimination's
        # rounding reaches 1e-8 of the result; noise densities of 1e-2 and
        # 1e-1 keep the comparison at the 1e-10 that the method allows.
        noise = ImuNoiseParams(sigma_g=1e-2, sigma_a=1e-1, sigma_wg=1e-2,
                               sigma_wa=1e-1)
        graph, values = oracle_graph(rng, n_kf=6, noise=noise)
        dropped = self.dropped(graph, first_kf, new_first)
        u_ss = pgo._marginalize_dropped(dropped, values, first_kf, new_first)
        expected = self.dense_schur(dropped, values, first_kf, new_first)
        assert_rel_close(u_ss.T @ u_ss, expected, 1e-10)
        assert not np.any(np.tril(u_ss, -1))

    def test_singular_dropped_block_returns_none(self, rng):
        graph, values = oracle_graph(rng)
        # Information 2^120 on the sum of two position coordinates of the
        # dropped keyframe: the 1e-9 jitter is lost against it, and the
        # block is singular in floating point.
        sqrt_info = np.zeros((15, 15))
        sqrt_info[3, 3:5] = 2.0 ** 60
        dropped = self.dropped(graph, 0, 1)
        dropped.imu = dropped.imu.rows(slice(0, 0))
        dropped.ranges = dropped.ranges.rows(slice(0, 0))
        dropped.priors = pgo._PriorTable.one(0, values.rot[0], values.pos[0],
                                             values.vel[0], values.bias[0],
                                             sqrt_info)
        assert pgo._marginalize_dropped(dropped, values, 0, 1) is None
        with pytest.raises(np.linalg.LinAlgError):
            self.dense_schur(dropped, values, 0, 1)


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
        neq = pgo._build_normal_equations(graph.tables, values, 0,
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
            pgo._sqrt_info(np.diag([1.0, -1.0, 1.0]))
        assert issubclass(IndefiniteCovariance, NumericalError)


class TestWhitening:
    @staticmethod
    def reference(cov):
        """Whitening of one covariance by scipy's Cholesky factor and
        triangular solve."""
        d = len(cov)
        cov = 0.5 * (cov + cov.T)
        jitter = 1e-14 * max(float(np.trace(cov)) / d, 1e-12)
        lower = scipy.linalg.cholesky(cov + jitter * np.eye(d), lower=True)
        return scipy.linalg.solve_triangular(lower, np.eye(d), lower=True)

    def test_stack_matches_per_matrix(self, rng):
        # Well-conditioned covariances over twelve decades of scale.
        a = rng.standard_normal((40, 15, 15))
        scale = 10.0 ** rng.integers(-10, 3, (40, 1, 1))
        covs = scale * (a @ a.swapaxes(1, 2) / 15 + 0.1 * np.eye(15))
        got = pgo._sqrt_info(covs)
        assert got.shape == covs.shape
        for cov, s in zip(covs, got):
            want = self.reference(cov)
            tol = 1e-12 * np.max(np.abs(want))
            assert np.max(np.abs(s - want)) <= tol
            assert np.max(np.abs(pgo._sqrt_info(cov) - want)) <= tol
            assert not np.any(np.triu(s, 1))

    def test_one_indefinite_matrix_fails_the_stack(self, rng):
        a = rng.standard_normal((5, 6, 6))
        covs = a @ a.swapaxes(1, 2) + np.eye(6)
        covs[3, 2, 2] = -1.0
        with pytest.raises(IndefiniteCovariance):
            pgo._sqrt_info(covs)


class TestWindowSolveSize:
    def test_window_solve_spans_only_the_window(self, monkeypatch):
        imu, gt, toa, config = noiseless_setup(duration=3.0)
        config.options.window = 8
        config.options.final_batch = False
        spans = []
        real = pgo.optimize

        def optimize(graph, values, options=None, first_kf=0):
            spans.append(values.n_keyframes - first_kf)
            return real(graph, values, options, first_kf)
        monkeypatch.setattr(pgo, "optimize", optimize)
        run = pgo.run_sliding_window(imu, toa, config)
        assert len(spans) == len(run.streamed) - 1
        assert max(spans) == config.options.window
        assert spans[:3] == [2, 3, 4]
