import numpy as np
import pytest

from toafusion import dataset, geometry as geo, metrics
from toafusion.dataset import Trajectory
from toafusion.errors import EmptyPairs, EmptySamples, InsufficientPairs

from conftest import random_quaternion, random_rotation
from so3_reference import exp_so3


def make_pair(est_pos, gt_pos, est_rot=None, gt_rot=None):
    n = len(est_pos)
    ident = np.repeat(np.eye(3)[None], n, axis=0)
    return metrics.TrajectoryPair(
        np.asarray(est_pos, dtype=float),
        np.asarray(est_rot) if est_rot is not None else ident.copy(),
        np.asarray(gt_pos, dtype=float),
        np.asarray(gt_rot) if gt_rot is not None else ident.copy())


class TestAte:
    def test_identical(self):
        p = np.arange(30, dtype=float).reshape(10, 3)
        assert metrics.ate(make_pair(p, p)) == 0.0

    def test_constant_offset(self):
        p = np.zeros((5, 3))
        q = p + np.array([1.0, 0.0, 0.0])
        assert metrics.ate(make_pair(q, p)) == pytest.approx(1.0)

    def test_hand_rmse(self):
        gt = np.zeros((2, 3))
        est = np.array([[3.0, 0, 0], [0, 4.0, 0]])
        assert metrics.ate(make_pair(est, gt)) == pytest.approx(5.0 / np.sqrt(2.0))

    def test_empty(self):
        with pytest.raises(EmptyPairs):
            metrics.ate(make_pair(np.zeros((0, 3)), np.zeros((0, 3))))


class TestPerAxisRmse:
    def test_offset_per_axis(self):
        p = np.zeros((4, 3))
        est = p + np.array([1.0, 0.0, 0.0])
        assert metrics.per_axis_rmse(make_pair(est, p)) == \
            pytest.approx((1.0, 0.0, 0.0))

    def test_sum_of_squares_identity(self, rng):
        gt = rng.standard_normal((50, 3))
        est = gt + 0.3 * rng.standard_normal((50, 3))
        pair = make_pair(est, gt)
        e_x, e_y, e_z = metrics.per_axis_rmse(pair)
        assert e_x ** 2 + e_y ** 2 + e_z ** 2 == \
            pytest.approx(metrics.ate(pair) ** 2, rel=1e-12)
        assert metrics.ate(pair) >= max(e_x, e_y, e_z)

    def test_matches_independent_oracle(self, rng):
        gt = rng.standard_normal((40, 3))
        est = gt + rng.standard_normal((40, 3))
        out = metrics.per_axis_rmse(make_pair(est, gt))
        for axis in range(3):
            expected = np.sqrt(np.mean((est[:, axis] - gt[:, axis]) ** 2))
            assert out[axis] == pytest.approx(expected, rel=1e-12)


class TestRpe:
    def test_identical_trajectories(self, rng):
        n = 10
        pos = rng.standard_normal((n, 3))
        rot = np.array([random_rotation(rng) for _ in range(n)])
        pair = make_pair(pos, pos, rot, rot)
        assert metrics.rpe(pair) == pytest.approx((0.0, 0.0), abs=1e-9)

    def test_invariant_to_global_rigid_offset(self, rng):
        n = 12
        gt_pos = rng.standard_normal((n, 3))
        gt_rot = np.array([random_rotation(rng) for _ in range(n)])
        g_rot = random_rotation(rng)
        g_t = rng.standard_normal(3)
        est_rot = np.array([g_rot @ r for r in gt_rot])
        est_pos = np.array([g_rot @ p + g_t for p in gt_pos])
        pair = make_pair(est_pos, gt_pos, est_rot, gt_rot)
        rpe_t, rpe_r = metrics.rpe(pair)
        assert rpe_t == pytest.approx(0.0, abs=1e-9)
        assert rpe_r == pytest.approx(0.0, abs=1e-7)

    def test_hand_built_relative_error(self):
        # Ground truth: two identity poses 1 m apart. Estimate: the second
        # pose is 0.1 m long and yawed 1 degree.
        gt_pos = np.array([[0.0, 0, 0], [1.0, 0, 0]])
        est_pos = np.array([[0.0, 0, 0], [1.1, 0, 0]])
        yaw = np.radians(1.0)
        est_rot = np.array([np.eye(3), exp_so3([0, 0, yaw])])
        pair = make_pair(est_pos, gt_pos, est_rot, None)
        rpe_t, rpe_r = metrics.rpe(pair)
        assert rpe_t == pytest.approx(0.1, rel=1e-9)
        assert rpe_r == pytest.approx(1.0, rel=1e-9)

    def test_insufficient_pairs(self):
        pair = make_pair(np.zeros((1, 3)), np.zeros((1, 3)))
        with pytest.raises(InsufficientPairs):
            metrics.rpe(pair)

    def test_step_parameter(self, rng):
        n = 8
        pos = rng.standard_normal((n, 3))
        pair = make_pair(pos, pos)
        assert metrics.rpe(pair, step=3) == pytest.approx((0.0, 0.0), abs=1e-12)


class TestTimingStats:
    def test_constant(self):
        assert metrics.timing_stats([2.0, 2.0, 2.0]) == pytest.approx((2.0, 0.0))

    def test_two_values(self):
        assert metrics.timing_stats([1.0, 3.0]) == pytest.approx((2.0, 1.0))

    def test_matches_two_pass_oracle(self, rng):
        samples = rng.uniform(0.1, 10.0, 500)
        mean, std = metrics.timing_stats(samples)
        mu = sum(samples) / len(samples)
        var = sum((s - mu) ** 2 for s in samples) / len(samples)
        assert mean == pytest.approx(mu, rel=1e-12)
        assert std == pytest.approx(np.sqrt(var), rel=1e-12)

    def test_empty(self):
        with pytest.raises(EmptySamples):
            metrics.timing_stats([])


class TestMatchTrajectories:
    def test_association_and_gap(self):
        gt = Trajectory(np.array([0, 10, 20, 30], dtype=np.int64) * 10 ** 6,
                        np.arange(12, dtype=float).reshape(4, 3),
                        np.repeat([[0.0, 0, 0, 1]], 4, axis=0))
        est = Trajectory(np.array([9, 21, 500], dtype=np.int64) * 10 ** 6,
                         np.ones((3, 3)),
                         np.repeat([[0.0, 0, 0, 1]], 3, axis=0))
        pair = metrics.match_trajectories(est, gt, max_gap_ns=10 ** 7)
        assert len(pair) == 2
        np.testing.assert_array_equal(pair.gt_position[0], gt.position[1])
        np.testing.assert_array_equal(pair.gt_position[1], gt.position[2])

    def test_order_independent_metrics(self, rng):
        n = 20
        gt = rng.standard_normal((n, 3))
        est = gt + 0.1 * rng.standard_normal((n, 3))
        pair = make_pair(est, gt)
        perm = rng.permutation(n)
        pair_shuffled = make_pair(est[perm], gt[perm])
        assert metrics.ate(pair) == pytest.approx(metrics.ate(pair_shuffled))


class TestReport:
    def test_csv_row_and_kv(self):
        rep = metrics.MetricsReport(0.1, 0.01, 0.02, 0.09, 0.005, 0.4,
                                    1.5, 0.3, 42)
        row = rep.to_csv_row()
        assert row.split(",")[0] == "0.1"
        assert row.split(",")[-1] == "42"
        assert len(row.split(",")) == len(metrics.REPORT_CSV_HEADER.split(","))
        kv = rep.to_kv_text()
        assert "ate_m = 0.1" in kv
        assert "n_pairs = 42" in kv

    def test_evaluate_full(self, rng):
        n = 50
        t = np.arange(n, dtype=np.int64) * 10 ** 7
        quat = np.array([random_quaternion(rng) for _ in range(n)])
        gt = Trajectory(t, rng.standard_normal((n, 3)), quat)
        est = Trajectory(t, gt.position + 0.1, quat.copy())
        rep = metrics.evaluate(est, gt, timing_samples_ms=[1.0, 2.0])
        assert rep.n_pairs == n
        assert rep.ate == pytest.approx(np.sqrt(0.03), rel=1e-9)
        assert rep.timing_mean_ms == pytest.approx(1.5)


# The loop forms the vectorized metrics replaced, kept as oracles.
def oracle_associate_nearest(reference_ts, query_ts, max_gap):
    ref = [int(t) for t in reference_ts]
    pairs = []
    if not ref:
        return pairs
    idx = np.searchsorted(ref, query_ts)
    for qi, (q, i) in enumerate(zip(query_ts, idx)):
        lo = max(int(i) - 1, 0)
        hi = min(int(i), len(ref) - 1)
        best = lo if abs(ref[lo] - int(q)) <= abs(ref[hi] - int(q)) else hi
        if abs(ref[best] - int(q)) <= max_gap:
            pairs.append((best, qi))
    return pairs


def oracle_match(estimate, groundtruth, max_gap_ns):
    pairs = oracle_associate_nearest(groundtruth.t, estimate.t, max_gap_ns)
    gt_idx = [g for g, _ in pairs]
    est_idx = [e for _, e in pairs]
    return metrics.TrajectoryPair(
        estimate.position[est_idx].reshape(-1, 3),
        np.array([geo.quat_to_rot(estimate.orientation[i]) for i in est_idx]),
        groundtruth.position[gt_idx].reshape(-1, 3),
        np.array([geo.quat_to_rot(groundtruth.orientation[i]) for i in gt_idx]))


def oracle_rpe(pairs, step=1):
    trans_sq, rot_sq = [], []
    for i in range(len(pairs) - step):
        j = i + step
        rel_gt_rot = pairs.gt_rotation[i].T @ pairs.gt_rotation[j]
        rel_gt_p = pairs.gt_rotation[i].T @ (pairs.gt_position[j] - pairs.gt_position[i])
        rel_est_rot = pairs.est_rotation[i].T @ pairs.est_rotation[j]
        rel_est_p = pairs.est_rotation[i].T @ (pairs.est_position[j] - pairs.est_position[i])
        err_p = rel_gt_rot.T @ (rel_est_p - rel_gt_p)
        trans_sq.append(float(err_p @ err_p))
        rot_sq.append(float(np.sum(geo.log_so3(rel_gt_rot.T @ rel_est_rot) ** 2)))
    return (float(np.sqrt(np.mean(trans_sq))),
            float(np.degrees(np.sqrt(np.mean(rot_sq)))))


def random_trajectory(rng, t):
    n = len(t)
    return Trajectory(np.asarray(t, dtype=np.int64), rng.standard_normal((n, 3)),
                      np.array([random_quaternion(rng) for _ in range(n)]))


class TestVectorizedMatchesLoopOracles:
    def test_association_with_ties_and_gaps(self, rng):
        for _ in range(50):
            # Coarse grids make equidistant queries (ties) and far ones common.
            ref = np.sort(rng.choice(200, size=rng.integers(1, 40), replace=False)) * 10
            qry = np.sort(rng.integers(-50, 2050, rng.integers(0, 60))) // 5 * 5
            max_gap = int(rng.integers(0, 40))
            got = dataset.associate_nearest(ref, qry, max_gap)
            assert got.tolist() == [list(p) for p in
                                    oracle_associate_nearest(ref, qry, max_gap)]

    def test_ate_bit_identical_and_rpe_within_1e12(self, rng):
        for step in (1, 3):
            gt = random_trajectory(rng, np.arange(300) * 10 ** 7)
            est = random_trajectory(rng, np.sort(rng.integers(0, 3 * 10 ** 9, 120)))
            got = metrics.match_trajectories(est, gt, 10 ** 7)
            want = oracle_match(est, gt, 10 ** 7)
            assert len(got) == len(want) > step
            assert metrics.ate(got) == metrics.ate(want)
            assert metrics.per_axis_rmse(got) == metrics.per_axis_rmse(want)
            np.testing.assert_allclose(got.est_rotation, want.est_rotation,
                                       rtol=0, atol=1e-15)
            np.testing.assert_allclose(metrics.rpe(got, step), oracle_rpe(want, step),
                                       rtol=1e-12, atol=0)
