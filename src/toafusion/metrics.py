"""Trajectory evaluation: ATE, per-axis RMSE, RPE, and timing statistics.

ATE is the RMSE of absolute position differences over matched pose pairs,
computed in the world frame without any alignment step (range measurements
already anchor the estimate globally). RPE compares relative transforms
between matched poses ``step`` indices apart and is invariant to a common
rigid offset of both trajectories.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import geometry as geo
from .dataset import Trajectory, associate_nearest
from .errors import EmptyPairs, EmptySamples, InsufficientPairs

DEFAULT_MAX_GAP_NS = 10_000_000  # 10 ms


@dataclass
class TrajectoryPair:
    """Temporally matched estimated and ground-truth poses."""

    est_position: np.ndarray    # (N, 3)
    est_rotation: np.ndarray    # (N, 3, 3)
    gt_position: np.ndarray     # (N, 3)
    gt_rotation: np.ndarray     # (N, 3, 3)

    def __len__(self) -> int:
        return self.est_position.shape[0]


def match_trajectories(estimate: Trajectory, groundtruth: Trajectory,
                       max_gap_ns: int = DEFAULT_MAX_GAP_NS) -> TrajectoryPair:
    """Associate each estimate with the nearest ground-truth pose."""
    gt_idx, est_idx = associate_nearest(groundtruth.t, estimate.t, max_gap_ns).T
    return TrajectoryPair(
        estimate.position[est_idx].reshape(-1, 3),
        geo.quat_to_rot_batch(estimate.orientation[est_idx].reshape(-1, 4)),
        groundtruth.position[gt_idx].reshape(-1, 3),
        geo.quat_to_rot_batch(groundtruth.orientation[gt_idx].reshape(-1, 4)))


def ate(pairs: TrajectoryPair) -> float:
    """Root-mean-square absolute position error."""
    if len(pairs) == 0:
        raise EmptyPairs("no matched pairs")
    err = pairs.est_position - pairs.gt_position
    return float(np.sqrt(np.mean(np.sum(err * err, axis=1))))


def per_axis_rmse(pairs: TrajectoryPair) -> tuple[float, float, float]:
    if len(pairs) == 0:
        raise EmptyPairs("no matched pairs")
    err = pairs.est_position - pairs.gt_position
    e = np.sqrt(np.mean(err * err, axis=0))
    return float(e[0]), float(e[1]), float(e[2])


def rpe(pairs: TrajectoryPair, step: int = 1) -> tuple[float, float]:
    """Relative pose error over pairs `step` apart: (meters, degrees)."""
    n = len(pairs)
    if n < step + 1:
        raise InsufficientPairs(f"need at least {step + 1} pairs, have {n}")
    i, j = slice(0, n - step), slice(step, n)
    gt_it = pairs.gt_rotation[i].transpose(0, 2, 1)
    est_it = pairs.est_rotation[i].transpose(0, 2, 1)
    rel_gt_rot_t = (gt_it @ pairs.gt_rotation[j]).transpose(0, 2, 1)
    rel_est_rot = est_it @ pairs.est_rotation[j]
    rel_gt_p = np.einsum("nij,nj->ni", gt_it,
                         pairs.gt_position[j] - pairs.gt_position[i])
    rel_est_p = np.einsum("nij,nj->ni", est_it,
                          pairs.est_position[j] - pairs.est_position[i])
    err_p = np.einsum("nij,nj->ni", rel_gt_rot_t, rel_est_p - rel_gt_p)
    trans_sq = np.sum(err_p * err_p, axis=1)
    rot_sq = np.sum(geo.log_so3_batch(rel_gt_rot_t @ rel_est_rot) ** 2, axis=1)
    rpe_t = float(np.sqrt(np.mean(trans_sq)))
    rpe_r = float(np.degrees(np.sqrt(np.mean(rot_sq))))
    return rpe_t, rpe_r


def timing_stats(samples_ms: Sequence[float]) -> tuple[float, float]:
    """Arithmetic mean and population standard deviation."""
    arr = np.asarray(samples_ms, dtype=float)
    if arr.size == 0:
        raise EmptySamples("no timing samples")
    return float(np.mean(arr)), float(np.std(arr))


REPORT_CSV_HEADER = ("ate_m,e_x_m,e_y_m,e_z_m,rpe_t_m,rpe_r_deg,"
                     "timing_mean_ms,timing_std_ms,n_pairs")


@dataclass
class MetricsReport:
    ate: float
    e_x: float
    e_y: float
    e_z: float
    rpe_t: float
    rpe_r: float
    timing_mean_ms: float
    timing_std_ms: float
    n_pairs: int

    def to_csv_row(self) -> str:
        return (f"{self.ate:.6g},{self.e_x:.6g},{self.e_y:.6g},{self.e_z:.6g},"
                f"{self.rpe_t:.6g},{self.rpe_r:.6g},"
                f"{self.timing_mean_ms:.6g},{self.timing_std_ms:.6g},{self.n_pairs}")

    def to_kv_text(self) -> str:
        lines = [
            f"ate_m = {self.ate:.6g}",
            f"e_x_m = {self.e_x:.6g}",
            f"e_y_m = {self.e_y:.6g}",
            f"e_z_m = {self.e_z:.6g}",
            f"rpe_t_m = {self.rpe_t:.6g}",
            f"rpe_r_deg = {self.rpe_r:.6g}",
            f"timing_mean_ms = {self.timing_mean_ms:.6g}",
            f"timing_std_ms = {self.timing_std_ms:.6g}",
            f"n_pairs = {self.n_pairs}",
        ]
        return "\n".join(lines) + "\n"


def evaluate(estimate: Trajectory, groundtruth: Trajectory,
             timing_samples_ms: Optional[Sequence[float]] = None,
             rpe_step: int = 1,
             max_gap_ns: int = DEFAULT_MAX_GAP_NS) -> MetricsReport:
    """Full metric set for one estimated trajectory."""
    pairs = match_trajectories(estimate, groundtruth, max_gap_ns)
    ate_val = ate(pairs)
    e_x, e_y, e_z = per_axis_rmse(pairs)
    try:
        rpe_t, rpe_r = rpe(pairs, rpe_step)
    except InsufficientPairs:
        rpe_t = rpe_r = float("nan")
    if timing_samples_ms is not None and len(timing_samples_ms) > 0:
        t_mean, t_std = timing_stats(timing_samples_ms)
    else:
        t_mean = t_std = float("nan")
    return MetricsReport(ate_val, e_x, e_y, e_z, rpe_t, rpe_r,
                         t_mean, t_std, len(pairs))
