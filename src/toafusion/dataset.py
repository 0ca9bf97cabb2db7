"""Dataset ingestion and emission.

File formats (CSV, LF line endings, '.' decimal separator, one header line):

* IMU:          ``t_ns,w_x,w_y,w_z,a_x,a_y,a_z``   [rad/s, m/s^2, body frame]
* ground truth: ``t_ns,p_x,p_y,p_z,q_w,q_x,q_y,q_z[,v_x,v_y,v_z,bg_x,bg_y,
  bg_z,ba_x,ba_y,ba_z]`` (quaternion w-first on disk, converted to the
  internal scalar-last convention on load)
* ToA ranges:   ``t_ns,bs_id,distance_m``

Loading preserves file order; ordering violations raise instead of sorting.
Line numbers in errors are 1-based and count the header.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import IoFailure, MalformedLine, NonMonotonicTimestamp, UnknownBsId

TOA_HEADER = "t_ns,bs_id,distance_m"
IMU_HEADER = "t_ns,w_x,w_y,w_z,a_x,a_y,a_z"
GROUNDTRUTH_HEADER = (
    "t_ns,p_x,p_y,p_z,q_w,q_x,q_y,q_z,"
    "v_x,v_y,v_z,bg_x,bg_y,bg_z,ba_x,ba_y,ba_z"
)


@dataclass
class ImuSample:
    """One IMU reading: body-frame angular velocity and linear acceleration."""

    t: int
    omega: np.ndarray
    accel: np.ndarray


class ImuArrays(NamedTuple):
    """IMU samples as columns: t (N,) int64 ns, omega and accel (N, 3)."""

    t: np.ndarray
    omega: np.ndarray
    accel: np.ndarray

    @staticmethod
    def from_samples(samples: Sequence[ImuSample]) -> "ImuArrays":
        """Stack samples; rejects timestamps that are not strictly increasing."""
        t = np.array([s.t for s in samples], dtype=np.int64)
        bad = np.flatnonzero(np.diff(t) <= 0)
        if bad.size:
            raise NonMonotonicTimestamp(int(bad[0]) + 1, where="IMU sample")
        omega = np.array([s.omega for s in samples], dtype=float).reshape(-1, 3)
        accel = np.array([s.accel for s in samples], dtype=float).reshape(-1, 3)
        return ImuArrays(t, omega, accel)


@dataclass
class GroundTruthPose:
    """Reference pose; orientation is scalar-last, velocity/biases optional."""

    t: int
    position: np.ndarray
    orientation: np.ndarray
    velocity: Optional[np.ndarray] = None
    bias_gyro: Optional[np.ndarray] = None
    bias_accel: Optional[np.ndarray] = None


@dataclass
class ToaMeasurement:
    """Metric distance to one base station derived from a ToA reading."""

    t: int
    bs_id: int
    distance: float


def _read_lines(path) -> list[str]:
    try:
        with open(path, "r", encoding="ascii") as fh:
            return fh.read().splitlines()
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc


def write_atomic(path, text: str) -> None:
    """Write text to path via a temporary file and rename."""
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "w", encoding="ascii", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def _parse_floats(parts: Sequence[str], line_no: int) -> list[float]:
    try:
        values = [float(p) for p in parts]
    except ValueError as exc:
        raise MalformedLine(line_no, f"unparsable number ({exc})") from exc
    if not all(math.isfinite(v) for v in values):
        raise MalformedLine(line_no, "non-finite value")
    return values


def load_imu(path) -> list[ImuSample]:
    """Load an IMU CSV; rejects wrong arity and non-increasing timestamps."""
    samples: list[ImuSample] = []
    last_t = None
    for line_no, line in enumerate(_read_lines(path), start=1):
        if line_no == 1 or not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 7:
            raise MalformedLine(line_no, f"expected 7 columns, got {len(parts)}")
        try:
            t = int(parts[0])
        except ValueError as exc:
            raise MalformedLine(line_no, "bad timestamp") from exc
        values = _parse_floats(parts[1:], line_no)
        if last_t is not None and t <= last_t:
            raise NonMonotonicTimestamp(line_no)
        last_t = t
        samples.append(ImuSample(t, np.array(values[0:3]), np.array(values[3:6])))
    return samples


def load_groundtruth(path) -> list[GroundTruthPose]:
    """Load a ground-truth CSV with optional velocity and bias columns."""
    poses: list[GroundTruthPose] = []
    last_t = None
    for line_no, line in enumerate(_read_lines(path), start=1):
        if line_no == 1 or not line.strip():
            continue
        parts = line.split(",")
        if len(parts) not in (8, 11, 17):
            raise MalformedLine(line_no, f"expected 8, 11 or 17 columns, got {len(parts)}")
        try:
            t = int(parts[0])
        except ValueError as exc:
            raise MalformedLine(line_no, "bad timestamp") from exc
        values = _parse_floats(parts[1:], line_no)
        if last_t is not None and t <= last_t:
            raise NonMonotonicTimestamp(line_no)
        last_t = t
        position = np.array(values[0:3])
        qw, qx, qy, qz = values[3:7]
        quat = np.array([qx, qy, qz, qw])
        norm = np.linalg.norm(quat)
        if abs(norm - 1.0) > 1e-3:
            raise MalformedLine(line_no, f"quaternion norm {norm:.4f} not near 1")
        quat = quat / norm
        velocity = bias_gyro = bias_accel = None
        if len(parts) >= 11:
            velocity = np.array(values[7:10])
        if len(parts) == 17:
            bias_gyro = np.array(values[10:13])
            bias_accel = np.array(values[13:16])
        poses.append(GroundTruthPose(t, position, quat, velocity, bias_gyro, bias_accel))
    return poses


def load_toa(path, num_stations: Optional[int] = None) -> list[ToaMeasurement]:
    """Load a ToA CSV; bs_id must lie in 1..num_stations when given."""
    measurements: list[ToaMeasurement] = []
    last_t = None
    for line_no, line in enumerate(_read_lines(path), start=1):
        if line_no == 1 or not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise MalformedLine(line_no, f"expected 3 columns, got {len(parts)}")
        try:
            t = int(parts[0])
            bs_id = int(parts[1])
        except ValueError as exc:
            raise MalformedLine(line_no, "bad integer field") from exc
        distance = _parse_floats(parts[2:], line_no)[0]
        if num_stations is not None and not 1 <= bs_id <= num_stations:
            raise UnknownBsId(f"line {line_no}: bs_id {bs_id} outside 1..{num_stations}")
        if last_t is not None and t < last_t:
            raise NonMonotonicTimestamp(line_no)
        last_t = t
        measurements.append(ToaMeasurement(t, bs_id, distance))
    return measurements


def save_toa(path, measurements: Sequence[ToaMeasurement],
             num_stations: Optional[int] = None) -> None:
    """Write a ToA CSV; distances carry 9 significant digits."""
    lines = [TOA_HEADER]
    for m in measurements:
        if num_stations is not None and not 1 <= m.bs_id <= num_stations:
            raise UnknownBsId(f"bs_id {m.bs_id} outside 1..{num_stations}")
        lines.append(f"{m.t},{m.bs_id},{m.distance:.9g}")
    write_atomic(path, "\n".join(lines) + "\n")


def save_imu(path, samples: Sequence[ImuSample]) -> None:
    lines = [IMU_HEADER]
    for s in samples:
        w, a = s.omega, s.accel
        lines.append(
            f"{s.t},{w[0]:.12g},{w[1]:.12g},{w[2]:.12g},"
            f"{a[0]:.12g},{a[1]:.12g},{a[2]:.12g}"
        )
    write_atomic(path, "\n".join(lines) + "\n")


def save_groundtruth(path, poses: Sequence[GroundTruthPose]) -> None:
    lines = [GROUNDTRUTH_HEADER]
    for p in poses:
        q = p.orientation
        row = [str(p.t)]
        row += [f"{v:.12g}" for v in p.position]
        row += [f"{q[3]:.12g}", f"{q[0]:.12g}", f"{q[1]:.12g}", f"{q[2]:.12g}"]
        vel = p.velocity if p.velocity is not None else np.zeros(3)
        bg = p.bias_gyro if p.bias_gyro is not None else np.zeros(3)
        ba = p.bias_accel if p.bias_accel is not None else np.zeros(3)
        row += [f"{v:.12g}" for v in vel]
        row += [f"{v:.12g}" for v in bg]
        row += [f"{v:.12g}" for v in ba]
        lines.append(",".join(row))
    write_atomic(path, "\n".join(lines) + "\n")


def associate_nearest(reference_ts: Sequence[int], query_ts: Sequence[int],
                      max_gap: int) -> list[tuple[int, int]]:
    """Pair each query timestamp with the nearest reference timestamp.

    Both inputs must be sorted. Ties break toward the earlier reference;
    queries farther than max_gap from every reference are omitted. Returns
    (reference_index, query_index) pairs in query order.
    """
    ref = np.asarray(reference_ts, dtype=np.int64)
    qry = np.asarray(query_ts, dtype=np.int64)
    if len(ref) == 0:
        return []
    pairs: list[tuple[int, int]] = []
    idx = np.searchsorted(ref, qry)
    for qi, (q, i) in enumerate(zip(qry, idx)):
        lo = max(int(i) - 1, 0)
        hi = min(int(i), len(ref) - 1)
        # abs gap, earlier index wins ties
        if abs(int(ref[lo]) - int(q)) <= abs(int(ref[hi]) - int(q)):
            best = lo
        else:
            best = hi
        if abs(int(ref[best]) - int(q)) <= max_gap:
            pairs.append((best, qi))
    return pairs


@dataclass
class Trajectory:
    """Timestamped pose/velocity arrays, the common estimator output form."""

    t: np.ndarray                        # (N,) int64 nanoseconds
    position: np.ndarray                 # (N, 3)
    orientation: np.ndarray              # (N, 4) scalar-last
    velocity: Optional[np.ndarray] = None  # (N, 3)
    cov_diag: Optional[np.ndarray] = field(default=None, repr=False)

    def __len__(self) -> int:
        return len(self.t)


def groundtruth_to_trajectory(poses: Sequence[GroundTruthPose]) -> Trajectory:
    t = np.array([p.t for p in poses], dtype=np.int64)
    pos = np.array([p.position for p in poses])
    quat = np.array([p.orientation for p in poses])
    vel = None
    if poses and poses[0].velocity is not None:
        vel = np.array([p.velocity for p in poses])
    return Trajectory(t, pos, quat, vel)


TRAJECTORY_HEADER = "t_ns,px,py,pz,qw,qx,qy,qz,vx,vy,vz"


def save_trajectory(path, traj: Trajectory) -> None:
    """Write the estimator trajectory CSV (quaternion w-first on disk)."""
    lines = [TRAJECTORY_HEADER]
    vel = traj.velocity if traj.velocity is not None else np.zeros_like(traj.position)
    for i in range(len(traj)):
        p, q, v = traj.position[i], traj.orientation[i], vel[i]
        lines.append(
            f"{int(traj.t[i])},{p[0]:.9g},{p[1]:.9g},{p[2]:.9g},"
            f"{q[3]:.9g},{q[0]:.9g},{q[1]:.9g},{q[2]:.9g},"
            f"{v[0]:.9g},{v[1]:.9g},{v[2]:.9g}"
        )
    write_atomic(path, "\n".join(lines) + "\n")


def load_trajectory(path) -> Trajectory:
    rows = []
    for line_no, line in enumerate(_read_lines(path), start=1):
        if line_no == 1 or not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 11:
            raise MalformedLine(line_no, f"expected 11 columns, got {len(parts)}")
        try:
            t = int(parts[0])
        except ValueError as exc:
            raise MalformedLine(line_no, "bad timestamp") from exc
        rows.append((t, _parse_floats(parts[1:], line_no)))
    t = np.array([r[0] for r in rows], dtype=np.int64)
    pos = np.array([r[1][0:3] for r in rows]).reshape(-1, 3)
    qwxyz = np.array([r[1][3:7] for r in rows]).reshape(-1, 4)
    quat = np.column_stack([qwxyz[:, 1], qwxyz[:, 2], qwxyz[:, 3], qwxyz[:, 0]]) \
        if len(rows) else np.zeros((0, 4))
    vel = np.array([r[1][7:10] for r in rows]).reshape(-1, 3)
    return Trajectory(t, pos, quat, vel)
