"""Dataset ingestion and emission.

File formats (CSV, one header line, '.' decimal separator):

* IMU:          ``t_ns,w_x,w_y,w_z,a_x,a_y,a_z``   [rad/s, m/s^2, body frame]
* ground truth: ``t_ns,p_x,p_y,p_z,q_w,q_x,q_y,q_z[,v_x,v_y,v_z,bg_x,bg_y,
  bg_z,ba_x,ba_y,ba_z]`` (quaternion w-first on disk, converted to the
  internal scalar-last convention on load)
* ToA ranges:   ``t_ns,bs_id,distance_m``

In memory every input is a set of row-aligned columns: `ImuArrays` (t,
omega, accel), `ToaArrays` (t, bs_id, distance) and, for ground truth and
estimates, `Trajectory` (t, position, orientation and optional velocity,
covariance diagonal and bias columns). ``len()`` is the row count and
indexing with a slice, mask or index array selects rows.

Lines end in LF; a CR counts as whitespace. The header line is skipped,
as are blank lines. Timestamps and ``bs_id`` are decimal integers and every
other field a decimal number, with the syntax of Python's ``int()`` and
``float()`` except for digit underscores: surrounding spaces and tabs, a
sign, ``.5``, ``5.`` and exponents are allowed; ``1_0``, ``0x1`` and empty
fields are not. Timestamps are parsed as int64, never through float64,
which cannot hold EuRoC nanosecond stamps exactly.
A byte outside printable ASCII, tab and CR, a wrong column count, an
unparsable or non-finite number, a ground-truth quaternion whose norm is
not within 1e-3 of 1 and a ground-truth file mixing row widths are each a
`MalformedLine`. Loading preserves file order; ordering violations raise
instead of sorting. Line numbers in errors are 1-based and count the
header.

All rows are parsed at once by numpy's C reader (``np.loadtxt``) into one
record array that holds the returned columns, with no Python object per
field, and checked column by column. Only when a check fails is each line
parsed again by the same reader and checked, to raise the error of the
first offending line. The writers format SAVE_CHUNK_ROWS rows at a time
into a temporary file and rename it over the target when it is complete.
"""

from __future__ import annotations

import contextlib
import io
import os
import re
from dataclasses import dataclass, field, fields, replace
from typing import Callable, Optional, TextIO

import numpy as np

from . import geometry as geo
from .errors import IoFailure, MalformedLine, NonMonotonicTimestamp, UnknownBsId

TOA_HEADER = "t_ns,bs_id,distance_m"
IMU_HEADER = "t_ns,w_x,w_y,w_z,a_x,a_y,a_z"
GROUNDTRUTH_HEADER = (
    "t_ns,p_x,p_y,p_z,q_w,q_x,q_y,q_z,"
    "v_x,v_y,v_z,bg_x,bg_y,bg_z,ba_x,ba_y,ba_z"
)
TRAJECTORY_HEADER = "t_ns,px,py,pz,qw,qx,qy,qz,vx,vy,vz"
COV_DIAG_HEADER = "t_ns," + ",".join(f"var_{name}" for name in (
    "th_x", "th_y", "th_z", "bg_x", "bg_y", "bg_z", "v_x", "v_y", "v_z",
    "ba_x", "ba_y", "ba_z", "p_x", "p_y", "p_z"))


class _Rows:
    """Row-aligned array columns (None for an absent optional column)."""

    def __len__(self) -> int:
        return len(self.t)

    def __getitem__(self, rows):
        """The rows selected by a slice, boolean mask or index array."""
        return replace(self, **{f.name: getattr(self, f.name)[rows]
                                for f in fields(self)
                                if getattr(self, f.name) is not None})


@dataclass
class ImuArrays(_Rows):
    """IMU samples: t (N,) int64 ns, omega and accel (N, 3), body frame."""

    t: np.ndarray
    omega: np.ndarray
    accel: np.ndarray


@dataclass
class ToaArrays(_Rows):
    """Ranges: t (N,) int64 ns, bs_id (N,) int64 and distance (N,) metres.

    Rows of one tick share t and are in time order.
    """

    t: np.ndarray
    bs_id: np.ndarray
    distance: np.ndarray


@dataclass
class Trajectory(_Rows):
    """Timestamped poses, the ground-truth and estimator output form."""

    t: np.ndarray                        # (N,) int64 nanoseconds
    position: np.ndarray                 # (N, 3)
    orientation: np.ndarray              # (N, 4) scalar-last
    velocity: Optional[np.ndarray] = None  # (N, 3)
    cov_diag: Optional[np.ndarray] = field(default=None, repr=False)
    bias_gyro: Optional[np.ndarray] = field(default=None, repr=False)
    bias_accel: Optional[np.ndarray] = field(default=None, repr=False)


def _write_atomic(path, write: Callable[[TextIO], object]) -> None:
    """Call write on a temporary text file, then rename it to path.

    On any failure the temporary file is removed; an OSError is raised as
    IoFailure, anything else as it is.
    """
    tmp = f"{os.fspath(path)}.tmp"
    try:
        fh = open(tmp, "w", encoding="ascii", newline="\n")
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc
    try:
        with fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        if isinstance(exc, OSError):
            raise IoFailure(f"cannot write {path}: {exc}") from exc
        raise


def write_atomic(path, text: str) -> None:
    """Write text to path via a temporary file and rename."""
    _write_atomic(path, lambda fh: fh.write(text))


# Every byte a data line may hold: printable ASCII, tab and CR (and LF
# between lines).
_TEXT_BYTES = bytes(range(0x20, 0x7f)) + b"\t\r\n"
# A line of spaces and tabs (not the first); numpy's reader would take it
# for a row of one empty field.
_BLANK_LINE = re.compile(rb"\n[ \t]+(?=\n|\Z)")
_FIRST_LINE = re.compile(rb"[^\n]+")
# Lines per block when a file that failed as a whole is parsed again to
# find its first bad line: each block costs one parse, and only the failing
# one is parsed line by line.
_BLOCK_LINES = 1024


class _Reject(Exception):
    """A row check failed; make(line_no) is the error to raise."""

    def __init__(self, make: Callable[[int], Exception]):
        self.make = make


def _malformed(message: str) -> _Reject:
    return _Reject(lambda line_no: MalformedLine(line_no, message))


def _parse(lines, width: int, n_int: int) -> tuple[np.ndarray, np.ndarray]:
    """Int64 columns (n, n_int) and finite float columns (n, width - n_int)
    of an iterable of width-field byte lines without CR or blank lines,
    parsed by numpy's C reader."""
    dtype = np.dtype([("ints", np.int64, (n_int,)),
                      ("floats", float, (width - n_int,))])
    try:
        table = np.loadtxt(lines, dtype, delimiter=",", comments=None,
                           ndmin=1, encoding="ascii")
    except ValueError:
        raise _malformed("unparsable number") from None
    floats = table["floats"]
    if not np.isfinite(floats).all():
        raise _malformed("non-finite value")
    return table["ints"], floats


def _whole_table(body: bytes, widths: tuple[int, ...], n_int: int,
                 check: Optional[Callable], prev: Optional[np.ndarray] = None
                 ) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """The columns of all rows of body at once, or None if a check fails.
    prev is the row before body's first, or None."""
    if body.translate(None, _TEXT_BYTES):
        return None
    # CR is whitespace and blank lines go; each step copies only if it
    # changes the text.
    text = _BLANK_LINE.sub(b"", body.replace(b"\r", b" ").lstrip(b" \t"))
    first = _FIRST_LINE.search(text)
    if first is None:
        return (np.zeros((0, n_int), np.int64),
                np.zeros((0, widths[0] - n_int)))
    width = first.group().count(b",") + 1
    if width not in widths:
        return None
    try:
        ints, floats = _parse(io.BytesIO(text), width, n_int)
        if check is not None:
            check(ints, floats, prev)
    except _Reject:
        return None
    return ints, floats


def _load_table(path, widths: tuple[int, ...], n_int: int,
                check: Optional[Callable] = None
                ) -> tuple[np.ndarray, np.ndarray]:
    """Parse the data rows of a CSV into int64 and float columns.

    Every row must have the same column count, one of widths; its first
    n_int fields are integers. check(ints, floats, prev_ints) runs the
    loader's own row checks and raises _Reject; prev_ints is the row before
    the first given one, or None.
    """
    try:
        with open(path, "rb") as fh:
            fh.readline()                   # the header
            body = fh.read()
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    table = _whole_table(body, widths, n_int, check)
    if table is not None:
        return table
    # The failure path: the same parse and checks block by block, then line
    # by line inside the first block that fails.
    lines = body.split(b"\n")
    prev = None
    for start in range(0, len(lines), _BLOCK_LINES):
        block = lines[start:start + _BLOCK_LINES]
        table = _whole_table(b"\n".join(block), widths, n_int, check, prev)
        if table is None:
            _raise_first_bad_line(block, start + 2, widths, n_int, check, prev)
        ints, floats = table
        if len(ints):
            widths, prev = (n_int + floats.shape[1],), ints[-1:]
    raise AssertionError("a table check failed on no block of lines")


def _raise_first_bad_line(lines: list[bytes], first_line_no: int,
                          widths: tuple[int, ...], n_int: int,
                          check: Optional[Callable],
                          prev: Optional[np.ndarray]) -> None:
    """Raise the error of the first of lines (numbered from first_line_no)
    that fails a check, taking widths and prev as _whole_table does."""
    for k, line in enumerate(lines):
        if not line.strip(b" \t\r"):
            continue
        width = line.count(b",") + 1
        try:
            if line.translate(None, _TEXT_BYTES):
                raise _malformed("byte outside printable ASCII")
            if width not in widths:
                raise _malformed(f"expected {'/'.join(map(str, widths))} "
                                 f"columns, got {width}")
            ints, floats = _parse([line.replace(b"\r", b" ")], width, n_int)
            if check is not None:
                check(ints, floats, prev)
        except _Reject as bad:
            raise bad.make(first_line_no + k) from None
        widths, prev = (width,), ints
    raise AssertionError("a block check failed on no single line")


def _check_increasing(ints: np.ndarray, prev: Optional[np.ndarray],
                      strict: bool = True) -> None:
    """Timestamps (column 0) increase, or, unless strict, never decrease."""
    t = ints[:, 0] if prev is None else np.append(prev[-1, 0], ints[:, 0])
    step = np.diff(t)
    if np.any(step <= 0 if strict else step < 0):
        raise _Reject(NonMonotonicTimestamp)


def load_imu(path) -> ImuArrays:
    """Load an IMU CSV; rejects wrong arity and non-increasing timestamps."""
    ints, floats = _load_table(
        path, (7,), 1, lambda ints, floats, prev: _check_increasing(ints, prev))
    return ImuArrays(ints[:, 0], floats[:, 0:3], floats[:, 3:6])


def _quaternions(floats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Scalar-last quaternions of ground-truth rows and their norms."""
    quat = floats[:, [4, 5, 6, 3]]
    return quat, geo.row_norms(quat)


def load_groundtruth(path) -> Trajectory:
    """Load a ground-truth CSV with optional velocity and bias columns."""
    def check(ints, floats, prev):
        _check_increasing(ints, prev)
        norm = _quaternions(floats)[1]
        bad = np.abs(norm - 1.0) > 1e-3
        if bad.any():
            raise _malformed(f"quaternion norm {norm[bad][0]:.4f} not near 1")

    ints, floats = _load_table(path, (8, 11, 17), 1, check)
    quat, norm = _quaternions(floats)
    quat /= norm[:, None]
    width = floats.shape[1] + 1
    return Trajectory(
        ints[:, 0], floats[:, 0:3], quat,
        floats[:, 7:10] if width >= 11 else None,
        bias_gyro=floats[:, 10:13] if width == 17 else None,
        bias_accel=floats[:, 13:16] if width == 17 else None)


def load_toa(path, num_stations: Optional[int] = None) -> ToaArrays:
    """Load a ToA CSV; bs_id must lie in 1..num_stations when given."""
    def check(ints, floats, prev):
        if num_stations is not None:
            bs_id = ints[:, 1]
            bad = (bs_id < 1) | (bs_id > num_stations)
            if bad.any():
                first = int(bs_id[bad][0])
                raise _Reject(lambda line_no: UnknownBsId(
                    f"line {line_no}: bs_id {first} outside 1..{num_stations}"))
        _check_increasing(ints, prev, strict=False)

    ints, floats = _load_table(path, (3,), 2, check)
    return ToaArrays(ints[:, 0], ints[:, 1], floats[:, 0])


def load_trajectory(path) -> Trajectory:
    ints, floats = _load_table(path, (11,), 1)
    return Trajectory(ints[:, 0], floats[:, 0:3], floats[:, [4, 5, 6, 3]],
                      floats[:, 7:10])


# Rows formatted and written at a time, which bounds a writer's memory.
SAVE_CHUNK_ROWS = 4096


def _save_table(path, header: str, line: str, columns: list) -> None:
    """Write one line per row: line % (the row's fields, left to right).

    columns are row-aligned (n, k) blocks. SAVE_CHUNK_ROWS rows at a time
    are gathered as Python ints (from integer blocks) and floats into one
    object array and formatted by a single % operation.
    """
    line += "\n"
    bounds = np.cumsum([0] + [c.shape[1] for c in columns])

    def write(fh: TextIO) -> None:
        fh.write(header + "\n")
        for lo in range(0, len(columns[0]), SAVE_CHUNK_ROWS):
            blocks = [c[lo:lo + SAVE_CHUNK_ROWS] for c in columns]
            chunk = np.empty((len(blocks[0]), bounds[-1]), dtype=object)
            for block, a, b in zip(blocks, bounds, bounds[1:]):
                chunk[:, a:b] = block
            fh.write((line * len(chunk)) % tuple(chunk.ravel().tolist()))

    _write_atomic(path, write)


def _or_zeros(column: Optional[np.ndarray], n: int) -> np.ndarray:
    return column if column is not None else np.broadcast_to(0.0, (n, 3))


def _wxyz(orientation: np.ndarray) -> list:
    """Views of scalar-last quaternions as w-first column blocks."""
    return [orientation[:, 3:4], orientation[:, 0:3]]


def save_toa(path, toa: ToaArrays, num_stations: Optional[int] = None) -> None:
    """Write a ToA CSV; distances carry 9 significant digits."""
    if num_stations is not None:
        bad = (toa.bs_id < 1) | (toa.bs_id > num_stations)
        if bad.any():
            raise UnknownBsId(f"bs_id {int(toa.bs_id[bad][0])} outside "
                              f"1..{num_stations}")
    _save_table(path, TOA_HEADER, "%d,%d,%.9g",
                [toa.t[:, None], toa.bs_id[:, None], toa.distance[:, None]])


def save_imu(path, imu: ImuArrays) -> None:
    _save_table(path, IMU_HEADER, "%d" + ",%.12g" * 6,
                [imu.t[:, None], imu.omega, imu.accel])


def save_groundtruth(path, gt: Trajectory) -> None:
    n = len(gt)
    _save_table(path, GROUNDTRUTH_HEADER, "%d" + ",%.12g" * 16,
                [gt.t[:, None], gt.position, *_wxyz(gt.orientation),
                 _or_zeros(gt.velocity, n), _or_zeros(gt.bias_gyro, n),
                 _or_zeros(gt.bias_accel, n)])


def save_trajectory(path, traj: Trajectory) -> None:
    """Write the estimator trajectory CSV (quaternion w-first on disk)."""
    _save_table(path, TRAJECTORY_HEADER, "%d" + ",%.9g" * 10,
                [traj.t[:, None], traj.position, *_wxyz(traj.orientation),
                 _or_zeros(traj.velocity, len(traj))])


def save_cov_diag(path, traj: Trajectory) -> None:
    """Write the error-state covariance diagonal of each estimate."""
    _save_table(path, COV_DIAG_HEADER, "%d" + ",%.6g" * 15,
                [traj.t[:, None], traj.cov_diag])


def associate_nearest(reference_ts, query_ts, max_gap: int) -> np.ndarray:
    """Pair each query timestamp with the nearest reference timestamp.

    Both inputs must be sorted. Ties break toward the earlier reference;
    queries farther than max_gap from every reference are omitted. Returns
    an (m, 2) int64 array of (reference_index, query_index) rows in query
    order.
    """
    ref = np.asarray(reference_ts, dtype=np.int64)
    qry = np.asarray(query_ts, dtype=np.int64)
    if len(ref) == 0:
        return np.zeros((0, 2), dtype=np.int64)
    idx = np.searchsorted(ref, qry)
    lo = np.maximum(idx - 1, 0)
    hi = np.minimum(idx, len(ref) - 1)
    gap_lo, gap_hi = np.abs(ref[lo] - qry), np.abs(ref[hi] - qry)
    best = np.where(gap_lo <= gap_hi, lo, hi)   # earlier index wins ties
    kept = np.flatnonzero(np.minimum(gap_lo, gap_hi) <= max_gap)
    return np.column_stack([best[kept], kept])
