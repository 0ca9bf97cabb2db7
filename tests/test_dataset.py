import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from toafusion import dataset
from toafusion.errors import (IoFailure, MalformedLine, NonMonotonicTimestamp,
                              UnknownBsId)

from conftest import make_imu, make_toa


def write(path, text):
    path.write_text(text)
    return path


class TestLoadImu:
    def test_header_only(self, tmp_path):
        p = write(tmp_path / "imu.csv", dataset.IMU_HEADER + "\n")
        imu = dataset.load_imu(p)
        assert len(imu) == 0
        assert imu.t.dtype == np.int64 and imu.omega.shape == (0, 3)

    def test_single_line(self, tmp_path):
        p = write(tmp_path / "imu.csv",
                  dataset.IMU_HEADER + "\n100,0.1,0.2,0.3,9.8,0.0,0.1\n")
        imu = dataset.load_imu(p)
        assert len(imu) == 1
        assert imu.t.tolist() == [100]
        np.testing.assert_allclose(imu.omega, [[0.1, 0.2, 0.3]])
        np.testing.assert_allclose(imu.accel, [[9.8, 0.0, 0.1]])

    def test_non_monotonic(self, tmp_path):
        p = write(tmp_path / "imu.csv",
                  dataset.IMU_HEADER + "\n200,0,0,0,0,0,0\n100,0,0,0,0,0,0\n")
        with pytest.raises(NonMonotonicTimestamp) as err:
            dataset.load_imu(p)
        assert err.value.line_no == 3

    def test_wrong_arity(self, tmp_path):
        p = write(tmp_path / "imu.csv", dataset.IMU_HEADER + "\n100,0,0,0\n")
        with pytest.raises(MalformedLine) as err:
            dataset.load_imu(p)
        assert err.value.line_no == 2

    def test_non_finite_rejected(self, tmp_path):
        p = write(tmp_path / "imu.csv",
                  dataset.IMU_HEADER + "\n100,nan,0,0,0,0,0\n")
        with pytest.raises(MalformedLine):
            dataset.load_imu(p)

    def test_non_ascii_byte_is_a_malformed_line(self, tmp_path):
        p = tmp_path / "imu.csv"
        p.write_bytes(dataset.IMU_HEADER.encode() + b"\n100,0,0,0,0,0,0\xff\n"
                      b"200,0,0,0,0,0,0\n")
        with pytest.raises(MalformedLine) as err:
            dataset.load_imu(p)
        assert err.value.line_no == 2

    def test_nanosecond_stamps_parse_exactly(self, tmp_path):
        # EuRoC stamps exceed 2**53; float64 would round them.
        stamps = [1403636579758555392, 1403636579758555393]
        rows = "".join(f"{t},0,0,0,0,0,0\n" for t in stamps)
        p = write(tmp_path / "imu.csv", dataset.IMU_HEADER + "\n" + rows)
        assert dataset.load_imu(p).t.tolist() == stamps

    def test_missing_file(self, tmp_path):
        with pytest.raises(IoFailure):
            dataset.load_imu(tmp_path / "absent.csv")

    def test_order_preserved(self, tmp_path):
        rows = "\n".join(f"{t},0,0,0,0,0,0" for t in range(100, 600, 100))
        p = write(tmp_path / "imu.csv", dataset.IMU_HEADER + "\n" + rows + "\n")
        assert dataset.load_imu(p).t.tolist() == list(range(100, 600, 100))


class TestLoadGroundtruth:
    def test_identity_orientation(self, tmp_path):
        p = write(tmp_path / "gt.csv", "header\n100,1,2,3,1,0,0,0\n")
        gt = dataset.load_groundtruth(p)
        assert len(gt) == 1
        np.testing.assert_allclose(gt.orientation, [[0, 0, 0, 1]])
        assert gt.velocity is None and gt.bias_gyro is None

    def test_bad_quaternion_norm(self, tmp_path):
        p = write(tmp_path / "gt.csv", "header\n100,1,2,3,0.9,0,0,0\n")
        with pytest.raises(MalformedLine):
            dataset.load_groundtruth(p)

    def test_near_unit_quaternion_renormalized(self, tmp_path):
        p = write(tmp_path / "gt.csv", "header\n100,1,2,3,1.0005,0,0,0\n")
        gt = dataset.load_groundtruth(p)
        assert abs(np.linalg.norm(gt.orientation[0]) - 1.0) < 1e-12

    def test_full_row_populates_velocity_and_biases(self, tmp_path):
        row = "100,1,2,3,1,0,0,0,0.5,0.6,0.7,0.01,0.02,0.03,0.04,0.05,0.06"
        p = write(tmp_path / "gt.csv", "header\n" + row + "\n")
        gt = dataset.load_groundtruth(p)
        np.testing.assert_allclose(gt.velocity, [[0.5, 0.6, 0.7]])
        np.testing.assert_allclose(gt.bias_gyro, [[0.01, 0.02, 0.03]])
        np.testing.assert_allclose(gt.bias_accel, [[0.04, 0.05, 0.06]])

    def test_mixed_row_widths(self, tmp_path):
        rows = "100,1,2,3,1,0,0,0,0.5,0.6,0.7\n200,1,2,3,1,0,0,0\n"
        p = write(tmp_path / "gt.csv", "header\n" + rows)
        with pytest.raises(MalformedLine) as err:
            dataset.load_groundtruth(p)
        assert err.value.line_no == 3

    def test_round_trip(self, tmp_path, rng):
        from conftest import random_quaternion
        n = 20
        gt = dataset.Trajectory(
            np.arange(n, dtype=np.int64) * 1000, rng.standard_normal((n, 3)),
            np.array([random_quaternion(rng) for _ in range(n)]),
            rng.standard_normal((n, 3)), bias_gyro=rng.standard_normal((n, 3)),
            bias_accel=rng.standard_normal((n, 3)))
        path = tmp_path / "gt.csv"
        dataset.save_groundtruth(path, gt)
        loaded = dataset.load_groundtruth(path)
        np.testing.assert_array_equal(loaded.t, gt.t)
        for name in ("position", "velocity", "bias_gyro", "bias_accel"):
            np.testing.assert_allclose(getattr(loaded, name), getattr(gt, name),
                                       rtol=1e-10)
        np.testing.assert_allclose(loaded.orientation, gt.orientation, rtol=0,
                                   atol=1e-10)


class TestToaFiles:
    def test_round_trip_random(self, tmp_path, rng):
        toa = dataset.ToaArrays(np.arange(1000, dtype=np.int64) * 10,
                                rng.integers(1, 6, 1000),
                                rng.uniform(0.1, 50.0, 1000))
        path = tmp_path / "toa.csv"
        dataset.save_toa(path, toa)
        loaded = dataset.load_toa(path)
        assert len(loaded) == 1000
        np.testing.assert_array_equal(loaded.t, toa.t)
        np.testing.assert_array_equal(loaded.bs_id, toa.bs_id)
        # 9 significant digits on disk
        np.testing.assert_allclose(loaded.distance, toa.distance, rtol=5e-9, atol=0)

    def test_empty_sequence_header_only(self, tmp_path):
        path = tmp_path / "toa.csv"
        dataset.save_toa(path, make_toa([]))
        assert path.read_text() == dataset.TOA_HEADER + "\n"
        assert len(dataset.load_toa(path)) == 0

    def test_unknown_bs_id(self, tmp_path):
        path = tmp_path / "toa.csv"
        dataset.save_toa(path, make_toa([(10, 7, 3.0)]))
        with pytest.raises(UnknownBsId, match="line 2: bs_id 7"):
            dataset.load_toa(path, num_stations=5)

    def test_unknown_bs_id_on_save(self, tmp_path):
        with pytest.raises(UnknownBsId):
            dataset.save_toa(tmp_path / "toa.csv", make_toa([(10, 7, 3.0)]),
                             num_stations=5)


class TestAssociateNearest:
    def test_identical_lists(self):
        ts = [100, 200, 300]
        pairs = dataset.associate_nearest(ts, ts, max_gap=10)
        assert pairs.tolist() == [[0, 0], [1, 1], [2, 2]]

    def test_tie_goes_to_earlier(self):
        pairs = dataset.associate_nearest([100, 200], [150], max_gap=10 ** 12)
        assert pairs.tolist() == [[0, 0]]

    def test_max_gap_omits(self):
        pairs = dataset.associate_nearest([100, 200], [150], max_gap=10)
        assert pairs.shape == (0, 2)

    def test_monotone_pairing(self, rng):
        ref = np.sort(rng.integers(0, 10 ** 6, 200))
        qry = np.sort(rng.integers(0, 10 ** 6, 100))
        pairs = dataset.associate_nearest(ref, qry, max_gap=10 ** 12)
        assert np.all(np.diff(pairs[:, 0]) >= 0)

    def test_empty_reference(self):
        assert dataset.associate_nearest([], [10, 20], max_gap=5).shape == (0, 2)


class TestTrajectoryFile:
    def test_round_trip(self, tmp_path, rng):
        from conftest import random_quaternion
        n = 25
        traj = dataset.Trajectory(
            t=np.arange(n, dtype=np.int64) * 10 ** 7,
            position=rng.standard_normal((n, 3)),
            orientation=np.array([random_quaternion(rng) for _ in range(n)]),
            velocity=rng.standard_normal((n, 3)))
        path = tmp_path / "traj.csv"
        dataset.save_trajectory(path, traj)
        loaded = dataset.load_trajectory(path)
        np.testing.assert_array_equal(loaded.t, traj.t)
        np.testing.assert_allclose(loaded.position, traj.position, rtol=1e-7, atol=1e-9)
        np.testing.assert_allclose(loaded.orientation, traj.orientation,
                                   rtol=1e-6, atol=1e-7)

    def test_cov_diag_rows(self, tmp_path, rng):
        n = 6
        cov = rng.random((n, 15)) * 10.0 ** rng.integers(-30, 30, (n, 15))
        cov[0, :3] = [np.inf, 0.0, 5e-324]
        traj = dataset.Trajectory(np.arange(n, dtype=np.int64) * 10 ** 7,
                                  np.zeros((n, 3)), np.tile([0.0, 0, 0, 1], (n, 1)),
                                  cov_diag=cov)
        path = tmp_path / "cov.csv"
        dataset.save_cov_diag(path, traj)
        lines = path.read_text().splitlines()
        assert lines[0] == dataset.COV_DIAG_HEADER
        assert lines[1:] == [f"{t}," + ",".join(f"{v:.6g}" for v in row)
                             for t, row in zip(traj.t.tolist(), cov)]

    def test_iterating_rows(self, rng):
        # Iteration goes through integer indexing: one row per step, each
        # with a scalar stamp, and nothing for an empty trajectory.
        n = 7
        traj = dataset.Trajectory(np.arange(n, dtype=np.int64) * 10 ** 7,
                                  rng.standard_normal((n, 3)),
                                  np.tile([0.0, 0, 0, 1], (n, 1)),
                                  cov_diag=rng.random((n, 15)))
        assert [e.t for e in traj] == list(traj.t)
        for k, row in enumerate(traj):
            np.testing.assert_array_equal(row.position, traj.position[k])
            np.testing.assert_array_equal(row.cov_diag, traj.cov_diag[k])
        assert list(traj[:0]) == []


# Property tests of the CSV parser: every loader against a per-line
# reference parse with Python's int() and float().
LOADERS = {
    # name: (loader, column counts, leading integer columns)
    "imu": (dataset.load_imu, (7,), 1),
    "groundtruth": (dataset.load_groundtruth, (8, 11, 17), 1),
    "toa": (lambda path: dataset.load_toa(path, num_stations=5), (3,), 2),
    "trajectory": (dataset.load_trajectory, (11,), 1),
}


def reference_parse(name: str, data: bytes):
    """(ints, floats) row lists, or (error type, 1-based line number)."""
    _, widths, n_int = LOADERS[name]
    rows, prev_t = [], None
    for line_no, line in enumerate(data.split(b"\n"), start=1):
        if line_no == 1 or not line.strip(b" \t\r"):
            continue
        if any((b < 0x20 and b not in b"\t\r") or b > 0x7e for b in line):
            return MalformedLine, line_no
        parts = line.decode("ascii").split(",")
        if len(parts) not in widths:
            return MalformedLine, line_no
        # int() and float() accept digit underscores; numpy's reader does not.
        if b"_" in line:
            return MalformedLine, line_no
        try:
            ints = [int(p) for p in parts[:n_int]]
            floats = [float(p) for p in parts[n_int:]]
        except ValueError:
            return MalformedLine, line_no
        if not all(-2 ** 63 <= i < 2 ** 63 for i in ints):
            return MalformedLine, line_no
        if not all(np.isfinite(floats)):
            return MalformedLine, line_no
        if name == "toa" and not 1 <= ints[1] <= 5:
            return UnknownBsId, line_no
        if prev_t is not None and (ints[0] < prev_t if name == "toa"
                                   else name != "trajectory" and ints[0] <= prev_t):
            return NonMonotonicTimestamp, line_no
        if name == "groundtruth":
            norm = np.linalg.norm(np.array(floats[4:7] + floats[3:4]))
            if abs(norm - 1.0) > 1e-3:
                return MalformedLine, line_no
        widths, prev_t = (len(parts),), ints[0]
        rows.append((ints, floats))
    return rows


def columns_of(name: str, loaded) -> tuple[np.ndarray, np.ndarray]:
    """A loader's result as the (ints, floats) table it was read from."""
    if name == "imu":
        return loaded.t[:, None], np.hstack([loaded.omega, loaded.accel])
    if name == "toa":
        return np.column_stack([loaded.t, loaded.bs_id]), loaded.distance[:, None]
    q = loaded.orientation[:, [3, 0, 1, 2]]
    extra = [c for c in (loaded.velocity, loaded.bias_gyro, loaded.bias_accel)
             if c is not None]
    return loaded.t[:, None], np.hstack([loaded.position, q] + extra)


def expected_columns(name: str, rows) -> tuple[np.ndarray, np.ndarray]:
    _, widths, n_int = LOADERS[name]
    width = len(rows[0][0]) + len(rows[0][1]) if rows else widths[0]
    ints = np.array([r[0] for r in rows], dtype=np.int64).reshape(-1, n_int)
    floats = np.array([r[1] for r in rows], dtype=float).reshape(-1, width - n_int)
    if name == "groundtruth":
        q = floats[:, [4, 5, 6, 3]]
        for k in range(len(q)):
            q[k] = q[k] / np.linalg.norm(q[k])
        floats[:, 3:7] = q[:, [3, 0, 1, 2]]
    return ints, floats


def check_against_reference(name: str, data: bytes, path) -> None:
    path.write_bytes(data)
    expected = reference_parse(name, data)
    if isinstance(expected, tuple):
        error, line_no = expected
        with pytest.raises(error) as err:
            LOADERS[name][0](path)
        if error is UnknownBsId:
            assert str(err.value).startswith(f"line {line_no}:")
        else:
            assert err.value.line_no == line_no
        return
    got = columns_of(name, LOADERS[name][0](path))
    for a, b in zip(got, expected_columns(name, expected)):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def number_text(draw, value: float) -> str:
    style = draw(st.sampled_from(["%.12g", "%r", "%.3e", " %.6f", "%+.9g\t"]))
    return style % value


@st.composite
def csv_rows(draw, name: str):
    """Valid CSV bytes for a loader: header, rows, blank lines, CRLF."""
    _, widths, n_int = LOADERS[name]
    width = draw(st.sampled_from(widths))
    n = draw(st.integers(0, 8))
    t0 = draw(st.sampled_from([0, 10 ** 6, 1_403_636_579_758_555_392]))
    steps = draw(st.lists(st.integers(0 if name == "toa" else 1, 10 ** 7),
                          min_size=n, max_size=n))
    values = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
    lines, t = [b"header,line"], t0
    for step in steps:
        t += step
        fields = [str(t)]
        if name == "toa":
            fields.append(str(draw(st.integers(1, 5))))
        floats = [draw(values) for _ in range(width - n_int)]
        if name == "groundtruth":
            q = np.array([draw(st.floats(-1, 1)) for _ in range(4)]) + [0.5, 0, 0, 0]
            floats[3:7] = (q / np.linalg.norm(q)).tolist()
        fields += [number_text(draw, v) for v in floats]
        ending = draw(st.sampled_from([b"", b"", b"\r"]))
        lines.append(",".join(fields).encode() + ending)
        if draw(st.integers(0, 9)) == 0:
            lines.append(draw(st.sampled_from([b"", b"  ", b"\t\r"])))
    return b"\n".join(lines) + draw(st.sampled_from([b"\n", b""]))


MUTATIONS = ("arity", "nan", "inf", "1e400", "0x1", "underscore", "empty",
             "crlf", "non_ascii", "control", "decreasing", "bs_id")


def mutate(draw, name: str, data: bytes, kind: str) -> bytes:
    lines = data.split(b"\n")
    data_lines = [k for k in range(1, len(lines)) if lines[k].strip(b" \t\r")]
    if not data_lines:
        return data
    k = draw(st.sampled_from(data_lines))
    fields = lines[k].split(b",")
    n_int = LOADERS[name][2]
    col = draw(st.integers(n_int, len(fields) - 1))
    if kind == "arity":
        fields = fields[:-1] if draw(st.booleans()) else fields + [b"0"]
    elif kind in ("nan", "inf", "1e400", "0x1"):
        fields[draw(st.integers(0, len(fields) - 1))] = kind.encode()
    elif kind == "underscore":
        fields[draw(st.integers(0, len(fields) - 1))] = b"1_0"
    elif kind == "empty":
        fields[col] = b""
    elif kind == "crlf":
        fields[-1] += b"\r"
    elif kind == "non_ascii":
        fields[col] += draw(st.sampled_from([b"\xff", b"\xc3\xa9", b"\x80"]))
    elif kind == "control":
        fields[col] = draw(st.sampled_from([b"\x00", b"\x0c", b"\x1b"])) + fields[col]
    elif kind == "decreasing":
        previous = [j for j in data_lines if j < k]
        if previous:
            t_prev = int(lines[previous[-1]].split(b",")[0])
            fields[0] = str(t_prev - draw(st.integers(0, 2))).encode()
    else:
        fields[1] = draw(st.sampled_from([b"0", b"6", b"-1", b"99"]))
    lines[k] = b",".join(fields)
    return b"\n".join(lines)


# max_examples comes from the loaded profile (see conftest.py).
PROPERTY_SETTINGS = settings(deadline=None,
                             suppress_health_check=[HealthCheck.too_slow,
                                                    HealthCheck.function_scoped_fixture])


class TestParserProperties:
    @pytest.mark.parametrize("name", list(LOADERS))
    @PROPERTY_SETTINGS
    @given(data=st.data())
    def test_valid_rows_match_reference_bit_for_bit(self, tmp_path, name, data):
        rows = data.draw(csv_rows(name))
        assert not isinstance(reference_parse(name, rows), tuple)
        check_against_reference(name, rows, tmp_path / "in.csv")

    @pytest.mark.parametrize("name, kind", [
        (name, kind) for name in LOADERS for kind in MUTATIONS
        if kind != "bs_id" or name == "toa"])
    @settings(PROPERTY_SETTINGS,
              max_examples=max(6, PROPERTY_SETTINGS.max_examples * 3 // 10))
    @given(data=st.data())
    def test_mutated_rows_raise_the_reference_error(self, tmp_path, name, kind,
                                                    data):
        rows = data.draw(csv_rows(name))
        check_against_reference(name, mutate(data.draw, name, rows, kind),
                                tmp_path / "in.csv")

    @pytest.mark.parametrize("name, save", [
        ("imu", dataset.save_imu), ("groundtruth", dataset.save_groundtruth),
        ("toa", dataset.save_toa), ("trajectory", dataset.save_trajectory)])
    @PROPERTY_SETTINGS
    @given(data=st.data())
    def test_writers_round_trip_byte_identically(self, tmp_path, name, save, data):
        path = tmp_path / "in.csv"
        path.write_bytes(data.draw(csv_rows(name)))
        load = LOADERS[name][0]
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        save(first, load(path))
        save(second, load(first))
        if name != "groundtruth":
            assert first.read_bytes() == second.read_bytes()
            return
        # Loading renormalizes the quaternion, which can move its 12th
        # significant digit; every other field must come back byte for byte.
        a, b = (np.array([line.split(b",") for line in f.read_bytes().splitlines()])
                for f in (first, second))
        quat = slice(4, 8)
        np.testing.assert_array_equal(np.delete(a, quat, axis=1),
                                      np.delete(b, quat, axis=1))
        np.testing.assert_allclose(a[1:, quat].astype(float),
                                   b[1:, quat].astype(float), rtol=0, atol=1e-11)


def traced_peak(call):
    """call()'s result and the peak of traced memory during it; tracemalloc
    sees Python objects and numpy's array data."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def random_imu(rng, n: int) -> dataset.ImuArrays:
    return make_imu(np.arange(n) * 5_000_000 + 1_403_636_579_758_555_392,
                    rng.standard_normal((n, 3)), 9.81 * rng.standard_normal((n, 3)))


class TestFailurePathBlocks:
    """A file that fails as a whole is parsed again block by block, and line
    by line only inside the failing block: the error and its line number
    are still those of the first bad line."""

    N = 3 * dataset._BLOCK_LINES + 100
    FIRST, MIDDLE, LAST = 5, dataset._BLOCK_LINES + 500, N - 1

    def rows(self):
        return [f"{1000 * (k + 1)},0.1,0.2,0.3,9.8,0,0.1" for k in range(self.N)]

    @pytest.mark.parametrize("row", [FIRST, MIDDLE, LAST])
    def test_malformed_line(self, tmp_path, row):
        rows = self.rows()
        rows[row] += "_"
        p = write(tmp_path / "imu.csv", "\n".join([dataset.IMU_HEADER] + rows))
        with pytest.raises(MalformedLine) as err:
            dataset.load_imu(p)
        assert err.value.line_no == row + 2

    @pytest.mark.parametrize("row", [dataset._BLOCK_LINES,
                                     2 * dataset._BLOCK_LINES - 1])
    def test_timestamp_checked_across_block_edges(self, tmp_path, row):
        # The first row of the second block, and the last of the second
        # block followed by a valid third block.
        rows = self.rows()
        rows[row] = "500" + rows[row][rows[row].index(","):]
        p = write(tmp_path / "imu.csv", "\n".join([dataset.IMU_HEADER] + rows))
        with pytest.raises(NonMonotonicTimestamp) as err:
            dataset.load_imu(p)
        assert err.value.line_no == row + 2

    def test_first_line_fixes_the_width_in_later_blocks(self, tmp_path):
        rows = [f"{k + 1},1,2,3,1,0,0,0" for k in range(self.N)]
        rows[self.MIDDLE] += ",0.5,0.6,0.7"
        p = write(tmp_path / "gt.csv", "\n".join(["header"] + rows) + "\n")
        with pytest.raises(MalformedLine, match="expected 8 columns") as err:
            dataset.load_groundtruth(p)
        assert err.value.line_no == self.MIDDLE + 2


class TestBoundedMemory:
    def test_load_peaks_near_the_columns(self, tmp_path, rng):
        path = tmp_path / "imu.csv"
        dataset.save_imu(path, random_imu(rng, 20_000))
        imu, peak = traced_peak(lambda: dataset.load_imu(path))
        column_bytes = imu.t.nbytes + imu.omega.nbytes + imu.accel.nbytes
        # The file text is about twice the columns; a parser that makes an
        # object per field peaks above twelve times them.
        assert peak < 5 * column_bytes + 1_000_000

    def test_save_peak_does_not_grow_with_the_rows(self, tmp_path, rng):
        peaks = []
        for n in (20_000, 80_000):
            imu = random_imu(rng, n)
            peaks.append(traced_peak(lambda: dataset.save_imu(tmp_path / "imu.csv",
                                                              imu))[1])
        chunk_column_bytes = dataset.SAVE_CHUNK_ROWS * 7 * 8
        assert peaks[1] - peaks[0] < chunk_column_bytes


class TestAtomicWrites:
    def test_failed_rename_leaves_no_temporary(self, tmp_path, monkeypatch):
        def refuse(src, dst):
            raise OSError("rename refused")
        monkeypatch.setattr(dataset.os, "replace", refuse)
        with pytest.raises(IoFailure, match="rename refused"):
            dataset.write_atomic(tmp_path / "out.txt", "text\n")
        assert list(tmp_path.iterdir()) == []

    def test_failed_chunk_write_keeps_the_old_file(self, tmp_path, monkeypatch, rng):
        path = tmp_path / "imu.csv"
        path.write_text("old\n")
        real_open = open

        class FullDisk:
            """A file whose third write fails, as on a full disk."""

            def __init__(self, *args, **kwargs):
                self.fh, self.writes = real_open(*args, **kwargs), 0

            def write(self, text):
                self.writes += 1
                if self.writes == 3:
                    raise OSError(28, "No space left on device")
                return self.fh.write(text)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

        monkeypatch.setattr(dataset, "SAVE_CHUNK_ROWS", 4)
        monkeypatch.setattr(dataset, "open", FullDisk, raising=False)
        with pytest.raises(IoFailure, match="No space left"):
            dataset.save_imu(path, random_imu(rng, 10))
        assert list(tmp_path.iterdir()) == [path]
        assert path.read_text() == "old\n"

    def test_unencodable_text_leaves_no_temporary(self, tmp_path):
        with pytest.raises(UnicodeEncodeError):
            dataset.write_atomic(tmp_path / "out.txt", "caf\u00e9\n")
        assert list(tmp_path.iterdir()) == []


class TestExtrinsic:
    def test_columns_match_per_pose_transform(self, rng):
        from conftest import random_quaternion
        from toafusion import geometry as geo, pipeline
        from toafusion.config import ExperimentConfig
        cfg = ExperimentConfig()
        cfg.extrinsic.enabled = True
        cfg.extrinsic.translation = (0.1, -0.2, 0.05)
        cfg.extrinsic.quaternion_wxyz = (0.9, 0.1, -0.3, 0.2)
        n = 30
        gt = dataset.Trajectory(np.arange(n, dtype=np.int64), rng.standard_normal((n, 3)),
                                np.array([random_quaternion(rng) for _ in range(n)]),
                                rng.standard_normal((n, 3)))
        out = pipeline._apply_extrinsic(cfg, gt)
        q_ext = geo.quat_normalize(np.array([0.1, -0.3, 0.2, 0.9]))
        for k in range(n):
            rot = geo.quat_to_rot(gt.orientation[k])
            np.testing.assert_allclose(out.position[k],
                                       gt.position[k] + rot @ [0.1, -0.2, 0.05],
                                       rtol=0, atol=1e-14)
            np.testing.assert_allclose(out.orientation[k],
                                       geo.quat_mul(gt.orientation[k], q_ext),
                                       rtol=0, atol=1e-15)
        np.testing.assert_array_equal(out.velocity, gt.velocity)
