import numpy as np
import pytest

from toafusion import geometry as geo


def random_rotation(rng: np.random.Generator, max_angle: float = np.pi - 1e-3) -> np.ndarray:
    axis = rng.standard_normal(3)
    axis /= np.linalg.norm(axis)
    angle = rng.uniform(1e-6, max_angle)
    return geo.exp_so3(axis * angle)


def random_quaternion(rng: np.random.Generator) -> np.ndarray:
    q = rng.standard_normal(4)
    return geo.quat_normalize(q)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


_ACCEPTANCE_LINES: list[str] = []


def record_acceptance(line: str) -> None:
    _ACCEPTANCE_LINES.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


# Per-sample preintegration oracle: the scalar Euler recursion one sample
# at a time, as the package computed it before the batched kernel.
ORACLE_FIELDS = ("d_rot", "d_vel", "d_pos", "cov", "j_rot_bg", "j_pos_bg",
                 "j_pos_ba", "j_vel_bg", "j_vel_ba", "dt_total", "count")


def oracle_integrate(omega, accel, dts, bias_gyro, bias_accel, noise) -> dict:
    st = dict(d_rot=np.eye(3), d_vel=np.zeros(3), d_pos=np.zeros(3),
              cov=np.zeros((9, 9)), dt_total=0.0, count=0,
              **{name: np.zeros((3, 3)) for name in ORACLE_FIELDS[4:9]})
    for k in range(len(dts)):
        dt = float(dts[k])
        w_hat = omega[k] - bias_gyro
        a_hat = accel[k] - bias_accel
        rot_prev = st["d_rot"]
        rot_inc = geo.exp_so3(w_hat * dt)
        d_pos = st["d_pos"] + st["d_vel"] * dt + 0.5 * (rot_prev @ a_hat) * dt * dt
        d_vel = st["d_vel"] + (rot_prev @ a_hat) * dt
        d_rot = rot_prev @ rot_inc
        a_skew = geo.skew(a_hat)
        a_mat = np.eye(9)
        a_mat[0:3, 0:3] = rot_inc.T
        a_mat[3:6, 0:3] = -0.5 * (rot_prev @ a_skew) * dt * dt
        a_mat[3:6, 6:9] = np.eye(3) * dt
        a_mat[6:9, 0:3] = -(rot_prev @ a_skew) * dt
        b_mat = np.zeros((9, 6))
        jr_dt = geo.right_jacobian_so3(w_hat * dt)
        b_mat[0:3, 0:3] = jr_dt * dt
        b_mat[3:6, 3:6] = 0.5 * rot_prev * dt * dt
        b_mat[6:9, 3:6] = rot_prev * dt
        sigma_eta = np.diag([noise.sigma_g ** 2] * 3 + [noise.sigma_a ** 2] * 3) / dt
        cov = a_mat @ st["cov"] @ a_mat.T + b_mat @ sigma_eta @ b_mat.T
        ra_skew = rot_prev @ a_skew
        j_rot_bg = st["j_rot_bg"]
        st.update(
            d_rot=d_rot, d_pos=d_pos, d_vel=d_vel, cov=0.5 * (cov + cov.T),
            j_pos_bg=(st["j_pos_bg"] + st["j_vel_bg"] * dt
                      - 0.5 * ra_skew @ j_rot_bg * dt * dt),
            j_pos_ba=st["j_pos_ba"] + st["j_vel_ba"] * dt - 0.5 * rot_prev * dt * dt,
            j_vel_bg=st["j_vel_bg"] - ra_skew @ j_rot_bg * dt,
            j_vel_ba=st["j_vel_ba"] - rot_prev * dt,
            j_rot_bg=rot_inc.T @ j_rot_bg - jr_dt * dt,
            dt_total=st["dt_total"] + dt, count=st["count"] + 1)
    return st


def oracle_slice(imu, t_start: int, t_end: int):
    """Linear-scan slicing of a list of ImuSample into (omega, accel, dt)."""
    omegas, accels, dts = [], [], []
    for k in range(len(imu)):
        t = imu[k].t
        if t < t_start or t >= t_end:
            continue
        t_next = imu[k + 1].t if k + 1 < len(imu) else t_end
        dt = (min(t_next, t_end) - t) * 1e-9
        if dt <= 0.0:
            continue
        omegas.append(imu[k].omega)
        accels.append(imu[k].accel)
        dts.append(dt)
    return (np.array(omegas).reshape(-1, 3), np.array(accels).reshape(-1, 3),
            np.array(dts))


def assert_matches_oracle(pre, expected: dict, tol: float = 1e-12) -> None:
    """Every field within tol, relative to the field's largest entry."""
    for name in ORACLE_FIELDS:
        got = np.asarray(getattr(pre, name), dtype=float)
        want = np.asarray(expected[name], dtype=float)
        scale = max(float(np.max(np.abs(want))), 1e-300)
        assert np.max(np.abs(got - want)) <= tol * scale, name
    assert isinstance(pre.count, int)
