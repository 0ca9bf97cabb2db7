import os

import numpy as np
import pytest
from hypothesis import settings

from toafusion import eskf
from toafusion import geometry as geo
from toafusion import pgo
from toafusion.config import EskfOptions
from toafusion.dataset import ImuArrays, ToaArrays
from toafusion.toa_sim import RangeModel

from so3_reference import exp_so3, right_jacobian_so3, skew


# Hypothesis profiles: "dev" (the default) keeps the property tests quick,
# "ci" runs five times the examples. HYPOTHESIS_PROFILE selects one.
settings.register_profile("dev", max_examples=20)
settings.register_profile("ci", max_examples=100)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))


def random_rotation(rng: np.random.Generator, max_angle: float = np.pi - 1e-3) -> np.ndarray:
    axis = rng.standard_normal(3)
    axis /= np.linalg.norm(axis)
    angle = rng.uniform(1e-6, max_angle)
    return exp_so3(axis * angle)


def random_quaternion(rng: np.random.Generator) -> np.ndarray:
    q = rng.standard_normal(4)
    return geo.quat_normalize(q)


def model_of(stations, std=0.0) -> RangeModel:
    """The range model of stations, std one or per station, default floor."""
    return RangeModel.build(stations, np.broadcast_to(std, (len(stations),)),
                            EskfOptions.sigma_floor)


def make_imu(t, omega, accel) -> ImuArrays:
    """ImuArrays from timestamps and per-sample (or one shared) readings."""
    t = np.asarray(t, dtype=np.int64)
    shape = (len(t), 3)
    return ImuArrays(t, np.array(np.broadcast_to(omega, shape), dtype=float),
                     np.array(np.broadcast_to(accel, shape), dtype=float))


def make_toa(rows) -> ToaArrays:
    """ToaArrays from (t, bs_id, distance) rows."""
    rows = list(rows)
    return ToaArrays(np.array([r[0] for r in rows], dtype=np.int64),
                     np.array([r[1] for r in rows], dtype=np.int64),
                     np.array([r[2] for r in rows], dtype=float))


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
        rot_inc = exp_so3(w_hat * dt)
        d_pos = st["d_pos"] + st["d_vel"] * dt + 0.5 * (rot_prev @ a_hat) * dt * dt
        d_vel = st["d_vel"] + (rot_prev @ a_hat) * dt
        d_rot = rot_prev @ rot_inc
        a_skew = skew(a_hat)
        a_mat = np.eye(9)
        a_mat[0:3, 0:3] = rot_inc.T
        a_mat[3:6, 0:3] = -0.5 * (rot_prev @ a_skew) * dt * dt
        a_mat[3:6, 6:9] = np.eye(3) * dt
        a_mat[6:9, 0:3] = -(rot_prev @ a_skew) * dt
        b_mat = np.zeros((9, 6))
        jr_dt = right_jacobian_so3(w_hat * dt)
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
    """Linear-scan slicing of ImuArrays into (omega, accel, dt)."""
    omegas, accels, dts = [], [], []
    times = imu.t.tolist()
    for k, t in enumerate(times):
        if t < t_start or t >= t_end:
            continue
        t_next = times[k + 1] if k + 1 < len(times) else t_end
        dt = (min(t_next, t_end) - t) * 1e-9
        if dt <= 0.0:
            continue
        omegas.append(imu.omega[k])
        accels.append(imu.accel[k])
        dts.append(dt)
    return (np.array(omegas).reshape(-1, 3), np.array(accels).reshape(-1, 3),
            np.array(dts))


def assert_matches_oracle(batch, k, expected: dict, tol: float = 1e-12) -> None:
    """Every field of interval k of batch within tol, relative to the
    field's largest entry."""
    for name in ORACLE_FIELDS:
        column = getattr(batch, "counts" if name == "count" else name)
        got = np.asarray(column[k], dtype=float)
        want = np.asarray(expected[name], dtype=float)
        scale = max(float(np.max(np.abs(want))), 1e-300)
        assert np.max(np.abs(got - want)) <= tol * scale, name


def dead_reckon(batch, k, rot_i, p_i, v_i, gravity=eskf.GRAVITY):
    """Keyframe j from keyframe i through interval k of batch, one interval
    at a time."""
    dt = batch.dt_total[k]
    rot_j = rot_i @ batch.d_rot[k]
    v_j = v_i + gravity * dt + rot_i @ batch.d_vel[k]
    p_j = p_i + v_i * dt + 0.5 * gravity * dt * dt + rot_i @ batch.d_pos[k]
    return rot_j, p_j, v_j


def imu_table(batch, sqrt_info, i=None):
    """IMU factor table copied row by row from the intervals of a
    PreintegratedBatch and their (m, 15, 15) square-root information, row
    k linking keyframes i[k] (default k) and i[k] + 1: the reference for
    the tables the package fills by slice."""
    m = len(batch.dt_total)
    tab = pgo._ImuTable.chain(m)
    for k in range(m):
        if i is not None:
            tab.i[k], tab.j[k] = i[k], i[k] + 1
        for name in pgo._PRE_ROW_FIELDS:
            getattr(tab, name)[k] = getattr(batch, name)[k]
        tab.dt[k] = batch.dt_total[k]
        tab.sqrt_info[k] = sqrt_info[k]
        tab.bias_lin[k, 0:3], tab.bias_lin[k, 3:6] = batch.bias_gyro[k], batch.bias_accel[k]
    return tab


def imu_residual(pre, state_i, state_j) -> np.ndarray:
    """Unwhitened 15-dof residual (rotation, position, velocity, bias) of
    the one-interval batch pre between two keyframe states (rot, p, v[,
    bias]), from the solver's IMU kernel. Biases default to zero."""
    tab = imu_table(pre, np.eye(15)[None])
    states = [tuple(s) + (np.zeros(6),) * (4 - len(s)) for s in (state_i, state_j)]
    values = pgo.GraphValues(*(np.array(c, dtype=float) for c in zip(*states)),
                             stations=np.zeros((0, 3)))
    return pgo._imu_residuals(tab, values).r_w[0]


# Per-sample ESKF oracle: the numpy RK4 nominal step, the per-sample error
# Jacobians F and G, the RK4 step of P_dot = F P + P F^T + G Q G^T, the
# update with the full (k, 15) range Jacobian, and the filter loop that
# predicted one sample at a time, as the package computed them before
# segments.
def oracle_propagate_nominal(state, omega, accel, dt, gravity):
    w_hat = omega - state.b_g
    a_hat = accel - state.b_a
    omega = np.zeros((4, 4))
    omega[:3, :3] = -skew(w_hat)
    omega[:3, 3] = w_hat
    omega[3, :3] = -w_hat

    def deriv(y):
        q, v = y[0:4], y[4:7]
        return np.concatenate([0.5 * (omega @ q),
                               geo.quat_to_rot(q) @ a_hat + gravity, v])

    y = np.concatenate([state.q, state.v, state.p])
    k1 = deriv(y)
    k2 = deriv(y + 0.5 * dt * k1)
    k3 = deriv(y + 0.5 * dt * k2)
    k4 = deriv(y + dt * k3)
    y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return eskf.NavState(geo.quat_normalize(y[0:4]), state.b_g.copy(), y[4:7],
                         state.b_a.copy(), y[7:10])


def oracle_error_jacobians(state, omega, accel):
    w_hat = omega - state.b_g
    a_hat = accel - state.b_a
    r_wb = geo.quat_to_rot(state.q)
    f = np.zeros((15, 15))
    f[0:3, 0:3] = -skew(w_hat)
    f[0:3, 3:6] = -np.eye(3)
    f[6:9, 0:3] = -r_wb @ skew(a_hat)
    f[6:9, 9:12] = -r_wb
    f[12:15, 6:9] = np.eye(3)
    g = np.zeros((15, 12))
    g[0:3, 0:3] = -np.eye(3)
    g[3:6, 3:6] = np.eye(3)
    g[6:9, 6:9] = -r_wb
    g[9:12, 9:12] = np.eye(3)
    return f, g


def nominal_step(state, omega, accel, dt, gravity=eskf.GRAVITY):
    """eskf.nominal_segment over one interval, on a NavState and raw
    (biased) readings."""
    q, _, v, p = eskf.nominal_segment(
        state.q, state.v, state.p, (np.asarray(omega) - state.b_g)[None],
        (np.asarray(accel) - state.b_a)[None], np.array([dt]), gravity)
    return eskf.NavState(q[1], state.b_g.copy(), v[1], state.b_a.copy(), p[1])


def oracle_q_matrix(noise) -> np.ndarray:
    """12x12 IMU noise PSD, ordered (eta_g, eta_wg, eta_a, eta_wa)."""
    return np.diag(np.repeat([noise.sigma_g ** 2, noise.sigma_wg ** 2,
                              noise.sigma_a ** 2, noise.sigma_wa ** 2], 3))


def oracle_propagate_covariance(p_cov, f, g, q_imu, dt):
    gqg = g @ q_imu @ g.T

    def deriv(p):
        return f @ p + p @ f.T + gqg

    k1 = deriv(p_cov)
    k2 = deriv(p_cov + 0.5 * dt * k1)
    k3 = deriv(p_cov + 0.5 * dt * k2)
    k4 = deriv(p_cov + dt * k3)
    out = p_cov + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return 0.5 * (out + out.T)


def oracle_update(state, p_cov, meas, positions, var):
    """Joint range update with the full (k, 15) Jacobian, one station at a
    time."""
    h = np.zeros((len(meas), 15))
    predicted = np.zeros(len(meas))
    for k, position in enumerate(positions):
        diff = state.p - position
        predicted[k] = np.linalg.norm(diff)
        h[k, 12:15] = diff / predicted[k]
    s = h @ p_cov @ h.T + np.diag(var)
    gain = np.linalg.solve(s, h @ p_cov).T
    new_state = eskf.inject_error(state, gain @ (meas - predicted))
    new_cov = (np.eye(15) - gain @ h) @ p_cov
    return new_state, 0.5 * (new_cov + new_cov.T)


def oracle_run_filter(imu, toa, config) -> list:
    """(t, state, cov_diag) of every estimate, predicting sample by sample."""
    state = config.initial_state.copy()
    p_cov = (config.initial_cov.copy() if config.initial_cov is not None
             else eskf.default_initial_covariance())
    q_imu = oracle_q_matrix(config.noise)
    model = config.range_model
    station = {bs_id: (position, sigma ** 2) for bs_id, position, sigma
               in zip(model.ids.tolist(), model.positions, model.sigma)}
    groups: list[tuple[int, list]] = []
    for t, bs_id, distance in zip(toa.t.tolist(), toa.bs_id.tolist(),
                                  toa.distance.tolist()):
        if not groups or groups[-1][0] != t:
            groups.append((t, []))
        groups[-1][1].append((distance, *station[bs_id]))
    next_group = 0
    out = []
    times = imu.t.tolist()
    for i in range(1, len(times)):
        dt = (times[i] - times[i - 1]) * 1e-9
        state = oracle_propagate_nominal(state, imu.omega[i - 1],
                                         imu.accel[i - 1], dt, eskf.GRAVITY)
        f, g = oracle_error_jacobians(state, imu.omega[i - 1], imu.accel[i - 1])
        p_cov = oracle_propagate_covariance(p_cov, f, g, q_imu, dt)
        now = times[i]
        while next_group < len(groups) and groups[next_group][0] <= now:
            meas, positions, var = zip(*groups[next_group][1])
            state, p_cov = oracle_update(state, p_cov, np.array(meas),
                                         np.array(positions), np.array(var))
            out.append((now, state.copy(), np.diag(p_cov).copy()))
            next_group += 1
        if config.options.emit_at_imu_rate:
            out.append((now, state.copy(), np.diag(p_cov).copy()))
    return out
