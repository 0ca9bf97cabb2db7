"""Factor-graph MAP estimation over keyframes with IMU and range factors.

Keyframes are created at a fixed cadence; consecutive keyframes are linked
by preintegrated IMU factors, every range measurement attaches to its
temporally nearest keyframe, and base-station positions enter as variables
held by tight priors. The resulting nonlinear least-squares problem

    sum_f  r_f(X)^T Sigma_f^-1 r_f(X)

is minimized with Levenberg-Marquardt. Rotations are updated through the
exponential retraction ``R <- R @ exp_so3(dtheta)``; every other block is
Euclidean.

IMU factors only link consecutive keyframes, so with keyframes ordered
first and stations last the normal equations have arrow form: a
block-tridiagonal keyframe block of half-bandwidth 2 * KF_DIM - 1, a dense
keyframe-station coupling and a small dense station block. Each damped
step factors the keyframe block with a banded Cholesky A = U^T U. One
triangular band solve W = U^-T [-g_k | B] yields the station Schur
complement C - W_B^T W_B, and after the station solve a second one, with
a single right-hand side, yields the keyframe step; no dense matrix over
all variables is ever formed. The cost at the initial values comes from
the first assembly.

The incremental mode re-optimizes a sliding window after each new
keyframe, summarizing everything older than the window by a Gaussian
prior on the oldest in-window keyframe. It stacks the IMU and range
factors into tables once per run: each new IMU factor fills its own row,
re-integrated factors rewrite theirs, and each window solve reads row
slices of the tables instead of restacking its factors.

Both modes turn the IMU samples into columns once per call (strictly
increasing timestamps required) and slice each keyframe interval by
binary search. `build_graph` preintegrates every interval at the initial
bias in one batched kernel call; factors whose bias estimate drifts are
re-integrated together, one kernel call per check.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields
from typing import Optional, Sequence

import numpy as np
import scipy.linalg

from . import geometry as geo
from . import preintegration as pre_mod
from .dataset import (ImuArrays, ImuSample, ToaMeasurement, Trajectory,
                      associate_nearest)
from .errors import (DegenerateGeometry, EmptyInput, IndefiniteCovariance,
                     NonFiniteCost, SingularNormalEquations, UnknownBsId)
from .eskf import GRAVITY, ImuNoiseParams, NavState
from .preintegration import PreintegratedBatch, PreintegratedImu
from .toa_sim import BaseStation

MIN_RANGE_M = 1e-6
KF_DIM = 15          # theta(3) p(3) v(3) bias(6)
_OFF_TH, _OFF_P, _OFF_V, _OFF_B = 0, 3, 6, 9


def range_residual(position: np.ndarray, station_pos: np.ndarray,
                   distance: float) -> float:
    """Measured minus predicted distance to a fixed anchor."""
    d = float(np.linalg.norm(np.asarray(position) - np.asarray(station_pos)))
    if d < MIN_RANGE_M:
        raise DegenerateGeometry("position coincides with station")
    return float(distance) - d


def range_gradient(position: np.ndarray, station_pos: np.ndarray) -> np.ndarray:
    """Gradient of range_residual with respect to the position."""
    diff = np.asarray(position) - np.asarray(station_pos)
    d = float(np.linalg.norm(diff))
    if d < MIN_RANGE_M:
        raise DegenerateGeometry("position coincides with station")
    return -diff / d


def _sqrt_info(cov: np.ndarray) -> np.ndarray:
    """S with S^T S = cov^-1, via the Cholesky factor of cov."""
    cov = 0.5 * (cov + cov.T)
    jitter = 1e-14 * max(float(np.trace(cov)) / cov.shape[0], 1e-12)
    try:
        lower = np.linalg.cholesky(cov + jitter * np.eye(cov.shape[0]))
    except np.linalg.LinAlgError as exc:
        raise IndefiniteCovariance(f"covariance not positive definite: {exc}") from exc
    return scipy.linalg.solve_triangular(lower, np.eye(cov.shape[0]), lower=True)


@dataclass(frozen=True)
class KeyframeId:
    index: int
    t: int


@dataclass
class GraphValues:
    """Current estimates for all keyframe and station variables."""

    rot: np.ndarray        # (N, 3, 3)
    pos: np.ndarray        # (N, 3)
    vel: np.ndarray        # (N, 3)
    bias: np.ndarray       # (N, 6): gyro then accel
    stations: np.ndarray   # (K, 3)

    def copy(self) -> "GraphValues":
        return GraphValues(self.rot.copy(), self.pos.copy(), self.vel.copy(),
                           self.bias.copy(), self.stations.copy())

    def head(self, n: int) -> "GraphValues":
        """Keyframes [0, n) and every station, as views into this object."""
        return GraphValues(self.rot[:n], self.pos[:n], self.vel[:n],
                           self.bias[:n], self.stations)

    @property
    def n_keyframes(self) -> int:
        return self.pos.shape[0]


class PriorPoseFactor:
    kind = "PriorPose"

    def __init__(self, kf: int, rot0: np.ndarray, p0: np.ndarray, cov: np.ndarray):
        self.kf = kf
        self.rot0 = rot0
        self.p0 = p0
        self.cov = cov
        self.sqrt_info = _sqrt_info(cov)

    def residual(self, values: GraphValues) -> np.ndarray:
        r_rot = geo.log_so3(self.rot0.T @ values.rot[self.kf])
        return np.concatenate([r_rot, values.pos[self.kf] - self.p0])

    def linearize(self, values: GraphValues):
        r = self.residual(values)
        jac = np.zeros((6, KF_DIM))
        jac[0:3, _OFF_TH:_OFF_TH + 3] = geo.right_jacobian_inv_so3(r[0:3])
        jac[3:6, _OFF_P:_OFF_P + 3] = np.eye(3)
        return self.sqrt_info @ r, [(("kf", self.kf), self.sqrt_info @ jac)]


class PriorVelocityFactor:
    kind = "PriorVelocity"

    def __init__(self, kf: int, v0: np.ndarray, cov: np.ndarray):
        self.kf = kf
        self.v0 = v0
        self.cov = cov
        self.sqrt_info = _sqrt_info(cov)

    def residual(self, values: GraphValues) -> np.ndarray:
        return values.vel[self.kf] - self.v0

    def linearize(self, values: GraphValues):
        jac = np.zeros((3, KF_DIM))
        jac[:, _OFF_V:_OFF_V + 3] = np.eye(3)
        return (self.sqrt_info @ self.residual(values),
                [(("kf", self.kf), self.sqrt_info @ jac)])


class PriorBiasFactor:
    kind = "PriorBias"

    def __init__(self, kf: int, b0: np.ndarray, cov: np.ndarray):
        self.kf = kf
        self.b0 = b0
        self.cov = cov
        self.sqrt_info = _sqrt_info(cov)

    def residual(self, values: GraphValues) -> np.ndarray:
        return values.bias[self.kf] - self.b0

    def linearize(self, values: GraphValues):
        jac = np.zeros((6, KF_DIM))
        jac[:, _OFF_B:_OFF_B + 6] = np.eye(6)
        return (self.sqrt_info @ self.residual(values),
                [(("kf", self.kf), self.sqrt_info @ jac)])


class PriorStationFactor:
    kind = "PriorStation"

    def __init__(self, station: int, center: np.ndarray, sigma: float):
        self.station = station
        self.center = center
        self.sigma = sigma
        self.cov = sigma * sigma * np.eye(3)

    def residual(self, values: GraphValues) -> np.ndarray:
        return values.stations[self.station] - self.center

    def linearize(self, values: GraphValues):
        w = 1.0 / self.sigma
        return (w * self.residual(values),
                [(("st", self.station), w * np.eye(3))])


class PriorStateFactor:
    """Full 15-dof keyframe prior used to summarize marginalized history."""

    kind = "PriorState"

    def __init__(self, kf: int, rot0: np.ndarray, p0: np.ndarray,
                 v0: np.ndarray, b0: np.ndarray, cov: np.ndarray):
        self.kf = kf
        self.rot0 = rot0
        self.p0 = p0
        self.v0 = v0
        self.b0 = b0
        self.cov = cov
        self.sqrt_info = _sqrt_info(cov)

    def residual(self, values: GraphValues) -> np.ndarray:
        return np.concatenate([
            geo.log_so3(self.rot0.T @ values.rot[self.kf]),
            values.pos[self.kf] - self.p0,
            values.vel[self.kf] - self.v0,
            values.bias[self.kf] - self.b0,
        ])

    def linearize(self, values: GraphValues):
        r = self.residual(values)
        jac = np.eye(15)
        jac[0:3, 0:3] = geo.right_jacobian_inv_so3(r[0:3])
        return self.sqrt_info @ r, [(("kf", self.kf), self.sqrt_info @ jac)]


class ImuFactor:
    """Preintegrated relative-motion constraint between keyframes i and j.

    The residual stacks (rotation, position, velocity) from the increments
    plus the bias random-walk difference; its covariance is block-diagonal
    in the same order.
    """

    kind = "Imu"

    def __init__(self, i: int, j: int, pre: PreintegratedImu,
                 samples: tuple[np.ndarray, np.ndarray, np.ndarray],
                 gravity: np.ndarray = GRAVITY):
        self.i = i
        self.j = j
        self.samples = samples        # (omega, accel, dt) kept for re-integration
        self.gravity = gravity
        self._set_pre(pre)

    def _set_pre(self, pre: PreintegratedImu) -> None:
        self.pre = pre
        n = pre.noise
        walk = np.diag([n.sigma_wg ** 2 * pre.dt_total] * 3 +
                       [n.sigma_wa ** 2 * pre.dt_total] * 3)
        cov = np.zeros((15, 15))
        cov[0:9, 0:9] = pre.cov
        cov[9:15, 9:15] = walk
        self.cov = cov
        self.sqrt_info = _sqrt_info(cov)

    def residual(self, values: GraphValues) -> np.ndarray:
        rot_i, rot_j = values.rot[self.i], values.rot[self.j]
        bias_i = values.bias[self.i]
        r_rot = pre_mod.residual_rotation(self.pre, rot_i, rot_j, bias_i)
        r_pos = pre_mod.residual_position(self.pre, rot_i, values.pos[self.i],
                                          values.vel[self.i], values.pos[self.j],
                                          self.gravity, bias_i)
        r_vel = pre_mod.residual_velocity(self.pre, rot_i, values.vel[self.i],
                                          values.vel[self.j], self.gravity,
                                          bias_i)
        r_bias = pre_mod.residual_bias(values.bias[self.i], values.bias[self.j])
        return np.concatenate([r_rot, r_pos, r_vel, r_bias])

    def linearize(self, values: GraphValues):
        rot_i, rot_j = values.rot[self.i], values.rot[self.j]
        p_i, p_j = values.pos[self.i], values.pos[self.j]
        v_i, v_j = values.vel[self.i], values.vel[self.j]
        pre = self.pre
        dt = pre.dt_total

        r = self.residual(values)
        jr_inv = geo.right_jacobian_inv_so3(r[0:3])
        rot_it = rot_i.T

        pos_arg = rot_it @ (p_j - p_i - v_i * dt - 0.5 * self.gravity * dt * dt)
        vel_arg = rot_it @ (v_j - v_i - self.gravity * dt)

        ji = np.zeros((15, KF_DIM))
        ji[0:3, _OFF_TH:_OFF_TH + 3] = -jr_inv @ (rot_j.T @ rot_i)
        ji[3:6, _OFF_TH:_OFF_TH + 3] = geo.skew(pos_arg)
        ji[3:6, _OFF_P:_OFF_P + 3] = -rot_it
        ji[3:6, _OFF_V:_OFF_V + 3] = -dt * rot_it
        ji[6:9, _OFF_TH:_OFF_TH + 3] = geo.skew(vel_arg)
        ji[6:9, _OFF_V:_OFF_V + 3] = -rot_it
        ji[9:15, _OFF_B:_OFF_B + 6] = -np.eye(6)
        # First-order bias corrections make the motion residuals depend on
        # the bias at keyframe i.
        dbg = values.bias[self.i][0:3] - pre.bias_gyro
        corr = pre.j_rot_bg @ dbg
        ji[0:3, _OFF_B:_OFF_B + 3] = -(
            jr_inv @ geo.exp_so3(r[0:3]).T
            @ geo.right_jacobian_so3(corr) @ pre.j_rot_bg)
        ji[3:6, _OFF_B:_OFF_B + 3] += -pre.j_pos_bg
        ji[3:6, _OFF_B + 3:_OFF_B + 6] += -pre.j_pos_ba
        ji[6:9, _OFF_B:_OFF_B + 3] += -pre.j_vel_bg
        ji[6:9, _OFF_B + 3:_OFF_B + 6] += -pre.j_vel_ba

        jj = np.zeros((15, KF_DIM))
        jj[0:3, _OFF_TH:_OFF_TH + 3] = jr_inv
        jj[3:6, _OFF_P:_OFF_P + 3] = rot_it
        jj[6:9, _OFF_V:_OFF_V + 3] = rot_it
        jj[9:15, _OFF_B:_OFF_B + 6] = np.eye(6)

        s = self.sqrt_info
        return s @ r, [(("kf", self.i), s @ ji), (("kf", self.j), s @ jj)]


class RangeFactor:
    kind = "Range"

    def __init__(self, kf: int, station: int, distance: float, sigma: float):
        self.kf = kf
        self.station = station
        self.distance = distance
        self.sigma = sigma
        self.cov = np.array([[sigma * sigma]])

    def residual(self, values: GraphValues) -> np.ndarray:
        return np.array([range_residual(values.pos[self.kf],
                                        values.stations[self.station],
                                        self.distance)])

    def linearize(self, values: GraphValues):
        grad = range_gradient(values.pos[self.kf], values.stations[self.station])
        w = 1.0 / self.sigma
        jac_kf = np.zeros((1, KF_DIM))
        jac_kf[0, _OFF_P:_OFF_P + 3] = w * grad
        jac_st = (-w * grad).reshape(1, 3)
        return (w * self.residual(values),
                [(("kf", self.kf), jac_kf), (("st", self.station), jac_st)])


@dataclass
class FactorGraph:
    keyframes: list[KeyframeId]
    factors: list
    station_ids: list[int]
    # The factors of one solve over keyframes [first_kf, N), stacked by a
    # caller that keeps the tables across solves (the sliding window).
    # `optimize` then uses it as it is, and `factors` holds the priors only.
    window: Optional[_Window] = field(default=None, repr=False)

    def imu_factors(self) -> list[ImuFactor]:
        return [f for f in self.factors if f.kind == "Imu"]

    def range_factors(self) -> list[RangeFactor]:
        return [f for f in self.factors if f.kind == "Range"]


@dataclass
class PgoConfig:
    initial_state: NavState
    stations: Sequence[BaseStation]
    meas_std: np.ndarray
    noise: ImuNoiseParams = field(default_factory=ImuNoiseParams)
    node_rate_hz: float = 10.0
    window: int = 100
    max_iters: int = 50
    max_iters_stream: int = 12
    stream_cost_tol: float = 1e-3
    damping_init: float = 1e-4
    cost_tol: float = 1e-9
    step_tol: float = 1e-9
    gravity: np.ndarray = field(default_factory=lambda: GRAVITY.copy())
    sigma_floor: float = 1e-3
    station_prior_sigma: float = 1e-3
    prior_sigma_rot: float = 0.01
    prior_sigma_pos: float = 0.1
    prior_sigma_vel: float = 0.1
    prior_sigma_bias: float = 0.01
    bias_drift_threshold: float = 0.05
    final_batch: bool = True


@dataclass
class OptimizeOptions:
    max_iters: int = 50
    damping_init: float = 1e-4
    cost_tol: float = 1e-9
    step_tol: float = 1e-9


@dataclass
class OptimizeReport:
    costs: list[float]                 # cost after each accepted iteration
    initial_cost: float
    iterations: int
    termination: str
    cost_log: list[tuple[int, float, float]]   # (iter, cost, damping)


def total_cost(graph: FactorGraph, values: GraphValues) -> float:
    """Sum of squared Mahalanobis residuals over every factor."""
    return _window_cost(_Window(graph.factors), values)


def _column_map(first_kf: int, n_kf: int):
    def col(key) -> int:
        tag, idx = key
        if tag == "kf":
            return KF_DIM * (idx - first_kf)
        return KF_DIM * n_kf + 3 * idx
    return col


def _active_factors(graph: FactorGraph, first_kf: int) -> list:
    if first_kf == 0:
        return graph.factors
    out = []
    for f in graph.factors:
        if f.kind == "Imu":
            if f.i >= first_kf:
                out.append(f)
        elif f.kind in ("Range", "PriorPose", "PriorVelocity", "PriorBias",
                        "PriorState"):
            if f.kf >= first_kf:
                out.append(f)
        else:
            out.append(f)
    return out


# Fields of PreintegratedImu copied into an _ImuTable row of the same name.
_PRE_ROW_FIELDS = ("d_rot", "d_pos", "d_vel", "j_rot_bg", "j_pos_bg",
                   "j_pos_ba", "j_vel_bg", "j_vel_ba")


@dataclass
class _ImuTable:
    """IMU factors as arrays, one row per factor."""

    i: np.ndarray            # (m,)
    j: np.ndarray            # (m,)
    d_rot: np.ndarray        # (m, 3, 3)
    d_pos: np.ndarray        # (m, 3)
    d_vel: np.ndarray        # (m, 3)
    j_rot_bg: np.ndarray     # (m, 3, 3), and so are the four below
    j_pos_bg: np.ndarray
    j_pos_ba: np.ndarray
    j_vel_bg: np.ndarray
    j_vel_ba: np.ndarray
    dt: np.ndarray           # (m,)
    sqrt_info: np.ndarray    # (m, 15, 15)
    bias_lin: np.ndarray     # (m, 6): the linearization point, gyro then accel
    gravity: np.ndarray      # (3,), shared by every row

    @classmethod
    def zeros(cls, m: int, gravity: np.ndarray) -> "_ImuTable":
        """m rows for `write` to fill."""
        return cls(np.zeros(m, dtype=np.int64), np.zeros(m, dtype=np.int64),
                   np.zeros((m, 3, 3)), np.zeros((m, 3)), np.zeros((m, 3)),
                   *(np.zeros((m, 3, 3)) for _ in range(5)),
                   np.zeros(m), np.zeros((m, 15, 15)), np.zeros((m, 6)),
                   gravity)

    @classmethod
    def stack(cls, imu_fs: Sequence[ImuFactor]) -> "_ImuTable":
        tab = cls.zeros(len(imu_fs), imu_fs[0].gravity)
        for k, f in enumerate(imu_fs):
            tab.write(k, f)
        return tab

    def write(self, k: int, f: ImuFactor) -> None:
        """Row k from the factor and its current preintegration."""
        pre = f.pre
        self.i[k], self.j[k] = f.i, f.j
        for name in _PRE_ROW_FIELDS:
            getattr(self, name)[k] = getattr(pre, name)
        self.dt[k] = pre.dt_total
        self.sqrt_info[k] = f.sqrt_info
        self.bias_lin[k, 0:3], self.bias_lin[k, 3:6] = pre.bias_gyro, pre.bias_accel

    def rows(self, lo: int, hi: int) -> "_ImuTable":
        """Rows [lo, hi), as views into this table."""
        return _ImuTable(*(getattr(self, f.name)[lo:hi] for f in fields(self)
                           if f.name != "gravity"), self.gravity)


@dataclass
class _RangeTable:
    """Range factors as arrays, one row per factor."""

    kf: np.ndarray
    station: np.ndarray
    distance: np.ndarray
    sigma: np.ndarray

    @classmethod
    def stack(cls, range_fs: Sequence[RangeFactor]) -> "_RangeTable":
        return cls(np.array([f.kf for f in range_fs], dtype=np.int64),
                   np.array([f.station for f in range_fs], dtype=np.int64),
                   np.array([f.distance for f in range_fs], dtype=float),
                   np.array([f.sigma for f in range_fs], dtype=float))

    def rows(self, lo: int, hi: int) -> "_RangeTable":
        """Rows [lo, hi), as views into this table."""
        return _RangeTable(self.kf[lo:hi], self.station[lo:hi],
                           self.distance[lo:hi], self.sigma[lo:hi])


class _Window:
    """The factors of one solve: IMU and range factors as tables, the
    priors as objects."""

    def __init__(self, factors: list):
        imu_fs = [f for f in factors if f.kind == "Imu"]
        range_fs = [f for f in factors if f.kind == "Range"]
        self.imu = _ImuTable.stack(imu_fs) if imu_fs else None
        self.ranges = _RangeTable.stack(range_fs) if range_fs else None
        self.others = [f for f in factors if f.kind not in ("Range", "Imu")]

    @classmethod
    def of_tables(cls, others: list, imu: Optional[_ImuTable],
                  ranges: Optional[_RangeTable]) -> "_Window":
        """A window whose IMU and range factors are stacked already."""
        window = cls(others)
        window.imu, window.ranges = imu, ranges
        return window


def _range_terms(tab: _RangeTable, values: GraphValues):
    """Unit directions keyframe - station and whitened residuals."""
    diff = values.pos[tab.kf] - values.stations[tab.station]
    dist = np.linalg.norm(diff, axis=1)
    if np.any(dist < MIN_RANGE_M):
        raise DegenerateGeometry("keyframe coincides with a station")
    return diff / dist[:, None], (tab.distance - dist) / tab.sigma


def _imu_terms(tab: _ImuTable, values: GraphValues, with_jacobians: bool):
    """Vectorized whitened residuals (and Jacobians) for IMU factors.

    Returns r_w plus, when requested, the whitened (m,15,30) Jacobian over
    the stacked [keyframe i, keyframe j] blocks.
    """
    m = len(tab.i)
    idx_i, idx_j, dt, gravity = tab.i, tab.j, tab.dt, tab.gravity
    rot_i = values.rot[idx_i]
    rot_j = values.rot[idx_j]
    rot_it = rot_i.transpose(0, 2, 1)
    dtc = dt[:, None]

    # First-order bias correction of the increments.
    dbg = values.bias[idx_i][:, 0:3] - tab.bias_lin[:, 0:3]
    dba = values.bias[idx_i][:, 3:6] - tab.bias_lin[:, 3:6]
    corr = np.einsum("mij,mj->mi", tab.j_rot_bg, dbg)
    d_rot_c = tab.d_rot @ geo.exp_so3_batch(corr)
    d_pos_c = tab.d_pos + np.einsum("mij,mj->mi", tab.j_pos_bg, dbg) \
        + np.einsum("mij,mj->mi", tab.j_pos_ba, dba)
    d_vel_c = tab.d_vel + np.einsum("mij,mj->mi", tab.j_vel_bg, dbg) \
        + np.einsum("mij,mj->mi", tab.j_vel_ba, dba)

    err_rot = d_rot_c.transpose(0, 2, 1) @ rot_it @ rot_j
    r_rot = geo.log_so3_batch(err_rot)
    pos_arg = np.einsum(
        "mij,mj->mi", rot_it,
        values.pos[idx_j] - values.pos[idx_i] - values.vel[idx_i] * dtc
        - 0.5 * gravity[None] * dtc * dtc)
    vel_arg = np.einsum(
        "mij,mj->mi", rot_it,
        values.vel[idx_j] - values.vel[idx_i] - gravity[None] * dtc)
    raw = np.concatenate([r_rot, pos_arg - d_pos_c, vel_arg - d_vel_c,
                          values.bias[idx_j] - values.bias[idx_i]], axis=1)
    r_w = np.einsum("mij,mj->mi", tab.sqrt_info, raw)
    if not with_jacobians:
        return r_w, None

    jr_inv = geo.right_jacobian_inv_batch(r_rot)
    eye6 = np.eye(6)[None]
    ji = np.zeros((m, 15, KF_DIM))
    ji[:, 0:3, 0:3] = -jr_inv @ (rot_j.transpose(0, 2, 1) @ rot_i)
    ji[:, 3:6, 0:3] = geo.skew_batch(pos_arg)
    ji[:, 3:6, 3:6] = -rot_it
    ji[:, 3:6, 6:9] = -dt[:, None, None] * rot_it
    ji[:, 6:9, 0:3] = geo.skew_batch(vel_arg)
    ji[:, 6:9, 6:9] = -rot_it
    ji[:, 9:15, 9:15] = -eye6
    ji[:, 0:3, 9:12] = -(jr_inv @ geo.exp_so3_batch(r_rot).transpose(0, 2, 1)
                         @ geo.right_jacobian_batch(corr) @ tab.j_rot_bg)
    ji[:, 3:6, 9:12] += -tab.j_pos_bg
    ji[:, 3:6, 12:15] += -tab.j_pos_ba
    ji[:, 6:9, 9:12] += -tab.j_vel_bg
    ji[:, 6:9, 12:15] += -tab.j_vel_ba
    jj = np.zeros((m, 15, KF_DIM))
    jj[:, 0:3, 0:3] = jr_inv
    jj[:, 3:6, 3:6] = rot_it
    jj[:, 6:9, 6:9] = rot_it
    jj[:, 9:15, 9:15] = eye6
    jac = tab.sqrt_info @ np.concatenate([ji, jj], axis=2)     # (m, 15, 30)
    return r_w, jac


# Upper half-bandwidth of the keyframe block of H: an IMU factor couples
# every coordinate of keyframe k with every coordinate of keyframe k + 1.
BAND_U = 2 * KF_DIM - 1

# Upper triangles of the Gramians an IMU factor (keyframes i, i + 1) and a
# range factor (one keyframe position) add to the keyframe block.
_TRI_IMU = np.triu_indices(2 * KF_DIM)
_TRI_POS = np.triu_indices(3)


@dataclass
class NormalEquations:
    """H = J^T J, g = J^T r and the cost of one solve, in arrow form.

    Keyframe coordinates come first, station coordinates last. The
    block-tridiagonal keyframe block of H is kept in LAPACK upper band
    storage, band[BAND_U + a - b, b] = H[a, b] for b - BAND_U <= a <= b;
    the keyframe-station coupling and the station block are dense.
    """

    band: np.ndarray        # (BAND_U + 1, 15 n_kf)
    coupling: np.ndarray    # (15 n_kf, 3 n_st)
    stations: np.ndarray    # (3 n_st, 3 n_st)
    grad: np.ndarray        # (15 n_kf + 3 n_st,)
    cost: float

    def diagonal(self) -> np.ndarray:
        return np.concatenate([self.band[-1], np.diag(self.stations)])


class _Scatter:
    """Flat (position, value) pairs of a dense array, summed at the end."""

    def __init__(self, *shape: int):
        self.shape = shape
        self.pos: list[np.ndarray] = []
        self.val: list[np.ndarray] = []

    def add(self, pos: np.ndarray, val: np.ndarray) -> None:
        self.pos.append(np.ravel(pos))
        self.val.append(np.ravel(val))

    def total(self) -> np.ndarray:
        size = int(np.prod(self.shape))
        if not self.pos:
            return np.zeros(self.shape)
        return np.bincount(np.concatenate(self.pos), np.concatenate(self.val),
                           size).reshape(self.shape)


def _build_normal_equations(window: _Window, values: GraphValues,
                            first_kf: int, n_kf: int,
                            n_st: int) -> NormalEquations:
    """Assemble H and g from whitened factor blocks straight into arrow form.

    Every block of H lands at its flat position in the band, the coupling
    or the station block; repeated positions are summed. Raises ValueError
    for a factor linking keyframes that are not consecutive, which would
    fall outside the band.
    """
    nk, ns = KF_DIM * n_kf, 3 * n_st
    band = _Scatter(BAND_U + 1, nk)       # H[r, c] at (BAND_U + r - c) * nk + c
    coupling = _Scatter(nk, ns)           # H[r, nk + c] at r * ns + c
    st_block = _Scatter(ns, ns)           # H[nk + r, nk + c] at r * ns + c
    grad = _Scatter(nk + ns)
    cost = 0.0
    col_of = _column_map(first_kf, n_kf)

    for f in window.others:
        r_w, fblocks = f.linearize(values)
        cost += float(r_w @ r_w)
        for key_a, jac_a in fblocks:
            rows = col_of(key_a) + np.arange(jac_a.shape[1])
            grad.add(rows, jac_a.T @ r_w)
            for key_b, jac_b in fblocks:
                r = rows[:, None]
                c = col_of(key_b) + np.arange(jac_b.shape[1])[None, :]
                h = jac_a.T @ jac_b
                if key_a[0] == "kf" and key_b[0] == "kf":
                    if np.any(c - r > BAND_U):
                        raise ValueError(f"factor links keyframes {key_a[1]} "
                                         f"and {key_b[1]}, outside the band")
                    upper = r <= c
                    band.add(((BAND_U + r - c) * nk + c)[upper], h[upper])
                elif key_a[0] == "kf":
                    coupling.add(r * ns + c - nk, h)
                elif key_b[0] == "st":
                    st_block.add((r - nk) * ns + c - nk, h)

    if window.imu is not None:
        imu = window.imu
        bad = np.flatnonzero(imu.j != imu.i + 1)
        if len(bad):
            raise ValueError(
                f"IMU factor links keyframes {imu.i[bad[0]]} and "
                f"{imu.j[bad[0]]}; the banded solver needs j = i + 1")
        r_w, jac = _imu_terms(imu, values, with_jacobians=True)
        cost += float(np.sum(r_w * r_w))
        h_blk = jac.transpose(0, 2, 1) @ jac                    # (m,30,30)
        a, b = _TRI_IMU
        c = KF_DIM * (imu.i - first_kf)[:, None] + b
        band.add((BAND_U + a - b) * nk + c, h_blk[:, a, b])
        grad.add(KF_DIM * (imu.i - first_kf)[:, None] + np.arange(2 * KF_DIM),
                 np.einsum("mri,mr->mi", jac, r_w))

    if window.ranges is not None:
        rt = window.ranges
        u, r_w = _range_terms(rt, values)
        cost += float(r_w @ r_w)
        # Whitened jacobian rows: -u/sig on the keyframe position block,
        # +u/sig on the station block.
        jp = -u / rt.sigma[:, None]
        uu = jp[:, :, None] * jp[:, None, :]                    # (m,3,3)
        p_rows = (KF_DIM * (rt.kf - first_kf) + _OFF_P)[:, None] + np.arange(3)
        s_rows = (3 * rt.station)[:, None] + np.arange(3)
        a, b = _TRI_POS
        band.add((BAND_U + a - b) * nk + p_rows[:, b], uu[:, a, b])
        coupling.add(p_rows[:, :, None] * ns + s_rows[:, None, :], -uu)
        st_block.add(s_rows[:, :, None] * ns + s_rows[:, None, :], uu)
        gp = jp * r_w[:, None]
        grad.add(p_rows, gp)
        grad.add(nk + s_rows, -gp)

    if not np.isfinite(cost):
        raise NonFiniteCost(f"cost evaluated to {cost}")
    return NormalEquations(band.total(), coupling.total(), st_block.total(),
                           grad.total(), cost)


def _band_solve(factor: np.ndarray, rhs: np.ndarray, trans: str) -> np.ndarray:
    """U^-T rhs (trans "T") or U^-1 rhs (trans "N"), U the upper band factor."""
    x, info = scipy.linalg.lapack.dtbtrs(factor, rhs, uplo="U", trans=trans,
                                         overwrite_b=True)
    if info > 0:
        raise np.linalg.LinAlgError(f"band factor has a zero pivot at {info}")
    if info < 0:
        raise ValueError(f"dtbtrs rejected argument {-info}")
    return x


def _solve_damped(neq: NormalEquations, damping: np.ndarray) -> np.ndarray:
    """Solve (H + diag(damping)) delta = -g.

    With A = U^T U the damped keyframe band (banded Cholesky), B the
    coupling and C the damped station block, one triangular solve
    W = U^-T [-g_k | B] = [z | W_B] gives the station Schur complement
    S = C - W_B^T W_B = C - B^T A^-1 B. Cholesky of S yields the station
    step y, and a second triangular solve the keyframe step
    x = U^-1 (z - W_B y). Raises LinAlgError when A or S is not positive
    definite.
    """
    nk, ns = neq.coupling.shape
    band = neq.band.copy()
    band[-1] += damping[:nk]
    factor = scipy.linalg.cholesky_banded(band, overwrite_ab=True,
                                          check_finite=False)
    rhs = np.empty((nk, 1 + ns), order="F")
    rhs[:, 0] = -neq.grad[:nk]
    rhs[:, 1:] = neq.coupling
    w = _band_solve(factor, rhs, "T")
    z, w_b = w[:, 0], w[:, 1:]
    if not ns:
        return _band_solve(factor, z[:, None], "N")[:, 0]
    schur = neq.stations - w_b.T @ w_b
    schur[np.diag_indices_from(schur)] += damping[nk:]
    y = scipy.linalg.cho_solve(
        scipy.linalg.cho_factor(schur, check_finite=False),
        -neq.grad[nk:] - w_b.T @ z, check_finite=False)
    x = _band_solve(factor, (z - w_b @ y)[:, None], "N")[:, 0]
    return np.concatenate([x, y])


def _retract(values: GraphValues, delta: np.ndarray, first_kf: int,
             n_kf: int) -> GraphValues:
    out = values.copy()
    block = delta[:KF_DIM * n_kf].reshape(n_kf, KF_DIM)
    sl = slice(first_kf, first_kf + n_kf)
    out.rot[sl] = out.rot[sl] @ geo.exp_so3_batch(block[:, _OFF_TH:_OFF_TH + 3])
    out.pos[sl] += block[:, _OFF_P:_OFF_P + 3]
    out.vel[sl] += block[:, _OFF_V:_OFF_V + 3]
    out.bias[sl] += block[:, _OFF_B:_OFF_B + 6]
    out.stations = out.stations + delta[KF_DIM * n_kf:].reshape(-1, 3)
    return out


def _window_cost(window: _Window, values: GraphValues) -> float:
    cost = 0.0
    for f in window.others:
        if hasattr(f, "sqrt_info"):
            r = f.sqrt_info @ f.residual(values)
        else:
            r = f.residual(values) / f.sigma
        cost += float(r @ r)
    if window.imu is not None:
        r_w, _ = _imu_terms(window.imu, values, with_jacobians=False)
        cost += float(np.sum(r_w * r_w))
    if window.ranges is not None:
        _, r_w = _range_terms(window.ranges, values)
        cost += float(r_w @ r_w)
    if not np.isfinite(cost):
        raise NonFiniteCost(f"cost evaluated to {cost}")
    return cost


def optimize(graph: FactorGraph, initial_values: GraphValues,
             options: OptimizeOptions | None = None,
             first_kf: int = 0) -> tuple[GraphValues, OptimizeReport]:
    """Damped nonlinear least squares over keyframes [first_kf, N).

    Accepted steps never increase the cost; the damping parameter grows on
    rejected steps and shrinks on accepted ones. The initial cost is that
    of the first assembly.
    """
    opts = options or OptimizeOptions()
    n_kf = initial_values.n_keyframes - first_kf
    n_st = initial_values.stations.shape[0]
    window = graph.window
    if window is None:
        window = _Window(_active_factors(graph, first_kf))

    values = initial_values.copy()
    neq = _build_normal_equations(window, values, first_kf, n_kf, n_st)
    cost = initial_cost = neq.cost
    lam = opts.damping_init
    cost_log: list[tuple[int, float, float]] = []
    costs: list[float] = []
    termination = "max_iterations"
    iterations = 0

    for it in range(1, opts.max_iters + 1):
        iterations = it
        if it > 1:
            neq = _build_normal_equations(window, values, first_kf, n_kf, n_st)
        damp = np.maximum(neq.diagonal(), 1e-8)
        accepted = False
        solver_failed = True
        for _ in range(16):
            try:
                delta = _solve_damped(neq, lam * damp)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            if not np.all(np.isfinite(delta)):
                lam *= 10.0
                continue
            solver_failed = False
            candidate = _retract(values, delta, first_kf, n_kf)
            new_cost = _window_cost(window, candidate)
            if new_cost <= cost:
                values = candidate
                decrease = cost - new_cost
                cost = new_cost
                costs.append(cost)
                cost_log.append((it, cost, lam))
                lam = max(lam / 3.0, 1e-12)
                accepted = True
                if decrease < opts.cost_tol * max(1.0, cost):
                    termination = "cost_tolerance"
                if np.max(np.abs(delta)) < opts.step_tol:
                    termination = "step_tolerance"
                break
            lam *= 10.0
            if np.max(np.abs(delta)) < opts.step_tol:
                # Steps have shrunk to nothing without improving the cost.
                termination = "step_tolerance"
                break
        if solver_failed:
            raise SingularNormalEquations(
                "normal equations singular after damping escalation")
        if not accepted and termination == "max_iterations":
            termination = "no_progress"
        if not accepted or termination != "max_iterations":
            break

    report = OptimizeReport(costs, initial_cost, iterations, termination, cost_log)
    return values, report


def _marginalize_dropped(dropped_factors: list, values: GraphValues,
                         first_kf: int, new_first: int) -> Optional[np.ndarray]:
    """Covariance of the separator keyframe given only the dropped subgraph.

    Assembles the normal equations of the factors leaving the window over
    keyframes [first_kf, new_first] (station blocks held fixed: the anchors
    carry tight priors of their own) and Schur-complements everything but
    the separator keyframe `new_first`. Because only dropped factors enter,
    no in-window measurement is double counted.
    """
    n_mini = new_first - first_kf + 1
    n = KF_DIM * n_mini
    h_mini = np.zeros((n, n))
    for f in dropped_factors:
        _, blocks = f.linearize(values)
        kf_blocks = [(key, b) for key, b in blocks if key[0] == "kf"]
        if not kf_blocks:
            continue
        idx = np.concatenate([
            np.arange(KF_DIM * (key[1] - first_kf),
                      KF_DIM * (key[1] - first_kf) + b.shape[1])
            for key, b in kf_blocks])
        jac = np.hstack([b for _, b in kf_blocks])
        h_mini[np.ix_(idx, idx)] += jac.T @ jac
    d = slice(0, KF_DIM * (n_mini - 1))
    s = slice(KF_DIM * (n_mini - 1), n)
    h_dd = h_mini[d, d] + 1e-9 * np.eye(KF_DIM * (n_mini - 1))
    try:
        h_dd_inv_h_ds = np.linalg.solve(h_dd, h_mini[d, s])
    except np.linalg.LinAlgError:
        return None
    info = h_mini[s, s] - h_mini[s, d] @ h_dd_inv_h_ds
    info = 0.5 * (info + info.T) + 1e-9 * np.eye(KF_DIM)
    try:
        cov = np.linalg.inv(info)
    except np.linalg.LinAlgError:
        return None
    cov = 0.5 * (cov + cov.T)
    if not np.all(np.isfinite(cov)) or np.any(np.diag(cov) <= 0.0):
        return None
    return cov


def _initial_prior_covs(config: PgoConfig):
    pose = np.diag([config.prior_sigma_rot ** 2] * 3 +
                   [config.prior_sigma_pos ** 2] * 3)
    vel = config.prior_sigma_vel ** 2 * np.eye(3)
    bias = config.prior_sigma_bias ** 2 * np.eye(6)
    return pose, vel, bias


def _initial_priors(config: PgoConfig) -> list:
    state = config.initial_state
    pose_cov, vel_cov, bias_cov = _initial_prior_covs(config)
    rot0 = geo.quat_to_rot(state.q)
    b0 = np.concatenate([state.b_g, state.b_a])
    return [PriorPoseFactor(0, rot0, state.p.copy(), pose_cov),
            PriorVelocityFactor(0, state.v.copy(), vel_cov),
            PriorBiasFactor(0, b0, bias_cov)]


def _keyframe_times(imu: ImuArrays, node_rate_hz: float) -> list[int]:
    period = int(round(1e9 / node_rate_hz))
    return list(range(int(imu.t[0]), int(imu.t[-1]) + 1, period))


def _range_factors(times: Sequence[int], toa: Sequence[ToaMeasurement],
                   config: PgoConfig) -> list[RangeFactor]:
    """One factor per measurement, on its nearest keyframe, in measurement
    order."""
    std = np.maximum(np.asarray(config.meas_std, dtype=float), config.sigma_floor)
    station = {bs.id: (k, float(std[k])) for k, bs in enumerate(config.stations)}
    out = []
    for kf_idx, m_idx in associate_nearest(times, [m.t for m in toa],
                                           max_gap=np.iinfo(np.int64).max):
        m = toa[m_idx]
        if m.bs_id not in station:
            raise UnknownBsId(f"bs_id {m.bs_id} has no configured station")
        k, sigma = station[m.bs_id]
        out.append(RangeFactor(kf_idx, k, m.distance, sigma))
    return out


def _slice_interval(imu: ImuArrays, times: Sequence[int], k: int
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(omega, accel, dt) of the samples between keyframes k and k + 1."""
    samples = pre_mod.slice_imu_between(imu, times[k], times[k + 1])
    if len(samples[2]) == 0:
        raise EmptyInput(f"no IMU samples between keyframes {k} and {k + 1}")
    return samples


def _integrate_intervals(samples: Sequence[tuple], bias: np.ndarray,
                         noise: ImuNoiseParams) -> PreintegratedBatch:
    """Preintegrate intervals in one kernel call, padded to the longest.

    bias is one (6,) linearization point for all intervals, or one row per
    interval.
    """
    counts = np.array([len(dts) for _, _, dts in samples], dtype=np.int64)
    m, n = len(samples), int(counts.max(initial=0))
    omega, accel, dts = np.zeros((m, n, 3)), np.zeros((m, n, 3)), np.zeros((m, n))
    for k, (w, a, d) in enumerate(samples):
        omega[k, :len(d)], accel[k, :len(d)], dts[k, :len(d)] = w, a, d
    return pre_mod.integrate_batch(omega, accel, dts, bias[..., 0:3],
                                   bias[..., 3:6], noise, counts)


def build_graph(imu: Sequence[ImuSample], toa: Sequence[ToaMeasurement],
                config: PgoConfig) -> tuple[FactorGraph, GraphValues]:
    """Construct the full factor graph and dead-reckoned initial values."""
    if len(imu) < 2:
        raise EmptyInput("need at least two IMU samples")
    cols = ImuArrays.from_samples(imu)
    times = _keyframe_times(cols, config.node_rate_hz)
    keyframes = [KeyframeId(k, t) for k, t in enumerate(times)]
    n = len(keyframes)

    state = config.initial_state
    values = GraphValues(
        rot=np.repeat(geo.quat_to_rot(state.q)[None], n, axis=0),
        pos=np.repeat(state.p[None], n, axis=0).astype(float),
        vel=np.repeat(state.v[None], n, axis=0).astype(float),
        bias=np.repeat(np.concatenate([state.b_g, state.b_a])[None], n, axis=0),
        stations=np.array([bs.position for bs in config.stations], dtype=float),
    )

    factors: list = list(_initial_priors(config))
    for k, bs in enumerate(config.stations):
        factors.append(PriorStationFactor(k, bs.position.copy(),
                                          config.station_prior_sigma))

    # Every factor is linearized at the initial bias: one kernel call.
    samples = [_slice_interval(cols, times, k) for k in range(n - 1)]
    batch = _integrate_intervals(samples, values.bias[0], config.noise)
    for k in range(n - 1):
        fac = ImuFactor(k, k + 1, batch.at(k), samples[k], config.gravity)
        factors.append(fac)
        rot_j, p_j, v_j = pre_mod.predict(fac.pre, values.rot[k], values.pos[k],
                                          values.vel[k], config.gravity)
        values.rot[k + 1], values.pos[k + 1], values.vel[k + 1] = rot_j, p_j, v_j

    factors += _range_factors(times, toa, config)
    return FactorGraph(keyframes, factors, [bs.id for bs in config.stations]), values


def _drifted(bias: np.ndarray, lin_bias: np.ndarray, threshold: float
             ) -> np.ndarray:
    """Rows whose bias estimate moved more than threshold in any component
    from its linearization point."""
    return np.flatnonzero(np.max(np.abs(bias - lin_bias), axis=1) > threshold)


def _reintegrate(factors: Sequence[ImuFactor], bias: np.ndarray) -> None:
    """Redo the integration of factors at new linearization points (one
    bias row each) in one kernel call. The factors share one noise model."""
    batch = _integrate_intervals([f.samples for f in factors], bias,
                                 factors[0].pre.noise)
    for k, f in enumerate(factors):
        f._set_pre(batch.at(k))


def _reintegrate_drifted(graph: FactorGraph, values: GraphValues,
                         threshold: float) -> int:
    imu_fs = graph.imu_factors()
    if not imu_fs:
        return 0
    lin = np.array([np.concatenate([f.pre.bias_gyro, f.pre.bias_accel])
                    for f in imu_fs])
    bias = values.bias[[f.i for f in imu_fs]]
    rows = _drifted(bias, lin, threshold)
    if rows.size:
        _reintegrate([imu_fs[k] for k in rows], bias[rows])
    return int(rows.size)


def values_to_trajectory(keyframes: Sequence[KeyframeId],
                         values: GraphValues) -> Trajectory:
    t = np.array([kf.t for kf in keyframes], dtype=np.int64)
    quat = np.array([geo.rot_to_quat(values.rot[k]) for k in range(len(keyframes))])
    return Trajectory(t, values.pos[:len(keyframes)].copy(), quat,
                      values.vel[:len(keyframes)].copy())


@dataclass
class PgoRun:
    streamed: Trajectory
    batch: Optional[Trajectory]
    step_times_ms: np.ndarray
    final_report: Optional[OptimizeReport]
    reintegrations: int       # IMU factors re-integrated, window and final batch
    marginal_fallbacks: int   # steps whose marginal prior fell back to the
                              # initial-prior covariance


def run_batch(imu: Sequence[ImuSample], toa: Sequence[ToaMeasurement],
              config: PgoConfig,
              initial: Optional[Trajectory] = None
              ) -> tuple[Trajectory, OptimizeReport]:
    """One full-trajectory MAP solve, optionally seeded from a trajectory."""
    graph, values = build_graph(imu, toa, config)
    if initial is not None and len(initial) > 0:
        _seed_from_trajectory(graph, values, initial)
    values, report, _ = _solve_relinearizing(graph, values, config)
    return values_to_trajectory(graph.keyframes, values), report


def _solve_relinearizing(graph: FactorGraph, values: GraphValues,
                         config: PgoConfig
                         ) -> tuple[GraphValues, OptimizeReport, int]:
    """Solve the whole graph, then re-linearize the IMU factors where the
    bias estimate moved and solve again, at most three times, until the
    linearization points are consistent. Also returns the number of
    factors re-integrated."""
    opts = OptimizeOptions(config.max_iters, config.damping_init,
                           config.cost_tol, config.step_tol)
    values, report = optimize(graph, values, opts)
    reintegrated = 0
    for _ in range(3):
        count = _reintegrate_drifted(graph, values, config.bias_drift_threshold)
        if count == 0:
            break
        reintegrated += count
        values, report = optimize(graph, values, opts)
    return values, report, reintegrated


def _seed_from_trajectory(graph: FactorGraph, values: GraphValues,
                          traj: Trajectory) -> None:
    kf_times = [kf.t for kf in graph.keyframes]
    pairs = associate_nearest([int(t) for t in traj.t], kf_times,
                              max_gap=np.iinfo(np.int64).max)
    for est_idx, kf_idx in pairs:
        values.rot[kf_idx] = geo.quat_to_rot(traj.orientation[est_idx])
        values.pos[kf_idx] = traj.position[est_idx]
        if traj.velocity is not None:
            values.vel[kf_idx] = traj.velocity[est_idx]


def run_sliding_window(imu: Sequence[ImuSample], toa: Sequence[ToaMeasurement],
                       config: PgoConfig) -> PgoRun:
    """Incremental estimation: re-optimize a window after every new keyframe.

    Keyframes older than the window are summarized by priors on the oldest
    in-window keyframe, centered at its estimate with its marginal
    covariance from the last solve. A final full-batch pass (enabled by
    default) refines the whole trajectory for reporting.
    """
    if len(imu) < 2:
        raise EmptyInput("need at least two IMU samples")
    cols = ImuArrays.from_samples(imu)
    times = _keyframe_times(cols, config.node_rate_hz)
    n = len(times)
    keyframes = [KeyframeId(k, t) for k, t in enumerate(times)]

    state = config.initial_state
    values = GraphValues(
        rot=np.repeat(geo.quat_to_rot(state.q)[None], n, axis=0),
        pos=np.repeat(state.p[None], n, axis=0).astype(float),
        vel=np.repeat(state.v[None], n, axis=0).astype(float),
        bias=np.repeat(np.concatenate([state.b_g, state.b_a])[None], n, axis=0),
        stations=np.array([bs.position for bs in config.stations], dtype=float),
    )

    base_priors = _initial_priors(config)
    station_priors = [PriorStationFactor(k, bs.position.copy(),
                                         config.station_prior_sigma)
                      for k, bs in enumerate(config.stations)]
    station_ids = [bs.id for bs in config.stations]
    # The IMU and range factors are stacked once for the whole run: row k of
    # imu_tab is imu_factors[k], linking keyframes k and k + 1, and is
    # rewritten when that factor is re-integrated; range factors are sorted
    # by keyframe. Each window solve reads row slices of the two tables.
    imu_factors: list[ImuFactor] = []
    imu_tab = _ImuTable.zeros(n - 1, config.gravity)
    range_fs = sorted(_range_factors(times, toa, config), key=lambda f: f.kf)
    range_tab = _RangeTable.stack(range_fs)

    stream_opts = OptimizeOptions(config.max_iters_stream, config.damping_init,
                                  config.stream_cost_tol, config.step_tol)
    stream_t: list[int] = [times[0]]
    stream_pos: list[np.ndarray] = [values.pos[0].copy()]
    stream_quat: list[np.ndarray] = [geo.rot_to_quat(values.rot[0])]
    stream_vel: list[np.ndarray] = [values.vel[0].copy()]
    step_times: list[float] = []
    reintegrations = 0
    marginal_fallbacks = 0
    first_kf = 0
    marginal_prior: Optional[PriorStateFactor] = None

    for j in range(1, n):
        samples = _slice_interval(cols, times, j - 1)
        bias = values.bias[j - 1]
        pre = pre_mod.integrate_batch(*samples, bias[0:3], bias[3:6],
                                      config.noise)
        fac = ImuFactor(j - 1, j, pre, samples, config.gravity)
        imu_factors.append(fac)
        imu_tab.write(j - 1, fac)
        rot_j, p_j, v_j = pre_mod.predict(fac.pre, values.rot[j - 1],
                                          values.pos[j - 1], values.vel[j - 1],
                                          config.gravity)
        values.rot[j], values.pos[j], values.vel[j] = rot_j, p_j, v_j
        values.bias[j] = values.bias[j - 1]

        tic = time.perf_counter()
        new_first = max(0, min(j - config.window + 1, j - 1))
        if new_first > first_kf:
            # Replace the keyframes leaving the window by a Gaussian prior
            # on the new oldest keyframe: marginalize the dropped subgraph
            # (old prior plus every factor touching dropped keyframes).
            dropped: list = [] if marginal_prior is None else [marginal_prior]
            if first_kf == 0:
                dropped += base_priors
            dropped += imu_factors[first_kf:new_first]
            lo, hi = np.searchsorted(range_tab.kf, (first_kf, new_first))
            dropped += range_fs[lo:hi]
            cov = _marginalize_dropped(dropped, values, first_kf, new_first)
            if cov is None:
                marginal_fallbacks += 1
                cov = scipy.linalg.block_diag(*_initial_prior_covs(config))
            k = new_first
            marginal_prior = PriorStateFactor(
                k, values.rot[k].copy(), values.pos[k].copy(),
                values.vel[k].copy(), values.bias[k].copy(), cov)
            first_kf = new_first

        priors = list(station_priors)
        if marginal_prior is not None:
            priors.append(marginal_prior)
        if first_kf == 0:
            priors += base_priors
        # IMU factors [first_kf, j) and the ranges on keyframes [first_kf, j].
        lo, hi = np.searchsorted(range_tab.kf, (first_kf, j + 1))
        window = _Window.of_tables(priors, imu_tab.rows(first_kf, j),
                                   range_tab.rows(lo, hi) if hi > lo else None)
        win_graph = FactorGraph(keyframes[:j + 1], priors, station_ids, window)
        # Solve over keyframes [first_kf, j] only: later keyframes carry no
        # factors yet and keep their values.
        solved, _ = optimize(win_graph, values.head(j + 1), stream_opts,
                             first_kf)
        values.rot[:j + 1], values.pos[:j + 1] = solved.rot, solved.pos
        values.vel[:j + 1], values.bias[:j + 1] = solved.vel, solved.bias
        values.stations = solved.stations
        rows = first_kf + _drifted(values.bias[first_kf:j],
                                   imu_tab.bias_lin[first_kf:j],
                                   config.bias_drift_threshold)
        if rows.size:
            _reintegrate([imu_factors[k] for k in rows], values.bias[rows])
            for k in rows:
                imu_tab.write(k, imu_factors[k])
            reintegrations += int(rows.size)
        step_times.append((time.perf_counter() - tic) * 1e3)
        stream_t.append(times[j])
        stream_pos.append(values.pos[j].copy())
        stream_quat.append(geo.rot_to_quat(values.rot[j]))
        stream_vel.append(values.vel[j].copy())

    streamed = Trajectory(np.array(stream_t, dtype=np.int64),
                          np.array(stream_pos), np.array(stream_quat),
                          np.array(stream_vel))

    batch_traj = None
    final_report = None
    if config.final_batch:
        full_graph = FactorGraph(
            keyframes, base_priors + station_priors + imu_factors + range_fs,
            station_ids)
        values, final_report, count = _solve_relinearizing(full_graph, values,
                                                           config)
        reintegrations += count
        batch_traj = values_to_trajectory(keyframes, values)

    return PgoRun(streamed, batch_traj, np.array(step_times), final_report,
                  reintegrations, marginal_fallbacks)
