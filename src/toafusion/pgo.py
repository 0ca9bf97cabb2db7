"""Factor-graph MAP estimation over keyframes with IMU, range and prior factors.

Keyframes are created at a fixed cadence; consecutive keyframes are linked
by preintegrated IMU factors, every range measurement attaches to its
temporally nearest keyframe, and base-station positions enter as variables
held by tight priors. The resulting nonlinear least-squares problem

    sum_f  r_f(X)^T Sigma_f^-1 r_f(X)

is minimized with Levenberg-Marquardt. Rotations are updated through the
exponential retraction ``R <- R @ exp(dtheta)``; every other block is
Euclidean.

Every factor is a row of one of four tables: IMU factors, range factors,
15-dof keyframe state priors and station priors. Each table has one
vectorized kernel for its whitened residuals and Jacobians. The solver's
assembly, its cost evaluation and the marginalization all read the tables
through these kernels; no other code linearizes a factor. Range factors
take their stations and sigmas (floored once, when the model was built)
from the ESKF's range model, `toa_sim.RangeModel`, and their ranges and
directions from its kernel, `toa_sim.range_directions`.

IMU factors only link consecutive keyframes, so with keyframes ordered
first and stations last the normal equations have arrow form: a
block-tridiagonal keyframe block, a dense keyframe-station coupling and a
small dense station block. The IMU whitening is block-diagonal,
diag(S9, s6) over the motion residuals (9) and the bias random walk (6),
and only the bias residual b_j - b_i depends on b_j, through the rows -I
and I (Forster et al., IEEE TRO 2017). So each IMU Jacobian is formed as
its whitened 9 x 24 motion block, its bias terms come from s6, and the
keyframe block has upper half-bandwidth KF_DIM + 8 = 23 (see BAND_U).
Assembly sums the keyframe block as 15 x 15 blocks and gathers them into
band storage once; each damped step solves it by banded Cholesky and a
station Schur complement (`_solve_damped`), and no dense matrix over all
variables is ever formed. Every array of an iteration that scales with
the problem is written in place in a `_Workspace`, one per `optimize`
call or sliding-window run; normal equations are valid until the next
assembly into their workspace.

Each kernel has a residual half and a Jacobian half. An LM iteration
evaluates the residuals of its candidate values once (`_evaluate`); when
the candidate is accepted, that evaluation is kept and the next assembly
only adds the Jacobians to it. The cost at the initial values comes from
the first evaluation.

The incremental mode re-optimizes a sliding window after each new
keyframe, summarizing everything older than the window by a state prior
on the oldest in-window keyframe. The tables are kept for the whole run:
each new IMU factor fills its own row, re-integrated factors rewrite
theirs, and each window solve and each marginalization reads row slices.

Both modes share one setup (keyframe times, initial values, the initial
and station priors and the range table) and `_put_imu_rows`, the only
builder of IMU factors. It slices the samples between the keyframes that
each of its rows names from the IMU columns (strictly increasing
timestamps required), preintegrates them and whitens them in batched
calls of at most `_CHUNK` intervals. New factors are built at one bias;
drifted factors are re-integrated together at their own biases.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, fields, replace
from typing import Optional, Sequence

import numpy as np
import scipy.linalg

from . import geometry as geo
from . import preintegration as pre_mod
from .config import PgoOptions
from .dataset import ImuArrays, ToaArrays, Trajectory, associate_nearest
from .errors import (EmptyInput, IndefiniteCovariance, NonFiniteCost,
                     NonMonotonicTimestamp, SingularNormalEquations)
from .eskf import GRAVITY, ImuNoiseParams, NavState
from .preintegration import PreintegratedBatch
from .toa_sim import RangeModel, range_directions

KF_DIM = 15          # theta(3) p(3) v(3) bias(6)
# Sigmas of the prior on the first keyframe: rotation, position, velocity, bias.
PRIOR_SIGMA = np.repeat([0.01, 0.1, 0.1, 0.01], [3, 3, 3, 6])
_OFF_TH, _OFF_P, _OFF_V, _OFF_B = 0, 3, 6, 9
# The IMU motion block: rows theta, p, v; columns keyframe i | theta, p, v of j.
_MOTION, _IMU_COLS = _OFF_B, KF_DIM + _OFF_B


def _sqrt_info(cov: np.ndarray) -> np.ndarray:
    """S with S^T S = cov^-1 for a (d, d) covariance or each of a (..., d, d)
    stack: S = L^-1, L the lower Cholesky factor of the symmetrized cov plus
    a relative jitter, inverted by forward substitution over all matrices
    at once. Raises IndefiniteCovariance unless all are positive definite."""
    d = cov.shape[-1]
    cov = 0.5 * (cov + cov.swapaxes(-1, -2))
    jitter = 1e-14 * np.maximum(np.trace(cov, axis1=-2, axis2=-1) / d, 1e-12)
    try:
        lower = np.linalg.cholesky(cov + jitter[..., None, None] * np.eye(d))
    except np.linalg.LinAlgError as exc:
        raise IndefiniteCovariance(f"covariance not positive definite: {exc}") from exc
    inv = np.zeros_like(lower)
    for r in range(d):
        inv[..., r, r] = 1.0
        inv[..., r, :r] -= (lower[..., r, None, :r] @ inv[..., :r, :r])[..., 0, :]
        inv[..., r, :r + 1] /= lower[..., r, r, None]
    return inv


def _imu_sqrt_info(batch: PreintegratedBatch) -> np.ndarray:
    """(m, 15, 15) square-root information of the IMU factors of a batch.
    The covariance is block-diagonal: `cov` over (rotation, position,
    velocity), then the bias random walk over the interval."""
    walk = np.repeat([batch.noise.sigma_wg ** 2, batch.noise.sigma_wa ** 2], 3)
    cov = np.zeros((len(batch.dt_total), 15, 15))
    cov[:, 0:9, 0:9] = batch.cov
    cov[:, range(9, 15), range(9, 15)] = walk * batch.dt_total[:, None]
    return _sqrt_info(cov)


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


class _Table:
    """Factors of one kind as arrays, one row per factor."""

    def rows(self, sel):
        """The rows sel (a slice gives views into this table)."""
        return type(self)(**{f.name: getattr(self, f.name)[sel]
                             for f in fields(self)})

    def __len__(self) -> int:
        return len(getattr(self, fields(self)[0].name))


# Fields of PreintegratedBatch copied into the _ImuTable column of the same name.
_PRE_ROW_FIELDS = ("d_rot", "d_pos", "d_vel", "j_rot_bg", "j_pos_bg",
                   "j_pos_ba", "j_vel_bg", "j_vel_ba", "dt_total")


@dataclass
class _ImuTable(_Table):
    """IMU factors: row k links keyframes i[k] and j[k]."""

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
    dt_total: np.ndarray     # (m,)
    sqrt_info: np.ndarray    # (m, 15, 15)
    bias_lin: np.ndarray     # (m, 6): the linearization point, gyro then accel

    @classmethod
    def chain(cls, m: int) -> "_ImuTable":
        """m zero rows, row k linking keyframes k and k + 1, for `put` to
        fill."""
        i = np.arange(m)
        return cls(i, i + 1, np.zeros((m, 3, 3)), np.zeros((m, 3)),
                   np.zeros((m, 3)), *(np.zeros((m, 3, 3)) for _ in range(5)),
                   np.zeros(m), np.zeros((m, 15, 15)), np.zeros((m, 6)))

    def put(self, rows, batch: PreintegratedBatch,
            sqrt_info: np.ndarray) -> None:
        """Rows (a slice or an index array) from the intervals of batch and
        their square-root information, in order."""
        for name in _PRE_ROW_FIELDS:
            getattr(self, name)[rows] = getattr(batch, name)
        self.sqrt_info[rows] = sqrt_info
        self.bias_lin[rows, 0:3] = batch.bias_gyro
        self.bias_lin[rows, 3:6] = batch.bias_accel


@dataclass
class _RangeTable(_Table):
    """Range factors: measured distance between keyframe kf and a station."""

    kf: np.ndarray
    station: np.ndarray
    distance: np.ndarray
    sigma: np.ndarray


@dataclass
class _PriorTable(_Table):
    """15-dof keyframe state priors. Row k's residual stacks
    log(rot0^T R), p - p0, v - v0 and b - b0 at keyframe kf[k]."""

    kf: np.ndarray           # (m,)
    rot0: np.ndarray         # (m, 3, 3)
    p0: np.ndarray           # (m, 3)
    v0: np.ndarray           # (m, 3)
    b0: np.ndarray           # (m, 6)
    sqrt_info: np.ndarray    # (m, 15, 15)

    @classmethod
    def one(cls, kf: int, rot0: np.ndarray, p0: np.ndarray, v0: np.ndarray,
            b0: np.ndarray, sqrt_info: np.ndarray) -> "_PriorTable":
        """A single prior, holding copies of its arguments."""
        return cls(np.array([kf], dtype=np.int64), np.array([rot0], dtype=float),
                   np.array([p0], dtype=float), np.array([v0], dtype=float),
                   np.array([b0], dtype=float), np.array([sqrt_info], dtype=float))


@dataclass
class _StationPriorTable(_Table):
    """Priors on station positions: residual (x - center) / sigma."""

    station: np.ndarray      # (m,)
    center: np.ndarray       # (m, 3)
    inv_sigma: np.ndarray    # (m,)


@dataclass
class FactorTables:
    """The factors of a graph or of one solve, one table per kind. IMU rows
    are sorted by keyframe i and range rows by keyframe."""

    imu: _ImuTable
    ranges: _RangeTable
    priors: _PriorTable
    stations: _StationPriorTable

    def from_keyframe(self, first_kf: int) -> "FactorTables":
        """The factors of a solve over keyframes [first_kf, N): every one
        whose keyframes lie in that range, and the station priors."""
        if first_kf == 0:
            return self
        return FactorTables(
            self.imu.rows(slice(np.searchsorted(self.imu.i, first_kf), None)),
            self.ranges.rows(slice(np.searchsorted(self.ranges.kf, first_kf),
                                   None)),
            self.priors.rows(self.priors.kf >= first_kf), self.stations)


@dataclass
class FactorGraph:
    keyframes: list[KeyframeId]
    tables: FactorTables


@dataclass
class PgoConfig:
    """One estimation problem: the initial state, the range model (its
    sigmas already floored, see `toa_sim.RangeModel.build`), the IMU
    noise, and the options of the [pgo] section."""

    initial_state: NavState
    range_model: RangeModel
    noise: ImuNoiseParams = field(default_factory=ImuNoiseParams)
    options: PgoOptions = field(default_factory=PgoOptions)
    bias_drift_threshold: float = 0.05


@dataclass
class OptimizeReport:
    costs: list[float]                 # cost after each accepted iteration
    initial_cost: float
    iterations: int
    termination: str
    cost_log: list[tuple[int, float, float]]   # (iter, cost, damping)


def _station_terms(tab: _StationPriorTable, values: GraphValues) -> np.ndarray:
    """Whitened residuals (m, 3); row k's Jacobian is inv_sigma[k] times the
    identity on its station."""
    return (values.stations[tab.station] - tab.center) * tab.inv_sigma[:, None]


def _prior_residuals(tab: _PriorTable, values: GraphValues):
    """Whitened residuals (m, 15) of state priors and their rotation parts."""
    k = tab.kf
    r_rot = geo.log_so3_batch(tab.rot0.transpose(0, 2, 1) @ values.rot[k])
    raw = np.concatenate([r_rot, values.pos[k] - tab.p0, values.vel[k] - tab.v0,
                          values.bias[k] - tab.b0], axis=1)
    return np.einsum("mij,mj->mi", tab.sqrt_info, raw), r_rot


def _prior_jacobians(tab: _PriorTable, r_rot: np.ndarray) -> np.ndarray:
    """Whitened Jacobians (m, 15, 15) of state priors over the keyframe block."""
    jac = tab.sqrt_info.copy()
    jac[:, :, 0:3] = tab.sqrt_info[:, :, 0:3] @ geo.right_jacobian_inv_batch(r_rot)
    return jac


@dataclass
class _ImuResiduals:
    """The residual half of the IMU kernel at one set of values: the
    whitened residuals and what the Jacobian half reuses."""

    corr: np.ndarray         # (m, 3) first-order rotation correction
    err_rot: np.ndarray      # (m, 3, 3)
    r_rot: np.ndarray        # (m, 3), log(err_rot)
    pos_arg: np.ndarray      # (m, 3) position and velocity differences in
    vel_arg: np.ndarray      # keyframe i's frame, before the increments
    r_w: np.ndarray          # (m, 15)


def _imu_residuals(tab: _ImuTable, values: GraphValues) -> _ImuResiduals:
    """Whitened residuals of IMU factors, with the first-order bias
    correction of their increments."""
    idx_i, idx_j, dt = tab.i, tab.j, tab.dt_total
    rot_it = values.rot[idx_i].transpose(0, 2, 1)
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

    err_rot = d_rot_c.transpose(0, 2, 1) @ rot_it @ values.rot[idx_j]
    r_rot = geo.log_so3_batch(err_rot)
    pos_arg = np.einsum(
        "mij,mj->mi", rot_it,
        values.pos[idx_j] - values.pos[idx_i] - values.vel[idx_i] * dtc
        - 0.5 * GRAVITY[None] * dtc * dtc)
    vel_arg = np.einsum(
        "mij,mj->mi", rot_it,
        values.vel[idx_j] - values.vel[idx_i] - GRAVITY[None] * dtc)
    raw = np.concatenate([r_rot, pos_arg - d_pos_c, vel_arg - d_vel_c,
                          values.bias[idx_j] - values.bias[idx_i]], axis=1)
    return _ImuResiduals(corr, err_rot, r_rot, pos_arg, vel_arg,
                         np.einsum("mij,mj->mi", tab.sqrt_info, raw))


@dataclass
class _Workspace:
    """The arrays of an LM solve that scale with its size, reused by each
    assembly and damped solve: prefixes of flat buffers that only grow."""

    _buffers: dict[str, np.ndarray] = field(default_factory=dict)

    def array(self, name: str, shape: tuple, order: str = "C",
              zero: bool = False) -> np.ndarray:
        """The array `name` in shape and order, zeroed or as last written."""
        size = math.prod(shape)
        buf = self._buffers.get(name, np.empty(0))
        if buf.size < size:
            buf = self._buffers[name] = np.empty(size)
        out = buf[:size].reshape(shape, order=order)
        if zero:
            out.fill(0.0)
        return out


def _imu_jacobians(tab: _ImuTable, values: GraphValues, res: _ImuResiduals,
                   ws: _Workspace) -> tuple[np.ndarray, np.ndarray]:
    """Whitened Jacobians of IMU factors at the values res was evaluated
    at, by the 9 + 6 blocks of sqrt_info: S9 J9 (m, 9, 24), written into
    ws, over [keyframe i | theta, p, v of j], and the bias diagonal s6
    (m, 6), whose -s6 on b_i and s6 on b_j are the bias residual's rows."""
    m, dt = len(tab.i), tab.dt_total
    rot_i, rot_j = values.rot[tab.i], values.rot[tab.j]
    rot_it = rot_i.transpose(0, 2, 1)
    jr_inv = geo.right_jacobian_inv_batch(res.r_rot)
    jac = ws.array("imu_raw", (m, _MOTION, _IMU_COLS), zero=True)
    ji, jj = jac[:, :, :KF_DIM], jac[:, :, KF_DIM:]
    ji[:, 0:3, 0:3] = -jr_inv @ (rot_j.transpose(0, 2, 1) @ rot_i)
    ji[:, 3:6, 0:3] = geo.skew_batch(res.pos_arg)
    ji[:, 3:6, 3:6] = -rot_it
    ji[:, 3:6, 6:9] = -dt[:, None, None] * rot_it
    ji[:, 6:9, 0:3] = geo.skew_batch(res.vel_arg)
    ji[:, 6:9, 6:9] = -rot_it
    # First-order bias corrections make the motion residuals depend on the
    # bias at keyframe i.
    ji[:, 0:3, 9:12] = -(jr_inv @ res.err_rot.transpose(0, 2, 1)
                         @ geo.right_jacobian_batch(res.corr) @ tab.j_rot_bg)
    ji[:, 3:6, 9:12] = -tab.j_pos_bg
    ji[:, 3:6, 12:15] = -tab.j_pos_ba
    ji[:, 6:9, 9:12] = -tab.j_vel_bg
    ji[:, 6:9, 12:15] = -tab.j_vel_ba
    jj[:, 0:3, 0:3] = jr_inv
    jj[:, 3:6, 3:6] = rot_it
    jj[:, 6:9, 6:9] = rot_it
    s9 = tab.sqrt_info[:, :_MOTION, :_MOTION]
    return (np.matmul(s9, jac, out=ws.array("imu_jac", jac.shape)),
            np.diagonal(tab.sqrt_info[:, _MOTION:, _MOTION:], axis1=1, axis2=2))


# Upper half-bandwidth of the keyframe block of H. An IMU factor couples
# keyframes k and k + 1, but its information is block-diagonal (motion 9,
# bias random walk 6) and only the bias residual b_j - b_i depends on b_j:
# so H_k,k+1 is exactly zero in rows 0-8 (theta, p, v of k) by columns
# 9-14 (bias of k + 1), and its farthest nonzero, row 0 by column 8, lies
# KF_DIM + 8 off the diagonal. No other factor couples keyframes.
BAND_U = KF_DIM + 8
_BLOCK = KF_DIM * KF_DIM


def _band_source() -> np.ndarray:
    """Per column c of a keyframe and band row r (Fortran order), the offset
    in its row of H[a, b], a = b + r - BAND_U: in H_kk, H_k-1,k or the 0."""
    c, r = np.ogrid[:KF_DIM, :BAND_U + 1]
    a = c + r - BAND_U          # counted from the keyframe's first row
    return np.where(a >= 0, a * KF_DIM + c,
                    np.where(a >= -KF_DIM, _BLOCK + (a + KF_DIM) * KF_DIM + c,
                             2 * _BLOCK)).ravel()


_BAND_SOURCE = _band_source()


def _band(rows: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Band storage of H from assembly's keyframe rows [H_kk | H_k-1,k | 0],
    gathered into out ((n_kf, (BAND_U + 1) KF_DIM)) if given."""
    return rows.take(_BAND_SOURCE, axis=1, out=out, mode="clip").reshape(-1, BAND_U + 1).T


@dataclass
class NormalEquations:
    """H = J^T J, g = J^T r and the cost of one solve, in arrow form.

    Keyframe coordinates come first, station coordinates last. The
    block-tridiagonal keyframe block of H is kept in LAPACK upper band
    storage, band[BAND_U + a - b, b] = H[a, b] for b - BAND_U <= a <= b,
    in Fortran order (LAPACK's own, so no factorization copies it); the
    keyframe-station coupling and the station block are dense. As the IMU
    whitening is block-diagonal, motion 9 and bias random walk 6, the band
    holds every nonzero of the block (see BAND_U). band, coupling and grad
    are arrays of `workspace`, valid until the next assembly into it;
    `_solve_damped` never writes them.
    """

    band: np.ndarray        # (BAND_U + 1, 15 n_kf)
    coupling: np.ndarray    # (15 n_kf, 3 n_st)
    stations: np.ndarray    # (3 n_st, 3 n_st)
    grad: np.ndarray        # (15 n_kf + 3 n_st,)
    cost: float
    workspace: _Workspace

    def diagonal(self) -> np.ndarray:
        return np.concatenate([self.band[-1], np.diag(self.stations)])


@dataclass
class _Evaluation:
    """The residual halves of every kernel over the factors of one solve at
    one set of values, and their cost."""

    imu: _ImuResiduals
    priors: tuple[np.ndarray, np.ndarray]      # r_w, r_rot
    ranges: tuple[np.ndarray, np.ndarray]      # directions u, r_w
    stations: np.ndarray                       # r_w
    cost: float


def _evaluate(tables: FactorTables, values: GraphValues) -> _Evaluation:
    """Residuals and cost of every factor of tables at values. Raises
    NonFiniteCost unless the cost is finite, and DegenerateGeometry when a
    keyframe sits on a station."""
    imu = _imu_residuals(tables.imu, values)
    priors = _prior_residuals(tables.priors, values)
    rt = tables.ranges
    dist, u = range_directions(values.pos[rt.kf], values.stations[rt.station])
    ranges = u, (rt.distance - dist) / rt.sigma
    stations = _station_terms(tables.stations, values)
    return _Evaluation(imu, priors, ranges, stations,
                       _sum_squares(imu.r_w, priors[0], ranges[1], stations))


def _build_normal_equations(tables: FactorTables, values: GraphValues,
                            first_kf: int, n_kf: int, n_st: int,
                            evaluation: Optional[_Evaluation] = None,
                            workspace: Optional[_Workspace] = None
                            ) -> NormalEquations:
    """Assemble H and g of the factors on keyframes [first_kf, first_kf +
    n_kf) in arrow form, with all n_st stations as variables or, for n_st =
    0, held fixed, into workspace (default: a fresh one). The Jacobians
    are added to `evaluation`, the residuals of tables at values, which is
    evaluated here when not given. Range and prior terms are summed per
    keyframe, station and keyframe-station pair. Raises ValueError unless
    the IMU factors chain keyframes i, i + 1, ... in order, as the band
    does.
    """
    ws = workspace or _Workspace()
    nk, ns = KF_DIM * n_kf, 3 * n_st
    rows = ws.array("rows", (n_kf, 2 * _BLOCK + 1), zero=True)    # see _band
    diag, above = rows[:, :-1].reshape(n_kf, 2, KF_DIM, KF_DIM).transpose(1, 0, 2, 3)
    grad = ws.array("grad", (nk + ns,), zero=True)
    grad_k, grad_s = grad[:nk].reshape(n_kf, KF_DIM), grad[nk:].reshape(n_st, 3)
    coupling = ws.array("coupling", (nk, ns), zero=True)
    st_blocks = np.zeros((n_st, 3, 3))
    p = slice(_OFF_P, _OFF_P + 3)

    ev = evaluation if evaluation is not None else _evaluate(tables, values)
    # Empty tables are skipped: marginalizations often have no ranges.
    imu = tables.imu
    if len(imu):
        m = len(imu)
        bad = np.flatnonzero((imu.i != imu.i[0] + np.arange(m))
                             | (imu.j != imu.i + 1))
        if len(bad):
            raise ValueError(f"IMU factor {bad[0]} links keyframes {imu.i[bad[0]]} and "
                             f"{imu.j[bad[0]]}; the banded solver needs a chain i, i + 1, ...")
        jac, s6 = _imu_jacobians(imu, values, ev.imu, ws)
        # Stacked products are fastest with a contiguous left operand.
        jac_t = ws.array("imu_jac_t", (m, _IMU_COLS, _MOTION))
        np.copyto(jac_t, jac.transpose(0, 2, 1))
        gram = np.matmul(jac_t, jac, out=ws.array("imu_gram", (m, _IMU_COLS, _IMU_COLS)))
        g = np.matmul(jac_t, ev.imu.r_w[:, :_MOTION, None],
                      out=ws.array("imu_g", (m, _IMU_COLS, 1)))[:, :, 0]
        lo = imu.i[0] - first_kf
        ki, kj = slice(lo, lo + m), slice(lo + 1, lo + 1 + m)
        diag[ki] = gram[:, :KF_DIM, :KF_DIM]
        above[kj, :, :_MOTION] = gram[:, :KF_DIM, KF_DIM:]
        diag[kj, :_MOTION, :_MOTION] += gram[:, KF_DIM:, KF_DIM:]
        grad_k[ki] = g[:, :KF_DIM]
        grad_k[kj, :_MOTION] += g[:, KF_DIM:]
        # The bias rows -s6 on b_i and s6 on b_j.
        b = np.arange(_OFF_B, KF_DIM)
        info, r_b = s6 * s6, s6 * ev.imu.r_w[:, _OFF_B:]
        diag[ki, b, b] += info
        diag[kj, b, b] += info
        above[kj, b, b] = -info
        grad_k[ki, _OFF_B:] -= r_b
        grad_k[kj, _OFF_B:] += r_b

    pt = tables.priors
    if len(pt):
        r_w, r_rot = ev.priors
        jac = _prior_jacobians(pt, r_rot)
        jac_t = jac.transpose(0, 2, 1)
        np.add.at(diag, pt.kf - first_kf, jac_t @ jac)
        np.add.at(grad_k, pt.kf - first_kf, (jac_t @ r_w[:, :, None])[:, :, 0])

    rt = tables.ranges
    if len(rt):
        u, r_w = ev.ranges
        # Whitened Jacobian rows: jp on keyframe positions, -jp on stations.
        # Sums of [jp jp^T | jp r] per keyframe-station pair; theirs give the diagonals.
        jp = -u / rt.sigma[:, None]
        n_all = len(values.stations)
        pair = (rt.kf - first_kf) * n_all + rt.station
        outer = jp[:, :, None] * np.concatenate([jp, r_w[:, None]], axis=1)[:, None]
        terms = np.bincount((12 * pair[:, None] + np.arange(12)).ravel(),
                            outer.ravel(), 12 * n_kf * n_all).reshape(n_kf, n_all, 3, 4)
        per_kf, per_st = terms.sum(axis=1), terms.sum(axis=0)
        diag[:, p, p] += per_kf[..., :3]
        grad_k[:, p] += per_kf[..., 3]
        if n_st:
            coupling.reshape(n_kf, KF_DIM, n_st, 3)[:, p] = -terms[..., :3].transpose(0, 2, 1, 3)
            st_blocks += per_st[..., :3]
            grad_s -= per_st[..., 3]

    sp = tables.stations
    if len(sp) and n_st:
        np.add.at(st_blocks, sp.station, sp.inv_sigma[:, None, None] ** 2 * np.eye(3))
        np.add.at(grad_s, sp.station, sp.inv_sigma[:, None] * ev.stations)

    stations = np.zeros((n_st, 3, n_st, 3))
    stations[np.arange(n_st), :, np.arange(n_st)] = st_blocks
    band = _band(rows, ws.array("band", (n_kf, (BAND_U + 1) * KF_DIM)))
    return NormalEquations(band, coupling, stations.reshape(ns, ns), grad,
                           ev.cost, ws)


def _sum_squares(*residuals: np.ndarray) -> float:
    cost = sum(float(np.sum(r * r)) for r in residuals)
    if not np.isfinite(cost):
        raise NonFiniteCost(f"cost evaluated to {cost}")
    return cost


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
    x = U^-1 (z - W_B y), in place in neq's workspace but never in neq.
    Raises LinAlgError when A or S is not positive definite.
    """
    nk, ns = neq.coupling.shape
    band = neq.workspace.array("damped", neq.band.shape, order="F")
    np.copyto(band, neq.band)
    band[-1] += damping[:nk]
    factor = scipy.linalg.cholesky_banded(band, overwrite_ab=True,
                                          check_finite=False)
    rhs = neq.workspace.array("rhs", (nk, 1 + ns), order="F")
    np.negative(neq.grad[:nk], out=rhs[:, 0])
    rhs[:, 1:] = neq.coupling
    w = _band_solve(factor, rhs, "T")
    z, w_b = w[:, 0], w[:, 1:]
    if not ns:
        return _band_solve(factor, z[:, None], "N")[:, 0].copy()
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


def optimize(graph: FactorGraph, initial_values: GraphValues,
             options: Optional[PgoOptions] = None, first_kf: int = 0,
             workspace: Optional[_Workspace] = None
             ) -> tuple[GraphValues, OptimizeReport]:
    """Damped nonlinear least squares over keyframes [first_kf, N), with
    options' solver settings (default: [pgo]'s), in workspace (or a new one).

    Accepted steps never increase the cost; the damping parameter grows on
    rejected steps and shrinks on accepted ones. Each candidate's residuals
    are evaluated once: an accepted candidate's evaluation is the one the
    next assembly adds its Jacobians to. The initial cost is that of the
    first evaluation.
    """
    opts = options if options is not None else PgoOptions()
    ws = workspace or _Workspace()
    n_kf = initial_values.n_keyframes - first_kf
    n_st = initial_values.stations.shape[0]
    tables = graph.tables.from_keyframe(first_kf)

    values = initial_values.copy()
    evaluation = _evaluate(tables, values)
    cost = initial_cost = evaluation.cost
    lam = opts.damping_init
    cost_log: list[tuple[int, float, float]] = []
    costs: list[float] = []
    termination = "max_iterations"
    iterations = 0

    for it in range(1, opts.max_iters + 1):
        iterations = it
        neq = _build_normal_equations(tables, values, first_kf, n_kf, n_st,
                                      evaluation, workspace=ws)
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
            candidate_eval = _evaluate(tables, candidate)
            new_cost = candidate_eval.cost
            if new_cost <= cost:
                values, evaluation = candidate, candidate_eval
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


def _marginalize_dropped(dropped: FactorTables, values: GraphValues,
                         first_kf: int, new_first: int) -> Optional[np.ndarray]:
    """Square-root information of the separator keyframe given only the
    dropped subgraph.

    `dropped` holds the factors leaving the window, on keyframes
    [first_kf, new_first]. Their keyframe band is assembled like a solve's,
    with the stations held fixed (the anchors carry tight priors of their
    own), with 1e-9 added to its diagonal, and factored by banded Cholesky
    A = U^T U. With the separator keyframe `new_first` ordered last, the
    trailing block U_ss of U has U_ss^T U_ss = A_ss - A_sd A_dd^-1 A_ds,
    the Schur complement that marginalizes the dropped keyframes; U_ss is
    returned. Because only dropped factors enter, no in-window measurement
    is double counted. Returns None when A is not positive definite.
    """
    n_mini = new_first - first_kf + 1
    band = _build_normal_equations(dropped, values, first_kf, n_mini, 0).band
    band[-1] += 1e-9
    try:
        factor = scipy.linalg.cholesky_banded(band, overwrite_ab=True,
                                              check_finite=False)
    except np.linalg.LinAlgError:
        return None
    # The separator's block of U by the inverse of _band's gather.
    row = np.zeros(2 * _BLOCK + 1)
    row[_BAND_SOURCE] = factor[:, -KF_DIM:].T.ravel()
    u_ss = row[:_BLOCK].reshape(KF_DIM, KF_DIM)
    return u_ss if np.all(np.isfinite(u_ss)) else None


def _range_table(keyframes: Sequence[KeyframeId], toa: ToaArrays,
                 config: PgoConfig) -> _RangeTable:
    """One row per measurement, on its nearest keyframe, stable-sorted by
    keyframe, with its station's sigma from the range model."""
    rows = config.range_model.rows(toa.bs_id)
    pairs = associate_nearest([kf.t for kf in keyframes], toa.t,
                              max_gap=np.iinfo(np.int64).max)
    pairs = pairs[np.argsort(pairs[:, 0], kind="stable")]
    station = rows[pairs[:, 1]]
    return _RangeTable(pairs[:, 0], station, toa.distance[pairs[:, 1]],
                       config.range_model.sigma[station])


def _setup(imu: ImuArrays, toa: ToaArrays, config: PgoConfig
           ) -> tuple[list[KeyframeId], GraphValues, FactorTables]:
    """The keyframes, every keyframe's values at the initial state, and
    factor tables holding the initial state prior, the station priors, the
    range factors and n - 1 IMU rows still to fill."""
    if len(imu) < 2:
        raise EmptyInput("need at least two IMU samples")
    bad = np.flatnonzero(np.diff(imu.t) <= 0)
    if bad.size:
        raise NonMonotonicTimestamp(int(bad[0]) + 1, where="IMU sample")
    period = int(round(1e9 / config.options.node_rate_hz))
    keyframes = [KeyframeId(k, t) for k, t in
                 enumerate(range(int(imu.t[0]), int(imu.t[-1]) + 1, period))]
    n = len(keyframes)
    state = config.initial_state
    rot0 = geo.quat_to_rot(state.q)
    b0 = np.concatenate([state.b_g, state.b_a])
    values = GraphValues(
        rot=np.repeat(rot0[None], n, axis=0),
        pos=np.repeat(state.p[None], n, axis=0).astype(float),
        vel=np.repeat(state.v[None], n, axis=0).astype(float),
        bias=np.repeat(b0[None], n, axis=0),
        stations=config.range_model.positions.copy(),
    )
    n_st = len(values.stations)
    tables = FactorTables(
        _ImuTable.chain(n - 1),
        _range_table(keyframes, toa, config),
        _PriorTable.one(0, rot0, state.p, state.v, b0,
                        _sqrt_info(np.diag(np.square(PRIOR_SIGMA)))),
        _StationPriorTable(np.arange(n_st), values.stations.copy(),
                           np.full(n_st, 1.0 / config.options.station_prior_sigma)))
    return keyframes, values, tables


_CHUNK = 512    # intervals per preintegration call (it holds ~0.9 KB a sample)


def _put_imu_rows(imu: ImuArrays, times: np.ndarray, tab: _ImuTable, rows,
                  bias: np.ndarray, noise: ImuNoiseParams) -> None:
    """Build the IMU factors of rows (a slice or an index array) of tab from
    the samples between the stamps times[i] and times[j] of each row's
    keyframes: slice, preintegrate at bias ((6,) shared, or one row per
    factor) and whiten them, _CHUNK per call, and write the rows."""
    rows = np.arange(len(tab))[rows]
    bias = np.broadcast_to(bias, (len(rows), 6))
    for lo in range(0, len(rows), _CHUNK):
        part, part_bias = rows[lo:lo + _CHUNK], bias[lo:lo + _CHUNK]
        i, j = tab.i[part], tab.j[part]
        omega, accel, dt, counts = pre_mod.slice_imu_between(imu, times[i], times[j])
        empty = np.flatnonzero(counts == 0)
        if empty.size:
            k = empty[0]
            raise EmptyInput(f"no IMU samples between keyframes {i[k]} and {j[k]}")
        batch = pre_mod.integrate_batch(omega, accel, dt, part_bias[:, 0:3],
                                        part_bias[:, 3:6], noise, counts)
        tab.put(part, batch, _imu_sqrt_info(batch))


def _stamps(keyframes: Sequence[KeyframeId]) -> np.ndarray:
    """The keyframes' timestamps (ns), (n,)."""
    return np.array([kf.t for kf in keyframes], dtype=np.int64)


def build_graph(imu: ImuArrays, toa: ToaArrays,
                config: PgoConfig) -> tuple[FactorGraph, GraphValues]:
    """Construct the full factor graph and dead-reckoned initial values.
    The intervals are preintegrated at the initial bias and whitened in
    batched calls, then dead-reckoned from the table rows in one call."""
    keyframes, values, tables = _setup(imu, toa, config)
    _put_imu_rows(imu, _stamps(keyframes), tables.imu,
                  slice(0, len(tables.imu)), values.bias[0], config.noise)
    values.rot[:], values.pos[:], values.vel[:] = pre_mod.predict(
        tables.imu, values.rot[0], values.pos[0], values.vel[0], GRAVITY)
    return FactorGraph(keyframes, tables), values


def _reintegrate_drifted(imu: ImuArrays, times: np.ndarray, tab: _ImuTable,
                         bias: np.ndarray, noise: ImuNoiseParams,
                         threshold: float, lo: int = 0,
                         hi: Optional[int] = None) -> int:
    """Re-integrate the IMU factors of rows [lo, hi) whose bias estimate at
    keyframe i moved more than threshold, in any component, from the row's
    linearization point, each at that estimate, and rewrite their rows.
    Returns the number of factors re-integrated."""
    hi = len(tab) if hi is None else hi
    moved = np.abs(bias[tab.i[lo:hi]] - tab.bias_lin[lo:hi])
    rows = lo + np.flatnonzero(np.max(moved, axis=1) > threshold)
    if rows.size:
        _put_imu_rows(imu, times, tab, rows, bias[tab.i[rows]], noise)
    return int(rows.size)


def values_to_trajectory(keyframes: Sequence[KeyframeId],
                         values: GraphValues) -> Trajectory:
    n = len(keyframes)
    return Trajectory(_stamps(keyframes), values.pos[:n].copy(),
                      geo.rot_to_quat_batch(values.rot[:n]), values.vel[:n].copy())


@dataclass
class PgoRun:
    streamed: Optional[Trajectory]    # None from run_batch
    batch: Optional[Trajectory]
    step_times_ms: np.ndarray         # run_batch: one, for the whole call
    final_report: Optional[OptimizeReport]
    reintegrations: int       # IMU factors re-integrated, window and final batch
    marginal_fallbacks: int   # steps whose marginal prior fell back to the
                              # initial prior's information


def run_batch(imu: ImuArrays, toa: ToaArrays,
              config: PgoConfig,
              initial: Optional[Trajectory] = None) -> PgoRun:
    """One full-trajectory MAP solve, optionally seeded from a trajectory."""
    tic = time.perf_counter()
    graph, values = build_graph(imu, toa, config)
    if initial is not None and len(initial) > 0:
        _seed_from_trajectory(graph, values, initial)
    values, report, count = _solve_relinearizing(imu, graph, values, config)
    traj = values_to_trajectory(graph.keyframes, values)
    step_ms = (time.perf_counter() - tic) * 1e3
    return PgoRun(None, traj, np.array([step_ms]), report, count, 0)


def _solve_relinearizing(imu: ImuArrays, graph: FactorGraph,
                         values: GraphValues, config: PgoConfig
                         ) -> tuple[GraphValues, OptimizeReport, int]:
    """Solve the whole graph, then re-linearize the IMU factors where the
    bias estimate moved and solve again, at most three times, until the
    linearization points are consistent. Also returns the number of
    factors re-integrated."""
    values, report = optimize(graph, values, config.options)
    times = _stamps(graph.keyframes)
    reintegrated = 0
    for _ in range(3):
        count = _reintegrate_drifted(imu, times, graph.tables.imu, values.bias,
                                     config.noise, config.bias_drift_threshold)
        if count == 0:
            break
        reintegrated += count
        values, report = optimize(graph, values, config.options)
    return values, report, reintegrated


def _seed_from_trajectory(graph: FactorGraph, values: GraphValues,
                          traj: Trajectory) -> None:
    kf_times = [kf.t for kf in graph.keyframes]
    est, kf = associate_nearest(traj.t, kf_times, max_gap=np.iinfo(np.int64).max).T
    # Keyframe indices are unique, so no assignment overwrites another.
    values.rot[kf] = geo.quat_to_rot_batch(traj.orientation[est])
    values.pos[kf] = traj.position[est]
    if traj.velocity is not None:
        values.vel[kf] = traj.velocity[est]


def run_sliding_window(imu: ImuArrays, toa: ToaArrays,
                       config: PgoConfig) -> PgoRun:
    """Incremental estimation: re-optimize a window after every new keyframe.

    Keyframes older than the window are summarized by a state prior on the
    oldest in-window keyframe, centered at its estimate with the
    information the dropped subgraph gives it. A final full-batch pass
    (enabled by default) refines the whole trajectory for reporting.
    """
    keyframes, values, tables = _setup(imu, toa, config)
    n = len(keyframes)
    times = _stamps(keyframes)
    # Row k of tables.imu links keyframes k and k + 1; it is written at
    # step k + 1 and rewritten when the factor is re-integrated. Each
    # window solve reads row slices of the tables.
    no_station_priors = tables.stations.rows(slice(0, 0))

    opts = config.options
    # Window solves stop at the stream limits.
    stream_opts = replace(opts, max_iters=opts.max_iters_stream,
                          cost_tol=opts.stream_cost_tol)
    # Row j: keyframe j's estimate right after its own window solve.
    stream = values.copy()
    step_times: list[float] = []
    reintegrations = 0
    marginal_fallbacks = 0
    first_kf = 0
    prior = tables.priors       # the state prior on keyframe first_kf
    workspace = _Workspace()    # for every window solve; grows with the window

    for j in range(1, n):
        _put_imu_rows(imu, times, tables.imu, slice(j - 1, j),
                      values.bias[j - 1], config.noise)
        rot, pos, vel = pre_mod.predict(tables.imu.rows(slice(j - 1, j)),
                                        values.rot[j - 1], values.pos[j - 1],
                                        values.vel[j - 1], GRAVITY)
        values.rot[j], values.pos[j], values.vel[j] = rot[1], pos[1], vel[1]
        values.bias[j] = values.bias[j - 1]

        tic = time.perf_counter()
        new_first = max(0, min(j - opts.window + 1, j - 1))
        if new_first > first_kf:
            # Replace the keyframes leaving the window by a state prior on
            # the new oldest keyframe: marginalize the dropped subgraph (the
            # current prior plus every factor touching dropped keyframes).
            lo, hi = np.searchsorted(tables.ranges.kf, (first_kf, new_first))
            dropped = FactorTables(tables.imu.rows(slice(first_kf, new_first)),
                                   tables.ranges.rows(slice(lo, hi)), prior,
                                   no_station_priors)
            sqrt_info = _marginalize_dropped(dropped, values, first_kf,
                                             new_first)
            if sqrt_info is None:
                marginal_fallbacks += 1
                sqrt_info = tables.priors.sqrt_info[0]
            k = new_first
            prior = _PriorTable.one(k, values.rot[k], values.pos[k],
                                    values.vel[k], values.bias[k], sqrt_info)
            first_kf = new_first

        # IMU factors [first_kf, j) and the ranges on keyframes [first_kf, j].
        lo, hi = np.searchsorted(tables.ranges.kf, (first_kf, j + 1))
        window = FactorTables(tables.imu.rows(slice(first_kf, j)),
                              tables.ranges.rows(slice(lo, hi)), prior,
                              tables.stations)
        win_graph = FactorGraph(keyframes[:j + 1], window)
        # Solve over keyframes [first_kf, j] only: later keyframes carry no
        # factors yet and keep their values.
        solved, _ = optimize(win_graph, values.head(j + 1), stream_opts,
                             first_kf, workspace=workspace)
        values.rot[:j + 1], values.pos[:j + 1] = solved.rot, solved.pos
        values.vel[:j + 1], values.bias[:j + 1] = solved.vel, solved.bias
        values.stations = solved.stations
        reintegrations += _reintegrate_drifted(
            imu, times, tables.imu, values.bias, config.noise,
            config.bias_drift_threshold, first_kf, j)
        step_times.append((time.perf_counter() - tic) * 1e3)
        stream.rot[j], stream.pos[j], stream.vel[j] = (values.rot[j], values.pos[j],
                                                       values.vel[j])

    streamed = values_to_trajectory(keyframes, stream)

    batch_traj = None
    final_report = None
    if opts.final_batch:
        values, final_report, count = _solve_relinearizing(
            imu, FactorGraph(keyframes, tables), values, config)
        reintegrations += count
        batch_traj = values_to_trajectory(keyframes, values)

    return PgoRun(streamed, batch_traj, np.array(step_times), final_report,
                  reintegrations, marginal_fallbacks)
