"""Receding-horizon path-following controller.

Single-shooting formulation over the normalized motor commands
m_k = (port, starboard) in [-1, 1]^2, the model's inputs: N steps of
dt = T/N under thrusts F_max m_k, integrated with the same RK4 model
the simulator uses (no disturbance). Stage cost per predicted state
k = 1..N:

    w_ct e_ct(k)^2 + w_head (1 - cos(psi_k - psi_path(k)))
        + w_speed (u_k - ref_speed)^2

plus effort and rate terms on the surge and torque commands T m_k,
T = 1/2 [[1, 1], [1, -1]]:

    w_u |T m_k|^2 + w_du |T (m_k - m_{k-1})|^2   (m_{-1} = last applied),

which are (w_u/2) |m_k|^2 + (w_du/2) |m_k - m_{k-1}|^2, as T^T T = I/2.
Since 1 - cos d = 2 sin^2(d/2), the objective is a sum of squares r.r
over 7N residuals, and every cost, slope and curvature in the solver
comes from that one residual vector. The solver is box-constrained
Gauss-Newton over the plan M in [-1, 1]^(2N), so the thrust limits are
the box and the Jacobian, built for all N RK4 steps at once from their
stage points, is exact everywhere in it, faces included. Each iteration
minimizes |r + J d|^2 over the box by a small primal active-set method
and backtracks along d with an Armijo test against the model's
predicted decrease.

The Jacobian J of the start plan, and J^T J, are kept while full steps
are accepted: later iterations step on it with the gradient J^T r of
their own plan's fresh residuals (a mixed-level iteration: Frasch,
Wirsching, Sager & Bock, IFAC NMPC 2012). The solver relinearizes at
the same plan when a step on a kept J fails the Armijo test at full
length, before any backtracking, and when a kept J's projected
gradient vanishes, before any stop. So every backtrack runs on a fresh
J, and a solve ends `converged` only when no entry of the projected
gradient at its own plan reaches grad_tol. An accepted trial's rollout,
its RK4 stage points, projection and residuals are reused for the next
linearization. A solve ends `stalled` when an accepted step improves
the cost by at most 1 % of (1 + cost), `line_search` when no step
along a fresh J's direction lowers the cost, `budget` past its
wall-clock budget and `max_iters` after max_iters iterations; a full
step on a kept J that fails, and is retried on a fresh one, is part of
the same iteration. The plan is published as (x, z) = T m
(`vessel.unmix`), which the OBC's `vessel.mix` maps back to m.

A solve starts from the previous plan shifted by the time that passed
since it was solved (`shift_warm_start`): row k is that plan linearly
interpolated at k dt + elapsed, its last row held past the horizon. At
10 Hz that is half a plan step, so the start is close to the plan the
sample before would have applied, and most solves stall after two
iterations on one Jacobian.

Every numpy call on the per-iteration path is a ufunc, a ufunc
reduction or an ndarray C method, never one of numpy's Python-level
wrappers (np.max, .any(), np.clip, np.ix_, np.errstate, ...), whose call
overhead outweighs the arithmetic on these 20- to 140-element arrays.
The exception is np.linalg.solve, which has no public lower-level call.
The horizon's projection (`PolylinePath.project_many`) scans the path's
grid point by point, and reaches the np.clip of the path's foot-point
kernel only for a point off that grid.

`cost_of_inputs` and `cost_gradient`, which the solver does not call,
wrap the solver's own evaluation of a motor command sequence: the cost
r.r and its gradient 2 J^T r.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import geo
from .guidance import PolylinePath
from .vessel import VesselParams, VesselState, rk4_step, wrap_2pi


@dataclass(frozen=True)
class NmpcConfig:
    horizon_T: float = 4.0
    steps_N: int = 20
    w_ct: float = 10.0
    w_head: float = 2.0
    w_speed: float = 1.0
    w_u: float = 0.1
    w_du: float = 0.5
    ref_speed: float = 1.0
    max_iters: int = 40
    grad_tol: float = 1e-3

    def __post_init__(self):
        # comparisons that NaN fails, so NaN is rejected too
        if not 0.0 < self.horizon_T < math.inf:
            raise ValueError("horizon_T must be finite and > 0")
        if not (isinstance(self.steps_N, int) and self.steps_N >= 2):
            raise ValueError("need an integer steps_N >= 2")
        for name in ("w_ct", "w_head", "w_speed", "w_u", "w_du"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"weight {name} must be finite and >= 0")
        if not -math.inf < self.ref_speed < math.inf:
            raise ValueError("ref_speed must be finite")
        if not (isinstance(self.max_iters, int) and self.max_iters >= 1):
            raise ValueError("max_iters must be an integer >= 1")
        if not 0.0 <= self.grad_tol < math.inf:
            raise ValueError("grad_tol must be finite and >= 0")

    @property
    def dt(self) -> float:
        return self.horizon_T / self.steps_N


# why a solve ended; the first two count as converged
STOPS = ("converged", "stalled", "max_iters", "budget", "line_search")


@dataclass(frozen=True)
class ControlSolution:
    motors: np.ndarray     # (N, 2) of (port, starboard) in [-1, 1]
    predicted: np.ndarray  # (N+1, 6) states; predicted[0] = measured
    cost: float
    iters: int
    solve_time: float
    converged: bool        # stop is "converged" or "stalled"
    stop: str = "converged"  # one of STOPS
    trials: int = 0        # trial rollouts of the line searches
    jacobians: int = 0     # linearizations (Jacobians built)


def state_vector(state: VesselState) -> np.ndarray:
    return np.array([state.north, state.east, state.psi,
                     state.u, state.v, state.r])


def predict(y0: np.ndarray, motors: np.ndarray, config: NmpcConfig,
            params: VesselParams, stages: list | None = None) -> np.ndarray:
    """RK4 rollout of the nominal model, thrusts F_max m; identical
    stepping to the simulator's step_dynamics for matching dt. A
    `stages` list gets each step's stage points y2, y3, y4 appended."""
    dt, f_max = config.dt, params.F_max
    y = tuple(np.asarray(y0, dtype=float).tolist())
    flat = list(y)  # the states' floats, row by row
    for port, stbd in np.asarray(motors, dtype=float).tolist():
        y = rk4_step(y, f_max * port, f_max * stbd, 0.0, 0.0, params, dt,
                     stages)
        y = (y[0], y[1], wrap_2pi(y[2]), y[3], y[4], y[5])
        flat += y
    states = np.array(flat).reshape(-1, 6)
    if not np.logical_and.reduce(np.isfinite(states), axis=None):
        raise FloatingPointError("non-finite rollout")
    return states


def shift_warm_start(motors: np.ndarray, elapsed: float,
                     dt: float) -> np.ndarray:
    """The plan `motors`, on a grid of step dt, shifted by the `elapsed`
    seconds since it was solved: row k is the plan linearly interpolated
    at k dt + elapsed, and the last row is held past the horizon. An
    elapsed of dt drops the first row and repeats the last; 0 keeps the
    plan."""
    n = len(motors)
    whole, frac = divmod(min(max(0.0, elapsed / dt), float(n)), 1.0)
    rows = np.minimum(np.arange(n) + int(whole), n - 1)
    shifted = motors[rows]
    if frac:
        shifted += frac * (motors[np.minimum(rows + 1, n - 1)] - shifted)
    return shifted


def _heading_error(states: np.ndarray, psi_path) -> np.ndarray:
    """psi - psi_path of predicted states 1..N, wrapped to (-pi, pi]."""
    return math.pi - (math.pi - (states[1:, 2] - psi_path)) % (2.0 * math.pi)


def _residuals(states: np.ndarray, motors: np.ndarray, e_ct, psi_path,
               config: NmpcConfig, prev_motors) -> np.ndarray:
    """The 7N residuals whose squares sum to the objective, given the
    path projection (e_ct, psi_path) of predicted states 1..N: per
    state sqrt(w_ct) e_ct, sqrt(2 w_head) sin(d/2) with d = psi -
    psi_path wrapped to (-pi, pi], and sqrt(w_speed) (u - ref_speed);
    then sqrt(w_u/2) m_k and sqrt(w_du/2) (m_k - m_{k-1}), motors
    flattened row by row."""
    d = _heading_error(states, psi_path)
    prev = np.asarray(prev_motors, dtype=float)
    diffs = motors - np.concatenate([prev[None, :], motors[:-1]])
    return np.concatenate([
        math.sqrt(config.w_ct) * e_ct,
        math.sqrt(2.0 * config.w_head) * np.sin(0.5 * d),
        math.sqrt(config.w_speed) * (states[1:, 3] - config.ref_speed),
        math.sqrt(0.5 * config.w_u) * motors.ravel(),
        math.sqrt(0.5 * config.w_du) * diffs.ravel()])


def _stage_jacobians(psi, u, v, r, p: VesselParams) -> np.ndarray:
    """df/dy of the nominal model at (M,) arrays of stage points, as
    (M, 6, 6)."""
    s, c = np.sin(psi), np.cos(psi)
    A = np.zeros((len(psi), 6, 6))
    A[:, 0, 2] = -u * s - v * c
    A[:, 0, 3] = c
    A[:, 0, 4] = -s
    A[:, 1, 2] = u * c - v * s
    A[:, 1, 3] = s
    A[:, 1, 4] = c
    A[:, 2, 5] = 1.0
    A[:, 3, 3] = (-p.d1u - 2.0 * p.d2u * np.abs(u)) / p.m11
    A[:, 3, 4] = p.m22 * r / p.m11
    A[:, 3, 5] = p.m22 * v / p.m11
    A[:, 4, 3] = -p.m11 * r / p.m22
    A[:, 4, 4] = -p.d1v / p.m22
    A[:, 4, 5] = -p.m11 * u / p.m22
    munk = p.m22 - p.m11
    A[:, 5, 3] = -munk * v / p.m33
    A[:, 5, 4] = -munk * u / p.m33
    A[:, 5, 5] = -p.d1r / p.m33
    return A


@lru_cache(maxsize=8)
def _input_maps(p: VesselParams) -> tuple[np.ndarray, np.ndarray]:
    """B = [0 | df/dm] and E = [I | 0], both (6, 8), of the nominal
    model: the thrusts enter u' and r' only, u' through their sum and r'
    through their difference. Read-only."""
    B = np.zeros((6, 8))
    B[3, 6:] = p.F_max / p.m11
    B[5, 6] = p.lever * p.F_max / p.m33
    B[5, 7] = -B[5, 6]
    E = np.eye(6, 8)
    B.flags.writeable = E.flags.writeable = False
    return B, E


_EYE6 = np.eye(6)  # read-only; np.eye is a Python-level function
_EYE6.flags.writeable = False


def _rollout_jacobian(states: np.ndarray, stages: list,
                      config: NmpcConfig, p: VesselParams) -> np.ndarray:
    """d(state k+1)/d(motors flattened) for k = 0..N-1, as (N, 6, 2N),
    from the rollout's states and the stage points y2, y3, y4 its RK4
    steps appended to `stages`.

    All N RK4 steps at once: the stage Jacobians [df/dy | df/dm]
    (N, 6, 8) chain through batched matmuls into each step's A_k =
    dy'/dy and B_k = dy'/dm, and then S_{k+1} = A_k S_k with B_k in
    columns 2k, 2k+1, over the full width (the columns of later steps
    are zeros until then).
    """
    n, dt = len(states) - 1, config.dt
    h = 0.5 * dt
    B, E = _input_maps(p)

    # stage points y1 = y, then the y2, y3, y4 the rollout kept (one
    # array, step by step): all 4N stage Jacobians at once, stage by stage
    points = np.concatenate([
        states[None, :-1],
        np.array(stages).reshape(n, 3, 6).transpose(1, 0, 2)])
    A = _stage_jacobians(*points.reshape(4 * n, 6).T[2:], p).reshape(
        4, n, 6, 6)
    # K_i = [dk_i/dy | dk_i/dm] = A_i (E + step K_{i-1}) + B
    K = A[0] @ E + B
    total = K.copy()
    for i, (step, weight) in enumerate(((h, 2.0), (h, 2.0), (dt, 1.0)), 1):
        K = A[i] @ (E + step * K) + B
        total += weight * K
    A_steps = _EYE6 + (dt / 6.0) * total[:, :, :6]
    B_steps = (dt / 6.0) * total[:, :, 6:]

    sens = np.zeros((n, 6, 2 * n))
    sens[0, :, :2] = B_steps[0]
    for i in range(1, n):
        np.matmul(A_steps[i], sens[i - 1], out=sens[i])
        sens[i, :, 2 * i:2 * i + 2] = B_steps[i]
    return sens


@lru_cache(maxsize=8)
def _input_rows(n: int, w_u: float, w_du: float) -> np.ndarray:
    """The Jacobian's effort and rate rows for n steps, its last 4n,
    which no rollout moves: d(_residuals)/d(motors flattened).
    Read-only."""
    eye = np.eye(2 * n)
    rows = np.concatenate([
        math.sqrt(0.5 * w_u) * eye,
        math.sqrt(0.5 * w_du) * (eye - np.eye(2 * n, k=-2))])
    rows.flags.writeable = False
    return rows


def _jacobian(states: np.ndarray, stages: list, port, psi_path,
              config: NmpcConfig, params: VesselParams) -> np.ndarray:
    """d(_residuals)/d(motors flattened), (7N, 2N), at the rollout
    `states` and its RK4 `stages`; e_ct moves along the port normal of
    its segment and psi_path is constant per segment."""
    n = len(states) - 1
    J = np.empty((7 * n, 2 * n))
    J[3 * n:] = _input_rows(n, config.w_u, config.w_du)
    sens = _rollout_jacobian(states, stages, config, params)
    half_cos = 0.5 * np.cos(0.5 * _heading_error(states, psi_path))
    cross = J[:n]
    np.multiply(port[:, 0:1], sens[:, 0], out=cross)
    cross += port[:, 1:2] * sens[:, 1]
    cross *= math.sqrt(config.w_ct)
    np.multiply(math.sqrt(2.0 * config.w_head) * half_cos[:, None],
                sens[:, 2], out=J[n:2 * n])
    np.multiply(math.sqrt(config.w_speed), sens[:, 3], out=J[2 * n:3 * n])
    return J


def _box_qp(H: np.ndarray, g: np.ndarray, lo: np.ndarray,
            hi: np.ndarray) -> np.ndarray:
    """argmin of 1/2 d.H.d + g.d over lo <= d <= hi, where lo <= 0 <= hi
    and H is positive definite.

    Primal active set from d = 0: each pass takes the Newton step of the
    free variables, cut short at the first bound it meets (which is
    then held), or, when the whole step fits, frees the held variable
    whose multiplier has the wrong sign. Every pass lowers the model
    or keeps it, so the result is feasible and no worse than d = 0.
    """
    n = len(g)
    d = np.zeros(n)
    upper = np.zeros(n, dtype=bool)  # which bound a held variable is at
    held = ((lo >= 0.0) & (g > 0.0)) | ((hi <= 0.0) & (g < 0.0))
    upper[held] = hi[held] <= 0.0
    tol = 1e-12 * (1.0 + float(np.maximum.reduce(np.abs(g))))
    room = np.empty(n)  # step length to each variable's bound, inf if none
    for _ in range(4 * n):
        free = ~held
        q = g + H @ d
        step = np.zeros(n)
        if np.logical_or.reduce(free):
            step[free] = np.linalg.solve(H[free][:, free], -q[free])
        room.fill(np.inf)
        np.divide(hi - d, step, out=room, where=step > 0.0)
        np.divide(lo - d, step, out=room, where=step < 0.0)
        j = int(room.argmin())
        if room[j] < 1.0:
            d += max(room[j], 0.0) * step
            upper[j] = step[j] > 0.0
            d[j] = hi[j] if upper[j] else lo[j]
            held[j] = True
            continue
        d += step
        if not np.logical_or.reduce(held):
            break  # no multiplier to check
        q = g + H @ d
        wrong = np.where(held, np.where(upper, q, -q), 0.0)
        j = int(wrong.argmax())
        if wrong[j] <= tol:
            break
        held[j] = False
    return d


def _evaluate(y0, motors, path: PolylinePath, config: NmpcConfig,
              params: VesselParams, prev_motors):
    """Rollout with its RK4 stage points, path projection, residuals r
    and cost r.r of one motor command sequence."""
    stages = []
    states = predict(y0, motors, config, params, stages)
    e_ct, psi_path, port = path.project_many(states[1:, :2])
    r = _residuals(states, motors, e_ct, psi_path, config, prev_motors)
    return states, stages, (e_ct, psi_path, port), r, float(r @ r)


def cost_of_inputs(y0: np.ndarray, inputs: np.ndarray, path: PolylinePath,
                   config: NmpcConfig, params: VesselParams,
                   prev_input) -> float:
    """The solver's cost r.r of an (N, 2) motor command sequence."""
    return _evaluate(y0, inputs, path, config, params, prev_input)[4]


def cost_gradient(y0: np.ndarray, inputs: np.ndarray, path: PolylinePath,
                  config: NmpcConfig, params: VesselParams,
                  prev_input) -> tuple[float, np.ndarray]:
    """Exact (cost, d cost / d inputs) of an (N, 2) motor command
    sequence, as 2 J^T r at the rollout."""
    states, stages, (_, psi_path, port), r, c = _evaluate(
        y0, inputs, path, config, params, prev_input)
    J = _jacobian(states, stages, port, psi_path, config, params)
    return c, (2.0 * J.T @ r).reshape(inputs.shape)


def solve_nmpc(state: VesselState, path: PolylinePath, config: NmpcConfig,
               params: VesselParams,
               warm_start: ControlSolution | None = None,
               prev_motors=(0.0, 0.0),
               budget_s: float | None = None,
               elapsed: float | None = None) -> ControlSolution | None:
    """Box-constrained Gauss-Newton solve over the motor commands;
    returns None on numeric failure. It starts from `warm_start`, solved
    `elapsed` seconds earlier (None: one plan step), shifted by that
    time. Past `budget_s` seconds of wall time no further iteration
    starts (the first always runs); None sets no wall-clock limit."""
    t_start = time.perf_counter()
    y0 = state_vector(state)
    n = config.steps_N
    if warm_start is not None and len(warm_start.motors) == n:
        motors = shift_warm_start(
            warm_start.motors, config.dt if elapsed is None else elapsed,
            config.dt)
    else:
        motors = np.zeros((n, 2))
    try:
        states, stages, (_, psi_path, port), r, c = _evaluate(
            y0, motors, path, config, params, prev_motors)
    except FloatingPointError:
        return None
    iters = trials = jacobians = 0
    stop = "max_iters"
    J = None  # kept across accepted steps; None: linearize at `motors`
    while iters < config.max_iters:
        if J is None:
            J = _jacobian(states, stages, port, psi_path, config, params)
            jacobians += 1
            fresh = True  # J is linearized at `motors`
            H = J.T @ J
            # with zero input weights a motor that moves no weighted state
            # leaves H singular; a tiny ridge keeps it positive definite
            H.flat[::2 * n + 1] += 1e-12 * (1.0 + H.trace())
        half_grad = J.T @ r
        flat = motors.ravel()
        projected = np.minimum(np.maximum(flat - 2.0 * half_grad, -1.0), 1.0)
        if np.maximum.reduce(np.abs(flat - projected)) < config.grad_tol:
            if fresh:
                stop = "converged"  # the projected gradient vanishes
                break
            J = None  # only on a kept J: check again on a fresh one
            continue
        step = _box_qp(H, half_grad, -1.0 - flat, 1.0 - flat).reshape(n, 2)
        Jd = J @ step.ravel()
        slope, curve = 2.0 * float(r @ Jd), float(Jd @ Jd)
        alpha = 1.0
        while alpha > 1e-3:
            trial_motors = np.minimum(np.maximum(motors + alpha * step, -1.0),
                                      1.0)
            trials += 1
            try:
                trial = _evaluate(y0, trial_motors, path, config, params,
                                  prev_motors)
            except FloatingPointError:
                return None
            # Armijo against the model's decrease |r|^2 - |r + a J d|^2
            accepted = trial[4] <= c + 1e-4 * alpha * (slope + alpha * curve)
            if accepted or not fresh:
                break
            # minimizer of the quadratic through c, the slope at 0 and the
            # trial, kept within [0.1, 0.5] of the rejected step
            excess = trial[4] - c - alpha * slope
            alpha = min(max(-0.5 * slope * alpha * alpha / excess,
                            0.1 * alpha), 0.5 * alpha)
        if not (accepted or fresh):
            J = None  # the kept J's full step failed: relinearize here
            continue
        iters += 1
        if not accepted:
            # no step along the Gauss-Newton direction lowers the cost
            stop = "line_search"
            break
        improvement = c - trial[4]
        motors = trial_motors
        states, stages, (_, psi_path, port), r, c = trial
        fresh = False
        if improvement <= 1e-2 * (1.0 + abs(c)):
            stop = "stalled"
            break
        if budget_s is not None and time.perf_counter() - t_start > budget_s:
            stop = "budget"
            break
    return ControlSolution(motors=motors, predicted=states, cost=c,
                           iters=iters,
                           solve_time=time.perf_counter() - t_start,
                           converged=stop in STOPS[:2], stop=stop,
                           trials=trials, jacobians=jacobians)


def state_from_synced(sample, origin_lat: float, origin_lon: float
                      ) -> VesselState:
    """Vessel state estimate from one synchronized telemetry sample.

    Sway is not observable from the backseat data; u/v are recovered
    by rotating the ground velocity into the body frame.
    """
    north, east = geo.latlon_to_local(sample.gps["lat"], sample.gps["lon"],
                                      origin_lat, origin_lon)
    psi = math.radians(sample.imu["yaw"]) % (2.0 * math.pi)
    r = math.radians(sample.imu["r"])
    sog = sample.cogsog["sog"]
    crab = math.radians(sample.cogsog["cog"]) - psi
    return VesselState(north=north, east=east, psi=psi,
                       u=sog * math.cos(crab), v=sog * math.sin(crab), r=r,
                       origin_lat=origin_lat, origin_lon=origin_lon)
