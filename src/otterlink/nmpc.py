"""Receding-horizon path-following controller.

Single-shooting formulation over the normalized motor inputs
(x = surge, z = torque), N steps of dt = T/N, integrated with the same
RK4 model the simulator uses (no disturbance). Stage cost per predicted
state k = 1..N:

    w_ct e_ct(k)^2 + w_head (1 - cos(psi_k - psi_path(k)))
        + w_speed (u_k - ref_speed)^2

plus input effort and input-rate terms

    w_u |w_k|^2 + w_du |w_k - w_{k-1}|^2     (w_{-1} = last applied input).

The solver is projected gradient descent with Armijo backtracking and
exact box projection onto [-1, 1]^(2N); gradients are exact, obtained
by a discrete adjoint pass through the RK4 rollout.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .guidance import PolylinePath
from .vessel import (VesselParams, VesselState, dynamics_deriv, rk4_step,
                     saturate, wrap_2pi)


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
    time_budget_s: float | None = 0.09  # None disables the wall-clock cap

    def __post_init__(self):
        if self.horizon_T <= 0 or self.steps_N < 2:
            raise ValueError("need horizon_T > 0 and steps_N >= 2")
        for name in ("w_ct", "w_head", "w_speed", "w_u", "w_du"):
            if getattr(self, name) < 0:
                raise ValueError(f"weight {name} must be >= 0")

    @property
    def dt(self) -> float:
        return self.horizon_T / self.steps_N


@dataclass(frozen=True)
class ControlSolution:
    inputs: np.ndarray     # (N, 2) of (x, z), inside the box
    predicted: np.ndarray  # (N+1, 6) states; predicted[0] = measured
    cost: float
    iters: int
    solve_time: float
    converged: bool


def state_vector(state: VesselState) -> np.ndarray:
    return np.array([state.north, state.east, state.psi,
                     state.u, state.v, state.r])


def _alloc(x: float, z: float, p: VesselParams) -> tuple[float, float]:
    return p.F_max * saturate(x + z), p.F_max * saturate(x - z)


def predict(y0: np.ndarray, inputs: np.ndarray, config: NmpcConfig,
            params: VesselParams) -> np.ndarray:
    """RK4 rollout of the nominal model; identical stepping to the
    simulator's step_dynamics for matching dt."""
    dt = config.dt
    states = np.empty((len(inputs) + 1, 6))
    states[0] = y0
    y = tuple(float(v) for v in y0)
    for k, (x, z) in enumerate(inputs):
        fp, fs = _alloc(float(x), float(z), params)
        y = rk4_step(y, fp, fs, 0.0, 0.0, params, dt)
        y = (y[0], y[1], wrap_2pi(y[2]), y[3], y[4], y[5])
        states[k + 1] = y
    if not np.all(np.isfinite(states)):
        raise FloatingPointError("non-finite rollout")
    return states


def _stage_jacobians(y, x, z, p: VesselParams):
    """Continuous-time A = df/dy (6x6) and B = df/d(x,z) (6x2)."""
    _, _, psi, u, v, r = y
    s, c = math.sin(psi), math.cos(psi)
    A = np.zeros((6, 6))
    A[0, 2] = -u * s - v * c
    A[0, 3] = c
    A[0, 4] = -s
    A[1, 2] = u * c - v * s
    A[1, 3] = s
    A[1, 4] = c
    A[2, 5] = 1.0
    A[3, 3] = (-p.d1u - 2.0 * p.d2u * abs(u)) / p.m11
    A[3, 4] = p.m22 * r / p.m11
    A[3, 5] = p.m22 * v / p.m11
    A[4, 3] = -p.m11 * r / p.m22
    A[4, 4] = -p.d1v / p.m22
    A[4, 5] = -p.m11 * u / p.m22
    A[5, 3] = -(p.m22 - p.m11) * v / p.m33
    A[5, 4] = -(p.m22 - p.m11) * u / p.m33
    A[5, 5] = -p.d1r / p.m33
    sp = 1.0 if abs(x + z) < 1.0 else 0.0  # saturation gate, port
    sm = 1.0 if abs(x - z) < 1.0 else 0.0  # saturation gate, starboard
    B = np.zeros((6, 2))
    B[3, 0] = p.F_max * (sp + sm) / p.m11
    B[3, 1] = p.F_max * (sp - sm) / p.m11
    B[5, 0] = p.lever * p.F_max * (sp - sm) / p.m33
    B[5, 1] = p.lever * p.F_max * (sp + sm) / p.m33
    return A, B


def _rk4_step_with_jac(y, x, z, p: VesselParams, dt: float):
    """One RK4 step plus the step map's Jacobians wrt state and input."""
    fp, fs = _alloc(x, z, p)

    def f(yy):
        return dynamics_deriv(yy, fp, fs, 0.0, 0.0, p)

    eye = np.eye(6)
    y1 = y
    k1 = f(y1)
    A1, B1 = _stage_jacobians(y1, x, z, p)
    y2 = tuple(y[i] + 0.5 * dt * k1[i] for i in range(6))
    k2 = f(y2)
    A2, B2 = _stage_jacobians(y2, x, z, p)
    y3 = tuple(y[i] + 0.5 * dt * k2[i] for i in range(6))
    k3 = f(y3)
    A3, B3 = _stage_jacobians(y3, x, z, p)
    y4 = tuple(y[i] + dt * k3[i] for i in range(6))
    k4 = f(y4)
    A4, B4 = _stage_jacobians(y4, x, z, p)

    dk1y, dk1w = A1, B1
    dk2y = A2 @ (eye + 0.5 * dt * dk1y)
    dk2w = A2 @ (0.5 * dt * dk1w) + B2
    dk3y = A3 @ (eye + 0.5 * dt * dk2y)
    dk3w = A3 @ (0.5 * dt * dk2w) + B3
    dk4y = A4 @ (eye + dt * dk3y)
    dk4w = A4 @ (dt * dk3w) + B4

    y_next = tuple(
        y[i] + dt / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i])
        for i in range(6))
    y_next = (y_next[0], y_next[1], wrap_2pi(y_next[2]),
              y_next[3], y_next[4], y_next[5])
    A_step = eye + dt / 6.0 * (dk1y + 2.0 * dk2y + 2.0 * dk3y + dk4y)
    B_step = dt / 6.0 * (dk1w + 2.0 * dk2w + 2.0 * dk3w + dk4w)
    return y_next, A_step, B_step


def _objective(states: np.ndarray, inputs: np.ndarray, e_ct, psi_path,
               config: NmpcConfig, prev_input) -> float:
    """The stated objective, given the path projection (e_ct, psi_path)
    of predicted states 1..N."""
    psi = states[1:, 2]
    u = states[1:, 3]
    state_cost = (config.w_ct * np.sum(e_ct ** 2)
                  + config.w_head * np.sum(1.0 - np.cos(psi - psi_path))
                  + config.w_speed * np.sum((u - config.ref_speed) ** 2))
    prev = np.asarray(prev_input, dtype=float)
    diffs = np.diff(np.vstack([prev[None, :], inputs]), axis=0)
    input_cost = (config.w_u * np.sum(inputs ** 2)
                  + config.w_du * np.sum(diffs ** 2))
    return float(state_cost + input_cost)


def cost(states: np.ndarray, inputs: np.ndarray, path: PolylinePath,
         config: NmpcConfig, prev_input) -> float:
    """Evaluate the stated objective on a rollout."""
    e_ct, psi_path, _ = path.project_many(states[1:, :2])
    return _objective(states, inputs, e_ct, psi_path, config, prev_input)


def cost_of_inputs(y0: np.ndarray, inputs: np.ndarray, path: PolylinePath,
                   config: NmpcConfig, params: VesselParams,
                   prev_input) -> float:
    return cost(predict(y0, inputs, config, params), inputs, path, config,
                prev_input)


def cost_gradient(y0: np.ndarray, inputs: np.ndarray, path: PolylinePath,
                  config: NmpcConfig, params: VesselParams,
                  prev_input) -> tuple[float, np.ndarray]:
    """Exact (cost, d cost / d inputs) via a discrete adjoint pass."""
    n = len(inputs)
    dt = config.dt
    y = tuple(float(v) for v in y0)
    states = np.empty((n + 1, 6))
    states[0] = y
    A_steps = np.empty((n, 6, 6))
    B_steps = np.empty((n, 6, 2))
    for k in range(n):
        y, A_steps[k], B_steps[k] = _rk4_step_with_jac(
            y, float(inputs[k, 0]), float(inputs[k, 1]), params, dt)
        states[k + 1] = y
    if not np.all(np.isfinite(states)):
        raise FloatingPointError("non-finite rollout")

    e_ct, psi_path, port = path.project_many(states[1:, :2])
    psi = states[1:, 2]
    u = states[1:, 3]
    total = _objective(states, inputs, e_ct, psi_path, config, prev_input)

    # d(stage cost k)/d(state k) for k = 1..N
    lx = np.zeros((n, 6))
    lx[:, 0] = 2.0 * config.w_ct * e_ct * port[:, 0]
    lx[:, 1] = 2.0 * config.w_ct * e_ct * port[:, 1]
    lx[:, 2] = config.w_head * np.sin(psi - psi_path)
    lx[:, 3] = 2.0 * config.w_speed * (u - config.ref_speed)

    prev = np.asarray(prev_input, dtype=float)
    padded = np.vstack([prev[None, :], inputs])
    diffs = np.diff(padded, axis=0)
    grad = 2.0 * config.w_u * inputs + 2.0 * config.w_du * diffs
    grad[:-1] -= 2.0 * config.w_du * diffs[1:]

    lam = lx[n - 1].copy()
    for k in range(n - 1, -1, -1):
        grad[k] += B_steps[k].T @ lam
        if k > 0:
            lam = lx[k - 1] + A_steps[k].T @ lam
    return total, grad


def _project(u: np.ndarray) -> np.ndarray:
    return np.clip(u, -1.0, 1.0)


def shift_warm_start(previous: ControlSolution) -> np.ndarray:
    """Previous plan shifted one step, last input repeated."""
    return np.vstack([previous.inputs[1:], previous.inputs[-1:]])


def solve_nmpc(state: VesselState, path: PolylinePath, config: NmpcConfig,
               params: VesselParams,
               warm_start: ControlSolution | None = None,
               prev_input=(0.0, 0.0)) -> ControlSolution | None:
    """Projected-gradient solve; returns None on numeric failure."""
    t_start = time.perf_counter()
    y0 = state_vector(state)
    n = config.steps_N
    if warm_start is not None and len(warm_start.inputs) == n:
        u_seq = _project(shift_warm_start(warm_start))
    else:
        u_seq = np.zeros((n, 2))

    try:
        c, g = cost_gradient(y0, u_seq, path, config, params, prev_input)
    except FloatingPointError:
        return None
    best_u, best_c = u_seq.copy(), c
    alpha = 1.0  # refined by Barzilai-Borwein after the first step
    u_prev = g_prev = None
    iters = 0
    stalls = 0
    converged = False
    while iters < config.max_iters:
        pg = u_seq - _project(u_seq - g)
        if np.max(np.abs(pg)) < config.grad_tol:
            converged = True
            break
        iters += 1
        if u_prev is not None:
            s = u_seq - u_prev
            y = g - g_prev
            sy = float(np.sum(s * y))
            if sy > 1e-12:
                alpha = min(max(float(np.sum(s * s)) / sy, 1e-6), 1e3)
        accepted = False
        while alpha > 1e-12:
            u_new = _project(u_seq - alpha * g)
            try:
                c_new = cost_of_inputs(y0, u_new, path, config, params,
                                       prev_input)
            except FloatingPointError:
                return None
            decrease = float(np.sum(g * (u_seq - u_new)))
            if c_new <= c - 1e-4 * decrease:
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            break  # no descent direction left at machine precision
        u_prev, g_prev = u_seq, g
        improvement = c - c_new
        u_seq, c = u_new, c_new
        if c < best_c:
            best_u, best_c = u_seq.copy(), c
        # the thrust saturation puts kinks in the objective, so minima on
        # a kink never satisfy the smooth gradient test; stop once the
        # cost stalls instead of burning the whole budget
        if improvement <= 1e-3 * (1.0 + abs(c)):
            stalls += 1
            if stalls >= 2:
                break
        else:
            stalls = 0
        if (config.time_budget_s is not None
                and time.perf_counter() - t_start > config.time_budget_s):
            break
        try:
            c, g = cost_gradient(y0, u_seq, path, config, params, prev_input)
        except FloatingPointError:
            return None

    predicted = predict(y0, best_u, config, params)
    return ControlSolution(inputs=best_u, predicted=predicted, cost=best_c,
                           iters=iters,
                           solve_time=time.perf_counter() - t_start,
                           converged=converged)


def state_from_synced(sample, origin_lat: float, origin_lon: float
                      ) -> VesselState:
    """Vessel state estimate from one synchronized telemetry sample.

    Sway is not observable from the backseat data; u/v are recovered
    by rotating the ground velocity into the body frame.
    """
    from . import geo

    north, east = geo.latlon_to_local(sample.gps["lat"], sample.gps["lon"],
                                      origin_lat, origin_lon)
    psi = math.radians(sample.imu["yaw"]) % (2.0 * math.pi)
    r = math.radians(sample.imu["r"])
    sog = sample.cogsog["sog"]
    crab = math.radians(sample.cogsog["cog"]) - psi
    return VesselState(north=north, east=east, psi=psi,
                       u=sog * math.cos(crab), v=sog * math.sin(crab), r=r,
                       origin_lat=origin_lat, origin_lon=origin_lon)
