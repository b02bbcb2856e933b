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
exact box projection onto [-1, 1]^(2N). Gradients are exact: a reverse
pass through each RK4 step of the rollout recomputes its stage points
and sums scalar vector-Jacobian products of the model there.
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
    y = tuple(float(v) for v in y0)
    rows = [y]
    for x, z in np.asarray(inputs, dtype=float).tolist():
        fp, fs = _alloc(x, z, params)
        y = rk4_step(y, fp, fs, 0.0, 0.0, params, dt)
        y = (y[0], y[1], wrap_2pi(y[2]), y[3], y[4], y[5])
        rows.append(y)
    states = np.array(rows)
    if not np.all(np.isfinite(states)):
        raise FloatingPointError("non-finite rollout")
    return states


def _rk4_vjp(y, x: float, z: float, lam, p: VesselParams, dt: float):
    """Adjoint of one `rk4_step` of the nominal model from state y under
    input (x, z): given lam = dL/dy', returns (dL/dy, dL/dx, dL/dz).

    Recomputes the stage points y1 = y, y2 = y + h k1, y3 = y + h k2 and
    y4 = y + dt k3 (h = dt/2), then runs back through
    y' = y + dt/6 (k1 + 2 k2 + 2 k3 + k4) with one vector-Jacobian
    product of k_i = f(y_i) per stage. f does not read north or east, so
    their adjoints pass through unchanged; the psi wrap has slope 1.
    """
    fp, fs = _alloc(x, z, p)
    m11, m22, m33, munk = p.m11, p.m22, p.m33, p.m22 - p.m11
    h = 0.5 * dt
    _, _, psi0, u0, v0, r0 = y
    points = [(psi0, u0, v0, r0)]  # (psi, u, v, r) of y1..y4
    for step in (h, h, dt):
        _, _, kpsi, ku, kv, kr = dynamics_deriv((0.0, 0.0) + points[-1],
                                                fp, fs, 0.0, 0.0, p)
        points.append((psi0 + step * kpsi, u0 + step * ku,
                       v0 + step * kv, r0 + step * kr))
    ln, le, lpsi, lu, lv, lr = lam
    out_psi, out_u, out_v, out_r = lpsi, lu, lv, lr
    g_psi = g_u = g_v = g_r = sum_u = sum_r = 0.0
    # stage i's weight in y' and the step by which y(i+1) holds k_i
    for (psi, u, v, r), w, step in zip(reversed(points),
                                       (dt / 6.0, dt / 3.0, dt / 3.0, dt / 6.0),
                                       (0.0, dt, h, h)):
        an, ae = w * ln, w * le  # cotangent of k_i, (g_*) that of y(i+1)
        ap = w * lpsi + step * g_psi
        a3 = (w * lu + step * g_u) / m11
        a4 = (w * lv + step * g_v) / m22
        a5 = (w * lr + step * g_r) / m33
        s, c = math.sin(psi), math.cos(psi)
        g_psi = an * (-u * s - v * c) + ae * (u * c - v * s)
        g_u = (an * c + ae * s - a3 * (p.d1u + 2.0 * p.d2u * abs(u))
               - a4 * m11 * r - a5 * munk * v)
        g_v = -an * s + ae * c + a3 * m22 * r - a4 * p.d1v - a5 * munk * u
        g_r = ap + a3 * m22 * v - a4 * m11 * u - a5 * p.d1r
        out_psi, out_u = out_psi + g_psi, out_u + g_u
        out_v, out_r = out_v + g_v, out_r + g_r
        sum_u, sum_r = sum_u + a3, sum_r + a5
    # the thrusts enter u' and r' only; a motor's saturation gate is
    # open strictly inside (-1, 1)
    port = (sum_u + p.lever * sum_r) if abs(x + z) < 1.0 else 0.0
    stbd = (sum_u - p.lever * sum_r) if abs(x - z) < 1.0 else 0.0
    return ((ln, le, out_psi, out_u, out_v, out_r),
            p.F_max * (port + stbd), p.F_max * (port - stbd))


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
    """Exact (cost, d cost / d inputs): the `predict` rollout, then a
    reverse pass of vector-Jacobian products through its RK4 steps."""
    n = len(inputs)
    states = predict(y0, inputs, config, params)
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
    diffs = np.diff(np.vstack([prev[None, :], inputs]), axis=0)
    grad = 2.0 * config.w_u * inputs + 2.0 * config.w_du * diffs
    grad[:-1] -= 2.0 * config.w_du * diffs[1:]

    rows, stage, steps = states.tolist(), lx.tolist(), inputs.tolist()
    lam = stage[n - 1]
    through = []  # lam_{k+1}^T d(state k+1)/d(input k), for k = N-1..0
    for k in range(n - 1, -1, -1):
        lam, gx, gz = _rk4_vjp(rows[k], *steps[k], lam, params, config.dt)
        through.append((gx, gz))
        if k > 0:
            lam = [a + b for a, b in zip(stage[k - 1], lam)]
    return total, grad + through[::-1]


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
