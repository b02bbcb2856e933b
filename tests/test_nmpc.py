import math
import sys
import warnings

import numpy as np
import pytest

from otterlink import nmpc, runner
from otterlink.client import SyncedSample
from otterlink.config import ConfigFileError, load_config
from otterlink.guidance import PolylinePath, figure_eight
from otterlink.nmpc import (STOPS, NmpcConfig, _evaluate,
                            _jacobian, cost_gradient,
                            cost_of_inputs, predict, shift_warm_start,
                            solve_nmpc, state_from_synced, state_vector)
from otterlink.vessel import (EnvDisturbance, VesselParams, VesselState,
                              dynamics_deriv, mix, step_dynamics, unmix,
                              wrap_2pi)

P = VesselParams()
EAST_LINE = PolylinePath([(0.0, -500.0), (0.0, 500.0)])


def box_motors(rng, n, faces):
    """(n, 2) motor commands in the box [-1, 1]^2: uniform, or with
    `faces` dyadic k/64 with about a third of them exactly at -1 or 1."""
    if not faces:
        return rng.uniform(-1, 1, size=(n, 2))
    motors = rng.integers(-64, 65, size=(n, 2)) / 64
    return np.where(rng.random((n, 2)) < 1 / 3,
                    rng.choice([-1.0, 1.0], size=(n, 2)), motors)


def fd_gradient(y0, motors, path, config, eps=1e-6, prev=(0.0, 0.0)):
    """Central finite differences of the rollout cost."""
    grad = np.zeros_like(motors)
    for k in range(motors.shape[0]):
        for j in range(2):
            up = motors.copy()
            dn = motors.copy()
            up[k, j] += eps
            dn[k, j] -= eps
            grad[k, j] = (cost_of_inputs(y0, up, path, config, P, prev)
                          - cost_of_inputs(y0, dn, path, config, P, prev)
                          ) / (2.0 * eps)
    return grad


def random_instance(rng, config):
    state = VesselState(north=rng.uniform(-5, 5), east=rng.uniform(-5, 5),
                        psi=rng.uniform(0, 2 * math.pi),
                        u=rng.uniform(-0.5, 2.0), v=rng.uniform(-0.3, 0.3),
                        r=rng.uniform(-0.4, 0.4))
    # the model is smooth in the motor commands across the whole box
    return state, rng.uniform(-1, 1, size=(config.steps_N, 2))


def stated_objective(y0, motors, path, config, prev_motors):
    """The objective in the 1 - cos form of the nmpc module docstring,
    its effort and rate terms on the surge and torque commands T m."""
    def surge_torque_sq(m):  # |T m|^2, row by row
        return ((m[:, 0] + m[:, 1]) / 2) ** 2 + ((m[:, 0] - m[:, 1]) / 2) ** 2

    states = predict(y0, motors, config, P)
    e_ct, psi_path, _ = path.project_many(states[1:, :2])
    psi = states[1:, 2]
    u = states[1:, 3]
    prev = np.asarray(prev_motors, dtype=float)
    diffs = np.diff(np.vstack([prev[None, :], motors]), axis=0)
    return float(config.w_ct * np.sum(e_ct ** 2)
                 + config.w_head * np.sum(1.0 - np.cos(psi - psi_path))
                 + config.w_speed * np.sum((u - config.ref_speed) ** 2)
                 + config.w_u * np.sum(surge_torque_sq(motors))
                 + config.w_du * np.sum(surge_torque_sq(diffs)))


def dense_cost_gradient(y0, motors, path, config, p, prev_motors):
    """Reference (cost, gradient over the (N, 2) motor commands) built
    from dense per-stage Jacobians: A = df/dy (6x6) and B =
    df/d(port, starboard) (6x2) at each RK4 stage point, chained into
    the step map's Jacobians, then a matrix adjoint pass. The rollout
    applies thrusts F_max m, and the cost is the square of a 7N residual
    vector laid out as the module docstring's sum of squares, with the
    effort and rate terms' weights w_u/2 and w_du/2 on the motors."""
    def stage_jacobians(y):
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
        B = np.zeros((6, 2))
        B[3, 0] = B[3, 1] = p.F_max / p.m11
        B[5, 0] = p.lever * p.F_max / p.m33
        B[5, 1] = -p.lever * p.F_max / p.m33
        return A, B

    def step_with_jac(y, port, stbd, dt):
        fp = p.F_max * port
        fs = p.F_max * stbd

        def f(yy):
            return dynamics_deriv(yy, fp, fs, 0.0, 0.0, p)

        eye = np.eye(6)
        k1 = f(y)
        A1, B1 = stage_jacobians(y)
        y2 = tuple(y[i] + 0.5 * dt * k1[i] for i in range(6))
        k2 = f(y2)
        A2, B2 = stage_jacobians(y2)
        y3 = tuple(y[i] + 0.5 * dt * k2[i] for i in range(6))
        k3 = f(y3)
        A3, B3 = stage_jacobians(y3)
        y4 = tuple(y[i] + dt * k3[i] for i in range(6))
        k4 = f(y4)
        A4, B4 = stage_jacobians(y4)
        dk2y = A2 @ (eye + 0.5 * dt * A1)
        dk2w = A2 @ (0.5 * dt * B1) + B2
        dk3y = A3 @ (eye + 0.5 * dt * dk2y)
        dk3w = A3 @ (0.5 * dt * dk2w) + B3
        dk4y = A4 @ (eye + dt * dk3y)
        dk4w = A4 @ (dt * dk3w) + B4
        y_next = tuple(
            y[i] + dt / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i])
            for i in range(6))
        y_next = y_next[:2] + (wrap_2pi(y_next[2]),) + y_next[3:]
        A_step = eye + dt / 6.0 * (A1 + 2.0 * dk2y + 2.0 * dk3y + dk4y)
        B_step = dt / 6.0 * (B1 + 2.0 * dk2w + 2.0 * dk3w + dk4w)
        return y_next, A_step, B_step

    n = len(motors)
    y = tuple(float(v) for v in y0)
    states = np.empty((n + 1, 6))
    states[0] = y
    A_steps = np.empty((n, 6, 6))
    B_steps = np.empty((n, 6, 2))
    for k in range(n):
        y, A_steps[k], B_steps[k] = step_with_jac(
            y, float(motors[k, 0]), float(motors[k, 1]), config.dt)
        states[k + 1] = y
    e_ct, psi_path, port = path.project_many(states[1:, :2])
    psi = states[1:, 2]
    u = states[1:, 3]
    prev = np.asarray(prev_motors, dtype=float)
    diffs = np.diff(np.vstack([prev[None, :], motors]), axis=0)
    # heading error wrapped to (-pi, pi]; 1 - cos d = 2 sin^2(d/2)
    d = math.pi - (math.pi - (psi - psi_path)) % (2.0 * math.pi)
    residuals = np.concatenate([
        math.sqrt(config.w_ct) * e_ct,
        math.sqrt(2.0 * config.w_head) * np.sin(0.5 * d),
        math.sqrt(config.w_speed) * (u - config.ref_speed),
        math.sqrt(config.w_u / 2) * motors.ravel(),
        math.sqrt(config.w_du / 2) * diffs.ravel()])
    total = float(residuals @ residuals)
    lx = np.zeros((n, 6))
    lx[:, 0] = 2.0 * config.w_ct * e_ct * port[:, 0]
    lx[:, 1] = 2.0 * config.w_ct * e_ct * port[:, 1]
    lx[:, 2] = config.w_head * np.sin(psi - psi_path)
    lx[:, 3] = 2.0 * config.w_speed * (u - config.ref_speed)
    grad = config.w_u * motors + config.w_du * diffs
    grad[:-1] -= config.w_du * diffs[1:]
    lam = lx[n - 1].copy()
    for k in range(n - 1, -1, -1):
        grad[k] += B_steps[k].T @ lam
        if k > 0:
            lam = lx[k - 1] + A_steps[k].T @ lam
    return total, grad


class TestPredict:
    def test_matches_simulator_stepping_exactly(self):
        # the controller's internal model must be the simulator's model
        config = NmpcConfig(horizon_T=1.0, steps_N=20)  # dt = 0.05
        rng = np.random.default_rng(5)
        state = VesselState(psi=1.0, u=1.2, v=0.05, r=0.1)
        motors = rng.uniform(-1, 1, size=(20, 2))
        rolled = predict(state_vector(state), motors, config, P)
        sim = state
        for k, (port, stbd) in enumerate(motors):
            sim = step_dynamics(sim, (P.F_max * port, P.F_max * stbd),
                                EnvDisturbance(), P, config.dt)
            assert rolled[k + 1] == pytest.approx(
                [sim.north, sim.east, sim.psi, sim.u, sim.v, sim.r],
                abs=1e-9)

    def test_nonfinite_rollout_raises(self):
        config = NmpcConfig()
        y0 = np.array([0, 0, 0, np.nan, 0, 0])
        with pytest.raises(FloatingPointError):
            predict(y0, np.zeros((config.steps_N, 2)), config, P)


class TestCost:
    def test_pure_speed_penalty_closed_form(self):
        # at rest on the path, aligned with it, zero inputs: only the
        # speed term survives and u stays 0 -> cost = N w_speed ref^2
        config = NmpcConfig(steps_N=4, horizon_T=0.8, w_u=0.0, w_du=0.0,
                            ref_speed=1.0)
        state = VesselState(psi=math.pi / 2)  # facing east, on EAST_LINE
        c = cost_of_inputs(state_vector(state), np.zeros((4, 2)),
                           EAST_LINE, config, P, (0.0, 0.0))
        assert c == pytest.approx(4 * config.w_speed * 1.0, rel=1e-12)

    def test_input_terms_closed_form(self):
        config = NmpcConfig(steps_N=3, horizon_T=0.6, w_ct=0.0, w_head=0.0,
                            w_speed=0.0, w_u=0.1, w_du=0.5)
        # motor commands whose (x, z) = T m are (0.2, 0), (0.2, 0.1),
        # (0.4, 0.1), after (0.1, 0)
        motors = np.array([[0.2, 0.2], [0.3, 0.1], [0.5, 0.3]])
        prev = (0.1, 0.1)
        expected = (0.1 * (0.2 ** 2 + 0.2 ** 2 + 0.1 ** 2 + 0.4 ** 2
                           + 0.1 ** 2)
                    + 0.5 * ((0.2 - 0.1) ** 2
                             + 0.1 ** 2
                             + 0.2 ** 2))
        state = VesselState(psi=math.pi / 2)
        c = cost_of_inputs(state_vector(state), motors, EAST_LINE, config,
                           P, prev)
        assert c == pytest.approx(expected, rel=1e-12)

    def test_cross_track_term_grows_off_path(self):
        config = NmpcConfig(w_speed=0.0, w_u=0.0, w_du=0.0, w_head=0.0)
        on = VesselState(psi=math.pi / 2)
        off = VesselState(north=5.0, psi=math.pi / 2)
        zeros = np.zeros((config.steps_N, 2))
        c_on = cost_of_inputs(state_vector(on), zeros, EAST_LINE, config,
                              P, (0, 0))
        c_off = cost_of_inputs(state_vector(off), zeros, EAST_LINE, config,
                               P, (0, 0))
        assert c_on < 1e-9 < c_off


class TestGradient:
    def test_matches_finite_differences(self):
        config = NmpcConfig()
        rng = np.random.default_rng(17)
        for i in range(5):
            state, motors = random_instance(rng, config)
            # the last sequence is shorter than the horizon's steps_N
            motors = motors[:7] if i == 4 else motors
            y0 = state_vector(state)
            prev = (float(motors[0, 0]), float(motors[0, 1]))
            c, grad = cost_gradient(y0, motors, EAST_LINE, config, P, prev)
            fd = fd_gradient(y0, motors, EAST_LINE, config, prev=prev)
            scale = max(1.0, float(np.max(np.abs(fd))))
            assert np.max(np.abs(grad - fd)) / scale < 1e-6
            assert c == pytest.approx(
                cost_of_inputs(y0, motors, EAST_LINE, config, P, prev))

    def test_matches_fd_on_figure_eight(self):
        config = NmpcConfig()
        path = figure_eight(20.0)
        rng = np.random.default_rng(23)
        state, motors = random_instance(rng, config)
        y0 = state_vector(state)
        _, grad = cost_gradient(y0, motors, path, config, P, (0, 0))
        fd = fd_gradient(y0, motors, path, config)
        scale = max(1.0, float(np.max(np.abs(fd))))
        assert np.max(np.abs(grad - fd)) / scale < 1e-6

    def test_matches_dense_jacobian_reference(self):
        # motor commands across the whole box, half of them with entries
        # exactly on its faces, negative surge and headings that cross
        # the 0/2pi wrap inside the horizon; compared over the motors
        config = NmpcConfig()
        path = figure_eight(20.0)
        rng = np.random.default_rng(41)
        for i in range(120):
            psi = [rng.uniform(0, 2 * math.pi), rng.uniform(0, 0.02),
                   2 * math.pi - rng.uniform(1e-12, 0.02)][i % 3]
            y0 = np.array([rng.uniform(-25, 25), rng.uniform(-12, 12), psi,
                           rng.uniform(-1.5, 2.5), rng.uniform(-0.4, 0.4),
                           rng.uniform(-0.6, 0.6)])
            motors = box_motors(rng, config.steps_N, faces=i % 2)
            prev = tuple(rng.uniform(-1, 1, size=2))
            c, grad = cost_gradient(y0, motors, path, config, P, prev)
            c_ref, grad_ref = dense_cost_gradient(y0, motors, path, config,
                                                  P, prev)
            assert c == c_ref
            assert (np.max(np.abs(grad - grad_ref))
                    <= 1e-12 * np.max(np.abs(grad_ref)))


def linearized(y0, motors, path, config, prev):
    """(cost, residuals, Jacobian) at a motor command sequence."""
    states, stages, (_, psi_path, port), r, c = _evaluate(
        y0, motors, path, config, P, prev)
    return c, r, _jacobian(states, stages, port, psi_path, config, P)


def motor_problems():
    """Figure-eight and line problems over motor commands drawn in the
    box, every other one with entries exactly on its faces."""
    config = NmpcConfig()
    rng = np.random.default_rng(61)
    fig8 = figure_eight(20.0)
    for i in range(24):
        path = EAST_LINE if i % 3 == 0 else fig8
        y0 = np.array([rng.uniform(-25, 25), rng.uniform(-12, 12),
                       rng.uniform(0, 2 * math.pi), rng.uniform(-1.5, 2.5),
                       rng.uniform(-0.4, 0.4), rng.uniform(-0.6, 0.6)])
        motors = box_motors(rng, config.steps_N, faces=i % 2)
        yield y0, motors, path, config, tuple(rng.uniform(-1, 1, size=2))


def recomputed_rollout_jacobian(states, motors, config, p):
    """The rollout Jacobian with each RK4 step's stage points recomputed
    from its state and motors by array evaluations of the model's
    derivative, as the solver built it before the rollout kept them."""
    def deriv(y, fp, fs):  # vessel.dynamics_deriv over (N,) arrays
        _, _, psi, u, v, r = y
        spsi, cpsi = np.sin(psi), np.cos(psi)
        return (u * cpsi - v * spsi + 0.0, u * spsi + v * cpsi + 0.0, r,
                (fp + fs - p.d1u * u - p.d2u * u * abs(u) + p.m22 * v * r)
                / p.m11,
                (-p.d1v * v - p.m11 * u * r) / p.m22,
                (p.lever * (fp - fs) - p.d1r * r - (p.m22 - p.m11) * u * v)
                / p.m33)

    n, dt = len(motors), config.dt
    h = 0.5 * dt
    fp, fs = p.F_max * motors.T
    B = np.zeros((6, 8))
    B[3, 6:] = p.F_max / p.m11
    B[5, 6] = p.lever * p.F_max / p.m33
    B[5, 7] = -B[5, 6]
    E = np.eye(6, 8)
    points = [states[:-1].T]
    for step in (h, h, dt):
        k = deriv(points[-1], fp, fs)
        points.append(points[0] + step * np.array(k))
    A = nmpc._stage_jacobians(*np.concatenate(points, axis=1)[2:], p)
    A = A.reshape(4, n, 6, 6)
    K = A[0] @ E + B
    total = K.copy()
    for i, (step, weight) in enumerate(((h, 2.0), (h, 2.0), (dt, 1.0)), 1):
        K = A[i] @ (E + step * K) + B
        total += weight * K
    A_steps = np.eye(6) + (dt / 6.0) * total[:, :, :6]
    B_steps = (dt / 6.0) * total[:, :, 6:]
    sens = np.zeros((n, 6, 2 * n))
    for i in range(n):
        if i:
            np.matmul(A_steps[i], sens[i - 1, :, :2 * i],
                      out=sens[i, :, :2 * i])
        sens[i, :, 2 * i:2 * i + 2] = B_steps[i]
    return sens


class TestGaussNewton:
    def test_stage_point_jacobian_equals_the_recomputed_one(self):
        # the stage points the rollout keeps are the ones recomputing
        # them gives, to the bit: for plans across the box, on its faces,
        # and at its corners
        rng = np.random.default_rng(67)
        problems = list(motor_problems())
        for y0, _, _, config, _ in problems[:6]:
            problems.append((y0, rng.choice([-1.0, 1.0],
                                            size=(config.steps_N, 2)),
                             None, config, None))
        for y0, motors, _, config, _ in problems:
            stages = []
            states = predict(y0, motors, config, P, stages)
            assert len(stages) == 3 * config.steps_N
            assert np.array_equal(
                nmpc._rollout_jacobian(states, stages, config, P),
                recomputed_rollout_jacobian(states, motors, config, P))

    def test_residuals_square_to_objective(self):
        for y0, motors, path, config, prev in motor_problems():
            _, _, _, r, c = _evaluate(y0, motors, path, config, P, prev)
            assert r.shape == (7 * config.steps_N,)
            assert c == float(r @ r)
            # the residuals square to the docstring's 1 - cos form
            stated = stated_objective(y0, motors, path, config, prev)
            assert abs(cost_of_inputs(y0, motors, path, config, P, prev)
                       - stated) <= 1e-12 * stated

    def test_half_gradient_is_jacobian_transpose_residuals(self):
        # the batched Jacobian and the dense per-stage reference share
        # only the model: a saturation gate, a wrong stage or sign in the
        # Jacobian breaks this, on the box faces too
        for y0, motors, path, config, prev in motor_problems():
            _, r, J = linearized(y0, motors, path, config, prev)
            c_ref, grad = dense_cost_gradient(y0, motors, path, config, P,
                                              prev)
            assert J.shape == (7 * config.steps_N, 2 * config.steps_N)
            assert float(r @ r) == c_ref
            assert (np.max(np.abs(2.0 * J.T @ r - grad.ravel()))
                    <= 1e-9 * np.max(np.abs(grad)))

    def test_motor_jacobian_matches_one_sided_differences_on_faces(self):
        # every third motor command sits exactly on a face of the box;
        # there the difference is the second-order one-sided one into
        # the box, elsewhere the central one
        config = NmpcConfig()
        rng = np.random.default_rng(43)
        for path in (EAST_LINE, figure_eight(20.0)):
            state, motors = random_instance(rng, config)
            y0 = state_vector(state)
            motors.flat[::3] = rng.choice([-1.0, 1.0],
                                          size=motors.flat[::3].shape)
            prev = (float(motors[0, 0]), float(motors[0, 1]))
            _, r, J = linearized(y0, motors, path, config, prev)

            def residuals_at(j, step):
                moved = motors.copy()
                moved.flat[j] += step
                return _evaluate(y0, moved, path, config, P, prev)[3]

            eps = 1e-6
            fd = np.empty_like(J)
            for j in range(J.shape[1]):
                if abs(motors.flat[j]) == 1.0:
                    h = -eps * motors.flat[j]
                    fd[:, j] = (-3.0 * r + 4.0 * residuals_at(j, h)
                                - residuals_at(j, 2.0 * h)) / (2.0 * h)
                else:
                    fd[:, j] = (residuals_at(j, eps)
                                - residuals_at(j, -eps)) / (2.0 * eps)
            assert (np.max(np.abs(J - fd))
                    <= 1e-6 * max(1.0, float(np.max(np.abs(fd)))))

    def test_jacobian_matches_central_differences(self):
        config = NmpcConfig()
        rng = np.random.default_rng(29)
        for path in (EAST_LINE, figure_eight(20.0)):
            state, motors = random_instance(rng, config)
            y0 = state_vector(state)
            prev = (float(motors[0, 0]), float(motors[0, 1]))
            _, _, J = linearized(y0, motors, path, config, prev)
            eps = 1e-6
            fd = np.empty_like(J)
            for j in range(J.shape[1]):
                up, dn = motors.copy(), motors.copy()
                up.flat[j] += eps
                dn.flat[j] -= eps
                fd[:, j] = (linearized(y0, up, path, config, prev)[1]
                            - linearized(y0, dn, path, config, prev)[1]
                            ) / (2.0 * eps)
            assert (np.max(np.abs(J - fd))
                    <= 1e-6 * max(1.0, float(np.max(np.abs(fd)))))


class TestSolve:
    def test_solution_is_feasible_and_improving(self):
        config = NmpcConfig()
        state = VesselState(north=3.0, psi=math.pi / 2, u=0.5)
        zero_cost = cost_of_inputs(state_vector(state),
                                   np.zeros((config.steps_N, 2)),
                                   EAST_LINE, config, P, (0, 0))
        sol = solve_nmpc(state, EAST_LINE, config, P)
        assert sol is not None
        assert sol.motors.shape == (config.steps_N, 2)
        assert np.all(np.abs(sol.motors) <= 1.0)
        assert sol.cost < zero_cost
        assert sol.predicted.shape == (config.steps_N + 1, 6)
        assert sol.iters >= 1

    def test_steers_back_toward_path(self):
        # offset to port of an east-going line: the plan's endpoint must
        # close most of the cross-track gap
        config = NmpcConfig()
        state = VesselState(north=4.0, psi=math.pi / 2, u=1.0)
        sol = solve_nmpc(state, EAST_LINE, config, P)
        assert abs(sol.predicted[-1, 0]) < 2.0

    def test_none_on_nonfinite_state(self):
        config = NmpcConfig()
        state = VesselState(u=float("nan"))
        assert solve_nmpc(state, EAST_LINE, config, P) is None

    def test_warm_start_shift(self):
        # shifted by one plan step: the first command dropped, the last
        # repeated
        motors = np.arange(8.0).reshape(4, 2)
        shifted = shift_warm_start(motors, 0.2, 0.2)
        assert np.array_equal(shifted[:-1], motors[1:])
        assert np.array_equal(shifted[-1], motors[-1])

    def test_warm_start_by_the_elapsed_time(self):
        config = NmpcConfig()
        dt, n = config.dt, config.steps_N
        rng = np.random.default_rng(71)
        for faces in (True, False, True, False):
            motors = box_motors(rng, n, faces)
            # one plan step: bit for bit the whole-step shift
            assert (shift_warm_start(motors, dt, dt).tobytes()
                    == np.vstack([motors[1:], motors[-1:]]).tobytes())
            # no time passed: the plan itself
            assert shift_warm_start(motors, 0.0, dt).tobytes() \
                == motors.tobytes()
            # half a plan step, the 10 Hz control period: the midpoints
            # of neighbouring rows, the last row held
            half = shift_warm_start(motors, 0.1, dt)
            assert np.max(np.abs(half[:-1] - 0.5 * (motors[:-1]
                                                     + motors[1:]))) \
                <= 2.0 ** -53
            assert np.array_equal(half[-1], motors[-1])
            # past the horizon: the last command, held
            for elapsed in (n * dt, n * dt + 0.1, 1e9, math.inf):
                assert np.array_equal(shift_warm_start(motors, elapsed, dt),
                                      np.repeat(motors[-1:], n, axis=0))

    def test_warm_start_defaults_to_one_plan_step(self):
        config = NmpcConfig()
        state = VesselState(north=2.0, psi=1.3, u=0.8)
        path = figure_eight(20.0)
        cold = solve_nmpc(state, path, config, P)
        default, stepped = (
            solve_nmpc(state, path, config, P, warm_start=cold,
                       prev_motors=tuple(cold.motors[0]), **elapsed)
            for elapsed in ({}, {"elapsed": config.dt}))
        assert np.array_equal(default.motors, stepped.motors)
        assert default.iters == stepped.iters

    def test_warm_started_resolve_is_cheap(self):
        config = NmpcConfig()
        state = VesselState(psi=math.pi / 2, u=1.0)
        cold = solve_nmpc(state, EAST_LINE, config, P)
        warm = solve_nmpc(state, EAST_LINE, config, P, warm_start=cold,
                          prev_motors=tuple(cold.motors[0]))
        assert warm.iters <= cold.iters

    def test_converges_on_a_line(self):
        config = NmpcConfig()
        state = VesselState(north=3.0, psi=math.pi / 2, u=0.5)
        sol = solve_nmpc(state, EAST_LINE, config, P)
        assert sol.converged
        assert sol.iters < config.max_iters

    @pytest.mark.parametrize("budget_s", [0.0, -0.05])
    def test_spent_budget_stops_after_one_iteration(self, budget_s):
        # a step that starts at or past its deadline still gets the
        # first iteration, and no other
        config = NmpcConfig()
        state = VesselState(north=3.0, psi=math.pi / 2, u=0.5)
        free = solve_nmpc(state, EAST_LINE, config, P)
        spent = solve_nmpc(state, EAST_LINE, config, P, budget_s=budget_s)
        one = solve_nmpc(state, EAST_LINE, NmpcConfig(max_iters=1), P)
        assert free.iters > 1
        assert spent.iters == 1 and not spent.converged
        assert np.array_equal(spent.motors, one.motors)

    def test_solution_reports_its_own_rollout(self):
        config = NmpcConfig()
        state = VesselState(north=2.0, psi=1.3, u=0.8)
        sol = solve_nmpc(state, figure_eight(20.0), config, P)
        assert np.array_equal(sol.predicted,
                              predict(state_vector(state), sol.motors,
                                      config, P))
        assert sol.cost == cost_of_inputs(state_vector(state), sol.motors,
                                          figure_eight(20.0), config, P,
                                          (0.0, 0.0))

    def test_solve_calls_neither_reference(self, monkeypatch):
        # both wrap the solver's own rollout, residuals and Jacobian for
        # tests and the benchmark; the solver calls neither
        def refuse(*_args, **_kwargs):
            raise AssertionError("reference called by the solver")

        monkeypatch.setattr(nmpc, "cost_of_inputs", refuse)
        monkeypatch.setattr(nmpc, "cost_gradient", refuse)
        config = NmpcConfig()
        state = VesselState(north=3.0, psi=math.pi / 2, u=0.5)
        cold = solve_nmpc(state, figure_eight(20.0), config, P)
        warm = solve_nmpc(state, figure_eight(20.0), config, P,
                          warm_start=cold, prev_motors=tuple(cold.motors[0]))
        assert cold is not None and warm is not None

    @staticmethod
    def mission_solutions(monkeypatch, arc, port_offset, heading_deg,
                          config=NmpcConfig()):
        """Every solve of a 14 s figure-eight mission that starts
        `port_offset` m to port of the path at `arc` m of arc, turned
        `heading_deg` to starboard of it."""
        path = figure_eight(20.0)
        north, east = (float(v) for v in path.point_at(arc))
        heading = path.project(north, east).path_heading
        start = VesselState(north=north + port_offset * math.sin(heading),
                            east=east - port_offset * math.cos(heading),
                            psi=(heading + math.radians(heading_deg))
                            % (2 * math.pi))
        solutions = []

        def recorded(*args, **kwargs):
            solutions.append(nmpc.solve_nmpc(*args, **kwargs))
            return solutions[-1]

        monkeypatch.setattr(runner, "solve_nmpc", recorded)
        runner.run_embedded_mission("nmpc", path, nmpc_config=config,
                                    duration=14.0, initial_state=start)
        return solutions

    @classmethod
    def mission_events(cls, monkeypatch, *pose, config=NmpcConfig()):
        """`mission_solutions` of the pose, each with the solver's calls
        in order: ("E", motors, states) per rollout, ("J", states) per
        linearization, ("Q", lo, step) per box QP."""
        calls = []
        evaluate, jacobian, box_qp = (nmpc._evaluate, nmpc._jacobian,
                                      nmpc._box_qp)

        def evaluated(y0, motors, *args):
            out = evaluate(y0, motors, *args)
            calls.append(("E", motors.copy(), out[0]))
            return out

        def linearized_at(states, *args):
            calls.append(("J", states))
            return jacobian(states, *args)

        def stepped(H, g, lo, hi):
            step = box_qp(H, g, lo, hi)
            calls.append(("Q", lo.copy(), step.copy()))
            return step

        def solve(*args, **kwargs):
            calls.append(("S",))
            return solve_nmpc(*args, **kwargs)

        monkeypatch.setattr(nmpc, "_evaluate", evaluated)
        monkeypatch.setattr(nmpc, "_jacobian", linearized_at)
        monkeypatch.setattr(nmpc, "_box_qp", stepped)
        monkeypatch.setattr(nmpc, "solve_nmpc", solve)
        solutions = cls.mission_solutions(monkeypatch, *pose, config=config)
        per_solve = []
        for call in calls:
            if call[0] == "S":
                per_solve.append([])
            else:
                per_solve[-1].append(call)
        return list(zip(solutions, per_solve))

    def test_mission_solves_end_below_max_iters(self, monkeypatch):
        # a figure-eight start 0.491 m to port and 5.076 deg to starboard
        # of the path at 20.584 m of arc: the first warm-started solve,
        # while the motors still sit in their cold-start delay, used to
        # run all max_iters iterations
        solutions = self.mission_solutions(monkeypatch, 20.584, 0.491, 5.076)
        config = NmpcConfig()
        assert len(solutions) == 140
        assert max(sol.iters for sol in solutions) < config.max_iters
        assert sum(sol.converged for sol in solutions) > 100

    def test_mission_takes_about_one_trial_per_iteration(self, monkeypatch):
        # the start pose of the benchmark's fig8-nmpc seed 1: with the
        # thrust limits as the box, the full Gauss-Newton step is almost
        # always accepted, so a line search rarely tries a second step
        solutions = self.mission_solutions(monkeypatch, 20.434, 0.503, 4.997)
        iters = sum(sol.iters for sol in solutions)
        trials = sum(sol.trials for sol in solutions)
        assert len(solutions) == 140
        assert iters <= trials <= 1.2 * iters
        assert all(sol.stop in ("converged", "stalled") for sol in solutions)

    def test_mission_linearizes_about_once_per_solve(self, monkeypatch):
        # the first linearization's Jacobian is kept while full steps are
        # accepted, where each iteration used to build its own (about 2
        # per solve)
        solutions = self.mission_solutions(monkeypatch, 20.434, 0.503, 4.997)
        assert all(sol.jacobians >= 1 for sol in solutions)
        assert sum(sol.jacobians for sol in solutions) <= 1.2 * len(solutions)

    def test_a_kept_jacobian_is_relinearized_before_a_backtrack(
            self, monkeypatch):
        # a full step on a kept Jacobian that fails the Armijo test is
        # retried from a Jacobian at the same plan; only a line search on
        # a fresh Jacobian shortens its step
        retried = 0
        for _, calls in self.mission_events(monkeypatch, 20.434, 0.503,
                                            4.997):
            plans = [calls[0]]  # ("E", motors, states) of every rollout
            linearized_at = search = None
            for call in calls[1:]:
                if call[0] == "J":
                    if (search is not None and search["kept"]
                            and search["trials"] == 1
                            and call[1] is search["at"]):
                        retried += 1
                    linearized_at = call[1]
                elif call[0] == "Q":
                    _, lo, step = call
                    # the plan the step starts from: lo = -1 - plan
                    start = [plan for plan in plans if np.array_equal(
                        -1.0 - plan[1].ravel(), lo)][-1]
                    search = {"at": start[2],
                              "kept": linearized_at is not start[2],
                              "full": np.clip(start[1] + step.reshape(-1, 2),
                                              -1.0, 1.0),
                              "trials": 0}
                else:
                    plans.append(call)
                    search["trials"] += 1
                    if not np.array_equal(call[1], search["full"]):
                        assert not search["kept"]  # a shortened step
        assert retried > 0

    def test_no_solve_converges_on_a_kept_gradient(self, monkeypatch):
        # with a coarse tolerance some kept Jacobians' projected
        # gradients vanish; each such solve relinearizes, and one that
        # ends converged ends on the gradient at its own plan
        vanished = converged = 0
        for sol, calls in self.mission_events(
                monkeypatch, 20.434, 0.503, 4.997,
                config=NmpcConfig(grad_tol=0.03)):
            linearized = [call[1] for call in calls if call[0] == "J"]
            # after the start's, a linearization right after the rollout
            # it is at: a kept gradient vanished at that accepted plan
            vanished += sum(call[0] == "J" and before[0] == "E"
                            and call[1] is before[2]
                            for before, call in zip(calls[1:], calls[2:]))
            if sol.stop == "converged":
                converged += 1
                assert linearized[-1] is sol.predicted
            assert sol.jacobians == len(linearized)
        assert converged > 0
        assert vanished > converged

    def test_every_stop_reason_is_reached(self, monkeypatch):
        # a 3 m offset from an east-going line, solved from rest
        state = VesselState(north=3.0, psi=math.pi / 2, u=0.5)

        def solve(budget_s=None, **config):
            sol = solve_nmpc(state, EAST_LINE, NmpcConfig(**config), P,
                             budget_s=budget_s)
            assert sol.converged == (sol.stop in ("converged", "stalled"))
            assert sol.iters <= sol.trials
            return sol

        stops = {}
        stops["converged"] = solve(grad_tol=1e9)
        assert stops["converged"].iters == stops["converged"].trials == 0
        stops["stalled"] = solve(grad_tol=0.0)
        stops["max_iters"] = solve(max_iters=1)
        stops["budget"] = solve(budget_s=0.0)
        assert stops["budget"].iters == 1

        # a Jacobian of the wrong sign points every step uphill, so the
        # line search backtracks until the step is too short to try
        jacobian = nmpc._jacobian
        monkeypatch.setattr(
            nmpc, "_jacobian", lambda *args: -jacobian(*args))
        stops["line_search"] = solve()
        assert stops["line_search"].trials > stops["line_search"].iters
        assert {name: sol.stop for name, sol in stops.items()} == {
            name: name for name in STOPS}

    def test_motor_commands_round_trip_through_mix(self):
        # vessel.unmix, (x, z) = T m, and vessel.mix map the box onto
        # itself: exactly for dyadic commands, within an ulp otherwise
        rng = np.random.default_rng(47)
        for faces in (True, False):
            motors = box_motors(rng, 400, faces)
            mixed = np.array([mix(*unmix(port, stbd))
                              for port, stbd in motors.tolist()])
            assert np.max(np.abs(mixed - motors)) <= (0.0 if faces
                                                      else 2.0 ** -52)
        # every published plan stays in the box image, where mix does
        # not saturate, and the plans from rest and far off reach its
        # faces
        path = figure_eight(20.0)
        on_face = 0
        for north, psi, u in ((2.0, 1.3, 0.8), (12.0, 4.0, 0.0),
                              (-8.0, 0.5, 2.5), (0.0, 2.9, -1.0)):
            state = VesselState(north=north, psi=psi, u=u)
            cold = solve_nmpc(state, path, NmpcConfig(), P)
            warm = solve_nmpc(state, path, NmpcConfig(), P, warm_start=cold,
                              prev_motors=tuple(cold.motors[0]))
            for sol in (cold, warm):
                x, z = np.array([unmix(port, stbd) for port, stbd
                                 in sol.motors.tolist()]).T
                assert np.all(np.abs(x + z) <= 1.0)
                assert np.all(np.abs(x - z) <= 1.0)
                on_face += int(np.sum(np.abs(x + z) == 1.0)
                               + np.sum(np.abs(x - z) == 1.0))
        assert on_face > 0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            NmpcConfig(steps_N=1)
        with pytest.raises(ValueError):
            NmpcConfig(w_ct=-1.0)


def wrapper_box_qp(H, g, lo, hi):
    """`nmpc._box_qp` in its earlier form, on numpy's Python-level
    wrappers (np.ix_, np.errstate around a nested np.where, np.argmin,
    np.argmax, .any()): the reference for the ufunc form, bit for bit.
    Also returns how many held variables it freed and how many free
    variables took an exactly zero Newton step."""
    n = len(g)
    d = np.zeros(n)
    upper = np.zeros(n, dtype=bool)
    held = ((lo >= 0.0) & (g > 0.0)) | ((hi <= 0.0) & (g < 0.0))
    upper[held] = hi[held] <= 0.0
    tol = 1e-12 * (1.0 + float(np.max(np.abs(g))))
    freed = zero_steps = 0
    for _ in range(4 * n):
        free = ~held
        q = g + H @ d
        step = np.zeros(n)
        if free.any():
            step[free] = np.linalg.solve(H[np.ix_(free, free)], -q[free])
        zero_steps += int(np.sum(free & (step == 0.0)))
        with np.errstate(divide="ignore", invalid="ignore"):
            room = np.where(step > 0.0, (hi - d) / step,
                            np.where(step < 0.0, (lo - d) / step, np.inf))
        j = int(np.argmin(room))
        if room[j] < 1.0:
            d += max(room[j], 0.0) * step
            upper[j] = step[j] > 0.0
            d[j] = hi[j] if upper[j] else lo[j]
            held[j] = True
            continue
        d += step
        if not held.any():
            break
        q = g + H @ d
        wrong = np.where(held, np.where(upper, q, -q), 0.0)
        j = int(np.argmax(wrong))
        if wrong[j] <= tol:
            break
        held[j] = False
        freed += 1
    return d, freed, zero_steps


def box_qp_problems(rng, count):
    """Seeded positive definite box QPs: about a quarter of the bounds
    exactly at 0, as for a motor command on its limit, and about one
    variable in seven decoupled with a zero gradient, so its Newton step
    is exactly zero."""
    for _ in range(count):
        n = int(rng.integers(2, 41))
        A = rng.standard_normal((n, n))
        H = A @ A.T + 1e-3 * np.eye(n)
        g = rng.choice([0.1, 1.0, 10.0]) * rng.standard_normal(n)
        lo, hi = -rng.uniform(0.0, 1.0, n), rng.uniform(0.0, 1.0, n)
        lo[rng.random(n) < 0.25] = 0.0
        hi[rng.random(n) < 0.25] = 0.0
        still = rng.random(n) < 0.15
        H[still, :] = H[:, still] = 0.0
        H[still, still] = 1.0
        g[still] = 0.0
        yield H, g, lo, hi


# numpy's Python-level wrapper modules: `fromnumeric` (np.max, np.clip,
# np.argmin, ...), `_methods` (.any(), .all(), .sum(), .clip()),
# `numeric`, `shape_base` (np.vstack), `_ufunc_config` (np.errstate)
# and `numpy.lib` (np.ix_, np.diff, np.eye)
NUMPY_WRAPPERS = ("numpy._core.fromnumeric", "numpy._core._methods",
                  "numpy._core.numeric", "numpy._core.shape_base",
                  "numpy._core._ufunc_config")


def numpy_wrapper_entries(run):
    """Run `run()` under sys.setprofile and return, for each call into a
    numpy wrapper module, (module, function, caller) of the numpy call
    it happened in: the outermost numpy frame on its stack, and the
    function that made that call."""
    def module(frame):
        return "" if frame is None else frame.f_globals.get("__name__", "")

    entries = []

    def profile(frame, event, arg):
        name = module(frame)
        if event != "call" or not (name in NUMPY_WRAPPERS or name == "numpy.lib"
                                   or name.startswith("numpy.lib.")):
            return
        while module(frame.f_back).partition(".")[0] == "numpy":
            frame = frame.f_back
        entries.append((module(frame), frame.f_code.co_name,
                        frame.f_back.f_code.co_name))

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return entries


def wrapper_exempt(entry):
    """np.linalg.solve, which has no public lower-level call, and
    `_foot`'s np.clip (np.maximum(-0.0, 0.0) is +0.0, where np.clip keeps
    -0.0), which the horizon's projection reaches only for a point off
    the path's grid."""
    return (entry[:2] == ("numpy.linalg._linalg", "solve")
            or entry[0] == "numpy._core.fromnumeric"
            and entry[1] in ("clip", "_clip_dispatcher")
            and entry[2] == "_foot")


class TestUfuncPath:
    def test_box_qp_equals_the_wrapper_form_bit_for_bit(self, monkeypatch):
        rng = np.random.default_rng(2909)
        problems = list(box_qp_problems(rng, 300))
        # and the QPs of a cold and a warm solve on the figure-eight
        box_qp = nmpc._box_qp

        def kept(H, g, lo, hi):
            problems.append((H.copy(), g.copy(), lo.copy(), hi.copy()))
            return box_qp(H, g, lo, hi)

        monkeypatch.setattr(nmpc, "_box_qp", kept)
        config, path = NmpcConfig(), figure_eight(20.0)
        state = VesselState(north=2.0, psi=1.3, u=0.8)
        cold = solve_nmpc(state, path, config, P)
        solve_nmpc(state, path, config, P, warm_start=cold,
                   prev_motors=tuple(cold.motors[0]))
        monkeypatch.undo()

        at_zero = held_at_start = freed = zero_steps = 0
        for H, g, lo, hi in problems:
            with warnings.catch_warnings():
                # a division the `where=` masks do not guard would warn
                warnings.simplefilter("error")
                d = nmpc._box_qp(H, g, lo, hi)
            ref, ref_freed, ref_zero = wrapper_box_qp(H, g, lo, hi)
            assert d.tobytes() == ref.tobytes()
            at_zero += int(np.sum(lo == 0.0) + np.sum(hi == 0.0))
            held_at_start += int(np.sum((lo >= 0.0) & (g > 0.0))
                                 + np.sum((hi <= 0.0) & (g < 0.0)))
            freed += ref_freed
            zero_steps += ref_zero
        assert min(at_zero, held_at_start, freed, zero_steps) > 0

    def test_min_max_equals_clip_at_the_unit_box(self):
        x = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 1.0, -1.0,
                      np.nextafter(1.0, 2.0), np.nextafter(-1.0, -2.0),
                      np.nextafter(1.0, 0.0), 5e-324, -5e-324, 0.25, -3.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = np.minimum(np.maximum(x, -1.0), 1.0)
        assert got.tobytes() == np.clip(x, -1.0, 1.0).tobytes()

    def test_solve_calls_no_numpy_python_wrapper(self):
        # np.clip or .any() on the per-iteration path would cost more than
        # the arithmetic on these 40-element arrays
        config, path = NmpcConfig(), figure_eight(20.0)
        state = VesselState(north=2.0, psi=1.3, u=0.8)
        # the read-only input maps are built once per parameter set
        solve_nmpc(state, path, config, P)
        solutions = []

        def solves():
            solutions.append(solve_nmpc(state, path, config, P))
            solutions.append(solve_nmpc(
                state, path, config, P, warm_start=solutions[0],
                prev_motors=tuple(solutions[0].motors[0]),
                elapsed=0.5 * config.dt))

        entries = numpy_wrapper_entries(solves)
        assert [e for e in entries if not wrapper_exempt(e)] == []
        assert all(sol.iters >= 1 for sol in solutions)
        # on the grid, the solve reaches no wrapper but np.linalg.solve
        assert {e[1] for e in entries} == {"solve"}
        # the guard sees the clamp it lets through, of a point off the
        # grid, and one made elsewhere
        off_grid = numpy_wrapper_entries(
            lambda: path.project_many([(2.0, 100.0)]))
        assert off_grid and all(map(wrapper_exempt, off_grid))
        assert {e[1] for e in off_grid} >= {"clip"}
        assert not wrapper_exempt(numpy_wrapper_entries(
            lambda: np.clip(np.zeros(3), -1.0, 1.0))[0])


# each value used to be accepted: a NaN made every solve_nmpc return
# None (zero thrust), max_iters < 1 the unsolved plan, and a fractional
# steps_N raised TypeError in every solve
BAD_NMPC_VALUES = [
    ("horizon_T", math.nan, "horizon_T"), ("horizon_T", math.inf, "horizon_T"),
    ("w_ct", math.nan, "w_ct"), ("w_head", math.inf, "w_head"),
    ("w_du", math.inf, "w_du"), ("ref_speed", math.nan, "ref_speed"),
    ("ref_speed", math.inf, "ref_speed"), ("max_iters", -3, "max_iters"),
    ("max_iters", 0, "max_iters"), ("max_iters", 2.5, "max_iters"),
    ("grad_tol", math.nan, "grad_tol"), ("grad_tol", math.inf, "grad_tol"),
    ("grad_tol", -1e-3, "grad_tol"), ("steps_N", 20.5, "steps_N")]


class TestNmpcConfigValues:
    @pytest.mark.parametrize("name, value, match", BAD_NMPC_VALUES)
    def test_rejected(self, name, value, match):
        with pytest.raises(ValueError, match=match):
            NmpcConfig(**{name: value})

    @pytest.mark.parametrize("name, value, match", BAD_NMPC_VALUES)
    def test_rejected_at_load(self, tmp_path, name, value, match):
        # a fractional count already fails its int cast, as `bad value
        # for max_iters`, with the key lowercased
        path = tmp_path / "run.ini"
        path.write_text(f"[nmpc]\n{name.lower()} = {value}\n",
                        encoding="utf-8")
        with pytest.raises(ConfigFileError, match=f"(?i){match}"):
            load_config(str(path))

    def test_edge_values_accepted(self):
        config = NmpcConfig(w_ct=0.0, w_head=0.0, w_speed=0.0, w_u=0.0,
                            w_du=0.0, ref_speed=-1.0, max_iters=1,
                            grad_tol=0.0)
        assert config.max_iters == 1


class TestStateFromSynced:
    def test_velocity_rotated_into_body_frame(self):
        sample = SyncedSample(
            gps={"lat": 45.0, "lon": -76.0, "utc": 0.0, "alt": 0.0},
            imu={"yaw": 90.0, "r": 5.0, "utc": 0.0, "roll": 0, "pitch": 0,
                 "p": 0, "q": 0},
            cogsog={"cog": 90.0, "sog": 1.5, "utc": 0.0},
            stamp=0.0)
        state = state_from_synced(sample, 45.0, -76.0)
        assert state.u == pytest.approx(1.5)
        assert state.v == pytest.approx(0.0, abs=1e-12)
        assert state.psi == pytest.approx(math.pi / 2)
        assert state.r == pytest.approx(math.radians(5.0))

    def test_crabbing_shows_up_as_sway(self):
        sample = SyncedSample(
            gps={"lat": 45.0, "lon": -76.0},
            imu={"yaw": 0.0, "r": 0.0},
            cogsog={"cog": 90.0, "sog": 2.0},
            stamp=0.0)
        state = state_from_synced(sample, 45.0, -76.0)
        assert state.u == pytest.approx(0.0, abs=1e-12)
        assert state.v == pytest.approx(2.0)  # pushed straight to starboard
