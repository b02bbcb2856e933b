import math
import random

import pytest

from otterlink.vessel import (EnvDisturbance, MotorState, NumericFault,
                              RPM_MAX, VesselParams, VesselState,
                              apply_motor_lag, dynamics_deriv, mix,
                              rk4_step, saturate, step_dynamics, wrap_2pi)

P = VesselParams()


def kinetic_energy(state: VesselState, params: VesselParams) -> float:
    return 0.5 * (params.m11 * state.u ** 2 + params.m22 * state.v ** 2
                  + params.m33 * state.r ** 2)


class TestParams:
    def test_calibration_identity_holds_for_defaults(self):
        # at v_max the two motors exactly balance total surge drag
        drag = P.d1u * P.v_max + P.d2u * P.v_max ** 2
        assert drag == pytest.approx(2.0 * P.F_max, rel=1e-9)

    def test_inconsistent_calibration_rejected(self):
        with pytest.raises(ValueError, match="calibration"):
            VesselParams(d1u=10.0)

    def test_nonpositive_mass_rejected(self):
        with pytest.raises(ValueError, match="m11"):
            VesselParams(m11=0.0)


class TestEnvDisturbance:
    @pytest.mark.parametrize("north, east", [
        (math.nan, 0.0), (0.0, math.inf), (-math.inf, 0.0)])
    def test_nonfinite_current_rejected(self, north, east):
        with pytest.raises(ValueError, match="must be finite"):
            EnvDisturbance(north, east)


class TestAllocation:
    def test_pure_surge_is_symmetric(self):
        assert mix(0.5, 0.0) == (0.5, 0.5)

    def test_positive_z_boosts_port(self):
        port, stbd = mix(0.0, 0.4)
        assert port > 0 > stbd
        assert port == pytest.approx(-stbd)

    def test_saturation_at_combined_limit(self):
        port, stbd = mix(0.8, 0.8)
        assert port == 1.0           # 1.6 clipped to 1.0
        assert stbd == pytest.approx(0.0)


class TestMotorLag:
    def test_cold_start_holds_zero_for_full_delay(self):
        motor = MotorState()
        t = 0.0
        while t < P.startup_delay - 0.02 / 2:
            motor = apply_motor_lag(motor, 1.0, 0.02, P, stationary=True)
            t += 0.02
            if t < P.startup_delay - 1e-9:
                assert motor.actual_norm == 0.0
        motor = apply_motor_lag(motor, 1.0, 0.02, P, stationary=True)
        assert motor.actual_norm > 0.0

    def test_no_delay_when_hull_moving(self):
        motor = apply_motor_lag(MotorState(), 1.0, 0.02, P, stationary=False)
        assert motor.actual_norm > 0.0

    def test_exact_first_order_response(self):
        # closed form: a(t) = 1 - exp(-t / tau), independent of step size
        motor = MotorState()
        for _ in range(50):
            motor = apply_motor_lag(motor, 1.0, 0.02, P, stationary=False)
        expected = 1.0 - math.exp(-1.0 / P.motor_tau)
        assert motor.actual_norm == pytest.approx(expected, rel=1e-9)

    def test_snap_to_zero_on_small_residual(self):
        motor = MotorState(actual_norm=5e-5)
        motor = apply_motor_lag(motor, 0.0, 0.02, P, stationary=False)
        assert motor.actual_norm == 0.0

    def test_rpm_tracks_actual(self):
        motor = apply_motor_lag(MotorState(), -1.0, 5.0, P, stationary=False)
        assert motor.rpm_signed == pytest.approx(motor.actual_norm * RPM_MAX)
        assert motor.rpm_unsigned >= 0

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ValueError):
            apply_motor_lag(MotorState(), 1.0, 0.0, P, stationary=False)


class TestDynamics:
    def test_top_speed_is_equilibrium(self):
        # at u = v_max under full thrust every derivative except position
        # must vanish
        y = (0.0, 0.0, 0.0, P.v_max, 0.0, 0.0)
        dy = dynamics_deriv(y, P.F_max, P.F_max, 0.0, 0.0, P)
        assert dy[3] == pytest.approx(0.0, abs=1e-12)
        assert dy[4] == 0.0 and dy[5] == 0.0

    def test_differential_thrust_pure_moment(self):
        y = (0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        dy = dynamics_deriv(y, P.F_max, -P.F_max, 0.0, 0.0, P)
        assert dy[3] == 0.0
        assert dy[5] == pytest.approx(2.0 * P.lever * P.F_max / P.m33)

    def test_heading_convention_north_then_east(self):
        # psi = 0: surge moves north; psi = pi/2: surge moves east
        north_rate = dynamics_deriv((0, 0, 0.0, 1.0, 0, 0), 0, 0, 0, 0, P)
        east_rate = dynamics_deriv((0, 0, math.pi / 2, 1.0, 0, 0),
                                   0, 0, 0, 0, P)
        assert north_rate[0] == pytest.approx(1.0)
        assert north_rate[1] == pytest.approx(0.0, abs=1e-12)
        assert east_rate[0] == pytest.approx(0.0, abs=1e-12)
        assert east_rate[1] == pytest.approx(1.0)

    def test_current_adds_to_ground_velocity(self):
        dy = dynamics_deriv((0, 0, 0, 0, 0, 0), 0, 0, 0.3, -0.1, P)
        assert dy[0] == 0.3 and dy[1] == -0.1

    def test_free_decay_dissipates_energy(self):
        rng = random.Random(42)
        env = EnvDisturbance()
        for _ in range(30):
            state = VesselState(u=rng.uniform(-3, 3), v=rng.uniform(-1, 1),
                                r=rng.uniform(-1.5, 1.5),
                                psi=rng.uniform(0, 2 * math.pi))
            energy = kinetic_energy(state, P)
            for _ in range(200):
                state = step_dynamics(state, (0.0, 0.0), env, P, 0.02)
                next_energy = kinetic_energy(state, P)
                assert next_energy <= energy + 1e-12
                energy = next_energy

    def test_psi_stays_wrapped(self):
        state = VesselState(psi=6.2, r=2.0)
        for _ in range(100):
            state = step_dynamics(state, (50.0, -50.0), EnvDisturbance(),
                                  P, 0.02)
            assert 0.0 <= state.psi < 2.0 * math.pi

    def test_dt_bounds_enforced(self):
        state = VesselState()
        with pytest.raises(ValueError):
            step_dynamics(state, (0, 0), EnvDisturbance(), P, 0.2)
        with pytest.raises(ValueError):
            step_dynamics(state, (0, 0), EnvDisturbance(), P, 0.0)

    def test_nonfinite_state_raises_numeric_fault(self):
        state = VesselState(u=float("nan"))
        with pytest.raises(NumericFault):
            step_dynamics(state, (0, 0), EnvDisturbance(), P, 0.02)

    def test_rk4_accuracy_against_fine_euler(self):
        # coarse RK4 vs very fine Euler on a 2 s maneuver
        y_rk = (0.0, 0.0, 0.0, 1.0, 0.0, 0.0)
        for _ in range(40):
            state = VesselState(*y_rk[:6])
            state = step_dynamics(state, (80.0, 20.0), EnvDisturbance(),
                                  P, 0.05)
            y_rk = (state.north, state.east, state.psi,
                    state.u, state.v, state.r)
        y_eu = [0.0, 0.0, 0.0, 1.0, 0.0, 0.0]
        h = 1e-4
        for _ in range(20000):
            dy = dynamics_deriv(tuple(y_eu), 80.0, 20.0, 0.0, 0.0, P)
            y_eu = [y_eu[i] + h * dy[i] for i in range(6)]
        y_eu[2] = wrap_2pi(y_eu[2])
        for a, b in zip(y_rk, y_eu):
            assert a == pytest.approx(b, abs=2e-3)

    def test_rk4_step_is_bitwise_the_generator_form(self):
        def reference(y, fp, fs, cn, ce, p, dt):
            def f(yy):
                return dynamics_deriv(yy, fp, fs, cn, ce, p)

            k1 = f(y)
            k2 = f(tuple(y[i] + 0.5 * dt * k1[i] for i in range(6)))
            k3 = f(tuple(y[i] + 0.5 * dt * k2[i] for i in range(6)))
            k4 = f(tuple(y[i] + dt * k3[i] for i in range(6)))
            return tuple(
                y[i] + dt / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i])
                for i in range(6))

        rng = random.Random(29)
        heavy = VesselParams(m11=300.0, m22=150.0, m33=90.0, lever=0.8)
        for _ in range(20000):
            y = (rng.uniform(-1e3, 1e3), rng.uniform(-1e3, 1e3),
                 rng.uniform(-10.0, 10.0), rng.uniform(-4.0, 4.0),
                 rng.uniform(-1.0, 1.0), rng.uniform(-2.0, 2.0))
            args = (rng.uniform(-P.F_max, P.F_max),
                    rng.uniform(-P.F_max, P.F_max),
                    rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0),
                    rng.choice((P, heavy)), rng.uniform(1e-3, 0.3))
            assert rk4_step(y, *args) == reference(y, *args)


class TestHelpers:
    @pytest.mark.parametrize("x,expected", [(-2.0, -1.0), (-1.0, -1.0),
                                            (0.3, 0.3), (1.0, 1.0),
                                            (7.0, 1.0)])
    def test_saturate(self, x, expected):
        assert saturate(x) == expected

    def test_wrap_2pi(self):
        assert wrap_2pi(-0.1) == pytest.approx(2 * math.pi - 0.1)
        assert wrap_2pi(2 * math.pi + 0.1) == pytest.approx(0.1)
        assert wrap_2pi(0.0) == 0.0
