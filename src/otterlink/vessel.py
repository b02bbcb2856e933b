"""3-DOF planar catamaran model: surge/sway/yaw dynamics, differential
thrust mix, and motor lag with a cold-start delay.

State convention (NED-style, planar): heading psi is 0 at north,
positive clockwise; u is body forward speed, v body starboard speed,
r yaw rate (positive clockwise seen from above).

Dynamics:

    m11 u' = F_port + F_stbd - d1u u - d2u u|u| + m22 v r
    m22 v' = -d1v v - m11 u r
    m33 r' = lever (F_port - F_stbd) - d1r r - (m22 - m11) u v

The (m22 - m11) u v Munk moment keeps the Coriolis terms
energy-conservative, so free decay strictly dissipates kinetic energy.
The default damping coefficients come from the top-speed calibration
identity 2 F_max = d1u v_max + d2u v_max^2 with a 50/50 linear/quadratic
drag split at v_max.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace


class NumericFault(ArithmeticError):
    """The simulation must halt: the state or its derivative became
    non-finite, or the simulated OBC's position fix left the latitude
    and longitude range the wire can carry (an origin at a pole or on
    the antimeridian, which missions do not cross)."""


DEFAULT_V_MAX = 3.0     # m/s, top speed (calibration target)
DEFAULT_F_MAX = 120.0   # N per motor
RPM_MAX = 1100.0        # rev/min at |actual_norm| = 1
MOTOR_SNAP_EPS = 1e-4   # |actual| below this with zero target snaps to 0
STATIONARY_SPEED_EPS = 0.05  # m/s; below this the hull counts as stationary


@dataclass(frozen=True)
class VesselParams:
    m11: float = 120.0    # kg, surge inertia incl. added mass
    m22: float = 180.0    # kg, sway inertia incl. added mass
    m33: float = 50.0     # kg m^2, yaw inertia incl. added mass
    d1u: float = DEFAULT_F_MAX / DEFAULT_V_MAX
    d2u: float = DEFAULT_F_MAX / DEFAULT_V_MAX ** 2
    d1v: float = 200.0
    d1r: float = 80.0
    F_max: float = DEFAULT_F_MAX   # N per motor
    lever: float = 0.54            # m, half thruster separation
    v_max: float = DEFAULT_V_MAX   # m/s
    startup_delay: float = 2.0     # s, cold-start motor delay
    motor_tau: float = 0.5         # s, first-order motor lag

    def __post_init__(self):
        for name in ("m11", "m22", "m33", "d1u", "d2u", "d1v", "d1r",
                     "F_max", "lever", "v_max", "startup_delay", "motor_tau"):
            # a comparison that NaN fails, so NaN is rejected too
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(
                    f"VesselParams.{name} must be positive and finite")
        lhs = 2.0 * self.F_max
        rhs = self.d1u * self.v_max + self.d2u * self.v_max ** 2
        if abs(lhs - rhs) > 1e-6 * lhs:
            raise ValueError(
                "top-speed calibration identity violated: "
                f"2*F_max={lhs} but d1u*v_max + d2u*v_max^2={rhs}")


@dataclass(frozen=True)
class VesselState:
    north: float = 0.0
    east: float = 0.0
    psi: float = 0.0   # rad, [0, 2pi)
    u: float = 0.0     # m/s surge
    v: float = 0.0     # m/s sway
    r: float = 0.0     # rad/s yaw rate
    origin_lat: float = 45.0
    origin_lon: float = -76.0

    def speed(self) -> float:
        return math.hypot(self.u, self.v)


@dataclass(frozen=True)
class EnvDisturbance:
    current_north: float = 0.0  # m/s, world frame
    current_east: float = 0.0


@dataclass(frozen=True)
class MotorState:
    target_norm: float = 0.0
    actual_norm: float = 0.0
    since_stationary_cmd: float = 0.0  # s into a cold-start delay episode
    rpm_signed: float = 0.0

    @property
    def rpm_unsigned(self) -> int:
        return int(round(abs(self.rpm_signed)))


def saturate(x: float) -> float:
    return -1.0 if x < -1.0 else (1.0 if x > 1.0 else x)


def mix(x_norm: float, z_norm: float) -> tuple[float, float]:
    """Normalized surge/torque commands to normalized (port, starboard)
    motor commands.

    Positive z turns the vessel clockwise (to starboard): the port
    motor gets x + z, the starboard motor x - z, both saturated. A
    motor's output follows its input exactly where |output| < 1.
    """
    return saturate(x_norm + z_norm), saturate(x_norm - z_norm)


def unmix(port: float, stbd: float) -> tuple[float, float]:
    """Normalized (port, starboard) motor commands in [-1, 1] to the
    surge/torque commands (x, z) = T (port, starboard), T = 1/2 [[1, 1],
    [1, -1]], that `mix` maps back to them without saturating."""
    return 0.5 * (port + stbd), 0.5 * (port - stbd)


def apply_motor_lag(motor: MotorState, target: float, dt: float,
                    params: VesselParams, stationary: bool) -> MotorState:
    """Advance one motor by dt toward a normalized target.

    A nonzero target arriving while the motor is at rest and the hull
    is stationary produces zero actual thrust until startup_delay has
    elapsed; after that (and in all other cases) the actual value
    relaxes toward the target with time constant motor_tau.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    target = saturate(target)
    since = motor.since_stationary_cmd
    if motor.actual_norm == 0.0 and target != 0.0 and stationary:
        since += dt
        if since < params.startup_delay - 1e-12:
            return MotorState(target, 0.0, since, 0.0)
    actual = motor.actual_norm + (target - motor.actual_norm) * (
        1.0 - math.exp(-dt / params.motor_tau))
    if target == 0.0 and abs(actual) < MOTOR_SNAP_EPS:
        actual = 0.0
    if actual != 0.0 or target == 0.0:
        since = 0.0
    return MotorState(target, actual, since, actual * RPM_MAX)


def dynamics_deriv(y, f_port: float, f_stbd: float,
                   current_north: float, current_east: float,
                   p: VesselParams):
    """Continuous-time derivative of [north, east, psi, u, v, r]."""
    _, _, psi, u, v, r = y
    spsi, cpsi = math.sin(psi), math.cos(psi)
    return (
        u * cpsi - v * spsi + current_north,
        u * spsi + v * cpsi + current_east,
        r,
        (f_port + f_stbd - p.d1u * u - p.d2u * u * abs(u) + p.m22 * v * r) / p.m11,
        (-p.d1v * v - p.m11 * u * r) / p.m22,
        (p.lever * (f_port - f_stbd) - p.d1r * r - (p.m22 - p.m11) * u * v) / p.m33,
    )


def rk4_step(y, f_port, f_stbd, current_north, current_east,
             p: VesselParams, dt: float, stages: list | None = None):
    """One classical RK4 step of the 6-state model; psi left unwrapped.
    A `stages` list gets the step's stage points y2, y3 and y4 appended.

    Written out per component (this runs ~10^5 times per NMPC mission):
    the same float operations in the same order as an index loop, so
    the result is bit-identical to one.
    """
    def f(yy):
        return dynamics_deriv(yy, f_port, f_stbd, current_north, current_east, p)

    n, e, psi, u, v, r = y
    h = 0.5 * dt
    n1, e1, psi1, u1, v1, r1 = f(y)
    y2 = (n + h * n1, e + h * e1, psi + h * psi1,
          u + h * u1, v + h * v1, r + h * r1)
    n2, e2, psi2, u2, v2, r2 = f(y2)
    y3 = (n + h * n2, e + h * e2, psi + h * psi2,
          u + h * u2, v + h * v2, r + h * r2)
    n3, e3, psi3, u3, v3, r3 = f(y3)
    y4 = (n + dt * n3, e + dt * e3, psi + dt * psi3,
          u + dt * u3, v + dt * v3, r + dt * r3)
    n4, e4, psi4, u4, v4, r4 = f(y4)
    if stages is not None:
        stages += (y2, y3, y4)
    w = dt / 6.0
    return (n + w * (n1 + 2.0 * n2 + 2.0 * n3 + n4),
            e + w * (e1 + 2.0 * e2 + 2.0 * e3 + e4),
            psi + w * (psi1 + 2.0 * psi2 + 2.0 * psi3 + psi4),
            u + w * (u1 + 2.0 * u2 + 2.0 * u3 + u4),
            v + w * (v1 + 2.0 * v2 + 2.0 * v3 + v4),
            r + w * (r1 + 2.0 * r2 + 2.0 * r3 + r4))


def wrap_2pi(angle: float) -> float:
    wrapped = math.fmod(angle, 2.0 * math.pi)
    return wrapped + 2.0 * math.pi if wrapped < 0.0 else wrapped


def step_dynamics(state: VesselState, forces: tuple[float, float],
                  env: EnvDisturbance, params: VesselParams,
                  dt: float) -> VesselState:
    """Integrate one time step via RK4; dt must be in (0, 0.1]."""
    if not 0.0 < dt <= 0.1:
        raise ValueError(f"dt must be in (0, 0.1], got {dt}")
    y = (state.north, state.east, state.psi, state.u, state.v, state.r)
    f_port, f_stbd = forces
    out = rk4_step(y, f_port, f_stbd, env.current_north, env.current_east,
                   params, dt)
    if not all(math.isfinite(val) for val in out):
        raise NumericFault(f"non-finite state after step: {out}")
    return replace(state, north=out[0], east=out[1], psi=wrap_2pi(out[2]),
                   u=out[3], v=out[4], r=out[5])


def kinetic_energy(state: VesselState, params: VesselParams) -> float:
    return 0.5 * (params.m11 * state.u ** 2 + params.m22 * state.v ** 2
                  + params.m33 * state.r ** 2)
