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
from dataclasses import dataclass


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
    """One classical RK4 step of the 6-state model of `dynamics_deriv`;
    psi left unwrapped. A `stages` list gets the step's stage points y2,
    y3 and y4 appended.

    The model is written out inline, its parameters read once (this runs
    ~10^5 times per NMPC mission): the same float operations in the same
    order as four `dynamics_deriv` calls and an index loop, so the
    result is bit-identical to them.
    """
    d1u, d2u, d1v, d1r = p.d1u, p.d2u, p.d1v, p.d1r
    m11, m22, m33 = p.m11, p.m22, p.m33
    thrust = f_port + f_stbd
    moment = p.lever * (f_port - f_stbd)
    munk = m22 - m11
    n, e, psi, u, v, r = y
    h = 0.5 * dt
    s, c = math.sin(psi), math.cos(psi)
    dn1 = u * c - v * s + current_north
    de1 = u * s + v * c + current_east
    du1 = (thrust - d1u * u - d2u * u * abs(u) + m22 * v * r) / m11
    dv1 = (-d1v * v - m11 * u * r) / m22
    dr1 = (moment - d1r * r - munk * u * v) / m33
    y2 = (n + h * dn1, e + h * de1, psi + h * r, u + h * du1, v + h * dv1,
          r + h * dr1)
    _, _, psi2, u2, v2, r2 = y2
    s, c = math.sin(psi2), math.cos(psi2)
    dn2 = u2 * c - v2 * s + current_north
    de2 = u2 * s + v2 * c + current_east
    du2 = (thrust - d1u * u2 - d2u * u2 * abs(u2) + m22 * v2 * r2) / m11
    dv2 = (-d1v * v2 - m11 * u2 * r2) / m22
    dr2 = (moment - d1r * r2 - munk * u2 * v2) / m33
    y3 = (n + h * dn2, e + h * de2, psi + h * r2, u + h * du2, v + h * dv2,
          r + h * dr2)
    _, _, psi3, u3, v3, r3 = y3
    s, c = math.sin(psi3), math.cos(psi3)
    dn3 = u3 * c - v3 * s + current_north
    de3 = u3 * s + v3 * c + current_east
    du3 = (thrust - d1u * u3 - d2u * u3 * abs(u3) + m22 * v3 * r3) / m11
    dv3 = (-d1v * v3 - m11 * u3 * r3) / m22
    dr3 = (moment - d1r * r3 - munk * u3 * v3) / m33
    y4 = (n + dt * dn3, e + dt * de3, psi + dt * r3, u + dt * du3,
          v + dt * dv3, r + dt * dr3)
    _, _, psi4, u4, v4, r4 = y4
    s, c = math.sin(psi4), math.cos(psi4)
    dn4 = u4 * c - v4 * s + current_north
    de4 = u4 * s + v4 * c + current_east
    du4 = (thrust - d1u * u4 - d2u * u4 * abs(u4) + m22 * v4 * r4) / m11
    dv4 = (-d1v * v4 - m11 * u4 * r4) / m22
    dr4 = (moment - d1r * r4 - munk * u4 * v4) / m33
    if stages is not None:
        stages += (y2, y3, y4)
    w = dt / 6.0
    return (n + w * (dn1 + 2.0 * dn2 + 2.0 * dn3 + dn4),
            e + w * (de1 + 2.0 * de2 + 2.0 * de3 + de4),
            psi + w * (r + 2.0 * r2 + 2.0 * r3 + r4),
            u + w * (du1 + 2.0 * du2 + 2.0 * du3 + du4),
            v + w * (dv1 + 2.0 * dv2 + 2.0 * dv3 + dv4),
            r + w * (dr1 + 2.0 * dr2 + 2.0 * dr3 + dr4))


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
    if not all(map(math.isfinite, out)):
        raise NumericFault(f"non-finite state after step: {out}")
    north, east, psi, u, v, r = out
    return VesselState(north, east, wrap_2pi(psi), u, v, r,
                       state.origin_lat, state.origin_lon)


def kinetic_energy(state: VesselState, params: VesselParams) -> float:
    return 0.5 * (params.m11 * state.u ** 2 + params.m22 * state.v ** 2
                  + params.m33 * state.r ** 2)
