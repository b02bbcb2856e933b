"""Simulated Otter onboard computer.

Runs the 3-DOF hull model at a fixed 20 ms internal step, applies the
active control mode (drift / manual / station keeping / course+speed),
and emits telemetry sentences: position and attitude at the configured
telemetry rate, status and time at 1 Hz.

Reported motor RPM is always unsigned, matching the real interface's
inability to show propeller direction.
"""

from __future__ import annotations

import math

from . import codec, geo
from .transport import RateConfig
from .vessel import (EnvDisturbance, MotorState, NumericFault,
                     STATIONARY_SPEED_EPS, VesselParams, VesselState,
                     apply_motor_lag, dynamics_deriv, mix, saturate,
                     step_dynamics)

SIM_DT = 0.02          # s, internal physics step
STATUS_HZ = 1.0
UTC_DATE = 20250101
DEFAULT_UTC0 = 43200.0  # seconds of day at t = 0

IDLE_POWER_W = 35.0
FULL_POWER_W = 900.0      # both motors at full
BATTERY_WH = 1800.0


# the built-in autopilots are vendor firmware with fixed gains: cascaded
# PI/PD for course and speed, and station keeping on top of it
KP_PSI = 0.4       # per rad
KD_PSI = 0.35      # per rad/s
KP_U = 1.0         # per m/s
KI_U = 0.3         # per m
INTEG_LIMIT = 2.0  # m, speed integrator clamp
SK_DEADBAND = 2.0  # m
SK_GAIN = 0.2      # 1/s, distance-to-speed gain


def wrap_deg180(angle: float) -> float:
    """Wrap degrees to (-180, 180]."""
    wrapped = math.fmod(angle, 360.0)
    if wrapped <= -180.0:
        wrapped += 360.0
    elif wrapped > 180.0:
        wrapped -= 360.0
    return wrapped


def builtin_course_speed(state: VesselState, course_cmd: float,
                         speed_cmd: float,
                         integ: float) -> tuple[float, float, float]:
    """Cascaded PI/PD: PD on heading error, PI on speed error, for one
    SIM_DT physics step.

    Returns (x_norm, z_norm, new_integrator). The speed integrator is
    clamped (anti-windup) and both outputs are clamped to [-1, 1].
    """
    err_deg = wrap_deg180(course_cmd - math.degrees(state.psi))
    z = KP_PSI * math.radians(err_deg) - KD_PSI * state.r
    err_u = speed_cmd - state.u
    integ = max(-INTEG_LIMIT, min(INTEG_LIMIT, integ + err_u * SIM_DT))
    x = KP_U * err_u + KI_U * integ
    return saturate(x), saturate(z), integ


def builtin_station_keep(state: VesselState, target_lat: float,
                         target_lon: float, speed_cap: float,
                         integ: float) -> tuple[float, float, float]:
    """Steer toward the target outside the deadband, drift inside it.

    Returns (x_norm, z_norm, new_integrator).
    """
    tn, te = geo.latlon_to_local(target_lat, target_lon,
                                 state.origin_lat, state.origin_lon)
    dn, de = tn - state.north, te - state.east
    dist = math.hypot(dn, de)
    if dist < SK_DEADBAND:
        return 0.0, 0.0, 0.0
    course = math.degrees(math.atan2(de, dn)) % 360.0
    speed = min(speed_cap, SK_GAIN * dist)
    return builtin_course_speed(state, course, speed, integ)


class OtterObc:
    """Single-owner simulated OBC: call handle_command and tick from
    one driving context."""

    def __init__(self, params: VesselParams = VesselParams(),
                 telemetry_hz: float = RateConfig.telemetry_hz,
                 env: EnvDisturbance = EnvDisturbance(),
                 initial_state: VesselState = VesselState()):
        RateConfig(telemetry_hz)  # raises ConfigError, a ValueError
        self.params = params
        self.env = env
        self.state = initial_state
        self.mode: codec.OtterMessage = codec.DriftCmd(True)
        self.motor_port = MotorState()
        self.motor_stbd = MotorState()
        self.telemetry_hz = telemetry_hz
        self.utc0 = DEFAULT_UTC0
        self.battery = 100.0
        self.power = IDLE_POWER_W
        self.t = 0.0
        self._next_nav = 1.0 / telemetry_hz
        self._next_status = 1.0 / STATUS_HZ
        self._integ_u = 0.0

    # -- commands -----------------------------------------------------

    def handle_command(self, msg: codec.OtterMessage) -> None:
        """Make a validated command message the active mode.

        DriftCmd(False) is ignored; a mode change resets the speed
        integrator.
        """
        if type(msg) not in codec.COMMAND_MODES:
            raise TypeError(f"not a command message: {type(msg).__name__}")
        if isinstance(msg, codec.DriftCmd) and not msg.on:
            return
        if type(msg) is not type(self.mode):
            self._integ_u = 0.0
        self.mode = msg

    @property
    def mode_tag(self) -> str:
        return codec.COMMAND_MODES[type(self.mode)]

    # -- stepping -----------------------------------------------------

    def _mode_outputs(self) -> tuple[float, float]:
        mode = self.mode
        if isinstance(mode, codec.ManualCmd):
            # y is carried on the wire but deliberately discarded
            return saturate(mode.x), saturate(mode.z)
        if isinstance(mode, codec.CourseSpeedCmd):
            x, z, self._integ_u = builtin_course_speed(
                self.state, mode.course, mode.speed, self._integ_u)
            return x, z
        if isinstance(mode, codec.StationKeepCmd):
            x, z, self._integ_u = builtin_station_keep(
                self.state, mode.lat, mode.lon, mode.speed, self._integ_u)
            return x, z
        return 0.0, 0.0

    def _step_once(self) -> None:
        x, z = self._mode_outputs()
        stationary = (self.state.speed() < STATIONARY_SPEED_EPS
                      and self.motor_port.actual_norm == 0.0
                      and self.motor_stbd.actual_norm == 0.0)
        port, stbd = mix(x, z)
        self.motor_port = apply_motor_lag(
            self.motor_port, port, SIM_DT, self.params, stationary)
        self.motor_stbd = apply_motor_lag(
            self.motor_stbd, stbd, SIM_DT, self.params, stationary)
        f_port = self.params.F_max * self.motor_port.actual_norm
        f_stbd = self.params.F_max * self.motor_stbd.actual_norm
        self.state = step_dynamics(self.state, (f_port, f_stbd), self.env,
                                   self.params, SIM_DT)
        load = (abs(self.motor_port.actual_norm)
                + abs(self.motor_stbd.actual_norm)) / 2.0
        self.power = IDLE_POWER_W + (FULL_POWER_W - IDLE_POWER_W) * load
        self.battery = max(
            0.0, self.battery - self.power * SIM_DT / 3600.0 / BATTERY_WH * 100.0)
        self.t += SIM_DT

    def tick(self, now: float) -> list[str]:
        """Advance physics up to `now` and return due telemetry lines."""
        if now < self.t - 1e-9:
            raise ValueError("tick time must be monotone")
        lines: list[str] = []
        while self.t + SIM_DT <= now + 1e-9:
            self._step_once()
            if self.t + 1e-9 >= self._next_nav:
                self._next_nav += 1.0 / self.telemetry_hz
                try:
                    lines.append(codec.encode_sentence(self._pos_report()))
                except codec.RangeError as exc:
                    # utc and cog wrap and sog is finite: it is lat/lon
                    raise NumericFault(
                        f"position fix off the wire's range: {exc}") from exc
                lines.append(codec.encode_sentence(self._att_report()))
            if self.t + 1e-9 >= self._next_status:
                self._next_status += 1.0 / STATUS_HZ
                lines.append(codec.encode_sentence(self._status_report()))
                lines.append(codec.encode_sentence(self._time_report()))
        return lines

    # -- telemetry ----------------------------------------------------

    def _utc(self) -> float:
        return (self.utc0 + self.t) % 86400.0

    def _pos_report(self) -> codec.PosReport:
        s = self.state
        lat, lon = geo.local_to_latlon(s.north, s.east,
                                       s.origin_lat, s.origin_lon)
        # the thrusts do not enter the two kinematic rows
        ndot, edot = dynamics_deriv(
            (s.north, s.east, s.psi, s.u, s.v, s.r), 0.0, 0.0,
            self.env.current_north, self.env.current_east, self.params)[:2]
        sog = math.hypot(ndot, edot)
        if sog > 1e-3:
            cog = math.degrees(math.atan2(edot, ndot)) % 360.0
        else:
            cog = math.degrees(s.psi) % 360.0
        return codec.PosReport(self._utc(), lat, lon, 0.0, sog, cog)

    def _att_report(self) -> codec.AttReport:
        s = self.state
        return codec.AttReport(self._utc(), 0.0, 0.0,
                               math.degrees(s.psi) % 360.0,
                               0.0, 0.0, math.degrees(s.r))

    def _status_report(self) -> codec.StatusReport:
        return codec.StatusReport(self.mode_tag,
                                  self.motor_port.rpm_unsigned,
                                  self.motor_stbd.rpm_unsigned,
                                  22.5, self.battery, self.power)

    def _time_report(self) -> codec.TimeReport:
        return codec.TimeReport(UTC_DATE, self._utc())
