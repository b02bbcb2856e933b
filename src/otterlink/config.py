"""Plain-text (INI) run configuration.

Sections: [transport], [vessel], [nmpc], [los], [bench]. Every key has
a documented default below; unknown sections or keys are rejected so a
typo cannot silently fall back to a default.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field

from .guidance import LosConfig
from .nmpc import NmpcConfig
from .transport import Endpoint, RateConfig
from .vessel import EnvDisturbance, VesselParams


class ConfigFileError(ValueError):
    pass


@dataclass(frozen=True)
class TransportSection:
    telem_host: str = "127.0.0.1"
    telem_port: int = 10010
    cmd_host: str = "127.0.0.1"
    cmd_port: int = 10011
    rate_hz: float = 10.0

    @property
    def telemetry_endpoint(self) -> Endpoint:
        return Endpoint(self.telem_host, self.telem_port)

    @property
    def command_endpoint(self) -> Endpoint:
        return Endpoint(self.cmd_host, self.cmd_port)

    @property
    def rate(self) -> RateConfig:
        return RateConfig(self.rate_hz)


@dataclass(frozen=True)
class VesselSection:
    origin_lat: float = 45.0
    origin_lon: float = -76.0
    current_north: float = 0.0
    current_east: float = 0.0
    params: VesselParams = field(default_factory=VesselParams)

    @property
    def env(self) -> EnvDisturbance:
        return EnvDisturbance(self.current_north, self.current_east)


@dataclass(frozen=True)
class BenchSection:
    amplitude: float = 20.0
    target_laps: float = 1.0
    duration: float = 600.0
    dropout_start: float = -1.0  # <0 disables the injected dropout
    dropout_duration: float = 3.0


@dataclass(frozen=True)
class RunConfig:
    transport: TransportSection = field(default_factory=TransportSection)
    vessel: VesselSection = field(default_factory=VesselSection)
    nmpc: NmpcConfig = field(default_factory=NmpcConfig)
    los: LosConfig = field(default_factory=LosConfig)
    bench: BenchSection = field(default_factory=BenchSection)


_VESSEL_PARAM_KEYS = ("m11", "m22", "m33", "d1u", "d2u", "d1v", "d1r",
                      "f_max", "lever", "v_max", "startup_delay", "motor_tau")
_NMPC_KEYS = ("horizon_t", "steps_n", "w_ct", "w_head", "w_speed", "w_u",
              "w_du", "ref_speed", "max_iters", "grad_tol", "time_budget_s")
_SCHEMA = {
    "transport": ("telem_host", "telem_port", "cmd_host", "cmd_port",
                  "rate_hz"),
    "vessel": ("origin_lat", "origin_lon", "current_north", "current_east")
              + _VESSEL_PARAM_KEYS,
    "nmpc": _NMPC_KEYS,
    "los": ("lookahead", "accept_radius", "speed"),
    "bench": ("amplitude", "target_laps", "duration", "dropout_start",
              "dropout_duration"),
}


def _get(section, key, cast, default):
    if key not in section:
        return default
    raw = section[key]
    try:
        if cast is bool:
            return raw.strip().lower() in ("1", "true", "yes", "on")
        return cast(raw)
    except ValueError as exc:
        raise ConfigFileError(f"bad value for {key}: {raw!r}") from exc


def load_config(path: str | None = None) -> RunConfig:
    """Parse a config file; with no path, return all defaults."""
    if path is None:
        return RunConfig()
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigFileError(f"cannot read config file {path!r}")
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigFileError(f"unknown config section [{section}]")
        for key in parser[section]:
            if key not in _SCHEMA[section]:
                raise ConfigFileError(
                    f"unknown key {key!r} in section [{section}]")

    tr = parser["transport"] if parser.has_section("transport") else {}
    transport = TransportSection(
        telem_host=_get(tr, "telem_host", str, "127.0.0.1"),
        telem_port=_get(tr, "telem_port", int, 10010),
        cmd_host=_get(tr, "cmd_host", str, "127.0.0.1"),
        cmd_port=_get(tr, "cmd_port", int, 10011),
        rate_hz=_get(tr, "rate_hz", float, 10.0),
    )

    vs = parser["vessel"] if parser.has_section("vessel") else {}
    defaults = VesselParams()
    try:
        params = VesselParams(
            m11=_get(vs, "m11", float, defaults.m11),
            m22=_get(vs, "m22", float, defaults.m22),
            m33=_get(vs, "m33", float, defaults.m33),
            d1u=_get(vs, "d1u", float, defaults.d1u),
            d2u=_get(vs, "d2u", float, defaults.d2u),
            d1v=_get(vs, "d1v", float, defaults.d1v),
            d1r=_get(vs, "d1r", float, defaults.d1r),
            F_max=_get(vs, "f_max", float, defaults.F_max),
            lever=_get(vs, "lever", float, defaults.lever),
            v_max=_get(vs, "v_max", float, defaults.v_max),
            startup_delay=_get(vs, "startup_delay", float,
                               defaults.startup_delay),
            motor_tau=_get(vs, "motor_tau", float, defaults.motor_tau),
        )
    except ValueError as exc:
        raise ConfigFileError(str(exc)) from exc
    vessel = VesselSection(
        origin_lat=_get(vs, "origin_lat", float, 45.0),
        origin_lon=_get(vs, "origin_lon", float, -76.0),
        current_north=_get(vs, "current_north", float, 0.0),
        current_east=_get(vs, "current_east", float, 0.0),
        params=params,
    )

    nm = parser["nmpc"] if parser.has_section("nmpc") else {}
    if "time_budget_s" in nm:
        raw = nm["time_budget_s"].strip().lower()
        budget = None if raw in ("", "none") else float(raw)
    else:
        budget = NmpcConfig().time_budget_s
    try:
        nmpc = NmpcConfig(
            horizon_T=_get(nm, "horizon_t", float, 4.0),
            steps_N=_get(nm, "steps_n", int, 20),
            w_ct=_get(nm, "w_ct", float, 10.0),
            w_head=_get(nm, "w_head", float, 2.0),
            w_speed=_get(nm, "w_speed", float, 1.0),
            w_u=_get(nm, "w_u", float, 0.1),
            w_du=_get(nm, "w_du", float, 0.5),
            ref_speed=_get(nm, "ref_speed", float, 1.0),
            max_iters=_get(nm, "max_iters", int, 40),
            grad_tol=_get(nm, "grad_tol", float, 1e-3),
            time_budget_s=budget,
        )
        ls = parser["los"] if parser.has_section("los") else {}
        los = LosConfig(
            lookahead=_get(ls, "lookahead", float, 8.0),
            accept_radius=_get(ls, "accept_radius", float, 2.0),
            speed=_get(ls, "speed", float, 1.0),
        )
    except ValueError as exc:
        raise ConfigFileError(str(exc)) from exc

    bn = parser["bench"] if parser.has_section("bench") else {}
    bench = BenchSection(
        amplitude=_get(bn, "amplitude", float, 20.0),
        target_laps=_get(bn, "target_laps", float, 1.0),
        duration=_get(bn, "duration", float, 600.0),
        dropout_start=_get(bn, "dropout_start", float, -1.0),
        dropout_duration=_get(bn, "dropout_duration", float, 3.0),
    )
    return RunConfig(transport=transport, vessel=vessel, nmpc=nmpc,
                     los=los, bench=bench)
