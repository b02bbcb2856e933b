"""Plain-text (INI) run configuration.

Sections: [transport], [vessel], [nmpc], [los], [bench], one per field
of `RunConfig`. The keys of a section are the field names of its
dataclass, lowercased (`horizon_T` is `horizon_t`); [vessel] also takes
the fields of `VesselParams` and `EnvDisturbance`. Each value is cast to
its field's type, and a key a file omits keeps its field's default. The
defaults live with the dataclasses: `TransportSection`, `VesselSection`
and `BenchSection` below, `VesselParams` and `EnvDisturbance` in
vessel.py, `NmpcConfig` in nmpc.py and `LosConfig` in guidance.py.
Unknown sections (including [DEFAULT]) or keys are rejected so a typo
cannot silently fall back to a default, and each dataclass checks its
own values, so a bad one (a port outside 1..65535, a negative duration)
is a `ConfigFileError` at load.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, fields, is_dataclass
from typing import get_type_hints

from .guidance import LosConfig
from .nmpc import NmpcConfig
from .obc import SIM_DT
from .transport import Endpoint, RateConfig
from .vessel import EnvDisturbance, VesselParams, VesselState


class ConfigFileError(ValueError):
    pass


@dataclass(frozen=True)
class TransportSection:
    telem_host: str = "127.0.0.1"
    telem_port: int = 10010
    cmd_host: str = "127.0.0.1"
    cmd_port: int = 10011
    rate_hz: float = RateConfig.telemetry_hz

    def __post_init__(self):
        # each raises transport.ConfigError, a ValueError, on a bad value
        Endpoint(self.telem_host, self.telem_port)
        Endpoint(self.cmd_host, self.cmd_port)
        RateConfig(self.rate_hz)

    @property
    def telemetry_endpoint(self) -> Endpoint:
        return Endpoint(self.telem_host, self.telem_port)

    @property
    def command_endpoint(self) -> Endpoint:
        return Endpoint(self.cmd_host, self.cmd_port)


@dataclass(frozen=True)
class VesselSection:
    origin_lat: float = VesselState.origin_lat
    origin_lon: float = VesselState.origin_lon
    params: VesselParams = field(default_factory=VesselParams)
    env: EnvDisturbance = field(default_factory=EnvDisturbance)

    def __post_init__(self):
        # comparisons that NaN fails, so NaN is rejected too; a mission
        # that crosses the antimeridian is out of scope
        if not -90.0 < self.origin_lat < 90.0:
            raise ValueError("origin_lat must be in (-90, 90)")
        if not -180.0 <= self.origin_lon <= 180.0:
            raise ValueError("origin_lon must be in [-180, 180]")


@dataclass(frozen=True)
class BenchSection:
    amplitude: float = 20.0
    target_laps: float = 1.0    # 0: no lap target, fly the whole duration
    duration: float = 600.0
    dropout_start: float = -1.0  # <0 disables the injected dropout
    dropout_duration: float = 3.0

    def __post_init__(self):
        # comparisons that NaN fails, so NaN is rejected too
        if not 0.0 < self.amplitude < math.inf:
            raise ValueError("amplitude must be finite and > 0")
        if not (0.0 < self.duration < math.inf
                and round(self.duration / SIM_DT) >= 1):
            raise ValueError("duration must be finite and round to at "
                             f"least one {SIM_DT} s step")
        if not 0.0 <= self.target_laps < math.inf:
            raise ValueError("target_laps must be finite and >= 0")
        if not self.dropout_start < math.inf:
            raise ValueError("dropout_start must not be NaN or inf")
        if not self.dropout_duration >= 0.0:
            raise ValueError("dropout_duration must be >= 0")


@dataclass(frozen=True)
class RunConfig:
    transport: TransportSection = field(default_factory=TransportSection)
    vessel: VesselSection = field(default_factory=VesselSection)
    nmpc: NmpcConfig = field(default_factory=NmpcConfig)
    los: LosConfig = field(default_factory=LosConfig)
    bench: BenchSection = field(default_factory=BenchSection)


def _fields(cls) -> list[tuple[str, type]]:
    """(name, type) of each field; the annotations are strings under
    `from __future__ import annotations`, so they are resolved here."""
    hints = get_type_hints(cls)
    return [(f.name, hints[f.name]) for f in fields(cls)]


def _keys(cls) -> set[str]:
    """The INI keys of a section: its field names as configparser
    delivers them (lowercased), a nested dataclass's fields flattened in."""
    keys = set()
    for name, kind in _fields(cls):
        keys |= _keys(kind) if is_dataclass(kind) else {name.lower()}
    return keys


def _value(key: str, raw: str, kind):
    try:
        return kind(raw)
    except ValueError as exc:
        raise ConfigFileError(f"bad value for {key}: {raw!r}") from exc


def _build(cls, section):
    """An instance of a section dataclass; omitted keys are not passed,
    so the dataclass's own defaults apply."""
    kwargs = {}
    for name, kind in _fields(cls):
        if is_dataclass(kind):
            kwargs[name] = _build(kind, section)
        elif name.lower() in section:
            kwargs[name] = _value(name.lower(), section[name.lower()], kind)
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigFileError(str(exc)) from exc


def load_config(path: str | None = None) -> RunConfig:
    """Parse a config file; with no path, return all defaults."""
    if path is None:
        return RunConfig()
    # no section header can spell a newline, so a file's [DEFAULT] is an
    # ordinary section (rejected below), not defaults for every section
    parser = configparser.ConfigParser(default_section="\n")
    # configparser raises on a file without a section header, a repeated
    # key or section, and on reading a value it cannot `%`-interpolate;
    # reading raises UnicodeDecodeError on bytes the locale cannot decode
    try:
        if not parser.read(path):
            raise ConfigFileError(f"cannot read config file {path!r}")
        sections = dict(_fields(RunConfig))
        for name in parser.sections():
            if name not in sections:
                raise ConfigFileError(f"unknown config section [{name}]")
            keys = _keys(sections[name])
            for key in parser[name]:
                if key not in keys:
                    raise ConfigFileError(
                        f"unknown key {key!r} in section [{name}]")
        return RunConfig(**{
            name: _build(cls, parser[name] if parser.has_section(name) else {})
            for name, cls in sections.items()})
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigFileError(f"bad config file {path!r}: {exc}") from exc
