"""NMEA-0183-style sentence codec for the Otter backseat link.

Framing follows the usual NMEA convention: ``$`` + payload + ``*`` +
two uppercase hex digits (XOR of the payload bytes) + CRLF. ``unframe``,
where text arrives from outside, holds the payload character rule.

Each message dataclass is the one declaration of its wire format: its
fields, in order, are the wire fields, and each carries its `Field`
spec (kind, rendered precision, range) as metadata. ``CATALOG`` adds
each type's tag, topics and direction. The encoder, decoder, client
gateway, embedded runner and log columns all derive from the two.
Fields render at fixed precision, and the decoder accepts exactly the
texts the encoder renders, so decode-then-encode reproduces a line.
The decoder keeps, per field, the last text it accepted and the value
it parsed to, and returns that same value object when the text repeats
(see `_parse`).

See docs/protocol.md for the full grammar in ABNF.
"""

from __future__ import annotations

import dataclasses
import math
import operator
from dataclasses import dataclass, field
from typing import Union

from .vessel import DEFAULT_V_MAX as V_MAX  # m/s, commanded-speed ceiling

CRLF = "\r\n"


class CodecError(ValueError):
    """Base class for all encode/decode failures."""


class FramingError(CodecError):
    """Line is not a well-formed ``$payload*hh`` frame."""


class ChecksumError(CodecError):
    """Frame checksum does not match the payload."""


class UnknownSentenceError(CodecError):
    """Talker/tag (or CMD subcommand) is not part of the catalog."""


class MalformedFieldError(CodecError):
    """Wrong field count, or a field's text is not one the encoder
    renders."""


class RangeError(CodecError):
    """A field value violates its documented range."""


# -- wire fields ----------------------------------------------------------

FLOAT, UINT, DATE, MODE, FLAG = "float", "uint", "date", "mode", "flag"
_FORMATS = {UINT: "d", DATE: "08d", MODE: "", FLAG: "d"}
# wire text -> value, by kind, FLOAT aside; rendering the value gives
# the text back
_PARSERS = {UINT: int, DATE: int, MODE: str,
            FLAG: {"0": False, "1": True}.__getitem__}


@dataclass(frozen=True)
class Field:
    """How one wire field renders, and the closed range [lo, hi] its
    rendered value must lie in. `name` is the message attribute it
    carries, filled in by `Message` from the dataclass field.

    A periodic field's range is [0, hi): a value that renders as ``hi``
    (``360.00`` for a heading) goes on the wire as zero, and a decoder
    rejects ``hi`` itself.
    """

    kind: str = FLOAT  # FLOAT fixed-decimal, UINT, DATE (yyyymmdd), MODE, FLAG
    decimals: int = 2  # FLOAT only
    lo: float = -math.inf
    hi: float = math.inf
    periodic: bool = False
    name: str = ""
    fmt: str = field(init=False)  # format spec of the wire text

    def __post_init__(self):
        object.__setattr__(self, "fmt", f".{self.decimals}f"
                           if self.kind == FLOAT else _FORMATS[self.kind])

    def _out_of_range(self, value) -> bool:
        """True when a value of this UINT, DATE, MODE or FLAG field may
        not appear on the wire: outside the range, or of the wrong type
        (a UINT or DATE takes only what operator.index accepts).

        Not for a FLOAT field, which it would refuse whatever the value:
        `_render` and `_parse` check a FLOAT field's float inline, as
        they run per field of every sentence."""
        if self.kind == MODE:
            return value not in MODE_TAGS
        if self.kind == FLAG:
            # rendered from truthiness; only a non-finite float is refused
            return isinstance(value, float) and not math.isfinite(value)
        try:
            value = operator.index(value)
        except TypeError:
            return True
        return not self.lo <= value <= self.hi

    def range_error(self, value) -> RangeError:
        close = ")" if self.periodic else "]"
        allowed = (MODE_TAGS if self.kind == MODE
                   else f"[{self.lo:.15g}, {self.hi:.15g}{close}")
        if self.kind in (UINT, DATE):
            allowed = f"the integers in {allowed}"
        try:
            shown = repr(value)
        except ValueError:  # an int past sys.get_int_max_str_digits()
            shown = f"an integer of {value.bit_length()} bits"
        return RangeError(f"field {self.name!r}: {shown} not in {allowed}")


def _wire(spec: Field | None = None, **kwargs):
    """A message dataclass field carried on the wire as `spec`, or as
    ``Field(**kwargs)``."""
    return field(metadata={"wire": spec or Field(**kwargs)})


_UTC = Field(lo=0.0, hi=86400.0, periodic=True)  # seconds of day
_LAT = Field(decimals=7, lo=-90.0, hi=90.0)  # deg
_LON = Field(decimals=7, lo=-180.0, hi=180.0)  # deg
_HEADING = Field(lo=0.0, hi=360.0, periodic=True)  # deg
_SPEED = Field(lo=0.0, hi=V_MAX)  # m/s
_FORCE = Field(decimals=3, lo=-1.0, hi=1.0)  # normalized


@dataclass(frozen=True)
class PosReport:
    """Position fix broadcast: $POTPOS."""

    utc: float = _wire(_UTC)
    lat: float = _wire(_LAT)
    lon: float = _wire(_LON)
    alt: float = _wire()  # m
    sog: float = _wire(lo=0.0)  # m/s
    cog: float = _wire(_HEADING)


@dataclass(frozen=True)
class AttReport:
    """Orientation and angular-rate broadcast: $POTATT."""

    utc: float = _wire(_UTC)
    roll: float = _wire()  # deg
    pitch: float = _wire()  # deg
    yaw: float = _wire(_HEADING)
    p: float = _wire()  # deg/s
    q: float = _wire()  # deg/s
    r: float = _wire()  # deg/s


@dataclass(frozen=True)
class StatusReport:
    """Mode / motor / battery / power broadcast: $POTSTA."""

    mode: str = _wire(kind=MODE)  # one of MODE_TAGS
    rpm_port: int = _wire(kind=UINT, lo=0)  # unsigned rev/min
    rpm_stbd: int = _wire(kind=UINT, lo=0)  # unsigned rev/min
    temp: float = _wire(decimals=1)  # degC
    battery: float = _wire(decimals=1, lo=0.0, hi=100.0)  # percent
    power: float = _wire(decimals=1)  # W


@dataclass(frozen=True)
class TimeReport:
    """UTC date/time broadcast: $POTTIM."""

    utc_date: int = _wire(kind=DATE, lo=19000101, hi=99991231)  # yyyymmdd
    utc_time: float = _wire(_UTC)


@dataclass(frozen=True)
class DriftCmd:
    """Motors-off command: $POTCMD,DRIFT."""

    on: bool = _wire(kind=FLAG)


@dataclass(frozen=True)
class ManualCmd:
    """Direct motor input command: $POTCMD,MAN.

    ``y`` (sway) is carried on the wire but has no effect downstream.
    """

    x: float = _wire(_FORCE)  # surge force
    y: float = _wire(decimals=3)  # ignored
    z: float = _wire(_FORCE)  # torque


@dataclass(frozen=True)
class StationKeepCmd:
    """GNSS station-keeping command: $POTCMD,SK."""

    lat: float = _wire(_LAT)
    lon: float = _wire(_LON)
    speed: float = _wire(_SPEED)  # cap


@dataclass(frozen=True)
class CourseSpeedCmd:
    """Course-and-speed command: $POTCMD,CRS."""

    course: float = _wire(lo=0.0, hi=360.0)  # deg, closed: not periodic
    speed: float = _wire(_SPEED)


OtterMessage = Union[
    PosReport, AttReport, StatusReport, TimeReport,
    DriftCmd, ManualCmd, StationKeepCmd, CourseSpeedCmd,
]


# every checksum field the framing allows: two uppercase hex digits
_HEX_PAIRS = frozenset(f"{b:02X}" for b in range(256))


def compute_checksum(payload: str) -> str:
    """XOR of all payload bytes, as two uppercase hex digits."""
    acc = 0
    for byte in payload.encode("ascii"):
        acc ^= byte
    return f"{acc:02X}"


def frame(payload: str) -> str:
    """Wrap a payload into a complete wire line with checksum and CRLF."""
    return f"${payload}*{compute_checksum(payload)}{CRLF}"


def unframe(line: str) -> str:
    """Validate framing and checksum, return the bare payload: printable
    ASCII without ``$`` or ``*``. ``frame`` need not check, as the
    encoder renders only catalog tags and formatted numbers."""
    body = line
    if body.endswith(CRLF):
        body = body[:-2]
    elif body.endswith("\n"):
        body = body.rstrip("\r\n")
    if not body.startswith("$"):
        raise FramingError("line does not start with '$'")
    body = body[1:]
    if body.count("*") != 1:
        raise FramingError("expected exactly one '*' delimiter")
    payload, checksum = body.split("*")
    if not (payload.isascii() and payload.isprintable()) or "$" in payload:
        raise FramingError(f"payload holds a forbidden character: "
                           f"{payload!r}")
    if checksum not in _HEX_PAIRS:
        raise FramingError(f"bad checksum field {checksum!r}")
    expect = compute_checksum(payload)
    if checksum != expect:
        raise ChecksumError(f"checksum {checksum} != computed {expect}")
    return payload


# -- the message catalog --------------------------------------------------

class Message:
    """Catalog entry for one sentence type: its class, whose dataclass
    fields are its wire fields in order, its wire tag and the topics it
    maps to.

    A topic given by name alone carries every field, in wire order.
    """

    def __init__(self, cls, tag: str, topics, command: bool = False):
        self.cls = cls
        self.tag = tag  # a command's tag is "POTCMD,<subcommand>"
        self.fields = tuple(dataclasses.replace(f.metadata["wire"],
                                                name=f.name)
                            for f in dataclasses.fields(cls))
        names = tuple(f.name for f in self.fields)
        self.topics = tuple((t, names) if isinstance(t, str) else t
                            for t in topics)
        self.command = command  # sent to the vehicle rather than by it
        # per field, the last text `_parse` accepted and its value
        self._parsed = [(None, None)] * len(self.fields)


CATALOG = (
    Message(PosReport, "POTPOS",
            [("otter_gps", ("utc", "lat", "lon", "alt")),
             ("otter_cogsog", ("utc", "cog", "sog"))]),
    Message(AttReport, "POTATT", ["otter_imu"]),
    Message(StatusReport, "POTSTA", ["otter_status"]),
    Message(TimeReport, "POTTIM", ["otter_gps_time"]),
    Message(DriftCmd, "POTCMD,DRIFT", ["drift_cmds"], command=True),
    Message(ManualCmd, "POTCMD,MAN", ["control_cmds"], command=True),
    Message(StationKeepCmd, "POTCMD,SK", ["station_keeping_cmds"],
            command=True),
    Message(CourseSpeedCmd, "POTCMD,CRS", ["course_speed_cmds"],
            command=True),
)

_BY_CLASS = {m.cls: m for m in CATALOG}
_BY_TAG = {m.tag: m for m in CATALOG}
# talkers whose second wire field selects the message (POTCMD,<sub>)
_WITH_SUBCOMMAND = {m.tag.split(",")[0] for m in CATALOG if "," in m.tag}

# command type -> the vehicle mode it selects, named by its subcommand
COMMAND_MODES = {m.cls: m.tag.split(",")[1] for m in CATALOG if m.command}
MODE_TAGS = tuple(COMMAND_MODES.values())  # DRIFT, MAN, SK, CRS

# topic -> payload columns, for every topic a message maps to
TOPIC_COLUMNS = {topic: cols for m in CATALOG for topic, cols in m.topics}


def _message_of(msg: OtterMessage) -> Message:
    """The catalog entry of a message instance."""
    entry = _BY_CLASS.get(type(msg))
    if entry is None:
        raise UnknownSentenceError(
            f"not an OtterMessage: {type(msg).__name__}")
    return entry


def topic_payloads(msg: OtterMessage) -> list[tuple[str, dict]]:
    """The (topic, payload) pairs a message fans out to, in catalog order."""
    return [(topic, {c: getattr(msg, c) for c in cols})
            for topic, cols in _message_of(msg).topics]


def _render(entry: Message, msg: OtterMessage) -> list[str]:
    """Wire text of each field. Ranges are checked on the rendered value,
    which is exactly what a decoder parses, so every line the encoder
    emits decodes."""
    texts = []
    for f in entry.fields:
        value = getattr(msg, f.name)
        if f.kind == FLOAT:
            try:
                text = format(value, f.fmt)
                value = float(text)  # a complex value does not parse
            except (TypeError, ValueError, OverflowError):
                raise f.range_error(value) from None
            if not (math.isfinite(value) and f.lo <= value <= f.hi):
                raise f.range_error(value)
        elif f._out_of_range(value):
            raise f.range_error(value)
        if f.kind == FLAG:
            text = "1" if value else "0"
        elif f.periodic and value == f.hi:
            text = format(0.0, f.fmt)
        elif f.kind != FLOAT:
            try:
                text = format(value, f.fmt)
            except ValueError:  # an int past sys.get_int_max_str_digits()
                raise f.range_error(value) from None
        texts.append(text)
    return texts


def encode_sentence(msg: OtterMessage) -> str:
    """Render a message as a complete wire line (``$...*hh\\r\\n``)."""
    entry = _message_of(msg)
    return frame(",".join([entry.tag, *_render(entry, msg)]))


def _parse(entry: Message, parts: list[str]) -> list:
    """The field values of a sentence. Each text must be exactly the
    rendering of the value it parses to, and that value must lie in its
    range, a periodic field's period excluded.

    Those checks are a pure function of the field and its text, so a
    field whose text repeats the last text it accepted returns the value
    stored with it, the same object, unparsed and unchecked. A rejected
    text is never stored. A miss stores one tuple, which is atomic under
    the GIL, so decoding threads may share the catalog."""
    if len(parts) != len(entry.fields):
        raise MalformedFieldError(f"{entry.tag}: expected {len(entry.fields)} "
                                  f"fields, got {len(parts)}")
    values = []
    parsed = entry._parsed
    for i, (f, part) in enumerate(zip(entry.fields, parts)):
        text, value = parsed[i]
        if part == text:  # accepted before: the checks would pass again
            values.append(value)
            continue
        try:
            if f.kind == FLOAT:
                value = float(part)
                bad = not (math.isfinite(value) and f.lo <= value <= f.hi)
            else:
                value = _PARSERS[f.kind](part)
                bad = f._out_of_range(value)
            rendered = format(value, f.fmt) == part
        except (KeyError, ValueError):
            rendered = False
        if not rendered:
            raise MalformedFieldError(
                f"{entry.tag}: bad field {f.name!r}: {part!r}")
        if bad or (f.periodic and value == f.hi):
            raise f.range_error(value)
        parsed[i] = part, value
        values.append(value)
    return values


def decode_sentence(line: str) -> OtterMessage:
    """Parse and validate one wire line into its message variant.

    Raises a CodecError subclass on any failure; never returns a
    partially populated message. Ranges are strict: a periodic field
    equal to its period (``360.00``) is refused.
    """
    parts = unframe(line).split(",")
    tag = parts[0]
    if tag in _WITH_SUBCOMMAND:
        if len(parts) < 2:
            raise MalformedFieldError(f"{tag}: missing subcommand")
        tag = f"{tag},{parts[1]}"
    entry = _BY_TAG.get(tag)
    if entry is None:
        raise UnknownSentenceError(f"unknown sentence {tag!r}")
    return entry.cls(*_parse(entry, parts[tag.count(",") + 1:]))
