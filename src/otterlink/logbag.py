"""Append-only JSON Lines log (.olog) with replay and CSV export.

Each line is one self-describing record:

    {"v": 1, "t_mono": ..., "t_utc": ..., "dir": "rx"|"tx",
     "topic": "...", "payload": {...}}

t_mono must be finite and nondecreasing within a file. A line is
corrupt when it is not UTF-8, is not exactly one JSON object (trailing
data, a BOM, nesting deeper than the interpreter's recursion limit),
lacks one of the keys above, has a payload that is not an object, or
has a stamp that does not convert to a float. Blank lines are ignored;
corrupt lines are skipped and counted rather than aborting the read.

Every reader shares one line parser (`_records`), which keeps a single
copy of each payload key and of each `dir`/`topic` string per read.
`replay` reads the whole file first, to check the largest gap against
its speed; `export_csv` streams, writing each row as its line is parsed,
and parses only the lines that can hold its topic.
"""

from __future__ import annotations

import csv
import json
import math
import os
import threading
import time
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator

from . import codec

SCHEMA_VERSION = 1
FLUSH_INTERVAL = 1.0  # s

# column order per topic for CSV export (after the stamp columns)
TOPIC_COLUMNS = {**codec.TOPIC_COLUMNS,
                 "event": ("name", "detail"),
                 "metric": ("name", "value")}


class OrderingError(ValueError):
    """Record timestamps must be finite and nondecreasing within a
    file."""


class UnknownTopicError(ValueError):
    pass


# json.dumps builds a new encoder per call when given any non-default
# argument
_ENCODER = json.JSONEncoder(separators=(",", ":"), sort_keys=True)
# the C scanner json.loads runs, without its per-call Python wrapper
_scan = json.JSONDecoder().scan_once
# what a corrupt line raises while parsed: StopIteration where no JSON
# value starts the line (a BOM too), RecursionError for nesting past the
# recursion limit, OverflowError for an integer stamp past float range
_CORRUPT = (ValueError, KeyError, TypeError, OverflowError, RecursionError,
            StopIteration)


@dataclass(frozen=True, slots=True)
class LogRecord:
    t_mono: float
    t_utc: float
    direction: str  # "rx" or "tx"
    topic: str      # TopicName, "event" or "metric"
    payload: dict

    def to_json(self) -> str:
        return _ENCODER.encode({"v": SCHEMA_VERSION, "t_mono": self.t_mono,
                                "t_utc": self.t_utc, "dir": self.direction,
                                "topic": self.topic, "payload": self.payload})

    @classmethod
    def from_json(cls, line: str) -> "LogRecord":
        """The record of one line, parsed as the readers parse each line
        of a file; ValueError when the line holds none."""
        for rec in _records([line.encode("utf-8")]):
            if rec is not None:
                return rec
        raise ValueError(f"not a log record: {line[:80]!r}")


def _records(lines: Iterable[bytes]) -> Iterator[LogRecord | None]:
    """Parse each non-blank line: yield its LogRecord, or None when it is
    corrupt. Lines are bytes, so one that is not UTF-8 counts as corrupt
    (UnicodeDecodeError is a ValueError) instead of ending the read."""
    strings: dict[str, str] = {}
    share = strings.setdefault  # the first copy of an equal string
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            text = line.decode("utf-8")
            obj, end = _scan(text, 0)
            payload = obj["payload"]
            if end != len(text) or not isinstance(payload, dict):
                raise ValueError("not one record object")
            direction, topic = obj["dir"], obj["topic"]
            if isinstance(direction, str):
                direction = share(direction, direction)
            if isinstance(topic, str):
                topic = share(topic, topic)
            rec = LogRecord(
                float(obj["t_mono"]), float(obj["t_utc"]), direction, topic,
                dict(zip(map(share, payload, payload), payload.values())))
        except _CORRUPT:
            rec = None
        yield rec


class LogWriter:
    """Single-writer append-only sink. IO failures disable logging with
    a warning; the run keeps going."""

    def __init__(self, path):
        self.path = Path(path)
        self._fh = open(self.path, "a", encoding="utf-8")
        self._last_t: float | None = None
        self._last_flush = time.monotonic()
        self.disabled = False

    def record(self, rec: LogRecord) -> None:
        if self.disabled:
            return
        # a NaN stamp would pass every later comparison
        if not math.isfinite(rec.t_mono):
            raise OrderingError(f"t_mono {rec.t_mono} is not finite")
        if self._last_t is not None and rec.t_mono < self._last_t - 1e-12:
            raise OrderingError(
                f"t_mono {rec.t_mono} < previous {self._last_t}")
        try:
            self._fh.write(rec.to_json() + "\n")
            now = time.monotonic()
            if now - self._last_flush >= FLUSH_INTERVAL:
                self._fh.flush()
                self._last_flush = now
        except (OSError, ValueError) as exc:
            # ValueError covers writes on a stream invalidated underneath us
            self._disable(exc)
            return
        self._last_t = rec.t_mono

    def close(self) -> None:
        try:
            self._fh.close()  # flushes, and closes the file if that fails
        except OSError as exc:
            if not self.disabled:
                self._disable(exc)

    def _disable(self, exc: Exception) -> None:
        self.disabled = True
        warnings.warn(f"logging disabled after IO failure: {exc}")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def read_records(path) -> tuple[list[LogRecord], int]:
    """All parseable records plus the corrupt-line count."""
    records: list[LogRecord] = []
    corrupt = 0
    with open(path, "rb") as fh:
        for rec in _records(fh):
            if rec is None:
                corrupt += 1
            else:
                records.append(rec)
    return records, corrupt


@dataclass(frozen=True)
class ReplaySummary:
    delivered: int
    corrupt_count: int
    wall_time: float


def replay(path, speed_factor: float,
           consumer: Callable[[LogRecord], None]) -> ReplaySummary:
    """Deliver records with original inter-record delays scaled by
    1/speed_factor; speed_factor 0 replays as fast as possible. A speed
    that is not finite, or that stretches a gap past the longest sleep
    (`threading.TIMEOUT_MAX`), raises ValueError before any delivery."""
    if not 0.0 <= speed_factor < math.inf:
        raise ValueError(
            f"speed_factor must be finite and >= 0, not {speed_factor}")
    records, corrupt = read_records(path)
    if speed_factor > 0:
        gap = max((b.t_mono - a.t_mono for a, b in zip(records, records[1:])),
                  default=0.0)
        if gap / speed_factor > threading.TIMEOUT_MAX:
            raise ValueError(
                f"speed_factor {speed_factor} stretches a {gap:g} s gap "
                f"past the longest sleep, {threading.TIMEOUT_MAX:g} s")
    start = time.monotonic()
    prev_t: float | None = None
    for rec in records:
        if speed_factor > 0 and prev_t is not None:
            delay = (rec.t_mono - prev_t) / speed_factor
            if delay > 0:
                time.sleep(delay)
        prev_t = rec.t_mono
        consumer(rec)
    return ReplaySummary(delivered=len(records), corrupt_count=corrupt,
                         wall_time=time.monotonic() - start)


def export_csv(source_path, topic: str, out_path) -> int:
    """Write one CSV row per record of `topic` as its line is parsed,
    skipping corrupt lines; returns the row count. The log is opened
    before the CSV, so an unknown topic or a log that cannot be opened
    leaves no CSV behind, and an `out_path` naming the log itself is
    refused (ValueError) before the log is truncated."""
    columns = TOPIC_COLUMNS.get(topic)
    if columns is None:
        raise UnknownTopicError(f"unknown topic {topic!r}")
    # a JSON string equal to the topic is its unescaped form or holds a
    # backslash: a line with neither cannot be one of its records, and
    # is skipped unparsed
    quoted = json.dumps(topic, ensure_ascii=False).encode("utf-8")
    count = 0
    with open(source_path, "rb") as src:
        if (os.path.exists(out_path)
                and os.path.samefile(source_path, out_path)):
            raise ValueError(f"CSV output {str(out_path)!r} is the log")
        with open(out_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", *columns])
            lines = (line for line in src
                     if quoted in line or b"\\" in line)
            for rec in _records(lines):
                if rec is None or rec.topic != topic:
                    continue
                writer.writerow([repr(rec.t_mono)] + [
                    rec.payload.get(col, "") for col in columns])
                count += 1
    return count
