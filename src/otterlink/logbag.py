"""Append-only JSON Lines log (.olog) with replay and CSV export.

Each line is one self-describing record:

    {"v": 1, "t_mono": ..., "t_utc": ..., "dir": "rx"|"tx",
     "topic": "...", "payload": {...}}

t_mono must be nondecreasing within a file. Corrupt lines are skipped
and counted on replay/export rather than aborting.
"""

from __future__ import annotations

import csv
import json
import math
import threading
import time
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from . import codec

SCHEMA_VERSION = 1
FLUSH_INTERVAL = 1.0  # s

# column order per topic for CSV export (after the stamp columns)
TOPIC_COLUMNS = {**codec.TOPIC_COLUMNS,
                 "event": ("name", "detail"),
                 "metric": ("name", "value")}


class OrderingError(ValueError):
    """Record timestamps must be nondecreasing within a file."""


class UnknownTopicError(ValueError):
    pass


@dataclass(frozen=True)
class LogRecord:
    t_mono: float
    t_utc: float
    direction: str  # "rx" or "tx"
    topic: str      # TopicName, event/metric, or "raw"
    payload: dict

    def to_json(self) -> str:
        return json.dumps({"v": SCHEMA_VERSION, "t_mono": self.t_mono,
                           "t_utc": self.t_utc, "dir": self.direction,
                           "topic": self.topic, "payload": self.payload},
                          separators=(",", ":"), sort_keys=True)

    @classmethod
    def from_json(cls, line: str) -> "LogRecord":
        obj = json.loads(line)
        if not isinstance(obj["payload"], dict):
            raise ValueError("record payload is not a JSON object")
        return cls(t_mono=float(obj["t_mono"]), t_utc=float(obj["t_utc"]),
                   direction=obj["dir"], topic=obj["topic"],
                   payload=obj["payload"])


class LogWriter:
    """Single-writer append-only sink. IO failures disable logging with
    a warning; the run keeps going."""

    def __init__(self, path):
        self.path = Path(path)
        self._fh = open(self.path, "a", encoding="utf-8")
        self._last_t: float | None = None
        self._last_flush = time.monotonic()
        self.disabled = False
        self.io_warnings = 0

    def record(self, rec: LogRecord) -> None:
        if self.disabled:
            return
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
            self.disabled = True
            self.io_warnings += 1
            warnings.warn(f"logging disabled after IO failure: {exc}")
            return
        self._last_t = rec.t_mono

    def close(self) -> None:
        try:
            self._fh.flush()
            self._fh.close()
        except OSError:
            pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def read_records(path) -> tuple[list[LogRecord], int]:
    """All parseable records plus the corrupt-line count."""
    records: list[LogRecord] = []
    corrupt = 0
    # bytes, so a line that is not UTF-8 counts as corrupt
    # (UnicodeDecodeError is a ValueError) instead of ending the read
    with open(path, "rb") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                records.append(LogRecord.from_json(line.decode("utf-8")))
            except (ValueError, KeyError, TypeError):
                corrupt += 1
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
    """Write one CSV row per record of `topic`; returns the row count."""
    columns = TOPIC_COLUMNS.get(topic)
    if columns is None:
        raise UnknownTopicError(f"unknown topic {topic!r}")
    records, _ = read_records(source_path)
    count = 0
    with open(out_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", *columns])
        for rec in records:
            if rec.topic != topic:
                continue
            writer.writerow([repr(rec.t_mono)]
                            + [rec.payload.get(col, "") for col in columns])
            count += 1
    return count
