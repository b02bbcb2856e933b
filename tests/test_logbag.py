import csv
import enum
import errno
import io
import json
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from otterlink import logbag
from otterlink.logbag import (TOPIC_COLUMNS, LogRecord, LogWriter,
                              OrderingError, SCHEMA_VERSION,
                              UnknownTopicError, export_csv, read_records,
                              replay)


def rec(t, topic="otter_gps", payload=None, direction="rx"):
    return LogRecord(t, 43200.0 + t, direction, topic,
                     payload if payload is not None else {"lat": 45.0})


def reference_read_records(path):
    """The reader as it was before the shared line parser: json.loads
    per line. The parser must agree with it on every line it can read."""
    records = []
    corrupt = 0
    with open(path, "rb") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line.decode("utf-8"))
                if not isinstance(obj["payload"], dict):
                    raise ValueError("record payload is not a JSON object")
                records.append(LogRecord(
                    float(obj["t_mono"]), float(obj["t_utc"]), obj["dir"],
                    obj["topic"], obj["payload"]))
            except (ValueError, KeyError, TypeError):
                corrupt += 1
    return records, corrupt


SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-10**6, 10**6),
                    st.floats(), st.text(max_size=4))
JSON = st.one_of(SCALARS, st.lists(SCALARS, max_size=2),
                 st.dictionaries(st.text(max_size=2), SCALARS, max_size=2))
STAMPS = st.one_of(st.floats(), st.integers(-10**6, 10**6),
                   st.floats().map(repr))  # numeric strings, "nan" too
NAMES = st.sampled_from(["rx", "tx", "otter_gps", "event"]) | JSON
PAYLOADS = st.dictionaries(
    st.sampled_from(["lat", "lon", "utc", "name", "\u00e9"])
    | st.text(max_size=3), JSON, max_size=4)
KEYS = ("v", "t_mono", "t_utc", "dir", "topic", "payload")
DAMAGE = ["none"] * 4 + [
    "bad-stamp", "bad-payload", "missing-key", "not-object", "blank", "bom",
    "trailing", "cr", "bad-utf8", "truncated", "padded"]


class Mode(enum.IntEnum):
    MANUAL = 0
    DRIFT = -3


class Key(str):
    """A str subclass: the encoder writes it as the str it equals."""


# floats the template path must render as the encoder does, or hand to
# it: signed zeros, infinities, NaN, subnormals and 17-digit values
FLOATS = st.floats() | st.sampled_from([
    0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324,
    -2.225073858507201e-308,
    0.30000000000000004, 1 / 3, 43200.123456789015, 1.7976931348623157e308])
TEXTS = st.text(st.sampled_from('"\\{}%!r0:,a\u00e9\u2603\x00\n')
                | st.characters(), max_size=5)
LEAVES = (FLOATS | st.integers() | st.booleans() | st.none()
          | st.sampled_from(Mode) | FLOATS.map(np.float64) | TEXTS)
VALUES = st.recursive(LEAVES, lambda inner: st.lists(inner, max_size=3)
                      | st.dictionaries(TEXTS, inner, max_size=3),
                      max_leaves=6)
RECORD_KEYS = (st.sampled_from(["lat", "lon", "utc", "yaw", "name"]) | TEXTS
               | st.sampled_from(["lat", "lon"]).map(Key))
RECORD_PAYLOADS = st.one_of(
    st.dictionaries(RECORD_KEYS, FLOATS, max_size=7),  # telemetry's shape
    st.dictionaries(RECORD_KEYS, VALUES, max_size=4),
    st.dictionaries(st.integers() | st.booleans() | st.none(), FLOATS,
                    max_size=3),
    st.dictionaries(FLOATS, VALUES, max_size=3))
RECORD_NAMES = st.sampled_from(["rx", "tx", "otter_gps", "event"]) | TEXTS
RECORD_STAMPS = FLOATS | st.integers(-10**6, 10**6)
RECORDS = st.builds(LogRecord, RECORD_STAMPS, RECORD_STAMPS,
                    RECORD_NAMES | st.integers(), RECORD_NAMES | st.integers(),
                    RECORD_PAYLOADS)


# a few float stamps, so that consecutive records repeat them: signed
# zeros, NaN and the infinities among them
REPEATED_STAMPS = st.sampled_from([0.0, -0.0, 0.1, 43200.1, 5e-324, 1.0,
                                   math.nan, math.inf, -math.inf])


def dumped(record):
    return json.dumps({"v": SCHEMA_VERSION, "t_mono": record.t_mono,
                       "t_utc": record.t_utc, "dir": record.direction,
                       "topic": record.topic, "payload": record.payload},
                      separators=(",", ":"), sort_keys=True)


@st.composite
def log_lines(draw):
    """One line of a log, as bytes without its newline: a record, maybe
    damaged in one way."""
    obj = {"v": 1, "t_mono": draw(STAMPS), "t_utc": draw(STAMPS),
           "dir": draw(NAMES), "topic": draw(NAMES),
           "payload": draw(PAYLOADS)}
    damage = draw(st.sampled_from(DAMAGE))
    if damage == "bad-stamp":
        obj[draw(st.sampled_from(["t_mono", "t_utc"]))] = draw(
            st.text(max_size=3) | st.none() | st.lists(SCALARS, max_size=2))
    elif damage == "bad-payload":
        obj["payload"] = draw(SCALARS | st.lists(SCALARS, max_size=2))
    elif damage == "missing-key":
        del obj[draw(st.sampled_from(KEYS))]
    elif damage == "not-object":
        obj = draw(st.sampled_from([[obj], "text", 7, None]))
    line = json.dumps(obj, ensure_ascii=draw(st.booleans())).encode()
    at = draw(st.integers(0, len(line)))
    if damage == "blank":
        return draw(st.sampled_from([b"", b" ", b"\r", b"\t \x0c"]))
    if damage == "bom":
        return b"\xef\xbb\xbf" + line
    if damage == "trailing":
        return line + draw(st.sampled_from([b"x", b" {}", b"\r{}", b",",
                                            b"]", b" 1"]))
    if damage == "cr":  # a bare carriage return inside the line
        return line[:at] + b"\r" + line[at:]
    if damage == "bad-utf8":
        bad = draw(st.sampled_from([b"\xff", b"\xc3"]))
        return line[:at] + bad + line[at:]
    if damage == "truncated":
        return line[:at]
    if damage == "padded":
        return b" \t" + line + b"\r \x0b"
    return line


def parsed(line: str) -> LogRecord | None:
    """The record of one line, parsed as the readers parse each line of a
    file; None when the line holds none."""
    [record] = logbag._records([line.encode("utf-8")])
    return record


def same_read(got, want):
    """Equal record lists and counts; repr, so NaN stamps compare and
    -0.0 differs from 0.0."""
    return ([repr(r) for r in got[0]], got[1]) == (
        [repr(r) for r in want[0]], want[1])


class TestRecordFormat:
    def test_json_roundtrip(self):
        record = rec(1.5, payload={"lat": 45.0, "lon": -76.0})
        assert parsed(record.to_json()) == record

    def test_schema_fields_present(self):
        obj = json.loads(rec(0.0).to_json())
        assert obj["v"] == SCHEMA_VERSION
        assert set(obj) == {"v", "t_mono", "t_utc", "dir", "topic", "payload"}

    def test_one_line_per_record(self):
        assert "\n" not in rec(0.0).to_json()

    def test_line_bytes_pinned(self, tmp_path):
        path = tmp_path / "run.olog"
        with LogWriter(path) as writer:
            writer.record(LogRecord(1.5, 43201.5, "tx", "event",
                                    {"name": "caf\u00e9",
                                     "value": float("nan"),
                                     "detail": [1, None, True]}))
        assert path.read_bytes() == (
            b'{"dir":"tx","payload":{"detail":[1,null,true],'
            b'"name":"caf\\u00e9","value":NaN},"t_mono":1.5,'
            b'"t_utc":43201.5,"topic":"event","v":1}\n')

    @settings(max_examples=500, deadline=None)
    @given(record=RECORDS)
    def test_line_is_what_json_dumps_writes(self, record):
        try:
            want = dumped(record)
        except (TypeError, ValueError) as exc:  # keys of unlike types
            with pytest.raises(type(exc)):
                record.to_json()
        else:
            assert record.to_json() == want

    @settings(max_examples=300, deadline=None)
    @given(t=FLOATS, names=st.tuples(RECORD_NAMES, RECORD_NAMES),
           payload=st.dictionaries(RECORD_KEYS, FLOATS | VALUES, max_size=5))
    def test_record_survives_its_line(self, t, names, payload):
        # NaN equals nothing, itself included: it is compared as its line
        assume(t == t)
        record = LogRecord(t, 43200.0 + t, *names, payload)
        line = record.to_json()
        back = parsed(line)
        assert back.to_json() == line
        if "NaN" not in line:
            assert back == record

    def test_float_records_are_rendered_without_the_encoder(self,
                                                            monkeypatch):
        class Refusing:
            def encode(self, obj):
                raise AssertionError("encoder called")

        monkeypatch.setattr(logbag, "_ENCODER", Refusing())
        gps = rec(1.5, payload={"utc": 43201.5, "lat": 45.0, "lon": -76.0,
                                "alt": -0.0})
        assert gps.to_json() == (
            '{"dir":"rx","payload":{"alt":-0.0,"lat":45.0,"lon":-76.0,'
            '"utc":43201.5},"t_mono":1.5,"t_utc":43201.5,'
            '"topic":"otter_gps","v":1}')
        for other in ({"lat": math.nan}, {"lat": 45}, {"name": "lap"}):
            with pytest.raises(AssertionError, match="encoder called"):
                rec(1.5, payload=other).to_json()

    def test_record_refuses_assignment(self):
        record = rec(0.0)
        for name in ("t_mono", "t_utc", "direction", "topic", "payload",
                     "extra"):
            with pytest.raises(AttributeError):
                setattr(record, name, 1.0)
        assert record == rec(0.0)


class TestWriterReader:
    def test_write_then_read_back(self, tmp_path):
        path = tmp_path / "run.olog"
        records = [rec(0.1 * i, payload={"i": i}) for i in range(20)]
        with LogWriter(path) as writer:
            for record in records:
                writer.record(record)
        back, corrupt = read_records(path)
        assert corrupt == 0
        assert back == records

    def test_ordering_enforced(self, tmp_path):
        with LogWriter(tmp_path / "run.olog") as writer:
            writer.record(rec(2.0))
            writer.record(rec(2.0))  # equal stamps are fine
            with pytest.raises(OrderingError):
                writer.record(rec(1.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_stamp_refused_before_writing(self, tmp_path, bad):
        # a NaN stamp used to be written and then let every later stamp
        # through: 5.0, NaN and 1.0 all reached the file, in that order
        path = tmp_path / "run.olog"
        with LogWriter(path) as writer:
            writer.record(rec(5.0))
            with pytest.raises(OrderingError, match="not finite"):
                writer.record(rec(bad))
            with pytest.raises(OrderingError):
                writer.record(rec(1.0))
            writer.record(rec(5.0))
        back, corrupt = read_records(path)
        assert (back, corrupt) == ([rec(5.0), rec(5.0)], 0)

    def test_non_finite_first_stamp_refused(self, tmp_path):
        path = tmp_path / "run.olog"
        with LogWriter(path) as writer:
            with pytest.raises(OrderingError):
                writer.record(rec(math.nan))
            writer.record(rec(0.0))
        assert read_records(path) == ([rec(0.0)], 0)

    def test_corrupt_lines_skipped_and_counted(self, tmp_path):
        path = tmp_path / "run.olog"
        good = [rec(0.0), rec(1.0)]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(good[0].to_json() + "\n")
            fh.write("{truncated json\n")
            fh.write("\n")  # blank lines are not corruption
            fh.write('{"v":1,"t_mono":0.5}\n')  # missing keys
            fh.write(good[1].to_json() + "\n")
        back, corrupt = read_records(path)
        assert back == good
        assert corrupt == 2

    def test_undecodable_line_is_corrupt(self, tmp_path):
        path = tmp_path / "run.olog"
        good = [rec(0.0), rec(1.0)]
        with open(path, "wb") as fh:
            fh.write(good[0].to_json().encode() + b"\n")
            fh.write(b'{"v":1,"t_mono":\xff}\n')
            fh.write(good[1].to_json().encode() + b"\n")
        assert read_records(path) == (good, 1)
        seen = []
        assert replay(path, 0.0, seen.append).corrupt_count == 1
        assert seen == good
        assert export_csv(path, "otter_gps", tmp_path / "gps.csv") == 2

    @pytest.mark.parametrize("payload", ["oops", [1, 2], 5, None],
                             ids=["str", "list", "int", "null"])
    def test_payload_that_is_not_an_object_is_corrupt(self, tmp_path,
                                                      payload):
        path = tmp_path / "run.olog"
        good = [rec(0.0), rec(1.0)]
        bad = json.dumps({"v": 1, "t_mono": 0.5, "t_utc": 43200.5,
                          "dir": "rx", "topic": "otter_gps",
                          "payload": payload})
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(good[0].to_json() + "\n" + bad + "\n")
            fh.write(good[1].to_json() + "\n")
        assert read_records(path) == (good, 1)
        seen = []
        assert replay(path, 0.0, seen.append).corrupt_count == 1
        assert seen == good
        assert export_csv(path, "otter_gps", tmp_path / "gps.csv") == 2

    @pytest.mark.parametrize("bad", [
        b"[" * 100000,
        b'{"payload":' * 100000,
        b"\xef\xbb\xbf" + rec(0.5).to_json().encode(),
        rec(0.5).to_json().encode() + b" {}",
        rec(0.5).to_json().replace("0.5", "1" + "0" * 400, 1).encode(),
    ], ids=["nested-list", "nested-object", "bom", "trailing-data",
            "stamp-past-float-range"])
    def test_line_that_is_not_one_record_is_corrupt(self, tmp_path, bad):
        path = tmp_path / "run.olog"
        good = [rec(0.0), rec(1.0)]
        with open(path, "wb") as fh:
            fh.write(good[0].to_json().encode() + b"\n" + bad + b"\n")
            fh.write(good[1].to_json().encode() + b"\n")
        assert read_records(path) == (good, 1)
        seen = []
        assert replay(path, 0.0, seen.append).corrupt_count == 1
        assert seen == good
        assert export_csv(path, "otter_gps", tmp_path / "gps.csv") == 2

    @settings(max_examples=300, deadline=None)
    @given(lines=st.lists(log_lines(), max_size=6))
    def test_parser_matches_per_line_json_loads(self, tmp_path_factory,
                                                lines):
        path = tmp_path_factory.mktemp("olog") / "run.olog"
        path.write_bytes(b"\n".join(lines))
        try:
            want = reference_read_records(path)
        except OverflowError:  # a stamp the old reader could not read
            assume(False)
        got = read_records(path)
        assert same_read(got, want)
        assert got[1] + len(got[0]) == sum(1 for line in lines
                                           if line.strip())

    def test_records_share_keys_and_strings(self, tmp_path):
        path = tmp_path / "run.olog"
        with LogWriter(path) as writer:
            writer.record(rec(0.0, payload={"lat": 45.0, "lon": -76.0}))
            writer.record(rec(0.1, payload={"lat": 45.1, "lon": -76.1}))
        (a, b), _ = read_records(path)
        assert a.topic is b.topic
        assert a.direction is b.direction
        assert all(x is y for x, y in zip(a.payload, b.payload))
        assert list(a.payload) == ["lat", "lon"]

    def test_equal_nonzero_stamps_share_one_float(self, tmp_path):
        path = tmp_path / "run.olog"
        with LogWriter(path) as writer:
            for t in (0.1, 0.1, 0.1, 0.2, 0.2):
                writer.record(rec(t))
        (a, b, c, d, e), _ = read_records(path)
        assert a.t_mono is b.t_mono is c.t_mono
        assert a.t_utc is b.t_utc is c.t_utc
        assert d.t_mono is e.t_mono and d.t_utc is e.t_utc
        assert (d.t_mono, d.t_utc) == (0.2, 43200.2)

    @pytest.mark.parametrize("stamps, want", [
        ("-0.0 0.0", "-0.0 0.0"),
        ("0.0 -0.0", "0.0 -0.0"),
        ("-0.0 -0.0 0.0", "-0.0 -0.0 0.0"),
        ("NaN NaN", "nan nan"),
        ("Infinity -Infinity Infinity Infinity", "inf -inf inf inf"),
        ("3 3.0 3 -0 0 -0.0", "3.0 3.0 3.0 0.0 0.0 -0.0")])
    def test_stamps_keep_their_values(self, tmp_path, stamps, want):
        path = tmp_path / "run.olog"
        path.write_text("".join(
            f'{{"v":1,"t_mono":{t},"t_utc":{t},"dir":"rx",'
            f'"topic":"otter_gps","payload":{{}}}}\n'
            for t in stamps.split()))
        got, corrupt = read_records(path)
        assert corrupt == 0
        for stamp in ("t_mono", "t_utc"):
            values = [getattr(r, stamp) for r in got]
            assert all(type(v) is float for v in values)
            assert " ".join(map(repr, values)) == want

    @settings(max_examples=300, deadline=None)
    @given(stamps=st.lists(st.tuples(REPEATED_STAMPS, REPEATED_STAMPS),
                           max_size=8),
           sort_keys=st.booleans())
    def test_parsed_records_render_their_lines(self, tmp_path_factory,
                                               stamps, sort_keys):
        lines = [json.dumps({"v": 1, "t_mono": a, "t_utc": b, "dir": "rx",
                             "topic": "otter_gps", "payload": {"utc": a}},
                            sort_keys=sort_keys)
                 for a, b in stamps]
        path = tmp_path_factory.mktemp("olog") / "run.olog"
        path.write_text("".join(line + "\n" for line in lines))
        got, corrupt = read_records(path)
        assert corrupt == 0
        assert [r.to_json() for r in got] == [
            json.dumps(json.loads(line), separators=(",", ":"),
                       sort_keys=True) for line in lines]

    def test_io_failure_disables_but_does_not_raise(self, tmp_path):
        path = tmp_path / "run.olog"
        writer = LogWriter(path)
        writer.record(rec(0.0))
        writer._fh.close()  # simulate the disk going away
        with pytest.warns(UserWarning, match="logging disabled"):
            writer.record(rec(1.0))
        assert writer.disabled
        writer.record(rec(2.0))  # now a no-op, still no exception

    def test_failed_final_flush_disables_and_closes(self, tmp_path,
                                                    monkeypatch):
        class Full(io.RawIOBase):
            def writable(self):
                return True

            def write(self, data):
                raise OSError(errno.ENOSPC, "No space left on device")

        writer = LogWriter(tmp_path / "run.olog")
        writer._fh.close()
        writer._fh = io.TextIOWrapper(io.BufferedWriter(Full()),
                                      encoding="utf-8")
        monkeypatch.setattr(logbag, "FLUSH_INTERVAL", math.inf)
        writer.record(rec(0.0))  # buffered until close() flushes it
        assert not writer.disabled
        with pytest.warns(UserWarning, match="logging disabled"):
            writer.close()
        assert writer.disabled
        assert writer._fh.closed


class TestReplay:
    def test_fast_replay_preserves_order(self, tmp_path):
        path = tmp_path / "run.olog"
        with LogWriter(path) as writer:
            for i in range(10):
                writer.record(rec(float(i), payload={"i": i}))
        seen = []
        summary = replay(path, 0.0, seen.append)
        assert summary.delivered == 10
        assert [r.payload["i"] for r in seen] == list(range(10))
        assert summary.wall_time < 0.5  # 9 s of log replayed instantly

    def test_speed_factor_scales_delays(self, tmp_path):
        path = tmp_path / "run.olog"
        with LogWriter(path) as writer:
            writer.record(rec(0.0))
            writer.record(rec(1.0))
        t0 = time.monotonic()
        replay(path, 10.0, lambda r: None)
        elapsed = time.monotonic() - t0
        assert 0.05 <= elapsed < 0.6  # 1 s gap at 10x ~ 0.1 s

    def test_negative_speed_rejected(self, tmp_path):
        path = tmp_path / "run.olog"
        with LogWriter(path) as writer:
            writer.record(rec(0.0))
        with pytest.raises(ValueError):
            replay(path, -1.0, lambda r: None)


    def test_gap_check_comes_before_any_delivery(self, tmp_path):
        path = tmp_path / "run.olog"
        with LogWriter(path) as writer:
            writer.record(rec(0.0))
            writer.record(rec(0.5))
            writer.record(rec(10.0))
        with path.open("a", encoding="utf-8") as fh:
            fh.write('{"truncated": \n')
        seen = []
        with pytest.raises(ValueError, match="stretches a 9.5 s gap"):
            replay(path, 1e-300, seen.append)
        assert seen == []
        summary = replay(path, 1e6, seen.append)
        assert (summary.delivered, summary.corrupt_count) == (3, 1)
        assert [r.t_mono for r in seen] == [0.0, 0.5, 10.0]

    def test_memory_does_not_grow_with_the_log(self, tmp_path):
        """Replay streams: its peak is the same for 60 s and 600 s of a
        10 Hz mission's traffic, delivered to a consumer that keeps
        nothing."""
        peaks = []
        for seconds in (60, 600):
            path = tmp_path / f"{seconds}.olog"
            with LogWriter(path) as writer:
                for i in range(10 * seconds):
                    t = i / 10
                    writer.record(rec(t, payload={
                        "utc": 43200.0 + t, "lat": 45.0 + i * 1e-7,
                        "lon": -76.0 - i * 1e-7, "alt": 0.0}))
                    writer.record(rec(t, "otter_imu", {
                        "utc": 43200.0 + t, "roll": 0.0, "yaw": i % 360}))
                    writer.record(rec(t, "course_speed_cmds", {
                        "course": i % 360, "speed": 1.5}, "tx"))
            tracemalloc.start()
            try:
                summary = replay(path, 0.0, lambda r: None)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert summary.delivered == 30 * seconds
        assert peaks[1] - peaks[0] < 0.5 * 2 ** 20, peaks


def reference_export_csv(source_path, topic, out_path):
    """export_csv that parses every line of the log."""
    columns = TOPIC_COLUMNS[topic]
    records, _ = read_records(source_path)
    rows = [[repr(r.t_mono)] + [r.payload.get(col, "") for col in columns]
            for r in records if r.topic == topic]
    with open(out_path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([["t", *columns], *rows])
    return len(rows)


# the JSON forms of a record's topic: plain, each with one character
# escaped, and topics that hold or extend the exported one's text
TOPIC_FORMS = st.sampled_from([
    '"otter_gps"', '"otter\\u005fgps"', '"\\u006ftter_gps"',
    '"otter_gps\\u005f"', '"otter_gps_time"', '"otter_gps\\"x"',
    '"otter_imu"', '"event"', '["otter_gps"]', '"otter\\/gps"'])
# payload values that hold the exported topic's text, quoted or escaped
TOPIC_TEXTS = st.sampled_from([
    "otter_gps", '"otter_gps"', "otter\\u005fgps", 'a "otter_gps" b'])


@st.composite
def export_lines(draw):
    """One line of a log whose topic, in one of its JSON forms, may or
    may not be otter_gps, and whose payload may quote that topic; maybe
    damaged."""
    payload = draw(st.dictionaries(
        st.sampled_from(["utc", "lat", "lon", "alt", "name", "detail"]),
        st.floats(allow_nan=False) | TOPIC_TEXTS | st.text(max_size=3),
        max_size=4))
    obj = {"v": 1, "t_mono": draw(st.floats(0.0, 100.0)), "t_utc": 0.5,
           "dir": "rx", "topic": "@", "payload": payload}
    line = json.dumps(obj, ensure_ascii=draw(st.booleans()))
    line = line.replace('"@"', draw(TOPIC_FORMS), 1).encode()
    damage = draw(st.sampled_from(["none"] * 3 + ["truncated", "bad-utf8"]))
    at = draw(st.integers(0, len(line)))
    if damage == "truncated":
        return line[:at]
    if damage == "bad-utf8":
        return line[:at] + b"\xff" + line[at:]
    return line


class TestExportCsv:
    @settings(max_examples=300, deadline=None)
    @given(lines=st.lists(export_lines(), max_size=8))
    def test_matches_an_export_that_parses_every_line(self, tmp_path_factory,
                                                      lines):
        tmp = tmp_path_factory.mktemp("export")
        log = tmp / "run.olog"
        log.write_bytes(b"\n".join(lines))
        assert (export_csv(log, "otter_gps", tmp / "got.csv")
                == reference_export_csv(log, "otter_gps", tmp / "want.csv"))
        assert ((tmp / "got.csv").read_bytes()
                == (tmp / "want.csv").read_bytes())

    def test_topic_rows_and_columns(self, tmp_path):
        log = tmp_path / "run.olog"
        with LogWriter(log) as writer:
            writer.record(rec(0.0, "otter_gps",
                              {"utc": 1.0, "lat": 45.0, "lon": -76.0,
                               "alt": 0.0}))
            writer.record(rec(0.1, "otter_imu",
                              {"utc": 1.1, "roll": 0.0, "pitch": 0.0,
                               "yaw": 10.0, "p": 0, "q": 0, "r": 0}))
            writer.record(rec(0.2, "otter_gps",
                              {"utc": 1.2, "lat": 45.1, "lon": -76.1,
                               "alt": 0.0}))
        out = tmp_path / "gps.csv"
        count = export_csv(log, "otter_gps", out)
        assert count == 2
        with open(out, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "utc", "lat", "lon", "alt"]
        assert len(rows) == 3
        assert float(rows[1][2]) == 45.0
        assert float(rows[2][2]) == 45.1

    def test_unknown_topic_rejected(self, tmp_path):
        log = tmp_path / "run.olog"
        with LogWriter(log) as writer:
            writer.record(rec(0.0))
        with pytest.raises(UnknownTopicError):
            export_csv(log, "otter_sonar", tmp_path / "out.csv")

    def test_csv_over_its_own_log_is_refused(self, tmp_path):
        log = tmp_path / "run.olog"
        with LogWriter(log) as writer:
            writer.record(rec(0.0))
        before = log.read_bytes()
        with pytest.raises(ValueError, match="is the log"):
            export_csv(log, "otter_gps", f"{tmp_path}/./run.olog")
        assert log.read_bytes() == before

    @pytest.mark.parametrize("log", ["missing.olog", "."],
                             ids=["missing", "directory"])
    def test_unreadable_log_leaves_no_csv(self, tmp_path, log):
        out = tmp_path / "gps.csv"
        with pytest.raises(OSError):
            export_csv(tmp_path / log, "otter_gps", out)
        assert not out.exists()
