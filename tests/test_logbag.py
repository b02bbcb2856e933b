import csv
import errno
import io
import json
import math
import time

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


def same_read(got, want):
    """Equal record lists and counts; repr, so NaN stamps compare and
    -0.0 differs from 0.0."""
    return ([repr(r) for r in got[0]], got[1]) == (
        [repr(r) for r in want[0]], want[1])


class TestRecordFormat:
    def test_json_roundtrip(self):
        record = rec(1.5, payload={"lat": 45.0, "lon": -76.0})
        back = LogRecord.from_json(record.to_json())
        assert back == record

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
