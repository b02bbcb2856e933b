import csv
import json
import time

import pytest

from otterlink.logbag import (LogRecord, LogWriter, OrderingError,
                              SCHEMA_VERSION, UnknownTopicError, export_csv,
                              read_records, replay)


def rec(t, topic="otter_gps", payload=None, direction="rx"):
    return LogRecord(t, 43200.0 + t, direction, topic,
                     payload if payload is not None else {"lat": 45.0})


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

    def test_io_failure_disables_but_does_not_raise(self, tmp_path):
        path = tmp_path / "run.olog"
        writer = LogWriter(path)
        writer.record(rec(0.0))
        writer._fh.close()  # simulate the disk going away
        with pytest.warns(UserWarning, match="logging disabled"):
            writer.record(rec(1.0))
        assert writer.disabled
        writer.record(rec(2.0))  # now a no-op, still no exception


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


class TestExportCsv:
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
