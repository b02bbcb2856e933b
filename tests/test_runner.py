import hashlib
import math

import numpy as np
import pytest

from otterlink import codec
from otterlink.client import TopicGateway
from otterlink.config import RunConfig
from otterlink.guidance import PolylinePath, figure_eight
from otterlink.logbag import LogRecord, LogWriter, read_records
from otterlink.nmpc import NmpcConfig, solve_nmpc
from otterlink.obc import SIM_DT, OtterObc
from otterlink.runner import (NmpcController, compute_metrics,
                              metrics_from_records, run_embedded_mission,
                              write_metrics_csv)
from otterlink.transport import FaultProfile
from otterlink.vessel import EnvDisturbance, VesselParams, VesselState, mix
from otterlink import geo, runner

ORIGIN = (45.0, -76.0)


def gps_record(t, north, east):
    lat, lon = geo.local_to_latlon(north, east, *ORIGIN)
    return LogRecord(t, 43200.0 + t, "rx", "otter_gps",
                     {"utc": t, "lat": lat, "lon": lon, "alt": 0.0})


class TestComputeMetrics:
    def test_hand_built_cross_track_stats(self):
        # east-going line; offsets 3, -4, 0 -> rms = sqrt(25/3), max = 4
        path = PolylinePath([(0.0, -100.0), (0.0, 100.0)])
        records = [gps_record(0.0, 3.0, 0.0),
                   gps_record(0.1, -4.0, 10.0),
                   gps_record(0.2, 0.0, 20.0),
                   LogRecord(0.3, 43200.3, "tx", "control_cmds", {})]
        metrics = compute_metrics(records, path, *ORIGIN)
        assert metrics["gps_samples"] == 3.0
        assert metrics["rms_cross_track_m"] == pytest.approx(
            math.sqrt(25.0 / 3.0))
        assert metrics["max_cross_track_m"] == pytest.approx(4.0)

    def test_no_gps_records_flagged(self):
        path = PolylinePath([(0.0, 0.0), (0.0, 1.0)])
        others = [LogRecord(0.0, 43200.0, "tx", "control_cmds", {}),
                  LogRecord(0.1, 43200.1, "rx", "otter_imu", {"yaw": 1.0})]
        for records in ([], others):
            metrics = compute_metrics(records, path, *ORIGIN)
            assert metrics == {"rms_cross_track_m": -1.0,
                               "max_cross_track_m": -1.0, "gps_samples": 0.0}

    @staticmethod
    def per_fix_metrics(records, path):
        """The metrics as computed one `project` call per fix."""
        errors = [path.project(*geo.latlon_to_local(
                      r.payload["lat"], r.payload["lon"], *ORIGIN)).cross_track
                  for r in records if r.topic == "otter_gps"]
        arr = np.array(errors)
        return {"rms_cross_track_m": float(np.sqrt(np.mean(arr ** 2))),
                "max_cross_track_m": float(np.max(np.abs(arr))),
                "gps_samples": float(len(arr))}

    def test_equals_the_per_fix_projection(self):
        path = figure_eight(20.0)
        rng = np.random.default_rng(5)
        # on and around the path, and off its candidate grid
        points = np.vstack([rng.uniform(-25.0, 25.0, size=(300, 2)),
                            [[0.0, 0.0], [60.0, 0.0], [0.0, -45.0]]])
        records = []
        for k, (north, east) in enumerate(points):
            records.append(gps_record(0.1 * k, north, east))
            records.append(LogRecord(0.1 * k, 43200.0 + 0.1 * k, "rx",
                                     "otter_imu", {"yaw": 1.0}))
        got = compute_metrics(records, path, *ORIGIN)
        assert repr(got) == repr(self.per_fix_metrics(records, path))
        mission = run_embedded_mission("baseline", path, duration=30.0)
        assert repr(compute_metrics(mission.records, path, *ORIGIN)) \
            == repr(self.per_fix_metrics(mission.records, path))

    def test_metrics_from_records_merges_metric_rows(self):
        path = PolylinePath([(0.0, -100.0), (0.0, 100.0)])
        records = [gps_record(0.0, 3.0, 0.0),
                   LogRecord(1.0, 43201.0, "tx", "metric",
                             {"name": "laps", "value": 1.25})]
        merged = metrics_from_records(records, path, *ORIGIN)
        assert merged["laps"] == 1.25
        assert merged["rms_cross_track_m"] == pytest.approx(3.0)


class TestMetricsCsv:
    def test_sorted_and_excludes_wall_clock(self, tmp_path):
        out = tmp_path / "m.csv"
        write_metrics_csv({"laps": 1.0, "rms_cross_track_m": 0.25,
                           "solve_time_mean_s": 0.01,
                           "solve_time_p99_s": 0.05}, out)
        text = out.read_text(encoding="utf-8")
        assert text == "metric,value\nlaps,1.0\nrms_cross_track_m,0.25\n"

    def test_byte_stable_across_calls(self, tmp_path):
        metrics = {"a": 0.1 + 0.2, "b": 1e-17}
        write_metrics_csv(metrics, tmp_path / "one.csv")
        write_metrics_csv(dict(reversed(list(metrics.items()))),
                          tmp_path / "two.csv")
        assert (tmp_path / "one.csv").read_bytes() == \
            (tmp_path / "two.csv").read_bytes()


    def test_logged_mission_bytes_pinned(self, tmp_path):
        # a 20 s baseline mission with every default: its .olog and its
        # metrics CSV, to the byte, as the JSON encoder wrote them before
        # the log writer rendered float records from templates
        log, csv = tmp_path / "run.olog", tmp_path / "metrics.csv"
        with LogWriter(log) as writer:
            result = run_embedded_mission(
                "baseline", figure_eight(RunConfig().bench.amplitude),
                duration=20.0, log_writer=writer)
        write_metrics_csv(result.metrics, csv)
        assert hashlib.sha256(log.read_bytes()).hexdigest() == (
            "c822a31c48b1427bc5b31bca088e4e0736aa0fc901584ddb8857d7b70f4e8e56")
        assert hashlib.sha256(csv.read_bytes()).hexdigest() == (
            "53470301ef4cb0d521ec7add431e27d3cf369ec3b1fe9593aefdeca8ed689ba9")

    def test_crossing_mission_needs_no_full_kernel(self, tmp_path,
                                                  monkeypatch):
        # a 60 s baseline mission with every default starts on the
        # figure-eight's crossing and passes it again: the path's grid
        # answers every LOS step and lap update there, and the .olog is
        # the one written when the full kernel answered 17 of them
        calls = []
        kernel = PolylinePath._kernel_nearest

        def counted(self, *args):
            calls.append(args)
            return kernel(self, *args)

        monkeypatch.setattr(PolylinePath, "_kernel_nearest", counted)
        log = tmp_path / "run.olog"
        with LogWriter(log) as writer:
            run_embedded_mission(
                "baseline", figure_eight(RunConfig().bench.amplitude),
                duration=60.0, log_writer=writer)
        assert calls == []
        assert hashlib.sha256(log.read_bytes()).hexdigest() == (
            "1c75f535f262f6c2ef2a51cc933d36a6f5c2f8e3653f106d04e7fb5c84f9a829")


class TestEmbeddedMission:
    def test_unknown_controller_rejected(self):
        with pytest.raises(ValueError, match="unknown controller"):
            run_embedded_mission("pid", figure_eight(20.0), duration=1.0)

    def test_baseline_short_run_produces_traffic(self, tmp_path):
        path = figure_eight(20.0)
        log = tmp_path / "run.olog"
        with LogWriter(log) as writer:
            result = run_embedded_mission("baseline", path, duration=20.0,
                                          log_writer=writer)
        assert result.completed
        assert result.decode_errors == 0
        topics = {r.topic for r in result.records}
        assert "otter_gps" in topics
        assert "course_speed_cmds" in topics
        # 20 s at 10 Hz telemetry
        gps = [r for r in result.records if r.topic == "otter_gps"]
        assert len(gps) == 200
        persisted, corrupt = read_records(log)
        assert corrupt == 0
        metric_names = {r.payload["name"] for r in persisted
                        if r.topic == "metric"}
        assert {"rms_cross_track_m", "laps"} <= metric_names

    def test_nmpc_short_run_commands_manual_topic(self):
        result = run_embedded_mission("nmpc", figure_eight(20.0),
                                      duration=8.0)
        cmds = [r for r in result.records if r.topic == "control_cmds"]
        assert cmds, "controller never published"
        assert all(abs(r.payload["x"]) <= 1.0 and r.payload["y"] == 0.0
                   for r in cmds)
        assert result.dropout_events == 0
        assert "solve_time_mean_s" in result.metrics

    @pytest.mark.parametrize("lat, lon", [(45.001, -76.0), (45.0, -76.001)])
    def test_start_state_origin_must_be_the_mission_origin(self, lat, lon):
        start = VesselState(origin_lat=lat, origin_lon=lon)
        with pytest.raises(ValueError, match="not the mission origin"):
            run_embedded_mission("baseline", figure_eight(20.0),
                                 duration=1.0, initial_state=start,
                                 origin_lat=45.0, origin_lon=-76.0)

    @pytest.mark.parametrize("duration", [
        -5.0, 0.0, -0.0, math.nan, math.inf, -math.inf,
        # positive, but rounded to no physics step
        0.009, 0.5 * SIM_DT])
    def test_duration_must_be_finite_and_positive(self, duration):
        # a mission that never flies must not report itself completed
        with pytest.raises(ValueError, match="duration"):
            run_embedded_mission("baseline", figure_eight(20.0),
                                 duration=duration)

    @pytest.mark.parametrize("target_laps", [
        0.0, -0.0, -1.0, math.nan, math.inf])
    def test_lap_target_must_be_none_or_finite_and_positive(self,
                                                           target_laps):
        # a 0 lap target "completed" at the first tick with 0 laps
        with pytest.raises(ValueError, match="target_laps"):
            run_embedded_mission("baseline", figure_eight(20.0),
                                 duration=1.0, target_laps=target_laps)

    def test_fault_window_sheds_all_telemetry_inside_it(self):
        start, length = 2.0, 2.0
        result = run_embedded_mission(
            "nmpc", figure_eight(20.0), duration=6.0,
            fault=FaultProfile(dropout_windows=((start, length),)))
        rx = [r.t_mono for r in result.records if r.direction == "rx"]
        assert not [t for t in rx if start <= t < start + length]
        assert min(rx) < start and max(rx) >= start + length
        dropouts = [r for r in result.records if r.topic == "event"
                    and r.payload["name"] == "dropout"]
        assert len(dropouts) == 1 and result.dropout_events == 1

    def test_record_sequence_pinned_across_a_dropout(self):
        # which records a short NMPC mission logs through a dropout
        # window, and when: rx, tx and event records alike, with the
        # event payloads. The solves decide no record's presence or
        # stamp, so the pin holds on any BLAS kernel
        result = run_embedded_mission(
            "nmpc", figure_eight(20.0), duration=6.0,
            fault=FaultProfile(dropout_windows=((2.0, 2.0),)))
        sequence = [(r.t_mono, r.direction, r.topic,
                     r.payload if r.topic == "event" else None)
                    for r in result.records]
        assert [r[3]["name"] for r in sequence if r[3]] == ["dropout"]
        assert hashlib.sha256(repr(sequence).encode()).hexdigest() == (
            "c8e2d11d9a5b252b21d2a1bd7ba6e5c4527473d76a311a7c9c51f6521dd31ea9")

    def test_records_of_a_stamp_share_one_utc(self, tmp_path):
        class Keeping(LogWriter):
            def record(self, rec):
                super().record(rec)
                kept.append(rec)

        kept = []
        with Keeping(tmp_path / "run.olog") as writer:
            run_embedded_mission("baseline", figure_eight(20.0),
                                 duration=10.0, log_writer=writer)
        utcs = {}
        for rec in kept:
            utcs.setdefault(id(rec.t_mono), set()).add(id(rec.t_utc))
        assert all(len(ids) == 1 for ids in utcs.values())
        assert len(utcs) < len(kept)
        assert kept[-1].topic == "metric" and kept[-1].t_mono == 10.0

    def test_record_stream_is_time_ordered(self):
        result = run_embedded_mission("baseline", figure_eight(20.0),
                                      duration=10.0)
        stamps = [r.t_mono for r in result.records]
        assert stamps == sorted(stamps)


def record_budgets(monkeypatch) -> list:
    """Make `runner.solve_nmpc` record the budget of every solve."""
    budgets = []

    def recorded(*args, budget_s=None, **kwargs):
        budgets.append(budget_s)
        return solve_nmpc(*args, budget_s=budget_s, **kwargs)

    monkeypatch.setattr(runner, "solve_nmpc", recorded)
    return budgets


class TestSolveBudget:
    @staticmethod
    def controller() -> NmpcController:
        """A controller holding one synced sample stamped 1.0 s."""
        gateway = TopicGateway(command_sender=lambda _line: None)
        ctl = NmpcController(gateway, figure_eight(20.0), NmpcConfig(),
                             VesselParams(), *ORIGIN)
        for line in OtterObc().tick(1.0):
            gateway.feed_line(line, 1.0)
        return ctl

    @pytest.mark.parametrize("deadline, budget", [
        (1.1, 0.09),     # on time: the slot less SOLVE_RESERVE_S
        (1.05, 0.04),    # started late: what is left of the slot
        (0.9, -0.11),    # deadline passed: one iteration (test_nmpc.py)
        (None, None)])   # no deadline: no wall-clock limit
    def test_step_budgets_the_solve_to_its_deadline(self, monkeypatch,
                                                    deadline, budget):
        budgets = record_budgets(monkeypatch)
        self.controller().step(1.0, deadline)
        assert budgets == [pytest.approx(budget, abs=1e-12)]

    def test_embedded_solves_have_no_budget(self, monkeypatch):
        budgets = record_budgets(monkeypatch)
        run_embedded_mission("nmpc", figure_eight(20.0), duration=2.0)
        assert len(budgets) == 20 and set(budgets) == {None}


class TestPublish:
    def test_publishes_the_plan_and_holds_it_after_a_failed_solve(
            self, monkeypatch):
        sent = []
        gateway = TopicGateway(command_sender=sent.append)
        ctl = NmpcController(gateway, figure_eight(20.0), NmpcConfig(),
                             VesselParams(), *ORIGIN)
        for line in OtterObc().tick(1.0):
            gateway.feed_line(line, 1.0)
        solutions = []

        def recorded(*args, **kwargs):
            solutions.append(solve_nmpc(*args, **kwargs))
            return solutions[-1]

        monkeypatch.setattr(runner, "solve_nmpc", recorded)
        ctl.step(1.0)
        [line] = sent
        cmd = codec.decode_sentence(line)
        assert isinstance(cmd, codec.ManualCmd) and cmd.y == 0.0
        # x and z are each rounded to 3 decimals on the wire, so each
        # motor, x +/- z, is within 1e-3 of the plan's first command
        port, stbd = solutions[0].motors[0]
        got_port, got_stbd = mix(cmd.x, cmd.z)
        assert abs(got_port - port) <= 1e-3 + 1e-12
        assert abs(got_stbd - stbd) <= 1e-3 + 1e-12
        assert (port, stbd) != (0.0, 0.0)

        # a failed solve republishes the held command
        monkeypatch.setattr(runner, "solve_nmpc", lambda *a, **k: None)
        ctl.step(1.1)
        assert sent == [line, line]


class TestWarmStartClock:
    @staticmethod
    def record_elapsed(monkeypatch) -> list:
        """Make `runner.solve_nmpc` record (elapsed, solution) of every
        warm-started solve."""
        solves = []

        def recorded(*args, elapsed=None, **kwargs):
            sol = solve_nmpc(*args, elapsed=elapsed, **kwargs)
            if kwargs["warm_start"] is not None:
                solves.append((elapsed, sol))
            return sol

        monkeypatch.setattr(runner, "solve_nmpc", recorded)
        return solves

    def test_embedded_steps_shift_by_the_control_period(self, monkeypatch):
        solves = self.record_elapsed(monkeypatch)
        run_embedded_mission("nmpc", figure_eight(20.0), duration=2.0)
        assert len(solves) == 19
        assert all(elapsed == pytest.approx(0.1, abs=1e-9)
                   for elapsed, _ in solves)

    def test_shift_spans_a_skipped_slot_and_a_long_dropout(
            self, monkeypatch):
        # 0.2 s after a skipped slot; 5 s after a dropout longer than the
        # 4 s horizon, whose warm start is the last command, held
        solves = self.record_elapsed(monkeypatch)
        gateway = TopicGateway(command_sender=lambda _line: None)
        ctl = NmpcController(gateway, figure_eight(20.0), NmpcConfig(),
                             VesselParams(), *ORIGIN)
        obc = OtterObc()
        for t in (1.0, 1.1, 1.3, 6.3):
            for line in obc.tick(t):
                gateway.feed_line(line, t)
            ctl.step(t)
        assert [elapsed for elapsed, _ in solves] == [
            pytest.approx(e, abs=1e-9) for e in (0.1, 0.2, 5.0)]
        assert all(sol is not None for _, sol in solves)
        assert ctl.dropout_events == 0


class TestLapProgress:
    def test_nmpc_keeps_its_lap_share_in_a_minute(self):
        # 0.413 laps at the time of writing; a solver change may cost at
        # most 1% of it
        result = run_embedded_mission("nmpc", figure_eight(20.0),
                                      duration=60.0)
        assert result.metrics["laps"] >= 0.409


class TestControlUnderCurrent:
    @pytest.mark.parametrize("current_east", [0.1, 0.2])
    def test_nmpc_completes_under_an_east_current(self, current_east):
        # a plan that lags the sample it is solved at, or a solve that
        # stops one iteration early, leaves the vessel short of the lap
        # share against the current
        result = run_embedded_mission(
            "nmpc", figure_eight(20.0), duration=120.0, target_laps=0.6,
            env=EnvDisturbance(current_east=current_east))
        assert result.completed
        assert result.metrics["completion_time_s"] > 0.0
