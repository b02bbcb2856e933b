import errno
import re
import socket
import threading
import time
import types

import pytest

from otterlink import cli, codec, transport
from otterlink.cli import (EXIT_CONFIG, EXIT_CONNECT, EXIT_NUMERIC, EXIT_OK,
                           EXIT_ORDERING, main)
from otterlink.client import TopicGateway
from otterlink.logbag import LogRecord, LogWriter, read_records
from otterlink.obc import OtterObc
from otterlink.vessel import NumericFault

FAST_BENCH = """
[bench]
duration = 15
target_laps = 0.05
"""


def write_config(tmp_path, text=FAST_BENCH):
    path = tmp_path / "run.ini"
    path.write_text(text, encoding="utf-8")
    return str(path)


def free_port():
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class TestExitCodes:
    def test_bad_config_file(self, tmp_path, capsys):
        assert main(["--config", "/does/not/exist.ini", "run",
                     "--embedded"]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "[bench]\nlaps = 2\n")
        assert main(["--config", cfg, "run", "--embedded"]) == EXIT_CONFIG

    @pytest.mark.parametrize("command", ["bench-fig8", "sim", "listen"])
    def test_bad_time_budget_is_a_config_error(self, tmp_path, capsys,
                                               command):
        cfg = write_config(tmp_path, "[nmpc]\ngrad_tol = fast\n")
        assert main(["--config", cfg, command]) == EXIT_CONFIG
        assert "bad value for grad_tol" in capsys.readouterr().err

    @pytest.mark.parametrize("command",
                             ["bench-fig8", "sim", "listen", "run --embedded"])
    def test_undecodable_config_file(self, tmp_path, capsys, command):
        cfg = tmp_path / "run.ini"
        cfg.write_bytes(b"[bench]\nduration = \xff\xfe\n")
        assert main(["--config", str(cfg), *command.split()]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["bench-fig8", "run --embedded"])
    def test_numeric_fault_exits_4(self, monkeypatch, capsys, command):
        def diverge(*_args, **_kwargs):
            raise NumericFault("non-finite state after step")

        monkeypatch.setattr(cli, "run_embedded_mission", diverge)
        assert main(command.split()) == EXIT_NUMERIC
        assert "numeric fault: non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        "run --embedded --log", "run --embedded --metrics-csv",
        "bench-fig8 --out-prefix", "bench-fig8 --csv"])
    def test_unwritable_output_is_a_config_error(self, monkeypatch, tmp_path,
                                                 capsys, command):
        # checked before any mission runs, not after it
        def no_mission(*_args, **_kwargs):
            raise AssertionError("mission started")

        monkeypatch.setattr(cli, "run_embedded_mission", no_mission)
        out = str(tmp_path / "missing" / "out.file")
        assert main(command.split() + [out]) == EXIT_CONFIG
        assert "config error: cannot write" in capsys.readouterr().err

    def test_default_section_is_a_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "[DEFAULT]\nrate_hz = 5\n" + FAST_BENCH)
        assert main(["--config", cfg, "run", "--embedded"]) == EXIT_CONFIG
        assert "unknown config section [DEFAULT]" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        "[transport]\ntelem_host = a%b\n", "rate_hz = 5\n",
        "[transport]\nrate_hz = 5\nrate_hz = 6\n"])
    def test_unparsable_config_file(self, tmp_path, capsys, text):
        cfg = write_config(tmp_path, text)
        assert main(["--config", cfg, "run", "--embedded"]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_replay_missing_file(self, capsys):
        assert main(["replay", "/no/such/file.olog"]) == EXIT_CONFIG

    def test_replay_skips_a_deeply_nested_line(self, tmp_path, capsys):
        log = tmp_path / "run.olog"
        with LogWriter(log) as writer:
            writer.record(LogRecord(0.0, 0.0, "rx", "otter_gps",
                                    {"lat": 45.0}))
        with open(log, "a", encoding="utf-8") as fh:
            fh.write("[" * 100000 + "\n")
        assert main(["replay", str(log)]) == EXIT_OK
        assert "skipped 1 corrupt lines" in capsys.readouterr().err
        out = tmp_path / "gps.csv"
        assert main(["replay", str(log), "--csv-topic", "otter_gps",
                     "--out", str(out)]) == EXIT_OK
        assert len(out.read_text(encoding="utf-8").splitlines()) == 2

    def test_run_socket_mode_unreachable_bind(self, tmp_path, capsys):
        # occupy the telemetry port so the client cannot bind
        blocker = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        blocker.bind(("127.0.0.1", 0))
        port = blocker.getsockname()[1]
        cfg = write_config(
            tmp_path, f"[transport]\ntelem_port = {port}\n[bench]\n"
                      "duration = 1\n")
        try:
            assert main(["--config", cfg, "run"]) == EXIT_CONNECT
        finally:
            blocker.close()

    @pytest.mark.parametrize("flag", ["--log", "--metrics-csv"])
    def test_run_socket_mode_rejects_output_flags(self, tmp_path, capsys,
                                                  monkeypatch, flag):
        # socket mode writes no log and no metrics, so asking for them
        # is a usage error raised before any socket is opened
        def no_client(*_endpoints):
            raise AssertionError("socket mode started")

        monkeypatch.setattr(cli, "BackseatClient", no_client)
        out = tmp_path / "out.file"
        cfg = write_config(tmp_path, "[bench]\nduration = 0.1\n")
        assert main(["--config", cfg, "run", flag, str(out)]) == EXIT_CONFIG
        assert "need --embedded" in capsys.readouterr().err
        assert not out.exists()


# (command line, config file, exit code, stderr prefix); {port} is a
# port another socket holds and {log} a two-record .olog
EXIT_CODE_MATRIX = [
    pytest.param("listen --duration 0.5", "[transport]\ntelem_port = 0",
                 EXIT_CONFIG, "config error: port 0", id="bad-port-listen"),
    pytest.param("run", "[transport]\ntelem_port = 0",
                 EXIT_CONFIG, "config error: port 0", id="bad-port-run"),
    pytest.param("sim --duration 0.5", "[transport]\ncmd_port = 0",
                 EXIT_CONFIG, "config error: port 0", id="bad-port-sim"),
    pytest.param("listen --duration 0.5", "[transport]\ntelem_port = {port}",
                 EXIT_CONNECT, "transport error: bind",
                 id="occupied-port-listen"),
    pytest.param("run", "[transport]\ntelem_port = {port}",
                 EXIT_CONNECT, "transport error: bind",
                 id="occupied-port-run"),
    pytest.param("sim --duration 0.5", "[transport]\ncmd_port = {port}",
                 EXIT_CONNECT, "transport error: bind",
                 id="occupied-port-sim"),
    pytest.param("sim --duration 0.5", "[transport]\nrate_hz = 50",
                 EXIT_CONFIG, "config error: telemetry rate",
                 id="sim-rate-out-of-band"),
    pytest.param("bench-fig8", "[bench]\namplitude = -1",
                 EXIT_CONFIG, "config error: amplitude",
                 id="bench-amplitude"),
    pytest.param("run --embedded", "[bench]\nduration = -5",
                 EXIT_CONFIG, "config error: duration", id="bench-duration"),
    pytest.param("run --embedded", "[bench]\nduration = inf",
                 EXIT_CONFIG, "config error: duration",
                 id="bench-infinite-duration"),
    # used to exit 0 with completion_time_s 0.0 after no physics step
    pytest.param("run --embedded", "[bench]\nduration = 0.009\n"
                 "target_laps = 0", EXIT_CONFIG, "config error: duration",
                 id="bench-duration-under-a-step"),
    pytest.param("run --embedded", "[bench]\nduration = 1\ntarget_laps = nan",
                 EXIT_CONFIG, "config error: target_laps",
                 id="bench-target-laps"),
    pytest.param("run --embedded", "[bench]\nduration = 1\n"
                 "dropout_start = 0\ndropout_duration = -1",
                 EXIT_CONFIG, "config error: dropout_duration",
                 id="bench-dropout-duration"),
    # a NaN start used to run with no dropout and exit 0
    pytest.param("run --embedded", "[bench]\nduration = 1\n"
                 "dropout_start = nan", EXIT_CONFIG,
                 "config error: dropout_start", id="bench-nan-dropout-start"),
    pytest.param("run --embedded", "[bench]\nduration = 1\n"
                 "dropout_start = inf", EXIT_CONFIG,
                 "config error: dropout_start", id="bench-inf-dropout-start"),
    pytest.param("run --embedded", "[bench]\nduration = 1\n"
                 "dropout_start = 0\ndropout_duration = nan", EXIT_CONFIG,
                 "config error: dropout_duration",
                 id="bench-nan-dropout-duration"),
    pytest.param("run --embedded", "[bench]\nduration = 1\n[nmpc]\nw_ct = nan",
                 EXIT_CONFIG, "config error: weight w_ct",
                 id="nmpc-nan-weight"),
    # each used to end in a codec.RangeError traceback (exit 1), a
    # numeric fault (exit 4) or a mission that ran to its end (exit 0)
    pytest.param("run --embedded --controller baseline",
                 "[bench]\nduration = 1\n[los]\nspeed = 5.0",
                 EXIT_CONFIG, "config error: speed must be in", id="los-speed-past-wire"),
    pytest.param("run --embedded --controller baseline",
                 "[bench]\nduration = 1\n[los]\nspeed = -1",
                 EXIT_CONFIG, "config error: speed must be in", id="los-negative-speed"),
    pytest.param("run --embedded --controller baseline",
                 "[bench]\nduration = 1\n[los]\nspeed = nan",
                 EXIT_CONFIG, "config error: speed must be in", id="los-nan-speed"),
    pytest.param("run --embedded --controller baseline",
                 "[bench]\nduration = 1\n[los]\nlookahead = nan",
                 EXIT_CONFIG, "config error: lookahead", id="los-nan-lookahead"),
    pytest.param("run --embedded --controller baseline",
                 "[bench]\nduration = 1\n[vessel]\norigin_lat = 95",
                 EXIT_CONFIG, "config error: origin_lat", id="vessel-lat-past-pole"),
    pytest.param("run --embedded --controller baseline",
                 "[bench]\nduration = 1\n[vessel]\norigin_lat = nan",
                 EXIT_CONFIG, "config error: origin_lat", id="vessel-nan-lat"),
    pytest.param("run --embedded --controller baseline",
                 "[bench]\nduration = 1\n[vessel]\norigin_lat = 90",
                 EXIT_CONFIG, "config error: origin_lat", id="vessel-lat-at-pole"),
    pytest.param("run --embedded --controller baseline",
                 "[bench]\nduration = 1\n[vessel]\norigin_lon = 200",
                 EXIT_CONFIG, "config error: origin_lon", id="vessel-lon-past-180"),
    pytest.param("run --embedded --controller baseline",
                 "[bench]\nduration = 1\n[vessel]\ncurrent_north = nan",
                 EXIT_CONFIG, "config error: current_north", id="vessel-nan-current"),
    pytest.param("run --embedded --controller baseline",
                 "[bench]\nduration = 1\n[vessel]\nm11 = nan",
                 EXIT_CONFIG, "config error: VesselParams.m11", id="vessel-nan-m11"),
    pytest.param("run --embedded --controller baseline",
                 "[bench]\nduration = 1\n[vessel]\nmotor_tau = inf",
                 EXIT_CONFIG, "config error: VesselParams.motor_tau", id="vessel-infinite-motor-tau"),
    # each used to bind the default ports, run nothing and exit 0; the
    # held port shows that no socket is bound before the check
    *(pytest.param(f"{command} --duration {value}",
                   f"[transport]\n{key} = {{port}}", EXIT_CONFIG,
                   "usage error: --duration must be finite and > 0",
                   id=f"{command}-duration-{value}")
      for command, key in (("sim", "cmd_port"), ("listen", "telem_port"))
      for value in ("nan", "-1", "0")),
    pytest.param("replay {log} --speed nan", "",
                 EXIT_CONFIG, "usage error: speed_factor must be finite",
                 id="replay-speed-nan"),
    pytest.param("replay {log} --speed 1e-300", "",
                 EXIT_CONFIG, "usage error: speed_factor 1e-300",
                 id="replay-speed-tiny"),
    pytest.param("replay {log} --csv-topic otter_gps --out {log}", "",
                 EXIT_CONFIG, "usage error: CSV output",
                 id="replay-csv-over-its-log"),
]


@pytest.mark.parametrize("command, text, code, prefix", EXIT_CODE_MATRIX)
def test_exit_code_matrix(tmp_path, capsys, command, text, code, prefix):
    """Each failure ends in `main`'s one mapping: its exit code and
    stderr prefix, no traceback, nothing on stdout (no record replayed)
    and no thread left running."""
    log = tmp_path / "short.olog"
    with LogWriter(log) as writer:
        for t in (0.0, 0.1):
            writer.record(LogRecord(t, t, "rx", "event", {"name": "x"}))
    blocker = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    blocker.bind(("127.0.0.1", 0))
    port = blocker.getsockname()[1]
    cfg = write_config(tmp_path, text.format(port=port))
    threads = threading.enumerate()
    try:
        got = main(["--config", cfg, *command.format(log=log).split()])
    finally:
        blocker.close()
    assert got == code
    out, err = capsys.readouterr()
    assert err.startswith(prefix)
    assert out == ""
    assert threading.enumerate() == threads


class TestSocketRunPacing:
    @staticmethod
    def run_socket(tmp_path, monkeypatch, durations, lines_per_poll,
                   duration):
        """Run socket mode against a fake client and clock: polling the
        client advances the clock by its timeout, and each control step
        by the next of `durations`. Returns (exit code, step starts,
        step deadlines)."""
        clock = types.SimpleNamespace(now=50.0)
        starts = []
        deadlines = []
        durations = iter(durations)

        class Client:
            def __init__(self, *_endpoints):
                pass

            def poll(self, timeout):
                assert timeout >= 0.0
                clock.now += timeout
                return lines_per_poll

            def close(self):
                pass

        class Controller:
            def __init__(self, *_args):
                pass

            def step(self, now, deadline):
                starts.append(now - 50.0)
                deadlines.append(deadline - 50.0)
                clock.now += next(durations)

        monkeypatch.setattr(cli, "time", types.SimpleNamespace(
            monotonic=lambda: clock.now))
        monkeypatch.setattr(cli, "BackseatClient", Client)
        monkeypatch.setattr(cli.runner, "LosBaselineController", Controller)
        cfg = write_config(tmp_path, f"[bench]\nduration = {duration}\n")
        code = main(["--config", cfg, "run", "--controller", "baseline"])
        return code, starts, deadlines

    def test_steps_start_on_a_fixed_grid(self, tmp_path, monkeypatch):
        # 30 ms steps except one that overruns by 150 ms
        code, starts, deadlines = self.run_socket(
            tmp_path, monkeypatch, [0.03, 0.03, 0.25] + [0.03] * 20,
            lines_per_poll=1, duration=1)
        assert code == EXIT_OK
        # the step at 0.2 s ends at 0.45 s, past the slots at 0.3 and
        # 0.4 s, so the next step starts at 0.5 s
        assert starts == pytest.approx([0.0, 0.1, 0.2, 0.5, 0.6, 0.7, 0.8,
                                        0.9], abs=1e-9)
        # each step's deadline is the next slot on the grid
        assert deadlines == pytest.approx([0.1, 0.2, 0.3, 0.6, 0.7, 0.8,
                                           0.9, 1.0], abs=1e-9)

    def test_no_telemetry_exits_3_after_5_s(self, tmp_path, monkeypatch,
                                            capsys):
        code, starts, _ = self.run_socket(tmp_path, monkeypatch,
                                          [0.03] * 100, lines_per_poll=0,
                                          duration=60)
        assert code == EXIT_CONNECT
        assert "no telemetry received" in capsys.readouterr().err
        assert starts[-1] == pytest.approx(5.0, abs=1e-9)

    def test_nmpc_reports_a_dropout(self, tmp_path, monkeypatch, capsys):
        # telemetry from a simulated OBC for the first second only; the
        # NMPC's dropout event used to go to a no-op
        clock = types.SimpleNamespace(now=50.0)
        obc = OtterObc()

        class Client(TopicGateway):
            def __init__(self, *_endpoints):
                super().__init__(command_sender=lambda line: None)

            def poll(self, timeout):
                clock.now += timeout
                if clock.now - 50.0 > 1.0:
                    return 0
                lines = obc.tick(clock.now - 50.0)
                for line in lines:
                    self.feed_line(line, clock.now)
                return len(lines)

            def close(self):
                pass

        monkeypatch.setattr(cli, "time", types.SimpleNamespace(
            monotonic=lambda: clock.now))
        monkeypatch.setattr(cli, "BackseatClient", Client)
        cfg = write_config(tmp_path, "[bench]\nduration = 3\n")
        assert main(["--config", cfg, "run", "--controller", "nmpc"]) \
            == EXIT_OK
        out, err = capsys.readouterr()
        assert out == ""
        assert re.fullmatch(r"dropout: no synced telemetry at t=\d+\.\d\d\n",
                            err), err


class TestConfigReachesTheSimulator:
    """Every command simulates the Otter its config describes."""

    def test_rate_hz_sets_the_embedded_telemetry_rate(self, tmp_path,
                                                      capsys):
        def gps_samples(text):
            cfg = write_config(tmp_path, text)
            assert main(["--config", cfg, "run", "--embedded",
                         "--controller", "baseline"]) == EXIT_OK
            out = capsys.readouterr().out
            return next(float(line.split(": ")[1])
                        for line in out.splitlines()
                        if line.startswith("gps_samples: "))

        at_10_hz = gps_samples(FAST_BENCH)
        at_20_hz = gps_samples("[transport]\nrate_hz = 20\n" + FAST_BENCH)
        assert abs(at_20_hz - 2 * at_10_hz) <= 2

    def test_sim_broadcasts_from_the_vessel_origin(self, tmp_path, capsys):
        telemetry = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        telemetry.bind(("127.0.0.1", 0))
        cfg = write_config(
            tmp_path, f"[transport]\ntelem_port = "
                      f"{telemetry.getsockname()[1]}\n"
                      f"cmd_port = {free_port()}\n"
                      "[vessel]\norigin_lat = 44.0\norigin_lon = -75.5\n")
        try:
            assert main(["--config", cfg, "sim", "--duration", "0.4"]) \
                == EXIT_OK
            telemetry.settimeout(1.0)
            while not isinstance(
                    fix := codec.decode_sentence(
                        telemetry.recv(65536).decode("ascii")),
                    codec.PosReport):
                pass
        finally:
            telemetry.close()
        # drifting with no current, the vessel stays at its origin
        assert (fix.lat, fix.lon) == pytest.approx((44.0, -75.5), abs=1e-6)

    @pytest.mark.parametrize("vessel, field", [
        ("origin_lon = 180\ncurrent_east = 1", "lon"),
        ("origin_lat = 89.99999\ncurrent_north = 3", "lat")])
    def test_sim_fix_off_the_map_is_a_numeric_fault(self, tmp_path, capsys,
                                                     vessel, field):
        # the current carries the drifting vessel off the map
        cfg = write_config(tmp_path, f"[transport]\ntelem_port = "
                                     f"{free_port()}\ncmd_port = "
                                     f"{free_port()}\n[vessel]\n{vessel}\n")
        assert main(["--config", cfg, "sim", "--duration", "2"]) \
            == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert err.startswith("numeric fault: position fix off the wire")
        assert f"field {field!r}" in err

    def test_sim_reports_rejected_commands(self, tmp_path, capsys,
                                           monkeypatch):
        # a corrupt line and a telemetry sentence reach the command port
        port = free_port()
        bound = threading.Event()
        listener = transport.UdpListener

        def signalling_listener(*args, **kwargs):
            made = listener(*args, **kwargs)
            bound.set()
            return made

        def send():
            if not bound.wait(5.0):
                return
            pos = codec.encode_sentence(
                codec.PosReport(43200.0, 45.0, -76.0, 0.0, 1.0, 0.0))
            with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
                for line in ("$POTCMD,garbage*00\r\n", pos):
                    sock.sendto(line.encode("ascii"), ("127.0.0.1", port))

        monkeypatch.setattr(transport, "UdpListener", signalling_listener)
        cfg = write_config(tmp_path, f"[transport]\ntelem_port = "
                                     f"{free_port()}\ncmd_port = {port}\n")
        sender = threading.Thread(target=send)
        sender.start()
        try:
            code = main(["--config", cfg, "sim", "--duration", "1.0"])
        finally:
            bound.set()
            sender.join()
        assert code == EXIT_OK
        assert capsys.readouterr().err == "rejected 2 command datagrams\n"

    def test_sim_closes_its_listener_when_the_broadcaster_fails(
            self, tmp_path, capsys, monkeypatch):
        made = []
        listener = transport.UdpListener

        class NoBroadcast(socket.socket):
            def setsockopt(self, level, name, value):
                if name == socket.SO_BROADCAST:
                    raise OSError(errno.EACCES, "Permission denied")
                super().setsockopt(level, name, value)

        def recorded(*args):
            made.append(listener(*args))
            return made[-1]

        monkeypatch.setattr(socket, "socket", NoBroadcast)
        monkeypatch.setattr(transport, "UdpListener", recorded)
        cfg = write_config(tmp_path, f"[transport]\ntelem_port = "
                                     f"{free_port()}\ncmd_port = "
                                     f"{free_port()}\n")
        threads = threading.enumerate()
        assert main(["--config", cfg, "sim", "--duration", "1"]) \
            == EXIT_CONNECT
        assert capsys.readouterr().err.startswith(
            "transport error: socket setup failed")
        assert [made_one._sock.fileno() for made_one in made] == [-1]
        assert threading.enumerate() == threads

    def test_sim_reports_failed_telemetry_sends(self, tmp_path, capsys,
                                                monkeypatch):
        class FailingSend(socket.socket):
            def sendto(self, *args):
                raise OSError(errno.EMSGSIZE, "Message too long")

        monkeypatch.setattr(socket, "socket", FailingSend)
        cfg = write_config(tmp_path, f"[transport]\ntelem_port = "
                                     f"{free_port()}\ncmd_port = "
                                     f"{free_port()}\n")
        assert main(["--config", cfg, "sim", "--duration", "0.5"]) == EXIT_OK
        err = capsys.readouterr().err
        assert re.fullmatch(r"failed to send [1-9]\d* telemetry datagrams\n",
                            err), err

    def test_bench_rows_equal_embedded_runs_under_a_dropout(self, tmp_path,
                                                            capsys):
        cfg = write_config(tmp_path, FAST_BENCH + "dropout_start = 2\n")
        bench_csv = tmp_path / "bench.csv"
        assert main(["--config", cfg, "bench-fig8", "--csv",
                     str(bench_csv)]) in (EXIT_OK, EXIT_ORDERING)
        lines = bench_csv.read_text(encoding="utf-8").splitlines()
        rows = {line.split(",")[0]: line.split(",")[1:] for line in lines[1:]}
        for kind in ("nmpc", "baseline"):
            metrics_csv = tmp_path / f"{kind}.csv"
            assert main(["--config", cfg, "run", "--embedded",
                         "--controller", kind, "--metrics-csv",
                         str(metrics_csv)]) == EXIT_OK
            lines = metrics_csv.read_text(encoding="utf-8").splitlines()
            metrics = dict(line.split(",") for line in lines[1:])
            assert rows[kind] == [metrics[key] for key in (
                "rms_cross_track_m", "max_cross_track_m", "laps",
                "completion_time_s")]

    def test_failed_command_send_exits_3(self, tmp_path, capsys):
        # a fix every 20 ms until the run ends makes the controller send
        port = free_port()
        line = codec.encode_sentence(
            codec.PosReport(43200.0, 45.0, -76.0, 0.0, 1.0, 0.0))
        done = threading.Event()

        def feed():
            with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
                while not done.wait(0.02):
                    sock.sendto(line.encode("ascii"), ("127.0.0.1", port))

        cfg = write_config(
            tmp_path, f"[transport]\ntelem_port = {port}\n"
                      "cmd_host = 255.255.255.255\n[bench]\nduration = 2\n")
        feeder = threading.Thread(target=feed)
        feeder.start()
        try:
            code = main(["--config", cfg, "run", "--controller", "baseline"])
        finally:
            done.set()
            feeder.join()
        assert code == EXIT_CONNECT
        assert "transport error: send to" in capsys.readouterr().err


class TestListen:
    def test_prints_decoded_lines_and_decode_errors(self, tmp_path, capsys,
                                                    monkeypatch):
        port = free_port()
        bound = threading.Event()
        listener = transport.UdpListener
        pos = codec.encode_sentence(
            codec.PosReport(43200.0, 45.0, -76.0, 0.0, 1.0, 0.0))

        def signalling_listener(*args, **kwargs):
            made = listener(*args, **kwargs)
            bound.set()
            return made

        def send():
            if not bound.wait(5.0):
                return
            with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
                for line in (pos, "$POTPOS,garbage*00\r\n"):
                    sock.sendto(line.encode("ascii"), ("127.0.0.1", port))

        monkeypatch.setattr(transport, "UdpListener", signalling_listener)
        cfg = write_config(tmp_path, f"[transport]\ntelem_port = {port}\n")
        sender = threading.Thread(target=send)
        sender.start()
        started = time.monotonic()
        try:
            code = main(["--config", cfg, "listen", "--duration", "0.5"])
        finally:
            bound.set()
            sender.join()
        assert code == EXIT_OK
        assert 0.5 <= time.monotonic() - started < 5.0
        out, err = capsys.readouterr()
        stamp = r"\[\d+\.\d{3}\] "
        decoded, error = out.splitlines()
        assert re.fullmatch(stamp + "PosReport: " + re.escape(pos.strip()),
                            decoded), decoded
        assert re.fullmatch(stamp + "decode error: .+", error), error
        assert err == ""

    @pytest.mark.parametrize("command", ["sim", "listen"])
    def test_ctrl_c_exits_0_and_closes_the_socket(self, tmp_path,
                                                  monkeypatch, command):
        made = []

        class Interrupted(transport.UdpListener):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(self)

            def poll(self, timeout):
                raise KeyboardInterrupt

        monkeypatch.setattr(transport, "UdpListener", Interrupted)
        cfg = write_config(tmp_path, f"[transport]\ntelem_port = "
                                     f"{free_port()}\ncmd_port = "
                                     f"{free_port()}\n")
        threads = threading.enumerate()
        assert main(["--config", cfg, command]) == EXIT_OK
        assert [listener._sock.fileno() for listener in made] == [-1]
        assert threading.enumerate() == threads


class TestEmbeddedRun:
    def test_timed_out_mission_says_its_metrics_are_partial(self, tmp_path,
                                                            capsys):
        cfg = write_config(tmp_path, "[bench]\nduration = 1\n"
                                     "target_laps = 1\n")
        assert main(["--config", cfg, "run", "--embedded",
                     "--controller", "baseline"]) == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert "completion_time_s: -1.0" in out
        assert out[-1] == "mission timeout: metrics are partial"

    def test_baseline_run_writes_log_and_csv(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        log = tmp_path / "mission.olog"
        csv_out = tmp_path / "metrics.csv"
        code = main(["--config", cfg, "run", "--embedded",
                     "--controller", "baseline", "--log", str(log),
                     "--metrics-csv", str(csv_out)])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "rms_cross_track_m" in out
        records, corrupt = read_records(log)
        assert corrupt == 0 and records
        text = csv_out.read_text(encoding="utf-8")
        assert text.startswith("metric,value\n")
        assert "solve_time" not in text

    def test_second_run_to_one_log_leaves_one_run(self, tmp_path, capsys):
        # the log used to be opened for appending, so a second run added
        # its mission behind the first and t_mono fell mid-file
        cfg = write_config(tmp_path)
        logs = [tmp_path / "once.olog", tmp_path / "twice.olog",
                tmp_path / "twice.olog"]
        for log in logs:
            assert main(["--config", cfg, "run", "--embedded",
                         "--controller", "baseline", "--log",
                         str(log)]) == EXIT_OK
        assert logs[1].read_bytes() == logs[0].read_bytes()

    def test_zero_target_laps_flies_the_whole_duration(self, tmp_path,
                                                       capsys):
        cfg = write_config(tmp_path, "[bench]\nduration = 3\n"
                                     "target_laps = 0\n")
        assert main(["--config", cfg, "run", "--embedded",
                     "--controller", "baseline"]) == EXIT_OK
        out = capsys.readouterr().out
        metrics = dict(line.split(": ") for line in out.splitlines())
        assert float(metrics["completion_time_s"]) == 3.0
        # 3 s of 10 Hz fixes
        assert float(metrics["gps_samples"]) == 30.0
        assert float(metrics["rms_cross_track_m"]) >= 0.0

    @pytest.mark.parametrize("vessel, field", [
        ("origin_lon = 180", "lon"), ("origin_lat = 89.99999", "lat")])
    def test_fix_off_the_map_is_a_numeric_fault(self, tmp_path, capsys,
                                                 vessel, field):
        cfg = write_config(tmp_path, f"[vessel]\n{vessel}\n"
                                     "[bench]\nduration = 5\n")
        assert main(["--config", cfg, "run", "--embedded",
                     "--controller", "baseline"]) == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert err.startswith("numeric fault: position fix off the wire")
        assert f"field {field!r}" in err

    def test_waypoint_file_path(self, tmp_path, capsys):
        waypoints = tmp_path / "line.txt"
        waypoints.write_text("# simple line\n0,0\n0,30\n", encoding="utf-8")
        cfg = write_config(tmp_path, "[bench]\nduration = 10\n"
                                     "target_laps = 0\n")
        code = main(["--config", cfg, "run", "--embedded",
                     "--controller", "baseline", "--path", str(waypoints)])
        assert code == EXIT_OK

    def test_malformed_waypoint_file(self, tmp_path, capsys):
        waypoints = tmp_path / "bad.txt"
        waypoints.write_text("0,0\nnot-a-number\n", encoding="utf-8")
        assert main(["run", "--embedded", "--path", str(waypoints)]) \
            == EXIT_CONFIG

    @pytest.mark.parametrize("point", ["nan,5", "inf,5", "0,-inf"])
    def test_non_finite_waypoint_is_a_config_error(self, tmp_path, capsys,
                                                   point):
        # nan,5 used to run a mission with rms 0.0, inf,5 one with nan
        waypoints = tmp_path / "bad.txt"
        waypoints.write_text(f"0,0\n{point}\n0,30\n", encoding="utf-8")
        cfg = write_config(tmp_path, "[bench]\nduration = 1\n")
        assert main(["--config", cfg, "run", "--embedded",
                     "--path", str(waypoints)]) == EXIT_CONFIG
        out, err = capsys.readouterr()
        assert err.startswith("config error: bad waypoint file")
        assert "must be finite" in err and out == ""


class TestReplayCommand:
    @pytest.fixture()
    def logfile(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        log = tmp_path / "mission.olog"
        assert main(["--config", cfg, "run", "--embedded",
                     "--controller", "baseline", "--log", str(log)]) \
            == EXIT_OK
        capsys.readouterr()
        return log

    def test_fast_replay(self, logfile, capsys):
        assert main(["replay", str(logfile), "--speed", "0"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "replayed" in out
        assert "otter_gps" in out

    def test_csv_export(self, logfile, tmp_path, capsys):
        out_csv = tmp_path / "gps.csv"
        assert main(["replay", str(logfile), "--csv-topic", "otter_gps",
                     "--out", str(out_csv)]) == EXIT_OK
        header = out_csv.read_text(encoding="utf-8").splitlines()[0]
        assert header == "t,utc,lat,lon,alt"

    def test_csv_export_unknown_topic(self, logfile, capsys):
        assert main(["replay", str(logfile), "--csv-topic", "sonar"]) \
            == EXIT_CONFIG

    def test_undecodable_line_is_skipped(self, logfile, capsys):
        with open(logfile, "ab") as fh:
            fh.write(b'{"v":1,\xff}\n')
        assert main(["replay", str(logfile)]) == EXIT_OK
        assert "skipped 1 corrupt lines" in capsys.readouterr().err

    def test_unwritable_out_is_a_config_error(self, logfile, tmp_path,
                                              capsys):
        out_csv = tmp_path / "missing" / "gps.csv"
        assert main(["replay", str(logfile), "--csv-topic", "otter_gps",
                     "--out", str(out_csv)]) == EXIT_CONFIG
        assert "config error: cannot write" in capsys.readouterr().err

    def test_negative_speed_is_a_usage_error(self, logfile, capsys):
        assert main(["replay", str(logfile), "--speed", "-1"]) == EXIT_CONFIG
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize("export", [False, True])
    def test_directory_log_is_reported(self, tmp_path, capsys, export):
        argv = ["replay", str(tmp_path)]
        if export:
            argv += ["--csv-topic", "otter_gps",
                     "--out", str(tmp_path / "gps.csv")]
        assert main(argv) == EXIT_CONFIG
        assert f"cannot read log file {tmp_path}" in capsys.readouterr().err
