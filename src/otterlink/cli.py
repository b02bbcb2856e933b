"""Operator command-line harness.

Subcommands:
  sim         run the simulated OBC, serving telemetry over UDP
  run         run one controller mission (embedded or against a live sim)
  bench-fig8  NMPC vs LOS+PI/PD side by side on the figure-eight
  replay      replay a .olog file or export one topic as CSV
  listen      tail and decode telemetry from a UDP endpoint

Exit codes. A failure is raised as a typed error, and `main` maps its
type to a stderr prefix and an exit code (`FAILURES`); any other
exception propagates as a traceback, so a bug stays visible.
  0  success               1  bench-fig8's ordering check (NMPC < LOS) failed
  2  config error: ConfigFileError, transport.ConfigError
  2  usage error: UsageError
  3  transport error: transport.TransportError
  4  numeric fault: vessel.NumericFault (a non-finite state, or a
     position fix the wire cannot carry)
"""

from __future__ import annotations

import argparse
import math
import sys
import time

from . import codec, guidance, logbag, runner, transport
from .client import BackseatClient
from .config import ConfigFileError, RunConfig, load_config
from .obc import OtterObc
from .runner import run_embedded_mission, write_metrics_csv
from .vessel import NumericFault, VesselState

EXIT_OK = 0
EXIT_ORDERING = 1
EXIT_CONFIG = 2
EXIT_CONNECT = 3
EXIT_NUMERIC = 4


class UsageError(Exception):
    """A command line the command cannot carry out."""


FAILURES = {ConfigFileError: ("config error", EXIT_CONFIG),
            transport.ConfigError: ("config error", EXIT_CONFIG),
            UsageError: ("usage error", EXIT_CONFIG),
            transport.TransportError: ("transport error", EXIT_CONNECT),
            NumericFault: ("numeric fault", EXIT_NUMERIC)}


def _load(args) -> RunConfig:
    return load_config(getattr(args, "config", None))


def _path_from_args(cfg: RunConfig, spec: str) -> guidance.PolylinePath:
    if spec in ("fig8", "figure-eight", "figure8"):
        return guidance.figure_eight(cfg.bench.amplitude)
    points = []
    try:
        with open(spec, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                north, east = (float(part) for part in line.split(","))
                points.append((north, east))
        return guidance.PolylinePath(points, closed=False)
    except (OSError, ValueError) as exc:
        raise ConfigFileError(f"bad waypoint file {spec!r}: {exc}") from exc


def _check_outputs(*paths) -> None:
    """Open each given output path for appending, so that one that
    cannot be written is a config error before any mission runs."""
    for path in filter(None, paths):
        try:
            with open(path, "a", encoding="utf-8"):
                pass
        except OSError as exc:
            raise ConfigFileError(f"cannot write {path!r}: {exc}") from exc


def _check_duration(args) -> None:
    """A `--duration` is omitted (run until Ctrl-C) or finite and > 0;
    the comparisons fail on NaN, so NaN is rejected too."""
    if args.duration is not None and not 0.0 < args.duration < math.inf:
        raise UsageError(
            f"--duration must be finite and > 0, not {args.duration}")


def cmd_sim(args) -> int:
    _check_duration(args)
    cfg = _load(args)
    rate = transport.RateConfig(cfg.transport.rate_hz)
    obc = OtterObc(params=cfg.vessel.params,
                   telemetry_hz=cfg.transport.rate_hz, env=cfg.vessel.env,
                   initial_state=VesselState(origin_lat=cfg.vessel.origin_lat,
                                             origin_lon=cfg.vessel.origin_lon))
    # the listener binds first: a failed bind leaves no broadcaster thread
    listener = transport.UdpListener(cfg.transport.command_endpoint)
    try:
        # each telemetry cycle is up to 4 sentences (pos, att, and the
        # 1 Hz status/time pair); burst keeps the paced stream current
        broadcaster = transport.UdpBroadcaster(
            cfg.transport.telemetry_endpoint, rate, burst=4)
    except transport.TransportError:
        listener.close()
        raise
    print(f"telemetry -> {cfg.transport.telemetry_endpoint.addr} "
          f"at {cfg.transport.rate_hz:g} Hz, commands <- "
          f"{cfg.transport.command_endpoint.addr}")
    rejected = 0  # datagrams that do not decode or are not commands
    t0 = time.monotonic()
    try:
        while args.duration is None or time.monotonic() - t0 < args.duration:
            for line, _stamp in listener.poll(0.02):
                try:
                    obc.handle_command(codec.decode_sentence(line))
                except (codec.CodecError, TypeError):
                    rejected += 1
            for out in obc.tick(time.monotonic() - t0):
                broadcaster.send(out)
    except KeyboardInterrupt:
        pass
    finally:
        broadcaster.close()
        listener.close()
    if rejected:
        print(f"rejected {rejected} command datagrams", file=sys.stderr)
    if broadcaster.send_errors:
        print(f"failed to send {broadcaster.send_errors} telemetry "
              f"datagrams", file=sys.stderr)
    return EXIT_OK


def _run_embedded(cfg: RunConfig, controller: str, path,
                  log_path) -> runner.MissionResult:
    """The one mapping from a config to an embedded mission."""
    fault = transport.FaultProfile(
        ((cfg.bench.dropout_start, cfg.bench.dropout_duration),)
        if cfg.bench.dropout_start >= 0 else ())
    writer = logbag.LogWriter(log_path) if log_path else None
    try:
        result = run_embedded_mission(
            controller, path, params=cfg.vessel.params,
            nmpc_config=cfg.nmpc, los_config=cfg.los, env=cfg.vessel.env,
            telemetry_hz=cfg.transport.rate_hz, duration=cfg.bench.duration,
            target_laps=cfg.bench.target_laps or None, fault=fault,
            origin_lat=cfg.vessel.origin_lat,
            origin_lon=cfg.vessel.origin_lon, log_writer=writer)
    finally:
        if writer:
            writer.close()
    return result


def cmd_run(args) -> int:
    cfg = _load(args)
    path = _path_from_args(cfg, args.path)
    if not args.embedded:
        if args.log or args.metrics_csv:
            raise UsageError("--log and --metrics-csv need --embedded")
        return _cmd_run_socket(args, cfg, path)
    _check_outputs(args.log, args.metrics_csv)
    result = _run_embedded(cfg, args.controller, path, args.log)
    for key in sorted(result.metrics):
        print(f"{key}: {result.metrics[key]}")
    if not result.completed:
        print("mission timeout: metrics are partial")
    if args.metrics_csv:
        write_metrics_csv(result.metrics, args.metrics_csv)
    return EXIT_OK


def _cmd_run_socket(args, cfg: RunConfig, path) -> int:
    """Drive a controller against an already-running `otterlink sim`."""
    client = BackseatClient(cfg.transport.telemetry_endpoint,
                            cfg.transport.command_endpoint)
    origin = (cfg.vessel.origin_lat, cfg.vessel.origin_lon)
    if args.controller == "nmpc":
        ctl = runner.NmpcController(client, path, cfg.nmpc,
                                    cfg.vessel.params, *origin)
    else:
        ctl = runner.LosBaselineController(client, path, cfg.los, *origin)
    period = 1.0 / runner.CONTROL_HZ
    slot = started = time.monotonic()
    end = slot + cfg.bench.duration
    fed = 0
    try:
        while (now := time.monotonic()) < end:
            # a step's deadline is the next slot on the grid
            ctl.step(now, slot + period)
            if not fed and time.monotonic() - started > 5.0:
                raise transport.TransportError(
                    "no telemetry received: is the simulator running?")
            # steps start on a fixed 10 Hz grid; slots an overrunning
            # step has already passed are skipped, not run back to back
            slot += period
            now = time.monotonic()
            if now > slot:
                slot += math.ceil((now - slot) / period) * period
            fed += client.poll(max(0.0, slot - now))
    except KeyboardInterrupt:
        pass
    finally:
        client.close()
    return EXIT_OK


def cmd_bench_fig8(args) -> int:
    cfg = _load(args)
    path = guidance.figure_eight(cfg.bench.amplitude)
    logs = {kind: f"{args.out_prefix}_{kind}.olog" if args.out_prefix
            else None for kind in ("nmpc", "baseline")}
    _check_outputs(*logs.values(), args.csv)
    rows = [(kind, _run_embedded(cfg, kind, path, log_path))
            for kind, log_path in logs.items()]
    header = f"{'controller':<10} {'rms_ct[m]':>10} {'max_ct[m]':>10} " \
             f"{'laps':>6} {'time[s]':>8}"
    print(header)
    csv_lines = ["controller,rms_cross_track_m,max_cross_track_m,laps,"
                 "completion_time_s"]
    for kind, result in rows:
        m = result.metrics
        print(f"{kind:<10} {m['rms_cross_track_m']:>10.3f} "
              f"{m['max_cross_track_m']:>10.3f} {m['laps']:>6.2f} "
              f"{m['completion_time_s']:>8.1f}")
        csv_lines.append(f"{kind},{m['rms_cross_track_m']!r},"
                         f"{m['max_cross_track_m']!r},{m['laps']!r},"
                         f"{m['completion_time_s']!r}")
    nmpc_rms = rows[0][1].metrics["rms_cross_track_m"]
    base_rms = rows[1][1].metrics["rms_cross_track_m"]
    ordering = nmpc_rms < base_rms
    print(f"ordering check (NMPC < baseline): "
          f"{'PASS' if ordering else 'FAIL'}")
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write("\n".join(csv_lines) + "\n")
    return EXIT_OK if ordering else EXIT_ORDERING


def cmd_replay(args) -> int:
    out = args.out or "export.csv"
    try:
        if args.csv_topic:
            count = logbag.export_csv(args.logfile, args.csv_topic, out)
            print(f"exported {count} rows to {out}")
            return EXIT_OK
        summary = logbag.replay(
            args.logfile, args.speed,
            lambda rec: print(f"[{rec.t_mono:10.3f}] {rec.direction} "
                              f"{rec.topic}: {rec.payload}"))
    except OSError as exc:
        if exc.filename == args.logfile:
            raise UsageError(f"cannot read log file {args.logfile}: "
                             f"{exc.strerror}") from exc
        # export_csv opens the log before the CSV, so an unknown topic
        # or an unreadable log leaves no empty CSV behind
        if exc.filename == out:
            raise ConfigFileError(f"cannot write {out!r}: {exc}") from exc
        raise
    except ValueError as exc:  # an unknown topic, a bad speed or a CSV
        # output that is the log itself
        raise UsageError(str(exc)) from exc
    if summary.corrupt_count:
        print(f"warning: skipped {summary.corrupt_count} corrupt lines",
              file=sys.stderr)
    print(f"replayed {summary.delivered} records "
          f"in {summary.wall_time:.2f} s")
    return EXIT_OK


def cmd_listen(args) -> int:
    _check_duration(args)
    cfg = _load(args)
    listener = transport.UdpListener(cfg.transport.telemetry_endpoint)
    t0 = time.monotonic()
    try:
        while args.duration is None or time.monotonic() - t0 < args.duration:
            for line, stamp in listener.poll(0.2):
                try:
                    msg = codec.decode_sentence(line)
                    tag = type(msg).__name__
                except codec.CodecError as exc:
                    print(f"[{stamp:.3f}] decode error: {exc}")
                    continue
                print(f"[{stamp:.3f}] {tag}: {line.strip()}")
    except KeyboardInterrupt:
        pass
    finally:
        listener.close()
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="otterlink",
        description="Otter USV backseat-driver stack: simulator, "
                    "controllers, benchmark, and log tools.")
    parser.add_argument("--config", help="INI config file path")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("sim", help="run the simulated OBC")
    p_sim.add_argument("--duration", type=float, default=None)
    p_sim.set_defaults(func=cmd_sim)

    p_run = sub.add_parser("run", help="run one controller mission")
    p_run.add_argument("--controller", choices=("nmpc", "baseline"),
                       default="nmpc")
    p_run.add_argument("--path", default="fig8",
                       help="'fig8' or a waypoint file (north,east lines)")
    p_run.add_argument("--embedded", action="store_true",
                       help="run sim and controller in-process (no sockets)")
    p_run.add_argument("--log", default=None, help=".olog output path")
    p_run.add_argument("--metrics-csv", default=None)
    p_run.set_defaults(func=cmd_run)

    p_bench = sub.add_parser("bench-fig8",
                             help="NMPC vs baseline on the figure-eight")
    p_bench.add_argument("--csv", default=None, help="comparison CSV path")
    p_bench.add_argument("--out-prefix", default=None,
                         help="write per-run .olog files with this prefix")
    p_bench.set_defaults(func=cmd_bench_fig8)

    p_rep = sub.add_parser("replay", help="replay or export a .olog file")
    p_rep.add_argument("logfile")
    p_rep.add_argument("--speed", type=float, default=0.0,
                       help="speed factor; 0 = as fast as possible")
    p_rep.add_argument("--csv-topic", default=None,
                       help="export this topic as CSV instead of replaying")
    p_rep.add_argument("--out", default=None, help="CSV output path")
    p_rep.set_defaults(func=cmd_replay)

    p_listen = sub.add_parser("listen", help="tail decoded telemetry")
    p_listen.add_argument("--duration", type=float, default=None)
    p_listen.set_defaults(func=cmd_listen)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(FAILURES) as exc:
        # the nearest mapped base, e.g. TransportError for a closed socket
        prefix, code = next(FAILURES[kind] for kind in type(exc).__mro__
                            if kind in FAILURES)
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
