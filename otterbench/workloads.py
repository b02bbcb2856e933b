"""One workload in a fresh process: the child half of ``run.py``.

Runs the workload's two passes, checks their outputs, and prints one
JSON object with the metrics. With ``--setup-only`` it stops at the
first timed step and reports only the set-up time; ``run.py`` starts
several such probes to take a median set-up time.

Inputs come only from ``--seed``; see README.md for the workloads and
metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import random
import resource
import socket
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import otterlink  # noqa: E402
from otterlink import (client, codec, guidance, logbag, obc,  # noqa: E402
                       runner, transport, vessel)

if Path(otterlink.__file__).resolve().parent != (SRC / "otterlink").resolve():
    raise SystemExit(f"otterlink was imported from {otterlink.__file__}, "
                     f"not from {SRC}")

from tracer import Tracer  # noqa: E402

WORKLOADS = ("fig8-nmpc", "fig8-los-logged", "udp-loop")

AMPLITUDE = 20.0               # m, the figure-eight of `otterlink bench-fig8`
ORIGIN = (45.0, -76.0)
# The seed draws the start arc position from a window inside one lobe,
# clear of the self-intersection at s = 0, where the cross-track error
# jumps between branches, and the lateral (to port) and heading (to
# starboard) offsets from narrow ranges: the mission's cross-track error
# and solver work scale with the offsets and depend on their sides.
START_WINDOW = (20.0, 22.0)                             # m of arc
START_OFFSET = (0.49, 0.51)                             # m, lateral
START_HEADING = (math.radians(4.9), math.radians(5.1))  # rad

# Host seconds per simulated second on a 2-core x86-64 box, used only to
# size the fixed amount of simulated time a pass runs for a given
# --seconds. The work is a function of (seed, seconds) alone, so a faster
# commit runs the same missions in less host time.
NMPC_HOST_PER_SIM = 0.85
LOS_HOST_PER_SIM = 0.021

UDP_TELEMETRY_HZ = 20.0
UDP_BURST = 4                  # as in `otterlink sim`
UDP_LOSS = 0.05
UDP_DROPOUT_S = 1.0
UDP_CORRUPT = 0.02             # share of sentences sent corrupted
# Loopback sendto queues the datagram before it returns, so a published
# command is already waiting; a longer poll would block the loop for the
# 1 ms the socket timeout rounds up to after the last datagram.
CMD_POLL_S = 5e-6
UDP_CALIBRATE_BEFORE_S = 0.01  # reference kernel runs this long before a step
CONTROL_EVERY = int(round(1.0 / (runner.CONTROL_HZ * obc.SIM_DT)))

READBACK_MIN_RECORDS = 20000   # read-back repeats until this many are read

# On a shared VM the cores run at full speed or about 40 % slower from
# one fraction of a second to the next, as other tenants load them.
# Every CPU-bound timing is therefore reported at a reference speed: a
# fixed kernel, owned by the benchmark and sharing no code with
# otterlink, runs every CALIBRATION_PERIOD_S during the timed phase, and
# the phase's timings are scaled by KERNEL_NOMINAL_S (the kernel's mean
# time on the 2-core x86-64 VM the benchmark was built on) over the
# kernel's mean time in that phase. The mean, not the median, because
# the slow-down is the average share of slow time. The raw values are
# printed too.
CALIBRATION_PERIOD_S = 0.1
KERNEL_NOMINAL_S = 1.8e-3
SETUP_KERNELS = 3              # kernel runs right after set-up scale it
TAIL_BEYOND = 10               # samples a tail percentile leaves above it


_KERNEL_POINTS = np.column_stack([np.sin(np.arange(256.0)),
                                  np.cos(np.arange(256.0) * 0.5)])


def reference_kernel() -> float:
    """Fixed CPU work in the style of the workloads: Python float
    arithmetic, calls and tuples, and NumPy operations on arrays of the
    size of the figure-eight polyline."""
    pts = _KERNEL_POINTS
    acc = 0.0
    for i in range(1500):
        x = i * 1e-3
        y = (math.sin(x) * x, x * x / (1.0 + x), abs(x - 1.5))
        acc += y[0] - y[1] + y[2]
        if i % 30 == 0:
            d = ((pts - (x, -x)) ** 2).sum(axis=1)
            acc += float(d[int(np.argmin(d))])
    return acc


class SetupDone(Exception):
    """Raised at the first timed step of a set-up probe."""


class Result:
    """Operation counts and correctness-gate checks of one workload run.

    Every failed operation counts in `failed` (and so in error_ratio); a
    run is `correct` only while every gate check holds."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.gate_failures = 0
        self.errors: list[str] = []

    def ops(self, attempted: int, failed: int = 0, what: str = "") -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.errors.append(f"{failed} failed: {what}")

    def check(self, ok: bool, what: str) -> None:
        self.ops(1, 0 if ok else 1, f"check: {what}")
        self.gate_failures += not ok


class Timers:
    """Host-time stamps the end-to-end metrics need, taken by wrapping
    public otterlink methods, and the reference-kernel runs. Installed in
    every pass, traced or not; each wrapper costs two clock reads per
    call."""

    def __init__(self, setup_only: bool):
        self.setup_only = setup_only
        self.setup_end: float | None = None
        self.step_s: list[float] = []
        self.solves = 0
        self.solve_failures = 0
        self.sentences = 0                   # embedded sentences emitted
        self.controllers: list = []
        self.telemetry_s: list[float] = []   # embedded telemetry latency
        self.command_s: list[float] = []     # embedded command latency
        self.mission_kernel_s = 0.0          # kernel time inside missions
        self.kernel_s = {"setup": [], "mission": [], "readback": []}
        self._last_kernel = 0.0
        self._tick_start = 0.0
        self._publish_start = 0.0
        self._saved: list[tuple[object, str, object]] = []

    def mark_setup_end(self) -> None:
        if self.setup_end is None:
            self.setup_end = time.monotonic()
            for _ in range(SETUP_KERNELS):
                self.mission_kernel_s += self.calibrate("setup", force=True)
            if self.setup_only:
                raise SetupDone

    def setup_times(self, spawned_at: float) -> dict:
        """Set-up time, raw and scaled to the reference speed."""
        raw = self.setup_end - spawned_at
        return {"setup_raw_s": raw, "setup_s": raw * self.speed("setup")}

    def calibrate(self, phase: str = "mission", force: bool = False) -> float:
        """Run the reference kernel if CALIBRATION_PERIOD_S has passed (or
        `force`); returns the host time it took."""
        t = time.monotonic()
        if not force and t - self._last_kernel < CALIBRATION_PERIOD_S:
            return 0.0
        # a collection of the workload's heap inside the kernel would
        # time the heap, not the machine
        gc.disable()
        try:
            reference_kernel()
        finally:
            gc.enable()
        self._last_kernel = time.monotonic()
        self.kernel_s[phase].append(self._last_kernel - t)
        return self.kernel_s[phase][-1]

    def speed(self, phase: str, start: int = 0, stop: int | None = None
              ) -> float:
        """Machine speed in `phase` (kernel runs start:stop) relative to
        the reference (<1: slower)."""
        return KERNEL_NOMINAL_S / float(
            np.mean(self.kernel_s[phase][start:stop]))

    def _wrap(self, owner, attr: str, make) -> None:
        original = owner.__dict__[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self, embedded: bool) -> None:
        clock = time.monotonic

        def step(fn):
            # CPU time of the calling thread: the step never blocks, and
            # time the OS gives to other processes is not the step's
            def timed(ctl, now):
                if not self.controllers or self.controllers[-1] is not ctl:
                    self.controllers.append(ctl)
                t = time.thread_time()
                fn(ctl, now)
                self.step_s.append(time.thread_time() - t)
            return timed

        def solve(fn):
            def counted(*args, **kwargs):
                self.solves += 1
                try:
                    sol = fn(*args, **kwargs)
                except Exception:
                    self.solve_failures += 1
                    raise
                self.solve_failures += sol is None
                return sol
            return counted

        self._wrap(runner.NmpcController, "step", step)
        self._wrap(runner.LosBaselineController, "step", step)
        self._wrap(runner, "solve_nmpc", solve)
        if not embedded:
            return

        def tick(fn):
            def timed(obc_, now):
                self.mark_setup_end()
                self.mission_kernel_s += self.calibrate()
                self._tick_start = clock()
                lines = fn(obc_, now)
                self.sentences += len(lines)
                return lines
            return timed

        def feed(fn):
            def timed(gw, line, stamp):
                self.telemetry_s.append(clock() - self._tick_start)
                return fn(gw, line, stamp)
            return timed

        def publish(fn):
            def timed(gw, topic, payload):
                self._publish_start = time.thread_time()
                return fn(gw, topic, payload)
            return timed

        def handle(fn):
            def timed(obc_, msg):
                self.command_s.append(time.thread_time()
                                      - self._publish_start)
                return fn(obc_, msg)
            return timed

        self._wrap(obc.OtterObc, "tick", tick)
        self._wrap(client.TopicGateway, "feed_line", feed)
        self._wrap(client.TopicGateway, "publish_command", publish)
        self._wrap(obc.OtterObc, "handle_command", handle)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


# -- helpers ----------------------------------------------------------

def tail(samples) -> tuple[float, float, int]:
    """(percentile, value, n): the highest percentile with TAIL_BEYOND
    samples beyond it (the maximum when there are too few samples)."""
    arr = np.asarray(samples, dtype=float)
    n = len(arr)
    if n <= 2 * TAIL_BEYOND:
        return 100.0, float(arr.max()), n
    p = 100.0 * (1.0 - TAIL_BEYOND / n)
    return p, float(np.percentile(arr, p, method="inverted_cdf")), n


def median(samples) -> float:
    return float(np.median(np.asarray(samples, dtype=float)))


def start_state(rng: random.Random, path) -> vessel.VesselState:
    """Seeded start pose near the path start."""
    s0 = rng.uniform(*START_WINDOW)
    north, east = (float(v) for v in path.point_at(s0))
    heading = path.project(north, east).path_heading
    offset = rng.uniform(*START_OFFSET)
    return vessel.VesselState(
        north=north + offset * math.sin(heading),
        east=east - offset * math.cos(heading),
        psi=(heading + rng.uniform(*START_HEADING)) % (2.0 * math.pi),
        origin_lat=ORIGIN[0], origin_lon=ORIGIN[1])


def fresh(name: str) -> Path:
    """A path in the output directory that holds no earlier file
    (LogWriter appends, so a stale log would leak into the read-back)."""
    OUT.mkdir(exist_ok=True)
    p = OUT / f"{os.getpid()}-{name}"
    p.unlink(missing_ok=True)
    return p


def write_log(log_path: Path, records, metrics) -> None:
    """Write a record stream plus its metric records, as the embedded
    runner does for a logged mission."""
    with logbag.LogWriter(log_path) as writer:
        for rec in records:
            writer.record(rec)
        last = records[-1] if records else None
        t_mono = last.t_mono if last else 0.0
        t_utc = last.t_utc if last else 0.0
        for name in sorted(metrics):
            writer.record(logbag.LogRecord(t_mono, t_utc, "tx", "metric",
                                           {"name": name,
                                            "value": metrics[name]}))


def read_back(log_path: Path, records, metrics, path, res: Result,
              rates: list[float], timers: Timers) -> None:
    """Time the .olog read-back (read_records + metrics_from_records +
    replay at speed 0 + export_csv) until READBACK_MIN_RECORDS records
    have been read, and check each read against the live run. Appends
    each repeat's (records per second, mean time of the four kernel
    runs around its steps) to `rates`."""
    gps_records = sum(1 for r in records if r.topic == "otter_gps")
    csv_path = fresh("gps.csv")
    total = 0
    while total < READBACK_MIN_RECORDS:
        delivered: list = []
        elapsed = kernel = 0.0
        # the kernel runs untimed before each of the four steps
        kernel += timers.calibrate("readback", force=True)
        t = time.perf_counter()
        got, corrupt = logbag.read_records(log_path)
        elapsed += time.perf_counter() - t
        kernel += timers.calibrate("readback", force=True)
        t = time.perf_counter()
        replayed = runner.metrics_from_records(got, path, *ORIGIN)
        elapsed += time.perf_counter() - t
        kernel += timers.calibrate("readback", force=True)
        t = time.perf_counter()
        summary = logbag.replay(log_path, 0.0, delivered.append)
        elapsed += time.perf_counter() - t
        kernel += timers.calibrate("readback", force=True)
        t = time.perf_counter()
        rows = logbag.export_csv(log_path, "otter_gps", csv_path)
        elapsed += time.perf_counter() - t
        rates.append((len(got) / elapsed, kernel / 4))
        total += max(1, len(got))
        res.ops(len(got) + corrupt, corrupt, "corrupt log lines on read-back")
        res.check(replayed == metrics, "replayed metrics equal live metrics")
        res.check(rows == gps_records,
                  f"export_csv rows {rows} == otter_gps records {gps_records}")
        res.check(summary.delivered == len(got) == len(delivered),
                  "replay delivered every record")
    csv_path.unlink(missing_ok=True)
    log_path.unlink(missing_ok=True)


# -- embedded workloads -----------------------------------------------

def embedded_pass(workload: str, seed: int, seconds: float, index: int,
                  timers: Timers, res: Result, acc: dict) -> None:
    rng = random.Random(f"{workload}/{seed}")  # same inputs in both passes
    path = guidance.figure_eight(AMPLITUDE)
    initial = start_state(rng, path)
    logged = workload == "fig8-los-logged"
    if logged:
        duration = round(0.5 * seconds / LOS_HOST_PER_SIM)
    else:
        duration = round(0.5 * seconds / NMPC_HOST_PER_SIM)
    duration = max(4.0, float(duration))
    log_path = fresh(f"pass{index}.olog")
    writer = logbag.LogWriter(log_path) if logged else None
    steps_before = len(timers.step_s)
    feeds_before = len(timers.telemetry_s)
    kernel_before = timers.mission_kernel_s
    controllers_before = len(timers.controllers)
    solves_before, failures_before = timers.solves, timers.solve_failures
    t = time.monotonic()
    try:
        result = runner.run_embedded_mission(
            "baseline" if logged else "nmpc", path,
            telemetry_hz=UDP_TELEMETRY_HZ if logged else 10.0,
            duration=duration, origin_lat=ORIGIN[0], origin_lon=ORIGIN[1],
            initial_state=initial, log_writer=writer)
    finally:
        if writer is not None:
            writer.close()
    host = time.monotonic() - t - (timers.mission_kernel_s - kernel_before)
    acc["rtf"].append(duration / host)
    acc["pass_steps"].append(timers.step_s[steps_before:])
    acc["sim_s"] += duration
    acc["host_s"] += host

    solves = timers.solves - solves_before
    failures = timers.solve_failures - failures_before
    res.ops(len(timers.step_s) - steps_before, failures,
            "solver returned None or raised")
    res.check(failures == 0, "zero solver failures")
    res.ops(len(timers.telemetry_s) - feeds_before, result.decode_errors,
            "uncorrupted sentences that failed to decode")
    if not logged:
        iters = sum(len(c.solve_iters)
                    for c in timers.controllers[controllers_before:])
        res.check(solves > 0 and iters == solves - failures,
                  f"solves {solves} - failures {failures} == the "
                  f"controller's solve_iters {iters}")

    csv_path = fresh(f"pass{index}-metrics.csv")
    runner.write_metrics_csv(result.metrics, csv_path)
    acc["metrics_csv"].append(csv_path.read_bytes())
    csv_path.unlink()
    acc["rms"].append(result.metrics["rms_cross_track_m"])
    acc["decode_errors"] += result.decode_errors
    if not logged:
        write_log(log_path, result.records, result.metrics)
    read_back(log_path, result.records, result.metrics, path, res,
              acc["replay"], timers)


# -- live UDP workload ------------------------------------------------

def _free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


class _StampedGateway(client.TopicGateway):
    """Gateway that stamps the thread CPU time at which each command is
    published and logs the command as a tx record, as the embedded
    runner does."""

    def __init__(self, command_sender, log):
        super().__init__(command_sender=command_sender)
        self.published: list[float] = []
        self._log = log

    def publish_command(self, topic, payload):
        self.published.append(time.thread_time())
        stamp = time.monotonic()
        line = super().publish_command(topic, payload)
        self._log(stamp, "tx", topic,
                  {f: getattr(payload, f) for f in payload.__dataclass_fields__})
        return line


def _corrupt(line: str) -> str:
    """The same sentence with a wrong checksum."""
    body, checksum = line[:-4], line[-4:-2]
    return f"{body}{int(checksum, 16) ^ 0x5A:02X}\r\n"


def udp_pass(seed: int, seconds: float, index: int, timers: Timers,
             res: Result, acc: dict) -> None:
    path = guidance.figure_eight(AMPLITUDE)
    north, east = (float(v) for v in path.point_at(0.0))
    initial = vessel.VesselState(
        north=north, east=east,
        psi=path.project(north, east).path_heading % (2.0 * math.pi),
        origin_lat=ORIGIN[0], origin_lon=ORIGIN[1])
    rng = random.Random(f"udp-loop/{seed}/{index}")
    fault = transport.FaultProfile(
        dropout_windows=((rng.uniform(0.3, 0.6) * seconds, UDP_DROPOUT_S),),
        loss_prob=UDP_LOSS, seed=rng.randrange(2 ** 31))
    corrupt_rng = random.Random(rng.randrange(2 ** 31))

    telem = transport.Endpoint("127.0.0.1", _free_port())
    cmd = transport.Endpoint("127.0.0.1", _free_port())
    listener = transport.open_listener(telem)
    cmd_listener = transport.open_listener(cmd)
    wire = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    broadcaster = transport.open_broadcaster(
        telem, transport.RateConfig(UDP_TELEMETRY_HZ), fault, burst=UDP_BURST)
    try:
        sim = obc.OtterObc(telemetry_hz=UDP_TELEMETRY_HZ,
                           initial_state=initial)
        records: list[logbag.LogRecord] = []
        t0 = 0.0

        def log(stamp: float, direction: str, topic: str, payload) -> None:
            t_rel = stamp - t0
            records.append(logbag.LogRecord(t_rel, sim.utc0 + t_rel,
                                            direction, topic, payload))

        def send_command(line: str) -> None:
            wire.sendto(line.encode("ascii"), cmd.addr)

        gateway = _StampedGateway(send_command, log)
        published = gateway.published
        for topic in client.TELEMETRY_TOPICS:
            gateway.subscribe(topic, lambda sample, _topic=topic: log(
                sample.stamp, "rx", _topic, sample.payload))
        controller = runner.LosBaselineController(
            gateway, path, guidance.LosConfig(), *ORIGIN)

        due_at: dict[str, float] = {}
        corrupted: set[str] = set()
        latencies: list[float] = []
        lags: list[float] = []
        emitted = delivered = clean_failures = corrupt_seen = injected = 0
        steps_before = len(timers.step_s)

        def feed(batch) -> None:
            nonlocal delivered, clean_failures, corrupt_seen
            for line, stamp in batch:
                errors = gateway.decode_errors
                gateway.feed_line(line, stamp)
                if line in corrupted:
                    corrupt_seen += 1
                    continue
                due = due_at.pop(line, None)
                if gateway.decode_errors != errors or due is None:
                    clean_failures += 1
                    continue
                delivered += 1
                latencies.append(stamp - due)

        def handle_commands(batch) -> None:
            received = time.thread_time()
            for line, _stamp in batch:
                acc["command"].append(received - published.pop(0))
                sim.handle_command(codec.decode_sentence(line))

        n_steps = int(round(seconds / obc.SIM_DT))
        timers.mark_setup_end()
        t0 = time.monotonic()
        for k in range(1, n_steps + 1):
            t_sim = k * obc.SIM_DT
            due = t0 + t_sim
            wait = due - time.monotonic()
            if wait > UDP_CALIBRATE_BEFORE_S + 2 * KERNEL_NOMINAL_S:
                # calibrate mid-cycle, clear of the datagrams of the last
                # step and of the next one
                feed(listener.poll(wait - UDP_CALIBRATE_BEFORE_S))
                timers.calibrate()
                wait = due - time.monotonic()
            if wait > 0:
                feed(listener.poll(wait))
            lags.append(time.monotonic() - due)
            for line in sim.tick(t_sim):
                emitted += 1
                if corrupt_rng.random() < UDP_CORRUPT:
                    bad = _corrupt(line)
                    corrupted.add(bad)
                    injected += 1
                    wire.sendto(bad.encode("ascii"), telem.addr)
                else:
                    due_at[line] = due
                    broadcaster.send(line)
            broadcaster.pending()  # sampled; the tracer keeps the maximum
            if k % CONTROL_EVERY == 0:
                controller.step(time.monotonic())
            if published:
                handle_commands(cmd_listener.poll(CMD_POLL_S))
        # let the paced queue and the corrupted datagrams drain
        drain_until = time.monotonic() + 1.0
        while broadcaster.pending() and time.monotonic() < drain_until:
            feed(listener.poll(0.01))
        feed(listener.poll(0.1))
        handle_commands(cmd_listener.poll(0.01))
        host = time.monotonic() - t0
    finally:
        broadcaster.close()
        listener.close()
        cmd_listener.close()
        wire.close()

    acc["rtf"].append(n_steps * obc.SIM_DT / host)
    acc["sim_s"] += n_steps * obc.SIM_DT
    acc["host_s"] += host
    acc["telemetry"].extend(latencies)
    acc["lag"].extend(lags)
    acc["emitted"] += emitted
    acc["delivered"] += delivered
    res.ops(len(timers.step_s) - steps_before)
    res.ops(emitted - injected, clean_failures,
            "uncorrupted sentences that failed to decode")
    res.check(gateway.decode_errors == injected == corrupt_seen,
              f"decode_errors {gateway.decode_errors} == corrupted "
              f"datagrams injected {injected} (received {corrupt_seen})")
    res.check(not published, "every published command was received")

    metrics = runner.compute_metrics(records, path, *ORIGIN)
    acc["rms"].append(metrics["rms_cross_track_m"])
    log_path = fresh(f"pass{index}.olog")
    write_log(log_path, records, metrics)
    read_back(log_path, records, metrics, path, res, acc["replay"], timers)


# -- one run ----------------------------------------------------------

def run(workload: str, seed: int, seconds: float, trace: bool,
        setup_only: bool, spawned_at: float) -> dict:
    res = Result()
    timers = Timers(setup_only)
    embedded = workload != "udp-loop"
    timers.install(embedded)
    acc = {"rtf": [], "rms": [], "replay": [], "telemetry": [],
           "command": [], "lag": [], "emitted": 0, "delivered": 0,
           "decode_errors": 0, "metrics_csv": [],
           "sim_s": 0.0, "host_s": 0.0, "pass_steps": []}
    tracer = None
    untraced = {}
    for index in range(2):
        if trace and index == 1:
            untraced = {"rtf": acc["rtf"][0], "lags": len(acc["lag"]),
                        "steps": len(timers.step_s),
                        "kernels": len(timers.kernel_s["mission"])}
            tracer = Tracer()
            tracer.install()
            # its own span keeps the kernel out of the span it runs in
            tracer.trace([sys.modules[__name__]], "reference_kernel",
                         "bench.reference_kernel")
        try:
            if embedded:
                embedded_pass(workload, seed, seconds, index, timers, res,
                              acc)
            else:
                udp_pass(seed, 0.5 * seconds, index, timers, res, acc)
        except SetupDone:
            return timers.setup_times(spawned_at)
        except Exception:  # a failed pass is reported, not fatal
            traceback.print_exc(file=sys.stderr)
            res.check(False, f"pass {index} ran to completion")
            return {"attempted": res.attempted, "failed": res.failed,
                    "correct": False, "errors": res.errors}
        finally:
            if tracer is not None:
                tracer.uninstall()

    if embedded:
        res.check(acc["metrics_csv"][0] == acc["metrics_csv"][1],
                  "both passes of one seed write byte-identical metric CSVs")
        acc["telemetry"] = timers.telemetry_s
        acc["command"] = timers.command_s
        acc["emitted"] = timers.sentences
        acc["delivered"] = len(timers.telemetry_s) - acc["decode_errors"]

    out = {}
    if trace:
        out["per_layer"] = traced_metrics(tracer, timers, untraced, acc,
                                          embedded, res)
    else:
        out.update(end_to_end(acc, timers, embedded))
        out.update(timers.setup_times(spawned_at))
    out.update(attempted=res.attempted, failed=res.failed,
               correct=res.gate_failures == 0, errors=res.errors)
    return out


def end_to_end(acc: dict, timers: Timers, embedded: bool) -> dict:
    """End-to-end metrics, CPU-bound ones scaled to the reference speed.
    The live loop's telemetry latencies and its real-time rtf are
    wall-clock bound and stay unscaled; its command latency is not,
    because the datagram is already queued when the listener polls."""
    tail_steps = timers.step_s
    if embedded and len(acc["pass_steps"][0]) == len(acc["pass_steps"][1]):
        # both passes run the same steps: a step's own cost recurs in
        # both, while noise from other processes on the machine rarely
        # hits the same step twice, so the tail is taken over the faster
        # of each step's two timings
        first, second = acc["pass_steps"]
        tail_steps = np.minimum(first, second)
    step_p, step_tail, step_n = tail(np.array(tail_steps) * 1e3)
    tel_p, tel_tail, tel_n = tail(np.array(acc["telemetry"]) * 1e3)
    raw = {
        "mission_rtf": acc["sim_s"] / acc["host_s"],
        "control_step_p50_ms": median(timers.step_s) * 1e3,
        "control_step_tail_ms": step_tail,
        "rms_cross_track_m": median(acc["rms"]),
        "replay_records_per_s": median([r for r, _ in acc["replay"]]),
        "telemetry_latency_p50_ms": median(acc["telemetry"]) * 1e3,
        "telemetry_latency_tail_ms": tel_tail,
        "command_latency_p50_ms": median(acc["command"]) * 1e3,
        "telemetry_delivered_ratio": acc["delivered"] / acc["emitted"],
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    times = ["control_step_p50_ms", "control_step_tail_ms",
             "command_latency_p50_ms"]
    if embedded:
        times += ["telemetry_latency_p50_ms", "telemetry_latency_tail_ms"]
    speed = timers.speed("mission")
    scaled = dict(raw)
    for name in times:
        scaled[name] = raw[name] * speed
    if embedded:
        scaled["mission_rtf"] = raw["mission_rtf"] / speed
    # each read-back repeat at the speed of the kernel runs around it
    scaled["replay_records_per_s"] = median(
        [rate * kernel / KERNEL_NOMINAL_S for rate, kernel in acc["replay"]])
    return {"tails": {"control_step_tail_ms": [step_p, step_n],
                      "telemetry_latency_tail_ms": [tel_p, tel_n]},
            "end_to_end": scaled, "raw": raw,
            "speed": {phase: timers.speed(phase) for phase in timers.kernel_s}}


def traced_metrics(tracer: Tracer, timers: Timers, untraced: dict, acc: dict,
                   embedded: bool, res: Result) -> dict:
    """Per-layer metrics of the traced pass, checked against counts taken
    independently of the spans."""
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / "spans.csv")
    m = tracer.layer_metrics()
    rtf_untraced = untraced["rtf"]
    rtf_traced = acc["rtf"][-1]
    m["bench.rtf_untraced"] = rtf_untraced
    m["bench.rtf_traced"] = rtf_traced
    ratio = rtf_untraced / rtf_traced
    if embedded:
        # each pass's rtf at the reference speed of its own kernel runs
        k = untraced["kernels"]
        ratio *= (timers.speed("mission", k) / timers.speed("mission", 0, k))
    m["bench.trace_overhead_pct"] = 100.0 * (ratio - 1.0)
    lags = acc["lag"][untraced["lags"]:]
    m["bench.generator_lag_ms_tail"] = (tail(np.array(lags) * 1e3)[1]
                                        if lags else 0.0)

    steps = len(timers.step_s) - untraced["steps"]
    res.check(m["runner.control_steps"] == steps,
              f"control step spans {m['runner.control_steps']} == {steps}")
    res.check(m["nmpc.solves"] == len(tracer.iters) + m["nmpc.failures"],
              "solve spans == solutions + failures")
    if embedded and timers.controllers and hasattr(timers.controllers[-1],
                                                   "solve_iters"):
        iters = timers.controllers[-1].solve_iters
        res.check(tracer.iters == iters,
                  f"solve spans {len(tracer.iters)} match the controller's "
                  f"solve_iters {len(iters)}")
    handled = tracer.span_count("obc.handle_command")
    res.check(m["codec.decodes"] == m["client.lines_fed"] + handled,
              "decodes == lines fed + commands handled")
    publishes = tracer.span_count("client.publish_command")
    res.check(m["codec.encodes"] == m["obc.sentences_emitted"] + publishes,
              "encodes == sentences emitted + commands published")
    if embedded:
        res.check(m["client.lines_fed"] == m["obc.sentences_emitted"],
                  "every emitted sentence was fed to the gateway")
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() just before this process started")
    args = ap.parse_args(argv)
    try:
        out = run(args.workload, args.seed, args.seconds, bool(args.trace),
                  args.setup_only, args.spawned_at)
    finally:
        for leftover in OUT.glob(f"{os.getpid()}-*"):
            leftover.unlink()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
