"""End-to-end acceptance suite.

One test per acceptance criterion; each prints a single PASS/FAIL line
with the measured values so a captured run reads as a checklist.
Benchmark missions are shared through a module-scoped fixture because
three criteria interrogate the same runs.
"""

import functools
import math
import operator
import random
import time

import numpy as np
import pytest

from otterlink import codec
from otterlink.client import ApproxTimeSync, DEFAULT_SLOP, SYNC_TOPICS, \
    TopicSample
from otterlink.guidance import figure_eight
from otterlink.logbag import LogWriter, read_records
from otterlink.nmpc import (NmpcConfig, cost_gradient, cost_of_inputs,
                            solve_nmpc, state_vector)
from otterlink.obc import OtterObc, SIM_DT
from otterlink.runner import (metrics_from_records, run_embedded_mission,
                              write_metrics_csv)
from otterlink import transport
from otterlink.vessel import EnvDisturbance, VesselParams, VesselState

PARAMS = VesselParams()


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}")


# --------------------------------------------------------------------
# 1. codec roundtrip: 10k randomized messages, < 1 s


def _random_message(rng: random.Random) -> codec.OtterMessage:
    kind = rng.randrange(8)
    if kind == 0:
        return codec.PosReport(rng.uniform(0, 86399), rng.uniform(-90, 90),
                               rng.uniform(-180, 180), rng.uniform(-5, 50),
                               rng.uniform(0, 5), rng.uniform(0, 359.99))
    if kind == 1:
        return codec.AttReport(rng.uniform(0, 86399), rng.uniform(-180, 180),
                               rng.uniform(-90, 90), rng.uniform(0, 359.99),
                               rng.uniform(-50, 50), rng.uniform(-50, 50),
                               rng.uniform(-50, 50))
    if kind == 2:
        return codec.StatusReport(rng.choice(codec.MODE_TAGS),
                                  rng.randrange(0, 1101),
                                  rng.randrange(0, 1101),
                                  rng.uniform(-10, 40), rng.uniform(0, 100),
                                  rng.uniform(0, 1000))
    if kind == 3:
        return codec.TimeReport(rng.randrange(20000101, 20991231),
                                rng.uniform(0, 86399))
    if kind == 4:
        return codec.DriftCmd(rng.random() < 0.5)
    if kind == 5:
        return codec.ManualCmd(rng.uniform(-1, 1), rng.uniform(-1, 1),
                               rng.uniform(-1, 1))
    if kind == 6:
        return codec.StationKeepCmd(rng.uniform(-90, 90),
                                    rng.uniform(-180, 180),
                                    rng.uniform(0, codec.V_MAX))
    return codec.CourseSpeedCmd(rng.uniform(0, 360),
                                rng.uniform(0, codec.V_MAX))


def test_criterion_01_codec_roundtrip_10k_under_1s():
    rng = random.Random(12345)
    messages = [_random_message(rng) for _ in range(10_000)]
    t0 = time.perf_counter()
    lines = [codec.encode_sentence(m) for m in messages]
    decoded = [codec.decode_sentence(line) for line in lines]
    elapsed = time.perf_counter() - t0
    mismatches = sum(codec.encode_sentence(d) != line
                     for d, line in zip(decoded, lines))
    # independent checksum oracle on a slice of the generated lines
    bad_sums = 0
    for line in lines[::97]:
        payload, tail = line[1:].split("*")
        oracle = functools.reduce(operator.xor, payload.encode(), 0)
        if f"{oracle:02X}" != tail[:2]:
            bad_sums += 1
    ok = elapsed < 1.0 and mismatches == 0 and bad_sums == 0
    report(1, ok, f"10k roundtrips in {elapsed:.3f} s, "
                  f"{mismatches} mismatches, {bad_sums} checksum diffs")
    assert ok


# --------------------------------------------------------------------
# 2. telemetry pacing at 10 Hz over loopback; rates outside [1, 20]
#    rejected


def test_criterion_02_rate_pacing_and_bounds():
    with pytest.raises(transport.ConfigError):
        transport.RateConfig(0.5)
    with pytest.raises(transport.ConfigError):
        transport.RateConfig(25.0)

    endpoint = transport.Endpoint("127.0.0.1", 18451)
    listener = transport.open_listener(endpoint)
    broadcaster = transport.open_broadcaster(endpoint,
                                             transport.RateConfig(10.0))
    line = codec.encode_sentence(codec.DriftCmd(True))
    try:
        for _ in range(104):
            broadcaster.send(line)
        stamps = []
        deadline = time.monotonic() + 12.5
        while len(stamps) < 101 and time.monotonic() < deadline:
            stamps.extend(t for _, t in listener.poll(0.2))
    finally:
        broadcaster.close()
        listener.close()
    gaps = np.diff(np.array(stamps[:101]))
    mean_gap = float(np.mean(gaps))
    ok = len(stamps) >= 101 and 0.090 <= mean_gap <= 0.110
    report(2, ok, f"{len(stamps)} datagrams, mean spacing "
                  f"{mean_gap * 1e3:.1f} ms over {len(gaps)} gaps "
                  f"(bounds 90-110 ms); rates 0.5/25 Hz rejected")
    assert ok


# --------------------------------------------------------------------
# 3. top speed 3.0 m/s +/- 2 % within 60 s of full surge


def test_criterion_03_top_speed_calibration():
    obc = OtterObc()
    obc.handle_command(codec.ManualCmd(1.0, 0.0, 0.0))
    for k in range(1, int(60.0 / SIM_DT) + 1):
        obc.tick(k * SIM_DT)
    u = obc.state.u
    ok = abs(u - 3.0) <= 0.02 * 3.0
    report(3, ok, f"surge after 60 s = {u:.4f} m/s (target 3.00 +/- 0.06)")
    assert ok


# --------------------------------------------------------------------
# 4. cold-start delay of 2.0 s, +/- one 20 ms tick


def test_criterion_04_startup_delay():
    obc = OtterObc()
    obc.handle_command(codec.ManualCmd(1.0, 0.0, 0.0))
    first_thrust = None
    for k in range(1, 301):
        obc.tick(k * SIM_DT)
        if obc.motor_port.actual_norm > 0.0:
            first_thrust = k * SIM_DT
            break
    ok = first_thrust is not None and \
        abs(first_thrust - PARAMS.startup_delay) <= SIM_DT + 1e-9
    report(4, ok, f"first nonzero thrust at t = {first_thrust} s "
                  f"(expected {PARAMS.startup_delay} +/- {SIM_DT})")
    assert ok


# --------------------------------------------------------------------
# 5. reported RPM never negative, even in reverse


def test_criterion_05_unsigned_rpm():
    obc = OtterObc()
    obc.handle_command(codec.ManualCmd(-1.0, 0.0, 0.2))
    status = []
    for k in range(1, int(15.0 / SIM_DT) + 1):
        for line in obc.tick(k * SIM_DT):
            msg = codec.decode_sentence(line)
            if isinstance(msg, codec.StatusReport):
                status.append(msg)
    negatives = sum(m.rpm_port < 0 or m.rpm_stbd < 0 for m in status)
    spinning = sum(m.rpm_port > 0 for m in status)
    ok = status and negatives == 0 and spinning > 0 \
        and obc.motor_port.rpm_signed < 0
    report(5, ok, f"{len(status)} status reports in reverse thrust, "
                  f"{negatives} negative RPM fields "
                  f"(signed internal rpm {obc.motor_port.rpm_signed:.0f})")
    assert ok


# --------------------------------------------------------------------
# 6. synchronizer equals the brute-force oracle


def _oracle(trace, slop):
    latest, out = {}, []
    for sample in trace:
        latest[sample.topic] = sample
        if len(latest) == len(SYNC_TOPICS):
            stamps = [s.stamp for s in latest.values()]
            if max(stamps) - min(stamps) <= slop:
                out.append(tuple(sorted(
                    (t, latest[t].stamp) for t in SYNC_TOPICS)))
                latest.clear()
    return out


def test_criterion_06_sync_matches_oracle():
    rng = random.Random(777)
    diverged = 0
    trials = 300
    for _ in range(trials):
        t = 0.0
        trace = []
        for i in range(rng.randint(3, 100)):
            t += rng.uniform(0.0, 0.13)
            trace.append(TopicSample(rng.choice(SYNC_TOPICS), round(t, 4),
                                     {"i": i}))
        got = []
        sync = ApproxTimeSync(
            SYNC_TOPICS, DEFAULT_SLOP,
            lambda s: got.append(tuple(sorted([
                ("otter_gps", trace[s.gps["i"]].stamp),
                ("otter_imu", trace[s.imu["i"]].stamp),
                ("otter_cogsog", trace[s.cogsog["i"]].stamp)]))))
        for sample in trace:
            sync.offer(sample)
        if got != _oracle(trace, DEFAULT_SLOP):
            diverged += 1
    ok = diverged == 0
    report(6, ok, f"{trials} randomized traces, {diverged} divergences "
                  f"from the brute-force matcher")
    assert ok


# --------------------------------------------------------------------
# 7. analytic gradient vs central finite differences: 100 instances,
#    rel. error < 1e-4, < 10 s total


def test_criterion_07_gradient_check():
    config = NmpcConfig()
    path = figure_eight(20.0)
    rng = np.random.default_rng(99)
    worst = 0.0
    t0 = time.perf_counter()
    for _ in range(100):
        state = VesselState(north=rng.uniform(-25, 25),
                            east=rng.uniform(-25, 25),
                            psi=rng.uniform(0, 2 * math.pi),
                            u=rng.uniform(-0.5, 2.5),
                            v=rng.uniform(-0.4, 0.4),
                            r=rng.uniform(-0.5, 0.5))
        # motor commands over the whole box, where the cost is smooth
        motors = rng.uniform(-1, 1, size=(config.steps_N, 2))
        prev = (float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1)))
        y0 = state_vector(state)
        _, grad = cost_gradient(y0, motors, path, config, PARAMS, prev)
        fd = np.zeros_like(motors)
        eps = 1e-6
        for k in range(config.steps_N):
            for j in range(2):
                up, dn = motors.copy(), motors.copy()
                up[k, j] += eps
                dn[k, j] -= eps
                fd[k, j] = (cost_of_inputs(y0, up, path, config, PARAMS, prev)
                            - cost_of_inputs(y0, dn, path, config, PARAMS,
                                             prev)) / (2 * eps)
        rel = float(np.max(np.abs(grad - fd))
                    / max(1.0, float(np.max(np.abs(fd)))))
        worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-4 and elapsed < 10.0
    report(7, ok, f"100 instances, worst relative error {worst:.2e} "
                  f"(< 1e-4), {elapsed:.2f} s (< 10 s)")
    assert ok


# --------------------------------------------------------------------
# 8. solver wall time: mean < 100 ms, p99 < 200 ms


def test_criterion_08_solve_time_budget():
    config = NmpcConfig()  # stock settings; 90 ms is an on-time live budget
    path = figure_eight(20.0)
    rng = np.random.default_rng(4)
    times = []
    previous = None
    prev_motors = (0.0, 0.0)
    for i in range(150):
        s = (i / 150.0) * path.length
        pt = path.point_at(s)
        heading = path.project(float(pt[0]), float(pt[1])).path_heading
        state = VesselState(north=float(pt[0]) + rng.uniform(-0.5, 0.5),
                            east=float(pt[1]) + rng.uniform(-0.5, 0.5),
                            psi=(heading + rng.uniform(-0.15, 0.15))
                            % (2 * math.pi),
                            u=1.0 + rng.uniform(-0.3, 0.3),
                            v=rng.uniform(-0.1, 0.1),
                            r=rng.uniform(-0.2, 0.2))
        sol = solve_nmpc(state, path, config, PARAMS, warm_start=previous,
                         prev_motors=prev_motors, budget_s=0.09)
        assert sol is not None
        times.append(sol.solve_time)
        previous = sol
        prev_motors = tuple(sol.motors[0])
    arr = np.sort(np.array(times))
    mean = float(np.mean(arr))
    p99 = float(arr[int(0.99 * len(arr))])
    ok = mean < 0.100 and p99 < 0.200
    report(8, ok, f"{len(arr)} solves: mean {mean * 1e3:.1f} ms (< 100), "
                  f"p99 {p99 * 1e3:.1f} ms (< 200)")
    assert ok


# --------------------------------------------------------------------
# benchmark fixture shared by criteria 9-11


@pytest.fixture(scope="module")
def bench(tmp_path_factory):
    path = figure_eight(20.0)
    outdir = tmp_path_factory.mktemp("bench")
    log_path = outdir / "nmpc.olog"
    runs = {}
    with LogWriter(log_path) as writer:
        runs["nmpc"] = run_embedded_mission(
            "nmpc", path, duration=300.0, target_laps=1.02,
            log_writer=writer)
    runs["nmpc_again"] = run_embedded_mission(
        "nmpc", path, duration=300.0, target_laps=1.02)
    runs["baseline"] = run_embedded_mission(
        "baseline", path, duration=300.0, target_laps=1.02)
    runs["dropout"] = run_embedded_mission(
        "nmpc", path, duration=300.0, target_laps=1.02,
        fault=transport.FaultProfile(dropout_windows=((40.0, 3.0),)))
    runs["path"] = path
    runs["log_path"] = log_path
    runs["outdir"] = outdir
    return runs


def test_criterion_09_nmpc_beats_baseline(bench):
    nmpc, base = bench["nmpc"], bench["baseline"]
    rms_n = nmpc.metrics["rms_cross_track_m"]
    rms_b = base.metrics["rms_cross_track_m"]
    ok = (nmpc.completed and base.completed and nmpc.laps >= 1.0
          and base.laps >= 1.0 and rms_n < rms_b)
    report(9, ok, f"figure-eight RMS cross-track: NMPC {rms_n:.3f} m vs "
                  f"baseline {rms_b:.3f} m; laps {nmpc.laps:.2f} / "
                  f"{base.laps:.2f}")
    assert ok


def test_criterion_10_dropout_recovery(bench):
    run = bench["dropout"]
    ok = run.completed and run.laps >= 1.0 and run.dropout_events == 1
    report(10, ok, f"3 s telemetry dropout at t=40 s: completed={run.completed}, "
                   f"laps={run.laps:.2f}, dropout events={run.dropout_events} "
                   f"(expected exactly 1)")
    assert ok


def test_criterion_11_determinism_and_replay(bench):
    outdir = bench["outdir"]
    csv_a = outdir / "a.csv"
    csv_b = outdir / "b.csv"
    write_metrics_csv(bench["nmpc"].metrics, csv_a)
    write_metrics_csv(bench["nmpc_again"].metrics, csv_b)
    identical = csv_a.read_bytes() == csv_b.read_bytes()

    records, corrupt = read_records(bench["log_path"])
    replayed = metrics_from_records(records, bench["path"], 45.0, -76.0)
    live = bench["nmpc"].metrics
    keys = [k for k in live if not k.startswith("solve_time")]
    replay_ok = corrupt == 0 and all(replayed[k] == live[k] for k in keys)
    ok = identical and replay_ok
    report(11, ok, f"metric CSVs bit-identical across reruns: {identical}; "
                   f"replayed log reproduces {len(keys)} metrics exactly: "
                   f"{replay_ok}")
    assert ok


# --------------------------------------------------------------------
# 12. station keeping within 5 m for the final 60 s of 120 s under a
#     0.3 m/s current


def test_criterion_12_station_keeping_under_current():
    start = VesselState(north=20.0, east=5.0)
    obc = OtterObc(env=EnvDisturbance(0.3, 0.0), initial_state=start)
    obc.handle_command(codec.StationKeepCmd(45.0, -76.0, 1.5))
    worst = 0.0
    for k in range(1, int(120.0 / SIM_DT) + 1):
        obc.tick(k * SIM_DT)
        if k * SIM_DT >= 60.0:
            worst = max(worst,
                        math.hypot(obc.state.north, obc.state.east))
    ok = worst <= 5.0
    report(12, ok, f"max distance from station over final 60 s: "
                   f"{worst:.2f} m (limit 5.0 m, 0.3 m/s current)")
    assert ok
