"""Mission controllers and the embedded (in-process) mission runner.

The embedded runner wires a simulated OBC and a topic gateway through
the codec on a virtual 20 ms clock, so benchmark runs are deterministic
and faster than real time while exercising the same sentence path the
UDP transport carries. Its lines are shed by the transport's own rule,
`FaultProfile.sheds`, so a dropout window means the same on both paths.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import chain

import numpy as np

from . import codec, geo
from .client import DEFAULT_SLOP, SYNC_TOPICS, TELEMETRY_TOPICS, TopicGateway
from .guidance import LapTracker, LosConfig, PolylinePath, los_guidance
from .logbag import LogRecord, LogWriter
from .nmpc import NmpcConfig, solve_nmpc, state_from_synced
from .obc import SIM_DT, OtterObc
from .transport import FaultProfile, RateConfig
from .vessel import EnvDisturbance, VesselParams, VesselState, unmix

CONTROL_HZ = 10.0
STALE_AFTER = 1.0       # s without a synced sample -> controller pauses
FAILSAFE_AFTER = 3      # consecutive solver failures -> zero inputs
SOLVE_RESERVE_S = 0.01  # s of a control slot kept back from the solve


class NmpcController:
    """Receding-horizon controller publishing manual commands at 10 Hz."""

    def __init__(self, gateway: TopicGateway, path: PolylinePath,
                 config: NmpcConfig, params: VesselParams,
                 origin_lat: float, origin_lon: float, event_log=None):
        self.gateway = gateway
        self.path = path
        self.config = config
        self.params = params
        self.origin = (origin_lat, origin_lon)
        self.event_log = event_log  # callable(name, detail) or None
        self._latest = None
        self._prev_solution = None
        self._solved_at = 0.0  # `now` of the step that solved it
        self._applied = (0.0, 0.0)  # (port, starboard) motor commands
        self._fail_count = 0
        self._in_dropout = False
        self.dropout_events = 0
        self.solve_times: list[float] = []
        self.solve_iters: list[int] = []
        gateway.synchronize(SYNC_TOPICS, DEFAULT_SLOP, self._on_synced)

    def _on_synced(self, sample) -> None:
        self._latest = sample

    def _log_event(self, name: str, detail: str) -> None:
        if self.event_log is not None:
            self.event_log(name, detail)

    def _publish(self) -> None:
        """Publish the applied motor commands as surge and torque."""
        x, z = unmix(*self._applied)
        self.gateway.publish_command("control_cmds",
                                     codec.ManualCmd(x, 0.0, z))

    def step(self, now: float, deadline: float | None = None) -> None:
        """One control step at `now`; the solve stops iterating
        SOLVE_RESERVE_S before `deadline` (None: no wall-clock limit)."""
        sample = self._latest
        if sample is None:
            return  # nothing received yet; stay quiet until telemetry flows
        if now - sample.stamp > STALE_AFTER:
            if not self._in_dropout:
                self._in_dropout = True
                self.dropout_events += 1
                self._log_event("dropout", f"no synced telemetry at t={now:.2f}")
            self._applied = (0.0, 0.0)
            self._publish()
            return
        self._in_dropout = False
        state = state_from_synced(sample, *self.origin)
        budget = None if deadline is None else deadline - now - SOLVE_RESERVE_S
        # the previous plan is shifted by the time since it was solved:
        # 0.1 s at 10 Hz, more after a skipped slot or a dropout
        solution = solve_nmpc(state, self.path, self.config, self.params,
                              warm_start=self._prev_solution,
                              prev_motors=self._applied, budget_s=budget,
                              elapsed=now - self._solved_at)
        if solution is None:
            self._fail_count += 1
            if self._fail_count >= FAILSAFE_AFTER:
                self._applied = (0.0, 0.0)
            self._publish()
            return
        self._fail_count = 0
        self._prev_solution = solution
        self._solved_at = now
        self._applied = tuple(solution.motors[0].tolist())
        self.solve_times.append(solution.solve_time)
        self.solve_iters.append(solution.iters)
        self._publish()


class LosBaselineController:
    """LOS waypoint front-end driving the OBC's built-in PI/PD
    course-and-speed mode."""

    def __init__(self, gateway: TopicGateway, path: PolylinePath,
                 los: LosConfig, origin_lat: float, origin_lon: float):
        self.gateway = gateway
        self.path = path
        self.los = los
        self.origin = (origin_lat, origin_lon)
        self._latest = None
        self._s_hint: float | None = None
        gateway.subscribe("otter_gps", self._on_gps)

    def _on_gps(self, sample) -> None:
        self._latest = sample

    def step(self, now: float, deadline: float | None = None) -> None:
        sample = self._latest  # LOS is cheap: `deadline` is not needed
        if sample is None or now - sample.stamp > STALE_AFTER:
            return
        north, east = geo.latlon_to_local(
            sample.payload["lat"], sample.payload["lon"], *self.origin)
        course, speed, self._s_hint = los_guidance(
            north, east, self.path, self.los, s_hint=self._s_hint)
        self.gateway.publish_command(
            "course_speed_cmds", codec.CourseSpeedCmd(course, speed))


@dataclass
class MissionResult:
    records: list[LogRecord]
    metrics: dict[str, float]
    laps: float
    completed: bool
    dropout_events: int = 0
    decode_errors: int = 0


def run_embedded_mission(controller_kind: str, path: PolylinePath, *,
                         params: VesselParams = VesselParams(),
                         nmpc_config: NmpcConfig = NmpcConfig(),
                         los_config: LosConfig = LosConfig(),
                         env: EnvDisturbance = EnvDisturbance(),
                         telemetry_hz: float = RateConfig.telemetry_hz,
                         duration: float,
                         target_laps: float | None = None,
                         fault: FaultProfile = FaultProfile(),
                         origin_lat: float = VesselState.origin_lat,
                         origin_lon: float = VesselState.origin_lon,
                         initial_state: VesselState | None = None,
                         log_writer: LogWriter | None = None) -> MissionResult:
    """Run one mission on the virtual clock; returns records + metrics.

    `controller_kind` is "nmpc" or "baseline". The OBC's lines pass
    `fault` before they reach the gateway, as a broadcaster's datagrams
    do: a dropout window (mission seconds) silently discards all
    telemetry, mimicking the field-observed network dropouts. With no
    `target_laps` the mission flies the whole `duration`. An
    `initial_state` must carry the mission origin. Control steps get no
    deadline, so solves are unbudgeted and runs bit-reproducible.
    """
    if initial_state is None:
        start = path.point_at(0.0)
        heading = path.project(start[0], start[1]).path_heading % (2 * math.pi)
        initial_state = VesselState(north=float(start[0]),
                                    east=float(start[1]), psi=heading,
                                    origin_lat=origin_lat,
                                    origin_lon=origin_lon)
    elif ((initial_state.origin_lat, initial_state.origin_lon)
          != (origin_lat, origin_lon)):
        raise ValueError(
            f"initial_state origin ({initial_state.origin_lat}, "
            f"{initial_state.origin_lon}) is not the mission origin "
            f"({origin_lat}, {origin_lon})")
    obc = OtterObc(params=params, telemetry_hz=telemetry_hz, env=env,
                   initial_state=initial_state)

    records: list[LogRecord] = []

    def emit(rec: LogRecord) -> None:
        records.append(rec)
        if log_writer is not None:
            log_writer.record(rec)

    t_now = 0.0

    def send_command(line: str) -> None:
        msg = codec.decode_sentence(line)
        obc.handle_command(msg)
        for topic, payload in codec.topic_payloads(msg):
            emit(LogRecord(t_now, obc.utc0 + t_now, "tx", topic, payload))

    gateway = TopicGateway(command_sender=send_command)
    for topic in TELEMETRY_TOPICS:
        def on_sample(sample, _topic=topic):
            emit(LogRecord(sample.stamp, obc.utc0 + sample.stamp, "rx",
                           _topic, sample.payload))
        gateway.subscribe(topic, on_sample)

    def log_event(name: str, detail: str) -> None:
        emit(LogRecord(t_now, obc.utc0 + t_now, "tx", "event",
                       {"name": name, "detail": detail}))

    if controller_kind == "nmpc":
        controller = NmpcController(gateway, path, nmpc_config, params,
                                    origin_lat, origin_lon,
                                    event_log=log_event)
    elif controller_kind == "baseline":
        controller = LosBaselineController(gateway, path, los_config,
                                           origin_lat, origin_lon)
    else:
        raise ValueError(f"unknown controller {controller_kind!r}")

    rng = random.Random(fault.seed)
    laps = LapTracker(path)
    control_period = int(round(1.0 / (CONTROL_HZ * SIM_DT)))
    n_steps = int(round(duration / SIM_DT))
    completed = False
    completion_time = None
    for step in range(1, n_steps + 1):
        t_now = step * SIM_DT
        for line in obc.tick(t_now):
            if not fault.sheds(t_now, rng):
                gateway.feed_line(line, t_now)
        if step % control_period == 0:
            controller.step(t_now)
        laps.update(obc.state.north, obc.state.east)
        if target_laps is not None and laps.laps >= target_laps:
            completed = True
            completion_time = t_now
            break
    if target_laps is None:
        completed = True
        completion_time = t_now

    dropout_events = getattr(controller, "dropout_events", 0)
    solve_times = getattr(controller, "solve_times", [])
    metrics = compute_metrics(records, path, origin_lat, origin_lon)
    metrics["laps"] = round(laps.laps, 9)
    metrics["completion_time_s"] = completion_time if completed else -1.0
    if solve_times:
        st = np.sort(np.array(solve_times))
        metrics["solve_time_mean_s"] = float(np.mean(st))
        metrics["solve_time_p99_s"] = float(st[min(len(st) - 1,
                                                   int(0.99 * len(st)))])
    if log_writer is not None:
        for name in sorted(metrics):
            log_writer.record(LogRecord(t_now, obc.utc0 + t_now, "tx",
                                        "metric",
                                        {"name": name,
                                         "value": metrics[name]}))
    return MissionResult(records=records, metrics=metrics, laps=laps.laps,
                         completed=completed, dropout_events=dropout_events,
                         decode_errors=gateway.decode_errors)


def compute_metrics(records, path: PolylinePath,
                    origin_lat: float, origin_lon: float) -> dict[str, float]:
    """Cross-track statistics from logged otter_gps records.

    Pure function of the records, so replaying a log reproduces the
    live run's numbers exactly.
    """
    # (north, east) of each fix, flat: a list of tuples would hold ~100
    # bytes a fix at once
    fixes = np.fromiter(chain.from_iterable(
        geo.latlon_to_local(rec.payload["lat"], rec.payload["lon"],
                            origin_lat, origin_lon)
        for rec in records if rec.topic == "otter_gps"), dtype=float)
    if not len(fixes):
        return {"rms_cross_track_m": -1.0, "max_cross_track_m": -1.0,
                "gps_samples": 0.0}
    # bit for bit the per-fix path.project(north, east).cross_track
    arr = path.cross_track_many(fixes.reshape(-1, 2))
    return {"rms_cross_track_m": float(np.sqrt(np.mean(arr ** 2))),
            "max_cross_track_m": float(np.max(np.abs(arr))),
            "gps_samples": float(len(arr))}


def metrics_from_records(records, path: PolylinePath,
                         origin_lat: float, origin_lon: float
                         ) -> dict[str, float]:
    """Recompute the full metric dict from a record stream (replay)."""
    metrics = compute_metrics(records, path, origin_lat, origin_lon)
    for rec in records:
        if rec.topic == "metric":
            name = rec.payload["name"]
            if name not in metrics:
                metrics[name] = rec.payload["value"]
    return metrics


def write_metrics_csv(metrics: dict[str, float], out_path) -> None:
    """Stable, bit-exact metric CSV: sorted keys, repr-formatted floats.

    Wall-clock solver timings are excluded; they are the one metric
    class that cannot be bit-reproducible across runs.
    """
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        fh.write("metric,value\n")
        for key in sorted(metrics):
            if key.startswith("solve_time"):
                continue
            fh.write(f"{key},{metrics[key]!r}\n")
