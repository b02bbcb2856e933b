"""Span tracer for the traced benchmark pass.

Wraps the public callables of each otterlink layer from outside the
package: nothing in ``src/`` is changed. Every wrapped call records a
span (name, start, end, parent span) in memory; per-layer self time is
a span's duration minus the part its child spans cover. Spans stay at
module boundaries: ``vessel.dynamics_deriv`` (about 430k calls per 20 s
of NMPC mission) is deliberately not wrapped, so the derivative calls
made by ``nmpc._rk4_step_with_jac`` count as ``nmpc`` self time.

Names are patched where their caller looks them up, because of the
``from .x import y`` bindings: ``runner.solve_nmpc`` as well as
``nmpc.solve_nmpc``, ``nmpc.rk4_step`` as well as ``vessel.rk4_step``,
``obc.step_dynamics`` as well as ``vessel.step_dynamics``.

The tracer is single-threaded: only the benchmark's main thread calls
wrapped names (the UDP broadcaster's worker thread calls none of them).
"""

from __future__ import annotations

import os
import time
from collections import Counter

import numpy as np

from otterlink import (client, codec, guidance, logbag, nmpc, obc, runner,
                       transport, vessel)

LAYERS = ("nmpc", "guidance", "vessel", "obc", "codec", "client", "runner",
          "logbag", "transport")

DEADLINE_S = 1.0 / runner.CONTROL_HZ
# sufficient-decrease constant of the Armijo test in nmpc.solve_nmpc; the
# tracer re-evaluates that test to count accepted line-search steps
ARMIJO_C1 = 1e-4


class Tracer:
    """In-memory span recorder plus the counters measured at the same
    boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._stack = [-1]
        self.counts: Counter = Counter()
        self.iters: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._grad_state = None  # (u_seq, cost, gradient) of the last gradient

    # -- recording ----------------------------------------------------

    def _span(self, name: str, fn, on_result=None, on_error=None):
        names, parents, starts, ends = (self.names, self.parents,
                                        self.starts, self.ends)
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                ends[i] = clock()
                stack.pop()
            if on_result is not None:
                on_result(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def trace(self, owners, attr: str, name: str, **hooks) -> None:
        """Wrap `attr` on each owner in a span named `name`. A name outside
        LAYERS (such as ``bench.*``) keeps its time out of every layer's
        self time."""
        for owner in owners:
            self._patch(owner, attr,
                        self._span(name, owner.__dict__[attr], **hooks))

    def _count(self, owners, attr: str, make) -> None:
        for owner in owners:
            self._patch(owner, attr, make(owner.__dict__[attr]))

    # -- installation -------------------------------------------------

    def install(self) -> None:
        c = self.counts

        def solved(_args, sol):
            if sol is None:
                c["nmpc.failures"] += 1
                return
            self.iters.append(sol.iters)
            c["nmpc.converged"] += bool(sol.converged)

        def solve_raised(_exc):
            c["nmpc.failures"] += 1

        self.trace([runner, nmpc], "solve_nmpc", "nmpc.solve",
                    on_result=solved, on_error=solve_raised)
        self._count([nmpc], "cost_gradient", self._counted_gradient)
        self._count([nmpc], "cost_of_inputs", self._counted_cost)

        path_cls = guidance.PolylinePath
        self.trace([path_cls], "project", "guidance.project")
        self.trace([path_cls], "project_near", "guidance.project_near")
        self.trace([path_cls], "project_many", "guidance.project_many")
        self.trace([runner, guidance], "los_guidance", "guidance.los")
        self.trace([guidance.LapTracker], "update", "guidance.lap_update")

        self.trace([vessel, nmpc], "rk4_step", "vessel.rk4_step")
        self.trace([vessel, obc], "step_dynamics", "vessel.step_dynamics")
        self.trace([vessel, obc], "apply_motor_lag", "vessel.motor_lag")

        def ticked(_args, lines):
            c["obc.sentences_emitted"] += len(lines)

        self.trace([obc.OtterObc], "tick", "obc.tick", on_result=ticked)
        self.trace([obc.OtterObc], "handle_command", "obc.handle_command")

        def decode_failed(exc):
            if isinstance(exc, codec.CodecError):
                c["codec.decode_errors"] += 1

        self.trace([codec], "encode_sentence", "codec.encode")
        self.trace([codec], "decode_sentence", "codec.decode",
                    on_error=decode_failed)

        gateway = client.TopicGateway
        self.trace([gateway], "feed_line", "client.feed_line")
        self.trace([gateway], "publish_command", "client.publish_command")

        def offered(args, _result):
            if args[1].topic == "otter_gps":
                c["client.gps_offered"] += 1

        self.trace([client.ApproxTimeSync], "offer", "client.sync_offer",
                    on_result=offered)
        self._count([gateway], "synchronize", self._counted_synchronize)

        self.trace([runner], "run_embedded_mission", "runner.mission")
        self.trace([runner], "compute_metrics", "runner.compute_metrics")
        self.trace([runner], "metrics_from_records",
                    "runner.metrics_from_records")
        self.trace([runner.NmpcController, runner.LosBaselineController],
                    "step", "runner.control_step")

        def closed(args, _result):
            c["logbag.bytes_written"] += os.path.getsize(args[0].path)

        def read(_args, result):
            records, corrupt = result
            c["logbag.records_read"] += len(records)
            c["logbag.corrupt_lines"] += corrupt

        self.trace([logbag.LogWriter], "record", "logbag.write_record")
        self.trace([logbag.LogWriter], "close", "logbag.write_close",
                    on_result=closed)
        self.trace([logbag], "read_records", "logbag.read_records",
                    on_result=read)
        self.trace([logbag], "replay", "logbag.read_replay")
        self.trace([logbag], "export_csv", "logbag.read_export_csv")

        def polled(_args, out):
            c["transport.datagrams_received"] += len(out)

        def pending(_args, n):
            c["transport.pending_max"] = max(c["transport.pending_max"], n)

        self.trace([transport.UdpBroadcaster], "send", "transport.send")
        self.trace([transport.UdpBroadcaster], "pending", "transport.pending",
                    on_result=pending)
        self.trace([transport.UdpListener], "poll", "transport.poll",
                    on_result=polled)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _counted_gradient(self, fn):
        def counted(y0, inputs, *args, **kwargs):
            self.counts["nmpc.gradient_evals"] += 1
            total, grad = fn(y0, inputs, *args, **kwargs)
            self._grad_state = (inputs, total, grad)
            return total, grad
        return counted

    def _counted_cost(self, fn):
        def counted(y0, inputs, *args, **kwargs):
            self.counts["nmpc.cost_evals"] += 1
            c_new = fn(y0, inputs, *args, **kwargs)
            # the solver's line search compares each trial against the
            # iterate, cost and gradient of its latest gradient evaluation
            u_seq, c, g = self._grad_state
            decrease = float(np.sum(g * (u_seq - inputs)))
            if c_new <= c - ARMIJO_C1 * decrease:
                self.counts["nmpc.linesearch_accepts"] += 1
            return c_new
        return counted

    def _counted_synchronize(self, fn):
        def counted(gw, topics, slop, consumer):
            def consume(sample):
                self.counts["client.synced_samples"] += 1
                consumer(sample)
            return fn(gw, topics, slop, consume)
        return counted

    # -- reporting ----------------------------------------------------

    def span_count(self, name: str) -> int:
        return self.names.count(name)

    def self_times(self) -> dict[str, float]:
        """Self time per span name, in seconds: each span's duration minus
        the durations of its child spans."""
        dur = np.array(self.ends) - np.array(self.starts)
        child = np.zeros(len(dur))
        parents = np.array(self.parents, dtype=np.int64)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        own = dur - child
        names = np.array(self.names, dtype=object)
        return {name: float(own[names == name].sum())
                for name in set(self.names)}

    def write(self, path) -> None:
        """Write every span as CSV: id, parent, name, start_s, end_s."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,name,start_s,end_s\n")
            for i, (name, parent, start, end) in enumerate(
                    zip(self.names, self.parents, self.starts, self.ends)):
                fh.write(f"{i},{parent},{name},{start!r},{end!r}\n")

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics, named as in BENCHMARK.json (bench.*
        metrics are added by the caller)."""
        c = self.counts
        by_name = self.self_times()
        own = dict.fromkeys(LAYERS, 0.0)
        for name, value in by_name.items():
            layer = name.split(".", 1)[0]
            if layer in own:
                own[layer] += value
        spans = Counter(self.names)
        solves = spans["nmpc.solve"]
        steps = [e - s for n, s, e in zip(self.names, self.starts, self.ends)
                 if n == "runner.control_step"]
        encodes = spans["codec.encode"]
        decodes = spans["codec.decode"]
        return {
            "nmpc.solves": solves,
            "nmpc.failures": c["nmpc.failures"],
            "nmpc.self_s": own["nmpc"],
            "nmpc.iters_mean": (sum(self.iters) / len(self.iters)
                                if self.iters else 0.0),
            "nmpc.gradient_evals": c["nmpc.gradient_evals"],
            "nmpc.cost_evals": c["nmpc.cost_evals"],
            "nmpc.linesearch_accept_ratio": _ratio(
                c["nmpc.linesearch_accepts"], c["nmpc.cost_evals"]),
            "nmpc.converged_ratio": _ratio(c["nmpc.converged"], solves),
            "guidance.project_many_calls": spans["guidance.project_many"],
            "guidance.project_near_calls": spans["guidance.project_near"],
            "guidance.self_s": own["guidance"],
            "vessel.rk4_steps": spans["vessel.rk4_step"],
            "vessel.self_s": own["vessel"],
            "obc.ticks": spans["obc.tick"],
            "obc.sentences_emitted": c["obc.sentences_emitted"],
            "obc.self_s": own["obc"],
            "codec.encodes": encodes,
            "codec.decodes": decodes,
            "codec.decode_errors": c["codec.decode_errors"],
            "codec.self_s": own["codec"],
            "codec.us_per_sentence": 1e6 * _ratio(own["codec"],
                                                  encodes + decodes),
            "client.lines_fed": spans["client.feed_line"],
            "client.synced_samples": c["client.synced_samples"],
            "client.sync_ratio": _ratio(c["client.synced_samples"],
                                        c["client.gps_offered"]),
            "client.self_s": own["client"],
            "runner.control_steps": len(steps),
            "runner.deadline_misses": sum(1 for d in steps if d > DEADLINE_S),
            "runner.loop_self_s": own["runner"],
            "logbag.records_written": spans["logbag.write_record"],
            "logbag.bytes_written": c["logbag.bytes_written"],
            "logbag.write_self_s": (by_name.get("logbag.write_record", 0.0)
                                    + by_name.get("logbag.write_close", 0.0)),
            "logbag.records_read": c["logbag.records_read"],
            "logbag.corrupt_lines": c["logbag.corrupt_lines"],
            "logbag.read_self_s": sum(v for k, v in by_name.items()
                                      if k.startswith("logbag.read")),
            "transport.datagrams_sent": spans["transport.send"],
            "transport.datagrams_received": c["transport.datagrams_received"],
            "transport.pending_max": c["transport.pending_max"],
            "transport.poll_self_s": by_name.get("transport.poll", 0.0),
        }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
