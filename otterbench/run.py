"""otterlink benchmark: one command, one workload per invocation.

    python3 otterbench/run.py --workload fig8-nmpc --seed 1 --seconds 24 --trace 0

Run from the repository root (any checkout holding ``src/otterlink``).
The workload runs in a fresh child process (``workloads.py``), so one
workload's imports and record lists never reach another's set-up time
or peak memory; several further children stop at the first timed step
to give a median set-up time. The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``,
the end-to-end metrics with ``--trace 0`` and the per-layer metrics
with ``--trace 1``. Metric names, units and the workloads are in
BENCHMARK.json and README.md.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MANIFEST = ROOT / "BENCHMARK.json"
CHILD = HERE / "workloads.py"

SETUP_PROBES = 5
# Printed with the end-to-end metrics but left out of BENCHMARK.json: on
# udp-loop they are bimodal from run to run (see README.md), so they
# cannot carry a regression bound.
UNGATED = {"telemetry_latency_p50_ms": "ms", "telemetry_latency_tail_ms": "ms"}
CHILD_TIMEOUT_S = 170.0


def spawn(args: list[str], timeout: float) -> dict:
    """Run one child to completion; return its last stdout line as JSON."""
    cmd = [sys.executable, str(CHILD), *args,
           "--spawned-at", repr(time.monotonic())]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "otterlink" / "__init__.py").is_file():
        print(f"no otterlink sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    if args.workload not in [w["name"] for w in manifest["workloads"]]:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2

    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", repr(args.seconds)]
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    try:
        out = spawn(common + ["--trace", str(args.trace)], CHILD_TIMEOUT_S)
        setups = [out] if "setup_s" in out else []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                setups.append(spawn(common + ["--setup-only"],
                                    max(1.0, deadline - time.monotonic())))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError,
            KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if "per_layer" not in out and "end_to_end" not in out:
        print(f"benchmark failed: {'; '.join(out['errors'])}",
              file=sys.stderr)
        return 1

    print(f"workload: {args.workload}")
    print(f"seed: {args.seed}")
    print(f"seconds: {args.seconds:g}")
    for err in out["errors"]:
        print(f"error: {err}")
    attempted = max(1, out["attempted"])
    print(f"error_ratio = {out['failed'] / attempted!r} 1 "
          f"({out['failed']} of {attempted} operations)")

    if args.trace:
        units = {m["name"]: m["unit"] for m in manifest["per_layer"]}
        values = out["per_layer"]
    else:
        units = {m["name"]: m["unit"] for m in manifest["end_to_end"]}
        units.update(UNGATED)
        values = dict(out["end_to_end"], setup_s=statistics.median(
            s["setup_s"] for s in setups))
        out["raw"]["setup_s"] = statistics.median(
            s["setup_raw_s"] for s in setups)
    for phase, speed in out.get("speed", {}).items():
        print(f"machine speed in {phase} = {speed!r} of the reference "
              f"(CPU-bound timings below are scaled to it)")
    metrics = {}
    for name, unit in units.items():
        value = float(values[name])
        if name not in UNGATED:
            metrics[name] = {"value": value, "unit": unit}
        notes = []
        if name in out.get("tails", {}):
            p, n = out["tails"][name]
            notes.append(f"p{p:.4g} of {n} samples")
        if name == "setup_s":
            notes.append(f"median of {len(setups)} processes")
        raw = out.get("raw", {}).get(name, value)
        if raw != value:
            notes.append(f"raw {raw!r}")
        note = f"  ({'; '.join(notes)})" if notes else ""
        print(f"{name} = {value!r} {unit}{note}")
    print(json.dumps({"correct": out["correct"],
                      "attempted": attempted, "failed": out["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
