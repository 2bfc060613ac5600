"""One workload in one fresh interpreter: a single client in a closed loop.

Imports `rdiqsdc.cli` once, then times operations back to back through
`rdiqsdc.cli.main(argv)` until the measured time reaches --seconds. The
first operation runs at the pinned seed, where outputs are compared byte
for byte. Each operation's outputs are checked after its timer stops.
With --trace 1 the loop is split: the first half untraced, the second
half traced, so the difference between the two medians is the tracing
overhead.

Prints one JSON object on its last line of standard output; run.py turns
it into metrics.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import rdiqsdc.cli as cli

import tracing
import workloads

# stop starting operations after this much loop time, whatever was measured
WALL_CAP_S = 120.0


def reset_peak_rss() -> None:
    """Restart the kernel's peak-RSS mark (Linux), so that memory used by
    the checks between operations is not counted."""
    with open("/proc/self/clear_refs", "w") as fh:
        fh.write("5")


def peak_rss_kb() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise OSError("VmHWM missing from /proc/self/status")


def run_once(calls: list[workloads.Call], tracer, index: int) -> dict:
    """Time one operation, then check its outputs.

    Returns the operation's wall time, each call's wall time, the work the
    checks counted, the wall time of the calls that did that work, the
    process's peak RSS during the calls, and an error message ("" when
    every call exited 0 and passed its check).
    """
    for call in calls:
        shutil.rmtree(call.out, ignore_errors=True)
    stdout = {call.name: io.StringIO() for call in calls}
    stderr = io.StringIO()
    call_walls: dict[str, float] = {}

    def run() -> int:
        for call in calls:
            start = perf_counter()
            with contextlib.redirect_stdout(stdout[call.name]), contextlib.redirect_stderr(stderr):
                rc = cli.main(call.argv)
            call_walls[call.name] = perf_counter() - start
            if rc != 0:
                return rc
        return 0

    error, work, work_s = "", 0, 0.0
    reset_peak_rss()
    start = perf_counter()
    try:
        rc = tracer.run_op(index, run) if tracer else run()
    except Exception:
        rc, error = -1, traceback.format_exc(limit=3)
    wall = perf_counter() - start
    rss_kb = peak_rss_kb()
    if rc != 0 and not error:
        error = f"exit code {rc}: {stderr.getvalue().strip()[-300:]}"
    for call in calls:
        if error:
            break
        try:
            done = call.check(call, stdout[call.name].getvalue())
        except (workloads.CheckFailed, OSError, ValueError, KeyError, TypeError) as exc:
            error = f"{call.name} check failed: {type(exc).__name__}: {exc}"
            break
        if done:
            work, work_s = work + done, work_s + call_walls[call.name]
    for call in calls:
        shutil.rmtree(call.out, ignore_errors=True)
    gc.collect()
    return {"wall": wall, "calls": call_walls, "work": work, "work_s": work_s,
            "rss_kb": rss_kb, "error": error}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=workloads.NAMES, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workers", type=int, required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    args = ap.parse_args()
    out = args.workdir / "out"

    errors: list[str] = []
    phases = [("untraced", args.seconds / 2), ("traced", args.seconds / 2)] if args.trace \
        else [("untraced", args.seconds)]
    tracer = None
    samples: dict[str, list[dict]] = {}
    index = 0
    loop_start = perf_counter()
    for phase, budget in phases:
        if phase == "traced":
            tracer = tracing.Tracer()
            tracer.install()
        ops = samples.setdefault(phase, [])
        while not ops or (sum(op["wall"] for op in ops) < budget
                          and perf_counter() - loop_start < WALL_CAP_S):
            calls = workloads.operation(args.workload, args.seed, index, args.workers, out)
            op = run_once(calls, tracer, index)
            if op["error"]:
                errors.append(op["error"])
                print(f"operation failed: {op['error']}", file=sys.stderr)
            ops.append(op)
            index += 1

    untraced = samples["untraced"]
    result = {
        "attempted": index,
        "failed": len(errors),
        "errors": errors[:5],
        "walls": [op["wall"] for op in untraced],
        "call_walls": {name: [op["calls"][name] for op in untraced if name in op["calls"]]
                       for name in dict.fromkeys(n for op in untraced for n in op["calls"])},
        "rates": [op["work"] / op["work_s"] if op["work_s"] else 0.0 for op in untraced],
        "maxrss_self_kb": max(op["rss_kb"] for op in untraced),
        "maxrss_children_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    }
    if tracer is not None:
        traced = [op["wall"] for op in samples["traced"]]
        result["layers"] = tracer.medians()
        result["layers"]["trace.overhead_s"] = (
            statistics.median(traced) - statistics.median(result["walls"]))
        result["missing"] = tracer.missing
        trace_path = args.workdir / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.dump(trace_path)
        result["trace_file"] = str(trace_path)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
