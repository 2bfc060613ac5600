"""rdiqsdc benchmark: one workload, one run, one JSON result line.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload monte-carlo --seed 1 --seconds 40 --trace 0

The package is imported from ./src; nothing is installed. The run

1. starts fresh interpreters that import `rdiqsdc.cli` and call
   `load_config`, and reports the median as `setup_s`;
2. runs the workload in one more fresh interpreter (perfbench/worker.py),
   one client in a closed loop, every operation's output checked;
3. prints a table, then one JSON object as the last line of standard output.

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
measured untraced. With --trace 1 they are the per-layer metrics: the
setup probes run under `-X importtime`, and the worker wraps the package's
layer functions (perfbench/tracing.py). A per-layer metric whose wrapped
function no longer exists is reported missing, never as zero.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench"

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

SETUP_PROBES = 5
# per-layer metrics derived from sizes rather than measured as time or calls
COMPUTED = ("protocol.result_bytes_per_photon", "transcript.bytes")
TIME_LIMIT_S = 170.0

PROBE = """
import time
t0 = time.perf_counter()
import rdiqsdc.cli
t1 = time.perf_counter()
from rdiqsdc.config import load_config
load_config(None, {})
t2 = time.perf_counter()
print(t1 - t0, t2 - t1)
"""

IMPORTTIME = re.compile(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)\s*$")


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("RDIQSDC_CONFIG", None)  # defaults only, whatever the caller's config
    return env


def _remaining(deadline: float) -> float:
    left = deadline - monotonic()
    if left <= 0:
        raise TimeoutError("time limit reached")
    return left


def setup_probes(trace: bool, deadline: float) -> list[dict]:
    """One fresh interpreter per probe: import and first load_config times."""
    cmd = [sys.executable] + (["-X", "importtime"] if trace else []) + ["-c", PROBE]
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, env=_env(), cwd=ROOT, capture_output=True, text=True,
                              timeout=_remaining(deadline))
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
        import_s, load_s = map(float, proc.stdout.split())
        probe = {"import_s": import_s, "load_s": load_s}
        if trace:
            cumulative = {m.group(2): int(m.group(1)) for m in
                          map(IMPORTTIME.match, proc.stderr.splitlines()) if m}
            # zero when the package no longer imports scipy.stats at all
            probe["scipy_stats_s"] = cumulative.get("scipy.stats", 0) / 1e6
        out.append(probe)
    return out


def run_worker(args, workers: int, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workers", str(workers), "--workdir", str(WORKDIR)]
    proc = subprocess.run(cmd, env=_env(), cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=_remaining(deadline))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def _percentile_line(walls: list[float]) -> str:
    """Highest whole percentile with at least ten samples beyond it."""
    n = len(walls)
    if n < 11:
        return f"no percentile has 10 samples beyond it (n={n})"
    pct = int(100 * (1 - 10 / n))
    value = statistics.quantiles(walls, n=100, method="inclusive")[pct - 1]
    return f"p{pct} {value:.4f} s (n={n})"


def end_to_end(probes: list[dict], res: dict, workers: int) -> dict:
    # the worker's own peak plus, for a process pool, each pool worker's peak
    # bounded by the largest one (ru_maxrss of reaped children is a maximum)
    children = res["maxrss_children_kb"] * workers
    return {
        "setup_s": (statistics.median(p["import_s"] + p["load_s"] for p in probes), "s"),
        "wall_s": (statistics.median(res["walls"]), "s"),
        "work_per_s": (statistics.median(res["rates"]), "1/s"),
        "peak_rss_mb": ((res["maxrss_self_kb"] + children) / 1024.0, "MB"),
    }


def per_layer(probes: list[dict], res: dict, declared: dict) -> tuple[dict, list[str]]:
    values = dict(res["layers"])
    values["setup.import_s"] = statistics.median(p["import_s"] for p in probes)
    values["setup.import_scipy_stats_s"] = statistics.median(p["scipy_stats_s"] for p in probes)
    metrics, missing = {}, []
    for name, unit in declared.items():
        if name in values:
            metrics[name] = (values[name], unit)
        else:
            missing.append(name)
    return metrics, missing


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.NAMES, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = monotonic() + TIME_LIMIT_S

    if not (SRC / "rdiqsdc" / "cli.py").is_file():
        print(f"benchmark: package source not found under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    WORKDIR.mkdir(exist_ok=True)
    # the CLI's default is os.cpu_count(); never ask for more than two
    workers = min(2, len(os.sched_getaffinity(0)))

    try:
        probes = setup_probes(bool(args.trace), deadline)
        res = run_worker(args, workers, deadline)
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics, missing = per_layer(probes, res, declared)
    else:
        metrics, missing = end_to_end(probes, res, workers), []

    attempted, failed = res["attempted"], res["failed"]
    unit = workloads.WORK_UNIT[args.workload]
    print(f"# workload {args.workload}, seed {args.seed}, {args.seconds:g} s, "
          f"trace {args.trace}, workers {workers}, one client, closed loop")
    print(f"# operations attempted {attempted}, failed {failed}, "
          f"failed_fraction {failed / attempted:.4f}")
    for err in res["errors"]:
        print(f"# failure: {err.strip().splitlines()[-1]}")
    if not args.trace:
        print(f"# wall_s median of {len(res['walls'])} operations; "
              f"{_percentile_line(res['walls'])}; work_per_s counts {unit}")
        print("# median wall per call: " + ", ".join(
            f"{name} {statistics.median(w):.4f} s" for name, w in res["call_walls"].items()))
    else:
        print(f"# spans written to {res['trace_file']}")
    for name, (value, u) in metrics.items():
        print(f"{name:40s} {value:16.6f} {u}{' (computed)' if name in COMPUTED else ''}")
    for name in missing:
        print(f"{name:40s} {'missing':>16s}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": u} for name, (value, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
