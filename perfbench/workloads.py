"""Workload definitions: the CLI calls each operation makes and the checks
their outputs must pass.

An operation is a fixed sequence of `rdiqsdc.cli.main(argv)` calls. Inputs
are derived from the benchmark seed; simulator seeds are derived per
operation. Checks are independent of the package: reference values and
closed forms are restated here rather than imported, so a change to the
package cannot move its own yardstick.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

# Simulator seed at which outputs are compared byte for byte. The first
# operation of every run uses it.
PINNED_SEED = 0

# sha256 of the output files at PINNED_SEED, keyed by the random-stream
# layout version the summary reports (`rng_layout`, 1 when absent), then by
# call. A new layout is pinned by adding a key here; the statistical checks
# hold under any layout. The mc-full call writes no transcript
# (serialization is bypassed by design), so only its summary is pinned.
GOLDEN = {
    1: {
        "mc-full": {
            "summary.json": "f885e4d868e0c76dd923b1f3c20e7350f9bebddb809e278155d2e9d73540604b",
        },
        "mc-transcript": {
            "summary.json": "df9124c711d91cd08617187d8263c2d7b819af958a45f3caec672dab42471d72",
            "transcript.jsonl": "09dc71e8b0b3040eebda28d99c1be8454f8aafdf31efda9bb6124b40d312f984",
        },
    },
}

DELTA_THETA = 0.0785398  # pi/40, the paper's reference rotation per trip

MC_FULL_R = 1_000_000
MC_FULL_ETA = 0.7
MC_FULL_P1 = 0.1  # CLI default protocol.p1_target
MC_FULL = [
    "simulate",
    "--set", f"protocol.r={MC_FULL_R}",
    "--set", f"physics.eta_c={MC_FULL_ETA}",
    "--set", f"physics.delta_theta={DELTA_THETA}",
    "--set", "output.transcript=false",
    "--set", "protocol.continue_on_abort=true",
]

MC_TRANSCRIPT_R = 100_000
MC_TRANSCRIPT = [
    "simulate",
    "--set", f"protocol.r={MC_TRANSCRIPT_R}",
    "--set", "physics.distance_km=10",
    "--set", f"physics.delta_theta={DELTA_THETA}",
    "--set", "adversary.enabled=true",
    "--set", "adversary.p1=0.2",
    "--set", "adversary.p2=0.5",
    "--set", "protocol.continue_on_abort=true",
]

# Reference operating points and their target values (criteria 1, 2, 4 of
# the acceptance battery) with the battery's tolerances.
P1_LIST = (0.001, 0.1, 0.2, 0.3, 0.4, 0.5)
ETA_STAR_NOISELESS = dict(zip(P1_LIST, (0.0115, 0.4823, 0.6790, 0.7718, 0.8238, 0.8568)))
ETA_STAR_PI_40 = dict(zip(P1_LIST, (0.0130, 0.4985, 0.6927, 0.7798, 0.8278, 0.8569)))
DTH_STAR = {0.1: 0.2547, 0.2: 0.2988, 0.3: 0.3742, 0.4: 0.5912}
TOL_ETA_NOISELESS, TOL_ETA_PI_40, REL_TOL_DTH = 0.002, 0.003, 0.02

THRESHOLD_POINTS = 60
SWEEP_POINTS = 2000
SWEEP_GRIDS = {
    "eta": f"0.0005:1:{SWEEP_POINTS}",
    "L": f"0:100:{SWEEP_POINTS}",
    "delta_theta": f"0:3.14159:{SWEEP_POINTS}",
}
SWEEP_P1_POINTS = 6  # CLI default analysis.p1_list
SWEEP_COLUMNS = 12

VERIFY_KEYSTONE_R = 100_000


def sim_seed(workload: str, seed: int, index: int) -> int:
    """Simulator seed of operation `index` of a run with benchmark `seed`."""
    digest = hashlib.sha256(f"{workload}:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def threshold_p1_list(seed: int) -> tuple[float, ...]:
    """The six reference points plus one seeded point in each of 54 equal
    strata of [0.005, 0.995]. The solvers' cost depends on P1 (the eta*
    scan is longer for small P1), so stratifying keeps an operation's cost
    nearly the same for every seed."""
    rng = random.Random(f"analysis-grid:{seed}")
    strata = THRESHOLD_POINTS - len(P1_LIST)
    width = (0.995 - 0.005) / strata
    extra = [0.005 + width * (k + rng.random()) for k in range(strata)]
    return tuple(sorted(P1_LIST + tuple(extra)))


@dataclass(frozen=True)
class Call:
    """One CLI call of an operation: its arguments, output directory, output
    check and simulator seed (None for the closed-form calls)."""

    name: str
    argv: list[str]
    out: Path
    check: Callable[["Call", str], int]
    sim_seed: Optional[int] = None


def operation(workload: str, seed: int, index: int, workers: int, out: Path) -> list[Call]:
    """The calls of operation `index`; operation 0 runs at PINNED_SEED."""

    def call(name: str, argv: list[str], check, sim: Optional[int] = None) -> Call:
        where = out / name
        argv = argv + ["--workers", str(workers), "--out", str(where)]
        if sim is not None:
            argv += ["--seed", str(sim)]
        return Call(name, argv, where, check, sim)

    if workload == "monte-carlo":
        def sim(name: str) -> int:
            return PINNED_SEED if index == 0 else sim_seed(name, seed, index)

        return [
            call("mc-full", MC_FULL, _check_mc_full, sim("mc-full")),
            call("mc-transcript", MC_TRANSCRIPT, _check_mc_transcript, sim("mc-transcript")),
            call("verify", ["verify", "--keystone-r", str(VERIFY_KEYSTONE_R)], _check_verify),
        ]
    if workload == "analysis-grid":
        p1s = ",".join(repr(p) for p in threshold_p1_list(seed))
        calls = [call("threshold", ["threshold", "--set", f"physics.delta_theta={DELTA_THETA}",
                                    "--set", f"analysis.p1_list={p1s}"], _check_threshold)]
        for axis, grid in SWEEP_GRIDS.items():
            calls.append(call(f"sweep-{axis}", ["sweep", "--set", f"analysis.axis={axis}",
                                                "--set", f"analysis.grid={grid}"], _check_sweep))
        return calls
    raise ValueError(f"unknown workload {workload!r}")


class CheckFailed(Exception):
    pass


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _check_golden(call: Call, summary: dict) -> None:
    if call.sim_seed != PINNED_SEED:
        return
    layout = summary.get("rng_layout", 1)
    pinned = GOLDEN.get(layout, {}).get(call.name)
    _require(pinned is not None, f"no golden hashes for rng_layout {layout}")
    for name, want in pinned.items():
        got = _sha256(call.out / name)
        _require(got == want, f"{call.name} {name} sha256 {got} != golden {want}")


def _check_counts(summary: dict, r: int) -> None:
    _require(summary["r"] == r, f"summary r={summary['r']}, want {r}")
    lost = sum(summary["stats"]["loss_counts"].values())
    _require(lost == 3 * r, f"loss counts sum to {lost}, want {3 * r}")
    m = summary["message"]
    _require(m["ok"] + m["lost"] + m["flipped"] == r, f"message tallies {m} do not sum to {r}")


def mc_full_closed_forms() -> dict[str, tuple[float, float]]:
    """(mean, sigma) of each checked statistic under the closed-form model.

    Bare efficiency eta (distance 0, eta_m = eta_d = 1): one-way gain eta,
    round-trip gain eta^2. A clicked check photon gives g=0 with probability
    1/2 + cos(2k*dth)(2*P1 - 1)/2 after k trips. The target-p1 policy mixes
    two offsets whose ideal P(g=0) bracket P1 < 1/2, both below 1/2, so every
    no-click slot is assigned g=1 and contributes nothing to P(g=0).
    Each statistic is a mean of r Bernoulli indicators.
    """
    eta, dth, p1, r = MC_FULL_ETA, DELTA_THETA, MC_FULL_P1, MC_FULL_R
    means = {
        "q_ab": eta,
        "q_aba": eta * eta,
        "p1_observed": eta * (0.5 + math.cos(2.0 * dth) * (2.0 * p1 - 1.0) / 2.0),
        "p2_observed": eta * eta * (0.5 + math.cos(4.0 * dth) * (2.0 * p1 - 1.0) / 2.0),
    }
    return {k: (p, math.sqrt(p * (1.0 - p) / r)) for k, p in means.items()}


def _check_mc_full(call: Call, stdout: str) -> int:
    out = call.out
    summary = json.loads((out / "summary.json").read_text())
    _check_counts(summary, MC_FULL_R)
    for name, (mean, sigma) in mc_full_closed_forms().items():
        got = summary["stats"][name]
        z = abs(got - mean) / sigma
        _require(z <= 5.0, f"{name}={got} is {z:.2f} sigma from closed form {mean}")
    _require(not (out / "transcript.jsonl").exists(), "transcript written with output.transcript=false")
    _check_golden(call, summary)
    return 3 * MC_FULL_R


def _check_mc_transcript(call: Call, stdout: str) -> int:
    out = call.out
    summary = json.loads((out / "summary.json").read_text())
    _check_counts(summary, MC_TRANSCRIPT_R)
    n = 3 * MC_TRANSCRIPT_R
    records, last = 0, None
    with open(out / "transcript.jsonl", encoding="utf-8") as fh:
        while lines := fh.readlines(1 << 22):
            # one JSON array per chunk of lines: same parse, fewer calls
            for rec in json.loads("[" + ",".join(lines) + "]"):
                if last is not None:
                    _require(last.get("id") == records, f"record {records} has id {last.get('id')}")
                    records += 1
                last = rec
    _require(records == n, f"transcript holds {records} photon records, want {n}")
    _require(last == summary, "trailing transcript record differs from summary.json")
    _check_golden(call, summary)
    return n


def _check_threshold(call: Call, stdout: str) -> int:
    with open(call.out / "thresholds.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    _require(len(rows) == THRESHOLD_POINTS, f"{len(rows)} threshold rows, want {THRESHOLD_POINTS}")
    by_p1 = {float(row["p1"]): row for row in rows}
    for p1 in P1_LIST:
        row = by_p1.get(p1)
        _require(row is not None, f"threshold row for p1={p1} missing")
        for col, want, tol in (
            ("eta_star", ETA_STAR_PI_40[p1], TOL_ETA_PI_40),
            ("eta_star_noiseless", ETA_STAR_NOISELESS[p1], TOL_ETA_NOISELESS),
            ("dth_star", DTH_STAR.get(p1), REL_TOL_DTH * DTH_STAR.get(p1, 0.0)),
        ):
            if want is None:
                continue
            got = float(row[col])
            _require(abs(got - want) <= tol, f"{col} at p1={p1}: {got}, want {want} +- {tol:.3g}")
    return len(rows)


def _check_sweep(call: Call, stdout: str) -> int:
    with open(call.out / "sweep.csv", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        _require(len(header) == SWEEP_COLUMNS, f"sweep header has {len(header)} columns")
        c_s = header.index("c_s")
        rows = 0
        for line in fh:
            fields = line.rstrip("\n").split(",")
            _require(len(fields) == SWEEP_COLUMNS, f"sweep row {rows} has {len(fields)} fields")
            _require(math.isfinite(float(fields[c_s])), f"sweep row {rows} has c_s={fields[c_s]}")
            rows += 1
    want = SWEEP_POINTS * SWEEP_P1_POINTS
    _require(rows == want, f"{call.name} wrote {rows} rows, want {want}")
    return rows


def _check_verify(call: Call, stdout: str) -> int:
    """Exit 0 was checked by the caller; every acceptance check must pass.
    Returns 0: the battery's time is not counted as throughput."""
    lines = stdout.strip().splitlines()
    last = lines[-1] if lines else ""
    passed, _, total = last.partition(" checks passed")[0].partition("/")
    _require(passed.isdigit() and passed == total, f"verify reported {last!r}")
    return 0


# Workload -> unit of the work its checks count, for work_per_s.
WORK_UNIT = {
    "monte-carlo": "photons simulated per second of simulate calls",
    "analysis-grid": "operating points (CSV rows) per second",
}

NAMES = tuple(WORK_UNIT)
