"""Batch front end: simulate | sweep | threshold | attack-scan | verify.

Exit codes: 0 success (including a run aborted by a security check, which
is a reported outcome), 2 configuration error, 3 verification failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Iterable, Optional, Sequence

from . import analysis, verify
from .adversary import BlindingAttackParams, detection_power, predict_attacked_distribution
from .config import ConfigError, RunConfig, load_config
from .domains import NON_NEGATIVE, OPEN_UNIT, REAL, SEED, UNIT
from .protocol import (
    atomic_open, run_first_check, run_full_protocol, summary_record, write_transcript,
)


def _read_text(path: str) -> Optional[str]:
    """Contents of a small text file, or None where it cannot be read."""
    try:
        with open(path, encoding="ascii") as fh:
            return fh.read()
    except (OSError, ValueError):
        return None


def _cgroup_cpu_quota() -> Optional[int]:
    """CPUs granted by the cgroup v2 `cpu.max` quota of this process's own
    cgroup, as ceil(quota / period); None for `max`, or where the files are
    absent or unreadable (no cgroup v2, another OS)."""
    cgroup = _read_text("/proc/self/cgroup")
    # the cgroup v2 entry is the line "0::PATH"
    path = next((line[3:] for line in (cgroup or "").splitlines() if line.startswith("0::")), None)
    if path is None:
        return None
    cpu_max = _read_text(f"/sys/fs/cgroup{path.rstrip('/')}/cpu.max")
    try:
        quota, period = (cpu_max or "").split()
        if quota == "max":
            return None
        return max(1, math.ceil(int(quota) / int(period)))
    except (ValueError, ZeroDivisionError):
        return None


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one,
    else the machine's CPU count, and no more than its cgroup's CPU quota."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    quota = _cgroup_cpu_quota()
    return cpus if quota is None else min(cpus, quota)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="rdiqsdc",
        description="Single-photon RDI QSDC simulator and capacity analysis",
    )
    sub = p.add_subparsers(dest="cmd", required=True)
    for name, help_text in (
        ("simulate", "run the six-step protocol and write transcripts"),
        ("sweep", "closed-form capacity sweep to CSV"),
        ("threshold", "loss/noise thresholds and distances per operating point"),
        ("attack-scan", "blinding-attack grid: predicted/empirical statistics"),
        ("verify", "run the acceptance battery"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", type=str, default=None,
                         help="config file path (default: $RDIQSDC_CONFIG)")
        cmd.add_argument("--seed", type=int, default=None, help="master seed override")
        cmd.add_argument("--out", type=str, default=".", help="output directory")
        cmd.add_argument("--workers", type=int, default=_usable_cpus(),
                         help="parallel workers, at least 1: threads in simulate, processes "
                              "in attack-scan and verify (verify: one pool shared by criteria "
                              "7, 9 and 10; 1 runs everything serially in this process); the "
                              "output is the same for any worker count")
        cmd.add_argument("--format", choices=("csv", "tsv"), default="csv")
        cmd.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                         help="override a config key (repeatable)")
        if name == "verify":
            cmd.add_argument("--keystone-r", type=int, default=1_000_000,
                             help="photons per sequence in the cross-validation runs, at least 1")
    return p


def _load(args) -> RunConfig:
    if args.workers < 1:
        raise ConfigError(f"--workers must be at least 1, got {args.workers}")
    args.workers = min(args.workers, _usable_cpus())  # more would only add switching
    overrides = {}
    for item in args.set:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, raw = item.split("=", 1)
        overrides[key.strip()] = raw.strip()
    if args.seed is not None:
        overrides["protocol.seed"] = str(args.seed)
    return load_config(args.config, overrides)


def _delim(args) -> str:
    return "\t" if args.format == "tsv" else ","


def _write_rows(path: Path, header: list[str], rows: Iterable[Sequence], delim: str) -> None:
    """One line per row, each value as _fmt prints it. A str that leads a
    longer row is written as is, which is _fmt's text for it, and may hold
    several fields. A tail of finite floats, which _fmt prints as "%.10g",
    is formatted with one `%`."""
    formats: dict[int, str] = {}  # tail length -> its one `%` format
    path.parent.mkdir(parents=True, exist_ok=True)
    with atomic_open(path) as fh:
        fh.write(delim.join(header) + "\n")
        for row in rows:
            lead = ""
            if type(row[0]) is str and len(row) > 1:
                lead, row = row[0] + delim, row[1:]
            # a sum of floats is finite only when every term is
            if all(type(v) is float for v in row) and math.isfinite(sum(row)):
                fmt = formats.get(len(row))
                if fmt is None:
                    fmt = formats[len(row)] = delim.join(["%.10g"] * len(row)) + "\n"
                fh.write(lead + fmt % tuple(row))
            else:
                fh.write(lead + delim.join(_fmt(v) for v in row) + "\n")


def _fmt(v) -> str:
    if v is None:
        return "none"
    if isinstance(v, float):
        if math.isinf(v):
            return "inf"
        return f"{v:.10g}"
    return str(v)


def cmd_simulate(cfg: RunConfig, args) -> int:
    cfg.check_p1_reachable("protocol.p1_target")
    params, message = cfg.protocol_params(), cfg.message_bits()
    outdir = Path(args.out)
    result = run_full_protocol(params, message, workers=args.workers)
    summary = summary_record(result)
    outdir.mkdir(parents=True, exist_ok=True)
    with atomic_open(outdir / "summary.json") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if cfg["output.transcript"]:
        write_transcript(result, outdir / "transcript.jsonl")
    for c in (result.check1, result.check2):
        if c is not None:
            print(f"round {c.round_index} check: theoretical {c.theoretical_p_g0:.6f}, "
                  f"empirical {c.empirical_p_g0:.6f}, "
                  f"{'pass' if c.passed else 'ABORT'} (tol {c.tolerance:.4f})")
    if result.aborted_at_step is not None:
        print(f"run terminated by the step-{result.aborted_at_step} check")
    elif result.frame is not None:
        f = result.frame
        print(f"message: {len(f.payload)} bits, {f.n_ok} ok, "
              f"{f.n_lost} lost, {f.n_flipped} flipped")
    print(f"wrote {outdir / 'summary.json'}")
    return 0


def _one_rotation_per_trip(cfg: RunConfig) -> float:
    """delta_theta for the closed forms, which model one rotation per trip."""
    if cfg["physics.noise_spread"] != 0.0:
        raise ConfigError("physics.noise_spread must be 0 for sweep and threshold: "
                          "their closed forms model one rotation per trip")
    return cfg["physics.delta_theta"]


def cmd_sweep(cfg: RunConfig, args) -> int:
    outdir = Path(args.out)
    axis = cfg["analysis.axis"]
    grid = cfg["analysis.grid"]
    if not grid:
        raise ConfigError("analysis.grid is empty; set analysis.grid")
    dth = _one_rotation_per_trip(cfg)
    cfg.check_p1_reachable("analysis.p1_list")
    # the delta_theta axis takes any finite rotation; the solver names one that overflows
    domain = {"eta": UNIT, "L": NON_NEGATIVE}.get(axis, REAL)
    for v in grid:
        if v not in domain:
            raise ConfigError(f"analysis.grid entries {domain.text} on the {axis} axis, "
                              f"got {v!r}")
    link = cfg.link()  # read on the distance axis only
    eff = cfg.efficiency()
    cols = analysis.sweep(axis, grid, cfg["analysis.p1_list"], eff, delta_theta=dth, link=link,
                          config=cfg.basis_config())
    header = ["axis", "p1", "delta_theta", "eta", "q_ab", "q_aba",
              "e_ab", "e_aba", "i_ab", "i_be", "c_s", "e_s"]
    # the six leading fields as text, p1 once per P1 and the other five once
    # per grid point (rows run P1 major); eta is the bare efficiency, which is
    # q_ab on every axis
    d = _delim(args)
    axis_text = [_fmt(v) for v in cols.axis]
    gains_text = [d.join(map(_fmt, vals)) for vals in
                  zip(cols.delta_theta, cols.q_ab, cols.q_ab, cols.q_aba)]
    lead = (a + d + p1 + d + g for p1 in map(_fmt, cols.p1)
            for a, g in zip(axis_text, gains_text))
    rows = zip(lead, cols.e_ab, cols.e_aba, cols.i_ab, cols.i_be, cols.c_s, cols.e_s)
    path = outdir / f"sweep.{args.format}"
    _write_rows(path, header, rows, d)
    if cfg["output.gnuplot"]:
        _write_gnuplot(outdir / "sweep.gp", path.name, axis, d)
    print(f"wrote {path} ({len(cols.c_s)} rows)")
    return 0


def _write_gnuplot(path: Path, csv_name: str, axis: str, delim: str) -> None:
    script = (
        f'set datafile separator "{delim}"\n'
        f'set key autotitle columnhead\n'
        f'set xlabel "{axis}"\n'
        f'set ylabel "C_S"\n'
        f'plot "{csv_name}" using 1:11 with lines\n'
    )
    with atomic_open(path) as fh:
        fh.write(script)


def cmd_threshold(cfg: RunConfig, args) -> int:
    # the threshold solvers need both outcomes possible at each operating point
    for p1 in cfg["analysis.p1_list"]:
        if p1 not in OPEN_UNIT:
            raise ConfigError(f"analysis.p1_list entries {OPEN_UNIT.text} for threshold, "
                              f"got {p1!r}")
    cfg.check_p1_reachable("analysis.p1_list")
    dth = _one_rotation_per_trip(cfg)
    link = cfg.link()  # eta_m from the memory's round trips when they are set
    config = cfg.basis_config()
    rows = []
    for p1 in cfg["analysis.p1_list"]:
        p1 = float(p1)
        eta_star = analysis.eta_threshold(p1, dth, config=config)
        l_max = analysis.max_distance(p1, dth, link, eta_star=eta_star, config=config)
        if dth == 0.0:  # the noiseless columns are the same solve
            eta_star0, l_max0 = eta_star, l_max
        else:
            eta_star0 = analysis.eta_threshold(p1, 0.0, config=config)
            l_max0 = analysis.max_distance(p1, 0.0, link, eta_star=eta_star0, config=config)
        dth_star = analysis.delta_theta_threshold(p1, config=config)
        fid = analysis.fidelity_pair(dth_star) if dth_star is not None else (None, None)
        rows.append([p1, eta_star, eta_star0, l_max, l_max0, dth_star, fid[0], fid[1]])
    header = ["p1", "eta_star", "eta_star_noiseless", "l_max_km",
              "l_max_noiseless_km", "dth_star", "fidelity_one_trip",
              "fidelity_two_trip"]
    path = Path(args.out) / f"thresholds.{args.format}"
    _write_rows(path, header, rows, _delim(args))

    print(f"{'p1':>8} {'eta*':>10} {'eta*(0)':>10} {'L_max km':>10} "
          f"{'L_max(0)':>10} {'dth*':>10} {'F(1 trip)':>10} {'F(2 trip)':>10}")
    for row in rows:
        print(" ".join(f"{_fmt(v):>10}" for v in row))
    print(f"# delta_theta = {dth}; noise threshold dth* solved at eta=1 on (0, 0.3*pi);"
          " 'none' = no sign change (noise-robust)")
    print(f"# DI benchmark for comparison: eta* = {verify.DI_BENCHMARK['eta_threshold']},"
          f" L_max = {verify.DI_BENCHMARK['max_distance_km']} km")
    print(f"wrote {path}")
    return 0


def _attack_point(job) -> list:
    params, target, tol = job
    report = run_first_check(params)
    adv = params.adversary
    predicted = predict_attacked_distribution(target, adv)
    abort_p = detection_power(target, adv, params.r, tol)
    return [adv.p1, adv.p2, predicted, report.empirical_p_g0, abort_p, int(not report.passed)]


def cmd_attack_scan(cfg: RunConfig, args) -> int:
    cfg.check_p1_reachable("protocol.p1_target")
    base = cfg.protocol_params()
    target = base.p1_target
    if target is None:  # the uniform offsets' expected first-round P(g=0)
        target = analysis.offset_model(None, base.config).p_g0(0.0)
    r = cfg["attack.r"]
    # one seed per point: a row of the p2 grid spans at least 100 seeds
    stride = max(100, len(cfg["attack.p2_grid"]))
    jobs = []
    for i, p1a in enumerate(cfg["attack.p1_grid"]):
        for j, p2a in enumerate(cfg["attack.p2_grid"]):
            params = dataclasses.replace(
                base,
                r=r,
                adversary=BlindingAttackParams(p1=float(p1a), p2=float(p2a)),
                continue_on_abort=True,
                # wraps past the largest seed, as 64-bit words do
                seed=(base.seed + 1_000 + stride * i + j) % (SEED.hi + 1),
            )
            jobs.append((params, float(target), params.check_tolerance()))
    # a process per point at most
    workers = min(args.workers, len(jobs))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_attack_point, jobs))
    else:
        rows = [_attack_point(job) for job in jobs]
    header = ["p1_attack", "p2_attack", "predicted_p_g0", "empirical_p_g0",
              "abort_probability", "aborted"]
    path = Path(args.out) / f"attack_scan.{args.format}"
    _write_rows(path, header, rows, _delim(args))
    print(f"wrote {path} ({len(rows)} rows)")
    return 0


def cmd_verify(cfg: RunConfig, args) -> int:
    if args.keystone_r < 1:
        raise ConfigError(f"--keystone-r must be at least 1, got {args.keystone_r}")
    checks = verify.run_all(workers=args.workers, r_keystone=args.keystone_r)
    failures = 0
    for check in checks:
        print(check.line())
        failures += 0 if check.passed else 1
    total = len(checks)
    print(f"{total - failures}/{total} checks passed")
    return 0 if failures == 0 else 3


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        command = {"simulate": cmd_simulate, "sweep": cmd_sweep, "threshold": cmd_threshold,
                   "attack-scan": cmd_attack_scan, "verify": cmd_verify}[args.cmd]
        return command(_load(args), args)
    except ValueError as exc:  # ConfigError and the domain objects' own checks
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
