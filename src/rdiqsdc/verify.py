"""Acceptance battery: every release gate in one runnable module.

Each criterion returns CheckResult rows; `run_all` concatenates them.
Sources: "reference" rows compare against externally fixed target values,
"oracle" rows against independently derived frozen constants,
"simulation" rows cross-validate the Monte Carlo engine against the
closed-form model at 5-sigma, and "exact" rows are identities.

Criteria 7, 9 and 10 split into pool jobs (protocol runs and the qstate
walk). Each of them takes its jobs' results as `results`, in job order;
without them it runs its jobs itself.
"""
from __future__ import annotations

import ctypes
import math
from collections.abc import Iterable, Iterator
from concurrent.futures import Executor, ProcessPoolExecutor
from contextlib import nullcontext, suppress
from dataclasses import dataclass
from itertools import chain, islice
from typing import Optional

import numpy as np

from . import analysis
from .adversary import BlindingAttackParams, detection_power, predict_attacked_distribution
from .devices import ChannelNoiseModel, LinkBudget
from .protocol import (
    ProtocolParams,
    ProtocolResult,
    SecurityCheckReport,
    hoeffding_tolerance,
    run_first_check,
    run_full_protocol,
)
from .qstate import BasisConfig, ChannelRotation, EncodeOp, apply_encode, apply_rotation, prepare

# ---------------------------------------------------------------------------
# reference operating points and their fixed target values
# ---------------------------------------------------------------------------
P1_LIST = (0.001, 0.1, 0.2, 0.3, 0.4, 0.5)

ETA_THRESHOLDS_NOISELESS = (0.0115, 0.4823, 0.6790, 0.7718, 0.8238, 0.8568)
ETA_THRESHOLDS_PI_40 = (0.0130, 0.4985, 0.6927, 0.7798, 0.8278, 0.8569)

DTH_THRESHOLDS = {0.1: 0.2547, 0.2: 0.2988, 0.3: 0.3742, 0.4: 0.5912}
FIDELITY_TARGETS = {0.2547: 0.9365, 0.2988: 0.9133, 0.3742: 0.8664, 0.5912: 0.6894}

MAX_DISTANCE_KM = {"p1=0.1, dth=pi/400": 14.72, "p1=0.001, dth=0": 95.8}

# independently derived throughput at P1=0.1, L=0.5 km, R_rep=1e7 Hz, p_s=1
EFFICIENCY_ORACLE_BITS_PER_S = 1_782_849.887

# entanglement-based fully-device-independent benchmark, reporting only
DI_BENCHMARK = {"eta_threshold": 0.926, "max_distance_km": 0.561}


@dataclass
class CheckResult:
    criterion: str
    name: str
    expected: str
    obtained: str
    tolerance: str
    passed: bool
    source: str

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return (
            f"[{mark}] criterion {self.criterion} ({self.source}): {self.name}: "
            f"expected {self.expected} (tol {self.tolerance}), got {self.obtained}"
        )


def _z(got: float, want: float, sigma: float) -> float:
    """|got - want| in units of sigma; at sigma 0, 0 where they are equal,
    else infinity."""
    diff = abs(got - want)
    return diff / sigma if sigma > 0 else (0.0 if diff == 0.0 else math.inf)


def _check(criterion, name, want, got, tol, source) -> CheckResult:
    return CheckResult(
        criterion=criterion,
        name=name,
        expected=f"{want:.6g}",
        obtained=f"{got:.6g}",
        tolerance=f"{tol:.3g}",
        passed=abs(got - want) <= tol,
        source=source,
    )


# ---------------------------------------------------------------------------
# criteria 1-2: loss thresholds
# ---------------------------------------------------------------------------
def criterion1() -> list[CheckResult]:
    out = []
    for p1, want in zip(P1_LIST, ETA_THRESHOLDS_NOISELESS):
        got = analysis.eta_threshold(p1, 0.0)
        out.append(_check("1", f"eta* at p1={p1}, dth=0", want, got, 0.002, "reference"))
    return out


def criterion2() -> list[CheckResult]:
    out = []
    for p1, want in zip(P1_LIST, ETA_THRESHOLDS_PI_40):
        got = analysis.eta_threshold(p1, math.pi / 40)
        out.append(
            _check("2", f"eta* at p1={p1}, dth=pi/40", want, got, 0.003, "reference")
        )
    return out


# ---------------------------------------------------------------------------
# criterion 3: maximum secure distances
# ---------------------------------------------------------------------------
def criterion3() -> list[CheckResult]:
    def l_max(p1: float, dth: float) -> float:
        return analysis.max_distance(p1, dth, LinkBudget(eta_c=0.95),
                                     eta_star=analysis.eta_threshold(p1, dth))

    (point_a, want_a), (point_b, want_b) = MAX_DISTANCE_KM.items()
    got_a = l_max(0.1, math.pi / 400)
    got_b = l_max(0.001, 0.0)
    # the published 95.8 km figure matches the noiseless threshold; the
    # pi/400 evaluation is emitted alongside for comparison
    got_b_alt = l_max(0.001, math.pi / 400)
    return [
        _check("3", f"L_max at {point_a}", want_a, got_a, 0.2, "reference"),
        _check("3", f"L_max at {point_b}", want_b, got_b, 0.5, "reference"),
        CheckResult(
            "3", "L_max at p1=0.001, dth=pi/400 (comparison)",
            "reported with dth=0 attribution", f"{got_b_alt:.4g} km", "n/a",
            True, "closed-form",
        ),
    ]


# ---------------------------------------------------------------------------
# criteria 4-5: noise thresholds and the fidelity mapping
# ---------------------------------------------------------------------------
def criterion4() -> list[CheckResult]:
    out = []
    for p1, want in DTH_THRESHOLDS.items():
        got = analysis.delta_theta_threshold(p1)
        out.append(
            _check("4", f"dth* at p1={p1}", want, got, 0.02 * want, "reference")
        )
    cs, _ = analysis._cs_of_delta_theta(0.429, analysis.REFERENCE_CONFIG)
    c_min = min(cs(float(d)) for d in np.linspace(1e-4, math.pi - 1e-4, 4001))
    out.append(
        CheckResult(
            "4", "C_S stays positive on (0, pi) at p1=0.429",
            "> 0", f"min C_S = {c_min:.3e}", "n/a", c_min > 0.0, "reference",
        )
    )
    return out


def criterion5() -> list[CheckResult]:
    out = []
    for dth_star, want in FIDELITY_TARGETS.items():
        got = analysis.fidelity_pair(dth_star)[0]
        out.append(
            _check("5", f"fidelity at dth*={dth_star}", want, got, 5e-4, "reference")
        )
    return out


# ---------------------------------------------------------------------------
# criterion 6: practical efficiency
# ---------------------------------------------------------------------------
def criterion6() -> list[CheckResult]:
    link = LinkBudget(distance_km=0.5, alpha_db_per_km=0.2, eta_c=0.95)
    point = analysis.secrecy_capacity(
        analysis.CapacityParams(p1=0.1, delta_theta=math.pi / 400, link=link)
    )
    e_s = analysis.practical_efficiency(point.c_s, analysis.EfficiencyParams())
    want = EFFICIENCY_ORACLE_BITS_PER_S
    out = [
        _check(
            "6", "E_s at p1=0.1, L=0.5 km", want, e_s, 0.02 * want, "oracle"
        ),
        CheckResult(
            "6", "DI benchmark constants (reporting only)",
            "eta*=0.926, L_max=0.561 km",
            f"eta*={DI_BENCHMARK['eta_threshold']}, "
            f"L_max={DI_BENCHMARK['max_distance_km']} km",
            "n/a", True, "reference",
        ),
    ]
    return out


# ---------------------------------------------------------------------------
# criterion 7: Monte Carlo vs closed forms (keystone)
# ---------------------------------------------------------------------------
KEYSTONE_GRID = tuple(
    (eta, dth, p1)
    for eta in (0.3, 0.7, 1.0)
    for dth in (0.0, math.pi / 40)
    for p1 in (0.1, 0.4)
)


def _criterion7_point(args: tuple) -> dict:
    index, eta, dth, p1, r = args
    config = BasisConfig(n=8)
    link = LinkBudget(eta_c=eta)  # bare-efficiency realization
    params = ProtocolParams(
        r=r,
        config=config,
        p1_target=p1,
        link=link,
        noise=ChannelNoiseModel(delta_theta=dth),
        continue_on_abort=True,
        seed=7_000 + index,
    )
    result = run_full_protocol(params)
    closed = analysis.expected_stats(analysis.offset_model(p1, config), link.q_ab, link.q_aba, dth)
    return {"eta": eta, "dth": dth, "p1": p1, "rows": _keystone_rows(result.stats, closed)}


def _keystone_rows(stats, closed: dict) -> list[tuple]:
    """(name, want, got, z) of each modelled statistic of a run."""
    rows = []
    for name, want in closed.items():
        est = getattr(stats, name)
        rows.append((name, want, est.value, _z(est.value, want, est.stderr)))
    return rows


def _criterion7_jobs(r: int) -> list[tuple]:
    return [(i, eta, dth, p1, r) for i, (eta, dth, p1) in enumerate(KEYSTONE_GRID)]


def criterion7(
    r: int = 1_000_000, results: Optional[Iterable[dict]] = None
) -> list[CheckResult]:
    if results is None:
        results = map(_criterion7_point, _criterion7_jobs(r))
    out = []
    for res in results:
        worst = max(res["rows"], key=lambda row: row[3])
        name, want, got, z = worst
        out.append(
            CheckResult(
                "7",
                f"transcript vs closed forms at eta={res['eta']}, "
                f"dth={res['dth']:.4g}, p1={res['p1']} (r={r})",
                "all statistics within 5 sigma",
                f"worst {name}: want {want:.6g}, got {got:.6g}, z={z:.2f}",
                "5 sigma",
                all(row[3] <= 5.0 for row in res["rows"]),
                "simulation",
            )
        )
    return out


# ---------------------------------------------------------------------------
# criterion 8: protocol correctness
# ---------------------------------------------------------------------------
def _announced_order_holds(result: ProtocolResult) -> bool:
    """Whether the run's public announcements name, for each announced S2
    and S3 slot of the return stream, the photon the slot carries. Positions
    are compared, so two swapped photons prepared alike do not pass."""
    led, ann = result.ledger, result.announcements
    if led.return_perm is None:
        return False
    carried = led.order[led.r:][led.return_perm]  # photon position per return slot
    return all(
        len(slots) == led.r and np.array_equal(members[original], carried[slots])
        for members, slots, original in (
            (led.s2_pos, ann.s2p_slots, ann.s2_original_positions),
            (led.s3_pos, ann.s3p_slots, ann.s3_original_positions),
        )
    )


def criterion8() -> list[CheckResult]:
    config = BasisConfig(n=8)
    result = run_full_protocol(ProtocolParams(r=1000, config=config, p1_target=0.1, seed=42))
    ok = (
        result.completed
        and result.frame.n_lost == 0
        and result.frame.n_flipped == 0
        and bool(np.all(result.frame.decoded == result.frame.payload))
    )
    out = [
        CheckResult(
            "8", "noiseless lossless run decodes 1000 bits exactly",
            "0 lost, 0 flipped",
            f"{result.frame.n_lost} lost, {result.frame.n_flipped} flipped",
            "exact", ok, "simulation",
        )
    ]
    bad = 0
    for seed in range(100):
        p = ProtocolParams(r=50, config=config, p1_target=0.1, seed=seed)
        if not _announced_order_holds(run_full_protocol(p)):
            bad += 1
    out.append(
        CheckResult(
            "8", "shuffle/announce round-trip restores order (100 seeds)",
            "100/100 exact", f"{100 - bad}/100 exact", "exact", bad == 0, "simulation",
        )
    )
    return out


# ---------------------------------------------------------------------------
# criterion 9: attack model
# ---------------------------------------------------------------------------
ATTACK_LEVELS = (0.0, 0.25, 0.5, 0.75, 1.0)
REPLICA_M = 10_000
REPLICAS = 30


def _first_check(job: tuple) -> SecurityCheckReport:
    """First checking round of one attacked run: job = (r, p1a, p2a, target, seed)."""
    r, p1a, p2a, target, seed = job
    return run_first_check(ProtocolParams(
        r=r,
        config=BasisConfig(n=8),
        p1_target=target,
        adversary=BlindingAttackParams(p1=p1a, p2=p2a),
        continue_on_abort=True,
        seed=seed,
    ))


def _criterion9_jobs(r_grid: int) -> tuple[list[tuple], list[tuple]]:
    """The 25 grid runs, then the detectable and the undetectable replicas."""
    grid = [
        (r_grid, p1a, p2a, 0.1, 900 + 10 * i + j)
        for i, p1a in enumerate(ATTACK_LEVELS)
        for j, p2a in enumerate(ATTACK_LEVELS)
    ]
    replicas = [(REPLICA_M, 0.5, 0.5, target, base + k)
                for target, base in ((0.1, 2_000), (0.5, 3_000)) for k in range(REPLICAS)]
    return grid, replicas


def criterion9(
    r_grid: int = 100_000, results: Optional[Iterable[SecurityCheckReport]] = None
) -> list[CheckResult]:
    grid, replicas = _criterion9_jobs(r_grid)
    if results is None:
        results = map(_first_check, grid + replicas)
    reports = iter(results)
    out = []
    worst_z, worst_at = 0.0, ""
    for (_, p1a, p2a, target, _), report in zip(grid, islice(reports, len(grid))):
        q = predict_attacked_distribution(target, BlindingAttackParams(p1a, p2a))
        z = _z(report.empirical_p_g0, q, math.sqrt(q * (1.0 - q) / r_grid))
        if z > worst_z:
            worst_z, worst_at = z, f"p1={p1a}, p2={p2a}"
    out.append(
        CheckResult(
            "9", f"attacked P(g=0) matches (1-p1)*P1 + p1*p2 on the 25-point grid (r={r_grid})",
            "all within 5 sigma", f"worst z={worst_z:.2f} at {worst_at}",
            "5 sigma", worst_z <= 5.0, "simulation",
        )
    )

    m = REPLICA_M
    tol = hoeffding_tolerance(m)
    power = detection_power(0.1, BlindingAttackParams(0.5, 0.5), m, tol)
    out.append(
        CheckResult(
            "9", "abort probability under attack (p1=p2=0.5, P1=0.1, m=1e4)",
            "> 0.999", f"{power:.6f}", "n/a", power > 0.999, "closed-form",
        )
    )
    aborts = sum(not report.passed for report in islice(reports, REPLICAS))
    out.append(
        CheckResult(
            "9", "check aborts in attacked runs (30 replicas)",
            "30/30 abort", f"{aborts}/30 abort", "exact", aborts == 30, "simulation",
        )
    )

    power_hidden = detection_power(0.5, BlindingAttackParams(0.5, 0.5), m, tol)
    out.append(
        CheckResult(
            "9", "attack at P1=0.5, p2=0.5 is undetectable",
            "abort probability <= 1e-06", f"{power_hidden:.3g}", "n/a",
            power_hidden <= 1e-6, "closed-form",
        )
    )
    false_aborts = sum(not report.passed for report in islice(reports, REPLICAS))
    out.append(
        CheckResult(
            "9", "no aborts at the undetectable point (30 replicas)",
            "0/30 abort", f"{false_aborts}/30 abort", "exact",
            false_aborts == 0, "simulation",
        )
    )
    return out


# ---------------------------------------------------------------------------
# criterion 10: property suites
# ---------------------------------------------------------------------------
def _normalization_walk(n_ops: int) -> float:
    """Worst |norm - 1| over n_ops random qstate operations, from a fixed stream.

    Each operation's kind, preparation index, encoding and rotation angle
    are drawn up front, one array each; operation i reads entry i of the
    array its kind needs. The integers are kept as int8 and the arrays are
    read as Python scalars a chunk at a time, which bounds the memory the
    walk adds."""
    rng = np.random.default_rng(12345)
    draws = (rng.integers(0, 3, n_ops).astype(np.int8),
             rng.integers(1, 17, n_ops).astype(np.int8),
             rng.random(n_ops) < 0.5, rng.uniform(-1.5, 1.5, n_ops))
    config = BasisConfig(n=16)
    worst = 0.0
    state = prepare(1, config)
    for start in range(0, n_ops, 4096):
        chunk = (draw[start:start + 4096].tolist() for draw in draws)
        for kind, index, flip, angle in zip(*chunk):
            if kind == 0:
                state = prepare(index, config)
            elif kind == 1:
                state = apply_encode(state, EncodeOp.U1 if flip else EncodeOp.U0)
            else:
                state = apply_rotation(state, ChannelRotation(angle))
            worst = max(worst, abs(state.norm_sq() - 1.0))
    return worst


def criterion10(
    n_random_ops: int = 100_000, results: Optional[Iterable[float]] = None
) -> list[CheckResult]:
    out = []

    def params(p1: float, dth: float, eta: float = 1.0) -> analysis.CapacityParams:
        return analysis.CapacityParams(p1=p1, delta_theta=dth, link=LinkBudget(eta_c=eta))

    worst = 0.0
    for p1 in (0.05, 0.1, 0.25, 0.4, 0.45):
        for eta in (0.3, 0.7, 1.0):
            for dth in (0.0, math.pi / 40, 0.3):
                a = analysis.secrecy_capacity(params(p1, dth, eta)).c_s
                b = analysis.secrecy_capacity(params(1.0 - p1, dth, eta)).c_s
                worst = max(worst, abs(a - b))
    out.append(
        CheckResult(
            "10", "C_S symmetry about P1=0.5", "<= 1e-09", f"max diff {worst:.2e}",
            "1e-09", worst <= 1e-9, "exact",
        )
    )

    worst = 0.0
    for p1 in (0.1, 0.3):
        for dth in map(float, np.linspace(0.0, math.pi, 21)):
            b0, b1, b2 = (analysis.error_budget(params(p1, dth + k))
                          for k in (0.0, math.pi, math.pi / 2))
            worst = max(worst, abs(b0.e_ab - b1.e_ab), abs(b0.e_aba - b2.e_aba))
    out.append(
        CheckResult(
            "10", "error periodicity: e_ab period pi, e_aba period pi/2",
            "<= 1e-09", f"max diff {worst:.2e}", "1e-09", worst <= 1e-9, "exact",
        )
    )

    idents = (
        abs(analysis.binary_entropy(0.0)),
        abs(analysis.binary_entropy(1.0)),
        abs(analysis.binary_entropy(0.5) - 1.0),
    )
    out.append(
        CheckResult(
            "10", "entropy identities h(0)=h(1)=0, h(0.5)=1",
            "exact", f"max dev {max(idents):.2e}", "1e-12",
            max(idents) <= 1e-12, "exact",
        )
    )

    if results is None:
        results = map(_normalization_walk, [n_random_ops])
    [worst] = results
    out.append(
        CheckResult(
            "10", f"normalization preserved over {n_random_ops} randomized ops",
            "<= 1e-12", f"max |norm-1| = {worst:.2e}", "1e-12",
            worst <= 1e-12, "exact",
        )
    )
    return out


def _queue_jobs(
    pool: Executor, r_keystone: int, r_grid: int, n_random_ops: int
) -> dict[int, Iterator]:
    """Queue every job of criteria 10, 7 and 9 on `pool`, in that order, and
    return each criterion's results iterator, keyed by criterion number.

    `Executor.map` submits all its jobs when it is called, so nothing here
    waits. The criterion-10 walk is the longest single job, so it starts
    first rather than running alone at the end; the short replica runs go
    in chunks of 4.
    """
    grid, replicas = _criterion9_jobs(r_grid)
    return {
        10: pool.map(_normalization_walk, [n_random_ops]),
        7: pool.map(_criterion7_point, _criterion7_jobs(r_keystone)),
        9: chain(pool.map(_first_check, grid), pool.map(_first_check, replicas, chunksize=4)),
    }


def run_all(
    workers: int = 1,
    r_keystone: int = 1_000_000,
    r_grid: int = 100_000,
    n_random_ops: int = 100_000,
) -> list[CheckResult]:
    """Every criterion's rows, in criterion order.

    With more than one worker, one process pool runs the jobs of criteria
    7, 9 and 10, all queued before anything waits, while this process
    computes the other criteria; one worker runs everything here, in order.
    The rows are the same either way.
    """
    if workers > 1:  # a forked worker holds this process's freed heap pages too
        with suppress(AttributeError, OSError, TypeError):  # trim them where glibc can
            ctypes.CDLL(None).malloc_trim(0)
    with ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        pending = _queue_jobs(pool, r_keystone, r_grid, n_random_ops) if pool else {}
        return (
            criterion1() + criterion2() + criterion3() + criterion4() + criterion5()
            + criterion6()
            + criterion7(r_keystone, pending.get(7))
            + criterion8()
            + criterion9(r_grid, pending.get(9))
            + criterion10(n_random_ops, pending.get(10))
        )
