"""Acceptance suite: one test per release criterion.

Each test prints a PASS/FAIL line per underlying check (run pytest with
-s or read captured output on failure). Closed-form criteria assert
against fixed reference values; Monte Carlo criteria cross-validate the
event-level engine against the closed-form model at 5 sigma; criterion 6
additionally recomputes its target with an independent high-precision
oracle in this file.
"""
import math
import os
from concurrent.futures import ProcessPoolExecutor
from types import SimpleNamespace

import mpmath
import pytest

from rdiqsdc import analysis, verify


def _report(checks) -> None:
    for check in checks:
        print(check.line())
    assert all(c.passed for c in checks), "; ".join(
        c.name for c in checks if not c.passed
    )


def test_criterion_1_eta_thresholds_noiseless():
    # {P1 -> eta*}: 0.001->0.0115, 0.1->0.4823, 0.2->0.6790, 0.3->0.7718,
    # 0.4->0.8238, 0.5->0.8568, each within +-0.002
    _report(verify.criterion1())


def test_criterion_2_eta_thresholds_pi_over_40():
    # 0.001->0.0130, 0.1->0.4985, 0.2->0.6927, 0.3->0.7798, 0.4->0.8278,
    # 0.5->0.8569, each within +-0.003
    _report(verify.criterion2())


def test_criterion_3_max_distances():
    # 14.72 km +-0.2 at (0.1, pi/400); 95.8 km +-0.5 at (0.001, 0), with
    # the pi/400 evaluation emitted alongside
    _report(verify.criterion3())


def test_criterion_4_noise_thresholds():
    # dth* within +-2% of {0.2547, 0.2988, 0.3742, 0.5912}; capacity stays
    # positive over (0, pi) at the 0.429 operating point
    _report(verify.criterion4())


def test_criterion_5_fidelity_mapping():
    # cos^2(dth*) within +-5e-4 of {0.9365, 0.9133, 0.8664, 0.6894}
    _report(verify.criterion5())


def test_criterion_6_practical_efficiency():
    _report(verify.criterion6())

    # independent high-precision oracle for the full closed-form chain
    with mpmath.workdps(40):
        p1 = mpmath.mpf("0.1")
        eta = mpmath.mpf(10) ** (-mpmath.mpf("0.2") * mpmath.mpf("0.5") / 10) * mpmath.mpf("0.95")
        dth = mpmath.pi / 400
        k1 = abs(2 * p1 - 1) * (1 - mpmath.cos(2 * dth)) / 2
        k2 = abs(2 * p1 - 1) * (1 - mpmath.cos(4 * dth)) / 2
        e1 = eta * k1 + (1 - eta) * p1
        e2 = eta**2 * k2 + (1 - eta**2) * p1

        def h(x):
            return -(x * mpmath.log(x) + (1 - x) * mpmath.log(1 - x)) / mpmath.log(2)

        c_s = eta**2 * (1 - h(e2)) - eta * h(e1)
        oracle_e_s = float(mpmath.mpf("0.25") * mpmath.mpf(10) ** 7 * c_s)

    assert oracle_e_s == pytest.approx(verify.EFFICIENCY_ORACLE_BITS_PER_S, rel=1e-6)

    from rdiqsdc.devices import LinkBudget

    point = analysis.secrecy_capacity(
        analysis.CapacityParams(
            p1=0.1, delta_theta=math.pi / 400,
            link=LinkBudget(distance_km=0.5, eta_c=0.95),
        )
    )
    engine_e_s = analysis.practical_efficiency(point.c_s, analysis.EfficiencyParams())
    print(f"[PASS] criterion 6 (oracle): independent chain {oracle_e_s:.1f} "
          f"vs engine {engine_e_s:.1f} bits/s")
    assert engine_e_s == pytest.approx(oracle_e_s, rel=0.02)
    assert engine_e_s == pytest.approx(1.78e6, rel=0.02)


def test_criterion_7_monte_carlo_vs_closed_forms():
    # 12 grid points spanning eta x dth x P1 at r = 1e6: transcript gains,
    # error components, and per-round outcome distributions all within
    # 5 sigma of the closed forms
    r = 1_000_000
    with ProcessPoolExecutor(max_workers=min(os.cpu_count() or 1, 4)) as pool:
        points = pool.map(verify._criterion7_point, verify._criterion7_jobs(r))
        _report(verify.criterion7(r=r, results=points))


def test_criterion_8_protocol_correctness():
    _report(verify.criterion8())


def test_criterion_9_attack_model():
    _report(verify.criterion9())


def test_criterion_10_property_suites():
    checks = verify.criterion10()
    _report(checks)
    # the walk's line as pinned in the keystone golden, so a change to the
    # walk's operation sequence shows here as well as in the battery's diff
    golden = os.path.join(os.path.dirname(__file__), "golden", "verify-keystone-100000.txt")
    with open(golden, encoding="utf-8") as fh:
        pinned = [line.rstrip("\n") for line in fh if "randomized ops" in line]
    assert checks[-1].line() == pinned[0]
    assert checks[-1].obtained == "max |norm-1| = 4.44e-16"


def test_pooled_criteria_print_the_serial_lines(monkeypatch):
    # criteria 7, 9 and 10 print the same lines whether their jobs run here
    # or on one shared pool, queued up front while the others run; only the
    # pool, whose workers are forked, is preceded by a heap trim
    trims = []
    libc = SimpleNamespace(malloc_trim=trims.append)
    monkeypatch.setattr(verify.ctypes, "CDLL", lambda name: libc)
    sizes = dict(r_keystone=2000, r_grid=5000, n_random_ops=2000)
    serial = verify.run_all(workers=1, **sizes)
    assert trims == []
    pooled = verify.run_all(workers=2, **sizes)
    assert trims == [0]
    assert [c.line() for c in pooled] == [c.line() for c in serial]
    first = {}
    for check in serial:
        first.setdefault(check.criterion, check)
    assert list(first) == [str(k) for k in range(1, 11)]
    assert [sum(c.criterion == k for c in serial) for k in ("7", "9", "10")] == [12, 5, 4]
    # the sizes reach the criteria that take them
    assert first["7"].name.endswith("(r=2000)")
    assert first["9"].name.endswith("(r=5000)")
    assert serial[-1].name == "normalization preserved over 2000 randomized ops"
