"""Closed-form secrecy-capacity engine.

Computes detection gains, error budgets, secrecy message capacity,
loss/noise security thresholds, maximum secure distance, and practical
throughput, plus a sweep generator for curve reproduction. All functions
are pure; the Monte Carlo protocol engine cross-validates these closed
forms at the event level.

Model summary (theta = pi/4, one uniform rotation delta_theta per trip):

  one-way gain      Q1 = eta            round-trip gain  Q2 = eta^2
  state error       e1 = Q1*|2*P1-1|*(1-cos(2*dth))/2
                    e2 = Q2*|2*P1-1|*(1-cos(4*dth))/2
  assignment error  e1' = (1-Q1)*min(P1, 1-P1)
                    e2' = (1-Q2)*min(P1, 1-P1)
  capacity          C_S = Q2*(1-h(e2+e2')) - Q1*h(e1+e1')

where P1 is the first-round probability of outcome g=0 and h the binary
entropy. A full link budget can replace the bare-eta gains, and a generic
path accepts an explicit basis-offset distribution and theta.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

from .devices import LinkBudget

_LN2 = math.log(2.0)


def binary_entropy(x: float) -> float:
    """Binary Shannon entropy h(x) in bits, with h(0) = h(1) = 0."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"entropy argument must lie in [0, 1], got {x}")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -(x * math.log(x) + (1.0 - x) * math.log(1.0 - x)) / _LN2


@dataclass(frozen=True)
class CapacityParams:
    """Operating point of the capacity model.

    Exactly one of `eta` (bare total detection efficiency, gains eta and
    eta^2) or `link` (full link budget) must be given. `delta_theta` is
    the rotation per one-way trip; the second-round target distribution
    is taken equal to p1.
    """

    p1: float
    delta_theta: float = 0.0
    theta: float = math.pi / 4
    eta: Optional[float] = None
    link: Optional[LinkBudget] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.p1 <= 1.0:
            raise ValueError(f"p1 must lie in [0, 1], got {self.p1}")
        if (self.eta is None) == (self.link is None):
            raise ValueError("exactly one of eta or link must be set")
        if self.eta is not None and not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"eta must lie in [0, 1], got {self.eta}")
        if not 0.0 < self.theta < math.pi / 2:
            raise ValueError(f"theta must lie in (0, pi/2), got {self.theta}")

    def gains(self) -> tuple[float, float]:
        """(one-way gain, round-trip gain)."""
        if self.eta is not None:
            return self.eta, self.eta**2
        return self.link.q_ab, self.link.q_aba


@dataclass(frozen=True)
class ErrorBudget:
    """Error fractions: quantum-state part plus no-click assignment part."""

    e_ab: float          # state error, one way
    e_ab_assign: float   # assignment error of lost photons, one way
    e_aba: float         # state error, round trip
    e_aba_assign: float  # assignment error, round trip

    def __post_init__(self) -> None:
        for name in ("e_ab", "e_ab_assign", "e_aba", "e_aba_assign"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    @property
    def total_one_way(self) -> float:
        return self.e_ab + self.e_ab_assign

    @property
    def total_round_trip(self) -> float:
        return self.e_aba + self.e_aba_assign


@dataclass(frozen=True)
class CapacityPoint:
    """One evaluated operating point; secure iff c_s > 0."""

    params: CapacityParams
    q_ab: float
    q_aba: float
    budget: ErrorBudget
    i_ab: float
    i_be_bound: float
    c_s: float
    e_s: Optional[float] = None
    axis_value: Optional[float] = None


def error_budget(params: CapacityParams) -> ErrorBudget:
    """Closed-form error budget at theta = pi/4 with uniform rotation.

    The mean basis-offset cosine is pinned by the first-round target:
    E[cos(2*pi*offset/n)] = 2*p1 - 1. Lost photons are assigned the more
    likely outcome of their ideal per-photon distribution, so each costs
    min(p, 1-p); with a single-branch offset distribution that averages
    to min(p1, 1-p1). These reductions hold only at theta = pi/4; other
    angles must go through error_budget_from_offsets.
    """
    if abs(params.theta - math.pi / 4) > 1e-12:
        raise ValueError(
            "closed-form budget requires theta = pi/4; "
            "use error_budget_from_offsets for generic angles"
        )
    q_ab, q_aba = params.gains()
    mean_cos = abs(2.0 * params.p1 - 1.0)
    assign = min(params.p1, 1.0 - params.p1)
    dth = params.delta_theta
    return ErrorBudget(
        e_ab=q_ab * mean_cos * (1.0 - math.cos(2.0 * dth)) / 2.0,
        e_ab_assign=(1.0 - q_ab) * assign,
        e_aba=q_aba * mean_cos * (1.0 - math.cos(4.0 * dth)) / 2.0,
        e_aba_assign=(1.0 - q_aba) * assign,
    )


def ideal_outcome_probability(delta: int, n: int, theta: float) -> float:
    """Noise-free per-photon P(g=0) for basis offset delta: |cos^2(t) + e^{i 2 pi d / n} sin^2(t)|^2."""
    c2, s2 = math.cos(theta) ** 2, math.sin(theta) ** 2
    ang = 2.0 * math.pi * delta / n
    return (c2 + s2 * math.cos(ang)) ** 2 + (s2 * math.sin(ang)) ** 2


def error_budget_from_offsets(
    params: CapacityParams,
    deltas: Sequence[int],
    weights: Sequence[float],
    n: int,
) -> ErrorBudget:
    """Generic-theta error budget from an explicit basis-offset distribution.

    Evaluates the state-error sums and the per-photon assignment rule
    literally instead of reducing them through p1.
    """
    if len(deltas) != len(weights):
        raise ValueError("deltas and weights must have equal length")
    total = math.fsum(weights)
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"offset weights must sum to 1, got {total}")
    q_ab, q_aba = params.gains()
    th, dth = params.theta, params.delta_theta
    mean_cos = math.fsum(
        w * math.cos(2.0 * math.pi * d / n) for d, w in zip(deltas, weights)
    )
    assign = math.fsum(
        w * min(p, 1.0 - p)
        for d, w in zip(deltas, weights)
        for p in (ideal_outcome_probability(d, n, th),)
    )
    return ErrorBudget(
        e_ab=q_ab * abs(mean_cos) * (1.0 - math.sin(2.0 * th + 2.0 * dth)) / 2.0,
        e_ab_assign=(1.0 - q_ab) * assign,
        e_aba=q_aba * abs(mean_cos) * (1.0 - math.sin(2.0 * th + 4.0 * dth)) / 2.0,
        e_aba_assign=(1.0 - q_aba) * assign,
    )


def secrecy_capacity(params: CapacityParams, budget: Optional[ErrorBudget] = None) -> CapacityPoint:
    """Secrecy message capacity C_S; negative values are reported as-is."""
    q_ab, q_aba = params.gains()
    b = budget if budget is not None else error_budget(params)
    i_ab = q_aba * (1.0 - binary_entropy(min(b.total_round_trip, 1.0)))
    i_be = q_ab * binary_entropy(min(b.total_one_way, 1.0))
    return CapacityPoint(
        params=params, q_ab=q_ab, q_aba=q_aba, budget=b,
        i_ab=i_ab, i_be_bound=i_be, c_s=i_ab - i_be,
    )


def _cs_at_eta(eta: float, p1: float, delta_theta: float) -> float:
    return secrecy_capacity(CapacityParams(p1=p1, delta_theta=delta_theta, eta=eta)).c_s


SCAN_RESOLUTION = 1e-3


def eta_threshold(p1: float, delta_theta: float = 0.0, solver_tol: float = 1e-6) -> Optional[float]:
    """Largest root of C_S(eta) = 0 on (0, 1], or None when no sign change.

    Scans downward from eta = 1 at SCAN_RESOLUTION for the highest
    positive-to-nonpositive transition (C_S rises through zero there),
    then bisects to solver_tol. Below the linear scan floor the search
    continues on a log-spaced tail, since the root scales with p1.
    """
    if not 0.0 < p1 < 1.0:
        raise ValueError(f"p1 must lie in (0, 1), got {p1}")
    steps = int(round(1.0 / SCAN_RESOLUTION))
    grid = [k * SCAN_RESOLUTION for k in range(steps, 0, -1)]
    grid += [SCAN_RESOLUTION / 2.0**j for j in range(1, 48)]
    hi = None
    hi_val = None
    lo = None
    for eta in grid:
        val = _cs_at_eta(eta, p1, delta_theta)
        if hi is not None and val <= 0.0 < hi_val:
            lo = eta
            break
        hi, hi_val = eta, val
    if lo is None:
        return None
    # absolute tolerance per the contract, plus relative refinement so
    # tiny roots keep enough precision for the distance mapping
    while hi - lo > min(solver_tol, 1e-3 * hi):
        mid = 0.5 * (lo + hi)
        if _cs_at_eta(mid, p1, delta_theta) > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def max_distance(
    p1: float,
    delta_theta: float = 0.0,
    eta_c: float = 0.95,
    eta_m: float = 1.0,
    eta_d: float = 1.0,
    alpha_db_per_km: float = 0.2,
) -> Optional[float]:
    """Maximum secure distance in km, inverting the attenuation law at the
    eta threshold. None when the link cannot reach the threshold even at
    zero distance; inf when C_S never changes sign but is positive at 1,
    or when lossless fiber (alpha = 0) reaches the threshold at all."""
    star = eta_threshold(p1, delta_theta)
    if star is None:
        return math.inf if _cs_at_eta(1.0, p1, delta_theta) > 0.0 else None
    budget = eta_c * eta_m * eta_d
    if star > budget:
        return None
    if alpha_db_per_km == 0.0:
        return math.inf
    return -(10.0 / alpha_db_per_km) * math.log10(star / budget)


DTH_SCAN_MAX = 0.3 * math.pi


def delta_theta_threshold(p1: float, solver_tol: float = 1e-6) -> Optional[float]:
    """Smallest root of C_S(delta_theta) = 0 on (0, 0.3*pi) at eta = 1.

    None means C_S keeps one sign over the scan range (noise-robust when
    positive)."""
    if not 0.0 < p1 < 1.0:
        raise ValueError(f"p1 must lie in (0, 1), got {p1}")

    def cs(dth: float) -> float:
        return secrecy_capacity(CapacityParams(p1=p1, delta_theta=dth, eta=1.0)).c_s

    steps = int(math.ceil(DTH_SCAN_MAX / SCAN_RESOLUTION))
    prev_x, prev_val = 0.0, cs(0.0)
    for k in range(1, steps + 1):
        x = min(k * DTH_SCAN_MAX / steps, DTH_SCAN_MAX)
        val = cs(x)
        if prev_val > 0.0 >= val:
            lo, hi = prev_x, x
            break
        prev_x, prev_val = x, val
    else:
        return None
    while hi - lo > solver_tol:
        mid = 0.5 * (lo + hi)
        if cs(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def fidelity_threshold(delta_theta_star: float) -> float:
    """State fidelity after one rotated trip: cos^2(delta_theta)."""
    if delta_theta_star < 0:
        raise ValueError("delta_theta_star must be non-negative")
    return math.cos(delta_theta_star) ** 2


def fidelity_pair(delta_theta_star: float) -> tuple[float, float]:
    """(one-trip, two-trip) fidelity readings: cos^2(dth), cos^2(2*dth)."""
    return (
        fidelity_threshold(delta_theta_star),
        math.cos(2.0 * delta_theta_star) ** 2,
    )


@dataclass(frozen=True)
class EfficiencyParams:
    """Throughput model: a quarter of the source rate carries message bits
    (half the photons are spent per checking round)."""

    r_rep_hz: float = 1e7
    p_s: float = 1.0

    def __post_init__(self) -> None:
        if self.r_rep_hz <= 0:
            raise ValueError("r_rep_hz must be positive")
        if not 0.0 <= self.p_s <= 1.0:
            raise ValueError("p_s must lie in [0, 1]")


def practical_efficiency(c_s: float, eff: EfficiencyParams) -> float:
    """Secure message bits per second; throughput floors at 0."""
    return 0.25 * eff.r_rep_hz * eff.p_s * max(c_s, 0.0)


def sweep(
    axis: str,
    values: Sequence[float],
    p1: float,
    delta_theta: float = 0.0,
    link: Optional[LinkBudget] = None,
    efficiency: Optional[EfficiencyParams] = None,
) -> list[CapacityPoint]:
    """Evaluate one capacity point per grid value.

    axis "eta" varies the bare efficiency, "L" the link distance in km
    (template `link` supplies the other budget factors), "delta_theta"
    the per-trip rotation at eta = 1 unless a link is given.
    """
    if axis not in ("eta", "L", "delta_theta"):
        raise ValueError(f"unknown sweep axis: {axis}")
    pts = []
    for v in values:
        if axis == "eta":
            params = CapacityParams(p1=p1, delta_theta=delta_theta, eta=float(v))
        elif axis == "L":
            base = link if link is not None else LinkBudget()
            params = CapacityParams(
                p1=p1, delta_theta=delta_theta,
                link=replace(base, distance_km=float(v)),
            )
        else:
            if link is not None:
                params = CapacityParams(p1=p1, delta_theta=float(v), link=link)
            else:
                params = CapacityParams(p1=p1, delta_theta=float(v), eta=1.0)
        point = secrecy_capacity(params)
        e_s = practical_efficiency(point.c_s, efficiency) if efficiency else None
        pts.append(replace(point, e_s=e_s, axis_value=float(v)))
    return pts
