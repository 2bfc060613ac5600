"""Closed-form secrecy-capacity engine.

Computes detection gains, error budgets, secrecy message capacity,
loss/noise security thresholds, maximum secure distance, and practical
throughput, plus a sweep generator for curve reproduction. All functions
are pure; the Monte Carlo protocol engine cross-validates them at the
event level.

Every error term comes from one model of the checking rounds: the offsets
d (weights w, phase phi = 2*pi*d/n) that the checking rounds draw against
the P1 target at the operating point (P1, n, theta), under one rotation dth
per trip:

  mean P(g=0) after rotation t  P(t) = linear in m = E[cos(phi)], P(0) = P1
  gains             Q1, Q2 of a link budget (eta and eta^2 at bare efficiency eta)
  state error       e1 = Q1*|P(0) - P(dth)|,  e2 = Q2*|P(0) - P(2*dth)|
  assignment error  e1' = (1-Q1)*A,  e2' = (1-Q2)*A,  A = sum w*min(p, 1-p)
  capacity          C_S = Q2*(1-h(e2+e2')) - Q1*h(e1+e1')

with p the ideal P(g=0) of an offset and h the binary entropy: a no-click
slot is assigned the more likely ideal outcome, wrong with chance min(p,
1-p). At theta = pi/4 and n = 8 this is the paper's model, P(t) = 1/2 +
cos(2t)*(2*P1-1)/2 and A = min(P1, 1-P1). `expected_stats` gives every
statistic of a Monte Carlo run from this model; the error budget is its
absolute-value view.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .devices import LinkBudget
from .domains import NON_NEGATIVE, OPEN_UNIT, POSITIVE, UNIT
from .protocol import OffsetDistribution
from .qstate import BasisConfig

_LN2 = math.log(2.0)

# the paper's operating point: eight phase settings at theta = pi/4
REFERENCE_CONFIG = BasisConfig(n=8)


def binary_entropy(x: float) -> float:
    """Binary Shannon entropy h(x) in bits, with h(0) = h(1) = 0."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"entropy argument must lie in [0, 1], got {x}")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -(x * math.log(x) + (1.0 - x) * math.log(1.0 - x)) / _LN2


def _outcome_probability(cos_phi: float, theta: float, cos_two_t, sin_two_t):
    """P(g=0) of the state at amplitude angle t measured in the basis at theta
    whose phase trails it by phi, |cos(theta)cos(t) + e^{i phi} sin(theta)sin(t)|^2,
    from the cosine and sine of 2t; elementwise over arrays of them. Linear in
    cos(phi), so at the mean cosine of an offset distribution it is the
    distribution's mean P(g=0)."""
    return 0.5 * (1.0 + math.cos(2.0 * theta) * cos_two_t
                  + math.sin(2.0 * theta) * sin_two_t * cos_phi)


def _rotated_angle(theta: float, delta_theta: float, trips: int) -> float:
    """The doubled amplitude angle 2*(theta + trips*delta_theta) after
    `trips` one-way trips; ValueError when it is not a finite number."""
    two_t = 2.0 * (theta + trips * delta_theta)
    if not math.isfinite(two_t):
        raise ValueError(f"delta_theta={delta_theta} is too large: the {trips}-trip "
                         f"rotation angle 2*(theta + {trips}*delta_theta) is not finite")
    return two_t


@dataclass(frozen=True)
class OffsetModel:
    """Checking-round statistics of one basis-offset distribution: E[cos(phi)],
    the no-click assignment cost sum w*min(p, 1-p) and the weight sum
    w*[p > 1/2] of offsets whose no-clicks are assigned g=0, p the ideal P(g=0)."""

    theta: float
    mean_cos: float
    assign: float
    assign_g0: float

    @classmethod
    def of(cls, offsets: OffsetDistribution, theta: float) -> "OffsetModel":
        cosines = [(w, math.cos(2.0 * math.pi * d / offsets.n))
                   for d, w in zip(offsets.deltas, offsets.weights)]
        two_theta = 2.0 * theta
        ideal = [(w, _outcome_probability(c, theta, math.cos(two_theta), math.sin(two_theta)))
                 for w, c in cosines]
        return cls(theta, math.fsum(w * c for w, c in cosines),
                   math.fsum(w * min(p, 1.0 - p) for w, p in ideal),
                   math.fsum(w for w, p in ideal if p > 0.5))

    def p_g0(self, delta_theta: float, trips: int = 1) -> float:
        """Mean P(g=0) of a clicked check photon after `trips` one-way
        trips, each rotating it by delta_theta."""
        two_t = _rotated_angle(self.theta, delta_theta, trips)
        return _outcome_probability(self.mean_cos, self.theta, math.cos(two_t), math.sin(two_t))

    def shift(self, delta_theta: float, trips: int = 1) -> float:
        """Signed state error of a clicked photon: ideal minus rotated P(g=0)."""
        return self.p_g0(0.0) - self.p_g0(delta_theta, trips)


@functools.lru_cache(maxsize=256)
def offset_model(p1: Optional[float], config: BasisConfig = REFERENCE_CONFIG) -> OffsetModel:
    """Model of the offsets drawn against the P1 target p1 (uniform ones
    where None), built once per operating point; ValueError when no offsets
    reach p1 at this n and theta."""
    return OffsetModel.of(OffsetDistribution.of(config, p1), config.theta)


@dataclass(frozen=True)
class CapacityParams:
    """Operating point of the capacity model.

    `link` gives the gains; a bare total detection efficiency eta is
    LinkBudget(eta_c=eta), whose gains are eta and eta^2. `delta_theta` is
    the rotation per one-way trip; both checking rounds target p1 with the
    offsets that target it at `config`.
    """

    p1: float
    delta_theta: float = 0.0
    config: BasisConfig = REFERENCE_CONFIG
    link: LinkBudget = LinkBudget()

    def __post_init__(self) -> None:
        UNIT.check("p1", self.p1)


@dataclass(frozen=True)
class ErrorBudget:
    """Error fractions: quantum-state part plus no-click assignment part."""

    e_ab: float          # state error, one way
    e_ab_assign: float   # assignment error of lost photons, one way
    e_aba: float         # state error, round trip
    e_aba_assign: float  # assignment error, round trip

    def __post_init__(self) -> None:
        for name in ("e_ab", "e_ab_assign", "e_aba", "e_aba_assign"):
            NON_NEGATIVE.check(name, getattr(self, name))

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


def expected_stats(model: OffsetModel, q_ab: float, q_aba: float, delta_theta: float) -> dict:
    """Expected TranscriptStats of a run, keyed by field: the checking rounds
    of `model` at one-way gain q_ab and round-trip gain q_aba, under one
    rotation delta_theta per trip."""
    p0, p1, p2 = model.p_g0(0.0), model.p_g0(delta_theta), model.p_g0(delta_theta, trips=2)
    return {
        "q_ab": q_ab,
        "q_aba": q_aba,
        "q_aba_decode": q_aba,
        "e_ab_signed": q_ab * (p0 - p1),
        "e_ab_assign": (1.0 - q_ab) * model.assign,
        "e_aba_signed": q_aba * (p0 - p2),
        "e_aba_assign": (1.0 - q_aba) * model.assign,
        "p1_clicked": p1,
        "p2_clicked": p2,
        "p1_observed": q_ab * p1 + (1.0 - q_ab) * model.assign_g0,
        "p2_observed": q_aba * p2 + (1.0 - q_aba) * model.assign_g0,
    }


def error_budget(params: CapacityParams) -> ErrorBudget:
    """Error budget of the operating point: its expected state errors in
    absolute value, and its assignment errors."""
    stats = expected_stats(offset_model(params.p1, params.config), params.link.q_ab,
                           params.link.q_aba, params.delta_theta)
    return ErrorBudget(
        e_ab=abs(stats["e_ab_signed"]),
        e_ab_assign=stats["e_ab_assign"],
        e_aba=abs(stats["e_aba_signed"]),
        e_aba_assign=stats["e_aba_assign"],
    )


def _information(q_ab: float, q_aba: float, e_one_way: float, e_round_trip: float):
    """(I_AB, I_BE bound) from the gains and the total error fractions."""
    i_ab = q_aba * (1.0 - binary_entropy(min(e_round_trip, 1.0)))
    i_be = q_ab * binary_entropy(min(e_one_way, 1.0))
    return i_ab, i_be


def secrecy_capacity(params: CapacityParams) -> CapacityPoint:
    """Secrecy message capacity C_S; negative values are reported as-is."""
    q_ab, q_aba = params.link.q_ab, params.link.q_aba
    b = error_budget(params)
    i_ab, i_be = _information(q_ab, q_aba, b.total_one_way, b.total_round_trip)
    return CapacityPoint(
        params=params, q_ab=q_ab, q_aba=q_aba, budget=b,
        i_ab=i_ab, i_be_bound=i_be, c_s=i_ab - i_be,
    )


def _entropy_screen(x: np.ndarray) -> np.ndarray:
    """binary_entropy elementwise in numpy, nan outside [0, 1]; close to the
    scalar values but not bit-identical to them."""
    h = -(x * np.log(x) + (1.0 - x) * np.log(1.0 - x)) / _LN2
    return np.where((x == 0.0) | (x == 1.0), 0.0, h)


def _screen(q1, q2, e_one_way, e_round_trip) -> np.ndarray:
    """_information's I_AB - I_BE elementwise in numpy."""
    return (q2 * (1.0 - _entropy_screen(np.minimum(e_round_trip, 1.0)))
            - q1 * _entropy_screen(np.minimum(e_one_way, 1.0)))


def _cs_of_eta(p1: float, delta_theta: float, config: BasisConfig) -> tuple[Callable, Callable]:
    """C_S as a function of the bare efficiency eta at one operating point:
    the scalar path, and its numpy screen over an array of eta. The rotation
    terms do not depend on eta, so they are evaluated here once rather than
    on every step of a scan."""
    model = offset_model(p1, config)
    e1, e2, a = abs(model.shift(delta_theta)), abs(model.shift(delta_theta, trips=2)), model.assign

    def cs(eta: float) -> float:
        q1, q2 = eta, eta**2
        i_ab, i_be = _information(q1, q2, q1 * e1 + (1.0 - q1) * a, q2 * e2 + (1.0 - q2) * a)
        return i_ab - i_be

    def screen(eta: np.ndarray) -> np.ndarray:
        q2 = eta * eta
        return _screen(eta, q2, eta * e1 + (1.0 - eta) * a, q2 * e2 + (1.0 - q2) * a)

    return cs, screen


def _cs_of_delta_theta(p1: float, config: BasisConfig) -> tuple[Callable, Callable]:
    """C_S at eta = 1 as a function of the rotation per trip delta_theta: the
    scalar path, and its numpy screen over an array of finite delta_theta.
    The offset model does not depend on delta_theta, so it is built here
    once rather than on every step of a scan."""
    model = offset_model(p1, config)
    p0 = model.p_g0(0.0)

    def cs(dth: float) -> float:
        i_ab, i_be = _information(1.0, 1.0, abs(p0 - model.p_g0(dth)),
                                  abs(p0 - model.p_g0(dth, trips=2)))
        return i_ab - i_be

    def screen(dth: np.ndarray) -> np.ndarray:
        e1, e2 = (np.abs(p0 - _outcome_probability(model.mean_cos, model.theta,
                                                   np.cos(two_t), np.sin(two_t)))
                  for two_t in (2.0 * (model.theta + dth), 2.0 * (model.theta + 2 * dth)))
        return _screen(1.0, 1.0, e1, e2)

    return cs, screen


SCAN_RESOLUTION = 1e-3
SOLVER_TOL = 1e-6
DTH_SCAN_MAX = 0.3 * math.pi
# a screen value beyond this, in absolute value, sets its point's sign; the
# screen measured within 3.3e-16 of the scalar path
SCREEN_MARGIN = 1e-9


@functools.cache
def _eta_scan() -> np.ndarray:
    """eta_threshold's scan, downward from eta = 1 at SCAN_RESOLUTION and
    then on a log-spaced tail below the linear scan floor."""
    steps = int(round(1.0 / SCAN_RESOLUTION))
    return np.array([k * SCAN_RESOLUTION for k in range(steps, 0, -1)]
                    + [SCAN_RESOLUTION / 2.0**j for j in range(1, 48)])


@functools.cache
def _delta_theta_scan() -> np.ndarray:
    """delta_theta_threshold's scan, upward from 0 to DTH_SCAN_MAX in steps
    of at most SCAN_RESOLUTION."""
    steps = int(math.ceil(DTH_SCAN_MAX / SCAN_RESOLUTION))
    return np.array([min(k * DTH_SCAN_MAX / steps, DTH_SCAN_MAX) for k in range(steps + 1)])


def _first_step(cs: Callable[[float], float], screen: Callable[[np.ndarray], np.ndarray],
                scan: np.ndarray) -> Optional[tuple[float, float]]:
    """(pos, neg): the first step of `scan` from a point where cs > 0 to one
    where cs <= 0, or None when the scan has no such step.

    screen(scan) sets the sign of each point where it is finite and beyond
    SCREEN_MARGIN; cs decides, in scan order, every other point that could
    start the step."""
    with np.errstate(all="ignore"):
        s = screen(scan)
    # a non-finite screen value sets no sign: cs decides its point
    s = np.where(np.isfinite(s), s, 0.0)

    @functools.cache
    def positive(i: int) -> bool:
        return s[i] > SCREEN_MARGIN or (s[i] >= -SCREEN_MARGIN and cs(scan[i].item()) > 0.0)

    # a step can start only where the screen allows cs > 0 and then cs <= 0
    for i in np.flatnonzero((s[:-1] >= -SCREEN_MARGIN) & (s[1:] <= SCREEN_MARGIN)).tolist():
        if positive(i) and not positive(i + 1):
            return scan[i].item(), scan[i + 1].item()
    return None


def _root(cs: Callable[[float], float], screen: Callable[[np.ndarray], np.ndarray],
          scan: np.ndarray, width: Callable[[float], float]) -> Optional[float]:
    """Root of cs at the first step of `scan` from a point where cs > 0 to
    one where cs <= 0, or None when the scan has no such step. The bracket
    is bisected with cs until it is no wider than width(pos), pos its
    positive end, so the root is the scalar path's to the bit."""
    bracket = _first_step(cs, screen, scan)
    if bracket is None:
        return None
    pos, neg = bracket
    while abs(pos - neg) > width(pos):
        mid = 0.5 * (neg + pos)
        if cs(mid) > 0.0:
            pos = mid
        else:
            neg = mid
    return 0.5 * (neg + pos)


def eta_threshold(p1: float, delta_theta: float = 0.0,
                  config: BasisConfig = REFERENCE_CONFIG) -> Optional[float]:
    """Largest root of C_S(eta) = 0 on (0, 1], or None when no sign change.

    Scans downward from eta = 1 at SCAN_RESOLUTION for the highest
    positive-to-nonpositive transition (C_S rises through zero there),
    then bisects to SOLVER_TOL. Below the linear scan floor the search
    continues on a log-spaced tail, since the root scales with p1.
    """
    OPEN_UNIT.check("p1", p1)
    # absolute tolerance per the contract, plus relative refinement so
    # tiny roots keep enough precision for the distance mapping
    return _root(*_cs_of_eta(p1, delta_theta, config), _eta_scan(),
                 lambda pos: min(SOLVER_TOL, 1e-3 * pos))


def max_distance(p1: float, delta_theta: float, link: LinkBudget, *,
                 eta_star: Optional[float],
                 config: BasisConfig = REFERENCE_CONFIG) -> Optional[float]:
    """Maximum secure distance in km of `link` (its own distance is ignored),
    inverting the attenuation law at the threshold eta_star =
    eta_threshold(p1, delta_theta, config=config), which the caller has
    solved. None when the link cannot reach the threshold even at zero
    distance; inf when C_S never changes sign but is positive at 1, or when
    lossless fiber (alpha = 0) reaches the threshold at all."""
    if eta_star is None:
        cs, _ = _cs_of_eta(p1, delta_theta, config)
        return math.inf if cs(1.0) > 0.0 else None
    budget = link.eta_c * link.eta_m * link.eta_d
    if eta_star > budget:
        return None
    if link.alpha_db_per_km == 0.0:
        return math.inf
    return -(10.0 / link.alpha_db_per_km) * math.log10(eta_star / budget)


def delta_theta_threshold(p1: float, config: BasisConfig = REFERENCE_CONFIG) -> Optional[float]:
    """Smallest root of C_S(delta_theta) = 0 on (0, 0.3*pi) at eta = 1,
    bisected to SOLVER_TOL.

    None means C_S keeps one sign over the scan range (noise-robust when
    positive)."""
    OPEN_UNIT.check("p1", p1)
    return _root(*_cs_of_delta_theta(p1, config), _delta_theta_scan(), lambda pos: SOLVER_TOL)


def fidelity_pair(delta_theta_star: float) -> tuple[float, float]:
    """State fidelity after one and after two rotated trips: cos^2(dth),
    cos^2(2*dth)."""
    NON_NEGATIVE.check("delta_theta_star", delta_theta_star)
    return math.cos(delta_theta_star) ** 2, math.cos(2.0 * delta_theta_star) ** 2


@dataclass(frozen=True)
class EfficiencyParams:
    """Throughput model: a quarter of the source rate carries message bits
    (half the photons are spent per checking round)."""

    r_rep_hz: float = 1e7
    p_s: float = 1.0

    def __post_init__(self) -> None:
        POSITIVE.check("r_rep_hz", self.r_rep_hz)
        UNIT.check("p_s", self.p_s)


def practical_efficiency(c_s: float, eff: EfficiencyParams) -> float:
    """Secure message bits per second; throughput floors at 0."""
    return 0.25 * eff.r_rep_hz * eff.p_s * max(c_s, 0.0)


@dataclass(frozen=True)
class SweepColumns:
    """Capacity over a grid at each P1, one list per quantity. `axis`,
    `delta_theta`, `q_ab` and `q_aba`, which do not depend on P1, hold one
    entry per grid value and `p1` one per P1. The other lists run P1 major:
    entry k is grid value k % len(axis) at P1 p1[k // len(axis)]. The bare
    efficiency eta of a point is its q_ab on every axis."""

    axis: list[float]
    p1: list[float]
    delta_theta: list[float]
    q_ab: list[float]
    q_aba: list[float]
    e_ab: list[float]   # one-way error fraction, state plus assignment
    e_aba: list[float]  # round-trip error fraction, state plus assignment
    i_ab: list[float]
    i_be: list[float]
    c_s: list[float]
    e_s: list[float]


def sweep(
    axis: str,
    values: Sequence[float],
    p1s: Sequence[float],
    efficiency: EfficiencyParams,
    delta_theta: float = 0.0,
    link: LinkBudget = LinkBudget(),
    config: BasisConfig = REFERENCE_CONFIG,
) -> SweepColumns:
    """Evaluate the capacity at every grid value for each P1 in p1s.

    axis "eta" varies the bare efficiency, "L" the link distance in km
    (`link` supplies the other budget factors; no other axis reads it),
    "delta_theta" the per-trip rotation at eta = 1.

    Each column equals the value secrecy_capacity gives at its point. The
    gains and the rotation terms, which do not depend on P1, are computed
    once per grid. Every cos, sin, power and log (in binary_entropy) is the
    scalar path's own libm call on a Python float; only + - * / and abs run
    elementwise in numpy, in the scalar path's order.
    """
    if axis not in ("eta", "L", "delta_theta"):
        raise ValueError(f"unknown sweep axis: {axis}")
    grid = [float(v) for v in values]
    p1s = [float(p1) for p1 in p1s]
    for p1 in p1s:
        UNIT.check("p1", p1)
    n = len(grid)
    rotations, dths = [delta_theta], [delta_theta] * n
    if axis == "eta":
        for eta in grid:
            UNIT.check("eta_c", eta)
        # the gains of LinkBudget(eta_c=eta), bit for bit
        q_ab, q_aba = grid, [eta**2 for eta in grid]
    elif axis == "L":
        links = [replace(link, distance_km=v) for v in grid]
        q_ab, q_aba = [b.q_ab for b in links], [b.q_aba for b in links]
    else:
        q_ab, q_aba = [1.0] * n, [1.0] * n
        rotations = dths = grid
    # (cos, sin) of the doubled angle after one trip and after two, one entry
    # per rotation: off the delta_theta axis a single entry spans the grid
    angles = [(_rotated_angle(config.theta, v, 1), _rotated_angle(config.theta, v, 2))
              for v in rotations]
    trig = [(np.array([math.cos(a[k]) for a in angles]),
             np.array([math.sin(a[k]) for a in angles])) for k in (0, 1)]
    q1, q2 = np.array(q_ab), np.array(q_aba)
    e_ab, e_aba, i_ab, i_be, c_s = [], [], [], [], []
    for p1 in p1s:
        model = offset_model(p1, config)
        p0 = model.p_g0(0.0)
        s1, s2 = (np.abs(p0 - _outcome_probability(model.mean_cos, model.theta, cos, sin))
                  for cos, sin in trig)
        # error_budget's totals and _information's terms
        e1 = (q1 * s1 + (1.0 - q1) * model.assign).tolist()
        e2 = (q2 * s2 + (1.0 - q2) * model.assign).tolist()
        h2 = np.array([binary_entropy(min(e, 1.0)) for e in e2])
        h1 = np.array([binary_entropy(min(e, 1.0)) for e in e1])
        i1, i2 = q2 * (1.0 - h2), q1 * h1
        e_ab += e1
        e_aba += e2
        i_ab += i1.tolist()
        i_be += i2.tolist()
        c_s += (i1 - i2).tolist()
    return SweepColumns(
        axis=grid, p1=p1s, delta_theta=dths, q_ab=q_ab, q_aba=q_aba, e_ab=e_ab, e_aba=e_aba,
        i_ab=i_ab, i_be=i_be, c_s=c_s, e_s=[practical_efficiency(c, efficiency) for c in c_s],
    )
