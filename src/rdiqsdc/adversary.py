"""Eavesdropper model: the detector-blinding attack and what it reveals.

Blinding drives the receiving detectors into linear mode so that forged
trigger pulses click deterministically: outcome g=0 when the forger's
basis is close to the measuring basis, g=1 when it is far. A slot is
attacked with probability p1 and the forged click reads g=0 with
probability p2, so the attacked first-round distribution converges to
(1-p1)*P1 + p1*p2. The photon engine in :mod:`rdiqsdc.protocol` realizes
the attack event by event; this module holds its parameters, the
predicted distribution, the probability that the first check aborts, and
the information the eavesdropper gains per intercepted bit.

The abort probability is a pair of binomial tails, summed with the
standard library alone: the term at each tail's edge from a 40-digit
Stirling series in :mod:`decimal`, the rest by the exact term ratio in
integers. scipy's binomial is a test oracle only.
"""
from __future__ import annotations

import decimal
import math
from dataclasses import dataclass
from decimal import Decimal
from typing import Optional

from .domains import COUNT, NON_NEGATIVE, UNIT


@dataclass(frozen=True)
class BlindingAttackParams:
    """p1: per-slot attack probability; p2: forced-click closeness probability."""

    p1: float
    p2: float

    def __post_init__(self) -> None:
        UNIT.check("p1", self.p1)
        UNIT.check("p2", self.p2)


@dataclass(frozen=True)
class AttackOutcomeStats:
    """Attack-run summary: predicted vs observed first-round distribution
    and the per-intercepted-bit information the eavesdropper gained, the
    last two None when no message photon was intercepted."""

    predicted_p_g0: float
    empirical_p_g0: float
    eve_correct_fraction: Optional[float]
    eve_info_per_bit: Optional[float]

    def __post_init__(self) -> None:
        UNIT.check("predicted_p_g0", self.predicted_p_g0)
        UNIT.check("empirical_p_g0", self.empirical_p_g0)


def predict_attacked_distribution(p1_target: float, params: BlindingAttackParams) -> float:
    """First-round P(g=0) the event-level attack converges to."""
    UNIT.check("p1_target", p1_target)
    return (1.0 - params.p1) * p1_target + params.p1 * params.p2


# the abort probability's arithmetic: 40 digits carry ln n! (7 integer
# digits at n = 1e5) with room to spare
_CONTEXT = decimal.Context(prec=40)
_HALF_LN_2PI = _CONTEXT.divide(_CONTEXT.ln(Decimal("6.283185307179586476925286766559005768394")), 2)
# Stirling's series: ln n! = (n + 1/2) ln n - n + ln(2 pi)/2 + sum_j c_j / n^(2j+1),
# cut after c_4; the first term left out is below 2e-25 at n >= 100
_STIRLING = [_CONTEXT.divide(c, d) for c, d in ((1, 12), (-1, 360), (1, 1260), (-1, 1680), (1, 1188))]


def _ln_factorial(n: int) -> Decimal:
    if n < 100:
        return Decimal(math.factorial(n)).ln()
    x = Decimal(n)
    return ((x + Decimal("0.5")) * x.ln() - x + _HALF_LN_2PI
            + sum(c / x ** (2 * j + 1) for j, c in enumerate(_STIRLING)))


def _pmf_sum(m: int, a: int, d: int, ks: range) -> Decimal:
    """Sum of P(K = k), K ~ Bin(m, a/d), over ks, which runs away from the
    mode, so its terms never grow. Stops once a term falls below 2^-80 of
    the running sum. Runs under _CONTEXT."""
    if not ks:
        return Decimal(0)
    k, b = ks[0], d - a
    q = Decimal(a) / d
    first = (_ln_factorial(m) - _ln_factorial(k) - _ln_factorial(m - k)
             + k * q.ln() + (m - k) * (1 - q).ln()).exp()
    # terms as integers in units of 10^scale, the first about 10^30; the
    # floor of each ratio step costs under one unit
    scale = first.adjusted() - 30
    term = total = int(first.scaleb(-scale))
    for j in ks[1:]:
        # P(j)/P(k) = (m-k)/j * a/b going up, k/(m-j) * b/a going down
        term = term * (m - k) * a // (j * b) if j > k else term * k * b // ((m - j) * a)
        k = j
        total += term
        if term <= total >> 80:
            break
    return Decimal(total).scaleb(scale)


def detection_power(
    p1_target: float,
    params: BlindingAttackParams,
    m: int,
    tolerance: float,
) -> float:
    """Probability that the first checking round aborts under attack.

    The observed g=0 count K is binomial, Bin(m, q), with q the attacked
    success probability; the check passes iff K/m stays within tolerance
    of the theoretical target, so it aborts with P(K < lo) + P(K > hi).
    Each tail is summed from the window's edge outward. When the window
    lies wholly on one side of the mode, the tails hold nearly all the
    mass, and the window is summed instead, from its edge nearest the
    mode. The result is within about 2^-70, relative, of the exact value,
    so it is the double nearest to it but for rare near-ties.
    """
    COUNT.check("m", m)
    NON_NEGATIVE.check("tolerance", tolerance)
    q = predict_attacked_distribution(p1_target, params)
    lo_k = math.ceil(m * (p1_target - tolerance) - 1e-12)
    hi_k = math.floor(m * (p1_target + tolerance) + 1e-12)
    lo_k = max(lo_k, 0)
    hi_k = min(hi_k, m)
    if lo_k > hi_k:
        return 1.0
    if q in (0.0, 1.0):  # K = m*q for certain
        return float(not lo_k <= m * q <= hi_k)
    a, d = q.as_integer_ratio()  # q = a/d exactly
    mode = (m + 1) * a // d
    with decimal.localcontext(_CONTEXT):
        if hi_k < mode:
            return float(1 - _pmf_sum(m, a, d, range(hi_k, lo_k - 1, -1)))
        if lo_k > mode:
            return float(1 - _pmf_sum(m, a, d, range(lo_k, hi_k + 1)))
        return float(_pmf_sum(m, a, d, range(lo_k - 1, -1, -1))
                     + _pmf_sum(m, a, d, range(hi_k + 1, m + 1)))


def eve_information(correct_fraction: float) -> float:
    """Bits learned per intercepted message bit for a given guess accuracy."""
    UNIT.check("correct_fraction", correct_fraction)
    p = correct_fraction
    if p in (0.0, 1.0):
        return 1.0
    return 1.0 + p * math.log2(p) + (1.0 - p) * math.log2(1.0 - p)
