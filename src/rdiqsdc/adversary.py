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
"""
from __future__ import annotations

import math
from dataclasses import dataclass
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
    and the per-intercepted-bit information the eavesdropper gained."""

    predicted_p_g0: float
    empirical_p_g0: float
    eve_correct_fraction: float
    eve_info_per_bit: float

    def __post_init__(self) -> None:
        UNIT.check("predicted_p_g0", self.predicted_p_g0)
        UNIT.check("empirical_p_g0", self.empirical_p_g0)


def predict_attacked_distribution(p1_target: float, params: BlindingAttackParams) -> float:
    """First-round P(g=0) the event-level attack converges to."""
    UNIT.check("p1_target", p1_target)
    return (1.0 - params.p1) * p1_target + params.p1 * params.p2


def detection_power(
    p1_target: float,
    params: BlindingAttackParams,
    m: int,
    tolerance: float,
) -> float:
    """Probability that the first checking round aborts under attack.

    The observed g=0 count is binomial with the attacked success
    probability; the check passes iff the observed frequency stays within
    tolerance of the theoretical target.
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
    # imported here: scipy.stats takes about a second to import, which every
    # CLI call would pay otherwise
    from scipy.stats import binom

    pass_prob = binom.cdf(hi_k, m, q) - (binom.cdf(lo_k - 1, m, q) if lo_k > 0 else 0.0)
    return float(min(max(1.0 - pass_prob, 0.0), 1.0))


def eve_information(correct_fraction: float) -> float:
    """Bits learned per intercepted message bit for a given guess accuracy."""
    UNIT.check("correct_fraction", correct_fraction)
    p = correct_fraction
    if p in (0.0, 1.0):
        return 1.0
    return 1.0 + p * math.log2(p) + (1.0 - p) * math.log2(1.0 - p)


def attack_stats(
    p1_target: float,
    params: Optional[BlindingAttackParams],
    empirical_p_g0: float,
    eve_correct_fraction: float,
) -> AttackOutcomeStats:
    predicted = (
        predict_attacked_distribution(p1_target, params) if params else p1_target
    )
    return AttackOutcomeStats(
        predicted_p_g0=predicted,
        empirical_p_g0=empirical_p_g0,
        eve_correct_fraction=eve_correct_fraction,
        eve_info_per_bit=eve_information(eve_correct_fraction),
    )
