"""Physical-device models shared by the photon engine and the closed forms.

`LinkBudget` holds the per-trip efficiencies (fiber, coupling, memory,
detector) and the one-way and round-trip gains they imply;
`ChannelNoiseModel` draws the per-trip amplitude-angle rotation; `LossSite`
names where a photon dropped out. The engine in :mod:`rdiqsdc.protocol`
applies them vectorized over whole photon sequences.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .domains import NON_NEGATIVE, UNIT


class LossSite(enum.Enum):
    """Where a photon dropped out, or NONE if it reached a detector click.

    Sites are mutually exclusive; FIBER/COUPLING/MEMORY also record the leg
    they occurred on (1 = outbound, 2 = return) in the transcript.
    """

    NONE = "none"
    FIBER = "fiber"
    COUPLING = "coupling"
    MEMORY = "memory"
    DETECTOR = "detector"


@dataclass(frozen=True)
class LinkBudget:
    """Per-trip efficiencies and the detection gains they imply.

    eta_t follows the usual fiber attenuation law 10^(-alpha*L/10);
    the one-way gain is eta_t*eta_c*eta_m*eta_d and the round-trip gain
    eta_t^2*eta_c^2*eta_m^2*eta_d (two fiber legs, two storage episodes,
    one detector).
    """

    distance_km: float = 0.0
    alpha_db_per_km: float = 0.2
    eta_c: float = 1.0
    eta_m: float = 1.0
    eta_d: float = 1.0

    def __post_init__(self) -> None:
        NON_NEGATIVE.check("distance_km", self.distance_km)
        NON_NEGATIVE.check("alpha_db_per_km", self.alpha_db_per_km)
        UNIT.check("eta_c", self.eta_c)
        UNIT.check("eta_m", self.eta_m)
        UNIT.check("eta_d", self.eta_d)

    @property
    def eta_t(self) -> float:
        return 10.0 ** (-self.alpha_db_per_km * self.distance_km / 10.0)

    @property
    def q_ab(self) -> float:
        """One-way detection gain."""
        return self.eta_t * self.eta_c * self.eta_m * self.eta_d

    @property
    def q_aba(self) -> float:
        """Round-trip detection gain."""
        return self.eta_t**2 * self.eta_c**2 * self.eta_m**2 * self.eta_d


@dataclass(frozen=True)
class ChannelNoiseModel:
    """Per-trip amplitude-angle rotation.

    At spread 0 every photon takes delta_theta on each trip and nothing is
    drawn. At spread > 0 each photon's rotation per trip is drawn uniformly
    from [delta_theta - spread, delta_theta + spread] (robustness studies
    only); `draw` serves that case. A photon's rotation over both legs is
    bounded by 2 * (|delta_theta| + spread), which must be a finite number.
    """

    delta_theta: float = 0.0
    spread: float = 0.0

    def __post_init__(self) -> None:
        NON_NEGATIVE.check("spread", self.spread)
        if not math.isfinite(2.0 * (abs(self.delta_theta) + self.spread)):
            raise ValueError(
                "two-leg rotation bound 2*(|delta_theta| + spread) is not finite: "
                f"delta_theta={self.delta_theta}, spread={self.spread}"
            )

    def draw(self, size: int, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(self.delta_theta - self.spread, self.delta_theta + self.spread, size)
