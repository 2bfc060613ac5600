"""Exact single-photon state algebra.

States live on the one-qubit family cos(t)|0> + e^{i phi} sin(t)|1>.
Preparation picks phi from one of n equally spaced phase settings,
encoding is the identity or a phase flip, channel noise advances the
amplitude angle t, and measurement projects onto a basis state of the
same family with a binary outcome g (0 = projected onto the basis
state, 1 = its complement).

Everything here is pure double-precision complex arithmetic; this module
doubles as the brute-force oracle for the closed-form expressions in
:mod:`rdiqsdc.analysis`. `born_p` is the one vectorized Born rule of the
photon engine; the scalar functions are its test oracle.
"""
from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

import numpy as np

from .domains import ANGLE, SETTINGS

NORM_TOL = 1e-12  # normalization / algebraic identities


class EncodeOp(enum.Enum):
    """Bit-encoding unitaries: U0 is the identity, U1 the phase flip."""

    U0 = 0
    U1 = 1


@dataclass(frozen=True)
class BasisConfig:
    """Number of phase settings n and amplitude angle theta.

    n = 2 offers a single usable basis and n = 4 pins the first-round
    outcome distribution at 0.5, which defeats the blinding-attack check,
    so both are rejected.
    """

    n: int
    theta: float = math.pi / 4

    def __post_init__(self) -> None:
        SETTINGS.check("n", self.n)
        ANGLE.check("theta", self.theta)

    def phase(self, x: int) -> float:
        """Phase angle 2*pi*x/n of setting x."""
        return 2.0 * math.pi * x / self.n


@dataclass(frozen=True)
class PureState:
    """Normalized two-component amplitude vector (amp0 on |0>, amp1 on |1>)."""

    amp0: complex
    amp1: complex

    def __post_init__(self) -> None:
        norm = abs(self.amp0) ** 2 + abs(self.amp1) ** 2
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"state not normalized: |amp|^2 = {norm}")

    def norm_sq(self) -> float:
        return abs(self.amp0) ** 2 + abs(self.amp1) ** 2

    def canonical(self) -> "PureState":
        """Global-phase-free representative: amp0 real and non-negative.

        If amp0 vanishes the residual phase is moved off amp1 instead.
        """
        a0, a1 = complex(self.amp0), complex(self.amp1)
        ref = a0 if abs(a0) > NORM_TOL else a1
        phase = ref / abs(ref)
        return PureState(a0 / phase, a1 / phase)


@dataclass(frozen=True)
class ChannelRotation:
    """Amplitude-angle advance by delta_theta with the relative phase kept."""

    delta_theta: float


@dataclass(frozen=True)
class Measurement:
    """Projective measurement onto the basis state with index basis_index."""

    basis_index: int
    config: BasisConfig

    def __post_init__(self) -> None:
        if not 1 <= self.basis_index <= self.config.n:
            raise ValueError(
                f"basis_index must lie in [1, {self.config.n}], got {self.basis_index}"
            )

    def basis_state(self) -> PureState:
        return prepare(self.basis_index, self.config)


def prepare(x: int, config: BasisConfig) -> PureState:
    """State for setting x: cos(theta)|0> + e^{i 2 pi x / n} sin(theta)|1>."""
    if not 1 <= x <= config.n:
        raise ValueError(f"x must lie in [1, {config.n}], got {x}")
    return PureState(
        complex(math.cos(config.theta)),
        cmath.exp(1j * config.phase(x)) * math.sin(config.theta),
    )


def apply_encode(state: PureState, op: EncodeOp) -> PureState:
    if op is EncodeOp.U0:
        return state
    return PureState(state.amp0, -state.amp1)


def apply_rotation(state: PureState, rot: ChannelRotation) -> PureState:
    """Advance the amplitude angle by rot.delta_theta, phase unchanged.

    The state is first brought to canonical form; the recovered angle is
    arccos(|amp0|) in [0, pi/2], so chained rotations compose additively
    only while the accumulated angle stays inside that principal branch.
    """
    canon = state.canonical()
    t = math.atan2(abs(canon.amp1), canon.amp0.real)
    phi = cmath.phase(canon.amp1) if abs(canon.amp1) > NORM_TOL else 0.0
    t2 = t + rot.delta_theta
    return PureState(complex(math.cos(t2)), cmath.exp(1j * phi) * math.sin(t2))


def inner_product(a: PureState, b: PureState) -> complex:
    """<a|b>."""
    return a.amp0.conjugate() * b.amp0 + a.amp1.conjugate() * b.amp1


def outcome_probability(state: PureState, m: Measurement) -> float:
    """Born probability of outcome g = 0, i.e. |<basis|state>|^2."""
    p = abs(inner_product(m.basis_state(), state)) ** 2
    # Guard against representation round-off at the interval edges.
    return min(max(p, 0.0), 1.0)


def born_p(theta: float, angles: float | np.ndarray, phases: np.ndarray,
           index: np.ndarray) -> np.ndarray:
    """Vectorized outcome_probability for the photon engine.

    P(g=0) of photon k when the state at amplitude angle t = angles[k] is
    measured in the basis at amplitude angle theta whose phase trails the
    state's by phi = phases[index[k]]:
    |cos(theta)cos(t) + e^{i phi} sin(theta)sin(t)|^2. The relative phase
    takes few distinct values, so e^{i phi} sin(theta) is evaluated once per
    entry of `phases` and gathered per photon. A scalar `angles` is the one
    angle of every photon: P(g=0) is then evaluated once per entry of
    `phases`, over an array holding that angle, and gathered per photon.
    """
    if np.ndim(angles) == 0:
        table = born_p(theta, np.full(len(phases), angles), phases, np.arange(len(phases)))
        return table[index]
    rotor = (np.exp(1j * phases) * math.sin(theta))[index]
    inner = math.cos(theta) * np.cos(angles) + rotor * np.sin(angles)
    return np.clip(np.abs(inner) ** 2, 0.0, 1.0)


def state_fidelity(a: PureState, b: PureState) -> float:
    """|<a|b>|^2: 1 iff equal up to global phase, 0 iff orthogonal."""
    f = abs(inner_product(a, b)) ** 2
    return min(max(f, 0.0), 1.0)


def states_close(a: PureState, b: PureState, tol: float = NORM_TOL) -> bool:
    """Equality up to global phase, compared on canonical representatives."""
    ca, cb = a.canonical(), b.canonical()
    return abs(ca.amp0 - cb.amp0) <= tol and abs(ca.amp1 - cb.amp1) <= tol
