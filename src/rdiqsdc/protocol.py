"""Six-step single-photon direct-communication protocol.

Alice prepares 3r phase-encoded photons split into two checking sequences
(S1, S2) and a message sequence (S3), sends them to Bob, who stores,
checks round one, encodes the message, shuffles S2/S3 into the return
stream, and sends everything back; Alice checks round two and decodes.
Both checking rounds compare the theoretical outcome distribution on the
announced basis pairs against the observed one; no-click slots are
assigned the more likely ideal outcome, so loss itself shifts the
observed distribution.

The engine is vectorized over photons (columnar numpy state) and draws
every stochastic input from a named stream derived from the run seed, so
a transcript is reproducible bit-for-bit and an attack with p1=0 leaves
the physics draws untouched. Each per-photon stage runs over fixed-size
blocks of its photons, each block drawing from its streams at its own
start position, so the blocks may run on a thread pool in any order with
the same result.
"""
from __future__ import annotations

import contextlib
import enum
import functools
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import seeding
from .adversary import AttackOutcomeStats, BlindingAttackParams, attack_stats
from .devices import ChannelNoiseModel, LinkBudget, LossSite
from .domains import COUNT, NON_NEGATIVE, OPEN_UNIT, SEED, UNIT
from .qstate import BasisConfig, born_p


class ProtocolViolation(ValueError):
    """Raised when announced data is inconsistent with the protocol state."""


@dataclass(frozen=True)
class OffsetDistribution:
    """Distribution of the basis offset (prep index - measured index) mod n."""

    n: int
    deltas: tuple[int, ...]
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.deltas) != len(self.weights) or abs(math.fsum(self.weights) - 1.0) > 1e-9:
            raise ValueError("offset weights must pair with the deltas and sum to 1")

    def draw(self, size: int, rng: np.random.Generator) -> np.ndarray:
        idx = rng.choice(len(self.deltas), size=size, p=self.weights)
        return np.asarray(self.deltas, dtype=np.int64)[idx]

    @classmethod
    def of(cls, config: BasisConfig, p1_target: Optional[float]) -> "OffsetDistribution":
        """The offsets the checking rounds draw against the first-round
        P(g=0) target `p1_target`.

        None draws them uniformly (expected first-round P(g=0) = 0.5 for
        every n at theta = pi/4); a target mixes the two offsets whose ideal
        outcome probabilities bracket it, hitting it exactly in expectation,
        or takes the one offset that realizes it alone.
        """
        n = config.n
        if p1_target is None:
            return cls(n=n, deltas=tuple(range(n)), weights=(1.0 / n,) * n)
        ideal = _ideal_p(config.theta, 2.0 * math.pi * np.arange(n) / n)
        probs = [(float(p), d) for d, p in enumerate(ideal)]
        lo = max(((p, d) for p, d in probs if p <= p1_target + 1e-12), default=None)
        hi = min(((p, d) for p, d in probs if p >= p1_target - 1e-12), default=None)
        if lo is None or hi is None:
            raise ValueError(
                f"target {p1_target} is outside the reachable range "
                f"[{min(ideal):.6g}, {max(ideal):.6g}] for n={n} at theta={config.theta:.6g}"
            )
        if abs(hi[0] - lo[0]) <= 1e-12:
            return cls(n=n, deltas=(lo[1],), weights=(1.0,))
        w_hi = (p1_target - lo[0]) / (hi[0] - lo[0])
        return cls(n=n, deltas=(lo[1], hi[1]), weights=(1.0 - w_hi, w_hi))


def _ideal_p(theta: float, phases: np.ndarray) -> np.ndarray:
    """Noise-free P(g=0) for each of the basis phase offsets `phases`."""
    return born_p(theta, theta, phases, np.arange(len(phases)))


def _offset_phases(n: int) -> np.ndarray:
    """Relative phases 2*pi*k/n of a preparation and a measurement index,
    k = x - y in 1-n .. n-1; k has its phase at entry k + n - 1."""
    return 2.0 * math.pi * np.arange(1 - n, n) / n


# relative phase of the decoding measurement, indexed by the message bit
_MESSAGE_PHASES = math.pi * np.arange(2.0)


def hoeffding_tolerance(m: int, epsilon: float = 1e-6) -> float:
    """Two-sided deviation bound exceeded with probability <= epsilon."""
    COUNT.check("m", m)
    OPEN_UNIT.check("epsilon", epsilon)
    tol = math.sqrt(math.log(2.0 / epsilon) / (2.0 * m))
    if not math.isfinite(tol):  # 2/epsilon overflows; an infinite tolerance passes every check
        raise ValueError(f"epsilon={epsilon} is too small for a finite tolerance")
    return tol


class Round2Mode(enum.Enum):
    # measurement bases drawn at the P1 target's offsets against the
    # arriving photon's preparation index, so both rounds target the same P(g=0)
    POLICY = "policy"
    # receiver reuses her original basis order against the shuffled stream
    ORIGINAL_ORDER = "original-order"


@dataclass(frozen=True)
class ProtocolParams:
    r: int
    config: BasisConfig
    p1_target: Optional[float]  # None -> uniform basis offsets
    link: LinkBudget = LinkBudget()
    noise: ChannelNoiseModel = ChannelNoiseModel()
    adversary: Optional[BlindingAttackParams] = None
    tolerance: Optional[float] = None  # None -> Hoeffding bound at epsilon
    epsilon: float = 1e-6
    round2_mode: Round2Mode = Round2Mode.POLICY
    continue_on_abort: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        COUNT.check("r", self.r)
        if self.p1_target is not None:
            UNIT.check("p1_target", self.p1_target)
        if self.tolerance is not None:
            NON_NEGATIVE.check("tolerance", self.tolerance)
        SEED.check("seed", self.seed)

    def check_tolerance(self) -> float:
        if self.tolerance is not None:
            return self.tolerance
        return hoeffding_tolerance(self.r, self.epsilon)


@dataclass(frozen=True)
class SecurityCheckReport:
    round_index: int
    m: int
    theoretical_p_g0: float
    empirical_p_g0: float
    tolerance: float
    n_clicked: int
    n_clicked_g0: int
    n_assigned_g0: int

    @property
    def deviation(self) -> float:
        return abs(self.empirical_p_g0 - self.theoretical_p_g0)

    @property
    def passed(self) -> bool:
        return self.deviation <= self.tolerance


@dataclass(frozen=True)
class Announcements:
    """Everything disclosed over the public channel, and nothing else."""

    s1_positions: np.ndarray
    y1: np.ndarray
    round1_clicked: np.ndarray
    round1_g: np.ndarray            # -1 for no-click
    s2p_slots: np.ndarray           # return-stream slots holding check photons
    s2_original_positions: np.ndarray
    s3p_slots: np.ndarray
    s3_original_positions: np.ndarray
    round2_clicked: Optional[np.ndarray] = None
    round2_g: Optional[np.ndarray] = None


@dataclass(frozen=True)
class MessageFrame:
    payload: np.ndarray
    decoded: np.ndarray  # -1 where the carrier photon was lost

    def __post_init__(self) -> None:
        if self.payload.shape != self.decoded.shape:
            raise ValueError("payload and decoded lengths differ")

    @functools.cached_property
    def n_lost(self) -> int:
        return int(np.sum(self.decoded < 0))

    @functools.cached_property
    def n_flipped(self) -> int:
        ok = self.decoded >= 0
        return int(np.sum(self.decoded[ok] != self.payload[ok]))

    @functools.cached_property
    def n_ok(self) -> int:
        return len(self.payload) - self.n_lost - self.n_flipped


@dataclass(frozen=True)
class EstStat:
    """Point estimate with its standard error."""

    value: float
    stderr: float


def _est(values: np.ndarray) -> EstStat:
    """Mean and standard error of a float64 column, as float(np.mean(v)) and
    float(np.std(v) / sqrt(n)) give them to the bit. The column is consumed:
    the steps of np.mean and np.std run on it in place, so np.std's
    deviations take no second column."""
    n = len(values)
    if n == 0:
        return EstStat(0.0, 0.0)
    mean = np.add.reduce(values, keepdims=True)
    np.true_divide(mean, n, out=mean)
    if n == 1:
        return EstStat(float(mean[0]), 0.0)
    np.subtract(values, mean, out=values)
    np.multiply(values, values, out=values)
    std = np.sqrt(np.add.reduce(values) / n)
    return EstStat(float(mean[0]), float(std / math.sqrt(n)))


def _rate(count: int, n: int) -> EstStat:
    """`_est` of n values, `count` of them 1 and the rest 0. A sum of 0/1
    values is exact in any order, so the mean is count / n to the bit; the
    standard error is sqrt(m(1 - m))/sqrt(n), numpy's np.std up to rounding."""
    if n == 0:
        return EstStat(0.0, 0.0)
    m = count / n
    return EstStat(m, math.sqrt(m * (1.0 - m)) / math.sqrt(n) if n > 1 else 0.0)


@dataclass(frozen=True)
class TranscriptStats:
    """Event-count statistics in the same terms as the closed-form model."""

    q_ab: EstStat
    q_aba: EstStat
    q_aba_decode: EstStat
    p1_observed: EstStat           # clicked-or-assigned g=0 frequency
    p2_observed: EstStat
    p1_clicked: EstStat            # g=0 frequency among clicks only
    p2_clicked: EstStat
    e_ab_signed: EstStat           # gain-weighted theoretical-minus-observed shift
    e_ab_assign: EstStat
    e_aba_signed: EstStat
    e_aba_assign: EstStat
    loss_counts: dict

    @property
    def e_ab_total(self) -> float:
        return abs(self.e_ab_signed.value) + self.e_ab_assign.value

    @property
    def e_aba_total(self) -> float:
        return abs(self.e_aba_signed.value) + self.e_aba_assign.value


@dataclass
class SequenceLedger:
    """Index bookkeeping: preparation settings, sequence membership and the
    return-stream shuffle. `order` is the drawn partition of the 3r
    positions: S1, S2 and S3 are its consecutive thirds, and S2 then S3
    (`order[r:]`) is the stream that `return_perm` shuffles."""

    r: int
    prep: np.ndarray
    order: np.ndarray
    return_perm: Optional[np.ndarray] = None  # return slot -> index into order[r:]

    @property
    def s1_pos(self) -> np.ndarray:
        return self.order[:self.r]

    @property
    def s2_pos(self) -> np.ndarray:
        return self.order[self.r:2 * self.r]

    @property
    def s3_pos(self) -> np.ndarray:
        return self.order[2 * self.r:]

    # The slot properties read `return_perm`, which step 4 sets once. Each is
    # computed at every read, in the permutation's dtype, and not cached, so
    # it lives only as long as its reader keeps it.
    @property
    def s2p_slots(self) -> np.ndarray:
        return np.flatnonzero(self.return_perm < self.r).astype(self.return_perm.dtype)

    @property
    def s3p_slots(self) -> np.ndarray:
        return np.flatnonzero(self.return_perm >= self.r).astype(self.return_perm.dtype)

    @property
    def s2_order(self) -> np.ndarray:
        """Original S2 index of each announced check slot."""
        return self.return_perm[self.s2p_slots]

    @property
    def s3_order(self) -> np.ndarray:
        return self.return_perm[self.s3p_slots] - self.r


@dataclass
class TranscriptColumns:
    """Per-photon record of the whole run, columnar."""

    sequence: np.ndarray       # 1, 2, 3
    prep: np.ndarray
    secret_flip: np.ndarray
    message_bit: np.ndarray    # -1 outside S3
    basis: np.ndarray          # measurement index used, -1 if none
    rotation: np.ndarray
    loss_site: np.ndarray      # LossSite codes
    loss_leg: np.ndarray
    clicked: np.ndarray
    g: np.ndarray              # -1 when no click
    assigned_g: np.ndarray     # -1 when not assigned
    attacked: np.ndarray

    def __len__(self) -> int:
        return len(self.prep)


_SITE_CODE = {site: code for code, site in enumerate(LossSite)}
_SITE_NAME = {v: k.value for k, v in _SITE_CODE.items()}


@dataclass
class ProtocolResult:
    """Outcome of a finished run. The per-photon `photons` columns and the
    `announcements` are built from the run the first time they are read and
    cached, so a run whose transcript is not written never allocates them."""

    params: ProtocolParams
    ledger: SequenceLedger
    check1: SecurityCheckReport
    check2: Optional[SecurityCheckReport]
    frame: Optional[MessageFrame]
    aborted_at_step: Optional[int]
    stats: Optional[TranscriptStats]
    attack: Optional[AttackOutcomeStats]
    run: "ProtocolRun" = field(repr=False, compare=False)

    @functools.cached_property
    def photons(self) -> TranscriptColumns:
        return self.run._columns()

    @functools.cached_property
    def announcements(self) -> Announcements:
        return self.run._announcements()

    @property
    def completed(self) -> bool:
        return self.aborted_at_step is None


# Photons per block of a per-photon stage. Each block makes the streams it
# reads from the run seed and their purposes, advanced to the block's own
# start position (seeding.positioned), so the size changes how the work is
# split, never a drawn value.
_ENGINE_BLOCK = 1 << 16


def _prep_type(n: int) -> np.dtype:
    """Narrowest signed integer type holding the preparation indices 1..n."""
    return np.min_scalar_type(-n - 1)


def _shuffled(rng: np.random.Generator, index: np.ndarray) -> np.ndarray:
    """`index` shuffled in place: for index = arange(m) of any integer dtype
    this is the permutation rng.permutation(m) draws."""
    rng.shuffle(index)
    return index


def _lossy(eta: float) -> bool:
    """Whether a stage of efficiency eta draws a survival or click per
    photon. A draw u in [0, 1) always passes u < 1, so a stage at exactly
    1 loses nothing and draws nothing."""
    return eta != 1.0


def _loss_stages(leg: int, link: LinkBudget) -> tuple[tuple[str, float, LossSite], ...]:
    """(stream, efficiency, site) of each lossy stage of one trip."""
    way, store = ("ab", "bob") if leg == 1 else ("ba", "alice")
    stages = ((f"loss-fiber-{way}", link.eta_t, LossSite.FIBER),
              (f"loss-coupling-{way}", link.eta_c, LossSite.COUPLING),
              (f"loss-memory-{store}", link.eta_m, LossSite.MEMORY))
    return tuple(stage for stage in stages if _lossy(stage[1]))


def _at(rotation, index):
    """rotation[index], or `rotation` itself where it is one float for every
    photon of its trip."""
    return rotation[index] if isinstance(rotation, np.ndarray) else rotation


def _outcome(u: np.ndarray, p) -> np.ndarray:
    """Outcome g per draw u: 0 where u < p, else 1 (also where p is NaN)."""
    return (~(u < p)).view(np.int8)


@dataclass
class _Trip:
    """Per-slot state of one trip, slots in the order the photons were sent:
    the channel rotation (one float at spread 0, else one per slot), whether
    the photon is alive in the receiving party's memory, the outcome a
    blinded slot is forced to click (None in a run without Eve) and, on the
    return trip, the photon each slot carries (on the outbound trip a
    photon's slot is its position)."""

    leg: int
    rotation: float | np.ndarray
    alive: np.ndarray
    forced: Optional[np.ndarray]
    pos: Optional[np.ndarray] = None


@dataclass
class _Measured:
    """Per-photon record of a checking round, in measurement order: the
    offset index k = x - y + n - 1 of preparation index x and measurement
    index y (its other facts are in `_offset_table`), click and outcome."""

    k: np.ndarray
    clicked: np.ndarray
    g: np.ndarray


class ProtocolRun:
    """One protocol execution; call the step methods in order or use run()."""

    def __init__(self, params: ProtocolParams, message: Optional[Sequence[int]] = None):
        self.params = params
        self.r = params.r
        self.n = params.config.n
        self.theta = params.config.theta
        self._pool: Optional[ThreadPoolExecutor] = None
        # both checking rounds draw these offsets; an unreachable P1 target
        # fails here, before step 1
        self._offsets = OffsetDistribution.of(params.config, params.p1_target)
        self.ledger: Optional[SequenceLedger] = None
        self._message_in = message
        self._stage = 0
        # per-photon state: a _Trip per trip, a _Measured per checking round
        self.trip1 = self.trip2 = self.round1 = self.round2 = None
        self.check2: Optional[SecurityCheckReport] = None
        self.frame: Optional[MessageFrame] = None

    def _require_stage(self, stage: int) -> None:
        if self._stage != stage:
            raise ProtocolViolation(
                f"protocol step out of order: at stage {self._stage}, need {stage}"
            )

    # -- block scheduling ---------------------------------------------------------
    def _submit(self, fn, make_args):
        """A callable returning fn(*make_args()). The arguments are made on
        this thread. With a pool they are made now and fn starts there now;
        without one both happen at the first call and the result is kept for
        later calls, so a value no step reads is never computed."""
        if self._pool is not None:
            return self._pool.submit(fn, *make_args()).result
        return functools.cache(lambda: fn(*make_args()))

    def _blocks(self, size: int, kernel) -> list:
        """kernel(a, b, rng) for each block [a, b) of range(size), in order of a.

        rng(purpose) builds the run seed's stream for `purpose` on the thread
        running the block, positioned at value a, so a block draws what the
        whole draw would hold at [a, b). Kernels write disjoint parts of
        arrays this thread allocated, and cast the block's stored int32
        positions to intp once before indexing with them. The blocks run on
        the pool if run() has one. Returns the kernels' results.
        """
        seed = self.params.seed

        def block(a: int):
            return kernel(a, min(a + _ENGINE_BLOCK, size),
                          lambda purpose: seeding.positioned(seed, purpose, a))

        starts = range(0, size, _ENGINE_BLOCK)
        if self._pool is None:
            return [block(a) for a in starts]
        return list(self._pool.map(block, starts))

    # -- kernels shared by the steps, applied to one block of photons -------------
    def _trip_rotation(self, size: int):
        """Rotation column of a trip of `size` slots. At spread 0 every photon
        takes delta_theta, and the column is that one float; otherwise it is
        an array that the trip's blocks fill with each photon's draw."""
        noise = self.params.noise
        return float(noise.delta_theta) if noise.spread == 0.0 else np.empty(size)

    def _open_trip(self, leg: int, size: int) -> _Trip:
        """Record of a trip of `size` slots, for its blocks to fill."""
        forced = np.empty(size, dtype=np.int8) if self.params.adversary is not None else None
        return _Trip(leg, self._trip_rotation(size), np.empty(size, dtype=bool), forced)

    def _trip(self, rng, trip: _Trip, a: int, pos: np.ndarray, alive: np.ndarray) -> None:
        """One trip over fiber and coupling into the receiving party's memory,
        for the trip's slots [a, a + len(pos)) carrying the photons `pos`.

        Draws each slot's channel rotation when the trip holds one per slot,
        one survival draw per lossy stage for every slot (a live photon is
        charged to the first stage it fails) and, with Eve, the outcome each
        slot is forced to click. Records which photons are alive after storage.
        """
        link, size = self.params.link, len(pos)
        if isinstance(trip.rotation, np.ndarray):
            noise = "noise-ab" if trip.leg == 1 else "noise-ba"
            trip.rotation[a:a + size] = self.params.noise.draw(size, rng(noise))
        for purpose, eta, site in _loss_stages(trip.leg, link):
            survived = rng(purpose).random(size) < eta
            lost = pos[alive & ~survived]
            self.site[lost] = _SITE_CODE[site]
            self.leg[lost] = trip.leg
            alive = alive & survived
        trip.alive[a:a + size] = alive
        if trip.forced is not None:
            u = rng(f"adv-close-{trip.leg}").random(size)
            trip.forced[a:a + size] = _outcome(u, self.params.adversary.p2)

    def _arrival(self, leg: int, slots: np.ndarray):
        """(photons, angle theta plus their rotation so far, alive, forced
        outcome or None) at the measured slots of trip `leg`: S1 positions
        on the outbound trip, return-stream slots on the return trip."""
        trip1 = self.trip1
        if leg == 1:
            trip, pos, rotation = trip1, slots, _at(trip1.rotation, slots)
        else:
            trip = self.trip2
            pos = trip.pos[slots].astype(np.intp)
            rotation = _at(trip1.rotation, pos) + _at(trip.rotation, slots)
        forced = trip.forced[slots] if trip.forced is not None else None
        return pos, self.theta + rotation, trip.alive[slots], forced

    def _detect(self, rng, purpose: str, pos: np.ndarray, alive: np.ndarray,
                p_g0: np.ndarray, forced: Optional[np.ndarray]):
        """Detector event at the photons `pos`; blinded slots click forced[i].
        `forced` is None in a run without Eve, where no slot is blinded. At
        a lossless detector every live photon clicks."""
        m, eta_d = len(pos), self.params.link.eta_d
        clicked = alive & (rng(f"{purpose}-click").random(m) < eta_d) if _lossy(eta_d) else alive
        g = _outcome(rng(f"{purpose}-born").random(m), p_g0)
        if forced is not None:
            att = self.attacked[pos]
            clicked = clicked | att
            g = np.where(att, forced, g)
            # a forged pulse always clicks
            self.site[pos[att]] = _SITE_CODE[LossSite.NONE]
            self.leg[pos[att]] = 0
        # no-click at the measuring detector
        self.site[pos[alive & ~clicked]] = _SITE_CODE[LossSite.DETECTOR]
        return clicked, g

    @functools.cached_property
    def _offset_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(phase, ideal P(g=0), a no-click's assigned outcome) per offset index k."""
        phases = _offset_phases(self.n)
        ideal = _ideal_p(self.theta, phases)
        return phases, ideal, (ideal <= 0.5).view(np.int8)

    def _bases(self, rec: _Measured, pos: np.ndarray) -> np.ndarray:
        """Measurement index y = x - k + n - 1 (int64) of each photon `pos` of `rec`."""
        return self.ledger.prep[pos].astype(np.int64) - rec.k + (self.n - 1)

    def _check_round(self, leg: int, slots: np.ndarray, bases: Optional[np.ndarray]
                     ) -> tuple[_Measured, SecurityCheckReport]:
        """Checking round on the photons arriving at `slots` of trip `leg`,
        measured in bases[i] at slot i, or, where `bases` is None, in an
        index drawn at the P1 target's offsets against the photon's
        preparation index. No-clicks are assigned the more likely ideal outcome.
        Returns the round's record and its report."""
        r, n, theta, prep = self.r, self.n, self.theta, self.ledger.prep
        phases, ideal, assign = self._offset_table
        rec = _Measured(k=np.empty(r, dtype=np.min_scalar_type(2 * n - 2)),
                        clicked=np.empty(r, dtype=bool), g=np.empty(r, dtype=np.int8))
        purpose = f"check{leg}"

        def kernel(a, b, rng):
            pos, angle, alive, forced = self._arrival(leg, slots[a:b].astype(np.intp))
            x = prep[pos]
            if bases is None:
                # measured index y = ((x - d - 1) mod n) + 1 at drawn offset d,
                # so k = x - y + n - 1 is d - 1 + n where x > d, else d - 1
                d = self._offsets.draw(b - a, rng(f"{purpose}-offsets"))
                k = d - 1 + n * (x > d)
            else:
                k = x - bases[a:b].astype(np.int64) + (n - 1)
            rec.k[a:b] = k
            p_noisy = born_p(theta, angle, phases, k)
            clicked, g = self._detect(rng, purpose, pos, alive, p_noisy, forced)
            rec.clicked[a:b], rec.g[a:b] = clicked, g
            return (int(np.count_nonzero(clicked)), int(np.count_nonzero(clicked & (g == 0))),
                    int(np.count_nonzero(~clicked & (assign[k] == 0))))

        counts = self._blocks(r, kernel)
        n_clicked, n_g0_clicked, n_assigned_g0 = map(sum, zip(*counts))
        return rec, SecurityCheckReport(
            round_index=leg, m=r, theoretical_p_g0=float(np.mean(ideal[rec.k])),
            empirical_p_g0=(n_g0_clicked + n_assigned_g0) / r,
            tolerance=self.params.check_tolerance(), n_clicked=n_clicked,
            n_clicked_g0=n_g0_clicked, n_assigned_g0=n_assigned_g0,
        )

    # -- step 1: preparation ------------------------------------------------
    def step1_prepare(self) -> SequenceLedger:
        self._require_stage(0)
        r, n, seed = self.r, self.n, self.params.seed
        # the partition and the return shuffle (read in step 4) are drawn on
        # the pool, if there is one, while this thread draws the integers;
        # without a pool each is drawn when it is read. A deferred draw holds
        # the seed, not the run, so a run that stops before step 4 is freed
        # without the cycle collector
        index_type = np.int32 if 3 * r <= np.iinfo(np.int32).max else np.int64
        partition = self._submit(_shuffled, lambda: (
            seeding.stream(seed, "partition"), np.arange(3 * r, dtype=index_type)))
        self._return_perm = self._submit(_shuffled, lambda: (
            seeding.stream(seed, "shuffle"), np.arange(2 * r, dtype=index_type)))
        # drawn as int64 (the stream's bounded-integer algorithm depends on
        # the dtype), stored in the narrowest signed type that holds 1..n
        prep = seeding.stream(seed, "prep").integers(1, n + 1, size=3 * r).astype(_prep_type(n))
        if self._message_in is None:
            self.payload = seeding.stream(seed, "message").integers(0, 2, size=r).astype(np.int8)
        else:
            self.payload = np.asarray(self._message_in, dtype=np.int8)
        if self.payload.shape != (r,):
            raise ProtocolViolation(f"message must hold exactly {r} bits")
        if not np.all((self.payload == 0) | (self.payload == 1)):
            raise ProtocolViolation("message bits must be 0 or 1")
        self.ledger = SequenceLedger(r=r, prep=prep, order=partition())
        self._stage = 1
        return self.ledger

    @functools.cached_property
    def secret_flip(self) -> np.ndarray:
        """Per-photon secret flip: a coin on each S3 photon. Only the
        transcript reads the coins, so they are drawn at the first read."""
        flip = np.zeros(3 * self.r, dtype=bool)
        coins = seeding.stream(self.params.seed, "secret").integers(0, 2, size=self.r)
        flip[self.ledger.s3_pos] = coins.astype(bool)
        return flip

    # -- step 2: outbound transmission and storage at the encoder ------------
    def step2_transmit_to_bob(self) -> None:
        self._require_stage(1)
        size, adv = 3 * self.r, self.params.adversary
        self.site = np.zeros(size, dtype=np.int8)
        self.leg = np.zeros(size, dtype=np.int8)
        self.attacked = np.zeros(size, dtype=bool)
        trip = self.trip1 = self._open_trip(1, size)

        def kernel(a, b, rng):
            self._trip(rng, trip, a, np.arange(a, b), np.ones(b - a, dtype=bool))
            if adv is not None:
                self.attacked[a:b] = rng("adv-attack").random(b - a) < adv.p1

        self._blocks(size, kernel)
        self._stage = 2

    # -- step 3: first checking round ----------------------------------------
    def step3_first_check(self) -> SecurityCheckReport:
        self._require_stage(2)
        self.round1, self.check1 = self._check_round(1, self.ledger.s1_pos, None)
        self._stage = 3
        return self.check1

    # -- step 4: encoding and shuffle -----------------------------------------
    def step4_encode_and_shuffle(self) -> None:
        self._require_stage(3)
        led = self.ledger
        led.return_perm = self._return_perm()
        self._stage = 4

    # -- step 5: return transmission and second checking round ----------------
    def step5_transmit_to_alice(self) -> None:
        self._require_stage(4)
        led, size = self.ledger, 2 * self.r
        returned = led.order[self.r:]
        trip = self.trip2 = self._open_trip(2, size)
        trip.pos = np.empty(size, dtype=returned.dtype)

        def kernel(a, b, rng):
            pos = returned[led.return_perm[a:b]].astype(np.intp)
            trip.pos[a:b] = pos
            self._trip(rng, trip, a, pos, self.trip1.alive[pos])

        self._blocks(size, kernel)
        self._stage = 5

    def step5_second_check(self) -> SecurityCheckReport:
        self._require_stage(5)
        led = self.ledger
        slots = led.s2p_slots
        if len(slots) != self.r:
            raise ProtocolViolation("announcement length mismatch in round 2")
        # original order: the receiver reuses her S2 preparation order
        # against the shuffled stream
        original = self.params.round2_mode is Round2Mode.ORIGINAL_ORDER
        bases = led.prep[led.s2_pos] if original else None
        self.round2, self.check2 = self._check_round(2, slots, bases)
        self._stage = 6
        return self.check2

    # -- step 6: decoding ------------------------------------------------------
    def step6_decode(self) -> MessageFrame:
        self._require_stage(6)
        r, theta, led = self.r, self.theta, self.ledger
        slots = led.s3p_slots
        order = led.return_perm[slots] - r  # led.s3_order: original S3 index per slot
        decoded = np.full(r, -1, dtype=np.int8)

        def kernel(a, b, rng):
            sl, idx = slots[a:b].astype(np.intp), order[a:b].astype(np.intp)
            pos, angle, alive, forced = self._arrival(2, sl)
            # measurement against the exact pre-send state: the secret flip
            # cancels, leaving only the message flip in the relative phase
            p_g0 = born_p(theta, angle, _MESSAGE_PHASES, self.payload[idx])
            clicked, g = self._detect(rng, "decode", pos, alive, p_g0, forced)
            decoded[idx] = np.where(clicked, g, -1)

        self._blocks(r, kernel)
        self.frame = MessageFrame(payload=self.payload.copy(), decoded=decoded)
        self._stage = 7
        return self.frame

    # -- assembly ---------------------------------------------------------------
    def _stats(self) -> TranscriptStats:
        r, check1, check2 = self.r, self.check1, self.check2
        ideal = self._offset_table[1]

        # the gain-weighted shift and the assignment cost of a checking photon
        def shift(clicked, p, g):
            return clicked * (p - (g == 0))

        def assign(clicked, p, g):
            return (1.0 - clicked) * np.minimum(p, 1.0 - p)

        def est(term, rec) -> EstStat:
            """_est of `term` over the checking photons of `rec`: the column is
            filled a block at a time and reduced whole, so one column at a
            time is alive."""
            column = np.empty(r)

            def fill(a, b, rng):
                clicked, p = rec.clicked[a:b].astype(np.float64), ideal[rec.k[a:b]]
                column[a:b] = term(clicked, p, rec.g[a:b])

            self._blocks(r, fill)
            return _est(column)

        def sites(a, b, rng):
            # one bin per (site, leg); the none and detector sites carry no leg
            return np.bincount(3 * self.site[a:b] + self.leg[a:b],
                               minlength=3 * len(_SITE_CODE))

        tally = sum(self._blocks(3 * r, sites))
        counts = {}
        for idx in np.flatnonzero(tally):
            code, leg = divmod(int(idx), 3)
            name = _SITE_NAME[code]
            counts[name if leg == 0 else f"{name}-leg{leg}"] = int(tally[idx])

        return TranscriptStats(
            q_ab=_rate(check1.n_clicked, r),
            q_aba=_rate(check2.n_clicked, r),
            q_aba_decode=_rate(r - self.frame.n_lost, r),
            p1_observed=_rate(check1.n_clicked_g0 + check1.n_assigned_g0, r),
            p2_observed=_rate(check2.n_clicked_g0 + check2.n_assigned_g0, r),
            p1_clicked=_rate(check1.n_clicked_g0, check1.n_clicked),
            p2_clicked=_rate(check2.n_clicked_g0, check2.n_clicked),
            e_ab_signed=est(shift, self.round1),
            e_ab_assign=est(assign, self.round1),
            e_aba_signed=est(shift, self.round2),
            e_aba_assign=est(assign, self.round2),
            loss_counts=counts,
        )

    def _columns(self) -> TranscriptColumns:
        r, led, trip2 = self.r, self.ledger, self.trip2
        size = 3 * r
        seq = np.zeros(size, dtype=np.int8)
        seq[led.s1_pos] = 1
        seq[led.s2_pos] = 2
        seq[led.s3_pos] = 3
        basis = np.full(size, -1, dtype=np.int64)
        clicked = np.zeros(size, dtype=bool)
        g = np.full(size, -1, dtype=np.int8)
        assigned = np.full(size, -1, dtype=np.int8)
        message_bit = np.full(size, -1, dtype=np.int8)
        if self._stage >= 4:
            message_bit[led.s3_pos] = self.payload
        # rotation precedes loss sampling, so every sent photon carries the
        # outbound draw; returned photons add the second-leg draw
        rotation = np.full(size, self.trip1.rotation, dtype=np.float64)
        if trip2 is not None:
            returned = self.trip1.alive[trip2.pos]
            rotation[trip2.pos[returned]] += _at(trip2.rotation, returned)

        # each checking round run so far, with the photon it measured per row
        rounds = [(self.round1, led.s1_pos)]
        if self.round2 is not None:
            rounds.append((self.round2, trip2.pos[led.s2p_slots]))
        for rec, pos in rounds:
            basis[pos] = self._bases(rec, pos)
            clicked[pos] = rec.clicked
            g[pos] = np.where(rec.clicked, rec.g, -1)
            assigned[pos] = np.where(~rec.clicked, self._offset_table[2][rec.k], -1)
        if self.frame is not None:
            # S3 photon j carries message bit j, decoded in its own basis
            basis[led.s3_pos] = led.prep[led.s3_pos]
            clicked[led.s3_pos] = self.frame.decoded >= 0
            g[led.s3_pos] = self.frame.decoded
        return TranscriptColumns(
            sequence=seq,
            prep=led.prep,
            secret_flip=self.secret_flip,
            message_bit=message_bit,
            basis=basis,
            rotation=rotation,
            loss_site=self.site,
            loss_leg=self.leg,
            clicked=clicked,
            g=g,
            assigned_g=assigned,
            attacked=self.attacked,
        )

    def _announcements(self) -> Announcements:
        led, round1, round2 = self.ledger, self.round1, self.round2
        if led.return_perm is not None:
            s2p, s2_order, s3p, s3_order = led.s2p_slots, led.s2_order, led.s3p_slots, led.s3_order
        else:
            s2p = s2_order = s3p = s3_order = np.array([], dtype=np.int64)
        done2 = round2 is not None
        return Announcements(
            s1_positions=led.s1_pos.copy(),
            y1=self._bases(round1, led.s1_pos),
            round1_clicked=round1.clicked.copy(),
            round1_g=np.where(round1.clicked, round1.g, -1),
            s2p_slots=s2p,
            s2_original_positions=s2_order,
            s3p_slots=s3p,
            s3_original_positions=s3_order,
            round2_clicked=round2.clicked.copy() if done2 else None,
            round2_g=np.where(round2.clicked, round2.g, -1) if done2 else None,
        )

    def _attack_summary(self) -> Optional[AttackOutcomeStats]:
        adv = self.params.adversary
        if adv is None:
            return None
        led = self.ledger
        att3 = self.attacked[led.s3_pos]
        if att3.any():
            # the interceptor's measurement basis per photon, drawn only
            # when an S3 photon was intercepted (only S3's are read)
            r, seed = self.r, self.params.seed
            eve_basis = seeding.stream(seed, "adv-basis").integers(1, self.n + 1, size=3 * r)
            known = eve_basis[led.s3_pos] == led.prep[led.s3_pos]
            guess = seeding.stream(seed, "adv-guess").integers(0, 2, size=r).astype(np.int8)
            eve_bits = np.where(known, self.payload, guess)
            correct = float(np.mean(eve_bits[att3] == self.payload[att3]))
        else:
            correct = 0.0
        return attack_stats(
            self.check1.theoretical_p_g0, adv, self.check1.empirical_p_g0, correct
        )

    def _result(self, aborted_at_step: Optional[int]) -> ProtocolResult:
        return ProtocolResult(
            params=self.params, ledger=self.ledger, check1=self.check1,
            check2=self.check2, frame=self.frame, aborted_at_step=aborted_at_step,
            stats=self._stats() if aborted_at_step is None else None,
            attack=self._attack_summary(), run=self,
        )

    def run(self, workers: int = 1) -> ProtocolResult:
        """All six steps. With workers > 1 the blocks of each per-photon stage
        run on a pool of that many threads, owned by this call and joined
        before it returns; the result is the same for every worker count."""
        if workers < 1:
            raise ValueError(f"workers must be at least 1, got {workers}")
        self._pool = ThreadPoolExecutor(max_workers=workers) if workers > 1 else None
        try:
            return self._run_steps()
        finally:
            if self._pool is not None:
                self._pool.shutdown()
                self._pool = None

    def _run_steps(self) -> ProtocolResult:
        self.step1_prepare()
        self.step2_transmit_to_bob()
        enforce = not self.params.continue_on_abort
        if not self.step3_first_check().passed and enforce:
            return self._result(3)
        self.step4_encode_and_shuffle()
        self.step5_transmit_to_alice()
        if not self.step5_second_check().passed and enforce:
            return self._result(5)
        self.step6_decode()
        return self._result(None)


def run_full_protocol(
    params: ProtocolParams, message: Optional[Sequence[int]] = None, workers: int = 1
) -> ProtocolResult:
    """Execute all six steps; check aborts terminate the run with a report,
    they are not errors."""
    return ProtocolRun(params, message).run(workers)


def run_first_check(params: ProtocolParams) -> SecurityCheckReport:
    """Steps 1-3 on one thread: the report a full run holds as `check1`."""
    run = ProtocolRun(params)
    run.step1_prepare()
    run.step2_transmit_to_bob()
    return run.step3_first_check()


# The transcript writer builds its records a block of photons at a time;
# the block size bounds the memory the writer adds to a run.
_BLOCK_ROWS = 4096
# A record is _SEPARATORS[0] + text of _KEYS[0] + _SEPARATORS[1] + ... +
# text of _KEYS[-1] + _SEPARATORS[-1], as json.dumps(sort_keys=True) has it.
_KEYS = tuple(sorted((
    "id", "seq", "prep", "secret_flip", "message_bit", "basis", "measured_at",
    "rotation", "loss_site", "loss_leg", "clicked", "g", "assigned_g", "attacked",
)))
_SEPARATORS = (f'{{"{_KEYS[0]}": ',) + tuple(f', "{k}": ' for k in _KEYS[1:]) + ("}\n",)
# Every key but "id" and "rotation" takes few values. In sorted order those
# keys fall into three runs split by the two, so a record is five pieces:
# run, id, run, rotation, run.
_ID, _ROTATION = _KEYS.index("id"), _KEYS.index("rotation")
_RUNS = (range(0, _ID), range(_ID + 1, _ROTATION), range(_ROTATION + 1, len(_KEYS)))
_BOOL_JSON = ("false", "true")
_SITE_JSON = tuple(json.dumps(_SITE_NAME[c]) for c in sorted(_SITE_NAME))
# indexed by 0 never measured, 1 measured by Bob (S1), 2 measured by Alice
_MEASURED_AT_JSON = ('""', '"bob"', '"alice"')
_NONFINITE_JSON = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _int_json(col: np.ndarray, fmt: str = "%d") -> tuple[int, list[str]]:
    """(lo, table) with table[v - lo] the JSON text of each value v in col;
    the table spans col's value range (at most n + 1 for prep and basis)."""
    lo, hi = int(col.min()), int(col.max())
    return lo, [fmt % v for v in range(lo, hi + 1)]


def _float_json(col: np.ndarray) -> list[str]:
    """JSON texts of floats, non-finite ones spelled as json.dumps has them."""
    texts = list(map(repr, col.tolist()))
    for i in np.flatnonzero(~np.isfinite(col)).tolist():
        texts[i] = _NONFINITE_JSON[texts[i]]
    return texts


def _rotation_json(col: np.ndarray) -> list[str]:
    """`_float_json(col)`, formatting each distinct value once. Values are
    told apart by their bits, so -0.0 and 0.0 stay apart."""
    values, inverse = np.unique(col.view(np.uint64), return_inverse=True)
    return np.array(_float_json(values.view(np.float64)), dtype=object)[inverse].tolist()


class _RunTexts:
    """Texts of one run of keys, each holding the separator before every key
    of the run and the one after it. A row's values of the run's keys form
    one mixed-radix code, and the text of each code that occurs is made once."""

    def __init__(self, keys: range, tables: dict[str, Sequence[str]]):
        self.keys = keys
        self.names = [_KEYS[k] for k in keys]
        self.tables = [tables[name] for name in self.names]
        self.memo: dict[int, str] = {}

    def texts(self, digits: dict[str, np.ndarray]) -> list[str]:
        """One text per row; digits[key][i] indexes key's table in row i."""
        code = np.zeros(len(digits[self.names[0]]), dtype=np.int64)
        for name, table in zip(self.names, self.tables):
            code = code * len(table) + digits[name]
        codes, inverse = np.unique(code, return_inverse=True)
        out = []
        for c in codes.tolist():
            text = self.memo.get(c)
            if text is None:
                text = self.memo[c] = self._text(c)
            out.append(text)
        return np.array(out, dtype=object)[inverse].tolist()

    def _text(self, code: int) -> str:
        parts = [_SEPARATORS[self.keys.stop]]
        for k, table in zip(reversed(self.keys), reversed(self.tables)):
            code, digit = divmod(code, len(table))
            parts += (table[digit], _SEPARATORS[k])
        return "".join(reversed(parts))


@contextlib.contextmanager
def atomic_open(path):
    """Text handle whose contents appear at `path` only once the block
    completes: it writes a temporary file next to `path` and renames it over
    `path`, so a failed or interrupted write leaves no partial file."""
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def write_transcript(result: ProtocolResult, path) -> None:
    """Line-delimited per-photon records plus one trailing summary record.

    Each line is exactly `json.dumps(record, sort_keys=True)`. The records
    are built from the columns a block of photons at a time, as five pieces
    each: the texts of the three runs of small-range keys (one memoized
    lookup per run, separators included), the id and the rotation. Field
    names are stable across versions; see README for the schema.
    """
    cols = result.photons
    # key -> (column, lowest value, JSON texts from the lowest value up)
    lookups = {
        "assigned_g": (cols.assigned_g, *_int_json(cols.assigned_g)),
        "attacked": (cols.attacked, 0, _BOOL_JSON),
        "basis": (cols.basis, *_int_json(cols.basis)),
        "clicked": (cols.clicked, 0, _BOOL_JSON),
        "g": (cols.g, *_int_json(cols.g)),
        "loss_leg": (cols.loss_leg, *_int_json(cols.loss_leg)),
        "loss_site": (cols.loss_site, 0, _SITE_JSON),
        "message_bit": (cols.message_bit, *_int_json(cols.message_bit)),
        "prep": (cols.prep, *_int_json(cols.prep)),
        "secret_flip": (cols.secret_flip, 0, _BOOL_JSON),
        "seq": (cols.sequence, *_int_json(cols.sequence, '"S%d"')),
    }
    # a value outside its table would alias a neighbouring digit of its code
    for key, (col, lo, table) in lookups.items():
        if col.min() < lo or col.max() >= lo + len(table):
            raise LookupError(f"transcript {key} holds a value outside "
                              f"{lo}..{lo + len(table) - 1}")
    tables = {key: table for key, (_, _, table) in lookups.items()}
    tables["measured_at"] = _MEASURED_AT_JSON
    head, middle, tail = (_RunTexts(keys, tables) for keys in _RUNS)
    with atomic_open(path) as fh:
        for start in range(0, len(cols), _BLOCK_ROWS):
            block = slice(start, min(start + _BLOCK_ROWS, len(cols)))
            digits = {key: col[block].astype(np.int64) - lo
                      for key, (col, lo, _) in lookups.items()}
            measured = np.where(cols.sequence[block] == 1, 1, 2)
            digits["measured_at"] = np.where(cols.basis[block] >= 0, measured, 0)
            pieces = [""] * (5 * (block.stop - start))
            pieces[0::5] = head.texts(digits)
            pieces[1::5] = map(str, range(start, block.stop))
            pieces[2::5] = middle.texts(digits)
            pieces[3::5] = _rotation_json(cols.rotation[block])
            pieces[4::5] = tail.texts(digits)
            fh.write("".join(pieces))
        fh.write(json.dumps(summary_record(result), sort_keys=True) + "\n")


def summary_record(result: ProtocolResult) -> dict:
    out = {
        "record": "summary",
        "r": result.params.r,
        "n": result.params.config.n,
        "seed": result.params.seed,
        "aborted_at_step": result.aborted_at_step,
        "check1": _report_dict(result.check1),
        "check2": _report_dict(result.check2) if result.check2 else None,
    }
    if result.frame is not None:
        out["message"] = {
            "length": len(result.frame.payload),
            "ok": result.frame.n_ok,
            "lost": result.frame.n_lost,
            "flipped": result.frame.n_flipped,
        }
    if result.stats is not None:
        s = result.stats
        out["stats"] = {
            "q_ab": s.q_ab.value,
            "q_aba": s.q_aba.value,
            "e_ab": s.e_ab_total,
            "e_aba": s.e_aba_total,
            "p1_observed": s.p1_observed.value,
            "p2_observed": s.p2_observed.value,
            "loss_counts": s.loss_counts,
        }
    if result.attack is not None:
        out["attack"] = {
            "predicted_p_g0": result.attack.predicted_p_g0,
            "empirical_p_g0": result.attack.empirical_p_g0,
            "eve_correct_fraction": result.attack.eve_correct_fraction,
            "eve_info_per_bit": result.attack.eve_info_per_bit,
        }
    return out


def _report_dict(report: SecurityCheckReport) -> dict:
    return {
        "round": report.round_index,
        "m": report.m,
        "theoretical_p_g0": report.theoretical_p_g0,
        "empirical_p_g0": report.empirical_p_g0,
        "deviation": report.deviation,
        "tolerance": report.tolerance,
        "verdict": "pass" if report.passed else "abort",
    }
