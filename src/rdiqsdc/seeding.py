"""Deterministic random-stream derivation.

Every stochastic component draws from its own named stream derived from
(master seed, purpose). Streams are stable across runs, platforms
and worker counts, so adding parallelism never reshuffles results.
"""
from __future__ import annotations

import hashlib

import numpy as np

from .domains import SEED


def purpose_key(purpose: str) -> int:
    """Map a purpose label to a stable 64-bit integer."""
    digest = hashlib.sha256(purpose.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def seed_sequence(master: int, purpose: str) -> np.random.SeedSequence:
    SEED.check("master seed", master)
    # the third word, 0, is part of every stream's entropy: changing it
    # changes every value drawn
    return np.random.SeedSequence((master, purpose_key(purpose), 0))


def stream(master: int, purpose: str) -> np.random.Generator:
    """Dedicated PCG64 generator for (master, purpose)."""
    return np.random.Generator(np.random.PCG64(seed_sequence(master, purpose)))


def positioned(master: int, purpose: str, start: int) -> np.random.Generator:
    """The generator `stream(master, purpose)` makes, moved to its 64-bit
    output number `start`.

    `random`, `uniform` and `choice(p=...)` take exactly one output per
    value, so values `[a, b)` of one such draw over the whole stream are the
    `b - a` values drawn from `positioned(master, purpose, a)`: a draw split
    into blocks gives the same values in any block order and on any thread.
    `integers` (buffered and rejection-sampled) and `shuffle`/`permutation`
    take a varying number of outputs and are drawn whole.
    """
    bits = np.random.PCG64(seed_sequence(master, purpose))
    bits.advance(start)
    return np.random.Generator(bits)
