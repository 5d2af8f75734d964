"""Deterministic RNG streams derived from a single master seed.

Every stochastic component hashes (master seed, stream components) into an
independent numpy generator, so simulation results do not depend on the
order in which tasks are executed.
"""

from __future__ import annotations

import hashlib

import numpy as np

_SEP = b"\x1f"


def _digest(master_seed: int, parts: tuple) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    h.update(str(int(master_seed)).encode())
    for part in parts:
        h.update(_SEP)
        h.update(str(part).encode())
    return h.digest()


def substream(master_seed: int, *parts) -> np.random.Generator:
    """Independent generator for the stream identified by `parts`."""
    seed = int.from_bytes(_digest(master_seed, parts), "little")
    return np.random.default_rng(seed)


def unit_fraction(master_seed: int, *parts) -> float:
    """A single uniform [0, 1) draw tied to (master_seed, parts).

    Used for per-entity coin flips (e.g. marking a (video, label) pair as
    hard) that must agree across all workers and iterations.
    """
    raw = int.from_bytes(_digest(master_seed, parts)[:8], "little")
    return raw / 2.0**64
