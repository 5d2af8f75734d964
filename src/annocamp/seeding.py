"""Deterministic random draws derived from a single master seed.

Every draw is a counter draw: a uniform is a pure hash (a splitmix64 mix in
numpy uint64) of a 64-bit key and a counter, so draws are made in bulk as
array operations, in any order. A key folds the seed with stream tags and
the entities drawn about; workers, videos, questions and labels enter by
the blake2b hash of their id, never by a list position. The counter is a
question id, a member label id, a gold ordinal or 0. A shuffle is `order`:
the argsort of one such uniform per id. What a campaign draws thus depends
on which ids it holds, not on the order they are listed in.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache

import numpy as np


@lru_cache(maxsize=1 << 16)
def id_key(ident) -> int:
    """64-bit blake2b key of an id: a seed, a worker or video id, a stream tag."""
    return int.from_bytes(hashlib.blake2b(str(ident).encode(), digest_size=8).digest(), "little")


def id_keys(ids) -> np.ndarray:
    """The uint64 array of `id_key` over ids."""
    return np.array([id_key(i) for i in ids], dtype=np.uint64)


def _mix(x: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer, in place on a fresh array x: a bijection of
    uint64 with full avalanche."""
    x ^= x >> 30
    x *= 0xBF58476D1CE4E5B9
    x ^= x >> 27
    x *= 0x94D049BB133111EB
    x ^= x >> 31
    return x


def fold(key, *fields) -> np.ndarray:
    """Chain 64-bit fields (ints or uint64 arrays) into a key, elementwise.

    Scalars become 1-element arrays: numpy checks overflow on scalars only.
    """
    key = np.atleast_1d(np.asarray(key, dtype=np.uint64))
    for value in fields:
        value = np.atleast_1d(np.asarray(value, dtype=np.uint64))
        key = _mix(key ^ _mix(value + 0x9E3779B97F4A7C15))
    return key


def draw_key(master_seed: int, *ids) -> np.ndarray:
    """The seed's key with `ids` folded in: strings or ints, hashed by
    `id_key`, or uint64 arrays of keys `id_key` made, one per entity."""
    keys = (i if isinstance(i, np.ndarray) else id_key(i) for i in ids)
    return fold(id_key(int(master_seed)), *keys)


def uniforms(keys, counters) -> np.ndarray:
    """Uniform floats in [0, 1) with 53 random bits, one per (key, counter)."""
    bits = fold(keys, counters)
    bits >>= 11
    return bits * 2.0**-53


def key_order(keys) -> np.ndarray:
    """Positions sorted by one counter uniform per key, along the last axis;
    tied uniforms keep their positions' order.

    Without ties every sort gives one order, so numpy's default sort is
    used, and the stable sort only when two neighbours in sorted order tie.
    """
    u = uniforms(keys, 0)
    positions = np.argsort(u, axis=-1)
    ranked = np.take_along_axis(u, positions, axis=-1)
    if (ranked[..., 1:] == ranked[..., :-1]).any():
        return np.argsort(u, axis=-1, kind="stable")
    return positions


def order(master_seed: int, ids, *tags) -> np.ndarray:
    """A seeded shuffle of ids: `key_order` of the keys (seed, tags, id)."""
    return key_order(draw_key(master_seed, *tags, id_keys(ids)))
