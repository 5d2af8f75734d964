"""Deterministic random draws derived from a single master seed.

Every draw is a counter draw: a uniform is a pure hash (splitmix64 mixes in
uint64) of a 64-bit key and a counter, so draws are made in bulk as array
operations, in any order. A key folds the seed with stream tags and the
entities drawn about; workers, videos, questions and labels enter by the
blake2b hash of their id, never by a list position. The counter is a
question id, a member label id, a gold ordinal or 0. A shuffle is `order`:
the argsort of one such uniform per id. What a campaign draws thus depends
on which ids it holds, not on the order they are listed in.

A fold step is two halves: `whiten` a field, a pure function of its value,
then `mix` it into the key. A caller whose fields come from a small
vocabulary (the pool's workers, the campaign's videos, the question or
label ids) whitens the vocabulary once and gathers the whitened values to
its tasks or slots, and steps between scalars run in exact 64-bit
Python-int arithmetic.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache

import numpy as np

MASK = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15  # added to a field as it is whitened


@lru_cache(maxsize=1 << 16)
def id_key(ident) -> int:
    """64-bit blake2b key of an id: a seed, a worker or video id, a stream tag."""
    return int.from_bytes(hashlib.blake2b(str(ident).encode(), digest_size=8).digest(), "little")


def id_keys(ids) -> np.ndarray:
    """The uint64 array of `id_key` over ids."""
    return np.array([id_key(i) for i in ids], dtype=np.uint64)


def _mix(x: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer, in place on a fresh array x: a bijection of
    uint64 with full avalanche. The three shifts share one scratch array."""
    shifted = x >> 30
    x ^= shifted
    x *= 0xBF58476D1CE4E5B9
    x ^= np.right_shift(x, 27, out=shifted)
    x *= 0x94D049BB133111EB
    x ^= np.right_shift(x, 31, out=shifted)
    return x


def _mix_int(x: int) -> int:
    """`_mix` of one uint64, in Python ints."""
    x ^= x >> 30
    x = x * 0xBF58476D1CE4E5B9 & MASK
    x ^= x >> 27
    x = x * 0x94D049BB133111EB & MASK
    return x ^ x >> 31


def _check(value: int) -> int:
    """value itself if it is a uint64; numpy's OverflowError otherwise."""
    if not 0 <= value <= MASK:
        raise OverflowError(f"Python integer {value} out of bounds for uint64")
    return value


def whiten(value):
    """The first half of a fold step, `_mix(value + GOLDEN)` in uint64: a
    Python int of a Python int, else a fresh uint64 array of at least one
    dimension."""
    if isinstance(value, int):
        return _mix_int(_check(value) + GOLDEN & MASK)
    return _mix(np.atleast_1d(np.asarray(value, dtype=np.uint64)) + GOLDEN)


def mix(key, white):
    """The second half of a fold step, `_mix(key ^ white)` of a key and a
    whitened field: a Python int of two Python ints, else a fresh uint64
    array of at least one dimension, broadcast elementwise."""
    if isinstance(key, int) and isinstance(white, int):
        return _mix_int(_check(key) ^ _check(white))
    return _mix(np.atleast_1d(np.asarray(key, dtype=np.uint64)) ^ white)


def fold(key, *fields) -> np.ndarray:
    """Chain 64-bit fields (ints or uint64 arrays) into a key, elementwise:
    each field is whitened, then mixed into the key.

    The result is a fresh uint64 array of at least one dimension. A
    negative int, or one of 2**64 or more, raises OverflowError.
    """
    for value in fields:
        key = mix(key, whiten(value))
    if fields and isinstance(key, np.ndarray):
        return key
    return np.atleast_1d(np.array(key, dtype=np.uint64))


def draw_key(master_seed: int, *ids) -> np.ndarray:
    """The seed's key with `ids` folded in: strings or ints, hashed by
    `id_key`, or uint64 arrays of keys `id_key` made, one per entity."""
    keys = (i if isinstance(i, np.ndarray) else id_key(i) for i in ids)
    return fold(id_key(int(master_seed)), *keys)


def white_uniforms(keys, white) -> np.ndarray:
    """`uniforms` of keys and whitened counters: uniforms(keys, counters)
    is white_uniforms(keys, whiten(counters))."""
    bits = np.atleast_1d(np.asarray(mix(keys, white), dtype=np.uint64))
    bits >>= 11
    return bits * 2.0**-53


def uniforms(keys, counters) -> np.ndarray:
    """Uniform floats in [0, 1) with 53 random bits, one per (key, counter)."""
    return white_uniforms(keys, whiten(counters))


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
