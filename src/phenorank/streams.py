"""Counter-based random streams: each draw is a pure function of a key and a
counter, so whole arrays of draws come from one pass, in any order.

Word ``c`` of key ``k`` is SplitMix64's output ``c + 1`` when seeded with
``k`` (Steele, Lea & Flood, "Fast Splittable Pseudorandom Number Generators",
OOPSLA 2014). Every constant is an ``np.uint64`` and every counter array is
``uint64``, so the arithmetic wraps mod 2**64 under both numpy 1.x's
value-based casting and numpy 2's NEP 50.
"""

from __future__ import annotations

import hashlib

import numpy as np

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
# The bit where ``bounded`` puts a redraw's attempt number above the counter.
_ATTEMPT_SHIFT = 56


def stream_key(seed: int, tag: str) -> int:
    """The low 8 bytes of sha256(f"{seed}:{tag}"), read big-endian."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    digest = hashlib.sha256(f"{seed}:{tag}".encode()).digest()
    return int.from_bytes(digest[-8:], "big")


def splitmix64(key: int, counters: np.ndarray) -> np.ndarray:
    """Word ``c`` of stream ``key`` for each ``c`` in a uint64 array."""
    z = (counters + np.uint64(1)) * _GAMMA + np.uint64(key)
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def bounded(key: int, counters: np.ndarray, n: int, attempt: int = 0) -> np.ndarray:
    """An int64 index in ``[0, n)`` for each uint64 counter below 2**56;
    ``0 < n <= 2**32``.

    Lemire's multiply-shift takes a word's high 32 bits ``x`` to ``x * n >>
    32`` and rejects the draw when ``x * n``'s low half is below ``2**32 %
    n``, so every index is equally likely ("Fast Random Integer Generation in
    an Interval", ACM TOMACS 2019). Redraw ``attempt`` of counter ``c`` reads
    word ``attempt << 56 | c``, so every index is a pure function of ``c``.
    """
    tagged = counters | np.uint64(attempt << _ATTEMPT_SHIFT) if attempt else counters
    scaled = (splitmix64(key, tagged) >> np.uint64(32)) * np.uint64(n)
    rejected = scaled.astype(np.uint32) < np.uint32((1 << 32) % n)
    scaled >>= np.uint64(32)
    out = scaled.view(np.int64)
    if rejected.any():
        out[rejected] = bounded(key, counters[rejected], n, attempt + 1)
    return out
