"""The counter-based streams: SplitMix64's published outputs, the key naming,
and a chi-square check that bounded draws are uniform, which the bootstrap's
bit-for-bit oracle, built on the same construction, cannot show."""

import hashlib

import numpy as np
import pytest

import helpers
from phenorank.streams import bounded, splitmix64, stream_key

# SplitMix64's first three outputs from seed 1234567, as printed by the
# reference implementation (Vigna, splitmix64.c).
REFERENCE = [6457827717110365317, 3203168211198807973, 9817491932198370423]


def test_splitmix64_reference_outputs():
    got = splitmix64(1234567, np.arange(3, dtype=np.uint64))
    assert got.dtype == np.uint64
    assert got.tolist() == REFERENCE
    assert [helpers.loop_splitmix64(1234567, c) for c in range(3)] == REFERENCE


def test_splitmix64_wraps_without_warning():
    # Counters and keys near 2**64 wrap; pytest turns a RuntimeWarning into an error.
    counters = np.array([0, 2**63, 2**64 - 2], dtype=np.uint64)
    got = splitmix64(2**64 - 1, counters)
    assert got.tolist() == [helpers.loop_splitmix64(2**64 - 1, c) for c in counters.tolist()]


def test_stream_key_names_seed_and_tag():
    digest = hashlib.sha256(b"7:bootstrap").hexdigest()
    assert stream_key(7, "bootstrap") == int(digest[-16:], 16)
    assert stream_key(2**80, "bootstrap") < 2**64
    assert stream_key(7, "bootstrap") != stream_key(7, "split")
    with pytest.raises(ValueError, match="non-negative"):
        stream_key(-1, "bootstrap")


@pytest.mark.parametrize(
    "n, critical",
    # scipy.stats.chi2.isf(1e-6, n - 1)
    [(7, 38.258), (1000, 1226.046)],
)
def test_bounded_draws_are_uniform(n, critical):
    draws = 100_000
    idx = bounded(0x0123456789ABCDEF, np.arange(draws, dtype=np.uint64), n)
    assert idx.dtype == np.int64
    assert 0 <= idx.min() and idx.max() < n
    expected = draws / n
    counts = np.bincount(idx, minlength=n)
    assert ((counts - expected) ** 2 / expected).sum() < critical

