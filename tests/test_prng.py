"""SplitMix64 draws: pinned outputs, the refusal of ranges wider than one
64-bit word, and the pinned streams of the samplers built on it."""

import hashlib
from fractions import Fraction

import pytest

from hyperpi.inversion import random_scheme, random_sequence
from hyperpi.prng import SplitMix64
from oracles import random_valid_params


def test_small_span_outputs_are_pinned():
    rng = SplitMix64(1)
    assert [rng.randint(0, 9) for _ in range(8)] == [5, 9, 0, 5, 1, 8, 5, 3]
    rng = SplitMix64(2)
    assert [rng.randint(-10, 10) for _ in range(6)] == [-6, 4, -10, 5, 0, -1]
    assert rng.randint(0, 2**64 - 1) == 13398859234004329862
    assert rng.randint(5, 5) == 5
    assert rng.randint(1, 2**63 + 3) == 4617448268296080640
    rng = SplitMix64(3)
    assert rng.fraction(10, 10) == Fraction(-1, 2)
    assert rng.fraction(10, 10, nonzero=True) == Fraction(-1, 2)
    assert rng.randint(0, 4) == 1


def test_spans_above_two_to_the_64_raise():
    # no caller draws more than one word: the largest span is --nmax + 1
    rng = SplitMix64(1)
    for lo, hi in ((0, 2**64), (-(2**100), 2**100), (7, 7 + 3 * 2**130)):
        with pytest.raises(ValueError, match="above 2\\*\\*64"):
            rng.randint(lo, hi)
    assert rng.state == 1  # nothing was drawn
    assert rng.randint(1, 2**64) == SplitMix64(1).randint(0, 2**64 - 1) + 1


def _stream_digest(draw, seed: int = 2024) -> str:
    """sha256 prefix of 20 draws from a fresh generator and its last state."""
    rng = SplitMix64(seed)
    draws = [[str(x) for x in draw(rng)] for _ in range(20)]
    return hashlib.sha256(repr((draws, rng.state)).encode()).hexdigest()[:16]


def _scheme_values(scheme):
    return (*scheme.a_values, *scheme.b_values, scheme.lam)


def test_sampler_streams_are_pinned():
    # the trials of verify inversion and the acceptance suite's parameters
    # come from these streams; a changed draw changes every report
    assert _stream_digest(
        lambda rng: _scheme_values(random_scheme(rng, 6, extended=False))
    ) == "c93d7150277332d5"
    assert _stream_digest(
        lambda rng: _scheme_values(random_scheme(rng, 6, extended=True))
    ) == "7fbd26dbab87462c"
    assert _stream_digest(lambda rng: random_sequence(rng, 6)) == "5e5e9724746c7143"
    assert _stream_digest(lambda rng: random_valid_params(rng).as_tuple()) == "0c1d73ccd5be67e1"
