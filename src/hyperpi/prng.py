"""Deterministic pseudo-random generation for reproducible trials.

The generator is SplitMix64: a tiny, well-studied 64-bit mixer with exactly
reproducible output on every platform and Python build.  All randomized
verification commands derive their trial data from it, so a (seed, version)
pair fully determines a run report.
"""

from __future__ import annotations

from fractions import Fraction

_TWO64 = 1 << 64
_MASK = _TWO64 - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """SplitMix64 pseudo-random generator over 64-bit integers."""

    __slots__ = ("state",)

    def __init__(self, state: int = 0) -> None:
        self.state = state

    def next_u64(self) -> int:
        """Return the next 64-bit output."""
        self.state = (self.state + _GAMMA) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return z ^ (z >> 31)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in the inclusive range [lo, hi], a span of at
        most 2**64.

        Uses rejection sampling so the distribution is exactly uniform and
        platform independent.
        """
        if hi < lo:
            raise ValueError("empty range")
        span = hi - lo + 1
        if span > _TWO64:
            raise ValueError(f"a span of {span} is above 2**64")
        # Largest multiple of span not exceeding 2**64.
        limit = _TWO64 - _TWO64 % span
        while True:
            r = self.next_u64()
            if r < limit:
                return lo + r % span

    def ratio(self, max_num: int, max_den: int, nonzero: bool = False) -> tuple[int, int]:
        """Random unreduced pair (numerator, denominator) with |numerator| <=
        max_num and 1 <= denominator <= max_den: the draws of :meth:`fraction`."""
        while True:
            num = self.randint(-max_num, max_num)
            den = self.randint(1, max_den)
            if not (nonzero and num == 0):
                return num, den

    def fraction(self, max_num: int, max_den: int, nonzero: bool = False) -> Fraction:
        """Random fraction with |numerator| <= max_num, 1 <= denominator <= max_den."""
        return Fraction(*self.ratio(max_num, max_den, nonzero))
