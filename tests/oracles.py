"""Reference oracles shared by the tests: a bit-agreement measure,
sin(pi x) by its own Taylor series, independent of the gamma code, and the
exact value of a partial sum."""

from fractions import Fraction

from hyperpi import engine
from hyperpi.bigfloat import GUARD_BITS, BigFloat, div_nearest, pi_fixed, round_shift
from hyperpi.factorials import SeriesSpec


def agrees_to_bits(x: BigFloat, y: BigFloat) -> int:
    """Number of matching leading bits: floor(-log2(|x-y| / |x|)), capped.

    Returns a large sentinel (10**9) when the two values are exactly equal.
    """
    diff = x.sub(y, max(x.prec, y.prec) + 8)
    if diff.man == 0:
        return 10**9
    if x.man == 0:
        return max(0, -diff.magnitude_exponent())
    return max(0, x.magnitude_exponent() - diff.magnitude_exponent())


def sin_pi(x: Fraction, prec: int) -> BigFloat:
    """``sin(pi * x)`` for rational ``x`` via symmetry reduction and Taylor series."""
    r = x - 2 * (x // 2)  # x mod 2, in [0, 2)
    sign = 1
    if r >= 1:
        sign = -1
        r -= 1
    if r > Fraction(1, 2):
        r = 1 - r
    if r == 0:
        return BigFloat.zero(prec)
    wp = prec + GUARD_BITS + 8
    pi_f = pi_fixed(wp)
    theta = div_nearest(pi_f * r.numerator, r.denominator)
    theta_sq = round_shift(theta * theta, wp)
    term = theta
    acc = theta
    i = 0
    while term != 0:
        term = -div_nearest(term * theta_sq, ((2 * i + 2) * (2 * i + 3)) << wp)
        acc += term
        i += 1
    return BigFloat.from_fixed(sign * acc, wp, prec)


def sum_series_fraction(spec: SeriesSpec, terms: int) -> Fraction:
    """Exact value of ``additive + sign * sum`` over the first ``terms``
    terms, from the exact pair that ``sum_series`` falls back to."""
    return Fraction(*engine._series_ratio(spec, terms))
