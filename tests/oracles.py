"""Reference oracles shared by the tests: a bit-agreement measure, value
comparison of BigFloats across precisions, typed equality of closed-form
trees, sin(pi x) by its own Taylor series, independent of the gamma code,
the exact value of a partial sum, the term ratio from its definition,
rational powers through exp and ln, the hexadecimal digits of a value at an
offset, and a sampler of parameters where both generator families
converge."""

from fractions import Fraction

from hyperpi import engine
from hyperpi.bigfloat import (
    GUARD_BITS,
    BigFloat,
    div_nearest,
    exp,
    ln,
    pi_fixed,
    pow_int,
    round_shift,
)
from hyperpi.dougall import WellPoisedParams
from hyperpi.errors import DomainError
from hyperpi.factorials import SeriesSpec, poly_eval
from hyperpi.prng import SplitMix64


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


def value_cmp(x: BigFloat, y: BigFloat) -> int:
    """-1, 0 or 1 as the value of ``x`` lies below, at or above that of
    ``y``, at any two precisions (``==`` on BigFloats compares the fields)."""
    a, b = x.to_fraction(), y.to_fraction()
    return (a > b) - (a < b)


def same_tree(x: object, y: object) -> bool:
    """Typed equality of closed-form trees: the same node types in the same
    shape over equal leaves (as tuples a SumNode equals a ProductNode of
    the same children, and a GammaLeaf a RationalLeaf)."""
    if type(x) is not type(y):
        return False
    if isinstance(x, tuple):  # a node, or a tuple of children
        return len(x) == len(y) and all(same_tree(a, b) for a, b in zip(x, y))
    return x == y


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


def term_ratio_reference(spec: SeriesSpec, k: int) -> Fraction:
    """t(k+1)/t(k) from the definition of a term: poly(k+1) prod (u + k)
    over base poly(k) prod (l + k)."""
    num = poly_eval(spec.poly, Fraction(k + 1))
    den = spec.base * poly_eval(spec.poly, Fraction(k))
    for u in spec.upper:
        num *= u + k
    for low in spec.lower:
        den *= low + k
    return num / den


def pow_fraction(x: BigFloat, exponent: Fraction, prec: int) -> BigFloat:
    """Rational power of a positive value via exp(exponent * ln x)."""
    if exponent.denominator == 1:
        return pow_int(x, exponent.numerator, prec)
    if x.man <= 0:
        raise DomainError("rational power requires a positive base")
    wp = prec + GUARD_BITS + 16
    return exp(ln(x, wp).mul_fraction(exponent, wp), prec)


def hex_fraction_digits(x: BigFloat, position: int, count: int) -> str:
    """``count`` hexadecimal digits of the fractional part of ``x``, starting
    at the digit worth ``16**-(position+1)``.

    ``x`` must be accurate to well below ``16**-(position+count)`` for the
    digits to be meaningful.
    """
    if x.man < 0:
        raise DomainError("hex digit extraction requires a nonnegative value")
    shift = x.exp + 4 * (position + count)
    scaled = x.man << shift if shift >= 0 else x.man >> (-shift)
    digits = scaled % (1 << (4 * count))
    return format(digits, "X").rjust(count, "0")


_VALID_DENOMS = (2, 3, 4, 6, 12)


def random_valid_params(rng: SplitMix64) -> WellPoisedParams:
    """Random parameters in (0, 3) over the denominators 2, 3, 4, 6 and 12,
    rejection sampled into the positive-gamma-argument domain where both
    generator families converge to their gamma-quotient closed values."""
    while True:
        vals = []
        for _ in range(4):
            den = _VALID_DENOMS[rng.randint(0, len(_VALID_DENOMS) - 1)]
            num = rng.randint(1, 3 * den - 1)
            vals.append(Fraction(num, den))
        a, b, c, d = vals
        if all(x > 0 for x in (b, c, d, 1 + 2 * a - b - c - d, 1 + a - b, 1 + a - c,
                               1 + a - d, b + c + d - a)):
            return WellPoisedParams(*vals)
