"""Exact rational building blocks: Pochhammer symbols, factorial quotients,
series term descriptions and polynomial utilities.

Everything in this module is exact.  Values are :class:`fractions.Fraction`;
a weight polynomial is a sequence of ascending fractions, read by
:func:`poly_trim` and :func:`poly_eval`, and :func:`poly_expand` and
:func:`poly_values` work on ascending integer coefficients.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from itertools import accumulate, repeat
from typing import Iterable, NamedTuple, Sequence

from hyperpi.errors import DomainError, InvariantViolation, ZeroDenominator


# ----------------------------------------------------------------------
# Pochhammer symbols and factorial quotients
# ----------------------------------------------------------------------


def rising(x: int, q: int, m: int) -> int:
    """Numerator of the rising factorial (x/q)_m, whose denominator is q**m:
    the integer product x (x + q) ... (x + (m-1) q)."""
    out = 1
    for factor in range(x, x + m * q, q):
        out *= factor
    return out


def pochhammer(x: Fraction, n: int) -> Fraction:
    """Rising factorial (x)_n = x (x+1) ... (x+n-1), with (x)_0 = 1.

    With x = p/q the factors are (p + i q)/q: their numerators are
    multiplied as integers and the product over q**n is reduced once.
    """
    if n < 0:
        raise DomainError("pochhammer requires a nonnegative index")
    p, q = x.numerator, x.denominator
    return Fraction(rising(p, q, n), q**n)


def poch_quotient(upper: Sequence[Fraction], lower: Sequence[Fraction], n: int) -> Fraction:
    """Product of rising factorials (u)_n over the product of (l)_n.

    Raises :class:`ZeroDenominator` when a lower rising factorial vanishes.
    """
    # numerators and denominators multiplied as integers, one final gcd
    num = den = 1
    for u in upper:
        value = pochhammer(u, n)
        num *= value.numerator
        den *= value.denominator
    for low in lower:
        value = pochhammer(low, n)
        num *= value.denominator
        den *= value.numerator
    if den == 0:
        raise ZeroDenominator(f"lower rising factorial vanished at n={n}")
    return Fraction(num, den)


# ----------------------------------------------------------------------
# polynomial helpers (ascending coefficients: fractions, and int lists
# for poly_expand and poly_values)
# ----------------------------------------------------------------------


def poly_trim(coeffs: Iterable[Fraction]) -> tuple[Fraction, ...]:
    out = [Fraction(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def poly_eval(coeffs: Sequence[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(tuple(coeffs)):
        acc = acc * x + c
    return acc


def poly_expand(coeffs: list[int], forms: list[tuple[int, int]]) -> list[int]:
    """Ascending integer coefficients of ``coeffs`` times ``prod (n + d x)``
    over ``forms``, for a polynomial with ascending ``coeffs``."""
    for n, d in forms:
        coeffs = [a * n + b * d for a, b in zip(coeffs + [0], [0] + coeffs)]
    return coeffs


def poly_values(coeffs: list[int], lo: int, hi: int) -> Iterable[int]:
    """The integer polynomial with ascending ``coeffs`` at every x in [lo, hi).

    A range no longer than the coefficient list is evaluated point by
    point.  A longer one takes the values at the first degree + 1 points,
    their forward differences Δ^i p(lo), and sums them back up a level at
    a time: Δ^degree p is constant, and each ``accumulate`` turns the
    differences of one level into the values of the level below.  The
    values come lazily, so a long range holds only the degree + 1 running
    differences at a time.
    """
    head = []
    for x in range(lo, min(hi, lo + len(coeffs))):
        value = 0
        for c in reversed(coeffs):
            value = value * x + c
        head.append(value)
    if hi - lo <= len(coeffs):
        return head
    diffs = []
    while head:
        diffs.append(head[0])
        head = list(map(operator.sub, head[1:], head))
    values = repeat(diffs.pop(), hi - lo - len(diffs))
    for first in reversed(diffs):
        values = accumulate(values, initial=first)
    return values


# ----------------------------------------------------------------------
# series term descriptions
# ----------------------------------------------------------------------


class SeriesSpec(NamedTuple):
    """Closed description of one hypergeometric-style series.

    The represented value is

        additive + sign * sum_{k >= start} poly(k)
            * prod (upper_i)_k / prod (lower_j)_k / base**k
    """

    upper: tuple[Fraction, ...]
    lower: tuple[Fraction, ...]
    poly: tuple[Fraction, ...]
    base: int
    start: int = 0
    additive: Fraction = Fraction(0)
    sign: int = 1

    def validate(self) -> None:
        if self.base < 2:
            raise InvariantViolation(f"base must be at least 2, got {self.base}")
        if self.sign not in (1, -1):
            raise InvariantViolation(f"sign must be +1 or -1, got {self.sign}")
        if self.start < 0:
            raise InvariantViolation(f"start index must be nonnegative, got {self.start}")
        if not poly_trim(self.poly):
            raise InvariantViolation("weight polynomial must be nonzero")
        for low in self.lower:
            if low.denominator == 1 and low <= 0:
                raise InvariantViolation(
                    f"lower entry {low} is a non-positive integer; the quotient "
                    "would divide by zero for large indices"
                )


def term_eval(spec: SeriesSpec, k: int) -> Fraction:
    """Exact k-th term of the series (excluding the additive constant)."""
    if k < spec.start:
        raise DomainError(f"term index {k} below start index {spec.start}")
    quotient = poch_quotient(spec.upper, spec.lower, k)
    return (
        Fraction(spec.sign)
        * poly_eval(spec.poly, Fraction(k))
        * quotient
        / Fraction(spec.base) ** k
    )

