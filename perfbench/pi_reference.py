"""Independent reference value of pi for checking the benchmark's outputs.

Uses the Chudnovsky series with integer binary splitting, a formula that
hyperpi itself does not use (it has Machin-type arctangent sums and the
base-16 catalog series), so an error in hyperpi cannot hide in its own
reference.
"""

from __future__ import annotations

import math

_C3_OVER_24 = 640320**3 // 24
_BITS_PER_TERM = math.log2(640320**3 / 1728)  # about 47.1


def _split(a: int, b: int) -> tuple[int, int, int]:
    if b - a == 1:
        if a == 0:
            p = q = 1
        else:
            p = (6 * a - 5) * (2 * a - 1) * (6 * a - 1)
            q = a * a * a * _C3_OVER_24
        t = p * (13591409 + 545140134 * a)
        return p, q, -t if a & 1 else t
    m = (a + b) // 2
    p1, q1, t1 = _split(a, m)
    p2, q2, t2 = _split(m, b)
    return p1 * p2, q1 * q2, q2 * t1 + p1 * t2


def pi_fixed(bits: int) -> int:
    """``pi * 2**bits`` truncated, with an error of at most a few units."""
    terms = int(bits / _BITS_PER_TERM) + 2
    _, q, t = _split(0, terms)
    sqrt_10005 = math.isqrt(10005 << (2 * bits))
    return q * 426880 * sqrt_10005 // t


# Extra bits carried beyond what a check needs; a reference whose guard bits
# sit this close to a digit boundary is reported instead of trusted.
GUARD_BITS = 64


def hex_digits(ref: int, ref_bits: int, position: int, count: int) -> str:
    """``count`` hex digits of pi's fractional part from digit ``position``.

    ``ref`` is :func:`pi_fixed` at ``ref_bits``, which must exceed
    ``4 * (position + count) + GUARD_BITS``.
    """
    shift = ref_bits - 4 * (position + count)
    if shift < GUARD_BITS:
        raise ValueError(f"reference too short for hex position {position}")
    below = ref & ((1 << shift) - 1)
    if below < 16 or below > (1 << shift) - 16:
        raise ValueError(f"reference cannot settle hex digits at {position}")
    return format((ref >> shift) & ((1 << (4 * count)) - 1), f"0{count}X")


def within_decimal_digits(man: int, exp: int, ref: int, ref_bits: int, digits: int) -> bool:
    """True when ``|man * 2**exp - pi| < 10**-digits``.

    The comparison is exact on integers: the value is scaled to the
    reference's ``ref_bits`` fraction bits, which must leave the reference
    error (a few units) far below ``10**-digits``.
    """
    if ref_bits < digits * math.log2(10) + GUARD_BITS:
        raise ValueError(f"reference too short for {digits} decimal digits")
    shift = exp + ref_bits
    if shift >= 0:
        diff, scale_bits = abs((man << shift) - ref), ref_bits
    else:
        diff, scale_bits = abs(man - (ref << -shift)), -exp
    return diff * 10**digits < 1 << scale_bits
