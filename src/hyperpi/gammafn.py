"""Gamma function for positive rational arguments at arbitrary precision.

Uses Spouge's convergent approximation

    Gamma(z+1) = (z+a)^(z+1/2) * exp(-(z+a))
                 * [ sqrt(2*pi) + sum_{k=1}^{a-1} c_k / (z+k) ]

with integer shape parameter ``a`` chosen from the requested precision so
the relative error of the approximation stays below ``2**(8 - prec)``.  The
coefficients

    c_k = (-1)^(k-1) / (k-1)! * (a-k)^(k-1/2) * exp(a-k)

depend only on ``a``; they are computed once at one-and-a-half times the
working precision and cached.

Exact special cases: positive integers use the factorial directly.
Arguments in (0, 1) are lifted with Gamma(x) = Gamma(x+1)/x.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from hyperpi.bigfloat import (
    GUARD_BITS,
    BigFloat,
    exp,
    ln,
    pi_reference,
    pow_int,
    sqrt,
)
from hyperpi.errors import DomainError

# cache: shape parameter a -> (coefficient precision, [c_1, ..., c_{a-1}])
_coeff_cache: dict[int, tuple[int, list[BigFloat]]] = {}


def spouge_shape(prec: int) -> int:
    """Shape parameter giving approximation error below 2**(8-prec).

    The Spouge error bound decays like (2*pi)**(-a), i.e. about 2.65 bits
    per unit of ``a``; 0.38 units per bit plus a safety margin covers it.
    """
    return math.ceil(0.38 * max(prec, 8)) + 2


def _bracket_cancellation_bits(z: float, a: int) -> int:
    """Guard bits for the alternating Spouge bracket sum.

    The largest summand |c_k| / (z+k) (near k = 0.22 a, about exp(1.28 a))
    far exceeds the bracket itself, ``Gamma(z+1) * (z+a)**-(z+1/2) *
    exp(z+a)``; the base-2 gap between the two is the number of leading bits
    lost to cancellation.
    """
    log2_max_term = max(
        (k - 0.5) * math.log2(a - k) + (a - k - math.lgamma(k)) / math.log(2) - math.log2(z + k)
        for k in range(1, a)
    )
    log2_bracket = (
        math.lgamma(z + 1) / math.log(2)
        - (z + 0.5) * math.log2(z + a)
        + (z + a) / math.log(2)
    )
    return max(0, math.ceil(log2_max_term - log2_bracket))


def _spouge_coefficients(a: int, prec: int) -> list[BigFloat]:
    cached = _coeff_cache.get(a)
    if cached is not None and cached[0] >= prec:
        return cached[1]
    wp = (3 * prec) // 2 + GUARD_BITS
    coeffs: list[BigFloat] = []
    fact = 1  # (k-1)!
    for k in range(1, a):
        if k > 1:
            fact *= k - 1
        base = BigFloat.from_int(a - k, wp)
        power = pow_int(base, k, wp).div(sqrt(base, wp), wp)
        c = power.mul(exp(BigFloat.from_int(a - k, wp), wp), wp)
        c = c.div(BigFloat.from_int(fact, wp), wp)
        if k % 2 == 0:
            c = c.neg()
        coeffs.append(c)
    _coeff_cache[a] = (prec, coeffs)
    return coeffs


def gamma_rational(x: Fraction, prec: int) -> BigFloat:
    """Gamma(x) for positive rational x, relative error below 2**(8-prec)."""
    x = Fraction(x)
    if x <= 0:
        raise DomainError(f"gamma requires a positive argument, got {x}")
    if x.denominator == 1:
        return BigFloat.from_int(math.factorial(int(x) - 1), prec)
    if x < 1:
        wp = prec + GUARD_BITS
        lifted = gamma_rational(x + 1, wp)
        return lifted.div(BigFloat.from_fraction(x, wp), prec)

    a = spouge_shape(prec)
    z = x - 1
    wp = prec + GUARD_BITS + 24 + _bracket_cancellation_bits(float(z), a)
    coeffs = _spouge_coefficients(a, wp)
    acc = sqrt(pi_reference(wp).mul_int(2, wp), wp)
    for k in range(1, a):
        acc = acc.add(coeffs[k - 1].div(BigFloat.from_fraction(z + k, wp), wp), wp)
    z_plus_a = BigFloat.from_fraction(z + a, wp)
    # (z+a)^(z+1/2) = exp((z+1/2) * ln(z+a))
    exponent = ln(z_plus_a, wp).mul_fraction(z + Fraction(1, 2), wp)
    prefactor = exp(exponent, wp)
    decay = exp(BigFloat.from_fraction(-(z + a), wp), wp)
    return prefactor.mul(decay, wp).mul(acc, wp).round_to(prec)


def gamma_quotient(
    upper: Sequence[Fraction], lower: Sequence[Fraction], prec: int
) -> BigFloat:
    """prod Gamma(upper_i) / prod Gamma(lower_j) at ``prec`` bits."""
    wp = prec + GUARD_BITS + 8 * max(1, len(upper) + len(lower)).bit_length()
    acc = BigFloat.from_int(1, wp)
    for u in upper:
        acc = acc.mul(gamma_rational(Fraction(u), wp), wp)
    for low in lower:
        acc = acc.div(gamma_rational(Fraction(low), wp), wp)
    return acc.round_to(prec)
