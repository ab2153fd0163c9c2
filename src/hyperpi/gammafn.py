"""Gamma function for positive rational arguments at arbitrary precision.

Uses Spouge's convergent approximation

    Gamma(z+1) = (z+a)^(z+1/2) * exp(-(z+a))
                 * [ sqrt(2*pi) + sum_{k=1}^{a-1} c_k / (z+k) ]

with integer shape parameter ``a`` chosen from the requested precision so
the relative error of the approximation stays below ``2**(8 - prec)``.  The
coefficients

    c_k = (-1)^(k-1) / (k-1)! * (a-k)^(k-1/2) * exp(a-k)

depend only on ``a``.  Each is built from the exact integer ratio
``(a-k)^k / (k-1)!``, one square root and a running power of e, so a set
costs one ``exp`` however large ``a`` is.  The bracket sum alternates and
cancels: its largest summand exceeds the bracket itself by a number of bits
that :func:`_cancellation_bound` bounds by an integer for every z >= 0.
The set is built once per shape, at the largest working precision any
argument of that shape can ask for, and never rebuilt.

Two per-process caches, module dicts like :mod:`hyperpi.bigfloat`'s pi
cache: one coefficient set per shape ``a``, and one value per
``(x, prec)`` in :func:`gamma_rational`.  A value's bits depend only on
``(x, prec)``, never on which arguments came before it.

Exact special cases: positive integers use the factorial directly.
Arguments in (0, 1) are lifted with Gamma(x) = Gamma(x+1)/x.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from hyperpi.bigfloat import GUARD_BITS, BigFloat, exp, ln, pi_reference, sqrt
from hyperpi.errors import DomainError, InvariantViolation

#: Guard bits of a Spouge evaluation on top of the requested precision and
#: the argument's bracket cancellation.
_EVAL_GUARD_BITS = GUARD_BITS + 24

# shape parameter a -> (coefficient precision, [c_1, ..., c_{a-1}])
_coeff_cache: dict[int, tuple[int, list[BigFloat]]] = {}
# (x, prec) -> gamma_rational(x, prec)
_value_cache: dict[tuple[Fraction, int], BigFloat] = {}


def spouge_shape(prec: int) -> int:
    """Shape parameter giving approximation error below 2**(8-prec).

    The Spouge error bound decays like (2*pi)**(-a), i.e. about 2.65 bits
    per unit of ``a``; 0.38 units per bit plus a safety margin covers it.
    """
    return math.ceil(0.38 * max(prec, 8)) + 2


def _shape_prec_limit(a: int) -> int:
    """Largest precision whose :func:`spouge_shape` is ``a``."""
    prec = math.ceil((a - 2) / 0.38)
    while spouge_shape(prec + 1) <= a:
        prec += 1
    while spouge_shape(prec) > a:
        prec -= 1
    return prec


def _bracket_cancellation_bits(z: float, a: int) -> int:
    """Guard bits for the alternating Spouge bracket sum at argument z + 1.

    The largest summand |c_k| / (z+k) (near k = 0.22 a, about exp(1.28 a))
    far exceeds the bracket itself, ``Gamma(z+1) * (z+a)**-(z+1/2) *
    exp(z+a)``; the base-2 gap between the two is the number of leading bits
    lost to cancellation.  A machine-float estimate: it sizes the working
    precision of one evaluation and never exceeds :func:`_cancellation_bound`.
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


def _cancellation_bound(a: int) -> int:
    """Integer bound, for every z >= 0, on the bits the bracket sum cancels.

    Each summand obeys |c_k| / (z+k) <= N_k / k! with N_k = (a-k)^k 3^(a-k),
    since (a-k)^(-1/2) <= 1, e < 3 and z + k >= k.  The bracket is at least
    sqrt(2 pi) > 2: Stirling's lower bound ln Gamma(w) >= (w - 1/2) ln w - w
    + ln sqrt(2 pi) at w = z + 1, with ln((z+a)/(z+1)) <= (a-1)/(z+1), leaves
    ln(bracket) >= ln sqrt(2 pi) + (a-1) (1 - (z+1/2)/(z+1)).  With
    N_k < 2**len(N_k) and k! >= 2**(len(k!) - 1) the gap is below
    2**(len(N_k) - len(k!)).
    """
    bound = 0
    factorial = 1
    for k in range(1, a):
        factorial *= k
        term = (a - k) ** k * 3 ** (a - k)
        bound = max(bound, term.bit_length() - factorial.bit_length())
    return bound


def _spouge_coefficients(a: int) -> tuple[int, list[BigFloat]]:
    """(precision, [c_1, ..., c_{a-1}]) for shape ``a``, built once."""
    cached = _coeff_cache.get(a)
    if cached is None:
        cached = _coeff_cache[a] = _build_spouge_coefficients(a)
    return cached


def _build_spouge_coefficients(a: int) -> tuple[int, list[BigFloat]]:
    """(precision, [c_1, ..., c_{a-1}]) for shape ``a``.

    The precision covers every evaluation of this shape: the largest
    requested precision with shape ``a``, the evaluation guard bits and the
    integer cancellation bound.  Coefficient k takes about a + 4 roundings
    at ``wp`` (the exact ratio (a-k)^k / (k-1)!, sqrt(a-k), up to a-2
    products of the running power e^(a-k), the quotient and the product),
    so ``a.bit_length()`` guard bits plus eight keep it within one ulp of
    the stored precision.
    """
    prec = _shape_prec_limit(a) + _EVAL_GUARD_BITS + _cancellation_bound(a)
    wp = prec + a.bit_length() + 8
    e = exp(BigFloat.from_int(1, wp), wp)
    e_power = e  # e^(a-k), from k = a-1 down to k = 1
    factorial = math.factorial(a - 2)  # (k-1)!
    coeffs: list[BigFloat] = []
    for k in range(a - 1, 0, -1):
        c = BigFloat.from_ratio((a - k) ** k, factorial, wp)
        c = c.div(sqrt(BigFloat.from_int(a - k, wp), wp), wp).mul(e_power, wp)
        if k % 2 == 0:
            c = c.neg()
        coeffs.append(c.round_to(prec))
        e_power = e_power.mul(e, wp)
        factorial //= max(k - 1, 1)
    coeffs.reverse()
    return prec, coeffs


def gamma_rational(x: Fraction, prec: int) -> BigFloat:
    """Gamma(x) for positive rational x, relative error below 2**(8-prec).

    Cached per ``(x, prec)`` for the life of the process.
    """
    x = Fraction(x)
    if x <= 0:
        raise DomainError(f"gamma requires a positive argument, got {x}")
    key = (x, prec)
    value = _value_cache.get(key)
    if value is None:
        value = _value_cache[key] = _gamma_positive(x, prec)
    return value


def _gamma_positive(x: Fraction, prec: int) -> BigFloat:
    if x.denominator == 1:
        return BigFloat.from_int(math.factorial(int(x) - 1), prec)
    if x < 1:
        wp = prec + GUARD_BITS
        lifted = gamma_rational(x + 1, wp)
        return lifted.div(BigFloat.from_fraction(x, wp), prec)

    a = spouge_shape(prec)
    z = x - 1
    wp = prec + _EVAL_GUARD_BITS + _bracket_cancellation_bits(float(z), a)
    coeff_prec, coeffs = _spouge_coefficients(a)
    if wp > coeff_prec:
        raise InvariantViolation(
            f"Spouge evaluation of gamma({x}) needs {wp} bits, more than the "
            f"{coeff_prec}-bit coefficients of shape {a}"
        )
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
