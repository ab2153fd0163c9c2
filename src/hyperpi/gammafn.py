"""Gamma function at rational arguments at arbitrary precision.

For 0 < s = p/q < 1, E. A. Karatsuba's series ("Fast evaluation of
transcendental functions", Probl. Inf. Transm. 27(4), 1991) splits the
Euler integral at an integer N:

    Gamma(s) = N^s e^(-N) sum_{k>=0} N^k / (s)_(k+1)  +  Gamma(s, N).

Its terms are t_k = (q/p) prod_{i<k} N q / (p + q + q i), so the first K
of them are one :func:`hyperpi.splitting.product_sum` with weight 1, alpha
= N q and beta = p + q + q i, scaled by q/p; the prefactor is one
``exp(s ln N - N)``.  Every other argument comes from the exact
recurrence: an integer argument is a factorial, Gamma(f + n) = Gamma(f)
(f)_n above (0, 1) and Gamma(f - n) = Gamma(f) / (f - n)_n below it.  The
poles 0, -1, -2, ... raise :class:`DomainError`; :func:`gamma_quotient`
gives a pole in its denominator the factor 1/Gamma = 0, since 1/Gamma is
entire.

Error budget
------------

:func:`_gamma_unit` works at ``w = prec + GUARD_BITS + prec.bit_length()``
bits, with N and K from :func:`_series_size`, in integers only:

* N = ceil(355 w / 512) >= w ln 2, since 355/512 > 0.6933 > ln 2.
* The upper tail: Gamma(s, N) <= N^(s-1) e^(-N) <= e^(-N) <= 2^-w, as
  t^(s-1) <= N^(s-1) on [N, oo) for s <= 1, and Gamma(s) >= 1 on (0, 1]
  (Gamma is convex with Gamma(1) = Gamma(2) = 1).
* The dropped terms: past k = 2N every term ratio N / (s + 1 + k) is below
  1/2, so they sum to at most 2 t_K <= 2^(1 - (K - 2N)) t_2N.  And t_2N /
  t_N <= prod_{j=1..N} N / (N + j) <= (e/4)^N <= 2^-floor(5N/9) (the log
  of the product is at most -N (2 ln 2 - 1), and e^9 < 2^13), with t_N <=
  the sum.  K = 2N + w + 1 - floor(5N/9) holds them to 2^-w of the sum.
  The code checks the same bound on the integers it summed: with (A, B,
  T) from ``product_sum``, t_K / sum = A / T.
* Rounding: the sum is one ``from_ratio`` (1/2 ulp at w bits), ``ln N``
  (checked bound in :func:`~hyperpi.bigfloat.ln`, ln N >= ln 24 > 3) and
  ``exp`` are each within 1 ulp, and the exponent s ln N - N adds three
  more roundings at w bits; its absolute error is below 4 N 2^-w, which
  ``exp`` turns into a relative one of the same size.  The product is
  rounded to ``prec`` bits, 1/2 ulp.

With 24 <= N < w these add up to 2^-prec (the last 1/2 ulp) plus less
than 8 N 2^-w, which is below 2^(-prec - 20) at every ``prec``.  So
:func:`gamma_rational` is within 2^(1 - prec) relative of Gamma(x): an
argument outside (0, 1) takes Gamma(f) at ``prec + GUARD_BITS`` bits and
one more rounding of its exact rational multiple.

One value per ``(x, prec)`` is cached for the life of the process, a
module dict like :mod:`hyperpi.bigfloat`'s pi cache; a value's bits depend
only on ``(x, prec)``, never on which arguments came before it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from hyperpi.bigfloat import GUARD_BITS, BigFloat, exp, ln
from hyperpi.errors import DomainError, InvariantViolation
from hyperpi.factorials import pochhammer
from hyperpi.splitting import product_sum

# (x, prec) -> gamma_rational(x, prec)
_value_cache: dict[tuple[Fraction, int], BigFloat] = {}


def gamma_rational(x: Fraction, prec: int) -> BigFloat:
    """Gamma(x) for rational x off the poles 0, -1, -2, ..., relative error
    below 2**(1-prec).

    Cached per ``(x, prec)`` for the life of the process.
    """
    x = Fraction(x)
    key = (x, prec)
    value = _value_cache.get(key)
    if value is None:
        value = _value_cache[key] = _gamma(x, prec)
    return value


def _gamma(x: Fraction, prec: int) -> BigFloat:
    n = math.floor(x)
    if x == n:
        if n <= 0:
            raise DomainError(f"gamma has a pole at {x}")
        return BigFloat.from_int(math.factorial(n - 1), prec)
    if n == 0:
        return _gamma_unit(x, prec)
    unit = gamma_rational(x - n, prec + GUARD_BITS)
    factor = pochhammer(x - n, n) if n > 0 else 1 / pochhammer(x, -n)
    value = BigFloat.from_ratio(unit.man * factor.numerator, factor.denominator, prec)
    return BigFloat(value.man, value.exp + unit.exp, prec)


def _series_size(w: int) -> tuple[int, int]:
    """(N, K) for a ``w``-bit series: the split point and the term count
    (module docstring)."""
    n = -(-355 * w >> 9)
    return n, 2 * n + w + 1 - 5 * n // 9


def _gamma_unit(s: Fraction, prec: int) -> BigFloat:
    """Gamma(s) for 0 < s < 1 by Karatsuba's series (module docstring)."""
    p, q = s.numerator, s.denominator
    w = prec + GUARD_BITS + prec.bit_length()
    n, terms = _series_size(w)
    nq = n * q
    a, b, t = product_sum(lambda j: 1, lambda i: nq, lambda i: p + q + q * i, 0, terms)
    if (a << (w + 1)) > t:
        raise InvariantViolation(f"gamma({s}): {terms} terms leave a tail above 2**-{w}")
    total = BigFloat.from_ratio(q * t, p * b, w)
    big_n = BigFloat.from_int(n, w)
    exponent = ln(big_n, w).mul_fraction(s, w).sub(big_n, w)
    return exp(exponent, w).mul(total, prec)


def gamma_quotient(
    upper: Sequence[Fraction], lower: Sequence[Fraction], prec: int
) -> BigFloat:
    """prod Gamma(upper_i) / prod Gamma(lower_j) at ``prec`` bits.

    A lower argument at a pole makes the quotient 0; an upper one raises
    :class:`DomainError`.
    """
    wp = prec + GUARD_BITS + 8 * max(1, len(upper) + len(lower)).bit_length()
    acc = BigFloat.from_int(1, wp)
    for u in upper:
        acc = acc.mul(gamma_rational(Fraction(u), wp), wp)
    for low in lower:
        low = Fraction(low)
        if low.denominator == 1 and low <= 0:
            return BigFloat.zero(prec)
        acc = acc.div(gamma_rational(low, wp), wp)
    return acc.round_to(prec)
