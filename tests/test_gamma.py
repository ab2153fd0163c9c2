"""Gamma function at rational arguments via Karatsuba's series, and the
pieces of its error budget."""

import math
import random
from fractions import Fraction

import pytest

from hyperpi.bigfloat import BigFloat, pi_reference, sqrt
from hyperpi import gammafn
from hyperpi.errors import DomainError, InvariantViolation
from hyperpi.factorials import pochhammer
from hyperpi.gammafn import gamma_quotient, gamma_rational
from hyperpi.splitting import product_sum
from oracles import agrees_to_bits, pow_fraction, sin_pi


def test_integer_values_are_factorials():
    prec = 200
    for n, expected in ((1, 1), (2, 1), (3, 2), (5, 24), (8, 5040)):
        value = gamma_rational(Fraction(n), prec)
        assert agrees_to_bits(value, BigFloat.from_int(expected, prec)) > 190


def test_half_integer_square_is_pi():
    prec = 300
    root_pi = gamma_rational(Fraction(1, 2), prec)
    assert agrees_to_bits(root_pi.mul(root_pi, prec), pi_reference(prec)) > 290


def test_recurrence():
    prec = 300
    for x in (Fraction(1, 3), Fraction(5, 6), Fraction(7, 12)):
        lhs = gamma_rational(x + 1, prec)
        rhs = gamma_rational(x, prec).mul(BigFloat.from_fraction(x, prec), prec)
        assert agrees_to_bits(lhs, rhs) > 285


def test_reflection():
    # gamma(x) * gamma(1-x) * sin(pi x) == pi
    prec = 300
    for x in (Fraction(1, 3), Fraction(1, 4), Fraction(5, 12)):
        product = (
            gamma_rational(x, prec)
            .mul(gamma_rational(1 - x, prec), prec)
            .mul(sin_pi(x, prec), prec)
        )
        assert agrees_to_bits(product, pi_reference(prec)) > 288


def test_quotient_known_value():
    # gamma(1)gamma(2)gamma(1)gamma(2) / gamma(1/2)^4 == 1/pi^2
    prec = 300
    half = Fraction(1, 2)
    value = gamma_quotient(
        (Fraction(1), Fraction(2), Fraction(1), Fraction(2)),
        (half, half, half, half),
        prec,
    )
    pi_val = pi_reference(prec)
    expected = BigFloat.from_int(1, prec).div(pi_val.mul(pi_val, prec), prec)
    assert agrees_to_bits(value, expected) > 288


def test_duplication():
    # gamma(2x) == gamma(x) gamma(x+1/2) 2^(2x-1) / sqrt(pi)
    prec = 300
    x = Fraction(5, 12)
    lhs = gamma_rational(2 * x, prec)
    two_pow = pow_fraction(BigFloat.from_int(2, prec), 2 * x - 1, prec)
    rhs = (
        gamma_rational(x, prec)
        .mul(gamma_rational(x + Fraction(1, 2), prec), prec)
        .mul(two_pow, prec)
        .div(sqrt(pi_reference(prec), prec), prec)
    )
    assert agrees_to_bits(lhs, rhs) > 285


def test_rejects_nonpositive_arguments():
    # only the poles 0, -1, -2, ... are rejected; a negative non-integer
    # has a value, here checked by reflection:
    # gamma(-1/6) gamma(7/6) = pi / sin(-pi/6) = -2 pi
    for bad in (Fraction(0), Fraction(-3)):
        with pytest.raises(DomainError):
            gamma_rational(bad, 100)
    prec = 300
    product = gamma_rational(Fraction(-1, 6), prec).mul(gamma_rational(Fraction(7, 6), prec), prec)
    expected = pi_reference(prec).mul(BigFloat.from_int(-2, prec), prec)
    assert agrees_to_bits(product, expected) > 290


def test_quotient_vanishes_at_a_lower_pole_and_rejects_an_upper_one():
    # 1/gamma is entire and vanishes at the poles; gamma itself has them
    half = Fraction(1, 2)
    assert gamma_quotient((half,), (Fraction(-1), half), 200).is_zero()
    for upper in ((Fraction(0),), (half, Fraction(-2))):
        with pytest.raises(DomainError):
            gamma_quotient(upper, (Fraction(-1),), 200)


def test_rising_factorial_consistency():
    # gamma(x + n) == pochhammer(x, n) * gamma(x)
    prec = 260
    x = Fraction(2, 3)
    for n in (1, 4, 9):
        lhs = gamma_rational(x + n, prec)
        rhs = gamma_rational(x, prec).mul(
            BigFloat.from_fraction(pochhammer(x, n), prec), prec
        )
        assert agrees_to_bits(lhs, rhs) > 250


def test_asymptotic_normalization_improves_with_n():
    # gamma(x + n) / (n^x * (n-1)!) -> 1
    prec = 200
    x = Fraction(1, 2)
    deviations = []
    for n in (10, 40, 160):
        factorial = Fraction(1)
        for j in range(2, n):
            factorial *= j
        ratio = (
            BigFloat.from_fraction(pochhammer(x, n), prec)
            .mul(gamma_rational(x, prec), prec)
            .div(pow_fraction(BigFloat.from_int(n, prec), x, prec), prec)
            .div(BigFloat.from_fraction(factorial, prec), prec)
        )
        deviations.append(abs(ratio.to_float() - 1.0))
    assert deviations[0] > deviations[1] > deviations[2]
    assert deviations[2] < 1e-3


def _exact(value: BigFloat) -> Fraction:
    return Fraction(value.man) * Fraction(2) ** value.exp


def _mp_exact(value) -> Fraction:
    man, exp = value.man_exp  # man is |mantissa|
    return (-1 if value < 0 else 1) * Fraction(man) * Fraction(2) ** exp


@pytest.mark.parametrize(
    "x,digits",
    [(Fraction(p, q), 100) for p, q in ((1, 3), (2, 3), (1, 4), (3, 4), (1, 5), (5, 8))]
    + [(Fraction(1, 3), 300), (Fraction(5, 8), 300)]
    # far above (0, 1), through the rising factorial (f)_n
    + [(Fraction(27, 2), 100), (Fraction(67, 6), 100), (Fraction(67, 6), 300)]
    # below it, through 1 / (x)_n: gamma(-1/2) = -2 sqrt(pi)
    + [(Fraction(-1, 2), 100), (Fraction(-3, 2), 100), (Fraction(-1, 6), 100)],
    ids=str,
)
def test_gamma_rational_matches_mpmath(x, digits):
    # the stated bound: relative error below 2**(1 - prec), and so below
    # 10**-digits at prec = digits * log2(10) + 8 bits; mpmath works 64 bits
    # deeper, so its own error is far below the slack of 2**-(prec + 32)
    mpmath = pytest.importorskip("mpmath")
    prec = math.ceil(digits * math.log2(10)) + 8
    with mpmath.workprec(prec + 64):
        reference = _mp_exact(mpmath.gamma(mpmath.mpf(x.numerator) / x.denominator))
    error = abs(_exact(gamma_rational(x, prec)) - reference)
    assert error <= abs(reference) * (Fraction(1, 2 ** (prec - 1)) + Fraction(1, 2 ** (prec + 32)))
    assert error < abs(reference) / 10**digits


# x from about -3 to 31 for denominators 2..10, the series range (0, 1) included
CACHE_GRID = [
    Fraction(m * q + r, q)
    for q in range(2, 11)
    for m, r in ((0, 1), (4, q - 1), (16, 3), (30, 1), (-3, 1))
]
CACHE_PRECS = (120, 300)


def _clear_gamma_caches():
    gammafn._value_cache.clear()


def _bits(value: BigFloat) -> tuple[int, int, int]:
    return value.man, value.exp, value.prec


def test_values_do_not_depend_on_cache_state_or_call_order():
    keys = [(x, prec) for prec in CACHE_PRECS for x in CACHE_GRID]
    cold = {}
    for x, prec in keys:
        _clear_gamma_caches()
        cold[x, prec] = _bits(gamma_rational(x, prec))
    _clear_gamma_caches()
    in_order = {key: _bits(gamma_rational(*key)) for key in keys}
    warm = {key: _bits(gamma_rational(*key)) for key in keys}
    shuffled = list(keys)
    random.Random(5).shuffle(shuffled)
    _clear_gamma_caches()
    reordered = {key: _bits(gamma_rational(*key)) for key in shuffled}
    assert in_order == cold
    assert warm == cold
    assert reordered == cold




# The pieces of the error budget in gammafn's docstring, one test each.


def test_series_size_meets_the_budget():
    # N >= w ln 2 (so e**-N <= 2**-w), K >= 2N (so every dropped term ratio
    # is below 1/2) and (e/4)**N <= 2**-floor(5N/9), for every w up to 4000
    # and a few far beyond; and the two constants that make them integers
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        ln2 = mpmath.log(2)
        assert mpmath.mpf(355) / 512 > ln2
        assert mpmath.e**9 < 2**13
        for w in [*range(2, 4001), 10**5, 10**7]:
            n, terms = gammafn._series_size(w)
            assert n >= w * ln2
            assert terms >= 2 * n
            assert n * (2 * ln2 - 1) >= (5 * n // 9) * ln2


@pytest.mark.parametrize("s", [Fraction(1, 10), Fraction(1, 2), Fraction(9, 10)], ids=str)
def test_dropped_terms_and_upper_tail_stay_under_the_budget(s):
    # the K summed terms against twice as many, whose own tail is far below,
    # and Gamma(s, N) <= N**(s-1) e**-N <= 2**-w <= 2**-w Gamma(s)
    mpmath = pytest.importorskip("mpmath")
    p, q = s.numerator, s.denominator
    for w in (40, 200, 700):
        n, terms = gammafn._series_size(w)
        alpha, beta = (lambda i: n * q), (lambda i: p + q + q * i)
        _, b, t = product_sum(lambda j: 1, alpha, beta, 0, terms)
        _, b_long, t_long = product_sum(lambda j: 1, alpha, beta, 0, 2 * terms)
        dropped = t_long * b - t * b_long  # over b * b_long
        assert 0 < dropped << w <= t * b_long
        with mpmath.workprec(w + 64):
            x = mpmath.mpf(p) / q
            assert mpmath.gammainc(x, n) <= mpmath.mpf(n) ** (x - 1) * mpmath.exp(-n)
            assert mpmath.mpf(n) ** (x - 1) * mpmath.exp(-n) <= mpmath.mpf(2) ** -w
            assert mpmath.gamma(x) >= 1


def test_too_few_terms_trip_the_tail_certificate(monkeypatch):
    # the code checks the dropped terms on the integers it summed
    size = gammafn._series_size
    monkeypatch.setattr(gammafn, "_series_size", lambda w: (size(w)[0], size(w)[0]))
    monkeypatch.setattr(gammafn, "_value_cache", {})
    with pytest.raises(InvariantViolation, match="tail"):
        gamma_rational(Fraction(1, 3), 100)
