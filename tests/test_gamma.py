"""Gamma function at rational arguments via the Spouge approximation."""

import collections
import math
import random
from fractions import Fraction

import pytest

from hyperpi.bigfloat import BigFloat, pi_reference, sqrt
from hyperpi import gammafn
from hyperpi.errors import DomainError
from hyperpi.factorials import pochhammer
from hyperpi.gammafn import gamma_quotient, gamma_rational
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
    for bad in (Fraction(0), Fraction(-1, 6), Fraction(-3)):
        with pytest.raises(DomainError):
            gamma_rational(bad, 100)


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


@pytest.mark.parametrize(
    "x,digits",
    [(Fraction(p, q), 100) for p, q in ((1, 3), (2, 3), (1, 4), (3, 4), (1, 5), (5, 8))]
    + [(Fraction(1, 3), 300), (Fraction(5, 8), 300)]
    # z = x - 1 = 25/2 and 61/6: large z cancels the most bracket bits
    + [(Fraction(27, 2), 100), (Fraction(67, 6), 100), (Fraction(67, 6), 300)],
    ids=str,
)
def test_gamma_rational_matches_mpmath(x, digits):
    # the stated bound: relative error below 2**(8 - prec), and so below
    # 10**-digits at prec = digits * log2(10) + 8 bits; mpmath works 64 bits
    # deeper, so its own error is far below the slack of 2**-(prec + 32)
    mpmath = pytest.importorskip("mpmath")
    prec = math.ceil(digits * math.log2(10)) + 8
    with mpmath.workprec(prec + 64):
        man, exp = mpmath.gamma(mpmath.mpf(x.numerator) / x.denominator).man_exp
    reference = Fraction(man) * Fraction(2) ** exp
    error = abs(_exact(gamma_rational(x, prec)) - reference)
    assert error <= reference * (Fraction(1, 2 ** (prec - 8)) + Fraction(1, 2 ** (prec + 32)))
    assert error < reference / 10**digits


# z = x - 1 up to about 30 for denominators 2..10, the lifted range (0, 1)
# included; the two precisions fall on different Spouge shapes
CACHE_GRID = [
    Fraction(m * q + r, q) for q in range(2, 11) for m, r in ((0, 1), (4, q - 1), (16, 3), (30, 1))
]
CACHE_PRECS = (120, 300)


def _clear_gamma_caches():
    gammafn._coeff_cache.clear()
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


def test_each_shape_builds_its_coefficients_once(monkeypatch):
    builds = collections.Counter()
    build = gammafn._build_spouge_coefficients

    def counting_build(a):
        builds[a] += 1
        return build(a)

    monkeypatch.setattr(gammafn, "_build_spouge_coefficients", counting_build)
    _clear_gamma_caches()
    for prec in CACHE_PRECS:
        for x in CACHE_GRID:
            gamma_rational(x, prec)
        gamma_quotient(CACHE_GRID[:4], CACHE_GRID[-4:], prec)
    assert len(builds) >= 2
    assert set(builds.values()) == {1}


@pytest.mark.parametrize("a", [6, 7, 20, 48, 116, 300])
def test_float_cancellation_estimate_stays_under_the_integer_bound(a):
    bound = gammafn._cancellation_bound(a)
    for z in (0.0, 0.5, 1 / 3, 2.25, 12.5, 61 / 6, 30.1, 1e3, 1e6, 1e12):
        assert gammafn._bracket_cancellation_bits(z, a) <= bound


def test_shape_prec_limit_is_the_largest_precision_of_the_shape():
    for a in (6, 7, 8, 48, 116, 1290):
        limit = gammafn._shape_prec_limit(a)
        assert gammafn.spouge_shape(limit) == a
        assert gammafn.spouge_shape(limit + 1) == a + 1


@pytest.mark.parametrize("a", [6, 48, 116])
def test_coefficients_are_within_one_ulp_of_mpmath(a):
    mpmath = pytest.importorskip("mpmath")
    prec, coeffs = gammafn._build_spouge_coefficients(a)
    with mpmath.workprec(prec + 64):
        for k, c in enumerate(coeffs, start=1):
            exact = (-1) ** (k - 1) * mpmath.mpf(a - k) ** (k - mpmath.mpf(1) / 2)
            exact *= mpmath.exp(a - k) / mpmath.factorial(k - 1)
            man, exp = exact.man_exp  # man is |mantissa|
            reference = (-1) ** (k - 1) * Fraction(man) * Fraction(2) ** exp
            assert c.prec == prec
            assert abs(_exact(c) - reference) <= Fraction(2) ** c.exp
