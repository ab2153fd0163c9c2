"""Arbitrary-precision floating point: arithmetic, constants, digit output."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyperpi.bigfloat import (
    BigFloat,
    _ratio_candidates,
    agrees_to_bits,
    div_nearest,
    exp,
    ln,
    ln2_reference,
    pi_reference,
    pow_fraction,
    pow_int,
    round_shift,
    sin_pi,
    sqrt,
)
from hyperpi.errors import DomainError

PI_50 = "3.14159265358979323846264338327950288419716939937511"
LN2_40 = "0.6931471805599453094172321214581765680755"


def frac_of(num: int, den: int) -> Fraction:
    return Fraction(num, den)


small_fractions = st.builds(
    frac_of,
    st.integers(min_value=-(10**6), max_value=10**6),
    st.integers(min_value=1, max_value=10**6),
)


def test_round_trip_dyadic():
    x = Fraction(-77, 64)
    assert BigFloat.from_fraction(x, 80).to_fraction() == x


def bits_of(x: BigFloat) -> tuple[int, int, int]:
    return x.man, x.exp, x.prec


nonzero = st.integers(min_value=-(2**160), max_value=2**160).filter(bool)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=-(2**200), max_value=2**200),
    nonzero,
    nonzero,
    st.integers(min_value=1, max_value=200),
)
@example(0, 7, -3, 10)
@example(-5, 3, -(2**70), 1)
def test_from_ratio_matches_from_fraction(n, d, g, prec):
    got = BigFloat.from_ratio(n * g, d * g, prec)
    assert bits_of(got) == bits_of(BigFloat.from_fraction(Fraction(n, d), prec))


def test_from_ratio_near_rounding_midpoints():
    # v = (m + 1/2 + s * (1 + a/c) / 32) * 2**k sits 1/32 to 1/16 ulp from
    # the midpoint between m and m + 1, on the side away from the even one.
    # The first rounding at prec + 4 bits passes the midpoint, the one at
    # prec + 3 bits lands on it and then goes to even: the two candidates
    # differ, and only the reduced pair tells which one from_fraction gives.
    rng = random.Random(2718)  # SplitMix64.randint spans at most 2**64 values
    chose = set()
    for _ in range(200):
        prec = rng.randint(2, 160)
        m = rng.randint(1 << (prec - 1), (1 << prec) - 2)
        s = 1 if m % 2 == 0 else -1
        c = rng.randint(2, 1 << rng.randint(2, 60))
        a = rng.randint(1, c - 1)
        num, den = (32 * m + 16) * c + s * (c + a), 32 * c
        k = rng.randint(-200, 200)
        if k >= 0:
            num <<= k
        else:
            den <<= -k
        e, wide, narrow = _ratio_candidates(num, den, prec)
        assert bits_of(wide) != bits_of(narrow)
        value = Fraction(num, den)
        chose.add(value.numerator.bit_length() - value.denominator.bit_length() - e)
        sign = rng.choice((1, -1))
        g = rng.randint(1, 1 << 64) * rng.choice((1, -1))
        got = BigFloat.from_ratio(sign * num * g, den * g, prec)
        assert bits_of(got) == bits_of(BigFloat.from_fraction(sign * value, prec))
    assert chose == {0, 1}  # both candidates are picked somewhere


def test_from_ratio_first_rounding_ties():
    # m * 2**k with m odd of prec + 5 bits makes the first rounding an exact
    # tie (away from zero); low bits 01111 and 10001 put the second rounding
    # on a tie as well or one step off it.
    rng = random.Random(1414)
    for _ in range(100):
        prec = rng.randint(2, 160)
        top = rng.randint(1 << (prec - 1), (1 << prec) - 1)
        mantissa = (top << 5) | rng.choice((1, 15, 17, 31))
        value = rng.choice((1, -1)) * mantissa * Fraction(2) ** rng.randint(-200, 200)
        g = rng.randint(1, 1 << 64) * rng.choice((1, -1))
        got = BigFloat.from_ratio(value.numerator * g, value.denominator * g, prec)
        assert bits_of(got) == bits_of(BigFloat.from_fraction(value, prec))


def test_from_ratio_rejects_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        BigFloat.from_ratio(1, 0, 53)


def test_round_shift_nearest():
    assert round_shift(5, 1) == 2  # 2.5 -> ties to even
    assert round_shift(-5, 1) == -2
    assert round_shift(3, 1) == 2  # 1.5 -> ties to even
    assert round_shift(7, 2) == 2  # 1.75 -> nearest
    assert div_nearest(10, 4) == 3  # 2.5 -> ties away from zero
    assert div_nearest(-10, 4) == -3


@settings(max_examples=150, deadline=None)
@given(small_fractions, small_fractions)
def test_add_mul_match_exact_rationals(x, y):
    prec = 120
    bx = BigFloat.from_fraction(x, prec)
    by = BigFloat.from_fraction(y, prec)
    total = bx.add(by, prec).to_fraction()
    prod = bx.mul(by, prec).to_fraction()
    # each operand carries at most one half-ulp of representation error, so
    # the sum error scales with |x|+|y| (cancellation), the product with |xy|
    assert abs(total - (x + y)) <= (abs(x) + abs(y)) * Fraction(1, 2**117) + Fraction(
        1, 2**140
    )
    assert abs(prod - x * y) <= abs(x * y) * Fraction(1, 2**116) + Fraction(1, 2**140)


@settings(max_examples=80, deadline=None)
@given(small_fractions)
def test_div_inverts_mul(x):
    if x == 0:
        return
    prec = 128
    bx = BigFloat.from_fraction(x, prec)
    one = BigFloat.from_int(1, prec)
    recovered = one.div(bx, prec).mul(bx, prec)
    assert agrees_to_bits(recovered, one) > 120


def test_decimal_string_rounds_final_digit():
    third = BigFloat.from_fraction(Fraction(1, 3), 200)
    assert third.to_decimal_string(10) == "0.3333333333"
    two_thirds = BigFloat.from_fraction(Fraction(2, 3), 200)
    assert two_thirds.to_decimal_string(10) == "0.6666666667"
    assert BigFloat.from_fraction(Fraction(-1, 8), 64).to_decimal_string(3) == "-0.125"


def _machin_pi_scaled(digits: int) -> int:
    """round(pi * 10**digits) from Machin's formula in integers only."""
    fbits = int(digits * 3.33) + 64

    def arctan_inv(q: int) -> int:
        total, term, n = 0, (1 << fbits) // q, 0
        while term:
            total += term // (2 * n + 1) if n % 2 == 0 else -(term // (2 * n + 1))
            term //= q * q
            n += 1
        return total

    value = 16 * arctan_inv(5) - 4 * arctan_inv(239)
    return (value * 10**digits + (1 << (fbits - 1))) >> fbits


def _chunked_decimal(value: int) -> str:
    # least significant 1000 digits at a time; each str() stays far below
    # Python's int-to-str digit limit
    chunks = []
    while value:
        value, chunk = divmod(value, 10**1000)
        chunks.append(str(chunk).zfill(1000))
    return "".join(reversed(chunks)).lstrip("0") or "0"


def test_decimal_string_past_the_int_str_digit_limit():
    digits = 10**4
    text = pi_reference(int(digits * 3.33) + 128).to_decimal_string(digits)
    expected = _chunked_decimal(_machin_pi_scaled(digits))
    assert text == expected[0] + "." + expected[1:]
    # powers of ten around the splitting boundaries of the conversion
    for n in (1999, 2000, 2001, 4000, 4001, 8000, 12345):
        for value, want in ((10**n, "1" + "0" * n), (10**n - 1, "9" * n)):
            big = BigFloat.from_int(value, value.bit_length() + 1)
            assert big.to_decimal_string(0) == want
            assert BigFloat.from_int(-value, value.bit_length() + 1).to_decimal_string(0) == "-" + want


def test_pi_reference_digits():
    assert pi_reference(400).to_decimal_string(50) == PI_50
    # two precisions agree bit-for-bit on the shared prefix
    lo, hi = pi_reference(200), pi_reference(1200)
    assert agrees_to_bits(lo, hi.round_to(200)) >= 198


def test_ln2_reference():
    assert ln2_reference(300).to_decimal_string(40) == LN2_40


def test_pi_hex_digits():
    ref = pi_reference(4000)
    assert ref.hex_fraction_digits(0, 16) == "243F6A8885A308D3"
    assert ref.hex_fraction_digits(100, 12) == "29B7C97C50DD"


def test_sqrt_exp_ln_pow():
    prec = 256
    two = BigFloat.from_int(2, prec)
    root = sqrt(two, prec)
    assert agrees_to_bits(root.mul(root, prec), two) > 250
    x = BigFloat.from_fraction(Fraction(7, 5), prec)
    assert agrees_to_bits(ln(exp(x, prec), prec), x) > 240
    assert pow_int(two, 10, prec).to_fraction() == 1024
    assert agrees_to_bits(pow_fraction(two, Fraction(1, 2), prec), root) > 240


def test_sin_pi_special_values():
    prec = 256
    half = sin_pi(Fraction(1, 2), prec)
    assert half.to_fraction() == 1
    third = sin_pi(Fraction(1, 3), prec)
    expected = sqrt(BigFloat.from_int(3, prec), prec).div(
        BigFloat.from_int(2, prec), prec
    )
    assert agrees_to_bits(third, expected) > 245


def test_sqrt_rejects_negative():
    with pytest.raises(DomainError):
        sqrt(BigFloat.from_int(-2, 64), 64)


def test_agreement_sentinel_on_equality():
    x = BigFloat.from_fraction(Fraction(3, 4), 64)
    assert agrees_to_bits(x, x) == 10**9
