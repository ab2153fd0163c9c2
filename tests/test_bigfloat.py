"""Arbitrary-precision floating point: arithmetic, constants, digit output."""

import gc
import operator
import os
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyperpi import bigfloat, splitting
from hyperpi.bigfloat import (
    BigFloat,
    div_nearest,
    exp,
    ln,
    ln2_fixed,
    pi_reference,
    pow_int,
    round_shift,
    sqrt,
)
from hyperpi.errors import DomainError, InvariantViolation
from oracles import agrees_to_bits, hex_fraction_digits, pow_fraction, sin_pi, value_cmp

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


def floor_log2(value: Fraction) -> int:
    """e with 2**e <= value < 2**(e + 1), for value > 0, from comparisons."""
    e = value.numerator.bit_length() - value.denominator.bit_length()
    while Fraction(2) ** e > value:
        e -= 1
    while Fraction(2) ** (e + 1) <= value:
        e += 1
    return e


def assert_correctly_rounded(got: BigFloat, value: Fraction, prec: int) -> None:
    """``got`` is ``value`` rounded to nearest at ``prec`` bits, ties to even."""
    assert got.prec == prec
    if value == 0:
        assert got.man == 0
        return
    assert (got.man < 0) == (value < 0)
    assert abs(got.man).bit_length() == prec
    # ulp of value's binade; the result is an integer multiple of it (one
    # binade up when the rounding carries)
    ulp = Fraction(2) ** (floor_log2(abs(value)) + 1 - prec)
    steps = got.to_fraction() / ulp
    assert steps.denominator == 1
    error = abs(got.to_fraction() - value)
    assert error <= ulp / 2
    if error == ulp / 2:
        assert steps.numerator % 2 == 0


nonzero = st.integers(min_value=-(2**160), max_value=2**160).filter(bool)


@settings(max_examples=400, deadline=None)
@given(
    st.integers(min_value=-(2**200), max_value=2**200),
    nonzero,
    nonzero,
    st.integers(min_value=1, max_value=200),
)
@example(0, 7, -3, 10)
@example(-5, 3, -(2**70), 1)
@example(3, 2, 1, 1)  # 1.5 at one bit: a tie that carries into the next binade
@example(-(2**60 - 1), 2**7, 3, 53)
def test_from_ratio_is_correctly_rounded(n, d, g, prec):
    got = BigFloat.from_ratio(n, d, prec)
    assert_correctly_rounded(got, Fraction(n, d), prec)
    assert bits_of(BigFloat.from_ratio(n * g, d * g, prec)) == bits_of(got)
    assert bits_of(BigFloat.from_fraction(Fraction(n, d), prec)) == bits_of(got)


@st.composite
def near_midpoints(draw):
    """``(num, den, prec)`` with num/den = (m + 1/2 + delta) * 2**k: at
    (delta = 0) or within 1/16 ulp of the midpoint between two
    ``prec``-bit mantissas, on either side, either sign."""
    prec = draw(st.integers(min_value=1, max_value=200))
    m = draw(st.integers(min_value=1 << (prec - 1), max_value=(1 << prec) - 1))
    c = draw(st.integers(min_value=1, max_value=1 << 60))
    a = draw(st.integers(min_value=-(c // 16), max_value=c // 16))
    num, den = (2 * m + 1) * c + 2 * a, 2 * c
    k = draw(st.integers(min_value=-200, max_value=200))
    if k >= 0:
        num <<= k
    else:
        den <<= -k
    return draw(st.sampled_from((1, -1))) * num, den, prec


@settings(max_examples=400, deadline=None)
@given(near_midpoints(), nonzero)
@example((11, 2, 3), 1)  # 5.5 at three bits: the tie goes to 6
@example((-11, 2, 3), -7)
def test_from_ratio_near_rounding_midpoints(case, g):
    num, den, prec = case
    got = BigFloat.from_ratio(num, den, prec)
    assert_correctly_rounded(got, Fraction(num, den), prec)
    assert bits_of(BigFloat.from_ratio(num * g, den * g, prec)) == bits_of(got)


def test_from_ratio_first_rounding_ties():
    # m * 2**k with m of prec + 5 bits: low bits 10000 put the value exactly
    # on a rounding midpoint, 01111 and 10001 one 1/32 ulp either side of it,
    # 00001 and 11111 just past a representable value. Every case must come
    # out correctly rounded (ties to even) whatever common factor the
    # numerator and denominator carry.
    rng = random.Random(1414)
    for _ in range(100):
        prec = rng.randint(1, 160)
        top = rng.randint(1 << (prec - 1), (1 << prec) - 1)
        mantissa = (top << 5) | rng.choice((1, 15, 16, 17, 31))
        value = rng.choice((1, -1)) * mantissa * Fraction(2) ** rng.randint(-200, 200)
        got = BigFloat.from_ratio(value.numerator, value.denominator, prec)
        assert_correctly_rounded(got, value, prec)
        g = rng.randint(1, 1 << 64) * rng.choice((1, -1))
        scaled = BigFloat.from_ratio(value.numerator * g, value.denominator * g, prec)
        assert bits_of(scaled) == bits_of(got)
        assert bits_of(BigFloat.from_fraction(value, prec)) == bits_of(got)


@settings(max_examples=300, deadline=None)
@given(
    nonzero,
    st.integers(min_value=-300, max_value=300),
    st.integers(min_value=-(2**200), max_value=2**200),
    st.integers(min_value=-300, max_value=300),
    st.integers(min_value=1, max_value=200),
    st.integers(min_value=1, max_value=200),
)
def test_div_is_from_ratio_of_the_exact_quotient(dm, de, nm, ne, operand_prec, prec):
    x = BigFloat.normalize(nm, ne, operand_prec)
    y = BigFloat.normalize(dm, de, operand_prec)
    got = x.div(y, prec)
    exact = x.to_fraction() / y.to_fraction()
    assert bits_of(got) == bits_of(BigFloat.from_fraction(exact, prec))
    assert_correctly_rounded(got, exact, prec)


@st.composite
def rounding_balls(draw):
    """``(num, den, radius, prec)``: an interval ``(num ± radius) / den``
    at most an ulp or so wide, centred within an ulp of a representable
    value, of a tie, or of the lower binade edge (mantissa 2**(prec-1)) or
    the upper one (2**prec - 1), and reaching one, the other or neither;
    radius 0 is a point."""
    prec = draw(st.integers(min_value=1, max_value=120))
    m = draw(st.one_of(
        st.sampled_from((1 << (prec - 1), (1 << prec) - 1)),
        st.integers(min_value=1 << (prec - 1), max_value=(1 << prec) - 1),
    ))
    c = draw(st.integers(min_value=1, max_value=1 << 40))
    # in units of 1/(4c) ulp: the midpoint at m + a/(4c), the ends at
    # m + (a ± r)/(4c); an end sits on a tie when a ± r = ±2c
    a = draw(st.one_of(
        st.sampled_from((0, 2 * c, -2 * c, 4 * c - 1)),
        st.integers(min_value=-4 * c, max_value=4 * c),
    ))
    r = draw(st.one_of(
        st.sampled_from((0, abs(2 * c - a), abs(2 * c + a), 1)),
        st.integers(min_value=0, max_value=6 * c),
    ))
    num, den = 4 * m * c + a, 4 * c
    k = draw(st.integers(min_value=-80, max_value=80))
    if k >= 0:
        num, r = num << k, r << k
    else:
        den <<= -k
    sign = draw(st.sampled_from((1, -1)))
    return sign * num, draw(st.sampled_from((1, -1))) * den, r, prec


def _is_tie(value: Fraction, prec: int) -> bool:
    ulp = Fraction(2) ** (floor_log2(abs(value)) + 1 - prec)
    return (value / ulp).denominator == 2


@settings(max_examples=600, deadline=None)
@given(rounding_balls())
@example((4 * 5 + 1, 4, 0, 3))  # 5.25 at three bits: a point rounds down
@example((4 * 5 + 2, 4, 0, 3))  # 5.5: a tie, to even
@example((4 * 5 + 1, 4, 1, 3))  # [5, 5.5]: the upper end is a tie
@example((4 * 4, 4, 1, 3))  # [3.75, 4.25]: the lower end leaves the binade
@example((4 * 7 + 1, 4, 1, 3))  # [7, 7.5]: the upper end is a tie at the top
@example((63, 8, 2, 3))  # [7.625, 8.125]: across the upper binade edge, all rounds to 8
@example((1, 4, 1, 3))  # [0, 0.5]: an end at 0
@example((0, 4, 1, 3))  # [-0.25, 0.25]: across 0
def test_from_ratio_ball_rounds_the_whole_interval_or_declines(case):
    num, den, radius, prec = case
    got = BigFloat.from_ratio_ball(num, den, radius, prec)
    ends = sorted((Fraction(num - radius, den), Fraction(num + radius, den)))
    low, high = (BigFloat.from_ratio(e.numerator, e.denominator, prec) for e in ends)
    if got is not None:
        assert bits_of(got) == bits_of(low) == bits_of(high)
    else:
        # declined only where the ends round apart, an end is a tie, or the
        # ends lie in different binades or reach 0
        assert radius > 0
        assert (
            bits_of(low) != bits_of(high)
            or any(_is_tie(e, prec) for e in ends if e)
            or ends[0] <= 0 <= ends[1]
            or floor_log2(abs(ends[0])) != floor_log2(abs(ends[1]))
        )
    if radius == 0:
        assert got is not None
        assert_correctly_rounded(got, ends[0], prec)


def test_from_ratio_rejects_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        BigFloat.from_ratio(1, 0, 53)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=-(2**90), max_value=2**90),
    st.integers(min_value=-300, max_value=300),
    st.integers(min_value=1, max_value=130),
    st.integers(min_value=1, max_value=2**40),
)
@example(0, 7, 8, 3)
def test_fields_are_the_value_at_one_precision(man, exp, prec, factor):
    # every constructor rounds through normalize, so one value at one
    # precision has one set of fields: the tuple's == and hash are by value
    value = BigFloat.normalize(man, exp, prec)
    exact = value.to_fraction()
    one = BigFloat.from_int(1, prec)
    spellings = [
        BigFloat.normalize(value.man << 37, value.exp - 37, prec),
        BigFloat.from_fraction(exact, prec),
        BigFloat.from_ratio(exact.numerator * factor, exact.denominator * factor, prec),
        BigFloat.from_ratio_ball(exact.numerator, exact.denominator, 0, prec),
        BigFloat.from_fixed(value.man << 5, 5 - value.exp, prec),
        value.add(BigFloat.zero(prec), prec),
        BigFloat.zero(prec).add(value, prec),
        value.sub(value, prec).add(value, prec),
        value.mul(one, prec),
        value.div(one, prec),
        value.neg().neg(),
        value.abs() if man >= 0 else value.abs().neg(),
        value.round_to(prec + 40).round_to(prec),
    ]
    if exact.denominator == 1:
        spellings.append(BigFloat.from_int(exact.numerator, prec))
    for other in spellings:
        assert tuple(other) == tuple(value) and other == value and hash(other) == hash(value)
    # across precisions the fields differ, and only the value agrees
    wide = value.round_to(prec + 1)
    assert value_cmp(wide, value) == 0
    assert wide != value


def test_bigfloats_have_no_order():
    # as tuples they would order by (man, exp, prec), not by value
    small, large = BigFloat.from_int(1, 8), BigFloat.from_int(2, 4)
    for compare in (operator.lt, operator.le, operator.gt, operator.ge):
        with pytest.raises(TypeError, match="sub, is_zero or below_power_of_ten"):
            compare(small, large)


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


def test_decimal_text_leaves_no_reference_cycle():
    # a cycle would keep the powers of ten and the digit pieces alive until
    # the cyclic collector runs
    gc.collect()
    gc.disable()
    try:
        text = bigfloat._decimal_text(10**5000 + 1)
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert text == "1" + "0" * 4999 + "1"
    assert unreachable == 0


def test_pi_reference_digits():
    assert pi_reference(400).to_decimal_string(50) == PI_50
    # two precisions agree bit-for-bit on the shared prefix
    lo, hi = pi_reference(200), pi_reference(1200)
    assert agrees_to_bits(lo, hi.round_to(200)) >= 198


def test_ln2_reference():
    assert BigFloat.from_fixed(ln2_fixed(308), 308, 300).to_decimal_string(40) == LN2_40


# Cut and forked: every arctangent of pi_fixed and ln2_fixed, and the row of
# ln(LN_N) (about 5800 terms), sums more terms times bits than
# splitting._MIN_CUT_WORK here.
CUT_FBITS = 30000
LN_N = 23000


@pytest.fixture
def fresh_constants(monkeypatch):
    """Empty pi and ln 2 caches, two CPUs, and the forks of this process
    counted."""
    monkeypatch.setattr(bigfloat, "_pi_cache", {"fbits": -1, "value": 0})
    monkeypatch.setattr(bigfloat, "_ln2_cache", {"fbits": -1, "value": 0})
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    forks, parent, real_fork = [], os.getpid(), os.fork

    def fork():
        if os.getpid() == parent:
            forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    return forks


def _off_by(name):
    """|hyperpi's - mpmath's| ``pi_fixed`` or ``ln2_fixed`` at CUT_FBITS, or
    ``ln`` of LN_N at CUT_FBITS bits in units of its last place."""
    libelefun = pytest.importorskip("mpmath.libmp.libelefun")
    if name == "ln":
        value = ln(BigFloat.from_int(LN_N, CUT_FBITS), CUT_FBITS)
        _, man, e, _ = libelefun.mpf_log(libelefun.from_int(LN_N), CUT_FBITS + 64)
        return abs(value.man - round_shift(man, value.exp - e))
    return abs(getattr(bigfloat, name)(CUT_FBITS) - getattr(libelefun, name)(CUT_FBITS))


def test_constants_cut_and_forked_agree_with_mpmath(fresh_constants):
    assert _off_by("pi_fixed") <= 1
    assert _off_by("ln2_fixed") <= 1
    assert len(fresh_constants) == 6  # one child per arctangent
    assert _off_by("ln") <= 1
    assert len(fresh_constants) == 8  # ln's row, and ln 2 again 28 bits deeper


def _narrow_right_part(monkeypatch):
    monkeypatch.setattr(splitting, "_DECAY_MARGIN", -5000)


def _narrow_right_part_without_its_interval(monkeypatch):
    _narrow_right_part(monkeypatch)
    real_right_part = splitting._right_part
    monkeypatch.setattr(splitting, "_right_part", lambda *args: (*real_right_part(*args)[:4], 0))


def _dropped_child_part(monkeypatch):
    real_run_parts = splitting.run_parts

    def dropped(parts):  # the merge reads the child's part as an empty range
        return [(1, 1, 0, 0, 0), *real_run_parts(parts)[1:]]

    monkeypatch.setattr(splitting, "run_parts", dropped)


@pytest.mark.parametrize("name", ["pi_fixed", "ln2_fixed", "ln"])
@pytest.mark.parametrize(
    "fault", [_narrow_right_part, _narrow_right_part_without_its_interval, _dropped_child_part]
)
def test_splitter_faults_fail_the_constants(fresh_constants, monkeypatch, fault, name):
    # the reference shares the splitter with the catalog sums, so a fault in
    # it must raise (the interval's budget check, or Machin against Gauss)
    # or miss mpmath
    fault(monkeypatch)
    try:
        off = _off_by(name)
    except (DomainError, InvariantViolation):
        return
    assert off > 1


def test_pi_hex_digits():
    ref = pi_reference(4000)
    assert hex_fraction_digits(ref, 0, 16) == "243F6A8885A308D3"
    assert hex_fraction_digits(ref, 100, 12) == "29B7C97C50DD"


def test_sqrt_exp_ln_pow():
    prec = 256
    two = BigFloat.from_int(2, prec)
    root = sqrt(two, prec)
    assert agrees_to_bits(root.mul(root, prec), two) > 250
    x = BigFloat.from_fraction(Fraction(7, 5), prec)
    assert agrees_to_bits(ln(exp(x, prec), prec), x) > 240
    assert pow_int(two, 10, prec).to_fraction() == 1024
    assert agrees_to_bits(pow_fraction(two, Fraction(1, 2), prec), root) > 240


@pytest.mark.parametrize("prec", [64, 200, 1000, 3500])
def test_exp_and_ln_are_within_one_ulp(prec):
    # the stated bounds that gammafn's budget counts for N**s e**-N: ln of an
    # integer N, exp of an argument near -N, against mpmath 80 bits deeper
    mpmath = pytest.importorskip("mpmath")

    def ulps(value, reference):
        return abs(value.to_fraction() - reference) / Fraction(2) ** value.exp

    def exact(value):
        man, e = value.man_exp  # man is |mantissa|
        return (-1 if value < 0 else 1) * Fraction(man) * Fraction(2) ** e

    def at(x):  # the exact dyadic value of a BigFloat
        return mpmath.mpf(x.man) * mpmath.mpf(2) ** x.exp

    for n in (2, 3, 31, 97, 100, 1234, 2411, 4999):
        x = BigFloat.from_fraction(Fraction(-n * 7919, 7907), prec)
        with mpmath.workprec(prec + 80):
            ln_ref = exact(mpmath.log(n))
            exp_ref = exact(mpmath.exp(at(x)))
        assert ulps(ln(BigFloat.from_int(n, prec), prec), ln_ref) <= 1
        assert ulps(exp(x, prec), exp_ref) <= 1
    # ln below 1, of a non-integer, and of a power of two (no atanh row)
    for value in (Fraction(7907, 7919), Fraction(355, 113), Fraction(1, 2**37)):
        x = BigFloat.from_fraction(value, prec)
        with mpmath.workprec(prec + 80):
            ln_ref = exact(mpmath.log(at(x)))
        assert ulps(ln(x, prec), ln_ref) <= 1


def test_ln_calls_no_exp(monkeypatch):
    # ln is ln 2 and one atanh row of _arctan_fixed, no iteration on exp
    def no_exp(*args):
        raise AssertionError("ln called exp")

    monkeypatch.setattr(bigfloat, "exp", no_exp)
    for prec in (64, 3500):
        assert agrees_to_bits(
            ln(BigFloat.from_int(2411, prec), prec).add(ln(BigFloat.from_int(7, prec), prec), prec),
            ln(BigFloat.from_int(2411 * 7, prec), prec),
        ) >= prec - 2


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
