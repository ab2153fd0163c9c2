"""Rising factorials, polynomial helpers, series terms."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyperpi.engine import series_term_pairs
from hyperpi.errors import DomainError, InvariantViolation, ZeroDenominator
from hyperpi.factorials import (
    SeriesSpec,
    poch_quotient,
    pochhammer,
    poly_eval,
    poly_expand,
    poly_values,
    term_eval,
)

fractions_st = st.builds(
    Fraction,
    st.integers(min_value=-60, max_value=60),
    st.integers(min_value=1, max_value=12),
)


def test_pochhammer_oracles():
    assert pochhammer(Fraction(1, 2), 0) == 1
    assert pochhammer(Fraction(1, 2), 2) == Fraction(3, 4)
    assert pochhammer(Fraction(1, 2), 3) == Fraction(15, 8)
    assert pochhammer(Fraction(1, 2), 4) == Fraction(105, 16)
    assert pochhammer(Fraction(-1, 6), 3) == Fraction(-55, 216)
    assert pochhammer(Fraction(-3), 5) == 0  # terminates past the root


@settings(max_examples=100, deadline=None)
@given(fractions_st, st.integers(min_value=0, max_value=12), st.integers(min_value=0, max_value=12))
def test_pochhammer_concatenation(x, m, n):
    assert pochhammer(x, m + n) == pochhammer(x, m) * pochhammer(x + m, n)


def test_poch_quotient_is_product_ratio():
    upper = (Fraction(1, 2), Fraction(3, 4))
    lower = (Fraction(5, 4), Fraction(3, 2), Fraction(1))
    for n in range(8):
        direct = pochhammer(upper[0], n) * pochhammer(upper[1], n)
        for low in lower:
            direct /= pochhammer(low, n)
        assert poch_quotient(upper, lower, n) == direct


# Step-by-step Fraction definitions: every product reduces after each
# factor.  The integer-product implementations must agree exactly.


def _pochhammer_reference(x, n):
    out = Fraction(1)
    for i in range(n):
        out *= x + i
    return out


def _poch_quotient_reference(upper, lower, n):
    num = Fraction(1)
    for u in upper:
        num *= _pochhammer_reference(u, n)
    den = Fraction(1)
    for low in lower:
        den *= _pochhammer_reference(low, n)
    if den == 0:
        return None
    return num / den


# integers and negative values included; small denominators make the
# lower factors vanish often enough to exercise ZeroDenominator
small_fractions_st = st.builds(
    Fraction,
    st.integers(min_value=-12, max_value=12),
    st.sampled_from((1, 1, 2, 3)),
)


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(fractions_st, st.integers(min_value=-20, max_value=20).map(Fraction)),
    st.integers(min_value=0, max_value=25),
)
@example(Fraction(-3), 5)
@example(Fraction(-3), 3)
@example(Fraction(7, 3), 0)
def test_pochhammer_matches_stepwise_definition(x, n):
    got = pochhammer(x, n)
    assert type(got) is Fraction
    assert got == _pochhammer_reference(x, n)


def test_pochhammer_rejects_negative_index():
    with pytest.raises(DomainError):
        pochhammer(Fraction(1, 2), -1)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(small_fractions_st, max_size=4),
    st.lists(small_fractions_st, max_size=4),
    st.integers(min_value=0, max_value=15),
)
@example([Fraction(-2)], [Fraction(-1)], 2)  # upper and lower both vanish
@example([Fraction(1, 2)], [Fraction(-4, 2)], 3)
@example([], [], 0)
def test_poch_quotient_matches_stepwise_definition(upper, lower, n):
    want = _poch_quotient_reference(upper, lower, n)
    if want is None:
        with pytest.raises(ZeroDenominator, match=f"n={n}$"):
            poch_quotient(upper, lower, n)
    else:
        assert poch_quotient(upper, lower, n) == want


int_coeffs = st.lists(st.integers(min_value=-10**6, max_value=10**6), min_size=1, max_size=6)
int_forms = st.lists(st.tuples(st.integers(-50, 50), st.integers(-6, 6)), max_size=5)


@settings(max_examples=60, deadline=None)
@given(int_coeffs, int_forms, st.integers(-40, 40), st.integers(0, 30))
def test_integer_polynomials_expand_and_list_exactly(coeffs, forms, lo, span):
    # the product of linear forms by its values at more points than its
    # degree, its listed values against poly_eval
    expanded = poly_expand(coeffs, forms)
    assert len(expanded) == len(coeffs) + len(forms)
    for x in range(-len(expanded), len(expanded)):
        want = poly_eval(coeffs, Fraction(x))
        for n, d in forms:
            want *= n + d * x
        assert poly_eval(expanded, Fraction(x)) == want
    assert list(poly_values(expanded, lo, lo + span)) == [
        poly_eval(expanded, Fraction(x)) for x in range(lo, lo + span)
    ]


def test_factorial_quotient_validation():
    def spec(upper, lower):
        return SeriesSpec(upper=upper, lower=lower, poly=(Fraction(1),), base=2)

    for low in (Fraction(0), Fraction(-3)):
        with pytest.raises(InvariantViolation, match=f"lower entry {low} is a non-positive"):
            spec((Fraction(1, 2),), (low,)).validate()
    spec((Fraction(-3),), (Fraction(1, 2),)).validate()  # upper may stop


GEOMETRIC = SeriesSpec(
    upper=(Fraction(1),),
    lower=(Fraction(1),),
    poly=(Fraction(1),),
    base=16,
)


def test_series_spec_validation():
    GEOMETRIC.validate()
    bad = [
        SeriesSpec(upper=(), lower=(), poly=(Fraction(1),), base=1),
        SeriesSpec(upper=(), lower=(), poly=(Fraction(1),), base=16, sign=2),
        SeriesSpec(upper=(), lower=(), poly=(Fraction(1),), base=16, start=-1),
        SeriesSpec(upper=(), lower=(), poly=(Fraction(0),), base=16),
        SeriesSpec(upper=(), lower=(Fraction(-2),), poly=(Fraction(1),), base=16),
    ]
    for spec in bad:
        with pytest.raises(InvariantViolation):
            spec.validate()


def test_term_eval_and_values():
    spec = SeriesSpec(
        upper=(Fraction(1, 2),),
        lower=(Fraction(3, 2),),
        poly=(Fraction(1), Fraction(2)),
        base=4,
        start=1,
        additive=Fraction(5),
        sign=-1,
    )
    # term k: -(1+2k) * (1/2)_k / (3/2)_k / 4^k, defined from start
    assert term_eval(spec, 1) == Fraction(-3) * Fraction(1, 2) / Fraction(3, 2) / 4
    assert [Fraction(*pair) for pair in series_term_pairs(spec, 3)] == [
        term_eval(spec, k) for k in (1, 2, 3)
    ]
    with pytest.raises(DomainError):
        term_eval(spec, 0)  # indices below start are rejected, not zeroed

