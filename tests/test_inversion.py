"""Inverse pairs of finite series transforms."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperpi import inversion
from hyperpi.inversion import (
    InversionScheme,
    random_scheme,
    random_sequence,
    roundtrip_check,
)
from hyperpi.prng import SplitMix64


fractions_st = st.builds(
    Fraction,
    st.integers(min_value=-60, max_value=60),
    st.integers(min_value=1, max_value=12),
)


def transform(weights, scheme, values, n):
    """One plain or extended transform at n, from the scheme's weight table."""
    return Fraction(*inversion._apply(weights(scheme, n), values[: n + 1]))


def phi(scheme, x, n):
    """The triangular product phi(x; n) from the scheme's prefix products."""
    nums, dens = scheme.phi_prefix(Fraction(x))
    return Fraction(nums[n], dens[n])


def test_constant_scheme_reduces_to_binomial_transform():
    # a_j = 1, b_j = 0 collapses the triangular products to 1, leaving the
    # classic alternating binomial transform, which is its own inverse.
    scheme = InversionScheme(
        a_values=(Fraction(1),) * 9, b_values=(Fraction(0),) * 9, lam=Fraction(0)
    )
    g_values = tuple(Fraction(v) for v in (3, -1, 4, 1, 5, -9, 2, 6))
    forward, inverse = inversion._PAIRS["plain"]
    n_max = 7
    for n in range(n_max + 1):
        f_n = transform(forward, scheme, g_values, n)
        expected = sum(
            Fraction((-1) ** k * math.comb(n, k)) * g_values[k] for k in range(n + 1)
        )
        assert f_n == expected
    f_values = [transform(forward, scheme, g_values, n) for n in range(n_max + 1)]
    for n in range(n_max + 1):
        assert transform(inverse, scheme, f_values, n) == g_values[n]
    assert roundtrip_check(scheme, g_values, n_max, "plain") == []


def test_phi_products_match_scheme():
    scheme = InversionScheme(
        a_values=tuple(Fraction(j + 1) for j in range(6)),
        b_values=tuple(Fraction(1, j + 2) for j in range(6)),
        lam=Fraction(0),
    )
    for n in range(5):
        x = Fraction(n)
        want = Fraction(1)
        for j in range(n):
            want *= scheme.a_values[j] + x * scheme.b_values[j]
        assert phi(scheme, x, n) == want


def test_random_round_trips_both_pairs():
    rng = SplitMix64(7)
    n_max = 9
    for pair in ("plain", "extended"):
        for _ in range(12):
            scheme = random_scheme(rng, n_max, extended=(pair == "extended"))
            sequence = random_sequence(rng, n_max)
            assert roundtrip_check(scheme, sequence, n_max, pair) == []


def test_degenerate_b_coefficients_allowed():
    rng = SplitMix64(11)
    hit_zero = False
    for _ in range(40):
        scheme = random_scheme(rng, 8, extended=False)
        hit_zero = hit_zero or any(b == 0 for b in scheme.b_values)
        sequence = random_sequence(rng, 8)
        assert roundtrip_check(scheme, sequence, 8, "plain") == []
    assert hit_zero  # the sampler actually exercises the degenerate case


def test_extended_pair_explicit_round_trip():
    # non-integer a_j keeps phi(-n; k+1) and phi(lam+n; k+1) clear of zero
    scheme = InversionScheme(
        a_values=tuple(Fraction(4 * j + 3, 2) for j in range(8)),
        b_values=(Fraction(1),) * 8,
        lam=Fraction(3, 2),
    )
    g_values = [Fraction(v, 3) for v in (1, 4, 1, 5, 9, 2, 6)]
    assert roundtrip_check(scheme, g_values, 6, "extended") == []


def test_round_trip_fails_against_a_shifted_inverse(monkeypatch):
    # the inverse of a scheme whose lam is off by one cannot recover g; each
    # recovered value is compared by cross-multiplication and reported reduced
    rng = SplitMix64(13)
    scheme = random_scheme(rng, 6, extended=True)
    sequence = random_sequence(rng, 6)
    assert roundtrip_check(scheme, sequence, 6, "extended") == []
    forward, inverse = inversion._PAIRS["extended"]
    monkeypatch.setitem(
        inversion._PAIRS, "extended",
        (forward, lambda s, n: inverse(s._replace(lam=s.lam + 1), n)),
    )
    failures = roundtrip_check(scheme, sequence, 6, "extended")
    assert failures
    first = "extended: inverse(forward(g))(1) = "
    assert failures[0].startswith(first)
    got, want = failures[0][len(first):].split(" != ")
    assert want == str(sequence[1])
    assert got == str(Fraction(got)) and Fraction(got) != sequence[1]


@pytest.mark.parametrize("pair", ["plain", "extended"])
def test_round_trip_builds_each_weight_table_once(monkeypatch, pair):
    # both composition orders share one forward and one inverse table per n
    calls = {"forward": 0, "inverse": 0}

    def counted(name, weights):
        def wrapper(scheme, n):
            calls[name] += 1
            return weights(scheme, n)
        return wrapper

    forward, inverse = inversion._PAIRS[pair]
    monkeypatch.setitem(
        inversion._PAIRS, pair, (counted("forward", forward), counted("inverse", inverse))
    )
    rng = SplitMix64(5)
    n_max = 6
    scheme = random_scheme(rng, n_max, extended=(pair == "extended"))
    assert roundtrip_check(scheme, random_sequence(rng, n_max), n_max, pair) == []
    assert calls == {"forward": n_max + 1, "inverse": n_max + 1}


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(fractions_st, st.one_of(st.just(Fraction(0)), fractions_st)),
             max_size=12),
    st.one_of(fractions_st, st.integers(min_value=-12, max_value=12).map(Fraction)),
    st.data(),
)
def test_phi_matches_stepwise_definition(pairs, x, data):
    a_vals = [a for a, _ in pairs]
    b_vals = [b for _, b in pairs]
    n = data.draw(st.integers(min_value=0, max_value=len(pairs)))
    want = Fraction(1)
    for j in range(n):
        want *= a_vals[j] + x * b_vals[j]
    got = phi(InversionScheme(tuple(a_vals), tuple(b_vals)), x, n)
    assert type(got) is Fraction
    assert got == want


def test_phi_edge_cases():
    a_vals = [Fraction(3, 2), Fraction(-1, 3), Fraction(2)]
    b_vals = [Fraction(0), Fraction(1, 3), Fraction(-5, 4)]
    scheme = InversionScheme(tuple(a_vals), tuple(b_vals))
    assert phi(scheme, Fraction(7, 5), 0) == 1
    # b_0 = 0: the first factor is a_0 whatever x is
    assert phi(scheme, Fraction(-9, 7), 1) == Fraction(3, 2)
    # a_1 + x b_1 = 0 at x = 1: the product vanishes
    assert phi(scheme, Fraction(1), 3) == 0
