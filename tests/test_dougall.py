"""Terminating well-poised identity, its limits, and the generator families."""

import hashlib
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperpi import dougall
from hyperpi.bigfloat import BigFloat
from hyperpi.dougall import (
    WellPoisedParams,
    _family_skeleton,
    _finite_params_admissible,
    _parity_params_admissible,
    assignment_scheme,
    family_scale,
    limit_series_term,
    normalize_theorem_series,
    parity_closed_form,
    random_finite_params,
    random_parity_params,
    theorem_closed_value,
    theorem_gamma_args,
    theorem_term,
    theorem_term_pairs,
    verify_chain,
    verify_dougall,
    verify_dual_relation,
    verify_parity_form,
)
from hyperpi.engine import series_term_pairs, sum_series
from hyperpi.errors import NoNonzeroTerm, NormalizationMismatch, ZeroDenominator
from hyperpi.factorials import SeriesSpec, poch_quotient, pochhammer, poly_values, term_eval
from hyperpi.gammafn import gamma_quotient
from hyperpi.prng import SplitMix64
from oracles import agrees_to_bits, random_valid_params, sum_series_fraction, value_cmp

F = Fraction


def P(a, b, c, d) -> WellPoisedParams:
    return WellPoisedParams.make(F(a), F(b), F(c), F(d))


ALL_HALF = P("1/2", "1/2", "1/2", "1/2")

# parameter choices where the stored series shapes hit removable 0 * (1/0)
# spots in the naive product form; the composed terms must stay finite
DEGENERATE_A = [
    P("1/2", "1/2", "1/2", "1/2"),
    P("1", "1/2", "1/2", "1/2"),
    P("1/2", "1/3", "1/3", "2/3"),
    P("7/6", "5/6", "1/2", "5/6"),
]


def test_terminating_identity_explicit_params():
    params = P("3/2", "1", "2", "3/4")
    for n in range(16):
        check = verify_dougall(params, n)
        assert check.passed, f"failed at n={n}: {check.lhs} != {check.rhs}"


def test_terminating_identity_small_oracle():
    # n = 0 reduces both sides to 1
    params = P("5/4", "1/2", "3/4", "1/3")
    check = verify_dougall(params, 0)
    assert check.lhs == 1 and check.rhs == 1


def test_terminating_identity_random():
    rng = SplitMix64(13)
    for _ in range(25):
        params = random_finite_params(rng, 10)
        n = rng.randint(0, 10)
        assert verify_dougall(params, n).passed


def _wellpoised_sum_reference(params, n):
    """The terminating sum term by term: each term built from its own
    rising factorials, every product reduced as a Fraction."""
    a, b, c, d = params.as_tuple()
    e = 1 + 2 * a + n - b - c - d
    upper = (a, b, c, d, e, F(-n))
    lower = (F(1), 1 + a - b, 1 + a - c, 1 + a - d, b + c + d - a - n, 1 + a + n)
    total = F(0)
    for k in range(n + 1):
        num = den = F(1)
        for u in upper:
            for i in range(k):
                num *= u + i
        for low in lower:
            for i in range(k):
                den *= low + i
        if den == 0:
            return k  # first index with a vanishing denominator
        total += (a + 2 * k) / a * num / den
    return total


def test_wellpoised_sum_matches_termwise_reference():
    rng = SplitMix64(29)
    checked = raised = 0
    for _ in range(150):
        params = WellPoisedParams(
            rng.fraction(6, 4, nonzero=True),
            rng.fraction(6, 4),
            rng.fraction(6, 4),
            rng.fraction(6, 4),
        )
        n = rng.randint(0, 12)
        want = _wellpoised_sum_reference(params, n)
        if isinstance(want, int):
            with pytest.raises(ZeroDenominator, match=f"k={want}$"):
                verify_dougall(params, n)
            raised += 1
        else:
            assert verify_dougall(params, n).lhs == want
            checked += 1
    assert checked > 50 and raised > 5


def _finite_params_admissible_reference(params, n_max):
    """The admissibility rule as first written: one check per degree n."""

    def hits_zero(x, span):
        return x.denominator == 1 and -span <= x <= 0

    a, b, c, d = params.as_tuple()
    if a == 0:
        return False
    for low in (1 + a - b, 1 + a - c, 1 + a - d, 1 + a - b - c - d):
        if hits_zero(low, n_max):
            return False
    for n in range(n_max + 1):
        if hits_zero(b + c + d - a - n, n) or hits_zero(1 + a + n, n):
            return False
    return True


def test_finite_params_admissible_matches_per_degree_rule():
    # a and s = b + c + d - a run over integers and half-integers around
    # both rejection ranges; with b and c fixed in sevenths, of the four
    # lower parameters of the closed form only 1+a-b-c-d = 1 - s can vanish
    a_values = [F(p, q) for q in (1, 2) for p in range(-28, 5)]
    s_values = [F(p, q) for q in (1, 2) for p in range(-3, 16)]
    b, c = F(1, 7), F(2, 7)
    mismatches = 0
    for n_max in (0, 1, 5, 12):
        for a in a_values:
            for s in s_values:
                params = WellPoisedParams(a, b, c, s + a - b - c)
                mismatches += _finite_params_admissible(params.scaled, n_max) != (
                    _finite_params_admissible_reference(params, n_max)
                )
    assert mismatches == 0
    rng = SplitMix64(31)
    for _ in range(2000):
        params = WellPoisedParams(*(rng.fraction(12, 4) for _ in range(4)))
        n_max = rng.randint(0, 20)
        assert _finite_params_admissible(params.scaled, n_max) == (
            _finite_params_admissible_reference(params, n_max)
        )


def test_finite_sampler_streams_match_per_degree_rule():
    # the seeded streams, and so the trials of verify dougall, stay as they were
    for seed in range(6):
        for n_max in (0, 5, 20):
            rng, reference = SplitMix64(seed), SplitMix64(seed)
            for _ in range(20):
                while True:
                    want = WellPoisedParams(
                        reference.fraction(10, 10, nonzero=True),
                        *(reference.fraction(10, 10) for _ in range(3)),
                    )
                    if _finite_params_admissible_reference(want, n_max):
                        break
                got = random_finite_params(rng, n_max)
                # the integer form handed over equals the one the fractions give
                assert got == want and got.scaled == want.scaled
            assert rng.state == reference.state


def test_from_scaled_presets_the_reduced_integer_form():
    # (q, aq, bq, cq, dq) over q = 24, twice the least: the values are the
    # fractions, and scaled is stored already, over the least q = 12, so a
    # change to how the class caches it cannot bring the lcm back unseen
    params = WellPoisedParams.from_scaled((24, 12, -8, 0, 18))
    want = WellPoisedParams.make(Fraction(1, 2), Fraction(-1, 3), 0, Fraction(3, 4))
    assert params == want
    assert vars(params)["scaled"] == (12, 6, -4, 0, 9) == want.scaled


def _chain_admissible_reference(params, n_max):
    """The chain's extra rule as first written: every divisor of
    :func:`verify_chain` evaluated as a fraction."""
    a = params.a
    scheme = assignment_scheme(params, n_max)
    for n in range(n_max + 1):
        if a + n == 0 or pochhammer(a, n) == 0:
            return False
        # phi(x; m) vanishes when its prefix numerator does
        phi_upper, phi_lower = scheme.phi_prefix(a + n)[0], scheme.phi_prefix(F(-n))[0]
        for k in range(n + 1):
            if phi_upper[k + 1] == 0 or phi_lower[k + 1] == 0:
                return False
            if pochhammer(a + n, k + 1) == 0 or pochhammer(a + k, n) == 0:
                return False
    return True


def _parity_params_admissible_reference(params, n_max, for_chain):
    """The sampler's rule by evaluation: run both identities at every degree."""
    try:
        for n in range(n_max + 1):
            verify_parity_form(params, n)
            verify_dual_relation(params, n)
    except ZeroDenominator:
        return False
    return not for_chain or _chain_admissible_reference(params, n_max)


def test_parity_params_admissible_matches_evaluation_rule():
    # every parameter an integer or half-integer, so that most lower forms of
    # the parity and dual checks sit on or next to their integer rejection
    # ranges; a runs over both of its ranges, [-2 n_max, 0] for the chain
    a_values = [F(p, 2) for p in range(-26, 5) if p]
    triples = [
        (F(b, 2), F(c, 2), F(d, 2))
        for b, c, d in ((1, 1, 1), (-3, 2, 5), (4, -1, -6), (0, 3, 2), (-8, -2, 7),
                        (6, 0, -3), (2, -5, 0), (-1, 4, -4))
    ]
    rejected = accepted = 0
    for n_max in (0, 3, 12):
        for a in a_values:
            for b, c, d in triples:
                params = WellPoisedParams(a, b, c, d)
                for for_chain in (False, True):
                    want = _parity_params_admissible_reference(params, n_max, for_chain)
                    assert _parity_params_admissible(params.scaled, n_max, for_chain) == want
                    accepted += want
                    rejected += not want
    rng = SplitMix64(41)
    for _ in range(2000):
        params = WellPoisedParams(
            rng.fraction(12, 2, nonzero=True), *(rng.fraction(12, 3) for _ in range(3))
        )
        n_max = rng.randint(0, 12)
        for for_chain in (False, True):
            want = _parity_params_admissible_reference(params, n_max, for_chain)
            assert _parity_params_admissible(params.scaled, n_max, for_chain) == want
            accepted += want
            rejected += not want
    assert accepted > 1000 and rejected > 1000


def test_parity_sampler_streams_match_evaluation_rule():
    # the seeded streams, and so the trials of verify chain, stay as they were
    for seed in range(6):
        for n_max in (2, 6, 12):
            for for_chain in (False, True):
                rng, reference = SplitMix64(seed), SplitMix64(seed)
                for _ in range(3):
                    while True:
                        want = WellPoisedParams(
                            reference.fraction(10, 10, nonzero=True),
                            *(reference.fraction(10, 10) for _ in range(3)),
                        )
                        if _parity_params_admissible_reference(want, n_max, for_chain):
                            break
                    got = random_parity_params(rng, n_max, for_chain=for_chain)
                    assert got == want and got.scaled == want.scaled
                assert rng.state == reference.state


def test_parity_form_splits_the_sum():
    rng = SplitMix64(17)
    for _ in range(10):
        params = random_parity_params(rng, 8)
        for n in range(9):
            assert verify_parity_form(params, n).passed
    # moderately deep single case
    params = P("5/4", "3/4", "1/2", "2/3")
    assert verify_parity_form(params, 30).passed


def test_dual_relation():
    rng = SplitMix64(19)
    for _ in range(10):
        params = random_parity_params(rng, 8)
        for n in range(9):
            assert verify_dual_relation(params, n).passed
    # the dual expansion agrees with its quotient on shifted parameters too
    params = P("5/4", "3/4", "1/2", "2/3")
    shifted = params._replace(b=params.b + F(1, 3), d=params.d - F(1, 6))
    assert verify_dual_relation(shifted, 5).passed


def test_identity_checks_fail_on_a_wrong_side(monkeypatch):
    # each side deliberately wrong by one parameter shift: the
    # cross-multiplied comparison must see it
    params = random_parity_params(SplitMix64(43), 8)
    n = 7
    checks = (verify_dougall, verify_parity_form, verify_dual_relation)
    right = {check: check(params, n) for check in checks}
    assert all(chk.passed for chk in right.values())
    closed_forms = dougall._closed_forms
    monkeypatch.setattr(
        dougall, "_closed_forms", lambda q, a, b, c, d: closed_forms(q, a, b + q, c, d)
    )
    wrong = verify_dougall(params, n)
    assert wrong.passed is False
    assert wrong.lhs == right[verify_dougall].lhs != wrong.rhs
    brackets = dougall.parity_closed_form
    monkeypatch.setattr(
        dougall, "parity_closed_form", lambda p, m: brackets(p._replace(b=p.b + F(1, 3)), m)
    )
    assert verify_parity_form(params, n).passed is False
    expansion = dougall._dual_expansion
    monkeypatch.setattr(
        dougall, "_dual_expansion", lambda p, m: expansion(p._replace(d=p.d + F(1, 3)), m)
    )
    wrong = verify_dual_relation(params, n)
    assert wrong.passed is False
    assert wrong.lhs == right[verify_dual_relation].lhs


def test_chain_derivation_term_for_term():
    rng = SplitMix64(23)
    for _ in range(6):
        params = random_parity_params(rng, 4, for_chain=True)
        assert verify_chain(params, 4) == []


def test_limit_terms_route_zero_denominators_to_typed_error():
    # 1 + a - b = 0 makes the shared lower factorial vanish
    params = P("1/2", "3/2", "1/2", "1/2")
    with pytest.raises(ZeroDenominator):
        for k in range(3):
            limit_series_term(params, k, "even")
            limit_series_term(params, k, "odd")


def test_limit_sum_reaches_gamma_quotient():
    prec = 400
    for params in (P("3/4", "1/2", "1/2", "3/4"), P("1", "2/3", "1/2", "5/6")):
        total = sum(
            limit_series_term(params, k, "even") + limit_series_term(params, k, "odd")
            for k in range(120)
        )
        upper, lower = theorem_gamma_args(params, "B")
        closed = gamma_quotient(upper, lower, prec)
        diff = BigFloat.from_fraction(total, prec).sub(closed, prec).abs()
        assert value_cmp(diff, BigFloat.from_fraction(F(1, 10**80), 64)) < 0


def test_theorem_a_composed_equals_prefactor_form():
    for params in (P("5/4", "1/2", "3/4", "1/3"), P("2", "5/6", "1/2", "3/4")):
        a, b, c, d = params.as_tuple()
        prefactor = (1 + a - c) * (b + c + d - a)
        for k in range(8):
            split = limit_series_term(params, k, "even") + limit_series_term(
                params, k, "odd"
            )
            assert theorem_term(params, "A", k) == prefactor * split


def test_theorem_a_terms_stay_finite_on_degenerate_parameters():
    for params in DEGENERATE_A:
        for k in range(6):
            theorem_term(params, "A", k)  # must not raise


def test_theorem_a_known_terms():
    assert theorem_term(ALL_HALF, "A", 0) == F(3, 32)
    assert theorem_term(ALL_HALF, "A", 1) == F(471, 65536)


def test_theorem_b_matches_interleaved_limit_terms():
    params = P("3/2", "3/2", "1/2", "3/2")
    for k in range(1, 8):
        expected = limit_series_term(params, k, "even") + limit_series_term(
            params, k - 1, "odd"
        )
        assert theorem_term(params, "B", k) == expected
    assert theorem_term(params, "B", 0) == limit_series_term(params, 0, "even")


def _fractions(pairs):
    # the generators' unreduced pairs never have a zero denominator
    assert all(den != 0 for _, den in pairs)
    return [F(num, den) for num, den in pairs]


# b + c + d - a = 0 is a lower parameter of family B, so only the A form
# stays finite there; a = d is finite in both
BOUNDARY_CASES = [(params, "A") for params in DEGENERATE_A]
BOUNDARY_CASES.append((P("3/2", "1/2", "1/2", "1/2"), "A"))  # b + c + d - a = 0
BOUNDARY_CASES += [(P("3/4", "1/2", "1/3", "3/4"), tag) for tag in ("A", "B")]  # a = d


def test_theorem_term_pairs_match_per_index_terms():
    rng = SplitMix64(37)
    for _ in range(4):
        params = random_valid_params(rng)
        for tag in ("A", "B"):
            expected = [theorem_term(params, tag, k) for k in range(61)]
            assert _fractions(theorem_term_pairs(params, tag, 60)) == expected


def test_theorem_term_pairs_on_boundary_parameters():
    for params, tag in BOUNDARY_CASES:
        expected = [theorem_term(params, tag, k) for k in range(61)]
        assert _fractions(theorem_term_pairs(params, tag, 60)) == expected


def test_series_term_pairs_match_term_eval():
    # the normalised descriptions of the same seeded and boundary parameters
    rng = SplitMix64(37)
    cases = [(random_valid_params(rng), tag) for _ in range(4) for tag in ("A", "B")]
    checked = 0
    for params, tag in cases + BOUNDARY_CASES:
        try:
            spec = normalize_theorem_series(params, tag)
        except NormalizationMismatch:
            continue
        expected = [term_eval(spec, k) for k in range(spec.start, 61)]
        assert _fractions(series_term_pairs(spec, 60)) == expected
        checked += 1
    assert checked >= 12


def _first_failing_index(params, tag):
    for k in range(20):
        try:
            theorem_term(params, tag, k)
        except ZeroDenominator:
            return k
    raise AssertionError("no zero denominator within k < 20")


def test_theorem_term_pairs_raise_where_theorem_term_raises():
    cases = [
        P("1/2", "5/2", "1/4", "1/3"),  # 1 + a - b = -1: index-k lower vanishes
        P("1/2", "1/3", "7/2", "1/4"),  # 1 + a - c = -2: index-2k lower vanishes
        P("1/2", "1/3", "1/4", "5/2"),  # 1 + a - d = -1: index-k lower vanishes
        P("3/2", "1/2", "1/2", "1/2"),  # b + c + d - a = 0: family B at k = 1
    ]
    for params in cases:
        for tag in ("A", "B"):
            try:
                k0 = _first_failing_index(params, tag)
            except AssertionError:
                assert (params, tag) == (cases[3], "A")  # finite in the A form
                continue
            assert k0 >= 1
            expected = [theorem_term(params, tag, k) for k in range(k0)]
            assert _fractions(theorem_term_pairs(params, tag, k0 - 1)) == expected
            with pytest.raises(ZeroDenominator):
                theorem_term_pairs(params, tag, k0)


def test_series_term_pairs_raise_where_term_eval_raises():
    # -2 is no valid lower parameter (validate refuses it), but the
    # generator, like term_eval, must stop at the first vanishing index
    for start in (0, 2, 3, 5):
        spec = SeriesSpec(
            upper=(F(1, 2),), lower=(F(-2), F(3, 2)), poly=(F(1), F(1)), base=16, start=start
        )
        first = max(start, 3)
        with pytest.raises(ZeroDenominator):
            term_eval(spec, first)
        if first > start:
            expected = [term_eval(spec, k) for k in range(start, first)]
            assert _fractions(series_term_pairs(spec, first - 1)) == expected
        with pytest.raises(ZeroDenominator):
            series_term_pairs(spec, first)


def theorem_b_literal_term(params: WellPoisedParams, k: int) -> Fraction:
    """Family-B term in its single-braces literal shape (k >= 1 only).

    This form divides by several linear factors and is therefore undefined
    at parameter coincidences; it is an independent cross-check of
    :func:`theorem_term` wherever those denominators are nonzero.
    """
    a, b, c, d = params.as_tuple()
    if k < 1:
        raise ZeroDenominator("the literal braces shape applies for k >= 1")
    den_parts = (
        (d + 3 * k),
        (a - c - d + k),
        (b - 1 + k),
        (b + c - a - 1 + k),
        (b + d - a - 1 + 2 * k),
    )
    for part in den_parts:
        if part == 0:
            raise ZeroDenominator("literal braces denominator vanished")
    braces = 1 + Fraction(
        2 * k * (b - 2 + 3 * k) * (a - b + k) * (a - c + 2 * k) * (b + c + d - a - 1 + 2 * k),
        (d + 3 * k)
        * (a - c - d + k)
        * (b - 1 + k)
        * (b + c - a - 1 + k)
        * (b + d - a - 1 + 2 * k),
    )
    upper, lower = _family_skeleton(params, "B")
    weight = poch_quotient(upper, lower, k) / Fraction(16) ** k
    return (a - d + k) * (d + 3 * k) * weight * braces


def test_theorem_b_literal_form_agrees():
    # the literal bracketed form carries a 1/(b+c-a) factor the composed
    # term absorbs, so it needs b + c - a != 0
    for params in (P("3/2", "3/2", "1/2", "3/2"), P("5/4", "1", "1/2", "3/4")):
        for k in range(1, 9):
            assert theorem_b_literal_term(params, k) == theorem_term(params, "B", k)


def test_theorem_b_literal_form_flags_vanishing_denominator():
    with pytest.raises(ZeroDenominator):
        theorem_b_literal_term(P("5/4", "3/4", "1/2", "2/3"), 1)  # b + c - a = 0


def test_theorem_sums_reach_closed_values():
    prec = 400
    cases = [("A", ALL_HALF), ("B", P("3/2", "3/2", "1/2", "3/2"))]
    for tag, params in cases:
        total = sum(theorem_term(params, tag, k) for k in range(300))
        closed = theorem_closed_value(params, tag, prec)
        diff = BigFloat.from_fraction(total, prec).sub(closed, prec).abs()
        assert value_cmp(diff, BigFloat.from_fraction(F(1, 10**100), 64)) < 0


def test_theorem_a_closed_value_all_half():
    # at all-1/2 parameters the closed value is gamma[1, 2, 1, 2] over
    # gamma[1/2]^4, an exact rational multiple of 1/pi^2
    prec = 300
    closed = theorem_closed_value(ALL_HALF, "A", prec)
    upper, lower = theorem_gamma_args(ALL_HALF, "A")
    assert sorted(upper) == sorted((F(1), F(2), F(1), F(2)))
    assert sorted(lower) == [F(1, 2)] * 4
    direct = gamma_quotient(upper, lower, prec)
    assert agrees_to_bits(closed, direct) == 10**9


def test_normalize_families_reproduce_terms():
    rng = SplitMix64(29)
    normalized = 0
    unsupported = 0
    for _ in range(8):
        params = random_valid_params(rng)
        for tag in ("A", "B"):
            try:
                spec = normalize_theorem_series(params, tag)
            except NormalizationMismatch:
                # double-degenerate B shapes (two vanishing numerator slots)
                # are declared unsupported rather than silently mis-normalized
                assert tag == "B"
                unsupported += 1
                continue
            spec.validate()
            normalized += 1
            for k in range(spec.start, 20):
                assert term_eval(spec, k) == theorem_term(params, tag, k)
    assert normalized >= 12
    assert unsupported <= 3


def test_normalize_handles_degenerate_a_parameters():
    for params in DEGENERATE_A:
        spec = normalize_theorem_series(params, "A")
        for k in range(12):
            assert term_eval(spec, k) == theorem_term(params, "A", k)


def test_normalize_b_restructured_start_and_additive():
    # these parameter boxes force a shifted start with a folded-in constant
    boxes = [
        (P("3/2", "1", "1/2", "3/4"), F(9, 16)),
        (P("7/4", "3/4", "1/2", "2"), F(-1, 2)),
        (P("2", "3/4", "1/2", "9/4"), F(-9, 16)),
        (P("2", "5/4", "1/2", "7/4"), F(7, 16)),
    ]
    for params, additive in boxes:
        spec = normalize_theorem_series(params, "B")
        assert spec.start == 1
        assert spec.additive == additive
        a, b, c, d = params.as_tuple()
        assert additive == d * (a - d)  # the k = 0 term folded into a constant
        total_direct = sum(theorem_term(params, "B", k) for k in range(80))
        total_spec = sum_series_fraction(spec, 80 - spec.start)
        assert total_spec == total_direct


def test_all_zero_family_normalises_but_has_no_scale_of_its_own():
    # every term of both families is 0 here (b = 0 and a = d): the
    # normaliser's fixed scale 1 accepts the description, while a scale read
    # off the terms is refused
    params = P("1/2", "0", "1/2", "1/2")
    for tag in ("A", "B"):
        assert all(theorem_term(params, tag, k) == 0 for k in range(51))
        spec = normalize_theorem_series(params, tag)
        assert family_scale(spec, params, tag, F(1)) == 1
        with pytest.raises(NoNonzeroTerm, match="no nonzero term pair at indices 1..50"):
            family_scale(spec, params, tag)


def test_normalize_rejects_unsupported_shapes():
    with pytest.raises(NormalizationMismatch):
        normalize_theorem_series(P("1", "1", "1", "2"), "B")


fractions_st = st.builds(F, st.integers(-60, 60), st.integers(1, 12))


@settings(max_examples=100, deadline=None)
@given(st.lists(fractions_st, min_size=1, max_size=6), fractions_st)
def test_deflate_undoes_a_linear_factor(poly, root):
    # p(k) (k - r) deflated at r gives p back; p(k) (k - r) + 1 is refused
    product = [low - root * high for low, high in zip([F(0), *poly], [*poly, F(0)])]
    assert dougall._deflate(product, root) == poly
    with pytest.raises(NormalizationMismatch, match="weight not divisible by k"):
        dougall._deflate([product[0] + 1, *product[1:]], root)


def test_family_weights_multiply_out_their_factored_forms():
    # the integer coefficients behind both normal forms and family A's term
    # pairs, against each weight evaluated factor by factor, over q**5 and q**6
    rng = SplitMix64(53)
    for _ in range(200):
        params = P(*(rng.fraction(12, 12) for _ in range(4)))
        q = params.scaled[0]
        a, b, c, d = params.as_tuple()
        weight_a, denominator_a = dougall._family_weight(params, "A")
        assert denominator_a == q**5
        assert list(poly_values(weight_a, 0, 12)) == [
            dougall._family_a_weight_at(params, k) for k in range(12)
        ]
        weight_b, denominator_b = dougall._family_weight(params, "B")
        assert denominator_b == q**6
        weight_b = poly_values(weight_b, 0, 12)
        for k, value in enumerate(weight_b):
            inner = (d + 3 * k) * (a - c - d + k) * (b - 1 + k) * (b + c - a - 1 + k) * (
                b + d - a - 1 + 2 * k
            ) + 2 * k * (b - 2 + 3 * k) * (a - b + k) * (a - c + 2 * k) * (
                b + c + d - a - 1 + 2 * k
            )
            assert F(value, q**6) == (a - d + k) * inner


def test_family_b_slots_hold_their_linear_forms(catalog_entries):
    # the normaliser reads x off the upper parameter 1 + x at each slot of
    # family B's row; these are the linear factors x + k of its weight
    assert dougall.FAMILIES["B"].slots == (3, 0, 4, 7)
    rng = SplitMix64(59)
    cases = [entry.params for entry in catalog_entries if entry.theorem == "B"]
    cases += [P(*(rng.fraction(12, 12) for _ in range(4))) for _ in range(100)]
    for params in cases:
        a, b, c, d = params.as_tuple()
        upper, _ = _family_skeleton(params, "B")
        assert [upper[slot] - 1 for slot in dougall.FAMILIES["B"].slots] == [
            a - c - d, b - 1, b + c - a - 1, (b + d - a - 1) / 2
        ]


def test_family_a_weight_expansion_is_checked_by_the_normaliser(monkeypatch):
    # family A's term pairs read the weight from its factored form, so a
    # fault in the multiplied-out coefficients fails the normaliser's proof
    real = dougall._family_weight

    def faulty(params, tag):
        weight, denominator = real(params, tag)
        return [weight[0], weight[1] + 1, *weight[2:]], denominator

    assert normalize_theorem_series(ALL_HALF, "A")
    monkeypatch.setattr(dougall, "_family_weight", faulty)
    with pytest.raises(NormalizationMismatch, match="term at k=1 is not 1 times the family A"):
        normalize_theorem_series(ALL_HALF, "A")


# sha256 of the flat descriptions that normalize_theorem_series gives for
# every catalog entry's parameters under its own tag; no report pins them
NORMALIZED_SPECS_DIGEST = "bb6890c5ca453d6ec8821d76b87ed1bb50dc889ffde758faf1401dc694f26444"


def test_normalized_catalog_families_are_pinned(catalog_entries):
    rows, shapes = [], {}
    for entry in catalog_entries:
        spec = normalize_theorem_series(entry.params, entry.theorem)
        rows.append([entry.entry_id, {
            "upper": [str(u) for u in spec.upper],
            "lower": [str(v) for v in spec.lower],
            "poly": [str(c) for c in spec.poly],
            "base": spec.base,
            "start": spec.start,
            "additive": str(spec.additive),
            "sign": spec.sign,
        }])
        shape = (entry.theorem, spec.start)
        shapes[shape] = shapes.get(shape, 0) + 1
    # family B folds its k = 0 term into the constant for 16 of its entries
    assert shapes == {("A", 0): 52, ("B", 0): 32, ("B", 1): 16}
    assert rows[0][1]["poly"] == ["3/32", "13/8", "45/4", "36", "107/2", "30"]
    digest = hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()
    assert digest == NORMALIZED_SPECS_DIGEST


def test_normalized_sums_match_closed_values_at_precision():
    prec = 400
    rng = SplitMix64(31)
    done = 0
    while done < 3:
        params = random_valid_params(rng)
        try:
            specs = [normalize_theorem_series(params, tag) for tag in ("A", "B")]
        except NormalizationMismatch:
            continue
        for tag, spec in zip(("A", "B"), specs):
            total = sum_series(spec, 150, prec)
            closed = theorem_closed_value(params, tag, prec)
            diff = total.sub(closed, prec).abs()
            assert value_cmp(diff, BigFloat.from_fraction(F(1, 10**60), 64)) < 0
        done += 1


def dual_limit_deviation(params: WellPoisedParams, n: int, prec: int = 220) -> float:
    """|n^2 * dual quotient / gamma quotient - 1| at degree n.

    The dual quotient decays like 1/n^2; scaled by n^2 it approaches the
    same gamma quotient the limiting series sums to, with an O(1/n) error.
    """
    upper, lower = theorem_gamma_args(params, "B")
    closed = gamma_quotient(upper, lower, prec)
    scaled = BigFloat.from_fraction(verify_dual_relation(params, n).lhs * n * n, prec)
    return abs(scaled.div(closed, prec).to_float() - 1.0)


def test_dual_limit_deviation_shrinks():
    params = P("5/4", "3/4", "1/2", "2/3")
    deviations = [dual_limit_deviation(params, n) for n in (50, 100, 200)]
    assert deviations[0] > deviations[1] > deviations[2]
