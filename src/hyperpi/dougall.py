"""Terminating very-well-poised series identities and the infinite-series
generator families built from them.

All finite verifications here are exact over the rationals.  The module
covers, for a parameter quadruple (a, b, c, d):

* Dougall's terminating identity: the degree-n very-well-poised sum equals
  a closed quotient of rising factorials (:func:`verify_dougall`).
* A parity-shifted closed form: the closed quotient with b and d shifted by
  floor(n/2) and ceil(n/2) factors into three bracket quotients
  (:func:`verify_parity_form`).
* A binomial dual expansion of the same data
  (:func:`verify_dual_relation`), together with the explicit inverse-pair
  assignment connecting it to the extended binomial inversion
  (:func:`verify_chain`).
* Two infinite-series generator families, tagged "A" and "B", whose sums
  are four-factor gamma quotients; :func:`normalize_theorem_series` turns
  either family into a flat :class:`~hyperpi.factorials.SeriesSpec` in base
  16 and proves the rewrite exact term by term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from hyperpi.bigfloat import BigFloat
from hyperpi.errors import (
    InvariantViolation,
    NormalizationMismatch,
    ZeroDenominator,
    ZeroLeadParameter,
)
from hyperpi.factorials import (
    SeriesSpec,
    binomial,
    poch_quotient,
    poch_step,
    pochhammer,
    poly_divmod,
    poly_eval,
    poly_interpolate,
    poly_scale,
    poly_trim,
    term_values,
)
from hyperpi.gammafn import gamma_quotient
from hyperpi.inversion import InversionScheme, forward_extended
from hyperpi.prng import SplitMix64

_HALF = Fraction(1, 2)

#: Last index of the exact termwise checks: :func:`normalize_theorem_series`
#: proves its rewrite and :func:`hyperpi.catalog.match_to_theorem` its
#: proportionality for every k through this index.
CHECK_WINDOW = 50


@dataclass(frozen=True)
class WellPoisedParams:
    """Parameter quadruple of a very-well-poised series."""

    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction

    @staticmethod
    def make(a, b, c, d) -> "WellPoisedParams":
        return WellPoisedParams(Fraction(a), Fraction(b), Fraction(c), Fraction(d))

    def as_tuple(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return (self.a, self.b, self.c, self.d)

    def shifted(self, db: Fraction, dd: Fraction) -> "WellPoisedParams":
        return WellPoisedParams(self.a, self.b + db, self.c, self.d + dd)


@dataclass(frozen=True)
class IdentityCheck:
    """Outcome of one exact identity instance."""

    lhs: Fraction
    rhs: Fraction

    @property
    def passed(self) -> bool:
        return self.lhs == self.rhs


# ----------------------------------------------------------------------
# terminating identity
# ----------------------------------------------------------------------


def closed_form_quotient(params: WellPoisedParams, n: int) -> Fraction:
    """The closed rising-factorial quotient equal to the terminating sum."""
    a, b, c, d = params.as_tuple()
    return poch_quotient(
        (1 + a, 1 + a - b - c, 1 + a - b - d, 1 + a - c - d),
        (1 + a - b, 1 + a - c, 1 + a - d, 1 + a - b - c - d),
        n,
    )


def wellpoised_sum(params: WellPoisedParams, n: int) -> Fraction:
    """Degree-n very-well-poised sum with the terminating fifth numerator
    parameter chosen so the closed form applies.

    The sum is kept as one unreduced integer pair: with every parameter
    written p/q, the step from term k to term k + 1 multiplies the running
    numerator by prod (p_u + k q_u) prod q_l and the running denominator by
    prod q_u prod (p_l + k q_l), and the pair is reduced once at the end.
    """
    a, b, c, d = params.as_tuple()
    if a == 0:
        raise ZeroLeadParameter("the leading parameter must be nonzero")
    e = 1 + 2 * a + n - b - c - d
    upper = (a, b, c, d, e, Fraction(-n))
    lower = (Fraction(1), 1 + a - b, 1 + a - c, 1 + a - d, b + c + d - a - n, 1 + a + n)
    upper_pq = [(u.numerator, u.denominator) for u in upper]
    lower_pq = [(low.numerator, low.denominator) for low in lower]
    pa, qa = a.numerator, a.denominator
    # sum = acc / (den * pa); term k is (pa + 2k qa) / pa * num / den
    acc = pa
    num = den = 1
    for k in range(n):
        up = lo = 1
        for p, q in upper_pq:
            up *= p + k * q
            lo *= q
        for p, q in lower_pq:
            lo *= p + k * q
            up *= q
        if lo == 0:
            raise ZeroDenominator(f"series denominator vanished at k={k + 1}")
        num *= up
        den *= lo
        acc = acc * lo + (pa + 2 * (k + 1) * qa) * num
    return Fraction(acc, den * pa)


def verify_dougall(params: WellPoisedParams, n: int) -> IdentityCheck:
    """Exact check: terminating sum against the closed quotient."""
    return IdentityCheck(wellpoised_sum(params, n), closed_form_quotient(params, n))


# ----------------------------------------------------------------------
# parity-shifted closed form
# ----------------------------------------------------------------------


def parity_closed_form(params: WellPoisedParams, n: int) -> Fraction:
    """Three-bracket factorization of the parity-shifted closed quotient."""
    a, b, c, d = params.as_tuple()
    half_down = n // 2
    half_up = n - half_down
    return (
        poch_quotient((1 + a - c - d, b + c - a), (1 + a - d, b - a), half_down)
        * poch_quotient((1 + a, b + d - a), (1 + a - c, b + c + d - a), n)
        * poch_quotient((1 + a - b - c, c + d - a), (1 + a - b, d - a), half_up)
    )


def verify_parity_form(params: WellPoisedParams, n: int) -> IdentityCheck:
    """Closed quotient at (b + floor(n/2), d + ceil(n/2)) vs the bracket product."""
    shifted = params.shifted(Fraction(n // 2), Fraction(n - n // 2))
    return IdentityCheck(closed_form_quotient(shifted, n), parity_closed_form(params, n))


# ----------------------------------------------------------------------
# binomial dual expansion
# ----------------------------------------------------------------------


def dual_quotient(params: WellPoisedParams, n: int) -> Fraction:
    """Left-hand quotient of the dual expansion at degree n."""
    a, b, c, d = params.as_tuple()
    return poch_quotient(
        (b, c, d, 1 + 2 * a - b - c - d),
        (1 + a - b, 1 + a - c, 1 + a - d, b + c + d - a),
        n,
    )


def dual_summand(params: WellPoisedParams, n: int, k: int) -> Fraction:
    """Signed k-th term of the dual expansion (k = 0..n).

    Even k contributes positively, odd k negatively; the two parities carry
    structurally different weights.
    """
    a, b, c, d = params.as_tuple()
    common_e = poch_quotient((1 + a - c - d, b, b + c - a), (1 + a - d,), k // 2)
    if k % 2 == 0:
        j = k // 2
        num = (
            binomial(n, k)
            * (d + 3 * j)
            * (d - a - j)
            * pochhammer(a + n, 2 * j)
            * common_e
            * poch_quotient((1 + a - b - c, d, c + d - a), (1 + a - b,), j)
            * pochhammer(b + d - a, 2 * j)
        )
        den = (
            pochhammer(b + n, j)
            * pochhammer(b - a - n, j)
            * pochhammer(d + n, j + 1)
            * pochhammer(d - a - n, j + 1)
            * pochhammer(1 + a - c, 2 * j)
            * pochhammer(b + c + d - a, 2 * j)
        )
        if den == 0:
            raise ZeroDenominator(f"dual summand denominator vanished at n={n}, k={k}")
        return num / den
    j = (k - 1) // 2
    num = (
        binomial(n, k)
        * (b + 3 * j + 1)
        * (b - a - j - 1)
        * pochhammer(a + n, 2 * j + 1)
        * common_e
        * poch_quotient((1 + a - b - c, d, c + d - a), (1 + a - b,), j + 1)
        * pochhammer(b + d - a, 2 * j + 1)
    )
    den = (
        pochhammer(b + n, j + 1)
        * pochhammer(b - a - n, j + 1)
        * pochhammer(d + n, j + 1)
        * pochhammer(d - a - n, j + 1)
        * pochhammer(1 + a - c, 2 * j + 1)
        * pochhammer(b + c + d - a, 2 * j + 1)
    )
    if den == 0:
        raise ZeroDenominator(f"dual summand denominator vanished at n={n}, k={k}")
    return -num / den


def dual_expansion_sum(params: WellPoisedParams, n: int) -> Fraction:
    return sum((dual_summand(params, n, k) for k in range(n + 1)), Fraction(0))


def verify_dual_relation(params: WellPoisedParams, n: int) -> IdentityCheck:
    """Exact check: dual quotient against its binomial expansion."""
    return IdentityCheck(dual_quotient(params, n), dual_expansion_sum(params, n))


# ----------------------------------------------------------------------
# the inverse-pair assignment behind the dual expansion
# ----------------------------------------------------------------------


def assignment_scheme(params: WellPoisedParams, n_max: int) -> InversionScheme:
    """Scheme whose extended inverse pair produces the dual expansion.

    The defining sequence alternates between the two parameter offsets:
    a_j = d - a + j/2 for even j and a_j = b - a + (j-1)/2 for odd j, with
    b_j identically one and the extension parameter equal to a.
    """
    a, b, _, d = params.as_tuple()
    a_vals = []
    for j in range(n_max + 1):
        if j % 2 == 0:
            a_vals.append(d - a + Fraction(j, 2))
        else:
            a_vals.append(b - a + Fraction(j - 1, 2))
    return InversionScheme(tuple(a_vals), (Fraction(1),) * (n_max + 1), lam=a)


def assignment_g(params: WellPoisedParams, k: int) -> Fraction:
    """g-sequence of the assignment: the dual quotient times (a)_k / a."""
    a = params.a
    if a == 0:
        raise ZeroLeadParameter("the leading parameter must be nonzero")
    return dual_quotient(params, k) * pochhammer(a, k) / a


def assignment_f(params: WellPoisedParams, n: int, scheme: InversionScheme) -> Fraction:
    """f-sequence of the assignment: the parity-shifted closed form scaled
    by the scheme's triangular products."""
    a = params.a
    shifted = params.shifted(Fraction(n // 2), Fraction(n - n // 2))
    return (
        closed_form_quotient(shifted, n)
        * scheme.phi(a, n)
        * scheme.phi(Fraction(0), n)
        / (a + n)
    )


def verify_chain(params: WellPoisedParams, n_max: int) -> list[str]:
    """Exact cross-checks linking closed form, inversion and dual expansion.

    Returns a list of failure descriptions (empty when all hold):

    1. the parity-shifted closed form factorization at each n,
    2. the extended forward transform of g reproduces f,
    3. each dual summand equals the corresponding inverse-transform term,
    4. the dual expansion totals the dual quotient.
    """
    a = params.a
    failures: list[str] = []
    scheme = assignment_scheme(params, n_max)
    g_vals = [assignment_g(params, k) for k in range(n_max + 1)]
    f_vals = [assignment_f(params, n, scheme) for n in range(n_max + 1)]

    for n in range(n_max + 1):
        chk = verify_parity_form(params, n)
        if not chk.passed:
            failures.append(f"parity form failed at n={n}: {chk.lhs} != {chk.rhs}")

    for n in range(n_max + 1):
        got = forward_extended(scheme, lambda k: g_vals[k], n)
        if got != f_vals[n]:
            failures.append(f"forward transform at n={n}: {got} != {f_vals[n]}")

    for n in range(n_max + 1):
        poch_a_n = pochhammer(a, n)
        if poch_a_n == 0:
            failures.append(f"(a)_n vanished at n={n}")
            continue
        for k in range(n + 1):
            a_k = scheme.a_of(k)
            weight = (a_k + a + k) * (a_k - k)
            den = scheme.phi(a + n, k + 1) * scheme.phi(Fraction(-n), k + 1)
            if den == 0:
                failures.append(f"phi denominator vanished at n={n}, k={k}")
                continue
            term = (
                Fraction(-1) ** k
                * binomial(n, k)
                * weight
                / den
                * pochhammer(a + k, n)
                * f_vals[k]
                * a
                / poch_a_n
            )
            want = dual_summand(params, n, k)
            if term != want:
                failures.append(
                    f"summand mapping at n={n}, k={k}: {term} != {want}"
                )

    for n in range(n_max + 1):
        chk = verify_dual_relation(params, n)
        if not chk.passed:
            failures.append(f"dual expansion failed at n={n}: {chk.lhs} != {chk.rhs}")
    return failures


# ----------------------------------------------------------------------
# infinite-series generator families
# ----------------------------------------------------------------------


def limit_series_term(params: WellPoisedParams, k: int, branch: str) -> Fraction:
    """k-th term of the even/odd branch of the limiting series.

    The limiting series is the degree-to-infinity limit of the dual
    expansion; its total over both branches is the four-factor gamma
    quotient :func:`limit_gamma_args`.  The factors are arranged so that
    coincidences such as a = d cause no spurious 0/0.
    """
    a, b, c, d = params.as_tuple()
    shared = poch_quotient((1 + a - c - d, b, b + c - a), (1 + a - d,), k)
    if branch == "even":
        return (
            (d + 3 * k)
            * (a - d + k)
            / math.factorial(2 * k)
            * poch_quotient((b + d - a,), (1 + a - c, b + c + d - a), 2 * k)
            * shared
            * poch_quotient((1 + a - b - c, d, c + d - a), (1 + a - b,), k)
        )
    if branch == "odd":
        return (
            (b + 3 * k + 1)
            / math.factorial(2 * k + 1)
            * poch_quotient((b + d - a,), (1 + a - c, b + c + d - a), 2 * k + 1)
            * shared
            * poch_quotient((1 + a - b - c, d, c + d - a), (1 + a - b,), k)
            * (1 + a - b - c + k)
            * (d + k)
            * (c + d - a + k)
        )
    raise ValueError(f"unknown branch {branch!r}")


def limit_gamma_args(params: WellPoisedParams) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Gamma-quotient closed value of the limiting series (upper, lower)."""
    a, b, c, d = params.as_tuple()
    return (
        (1 + a - b, 1 + a - c, 1 + a - d, b + c + d - a),
        (b, c, d, 1 + 2 * a - b - c - d),
    )


def theorem_term(params: WellPoisedParams, tag: str, k: int) -> Fraction:
    """k-th term of generator family "A" or "B".

    Family A merges the two limit branches at equal index and scales by
    (1+a-c)(b+c+d-a); family B pairs each even-branch term with the
    previous odd-branch term.  The A form is written with the scale folded
    into the rising factorials so that boundary parameter choices (for
    example b+c+d-a = 0) stay finite instead of passing through 0 * 1/0.
    """
    a, b, c, d = params.as_tuple()
    if tag == "A":
        return (
            _family_a_weight_at(params, k)
            / math.factorial(2 * k + 1)
            * poch_quotient(
                (b, d, 1 + a - b - c, 1 + a - c - d, b + c - a, c + d - a),
                (1 + a - b, 1 + a - d),
                k,
            )
            * poch_quotient(
                (b + d - a,), (2 + a - c, 1 - a + b + c + d), 2 * k
            )
        )
    if tag == "B":
        value = limit_series_term(params, k, "even")
        if k >= 1:
            value += limit_series_term(params, k - 1, "odd")
        return value
    raise ValueError(f"unknown generator family tag {tag!r}")


def _family_a_weight_at(params: WellPoisedParams, k: int | Fraction) -> Fraction:
    """The family-A weight polynomial, evaluated from its factored form."""
    a, b, c, d = params.as_tuple()
    return (
        (1 + a - b - c + k) * (d + k) * (c + d - a + k)
        * (b + d - a + 2 * k) * (1 + b + 3 * k)
        + (1 + 2 * k) * (a - d + k) * (1 + a - c + 2 * k)
        * (b + c + d - a + 2 * k) * (d + 3 * k)
    )


def theorem_terms(params: WellPoisedParams, tag: str, k_last: int) -> list[Fraction]:
    """Terms k = 0..k_last of generator family "A" or "B", equal to
    :func:`theorem_term` at each index.

    Both families are built from the same two rising-factorial quotients:
    one at index k over (1+a-b, 1+a-d) and one at index 2k over
    (1+a-c, b+c+d-a), each lower parameter raised by one for family A.
    Each is kept as a running product, one step per k for the first and two
    for the second, with (2k)! as a running integer, so a new term costs a
    few multiplications instead of rebuilding every rising factorial.
    Raises :class:`ZeroDenominator` at the first index at which
    :func:`theorem_term` would.  The last term is also computed by
    :func:`theorem_term`, and a difference raises
    :class:`InvariantViolation`: the definitional formula guards the
    stepping code on every call.
    """
    if tag not in ("A", "B"):
        raise ValueError(f"unknown generator family tag {tag!r}")
    a, b, c, d = params.as_tuple()
    shift = 1 if tag == "A" else 0
    pair_upper = (b, d, 1 + a - b - c, 1 + a - c - d, b + c - a, c + d - a)
    pair_lower = (1 + a - b, 1 + a - d)
    double_upper = (b + d - a,)
    double_lower = (1 + a - c + shift, b + c + d - a + shift)
    pair = double = Fraction(1)  # the quotients at k and at 2k
    fact = 1  # (2k)!
    out = []
    for k in range(k_last + 1):
        if k:
            prev_pair = pair
            pair *= poch_step(pair_upper, pair_lower, k - 1)
            odd_double = double * poch_step(double_upper, double_lower, 2 * k - 2)
            double = odd_double * poch_step(double_upper, double_lower, 2 * k - 1)
            odd_fact = fact * (2 * k - 1)
            fact = odd_fact * 2 * k
        if tag == "A":
            out.append(
                _family_a_weight_at(params, k) / (fact * (2 * k + 1)) * pair * double
            )
            continue
        # even-branch term at k plus odd-branch term at k - 1 (limit_series_term)
        value = (d + 3 * k) * (a - d + k) / fact * double * pair
        if k:
            value += (
                (b + 3 * k - 2) / odd_fact * odd_double * prev_pair
                * (a - b - c + k) * (d + k - 1) * (c + d - a + k - 1)
            )
        out.append(value)
    if out and out[-1] != theorem_term(params, tag, k_last):
        raise InvariantViolation(
            f"running family {tag} term at k={k_last} differs from theorem_term"
        )
    return out


def theorem_b_literal_term(params: WellPoisedParams, k: int) -> Fraction:
    """Family-B term in its single-braces literal shape (k >= 1 only).

    This form divides by several linear factors and is therefore undefined
    at parameter coincidences; it exists as an independent cross-check of
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
    upper, lower = _family_b_skeleton(params)
    weight = poch_quotient(upper, lower, k) / Fraction(16) ** k
    return (a - d + k) * (d + 3 * k) * weight * braces


def theorem_gamma_args(
    params: WellPoisedParams, tag: str
) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Gamma-quotient closed value of a generator family (upper, lower)."""
    a, b, c, d = params.as_tuple()
    if tag == "A":
        return (
            (1 + a - b, 2 + a - c, 1 + a - d, 1 - a + b + c + d),
            (b, c, d, 1 + 2 * a - b - c - d),
        )
    if tag == "B":
        return limit_gamma_args(params)
    raise ValueError(f"unknown generator family tag {tag!r}")


def theorem_closed_value(params: WellPoisedParams, tag: str, prec: int) -> BigFloat:
    upper, lower = theorem_gamma_args(params, tag)
    return gamma_quotient(upper, lower, prec)


def params_valid_for_series(params: WellPoisedParams) -> bool:
    """True when all gamma arguments of both closed values are positive and
    the series denominators stay clear of zero."""
    a, b, c, d = params.as_tuple()
    constraints = (
        b,
        c,
        d,
        1 + 2 * a - b - c - d,
        1 + a - b,
        1 + a - c,
        1 + a - d,
        b + c + d - a,
    )
    return all(x > 0 for x in constraints)


# ----------------------------------------------------------------------
# normalization to flat series descriptions
# ----------------------------------------------------------------------


def _family_a_skeleton(
    params: WellPoisedParams,
) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    a, b, c, d = params.as_tuple()
    upper = (
        b,
        d,
        1 + a - b - c,
        1 + a - c - d,
        b + c - a,
        c + d - a,
        (b + d - a) / 2,
        (b + d - a + 1) / 2,
    )
    lower = (
        Fraction(1),
        Fraction(3, 2),
        1 + a - b,
        1 + a - d,
        (2 + a - c) / 2,
        (3 + a - c) / 2,
        (1 - a + b + c + d) / 2,
        (2 - a + b + c + d) / 2,
    )
    return upper, lower


def _family_b_skeleton(
    params: WellPoisedParams,
) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    a, b, c, d = params.as_tuple()
    upper = (
        b,
        d,
        1 + a - b - c,
        1 + a - c - d,
        b + c - a,
        c + d - a,
        (b + d - a) / 2,
        (b + d - a + 1) / 2,
    )
    lower = (
        Fraction(1),
        Fraction(1, 2),
        1 + a - b,
        1 + a - d,
        (1 + a - c) / 2,
        (2 + a - c) / 2,
        (b + c + d - a) / 2,
        (1 + b + c + d - a) / 2,
    )
    return upper, lower


def _family_a_weight(params: WellPoisedParams) -> tuple[Fraction, ...]:
    points = [(Fraction(i), _family_a_weight_at(params, Fraction(i))) for i in range(6)]
    return poly_interpolate(points)


def _family_b_weight(params: WellPoisedParams) -> tuple[Fraction, ...]:
    a, b, c, d = params.as_tuple()

    def weight(k: Fraction) -> Fraction:
        inner = (d + 3 * k) * (a - c - d + k) * (b - 1 + k) * (b + c - a - 1 + k) * (
            b + d - a - 1 + 2 * k
        ) + 2 * k * (b - 2 + 3 * k) * (a - b + k) * (a - c + 2 * k) * (
            b + c + d - a - 1 + 2 * k
        )
        return (a - d + k) * inner

    points = [(Fraction(i), weight(Fraction(i))) for i in range(8)]
    return poly_interpolate(points)


def normalize_theorem_series(params: WellPoisedParams, tag: str) -> SeriesSpec:
    """Rewrite a generator family as a flat base-16 series description.

    The rewrite is proven on the spot: every term of the returned
    description from its start index through :data:`CHECK_WINDOW` must
    equal the corresponding family term exactly, and a nonzero start index
    must be compensated exactly by the additive constant.  Any discrepancy
    raises :class:`NormalizationMismatch`.  Both sides are generated as
    running products (:func:`~hyperpi.factorials.term_values` and
    :func:`theorem_terms`), each checked at :data:`CHECK_WINDOW` against
    its definitional formula (:func:`~hyperpi.factorials.term_eval` and
    :func:`theorem_term`).
    """
    a, b, c, d = params.as_tuple()
    if tag == "A":
        upper, lower = _family_a_skeleton(params)
        spec = SeriesSpec(
            upper=upper,
            lower=lower,
            poly=_family_a_weight(params),
            base=16,
            start=0,
            additive=Fraction(0),
            sign=1,
        )
    elif tag == "B":
        upper_l, lower = _family_b_skeleton(params)
        upper = list(upper_l)
        poly = list(_family_b_weight(params))
        scale = _HALF
        start = 0
        additive = Fraction(0)
        # Linear denominator factors (x + k) and the upper slot holding 1+x.
        slots = (
            (a - c - d, 3),
            (b - 1, 0),
            (b + c - a - 1, 4),
            ((b + d - a - 1) / 2, 7),
        )
        for x, slot in slots:
            if x == 0:
                # Factor is k itself: the weight polynomial always has the
                # root, but the pure-quotient shape only starts at k = 1; the
                # k = 0 term moves into the additive constant.
                if start == 1:
                    raise NormalizationMismatch(
                        "two denominator factors equal to k; unsupported shape"
                    )
                quot, rem = poly_divmod(poly, (Fraction(0), Fraction(1)))
                if poly_trim(rem):
                    raise NormalizationMismatch("weight not divisible by k")
                poly = list(quot)
                start = 1
                additive = theorem_term(params, "B", 0)
            elif poly_eval(poly, -x) == 0:
                quot, rem = poly_divmod(poly, (x, Fraction(1)))
                assert not poly_trim(rem)
                poly = list(quot)
            else:
                assert upper[slot] == 1 + x
                upper[slot] = x
                scale /= x
        spec = SeriesSpec(
            upper=tuple(upper),
            lower=lower,
            poly=poly_scale(poly, scale),
            base=16,
            start=start,
            additive=additive,
            sign=1,
        )
    else:
        raise ValueError(f"unknown generator family tag {tag!r}")

    family_terms = theorem_terms(params, tag, CHECK_WINDOW)
    spec_terms = term_values(spec, spec.start, CHECK_WINDOW)
    for k, term in enumerate(spec_terms, spec.start):
        if term != family_terms[k]:
            raise NormalizationMismatch(
                f"normalized term differs from the generator at k={k} "
                f"(family {tag}, params {params})"
            )
    if spec.start == 1 and spec.additive != family_terms[0]:
        raise NormalizationMismatch("additive constant does not equal the k=0 term")
    return spec


# ----------------------------------------------------------------------
# asymptotic trend of the dual quotient
# ----------------------------------------------------------------------


def dual_limit_deviation(params: WellPoisedParams, n: int, prec: int = 220) -> float:
    """|n^2 * dual quotient / gamma quotient - 1| at degree n.

    The dual quotient decays like 1/n^2; scaled by n^2 it approaches the
    same gamma quotient the limiting series sums to, with an O(1/n) error.
    """
    upper, lower = limit_gamma_args(params)
    closed = gamma_quotient(upper, lower, prec)
    scaled = BigFloat.from_fraction(dual_quotient(params, n) * n * n, prec)
    return abs(scaled.div(closed, prec).to_float() - 1.0)


# ----------------------------------------------------------------------
# random parameter generation
# ----------------------------------------------------------------------


def random_finite_params(
    rng: SplitMix64, n_max: int, max_coeff: int = 10
) -> WellPoisedParams:
    """Random parameters with every denominator of the terminating
    identities nonzero up to degree ``n_max`` (rejection sampled)."""
    while True:
        params = WellPoisedParams(
            rng.fraction(max_coeff, max_coeff, nonzero=True),
            rng.fraction(max_coeff, max_coeff),
            rng.fraction(max_coeff, max_coeff),
            rng.fraction(max_coeff, max_coeff),
        )
        if _finite_params_admissible(params, n_max):
            return params


def _finite_params_admissible(params: WellPoisedParams, n_max: int) -> bool:
    a, b, c, d = params.as_tuple()
    if a == 0:
        return False
    lowers = (1 + a - b, 1 + a - c, 1 + a - d, 1 + a - b - c - d)
    for low in lowers:
        if _hits_zero(low, n_max):
            return False
    # Over n = 0..n_max, the lower parameters b+c+d-a-n and 1+a+n of the
    # degree-n sum vanish within n steps exactly when b+c+d-a is an integer
    # in [0, n_max] or 1+a is an integer in [-2 n_max, 0].
    return not (_hits_zero(a - b - c - d, n_max) or _hits_zero(1 + a, 2 * n_max))


def _hits_zero(x: Fraction, span: int) -> bool:
    """True when (x)_k = 0 for some 1 <= k <= span + 1."""
    if x.denominator != 1:
        return False
    return -span <= x <= 0


def random_parity_params(
    rng: SplitMix64, n_max: int, max_coeff: int = 10, for_chain: bool = False
) -> WellPoisedParams:
    """Random parameters admissible for the parity form and dual expansion
    up to degree ``n_max`` (rejection sampled by direct evaluation).

    With ``for_chain=True`` the scheme denominators of the inverse-pair
    assignment are additionally required to be nonzero.
    """
    while True:
        params = WellPoisedParams(
            rng.fraction(max_coeff, max_coeff, nonzero=True),
            rng.fraction(max_coeff, max_coeff),
            rng.fraction(max_coeff, max_coeff),
            rng.fraction(max_coeff, max_coeff),
        )
        try:
            for n in range(n_max + 1):
                verify_parity_form(params, n)
                verify_dual_relation(params, n)
        except (ZeroDenominator, ZeroDivisionError):
            continue
        if for_chain and not _chain_admissible(params, n_max):
            continue
        return params


def _chain_admissible(params: WellPoisedParams, n_max: int) -> bool:
    a = params.a
    scheme = assignment_scheme(params, n_max)
    for n in range(n_max + 1):
        if a + n == 0 or pochhammer(a, n) == 0:
            return False
        for k in range(n + 1):
            if scheme.phi(a + n, k + 1) == 0 or scheme.phi(Fraction(-n), k + 1) == 0:
                return False
            if pochhammer(a + n, k + 1) == 0 or pochhammer(a + k, n) == 0:
                return False
    return True


_VALID_DENOMS = (2, 3, 4, 6, 12)


def random_valid_params(rng: SplitMix64, max_int: int = 2) -> WellPoisedParams:
    """Random parameters in the positive-gamma-argument domain where both
    generator families converge to their gamma-quotient closed values."""
    while True:
        vals = []
        for _ in range(4):
            den = rng.choice(_VALID_DENOMS)
            num = rng.randint(1, max_int * den + den - 1)
            vals.append(Fraction(num, den))
        params = WellPoisedParams(*vals)
        if params_valid_for_series(params):
            return params
