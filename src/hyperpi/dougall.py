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

The finite identities run on integers.  The quadruple is written over its
common denominator q (:attr:`WellPoisedParams.scaled`), so every linear form
such as 1+a-b-c or b+c+d-a-n is an integer X over q, and a rising factorial
(X/q)_m is prod (X + iq) over q^m.  The powers of q cancel wherever upper
and lower forms are equally many: six over six in the Dougall sum's term
ratio, four over four in its closed quotient and in the dual quotient, and
5k + 2 over 5k + 2 in the k-th dual summand.  Each identity is then an
integer loop that yields two unreduced pairs, compared once by
cross-multiplication (:class:`IdentityCheck`); fractions are built only for
reports.  The samplers test admissibility on the same integers and hand the
accepted integer form to the parameters.  The family terms are integer pairs
over q too (:func:`theorem_term_pairs`).  One rule, :func:`family_scale`,
proves a flat description an exact rational multiple of its family by
cross-multiplication: the normaliser's own description at scale 1
(:func:`normalize_theorem_series`), a catalog entry at the scale its terms
give (:func:`hyperpi.catalog.match_to_theorem`).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, NamedTuple, Sequence

from hyperpi.bigfloat import BigFloat
from hyperpi.errors import (
    InvariantViolation,
    NoMatch,
    NoNonzeroTerm,
    NormalizationMismatch,
    ZeroDenominator,
    ZeroLeadParameter,
)
from hyperpi.factorials import (
    SeriesSpec,
    poch_quotient,
    poly_eval,
    poly_expand,
    poly_trim,
    poly_values,
    rising,
    term_eval,
)
from hyperpi.engine import series_term_pairs
from hyperpi.gammafn import gamma_quotient
from hyperpi.inversion import InversionScheme, forward_extended, inverse_extended_terms
from hyperpi.prng import SplitMix64

_HALF = Fraction(1, 2)

#: Last index of the exact termwise checks of :func:`family_scale`, which
#: proves both :func:`normalize_theorem_series`'s rewrite and
#: :func:`hyperpi.catalog.match_to_theorem`'s proportionality.
CHECK_WINDOW = 50


class _Quadruple(NamedTuple):
    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction


class WellPoisedParams(_Quadruple):
    """Parameter quadruple of a very-well-poised series.

    Immutable: the four values are the fields of a NamedTuple, and this
    subclass adds only the ``__dict__`` where :attr:`scaled` is cached.
    """

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to {name!r}: WellPoisedParams is immutable")

    @staticmethod
    def make(a, b, c, d) -> "WellPoisedParams":
        return WellPoisedParams(Fraction(a), Fraction(b), Fraction(c), Fraction(d))

    @staticmethod
    def from_scaled(scaled: tuple[int, ...]) -> "WellPoisedParams":
        """The quadruple with integer form ``scaled`` = (q, a q, b q, c q, d q)
        over any common denominator q > 0.  The least common denominator of
        the values is q / gcd(scaled), so :attr:`scaled` needs no lcm."""
        g = math.gcd(*scaled)
        q, *nums = (x // g for x in scaled)
        params = WellPoisedParams(*(Fraction(x, q) for x in nums))
        params.__dict__["scaled"] = (q, *nums)  # where cached_property keeps it
        return params

    def as_tuple(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return (self.a, self.b, self.c, self.d)

    @cached_property
    def scaled(self) -> tuple[int, int, int, int, int]:
        """(q, a q, b q, c q, d q) over the least common denominator q."""
        q = math.lcm(*(x.denominator for x in self.as_tuple()))
        return (q, *(x.numerator * (q // x.denominator) for x in self.as_tuple()))


class IdentityCheck(NamedTuple):
    """Outcome of one exact identity instance.

    Each side is an unreduced integer pair (numerator, denominator) with a
    nonzero denominator.  ``passed`` compares the pairs by one
    cross-multiplication; ``lhs`` and ``rhs`` reduce them to fractions, for
    reports.
    """

    lhs_pair: tuple[int, int]
    rhs_pair: tuple[int, int]

    @property
    def lhs(self) -> Fraction:
        return Fraction(*self.lhs_pair)

    @property
    def rhs(self) -> Fraction:
        return Fraction(*self.rhs_pair)

    @property
    def passed(self) -> bool:
        (p, q), (r, s) = self.lhs_pair, self.rhs_pair
        return p * s == r * q


def _rising_quotient(
    upper: Sequence[int], lower: Sequence[int], q: int, m: int
) -> tuple[int, int]:
    """prod (u/q)_m over prod (l/q)_m as an unreduced pair.

    Upper and lower forms are equally many, so the powers of q cancel.
    Raises :class:`ZeroDenominator` when a lower rising factorial vanishes.
    """
    num = den = 1
    for u in upper:
        num *= rising(u, q, m)
    for low in lower:
        den *= rising(low, q, m)
    if den == 0:
        raise ZeroDenominator(f"lower rising factorial vanished at n={m}")
    return num, den


# ----------------------------------------------------------------------
# terminating identity
# ----------------------------------------------------------------------


def _closed_forms(
    q: int, a: int, b: int, c: int, d: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Numerators over q of the closed quotient's forms: (1+a, 1+a-b-c,
    1+a-b-d, 1+a-c-d) over (1+a-b, 1+a-c, 1+a-d, 1+a-b-c-d)."""
    s = q + a
    return (s, s - b - c, s - b - d, s - c - d), (s - b, s - c, s - d, s - b - c - d)


def _dougall_pairs(params: WellPoisedParams, n: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """Degree-n very-well-poised sum and the closed quotient equal to it, as
    unreduced pairs from one loop over k.

    The terminating fifth numerator parameter e = 1 + 2a + n - b - c - d is
    chosen so the closed form applies.  Over the common denominator q of the
    parameters both the sum's term ratio (six upper forms over six lower)
    and the closed quotient (four over four) are free of q, so the step
    from k to k + 1 multiplies integers only: the running term by
    prod (U + kq) / prod (L + kq), the sum kept over the running
    denominator.  Raises :class:`ZeroDenominator` when a denominator of the
    sum vanishes; the closed quotient's denominator may be zero.
    """
    q, a, b, c, d = params.scaled
    if a == 0:
        raise ZeroLeadParameter("the leading parameter must be nonzero")
    nq = n * q
    e, neg_n = q + 2 * a + nq - b - c - d, -nq
    low1, low2, low3 = q + a - b, q + a - c, q + a - d
    low4, low5 = b + c + d - a - nq, q + a + nq
    (u0, u1, u2, u3), (v0, v1, v2, v3) = _closed_forms(q, a, b, c, d)
    # sum = acc / (den * a); term k is (a + 2kq) / a * num / den
    acc = a
    num = den = cnum = cden = 1
    for kq in range(0, nq, q):
        lo = (q + kq) * (low1 + kq) * (low2 + kq) * (low3 + kq) * (low4 + kq) * (low5 + kq)
        if lo == 0:
            raise ZeroDenominator(f"series denominator vanished at k={kq // q + 1}")
        num *= (a + kq) * (b + kq) * (c + kq) * (d + kq) * (e + kq) * (neg_n + kq)
        den *= lo
        acc = acc * lo + (a + 2 * (kq + q)) * num
        cnum *= (u0 + kq) * (u1 + kq) * (u2 + kq) * (u3 + kq)
        cden *= (v0 + kq) * (v1 + kq) * (v2 + kq) * (v3 + kq)
    return (acc, den * a), (cnum, cden)


def verify_dougall(params: WellPoisedParams, n: int) -> IdentityCheck:
    """Exact check: terminating sum against the closed quotient."""
    total, closed = _dougall_pairs(params, n)
    if closed[1] == 0:
        raise ZeroDenominator(f"lower rising factorial vanished at n={n}")
    return IdentityCheck(total, closed)


# ----------------------------------------------------------------------
# parity-shifted closed form
# ----------------------------------------------------------------------


def parity_closed_form(params: WellPoisedParams, n: int) -> Fraction:
    """Three-bracket factorization of the parity-shifted closed quotient."""
    q, a, b, c, d = params.scaled
    down, up = n // 2, n - n // 2
    num1, den1 = _rising_quotient((q + a - c - d, b + c - a), (q + a - d, b - a), q, down)
    num2, den2 = _rising_quotient((q + a, b + d - a), (q + a - c, b + c + d - a), q, n)
    num3, den3 = _rising_quotient((q + a - b - c, c + d - a), (q + a - b, d - a), q, up)
    return Fraction(num1 * num2 * num3, den1 * den2 * den3)


def verify_parity_form(params: WellPoisedParams, n: int) -> IdentityCheck:
    """Closed quotient at (b + floor(n/2), d + ceil(n/2)) vs the bracket product.

    The left pair is the shifted closed quotient, unreduced; the bracket
    side comes through :func:`parity_closed_form`, reduced once.
    """
    q, a, b, c, d = params.scaled
    forms = _closed_forms(q, a, b + n // 2 * q, c, d + (n - n // 2) * q)
    closed = _rising_quotient(*forms, q, n)
    brackets = parity_closed_form(params, n)
    return IdentityCheck(closed, (brackets.numerator, brackets.denominator))


# ----------------------------------------------------------------------
# binomial dual expansion
# ----------------------------------------------------------------------


def _dual_expansion(
    params: WellPoisedParams, n: int
) -> tuple[list[tuple[int, int]], tuple[int, int]]:
    """The signed terms k = 0..n of the dual expansion and their total, as
    unreduced pairs.

    Even k contributes positively, odd k negatively; the two parities carry
    structurally different weights.  With j = floor(k/2) and i = ceil(k/2),
    term k is

        (-1)^k C(n,k) w_k (a+n)_k (b+d-a)_k E_j G_i / (den_k),
        E_m = (1+a-c-d)_m (b)_m (b+c-a)_m,  G_m = (1+a-b-c)_m (d)_m (c+d-a)_m,
        den_k = (1+a-d)_j (1+a-b)_i (b+n)_i (b-a-n)_i (d+n)_(j+1)
                (d-a-n)_(j+1) (1+a-c)_k (b+c+d-a)_k,

    with w_k = (d+3j)(d-a-j) for even k and (b+3j+1)(b-a-j-1) for odd k.
    Each side has 5k + 2 linear factors, so over the common denominator q
    the term is a quotient of integers.  From k to k + 1 the rising
    products gain one factor each, and E or G three, so they are stepped,
    and the total is kept over the running denominator.
    """
    q, a, b, c, d = params.scaled
    nq = n * q
    num, den = 1, (d + nq) * (d - a - nq)
    acc = 0
    terms = []
    for k in range(n + 1):
        step = 1
        if k:
            kq = (k - 1) * q
            num *= (a + nq + kq) * (b + d - a + kq)
            step = (q + a - c + kq) * (b + c + d - a + kq)
            iq = (k - 1) // 2 * q
            if k % 2:  # i grows
                num *= (q + a - b - c + iq) * (d + iq) * (c + d - a + iq)
                step *= (q + a - b + iq) * (b + nq + iq) * (b - a - nq + iq)
            else:  # j grows
                num *= (q + a - c - d + iq) * (b + iq) * (b + c - a + iq)
                step *= (q + a - d + iq) * (d + nq + iq + q) * (d - a - nq + iq + q)
            den *= step
        if den == 0:
            raise ZeroDenominator(f"dual summand denominator vanished at n={n}, k={k}")
        jq = k // 2 * q
        if k % 2:
            weight = -(b + 3 * jq + q) * (b - a - jq - q)
        else:
            weight = (d + 3 * jq) * (d - a - jq)
        term = math.comb(n, k) * weight * num
        terms.append((term, den))
        acc = acc * step + term
    return terms, (acc, den)


def verify_dual_relation(params: WellPoisedParams, n: int) -> IdentityCheck:
    """Exact check: dual quotient against its binomial expansion.  The left
    pair is the dual quotient, unreduced."""
    q, a, b, c, d = params.scaled
    quotient = _rising_quotient((b, c, d, q + 2 * a - b - c - d),
                                (q + a - b, q + a - c, q + a - d, b + c + d - a), q, n)
    return IdentityCheck(quotient, _dual_expansion(params, n)[1])


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


def verify_chain(params: WellPoisedParams, n_max: int) -> list[str]:
    """Exact cross-checks linking closed form, inversion and dual expansion.

    Returns a list of failure descriptions (empty when all hold):

    1. the parity-shifted closed form factorization at each n,
    2. the extended forward transform of g reproduces f,
    3. each dual summand equals the corresponding inverse-transform term,
    4. the dual expansion totals the dual quotient.

    One pass over n runs :func:`verify_parity_form` and
    :func:`verify_dual_relation` and reads the assignment off their left
    pairs: g(n) = dual quotient * (a)_n / a and f(n) = the parity-shifted
    closed quotient * phi(a; n) phi(0; n) / (a + n).  Checks 2 and 3 at n
    need g and f up to n only, so all four run at the same degree; the
    failures are listed check by check, each in order of n.  Over the common
    denominator q, (a)_n is a running integer over q**n and a + n one over
    q; the g values are reduced once, as the transform's input, and
    everything else is compared as unreduced pairs.
    """
    q, a = params.scaled[:2]
    if a == 0:
        raise ZeroLeadParameter("the leading parameter must be nonzero")
    parity, forward, mapping, dual = [], [], [], []
    scheme = assignment_scheme(params, n_max)
    phi_a, phi_0 = scheme.phi_prefix(params.a), scheme.phi_prefix(0)
    g_vals, f_pairs = [], []
    poch, q_n = 1, 1  # (a)_n = poch / q_n
    for n in range(n_max + 1):
        closed = verify_parity_form(params, n)
        if not closed.passed:
            parity.append(f"parity form failed at n={n}: {closed.lhs} != {closed.rhs}")
        relation = verify_dual_relation(params, n)
        if not relation.passed:
            dual.append(f"dual expansion failed at n={n}: {relation.lhs} != {relation.rhs}")
        if a + n * q == 0:
            raise ZeroDenominator(f"a + n vanished at n={n}")
        num, den = relation.lhs_pair
        g_vals.append(Fraction(num * poch * q, den * q_n * a))
        num, den = closed.lhs_pair
        f_pairs.append((num * phi_a[0][n] * phi_0[0][n] * q,
                        den * phi_a[1][n] * phi_0[1][n] * (a + n * q)))
        chk = IdentityCheck(forward_extended(scheme, g_vals, n), f_pairs[n])
        if not chk.passed:
            forward.append(f"forward transform at n={n}: {chk.lhs} != {chk.rhs}")
        # Term k of the extended inverse transform of f at n, times a / (a)_n.
        # (a)_n is nonzero here: for an integer a in [1 - n, 0], a + m
        # vanishes at m = -a < n, which raised at degree m.
        summands = _dual_expansion(params, n)[0]
        for k, (num, den) in enumerate(inverse_extended_terms(scheme, f_pairs, n)):
            chk = IdentityCheck((num * a * q_n, den * q * poch), summands[k])
            if not chk.passed:
                mapping.append(f"summand mapping at n={n}, k={k}: {chk.lhs} != {chk.rhs}")
        poch *= a + n * q
        q_n *= q
    return parity + forward + mapping + dual


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
            Fraction(_family_a_weight_at(params, k), params.scaled[0] ** 5)
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


def _family_a_weight_at(params: WellPoisedParams, k: int) -> int:
    """The family-A weight polynomial at k, evaluated from its factored
    form, times q**5 for the common denominator q of :attr:`~WellPoisedParams.scaled`:
    the definitional value, independent of :func:`_family_weight`."""
    q, a, b, c, d = params.scaled
    kq = k * q
    return (
        (q + a - b - c + kq) * (d + kq) * (c + d - a + kq)
        * (b + d - a + 2 * kq) * (q + b + 3 * kq)
        + (q + 2 * kq) * (a - d + kq) * (q + a - c + 2 * kq)
        * (b + c + d - a + 2 * kq) * (d + 3 * kq)
    )


def _family_weight(params: WellPoisedParams, tag: str) -> list[int]:
    """Ascending integer coefficients in k of the weight polynomial of
    family "A" times q**5, or of family "B" times q**6, for the q of
    :attr:`~WellPoisedParams.scaled`.  Each weight is a sum of two products
    of five linear forms ``n + d k`` (B's sum times one more form),
    multiplied out."""
    q, a, b, c, d = params.scaled
    if tag == "A":
        left = [(q + a - b - c, q), (d, q), (c + d - a, q), (b + d - a, 2 * q), (q + b, 3 * q)]
        right = [(q, 2 * q), (a - d, q), (q + a - c, 2 * q), (b + c + d - a, 2 * q), (d, 3 * q)]
        outer = []
    else:
        left = [(d, 3 * q), (a - c - d, q), (b - q, q), (b + c - a - q, q), (b + d - a - q, 2 * q)]
        right = [(0, 2 * q), (b - 2 * q, 3 * q), (a - b, q), (a - c, 2 * q),
                 (b + c + d - a - q, 2 * q)]
        outer = [(a - d, q)]
    inner = [x + y for x, y in zip(poly_expand([1], left), poly_expand([1], right))]
    return poly_expand(inner, outer)


def _family_forms(params: WellPoisedParams, tag: str) -> tuple:
    """``(q, P upper, P lower, H upper, H lower)``: the rising-factorial
    parameters of family "A" or "B" as integer forms over the q of
    :attr:`~WellPoisedParams.scaled`, P the quotient at index k and H the
    one at index 2k, whose lower forms family A raises by one."""
    q, a, b, c, d = params.scaled
    s = q if tag == "A" else 0
    p_upper = (b, d, q + a - b - c, q + a - c - d, b + c - a, c + d - a)
    return q, p_upper, (q + a - b, q + a - d), b + d - a, (q + a - c + s, b + c + d - a + s)


def theorem_term_pairs(params: WellPoisedParams, tag: str, k_last: int) -> list[tuple[int, int]]:
    """Terms k = 0..k_last of generator family "A" or "B", each equal to
    :func:`theorem_term`, as unreduced integer pairs (num, den), den != 0.

    Running products over :func:`_family_forms`: per step in k, P gains
    its upper forms over its lower forms times q**4; per half step m, H
    gains (H upper + m q) q over its lower forms; (2k)! is a running int.
    The family-A weight is an integer over q**5; family B adds its odd
    branch at k - 1 (:func:`limit_series_term`) over the even one's
    denominator, which it divides.  Raises :class:`ZeroDenominator` at the
    first index at which :func:`theorem_term` would.
    """
    if tag not in ("A", "B"):
        raise ValueError(f"unknown generator family tag {tag!r}")
    _, a, b, c, d = params.scaled
    q, p_upper, (low0, low1), h_up, (h_low0, h_low1) = _family_forms(params, tag)
    u0, u1, u2, u3, u4, u5 = p_upper
    q2, q4 = q * q, q**4
    if tag == "A":
        weights = list(poly_values(_family_weight(params, tag), 0, k_last + 1))
    p_num = p_den = h_num = h_den = fact = 1  # P(k), H(2k) and (2k)!
    out = []
    for k in range(k_last + 1):
        kq = k * q
        if k:
            jq, mq = kq - q, 2 * kq - q  # (k - 1) q and (2k - 1) q
            p_low = (low0 + jq) * (low1 + jq)
            odd_low = (h_low0 + mq - q) * (h_low1 + mq - q)
            even_low = (h_low0 + mq) * (h_low1 + mq)
            if p_low == 0 or odd_low == 0 or even_low == 0:
                raise ZeroDenominator(f"family {tag} lower rising factorial vanished at k={k}")
            prev_num = p_num
            p_num *= (u0 + jq) * (u1 + jq) * (u2 + jq) * (u3 + jq) * (u4 + jq) * (u5 + jq)
            p_den *= p_low * q4
            odd_num = h_num * (h_up + mq - q) * q  # the numerator of H(2k - 1)
            h_num = odd_num * (h_up + mq) * q
            h_den *= odd_low * even_low
            fact *= (2 * k - 1) * 2 * k
        if tag == "A":
            out.append((weights[k] * p_num * h_num, q4 * q * fact * (2 * k + 1) * p_den * h_den))
            continue
        # the even branch at k is over q**2 (2k)! H_den P_den; the odd branch
        # at k - 1 is over q**4 (2k-1)! H_den(2k-1) P_den(k-1), which times
        # 2k q**2 and the newest lower forms of H and P is the same integer
        num = (d + 3 * kq) * (a - d + kq) * h_num * p_num
        if k:
            odd = (
                (b + 3 * kq - 2 * q) * (a - b - c + kq) * (d + jq) * (c + d - a + jq)
                * odd_num * prev_num
            )
            num += odd * 2 * k * q2 * even_low * p_low
        out.append((num, q2 * fact * h_den * p_den))
    return out


# ----------------------------------------------------------------------
# provenance: a flat series as an exact multiple of a family
# ----------------------------------------------------------------------


def _pair_sum(pairs: Iterable[tuple[int, int]]) -> tuple[int, int]:
    """Sum of unreduced integer pairs (num, den) as one such pair."""
    num, den = 0, 1
    for n, d in pairs:
        num, den = num * d + n * den, den * d
    return num, den


def family_scale(
    spec: SeriesSpec, params: WellPoisedParams, tag: str, scale: Fraction | None = None
) -> Fraction:
    """Prove ``spec`` an exact rational multiple of family ``tag`` at
    ``params`` and return the multiple.

    With ``cut = max(start, 1)``, one rational ``scale`` must satisfy
    ``spec_term(k) == scale * family_term(k)`` for every k from ``cut``
    through :data:`CHECK_WINDOW`, and the head must agree: the additive
    constant plus the spec terms below ``cut`` must equal ``scale`` times
    the family terms below ``cut``.  Unless given, ``scale`` comes from the
    first index at which both terms are nonzero.  Raises :class:`NoMatch`
    when an index has exactly one zero term, a term is off the scale or the
    head disagrees, and :class:`NoNonzeroTerm` when ``cut`` lies past the
    window, or no scale is given and the window holds no nonzero pair.

    Both term lists are unreduced integer pairs, from
    :func:`~hyperpi.engine.series_term_pairs` and :func:`theorem_term_pairs`,
    compared by cross-multiplication; ``scale`` and the head sums are pairs
    too.  The last term of each list is checked against its definition,
    :func:`~hyperpi.factorials.term_eval` or :func:`theorem_term`, and a
    difference raises :class:`InvariantViolation`.
    """
    cut = max(spec.start, 1)
    if cut > CHECK_WINDOW:
        raise NoNonzeroTerm(f"no term at or below index {CHECK_WINDOW}")
    # the family first: a lower factorial that vanishes in both is reported
    # at the family's index k
    family_terms = theorem_term_pairs(params, tag, CHECK_WINDOW)
    spec_terms = series_term_pairs(spec, CHECK_WINDOW)
    (num, den), check = spec_terms[-1], term_eval(spec, CHECK_WINDOW)
    if num * check.denominator != check.numerator * den:
        raise InvariantViolation(f"running series term at k={CHECK_WINDOW} differs from term_eval")
    (num, den), check = family_terms[-1], theorem_term(params, tag, CHECK_WINDOW)
    if num * check.denominator != check.numerator * den:
        raise InvariantViolation(
            f"running family {tag} term at k={CHECK_WINDOW} differs from theorem_term"
        )
    pair = None if scale is None else (scale.numerator, scale.denominator)
    for k in range(cut, CHECK_WINDOW + 1):
        num, den = spec_terms[k - spec.start]
        family_num, family_den = family_terms[k]
        if pair is None:
            if num == 0 and family_num == 0:
                continue
            if num == 0 or family_num == 0:
                raise NoMatch(f"at k={k} exactly one of the entry and family {tag} terms is zero")
            pair = (num * family_den, den * family_num)
        elif num * pair[1] * family_den != pair[0] * family_num * den:
            raise NoMatch(f"term at k={k} is not {Fraction(*pair)} times the family {tag} term")
    if pair is None:
        raise NoNonzeroTerm(f"no nonzero term pair at indices {cut}..{CHECK_WINDOW}")
    additive = (spec.additive.numerator, spec.additive.denominator)
    head_num, head_den = _pair_sum([additive, *spec_terms[: cut - spec.start]])
    family_head_num, family_head_den = _pair_sum(family_terms[:cut])
    if head_num * pair[1] * family_head_den != pair[0] * family_head_num * head_den:
        raise NoMatch(
            f"additive constant and terms below k={cut} are not {Fraction(*pair)} "
            f"times the family {tag} terms below it"
        )
    return Fraction(*pair)


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


# ----------------------------------------------------------------------
# normalization to flat series descriptions
# ----------------------------------------------------------------------


def _family_skeleton(
    params: WellPoisedParams, tag: str
) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Upper and lower parameters of a family's flat description: the
    forms of :func:`_family_forms` over q, the index-2k quotient split into
    halves and (2k)! or (2k+1)! into (1)_k (1/2)_k or (1)_k (3/2)_k."""
    q, p_upper, p_lower, h_up, h_lower = _family_forms(params, tag)
    upper = (
        *(Fraction(u, q) for u in p_upper),
        Fraction(h_up, 2 * q), Fraction(h_up + q, 2 * q),
    )
    lower = (
        Fraction(1), Fraction(3, 2) if tag == "A" else Fraction(1, 2),
        *(Fraction(low, q) for low in p_lower),
        *(Fraction(low + m, 2 * q) for low in h_lower for m in (0, q)),
    )
    return upper, lower


def _deflate(poly: list[Fraction], root: Fraction) -> list[Fraction]:
    """Quotient of the weight ``poly`` by k - ``root``, by synthetic
    division; a nonzero remainder poly(root) raises
    :class:`NormalizationMismatch`."""
    quotient, acc = [], Fraction(0)
    for c in reversed(poly):
        acc = acc * root + c
        quotient.append(acc)
    if quotient.pop():
        factor = f"k - ({root})" if root else "k"
        raise NormalizationMismatch(f"weight not divisible by {factor}")
    return quotient[::-1]


def normalize_theorem_series(params: WellPoisedParams, tag: str) -> SeriesSpec:
    """Rewrite a generator family as a flat base-16 series description.

    The rewrite is proven on the spot by :func:`family_scale` at scale 1:
    the returned description must equal the family term by term through
    :data:`CHECK_WINDOW`, a start index of 1 compensated exactly by the
    additive constant.  A discrepancy raises :class:`NormalizationMismatch`;
    a family whose terms are all 0 passes, its description summing to 0.
    """
    if tag not in ("A", "B"):
        raise ValueError(f"unknown generator family tag {tag!r}")
    a, b, c, d = params.as_tuple()
    upper, lower = map(list, _family_skeleton(params, tag))
    start, additive = 0, Fraction(0)
    q, weight = params.scaled[0], _family_weight(params, tag)
    if tag == "A":
        poly, scale = [Fraction(c, q**5) for c in weight], Fraction(1)
    else:
        poly, scale = [Fraction(c, q**6) for c in weight], _HALF
        # Linear denominator factors (x + k) and the upper slot holding 1+x.
        slots = ((a - c - d, 3), (b - 1, 0), (b + c - a - 1, 4), ((b + d - a - 1) / 2, 7))
        for x, slot in slots:
            if x == 0:
                # Factor is k itself: the weight polynomial always has the
                # root, but the pure-quotient shape only starts at k = 1; the
                # k = 0 term moves into the additive constant.
                if start == 1:
                    raise NormalizationMismatch(
                        "two denominator factors equal to k; unsupported shape"
                    )
                poly = _deflate(poly, Fraction(0))
                start = 1
                additive = theorem_term(params, "B", 0)
            elif poly_eval(poly, -x) == 0:
                poly = _deflate(poly, -x)
            else:
                assert upper[slot] == 1 + x
                upper[slot] = x
                scale /= x
    spec = SeriesSpec(
        tuple(upper), tuple(lower), poly_trim(coeff * scale for coeff in poly), 16,
        start=start, additive=additive,
    )
    try:
        family_scale(spec, params, tag, Fraction(1))
    except NoMatch as exc:
        raise NormalizationMismatch(f"{exc} (params {params})") from exc
    return spec


# ----------------------------------------------------------------------
# random parameter generation
# ----------------------------------------------------------------------


def _random_params(
    rng: SplitMix64, admissible: Callable[[tuple[int, ...]], bool]
) -> WellPoisedParams:
    """Rejection-sample a, b, c, d as four :meth:`SplitMix64.fraction` draws
    would (a nonzero), each numerator at most 10 in magnitude over a
    denominator from 1 to 10, so the seeded streams are those of the
    fraction draws.

    ``admissible`` sees the integer form (q, a q, b q, c q, d q) over the lcm
    q of the drawn, unreduced denominators; the draw it accepts becomes the
    parameters through that form (:meth:`WellPoisedParams.from_scaled`).
    """
    while True:
        pairs = [rng.ratio(10, 10, nonzero=True)]
        pairs.extend(rng.ratio(10, 10) for _ in range(3))
        q = math.lcm(*(den for _, den in pairs))
        scaled = (q, *(num * (q // den) for num, den in pairs))
        if admissible(scaled):
            return WellPoisedParams.from_scaled(scaled)


def random_finite_params(rng: SplitMix64, n_max: int) -> WellPoisedParams:
    """Random parameters with every denominator of the terminating
    identities nonzero up to degree ``n_max`` (rejection sampled)."""
    return _random_params(rng, lambda scaled: _finite_params_admissible(scaled, n_max))


def _finite_params_admissible(scaled: tuple[int, ...], n_max: int) -> bool:
    """Admissibility of the parameters with integer form ``scaled`` =
    (q, a q, b q, c q, d q) over any common denominator q: every test reads
    a form divided by q, so it does not depend on which q."""
    q, a, b, c, d = scaled
    if a == 0:
        return False
    for low in _closed_forms(q, a, b, c, d)[1]:
        if _hits_zero(low, q, n_max):
            return False
    # Over n = 0..n_max, the lower parameters b+c+d-a-n and 1+a+n of the
    # degree-n sum vanish within n steps exactly when b+c+d-a is an integer
    # in [0, n_max] or 1+a is an integer in [-2 n_max, 0].
    return not (_hits_zero(a - b - c - d, q, n_max) or _hits_zero(q + a, q, 2 * n_max))


def _hits_zero(x: int, q: int, span: int) -> bool:
    """True when (x/q)_k = 0 for some 1 <= k <= span + 1."""
    return x % q == 0 and -span * q <= x <= 0


def random_parity_params(
    rng: SplitMix64, n_max: int, for_chain: bool = False
) -> WellPoisedParams:
    """Random parameters admissible for the parity form and dual expansion
    up to degree ``n_max`` (rejection sampled).

    With ``for_chain=True`` the scheme denominators of the inverse-pair
    assignment are additionally required to be nonzero.
    """
    return _random_params(
        rng, lambda scaled: _parity_params_admissible(scaled, n_max, for_chain)
    )


def _parity_params_admissible(scaled: tuple[int, ...], n_max: int, for_chain: bool) -> bool:
    """True when no lower rising factorial of :func:`verify_parity_form`,
    :func:`verify_dual_relation` (and, for the chain, of the assignment's
    scheme and transforms) vanishes at any degree n <= n_max, for the
    parameters with integer form ``scaled`` over any common denominator q.

    (x)_m vanishes when x is an integer in [1 - m, 0], so each form is
    tested with span m - 1 at the largest index m it is raised to.
    """
    q, a, b, c, d = scaled
    for n in range(n_max + 1):
        nq, down, up = n * q, n // 2, n - n // 2
        forms = (
            # closed quotient at (b + down, d + up); dual quotient; brackets
            (q + a - b - down * q, n), (q + a - c, n), (q + a - d - up * q, n),
            (q + a - b - c - d - nq, n), (q + a - b, n), (q + a - d, n),
            (b + c + d - a, n), (b - a, down), (d - a, up),
            # dual summands k = 0..n; the scheme's phi(a + n; .), phi(-n; .)
            (b + nq, up), (b - a - nq, up), (d + nq, down + 1), (d - a - nq, down + 1),
        )
        for x, m in forms:
            if _hits_zero(x, q, m - 1):
                return False
    # the chain divides by a + n and by (a + n)_(k+1) for k <= n <= n_max
    return not (for_chain and _hits_zero(a, q, 2 * n_max))
