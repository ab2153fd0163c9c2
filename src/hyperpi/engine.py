"""Numeric engine for base-16 hypergeometric series.

Four capabilities, all built on exact rational arithmetic:

* :func:`sum_series` -- partial sums of a :class:`~hyperpi.factorials.SeriesSpec`
  correctly rounded to ``prec`` bits (at most 1/2 ulp).  The integer term
  sequences are polynomials in the index, listed by forward differences,
  with the constant that alpha and beta share cancelled once.  Integer
  binary splitting runs exactly below a width of ``prec + SPLIT_GUARD_BITS``
  bits and merges with truncated products above it, the tail of the series
  at the fewer bits it contributes; a large sum is cut once into two
  independent parts, the left one summed in a forked child where a second
  CPU is usable.  B stays exact by definition, so one proven bound on T
  gives an interval for the sum; one division rounds the whole interval
  when all of it rounds alike, and only an interval that straddles a
  rounding boundary is re-split exactly.
* :func:`compute_pi_via` -- solve a verified series/closed-form pair for pi.
* :func:`bbp_hex_digits` -- hexadecimal digits of pi at an arbitrary offset
  without computing earlier digits: a spigot over Bellard's base-2**10
  formula summed four indices per step (one modular power per step, the
  step's polynomials listed by forward differences), its powered steps
  summed by contiguous range across the usable CPUs, with a retry margin
  counted from the floor divisions it takes.
* :func:`verify_bbp_equivalence` -- exact reduction of a base-16 entry to
  one of the two classic digit-extraction sum templates, from the residues
  at the poles that its paired parameters name (:func:`summand_residues`).
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import partial
from itertools import repeat, tee
from typing import Callable, NamedTuple

from hyperpi.bigfloat import BigFloat, sqrt as bigfloat_sqrt
from hyperpi.constexpr import ConstExpr, eval_const_expr, monomial
from hyperpi.errors import (
    DomainError,
    NoMatch,
    RangeError,
    RepeatedPole,
    UnsupportedLhs,
    ZeroDenominator,
    ZeroTerm,
)
from hyperpi.factorials import (
    SeriesSpec,
    poly_eval,
    poly_expand,
    poly_trim,
    poly_values,
)
from hyperpi.splitting import product_sum, run_parts, truncated_product_sum, usable_cpus

# Slot coefficients of the two classic base-16 digit-extraction sums:
#   sum_n 16^-n * sum_j V_j/(8n+j)  equals  pi      for V = SLOTS_PI
#                                   equals  2*pi    for V = SLOTS_TWO_PI
SLOTS_PI = (Fraction(4), Fraction(0), Fraction(0), Fraction(-2),
            Fraction(-1), Fraction(-1), Fraction(0), Fraction(0))
SLOTS_TWO_PI = (Fraction(0), Fraction(8), Fraction(4), Fraction(4),
                Fraction(0), Fraction(0), Fraction(-1), Fraction(0))

# Bits beyond the target precision that sum_series keeps in its truncated
# merges.  Each merge adds a few units to the error bound, so after the
# ~log2(terms) merge levels the interval is some 2**-50 ulp wide and almost
# never straddles a rounding boundary; one that does falls back to the
# exact pair, so this sets cost, not correctness.
SPLIT_GUARD_BITS = 64


def terms_for_digits(digits: int, base: int = 16) -> int:
    """Series length that leaves the truncation tail far below 10**-digits."""
    if digits < 1:
        raise DomainError(f"digit count must be positive, got {digits}")
    return math.ceil(digits * math.log(10) / math.log(base)) + 20


def precision_for_digits(digits: int) -> int:
    """Working precision in bits for a target of ``digits`` decimal digits."""
    if digits < 1:
        raise DomainError(f"digit count must be positive, got {digits}")
    return math.ceil(digits * math.log2(10)) + 64


# ----------------------------------------------------------------------
# partial sums
# ----------------------------------------------------------------------


class _SeriesSetup(NamedTuple):
    """The integer term inputs of a series and the map from its (T, B) pair
    to the value ``additive + sign * sum``.  ``sequences(lo, hi)`` lists
    weight(j), alpha(j) and beta(j) for j in [lo, hi), and term ``start +
    j`` is ``lead_num * weight(j) * alpha(0)...alpha(j-1)`` over
    ``lead_den * beta(0)...beta(j-1)``."""

    sequences: Callable[[int, int], tuple[list[int], list[int], list[int]]]
    fold: Callable[[int, int, int], tuple[int, int, int]]
    lead_num: int
    lead_den: int


def _series_setup(spec: SeriesSpec) -> _SeriesSetup:
    """Integer term inputs for ``spec``; the splitters validate it first.

    The per-step ratio of consecutive terms is a pure product of linear
    factors, so the weight sequence carries the polynomial and the splitting
    never divides by a (possibly zero) polynomial value.  All three
    sequences are integer polynomials in the term index k = start + j:
    weight is ``poly * lcm(denominators)``; alpha is the product of the
    upper parameters' forms ``n + k d`` times the lower denominators; beta
    is the product of the lower forms times the upper denominators and the
    base.  The two constants lose their common factor once, here, so every
    alpha and beta the splitting feeds in is shorter and alpha/beta keeps
    its value.  ``sequences`` lists the polynomials by forward differences
    (:func:`~hyperpi.factorials.poly_values`), and the lead is alpha and
    beta over k in [0, start).

    ``fold(t, b, e)`` maps a pair with ``t/b = T/B`` to an unreduced pair
    ``(num, den)``, ``den > 0``, for ``additive + sign * lead * t / (lcm *
    b)`` without a gcd; the value is monotone in ``t/b``.  Its third integer
    is the radius that ``e / |b|`` becomes over ``den``: the values within
    ``e / |b|`` of ``t / b`` fold onto ``(num ± radius) / den``.  Raises
    :class:`ZeroDenominator` when a lower rising factorial vanishes at the
    start index.
    """
    additive = Fraction(spec.additive)
    s = spec.start
    poly_lcm = math.lcm(*(coeff.denominator for coeff in spec.poly))
    weight = [(coeff * poly_lcm).numerator for coeff in spec.poly]
    upper_nd = [(u.numerator, u.denominator) for u in spec.upper]
    lower_nd = [(low.numerator, low.denominator) for low in spec.lower]
    alpha_const = math.prod(d for _, d in lower_nd)
    beta_const = math.prod(d for _, d in upper_nd) * spec.base
    common = math.gcd(alpha_const, beta_const)
    alpha = poly_expand([alpha_const // common], upper_nd)
    beta = poly_expand([beta_const // common], lower_nd)

    def sequences(lo: int, hi: int) -> tuple[list[int], list[int], list[int]]:
        lo, hi = s + lo, s + hi
        return (list(poly_values(weight, lo, hi)), list(poly_values(alpha, lo, hi)),
                list(poly_values(beta, lo, hi)))

    # the rising factorials at the start index: the steps from index 0 to s
    lead_num = spec.sign * math.prod(poly_values(alpha, 0, s))
    lead_den = poly_lcm * math.prod(poly_values(beta, 0, s))
    if lead_den == 0:
        raise ZeroDenominator(f"lower rising factorial vanished at n={s}")
    radius_scale = additive.denominator * abs(lead_num)

    def fold(t: int, b: int, e: int) -> tuple[int, int, int]:
        num, den = lead_num * t, lead_den * b
        num = additive.numerator * den + additive.denominator * num
        den *= additive.denominator
        # B or the lead < 0 when an odd number of their factors are, e.g. lower -1/2 at k = 0.
        if den < 0:
            num, den = -num, -den
        return num, den, radius_scale * e

    return _SeriesSetup(sequences, fold, lead_num, lead_den)


def series_term_pairs(spec: SeriesSpec, k_last: int) -> list[tuple[int, int]]:
    """Terms k = start..k_last of ``spec``, additive constant left out, as
    unreduced integer pairs ``(num, den)``, ``den != 0``: running products
    of the integers that :func:`sum_series` splits (:func:`_series_setup`).
    Raises :class:`ZeroDenominator` at the first index at which
    :func:`~hyperpi.factorials.term_eval` would.
    """
    setup = _series_setup(spec)
    weights, alphas, betas = setup.sequences(0, k_last - spec.start + 1)
    num, den = setup.lead_num, setup.lead_den
    out = []
    for j, weight in enumerate(weights):
        if j:
            if betas[j - 1] == 0:
                raise ZeroDenominator(f"lower rising factorial vanished at n={spec.start + j}")
            num *= alphas[j - 1]
            den *= betas[j - 1]
        out.append((num * weight, den))
    return out


def _series_ratio(spec: SeriesSpec, terms: int) -> tuple[int, int]:
    """Exact ``additive + sign * sum`` over the first ``terms`` terms, as an
    unreduced pair ``(num, den)`` of integers with ``den > 0``, by exact
    binary splitting."""
    spec.validate()
    setup = _series_setup(spec)
    if terms <= 0:
        additive = Fraction(spec.additive)
        return additive.numerator, additive.denominator
    weights, alphas, betas = setup.sequences(0, terms)
    _, big_b, big_t = product_sum(
        weights.__getitem__, alphas.__getitem__, betas.__getitem__, 0, terms
    )
    num, den, _ = setup.fold(int(big_t), int(big_b), 0)
    return num, den


def sum_series(spec: SeriesSpec, terms: int, prec: int) -> BigFloat:
    """Partial sum correctly rounded to ``prec`` bits: the rounding of the
    exact ``additive + sign * sum`` over the first ``terms`` terms.

    The sum is split by :func:`~hyperpi.splitting.truncated_product_sum`
    at a width of ``prec + SPLIT_GUARD_BITS`` bits: exact splitting on
    subranges below that width, truncated merges above it, and the tail at
    the narrower width its scale needs.  A large sum (from about 3460
    digits) is cut once into two independent parts, the left one summed in
    a forked child where a second CPU is usable, the right one at a width
    set by an estimate of the left one's decay.  That gives integers ``b !=
    0``, ``t`` and ``e`` with the exact sum within ``e / |b|`` of ``t /
    b``, the same integers with or without the child.  Folded onto one
    denominator the interval is ``(num ± radius) / den``, and
    :meth:`~hyperpi.bigfloat.BigFloat.from_ratio_ball` rounds it with one
    division: it returns the rounding every value in it shares, the exact
    sum included (with no truncated merge the radius is 0 and that is the
    exact sum's rounding).  Only when it declines (a rounding boundary, a
    binade edge or 0 lies in the interval, as for every interval across 0,
    or an interval widened by a decay estimate that came out too large) is
    the exact pair of :func:`_series_ratio` split and rounded instead.
    Either way the error is at most 1/2 ulp of the exact partial sum.
    """
    spec.validate()
    setup = _series_setup(spec)
    if terms > 0:
        b, t, e = truncated_product_sum(setup.sequences, terms, prec + SPLIT_GUARD_BITS)
        num, den, radius = setup.fold(t, b, e)
        value = BigFloat.from_ratio_ball(num, den, radius, prec)
        if value is not None:
            return value
    return BigFloat.from_ratio(*_series_ratio(spec, terms), prec)


def convergence_rate(spec: SeriesSpec, k: int) -> Fraction:
    """Exact ratio t(k+1)/t(k) of consecutive terms, read off the integer
    sequences that :func:`sum_series` splits (:func:`_series_setup`):
    weight(k+1) alpha(k) over weight(k) beta(k).  Its cost does not grow
    with ``k``.

    t(k) is zero, and :class:`ZeroTerm` is raised, exactly when poly(k) = 0
    or an upper parameter is an integer in [1 - k, 0], a factor of (u)_k.
    """
    spec.validate()
    if k < spec.start:
        raise DomainError(f"term index {k} below start index {spec.start}")
    if poly_eval(spec.poly, Fraction(k)) == 0 or any(
        u.denominator == 1 and 1 - k <= u <= 0 for u in spec.upper
    ):
        raise ZeroTerm(f"term at k={k} is zero; the ratio there is undefined")
    weights, alphas, betas = _series_setup(spec).sequences(k - spec.start, k - spec.start + 2)
    return Fraction(weights[1] * alphas[0], weights[0] * betas[0])


# ----------------------------------------------------------------------
# solving a series/closed-form pair for pi
# ----------------------------------------------------------------------


def compute_pi_via(spec: SeriesSpec, lhs: ConstExpr, digits: int) -> BigFloat:
    """Digits of pi from a series whose closed form is algebraic * pi**e.

    Supported exponents are -2, -1, 1 and 2; a square root is taken for the
    quadratic cases.  Closed forms containing gamma factors are rejected
    (pi is not recoverable from them by rational operations alone).
    """
    prec = precision_for_digits(digits)
    wp = prec + 32
    form = monomial(lhs)
    if form.gammas:
        raise UnsupportedLhs("closed form contains a gamma factor")
    exponent = form.pi_exponent
    if exponent not in (-2, -1, 1, 2):
        raise UnsupportedLhs(f"cannot solve for pi from pi-exponent {exponent}")
    series_value = sum_series(spec, terms_for_digits(digits, spec.base), wp)
    algebraic_value = eval_const_expr(form.residue, wp)
    if series_value.is_zero() or algebraic_value.is_zero():
        raise DomainError("degenerate series/closed-form pair while solving for pi")
    if exponent > 0:
        power = series_value.div(algebraic_value, wp)
    else:
        power = algebraic_value.div(series_value, wp)
    if abs(exponent) == 2:
        if power.man < 0:
            raise DomainError("negative value where pi**2 was expected")
        power = bigfloat_sqrt(power, wp)
    return power.round_to(prec)


# ----------------------------------------------------------------------
# hexadecimal digit extraction
# ----------------------------------------------------------------------


# Bellard's formula (F. Bellard, 1997) over its seven slots (weight, a, b):
#   pi = 2**-6 * sum_n (-1)**n * 2**(-10*n) * sum_slots weight/(a*n + b).
_BELLARD_SLOTS = ((-32, 4, 1), (-1, 4, 3), (256, 10, 1), (-64, 10, 3),
                  (-4, 10, 5), (-4, 10, 7), (1, 10, 9))

# Indices the spigot sums per modular power.  CPython's pow costs about as
# much per index on one index's 127-bit modulus (4.3 us at position 9*10**4)
# as on four indices' 507-bit one (3.2 us), so a step saves the listing and
# the division of the indices it folds in.  Over the benchmark's 60-position
# hex pass (Python 3.11, plain int, 2-CPU x86-64), four alternating runs
# each: one index per step took 7.4-7.9 s, two 5.1-6.0 s, four 5.1-5.7 s,
# six 5.2-5.9 s; four also quarters the retry margin.  Must be even, so
# that every step adds.
_SPIGOT_STEP = 4

# Fewest powered steps per range, below which a forked child costs more
# than it saves: a fork, pipe and waitpid round trip costs 2-4 ms, some
# 150 steps' work.  The spigot at frac_bits 160, split in two against
# serial, medians of nine runs in two sets (Python 3.11, plain int, 2-CPU
# x86-64): 400 steps (position 4*10**3) 6.3-6.5 ms against 4.8-6.5 ms, 600
# steps 7.3-8.8 against 7.7-9.3, 750 steps 9.5-10.1 against 10.0-10.5,
# 1000 steps 10.6-11.5 against 11.4-15.2, 2000 steps 18-22 against 25-37.
# The crossover lies near 600-750 steps, so two ranges start at 640.
_MIN_FORK_STEPS = 320

# The spigot's error margin is about 0.1 * position ulps, so even at this
# reach it stays far below the 96 guard bits of the first attempt; the cost,
# linear in the position, is the practical limit long before.
_MAX_SPIGOT_REACH = 1 << 48


def _bellard_summand(group: int) -> tuple[list[int], list[int]]:
    """Ascending coefficients of P and M with P(k)/M(k) equal to
    ``sum_j (-1)**j * 1024**(group-1-j) * S(group*k + j)`` over j < group,
    where S(n) is the slot sum of Bellard's term n: M is the product of the
    ``7 * group`` linear forms and P the sum of each weight times the other
    forms, built as one running fraction."""
    numerator, denominator = [0], [1]
    for j in range(group):
        for weight, a, b in _BELLARD_SLOTS:
            form = [(a * j + b, group * a)]
            # P/M + w/f = (P*f + w*M) / (M*f); P's top coefficient stays 0
            scaled = [(-1) ** j * 1024 ** (group - 1 - j) * weight * c for c in denominator]
            numerator = list(map(operator.add, poly_expand(numerator, form), scaled + [0]))
            denominator = poly_expand(denominator, form)
    return numerator[:-1], denominator


# One step of _SPIGOT_STEP indices.  Every form is positive for k >= 0, so
# the denominator is.
_BELLARD_STEP_P, _BELLARD_STEP_M = _bellard_summand(_SPIGOT_STEP)


def _powered_sum(first: int, shift: int, lo: int, hi: int) -> int:
    """Sum over the steps k in [lo, hi) of ``(1024**e mod M(k)) * P(k) *
    2**shift // M(k)``, with ``e = first - G*k``.  The step polynomials come
    by forward differences, lazily, and the powers, products and divisions
    run as maps over them, so no list of the steps is ever built."""
    group = _SPIGOT_STEP
    ms, ms_again = tee(poly_values(_BELLARD_STEP_M, lo, hi))
    ps = poly_values(_BELLARD_STEP_P, lo, hi)
    powers = map(pow, repeat(1024), range(first - group * lo, first - group * hi, -group), ms)
    products = map(operator.lshift, map(operator.mul, powers, ps), repeat(shift))
    return sum(map(operator.floordiv, products, ms_again))


def _powered_total(first: int, shift: int, powered: int) -> int:
    """:func:`_powered_sum` over all ``powered`` steps, the same integer
    whatever the CPU count.

    The steps are cut into contiguous ranges, one per usable CPU, each at
    least ``_MIN_FORK_STEPS`` steps long, and summed by
    :func:`~hyperpi.splitting.run_parts`: forked children sum all but the
    last range while this process sums the last.  With one range (one CPU,
    too few steps, no ``os.sched_getaffinity``, a process with threads)
    nothing is forked.
    """
    parts = max(1, min(usable_cpus(), powered // _MIN_FORK_STEPS))
    bounds = [powered * i // parts for i in range(parts + 1)]
    return sum(run_parts([
        partial(_powered_sum, first, shift, lo, hi) for lo, hi in zip(bounds, bounds[1:])
    ]))


def _spigot_fraction(position: int, frac_bits: int) -> tuple[int, int, int]:
    """Fixed-point fractional part of ``16**position * pi``, the number of
    indices of Bellard's sum it adds up, and the number of floor divisions
    it takes, which bounds its error in ulps (see below).

    With ``4*position - 6 = 10*q + c0``, index ``n`` of Bellard's sum is
    ``(-1)**n * 2**(10*(q-n) + c0) * S(n)``, S(n) its slot sum.  The indices
    are summed G = ``_SPIGOT_STEP`` at a time: step ``k`` is ``2**(10*e + c0)
    * P(k)/M(k)`` with P and M from :func:`_bellard_summand` and ``e =
    q-G+1-G*k`` (G even, so no sign).  While ``e >= 0`` only its
    fractional part counts, and that depends on ``1024**e`` modulo ``M(k)``
    alone: one modular power for G indices.  These powered steps are
    independent, so :func:`_powered_total` sums them by contiguous range,
    one range per usable CPU, in forked children; the result does not
    depend on the CPU count.  Later steps are plain shifts, summed here.
    """
    exponent = 4 * position - 6
    q, c0 = divmod(exponent, 10)
    shift = c0 + frac_bits
    # Drift bound.  Each floor division below errs by less than one ulp, and
    # so does the sum of the omitted terms: for every n >= 0,
    # |S(n)| <= 2**5/(4n+1) + 1/(4n+3) + 2**8/(10n+1) + 2**6/(10n+3)
    #         + 2**2/(10n+5) + 2**2/(10n+7) + 1/(10n+9) < 312 < 2**9,
    # so in ulps index n is below 2**(exponent - 10*n + 9 + frac_bits).  The
    # sum runs past the first n where that exponent is negative, so the tail
    # is below 2**-1 * (1 + 2**-10 + 2**-20 + ...) < 1.  With ``divisions``
    # divisions the result is within ``divisions + 1`` ulps of the exact
    # value, modulo 2**frac_bits.  No division reduces modulo M first: a
    # power r = 1024**e - t*M shifts the quotient by t*P*2**shift, a
    # multiple of 2**frac_bits, which the final reduction drops.
    last = (exponent + 9 + frac_bits) // 10
    group = _SPIGOT_STEP
    first = q - group + 1  # e at step 0
    powered = (q + 1) // group  # the steps with e >= 0 (q >= -1)
    steps = last // group + 1  # through index ``last``
    total = _powered_total(first, shift, powered)
    tail = zip(
        poly_values(_BELLARD_STEP_M, powered, steps), poly_values(_BELLARD_STEP_P, powered, steps)
    )
    for k, (m, p) in enumerate(tail, start=powered):
        bits = 10 * (first - group * k) + shift
        total += (p << bits) // m if bits >= 0 else p // (m << -bits)
    return total % (1 << frac_bits), group * steps, steps


def bbp_hex_digits(position: int, count: int) -> str:
    """``count`` hexadecimal digits of the fractional part of pi.

    ``position`` is the 0-based offset of the first returned digit, so
    ``bbp_hex_digits(0, 16)`` is ``"243F6A8885A308D3"``.  Earlier digits are
    never computed: the digits come from Bellard's base-2**10 formula, one
    modular power per four indices.  The powered steps are summed by
    contiguous range, one range per usable CPU (at least ``_MIN_FORK_STEPS``
    steps each), in forked children; without ``os.sched_getaffinity``, or in
    a process with threads, they are summed serially, and the digits do not
    depend on which.  The sum is within ``divisions + 1`` ulps of the exact
    value (proved in :func:`_spigot_fraction`), about a tenth of the
    position; digits are returned only when no error that small can carry
    into them, and otherwise the sum is redone with 64 more guard bits, up
    to eight times.
    """
    if not 1 <= count <= 16:
        raise RangeError(f"digit count must be between 1 and 16, got {count}")
    if position < 0:
        raise RangeError(f"digit position must be nonnegative, got {position}")
    if position + count > _MAX_SPIGOT_REACH:
        raise RangeError(
            f"position + count must stay at or below 2**48, got {position + count}"
        )
    extra = 96
    for _ in range(8):
        frac_bits = 4 * count + extra
        guard_bits = extra
        value, _, divisions = _spigot_fraction(position, frac_bits)
        guard = value & ((1 << guard_bits) - 1)
        # The value is within divisions + 1 ulps of the exact fraction, so the
        # digits above the guard bits are exact unless a carry of that size
        # could still flip them; retry with more guard bits when it could.
        margin = divisions + 1
        if margin <= guard < (1 << guard_bits) - margin:
            return format(value >> guard_bits, f"0{count}X")
        extra += 64
    raise DomainError("digit extraction could not separate a carry boundary")


# ----------------------------------------------------------------------
# exact reduction to the digit-extraction templates
# ----------------------------------------------------------------------


def summand_residues(spec: SeriesSpec) -> tuple[tuple[Fraction, Fraction], ...]:
    """Pairs ``(coeff, pole)`` with ``sum coeff / (k + pole)`` equal to the
    summand ``sign * poly(k) * prod(upper)_k / prod(lower)_k``.

    Requires every upper parameter to pair with a distinct lower parameter
    at a nonnegative integer shift m (smallest shift wins).  Then
    (u)_k / (u + m)_k = (u)_m / ((k + u) ... (k + u + m - 1)), so the poles
    are the u + i, i < m, and with N = sign * prod (u)_m * poly the
    coefficient at pole p_i is N(-p_i) / prod_{j != i} (p_j - p_i).
    Raises :class:`NoMatch` for an unpaired parameter,
    :class:`RepeatedPole` when two pairings share a pole, and
    :class:`NoMatch` for a polynomial part (deg N >= the number of poles).
    """
    if len(spec.upper) != len(spec.lower):
        raise NoMatch("upper and lower parameter counts differ; cannot pair them")
    taken = [False] * len(spec.lower)
    constant = Fraction(spec.sign)
    poles: list[Fraction] = []
    for u in spec.upper:
        best: tuple[int, Fraction] | None = None
        for i, low in enumerate(spec.lower):
            if taken[i]:
                continue
            shift = low - u
            if shift.denominator == 1 and shift >= 0:
                if best is None or shift < best[1]:
                    best = (i, shift)
        if best is None:
            raise NoMatch(
                f"upper parameter {u} has no lower partner at a nonnegative integer shift"
            )
        taken[best[0]] = True
        for i in range(int(best[1])):
            constant *= u + i
            poles.append(u + i)
    if len(set(poles)) != len(poles):
        raise RepeatedPole("two pairings share a pole; the summand has a repeated pole")
    numerator = poly_trim(coeff * constant for coeff in spec.poly)
    if len(numerator) > len(poles):
        raise NoMatch("summand has a polynomial part: numerator degree >= number of poles")
    return tuple(
        (poly_eval(numerator, -p) / math.prod(q - p for q in poles if q != p), p)
        for p in poles
    )


class BbpEquivalence(NamedTuple):
    """Certificate that a base-16 series is a classic digit-extraction sum."""

    family: str  # "pi" or "two-pi"
    sigma: Fraction  # common multiplier of the family's slot template
    slot_coefficients: tuple[Fraction, ...]  # merged 1/(8n+j) weights, j=1..8
    head_correction: Fraction  # exact value the additive constant must equal
    lhs_coefficient: Fraction  # rational r with closed form r * pi


def verify_bbp_equivalence(spec: SeriesSpec, lhs: ConstExpr) -> BbpEquivalence:
    """Prove (exactly) that the series is sigma times a digit-extraction sum.

    The summand is written as simple fractions 1/(k + pole) at the poles its
    paired parameters name (:func:`summand_residues`), and every pole is
    folded modulo 8 with the matching 16**m weight.  The folded slot vector
    must be proportional to one of the two classic templates, the
    index-shift head terms must reproduce the additive constant, and the
    template multiplier must reproduce the closed form's rational
    coefficient.  Raises :class:`NoMatch` with the first failing condition
    otherwise, and :class:`RepeatedPole` from :func:`summand_residues`.
    """
    if spec.base != 16:
        raise NoMatch(f"digit-extraction reduction requires base 16, got {spec.base}")
    closed = monomial(lhs)
    if closed.pi_exponent != 1:
        raise NoMatch(f"closed form has pi-exponent {closed.pi_exponent}, expected 1")
    lhs_coefficient = closed.rational
    if closed.gammas or lhs_coefficient is None:
        raise NoMatch("closed form is not a rational multiple of pi")
    slots = [Fraction(0)] * 9  # 1-indexed by j
    head = Fraction(0)
    for coeff, pole in summand_residues(spec):
        eighth = 8 * pole
        if eighth.denominator != 1:
            raise NoMatch(f"pole at k = {-pole} is not an eighth-integer")
        eighth = int(eighth)
        j = (eighth - 1) % 8 + 1
        fold = (eighth - j) // 8
        weight = 8 * coeff * Fraction(16) ** fold
        slots[j] += weight
        first_index = spec.start + fold
        # the terms n < first_index, or minus those first_index <= n < 0
        shift_sum = sum(Fraction(1, 16) ** n / (8 * n + j) for n in range(first_index)) - sum(
            Fraction(1, 16) ** n / (8 * n + j) for n in range(first_index, 0)
        )
        head += weight * shift_sum
    for family, template, multiplier in (
        ("pi", SLOTS_PI, Fraction(1)),
        ("two-pi", SLOTS_TWO_PI, Fraction(2)),
    ):
        # one ratio over the template's nonzero slots, zero in its others
        ratios = {slots[j] / template[j - 1] for j in range(1, 9) if template[j - 1] != 0}
        if len(ratios) != 1 or any(slots[j] for j in range(1, 9) if template[j - 1] == 0):
            continue
        (sigma,) = ratios
        if spec.additive != head:
            raise NoMatch(
                f"additive constant {spec.additive} differs from the exact "
                f"index-shift correction {head}"
            )
        if sigma * multiplier != lhs_coefficient:
            raise NoMatch(
                f"template multiple {sigma * multiplier} differs from the "
                f"closed form coefficient {lhs_coefficient}"
            )
        return BbpEquivalence(
            family=family,
            sigma=sigma,
            slot_coefficients=tuple(slots[1:]),
            head_correction=head,
            lhs_coefficient=lhs_coefficient,
        )
    raise NoMatch(
        f"slot coefficients {tuple(map(str, slots[1:]))} fit neither "
        "digit-extraction template"
    )
