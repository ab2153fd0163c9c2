"""Arbitrary-precision binary floating point built on Python integers.

A :class:`BigFloat` is an immutable triple (mantissa, exponent, precision)
representing the exact dyadic rational ``man * 2**exp``.  Nonzero mantissas
are normalized to exactly ``prec`` bits, i.e. ``2**(prec-1) <= |man| <
2**prec``.  ``normalize``, ``add`` and ``mul`` form the exact
result and round it once to the target precision using round-half-to-even.
Quotients follow the same rule: :meth:`BigFloat.from_ratio` rounds
``num / den`` to the nearest ``prec``-bit value, ties to even, so it is at
most 1/2 ulp off and its bits depend only on the value, never on the
representation of the pair.  ``from_fraction`` and ``div`` are that one
rounding, and so is :meth:`BigFloat.from_ratio_ball`, which rounds a whole
interval ``(num ± radius) / den`` with the same one division when all of
it rounds alike; ``from_ratio`` is its radius-0 case.

Elementary functions (sqrt, exp, ln and integer powers) work in
fixed-point integer arithmetic with guard bits taken from
:data:`GUARD_BITS`, all on Python's ``int``; ``exp``, and ``ln`` where
|ln x| >= 2**-39, are within 1 ulp of the value at the exact dyadic input,
the budget :mod:`hyperpi.gammafn` counts for its prefactor N^s e^(-N).

The module also provides reference constants in fixed point: pi by
Machin's arctangent formula, cross-checked against Gauss's three-term one,
and ln 2 by 2 atanh(1/3).  They and ``ln`` go through one helper that sums
each arctangent with :func:`~hyperpi.splitting.truncated_product_sum` and
rounds it with one division under a stated, checked error budget; pi and
ln 2 are cached at the largest precision computed so far.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import partial
from typing import NamedTuple

from hyperpi.errors import DomainError, InvariantViolation
from hyperpi.splitting import truncated_product_sum

GUARD_BITS = 32

# Decimal digits per str() call in _decimal_text: below the int-to-str
# digit limit that Python 3.11+ enforces by default (4300 digits).
_DECIMAL_LEAF_DIGITS = 2000


def round_shift(value: int, shift: int) -> int:
    """Round ``value / 2**shift`` to the nearest integer, ties to even."""
    if shift <= 0:
        return value << (-shift)
    sign = -1 if value < 0 else 1
    mag = -value if value < 0 else value
    head = mag >> shift
    rem = mag - (head << shift)
    half = 1 << (shift - 1)
    if rem > half or (rem == half and (head & 1)):
        head += 1
    return sign * head


def _decimal_text(value: int) -> str:
    """Decimal digits of a nonnegative integer of any size.

    The value is split by divide and conquer on powers 10**(L * 2**j), with
    L = :data:`_DECIMAL_LEAF_DIGITS`, until every piece has at most L
    digits; each piece goes through ``str``, zero-padded to L digits
    except the leading one.  No interpreter-wide limit is touched.
    """
    if value < 10**_DECIMAL_LEAF_DIGITS:
        return str(value)
    powers = [10**_DECIMAL_LEAF_DIGITS]  # powers[j] = 10**(L * 2**j)
    while powers[-1] * powers[-1] <= value:
        powers.append(powers[-1] * powers[-1])
    parts: list[str] = []
    _emit_decimal(value, len(powers) - 1, False, powers, parts)
    return "".join(parts)


def _emit_decimal(n: int, level: int, pad: bool, powers: list[int], parts: list[str]) -> None:
    """Append the decimal pieces of ``n < powers[level]**2`` to ``parts`` for
    :func:`_decimal_text`.  Not a closure: a recursive one is a cycle that
    keeps the powers and pieces alive after the call."""
    if level < 0:
        text = str(n)
        parts.append(text.zfill(_DECIMAL_LEAF_DIGITS) if pad else text)
        return
    high, low = divmod(n, powers[level])
    if high or pad:
        _emit_decimal(high, level - 1, pad, powers, parts)
        _emit_decimal(low, level - 1, True, powers, parts)
    else:
        _emit_decimal(low, level - 1, False, powers, parts)


def div_nearest(num: int, den: int) -> int:
    """Round ``num / den`` to the nearest integer, ties away from zero."""
    if den < 0:
        num, den = -num, -den
    if num >= 0:
        return (2 * num + den) // (2 * den)
    return -((-2 * num + den) // (2 * den))


class BigFloat(NamedTuple):
    """Immutable arbitrary-precision binary float ``man * 2**exp``.

    Equality and the hash are the tuple's, over the fields.  Every
    constructor rounds through :meth:`normalize`, so at one precision equal
    fields mean equal values; across precisions they do not.  There is no
    order: ``<`` and its kin raise :class:`TypeError`.
    """

    man: int
    exp: int
    prec: int

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @staticmethod
    def normalize(man: int, exp: int, prec: int) -> "BigFloat":
        """Round an exact dyadic ``man * 2**exp`` to ``prec`` bits."""
        if prec < 1:
            raise DomainError("precision must be positive")
        if man == 0:
            return BigFloat(0, 0, prec)
        shift = man.bit_length() - prec
        rounded = round_shift(man, shift)
        if abs(rounded).bit_length() > prec:  # rounding carried out a bit
            rounded >>= 1
            shift += 1
        return BigFloat(rounded, exp + shift, prec)

    @staticmethod
    def zero(prec: int) -> "BigFloat":
        return BigFloat(0, 0, prec)

    @staticmethod
    def from_int(value: int, prec: int) -> "BigFloat":
        return BigFloat.normalize(value, 0, prec)

    @staticmethod
    def from_fraction(value: Fraction, prec: int) -> "BigFloat":
        """``value`` correctly rounded to ``prec`` bits (:meth:`from_ratio`)."""
        return BigFloat.from_ratio(value.numerator, value.denominator, prec)

    @staticmethod
    def from_ratio(num: int, den: int, prec: int) -> "BigFloat":
        """``num / den`` correctly rounded to ``prec`` bits: the nearest
        ``prec``-bit value, ties to even, at most 1/2 ulp away.  It is
        :meth:`from_ratio_ball` at radius 0, so its bits depend only on the
        value: a common factor of the pair never changes the result."""
        value = BigFloat.from_ratio_ball(num, den, 0, prec)
        assert value is not None  # a point interval is always decided
        return value

    @staticmethod
    def from_ratio_ball(num: int, den: int, radius: int, prec: int) -> "BigFloat | None":
        """The ``prec``-bit rounding (nearest, ties to even) that every value
        in ``[(num - radius) / den, (num + radius) / den]`` shares, or None;
        ``radius >= 0``.

        The exponent comes from the midpoint, e = floor(log2 |num/den|), and
        one ``divmod`` gives the ``prec``-bit quotient ``q = floor(|num/den|
        * 2**(prec-1-e))`` and its remainder ``0 <= r < den'``: on that
        scale the ends are ``q + (r ± radius') / den'``.  With ``r + radius'
        < den' / 2`` both lie within 1/2 of q and round to it; with ``r -
        radius' > den' / 2`` both lie between q + 1/2 and q + 3/2 and round
        to q + 1.  Rounding is monotone, so every value between the ends
        rounds there too (an upper end at 2**prec or just above it rounds
        to 2**prec with the rest).  None means the ends round apart, or an
        end sits on a tie, below the midpoint's binade or on 0.  At radius 0
        a tie goes to even, so a value is always returned.
        """
        if den == 0:
            raise ZeroDivisionError("from_ratio with a zero denominator")
        if num == 0:
            return None if radius else BigFloat.zero(prec)
        negative = (num < 0) != (den < 0)
        num, den = abs(num), abs(den)
        e = num.bit_length() - den.bit_length()
        if (num >> e if e >= 0 else num << -e) < den:  # (num >> e) < den iff num < den * 2**e
            e -= 1
        shift = prec - 1 - e
        if shift >= 0:
            num <<= shift
            radius <<= shift
        else:
            den <<= -shift
        q, r = divmod(num, den)
        if r < radius and q == 1 << (prec - 1):
            return None  # the lower end is below the binade whose ulp the tests below assume
        if 2 * (r + radius) < den:
            pass  # both ends round down to q
        elif 2 * (r - radius) > den:
            q += 1  # both round up; a carry to 2**prec is renormalized below
        elif radius:
            return None  # the ends round apart, or one is a tie
        else:
            q += q & 1  # a tie, to even
        return BigFloat.normalize(-q if negative else q, -shift, prec)

    @staticmethod
    def from_fixed(value: int, fbits: int, prec: int) -> "BigFloat":
        """Interpret ``value`` as a fixed-point number with ``fbits`` fraction bits."""
        return BigFloat.normalize(value, -fbits, prec)

    # ------------------------------------------------------------------
    # conversion
    # ------------------------------------------------------------------

    def to_fraction(self) -> Fraction:
        if self.exp >= 0:
            return Fraction(self.man << self.exp, 1)
        return Fraction(self.man, 1 << (-self.exp))

    def to_fixed(self, fbits: int) -> int:
        """Return ``round(value * 2**fbits)``."""
        return round_shift(self.man, -(self.exp + fbits))

    def to_float(self) -> float:
        if self.man == 0:
            return 0.0
        bl = self.man.bit_length()
        top = round_shift(self.man, bl - 54)
        try:
            return math.ldexp(top, self.exp + bl - 54)
        except OverflowError:
            return math.inf if self.man > 0 else -math.inf

    def to_decimal_string(self, digits: int) -> str:
        """Decimal string with exactly ``digits`` digits after the point.

        The final digit is rounded to nearest; callers comparing long digit
        strings should therefore evaluate both sides at the same precision.
        """
        if digits < 0:
            raise DomainError("digits must be nonnegative")
        scaled = abs(self.man) * 10**digits
        total = scaled << self.exp if self.exp >= 0 else round_shift(scaled, -self.exp)
        sign = "-" if self.man < 0 else ""
        text = _decimal_text(total).rjust(digits + 1, "0")
        if digits == 0:
            return sign + text
        return sign + text[:-digits] + "." + text[-digits:]

    def _unordered(self, other: object) -> bool:
        raise TypeError("BigFloats are unordered: compare with sub, is_zero or below_power_of_ten")

    # as a tuple it would order by (man, exp, prec), not by value
    __lt__ = __le__ = __gt__ = __ge__ = _unordered

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------

    def add(self, other: "BigFloat", prec: int) -> "BigFloat":
        if self.man == 0:
            return BigFloat.normalize(other.man, other.exp, prec)
        if other.man == 0:
            return BigFloat.normalize(self.man, self.exp, prec)
        e = min(self.exp, other.exp)
        man = (self.man << (self.exp - e)) + (other.man << (other.exp - e))
        return BigFloat.normalize(man, e, prec)

    def sub(self, other: "BigFloat", prec: int) -> "BigFloat":
        return self.add(other.neg(), prec)

    def mul(self, other: "BigFloat", prec: int) -> "BigFloat":
        if self.man == 0 or other.man == 0:
            return BigFloat.zero(prec)
        man = self.man * other.man
        return BigFloat.normalize(man, self.exp + other.exp, prec)

    def div(self, other: "BigFloat", prec: int) -> "BigFloat":
        """``self / other`` correctly rounded: :meth:`from_ratio` of the
        mantissas, shifted by the difference of the exponents."""
        if other.man == 0:
            raise DomainError("division by zero")
        if self.man == 0:
            return BigFloat.zero(prec)
        q = BigFloat.from_ratio(self.man, other.man, prec)
        return BigFloat(q.man, q.exp + self.exp - other.exp, prec)

    def mul_fraction(self, factor: Fraction, prec: int) -> "BigFloat":
        return self.mul(BigFloat.from_fraction(factor, prec + 8), prec)

    def neg(self) -> "BigFloat":
        return BigFloat(-self.man, self.exp, self.prec)

    def abs(self) -> "BigFloat":
        return BigFloat(abs(self.man), self.exp, self.prec)

    def is_zero(self) -> bool:
        return self.man == 0

    def round_to(self, prec: int) -> "BigFloat":
        return BigFloat.normalize(self.man, self.exp, prec)

    def magnitude_exponent(self) -> int:
        """Exponent e with 2**(e-1) <= |value| < 2**e (0 for a zero value)."""
        if self.man == 0:
            return 0
        return self.exp + abs(self.man).bit_length()


# ----------------------------------------------------------------------
# cached integer constants (fixed point)
# ----------------------------------------------------------------------

_pi_cache: dict[str, int] = {"fbits": -1, "value": 0}
_ln2_cache: dict[str, int] = {"fbits": -1, "value": 0}

# (c, p, q) tables for _arctan_fixed: pi = 16 atan(1/5) - 4 atan(1/239) (Machin)
# = 48 atan(1/18) + 32 atan(1/57) - 20 atan(1/239) (Gauss); ln 2 = 2 atanh(1/3).
_MACHIN = ((16, 1, 5), (-4, 1, 239))
_GAUSS = ((48, 1, 18), (32, 1, 57), (-20, 1, 239))
_LN2 = ((2, 1, 3),)


def _arctan_fixed(table: tuple[tuple[int, int, int], ...], sign: int, fbits: int) -> int:
    """The sum of ``c * atan(r)`` (``sign`` -1) or ``c * atanh(r)`` (``sign``
    +1), r = p/q <= 1/3, over the (c, p, q) rows of ``table``, times 2**fbits.

    Each row sums S = sum_k sign**k r**(2k) / (2k+1) over N = floor(fbits /
    log2(q**2 / p**2)) + 8 terms by :func:`truncated_product_sum` at width
    fbits + 64, with |t - S*b| <= e, and adds ``div_nearest(c * p * t *
    2**fbits, q * b)``.  Its error, in units of 2**-fbits, is at most

    * 1/2 from ``div_nearest``;
    * plus |c| p e 2**fbits / (q |b|) from the interval, checked below 1 here
      (a truncated ``b`` keeps fbits + 64 bits; e is 0 otherwise);
    * plus the tail: r**(2N) < 2**-fbits r**14, and the tail is at most
      1 / (1 - r**2) times r**(2N) / (2N+1) of |c| r, so below |c| r**15.

    Machin's sum is off by less than 3.01, Gauss's by less than 4.51 and
    ln 2's by less than 1.51.
    """
    total = 0
    for c, p, q in table:
        terms = int(fbits / (math.log2(q * q) - math.log2(p * p))) + 8
        sequences = partial(_arctan_sequences, sign * p * p, q * q)
        b, t, e = truncated_product_sum(sequences, terms, fbits + 64)
        if abs(c) * p * e << fbits >= q * abs(b):
            raise InvariantViolation(
                f"series at {p}/{q}: a {e.bit_length()}-bit interval on a {b.bit_length()}-bit b"
            )
        total += div_nearest(c * p * t << fbits, q * b)
    return total


def _arctan_sequences(p2: int, q2: int, lo: int, hi: int) -> tuple[list[int], ...]:
    """Weights, alphas and betas of one arctangent series over [lo, hi)."""
    span = range(lo, hi)
    return [1] * len(span), [(2 * i + 1) * p2 for i in span], [(2 * i + 3) * q2 for i in span]


def pi_fixed(fbits: int) -> int:
    """Return ``round(pi * 2**fbits)``, cached: Machin's formula at fbits +
    16 bits through :func:`_arctan_fixed`, cross-checked there against
    Gauss's.  Their budgets are 3.01 and 4.51 units, so a difference above
    8 raises :class:`DomainError`."""
    if _pi_cache["fbits"] < fbits:
        work = fbits + 16
        machin = _arctan_fixed(_MACHIN, -1, work)
        if abs(machin - _arctan_fixed(_GAUSS, -1, work)) > 8:
            raise DomainError(
                "internal pi cross-check failed: independent arctangent "
                "decompositions disagree"
            )
        _pi_cache.update(fbits=work, value=machin)
    return round_shift(_pi_cache["value"], _pi_cache["fbits"] - fbits)


def ln2_fixed(fbits: int) -> int:
    """Return ``round(ln(2) * 2**fbits)`` via 2*atanh(1/3), cached: at
    fbits + 16 bits :func:`_arctan_fixed` is within 1.51 units."""
    if _ln2_cache["fbits"] < fbits:
        work = fbits + 16
        _ln2_cache.update(fbits=work, value=_arctan_fixed(_LN2, 1, work))
    return round_shift(_ln2_cache["value"], _ln2_cache["fbits"] - fbits)


def pi_reference(prec: int) -> BigFloat:
    """Reference value of pi at ``prec`` bits.

    Requires ``prec >= 64``; the result is independently cross-checked the
    first time each record precision is computed.
    """
    if prec < 64:
        raise DomainError("pi_reference requires precision >= 64 bits")
    return BigFloat.from_fixed(pi_fixed(prec + 8), prec + 8, prec)


# ----------------------------------------------------------------------
# elementary functions
# ----------------------------------------------------------------------


def sqrt(x: BigFloat, prec: int) -> BigFloat:
    """Square root, correctly rounded to within one ulp."""
    if x.man < 0:
        raise DomainError("square root of a negative value")
    if x.man == 0:
        return BigFloat.zero(prec)
    shift = max(0, 2 * (prec + 8) - x.man.bit_length())
    if (x.exp - shift) & 1:
        shift += 1
    root = math.isqrt(x.man << shift)
    return BigFloat.normalize(root, (x.exp - shift) // 2, prec)


def _exp_fixed(arg: int, fbits: int) -> int:
    """``round(exp(arg / 2**fbits) * 2**fbits)`` for |arg/2**fbits| <= 0.35."""
    halvings = 8 if fbits <= 4096 else 14
    reduced = round_shift(arg, halvings)
    one = 1 << fbits
    term = one
    acc = one
    i = 1
    while term != 0:
        term = div_nearest(term * reduced, i << fbits)
        acc += term
        i += 1
    for _ in range(halvings):
        acc = round_shift(acc * acc, fbits)
    return acc


def exp(x: BigFloat, prec: int) -> BigFloat:
    """Exponential function, within 1 ulp of ``exp`` of the exact dyadic
    input.

    Guard bits grow with the magnitude of the argument, whose multiple of
    ln 2 is taken out exactly.
    """
    mag = max(0, x.magnitude_exponent())
    wp = prec + GUARD_BITS + 2 * mag + 8
    fixed = x.to_fixed(wp)
    if fixed == 0:
        return BigFloat.from_int(1, prec)
    ln2 = ln2_fixed(wp)
    k = div_nearest(fixed, ln2)
    rem = fixed - k * ln2
    mantissa = _exp_fixed(rem, wp)
    return BigFloat.normalize(mantissa, k - wp, prec)


def ln(x: BigFloat, prec: int) -> BigFloat:
    """Natural logarithm: for x = m 2**e with 2**k <= m < 2**(k+1), ln x =
    (e + k) ln 2 + 2 atanh(p/q), p/q = (m - 2**k) / (m + 2**k) in lowest
    terms, in [0, 1/3); one row of :func:`_arctan_fixed`, none for p = 0.

    At wp = prec + GUARD_BITS + L + 8 fraction bits, L the bit length of
    |e + k|, ``ln2_fixed(wp)`` adds at most |e + k| (1/2 + 1.51 2**-16)
    units of 2**-wp (rounded from a cached value 16 or more bits deeper)
    and the row 1/2 + 1 + 2 (1/3)**15, its middle term checked there: below
    2**L + 1 units, or 2**-(prec + 39).  With the final 1/2 ulp the result
    is within 1 ulp whenever |ln x| >= 2**-39.  The row's operands are as
    long as p/q: at most 16 bits for gammafn's integer N.
    """
    if x.man <= 0:
        raise DomainError("logarithm requires a positive value")
    k = x.man.bit_length() - 1
    shift = x.exp + k
    p, q = x.man - (1 << k), x.man + (1 << k)
    g = math.gcd(p, q)
    wp = prec + GUARD_BITS + abs(shift).bit_length() + 8
    fixed = shift * ln2_fixed(wp) + _arctan_fixed(((2, p // g, q // g),) if p else (), 1, wp)
    return BigFloat.normalize(fixed, -wp, prec)


def pow_int(x: BigFloat, exponent: int, prec: int) -> BigFloat:
    """Integer power by binary exponentiation."""
    if exponent == 0:
        return BigFloat.from_int(1, prec)
    wp = prec + GUARD_BITS + 4 * max(1, abs(exponent).bit_length())
    base = x.round_to(wp)
    if exponent < 0:
        base = BigFloat.from_int(1, wp).div(base, wp)
        exponent = -exponent
    acc = BigFloat.from_int(1, wp)
    while exponent:
        if exponent & 1:
            acc = acc.mul(base, wp)
        base = base.mul(base, wp)
        exponent >>= 1
    return acc.round_to(prec)


def below_power_of_ten(value: BigFloat, digits: int) -> bool:
    """True when ``|value| < 10**-digits``, compared exactly."""
    return value.is_zero() or abs(value.to_fraction()) < Fraction(1, 10**digits)
