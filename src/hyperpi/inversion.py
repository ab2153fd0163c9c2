"""Binomial inverse series relations (plain and extended), verified in
exact rational arithmetic.

A scheme is a pair of rational sequences ``(a_j)``, ``(b_j)`` subject to
the nonvanishing condition that the triangular products

    phi(x; n) = prod_{j=0}^{n-1} (a_j + x * b_j),   phi(x; 0) = 1

never vanish at the evaluation points used by the transforms.  The plain
pair of mutually inverse transforms is

    f(n) = sum_{k=0}^n (-1)^k C(n,k) phi(k; n) g(k)
    g(n) = sum_{k=0}^n (-1)^k C(n,k) (a_k + k b_k) / phi(n; k+1) f(k)

and the extended pair, with an extra free parameter ``lam``, is

    f(n) = sum_{k=0}^n (-1)^k C(n,k) phi(lam+k; n) phi(-k; n)
              (lam + 2k) / (lam + n)_{k+1} g(k)
    g(n) = sum_{k=0}^n (-1)^k C(n,k) (a_k + (lam+k) b_k)(a_k - k b_k)
              / (phi(lam+n; k+1) phi(-n; k+1)) (lam + k)_n f(k)

Round-trip checks apply one transform then the other and compare with the
original sequence, exactly.

Everything is integer arithmetic.  Each a_j, b_j pair is written over its
common denominator q_j, and phi(x; .) at an evaluation point x = X/s is
built once per scheme as a prefix product of the integer factors
A_j s + X B_j, its denominators q_j s in a second prefix product.  At degree
n the weight of input k then takes the form u_k / (c e_0 ... e_k): the
denominators that do not depend on k gather in c, the ones that grow with k
(phi(n; k+1), (lam+n)_{k+1}, phi(lam+n; k+1) phi(-n; k+1)) are nested
products.  A transform value is one Horner pass over the inputs, written
over their least common denominator, giving one unreduced pair that is
reduced once.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple, Sequence

from hyperpi.errors import ZeroDenominator
from hyperpi.factorials import rising
from hyperpi.prng import SplitMix64

Pair = tuple[int, int]  # unreduced (numerator, denominator)
# Integer form of a transform at degree n: the weight of input k is
# u[k] / (c * e[0] * ... * e[k]) for (u, e, c).
Weights = tuple[list[int], list[int], int]


class _Sequences(NamedTuple):
    a_values: tuple[Fraction, ...]
    b_values: tuple[Fraction, ...]
    lam: Fraction = Fraction(0)


class InversionScheme(_Sequences):
    """A tabulated scheme: finite prefixes of the two defining sequences.

    ``lam`` participates only in the extended transforms.  The tabulated
    prefixes must cover every index the transforms touch (0 .. n_max).
    Immutable: the sequences are the fields of a NamedTuple, and this
    subclass adds only the ``__dict__`` that caches :attr:`scaled` and the
    prefix products of :meth:`phi_prefix`.
    """

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to {name!r}: InversionScheme is immutable")

    @cached_property
    def scaled(self) -> list[tuple[int, int, int]]:
        """(A_j, B_j, q_j) with a_j = A_j / q_j and b_j = B_j / q_j over
        the least common denominator q_j of the pair."""
        out = []
        for a, b in zip(self.a_values, self.b_values):
            q = math.lcm(a.denominator, b.denominator)
            out.append((a.numerator * (q // a.denominator), b.numerator * (q // b.denominator), q))
        return out

    @cached_property
    def _prefixes(self) -> dict[Fraction, tuple[list[int], list[int]]]:
        """:meth:`phi_prefix` by evaluation point, filled as points are used."""
        return {}

    def phi_prefix(self, x: Fraction) -> tuple[list[int], list[int]]:
        """phi(x; m) for every tabulated m as two integer prefix products.

        With x = X/s, factor j is (A_j s + X B_j) / (q_j s): entry m of the
        first list is the product of the numerators below m, of the second
        the product of the denominators.  Built once per evaluation point.
        """
        prefix = self._prefixes.get(x)
        if prefix is None:
            big_x, s = x.numerator, x.denominator
            nums, dens = [1], [1]
            for a, b, q in self.scaled:
                nums.append(nums[-1] * (a * s + big_x * b))
                dens.append(dens[-1] * q * s)
            prefix = self._prefixes[x] = (nums, dens)
        return prefix


def _forward_plain_weights(scheme: InversionScheme, n: int) -> Weights:
    u = [(-1) ** k * math.comb(n, k) * scheme.phi_prefix(k)[0][n] for k in range(n + 1)]
    return u, [1] * (n + 1), scheme.phi_prefix(0)[1][n]


def _inverse_plain_weights(scheme: InversionScheme, n: int) -> Weights:
    # (a_k + k b_k) / phi(n; k+1) = (A_k + k B_k) q_0 ... q_(k-1) / prod_{j<=k} (A_j + n B_j)
    q_prefix = scheme.phi_prefix(0)[1]
    u, e = [], []
    for k, (a, b, _) in enumerate(scheme.scaled[: n + 1]):
        if a + n * b == 0:
            raise ZeroDenominator(f"phi(n; k+1) vanished at n={n}, k={k}")
        u.append((-1) ** k * math.comb(n, k) * (a + k * b) * q_prefix[k])
        e.append(a + n * b)
    return u, e, 1


def _forward_extended_weights(scheme: InversionScheme, n: int) -> Weights:
    # phi(lam+k; n) phi(-k; n) (lam + 2k) / (lam+n)_(k+1), with lam = p/s:
    # the phi denominators do not depend on k, and (lam + 2k) / (lam+n)_(k+1)
    # is (p + 2ks) s^k / prod_{i<=k} (p + (n+i) s)
    p, s = scheme.lam.numerator, scheme.lam.denominator
    u, e = [], []
    for k in range(n + 1):
        if p + (n + k) * s == 0:
            raise ZeroDenominator(f"(lam+n)_(k+1) vanished at n={n}, k={k}")
        phis = scheme.phi_prefix(scheme.lam + k)[0][n] * scheme.phi_prefix(-k)[0][n]
        u.append((-1) ** k * math.comb(n, k) * phis * (p + 2 * k * s) * s**k)
        e.append(p + (n + k) * s)
    return u, e, scheme.phi_prefix(scheme.lam)[1][n] * scheme.phi_prefix(0)[1][n]


def _inverse_extended_weights(scheme: InversionScheme, n: int) -> Weights:
    # (a_k + (lam+k) b_k)(a_k - k b_k) / (phi(lam+n; k+1) phi(-n; k+1)) (lam+k)_n:
    # the q_k and s of factor k cancel against those of the two phi, leaving
    # the denominator prefixes below k, and (lam+k)_n is an integer over s^n
    p, s = scheme.lam.numerator, scheme.lam.denominator
    lam_dens, dens = scheme.phi_prefix(scheme.lam)[1], scheme.phi_prefix(0)[1]
    u, e = [], []
    for k, (a, b, _) in enumerate(scheme.scaled[: n + 1]):
        factor = (a * s + (p + n * s) * b) * (a - n * b)
        if factor == 0:
            raise ZeroDenominator(f"phi products vanished at n={n}, k={k}")
        u.append(
            (-1) ** k * math.comb(n, k) * (a * s + (p + k * s) * b) * (a - k * b)
            * lam_dens[k] * dens[k] * rising(p + k * s, s, n)
        )
        e.append(factor)
    return u, e, s**n


def _apply(weights: Weights, values: Sequence[Fraction]) -> Pair:
    """sum_k u_k v_k / (c e_0 ... e_k) as one unreduced pair: the values
    over their least common denominator, the sum by Horner's rule over the
    nested denominators."""
    u, e, c = weights
    common = math.lcm(*(v.denominator for v in values))
    acc, den = 0, c * common
    for u_k, e_k, v in zip(u, e, values):
        acc = acc * e_k + u_k * v.numerator * (common // v.denominator)
        den *= e_k
    return acc, den


def forward_extended(scheme: InversionScheme, g_values: Sequence[Fraction], n: int) -> Pair:
    """f(n) from g_0 .. g_n via the extended forward transform, unreduced."""
    return _apply(_forward_extended_weights(scheme, n), g_values[: n + 1])


def inverse_extended_terms(scheme: InversionScheme, f: Sequence[Pair], n: int) -> list[Pair]:
    """The n + 1 summands of the extended inverse transform at n, for f
    given as unreduced pairs, each an unreduced pair."""
    u, e, den = _inverse_extended_weights(scheme, n)
    out = []
    for u_k, e_k, (num_k, den_k) in zip(u, e, f):
        den *= e_k
        out.append((u_k * num_k, den * den_k))
    return out


_PAIRS = {
    "plain": (_forward_plain_weights, _inverse_plain_weights),
    "extended": (_forward_extended_weights, _inverse_extended_weights),
}


def roundtrip_check(
    scheme: InversionScheme,
    g_values: Sequence[Fraction],
    n_max: int,
    pair: str,
) -> list[str]:
    """Exact round-trip failures (empty list when the pair inverts cleanly).

    Both composition orders are checked: forward-then-inverse recovers g,
    and inverse-then-forward recovers g as well.  The forward and inverse
    weight tables for n <= n_max are built once and serve both orders.  The
    intermediate sequence is reduced once per value; each recovered value
    stays an unreduced pair and is compared with g by cross-multiplication.
    """
    if pair not in _PAIRS:
        raise ValueError(f"unknown pair {pair!r}")
    fwd, inv = ([weights(scheme, n) for n in range(n_max + 1)] for weights in _PAIRS[pair])
    failures: list[str] = []
    for first, second, label in ((fwd, inv, "inverse(forward(g))"),
                                 (inv, fwd, "forward(inverse(g))")):
        middle = [Fraction(*_apply(weights, g_values[: n + 1]))
                  for n, weights in enumerate(first)]
        for n, weights in enumerate(second):
            num, den = _apply(weights, middle[: n + 1])
            want = g_values[n]
            if num * want.denominator != want.numerator * den:
                failures.append(f"{pair}: {label}({n}) = {Fraction(num, den)} != {want}")
    return failures


def random_scheme(rng: SplitMix64, n_max: int, extended: bool) -> InversionScheme:
    """Random scheme with numerators/denominators bounded by 20 and about
    one b_j in ten exactly zero, rejection-sampled until the transforms'
    nonvanishing conditions hold on the whole index range 0..n_max."""
    while True:
        a_vals = []
        b_vals = []
        for _ in range(n_max + 1):
            a_vals.append(rng.fraction(20, 20, nonzero=True))
            if rng.randint(0, 9) == 0:
                b_vals.append(Fraction(0))
            else:
                b_vals.append(rng.fraction(20, 20))
        lam = Fraction(0)
        if extended:
            # A positive non-integer lam keeps (lam+n)_{k+1} and phi(lam+n; .)
            # clear of zeros more often; still rejection-checked below.
            lam = Fraction(rng.randint(1, 40), rng.randint(2, 20))
        scheme = InversionScheme(tuple(a_vals), tuple(b_vals), lam)
        if _scheme_admissible(scheme, n_max, extended):
            return scheme


def _scheme_admissible(scheme: InversionScheme, n_max: int, extended: bool) -> bool:
    p, s = scheme.lam.numerator, scheme.lam.denominator
    for a, b, _ in scheme.scaled:
        for n in range(n_max + 1):
            if a + n * b == 0:
                return False
            # phi(lam+n; .) and phi(-n; .) stay nonzero
            if extended and (a * s + (p + n * s) * b == 0 or a - n * b == 0):
                return False
    # (lam+n)_(n_max+1) stays nonzero for n <= n_max
    return not extended or not any(p + i * s == 0 for i in range(2 * n_max + 1))


def random_sequence(rng: SplitMix64, n_max: int) -> tuple[Fraction, ...]:
    return tuple(rng.fraction(20, 20) for _ in range(n_max + 1))
