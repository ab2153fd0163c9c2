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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from hyperpi.errors import ZeroDenominator
from hyperpi.factorials import binomial, phi_eval, pochhammer
from hyperpi.prng import SplitMix64


@dataclass(frozen=True)
class InversionScheme:
    """A tabulated scheme: finite prefixes of the two defining sequences.

    ``lam`` participates only in the extended transforms.  The tabulated
    prefixes must cover every index the transforms touch (0 .. n_max).
    """

    a_values: tuple[Fraction, ...]
    b_values: tuple[Fraction, ...]
    lam: Fraction = Fraction(0)

    def a_of(self, j: int) -> Fraction:
        return self.a_values[j]

    def b_of(self, j: int) -> Fraction:
        return self.b_values[j]

    def phi(self, x: Fraction, n: int) -> Fraction:
        return phi_eval(self.a_of, self.b_of, Fraction(x), n)


SequenceFn = Callable[[int], Fraction]


def forward_plain(scheme: InversionScheme, g: SequenceFn, n: int) -> Fraction:
    """f(n) from g via the plain forward transform."""
    total = Fraction(0)
    for k in range(n + 1):
        total += (-1) ** k * binomial(n, k) * scheme.phi(Fraction(k), n) * g(k)
    return total


def inverse_plain(scheme: InversionScheme, f: SequenceFn, n: int) -> Fraction:
    """g(n) from f via the plain inverse transform."""
    total = Fraction(0)
    for k in range(n + 1):
        weight = scheme.a_of(k) + k * scheme.b_of(k)
        den = scheme.phi(Fraction(n), k + 1)
        if den == 0:
            raise ZeroDenominator(f"phi(n; k+1) vanished at n={n}, k={k}")
        total += (-1) ** k * binomial(n, k) * weight / den * f(k)
    return total


def forward_extended(scheme: InversionScheme, g: SequenceFn, n: int) -> Fraction:
    """f(n) from g via the extended forward transform."""
    lam = scheme.lam
    total = Fraction(0)
    for k in range(n + 1):
        den = pochhammer(lam + n, k + 1)
        if den == 0:
            raise ZeroDenominator(f"(lam+n)_(k+1) vanished at n={n}, k={k}")
        total += (
            (-1) ** k
            * binomial(n, k)
            * scheme.phi(lam + k, n)
            * scheme.phi(Fraction(-k), n)
            * (lam + 2 * k)
            / den
            * g(k)
        )
    return total


def inverse_extended(scheme: InversionScheme, f: SequenceFn, n: int) -> Fraction:
    """g(n) from f via the extended inverse transform."""
    lam = scheme.lam
    total = Fraction(0)
    for k in range(n + 1):
        a_k, b_k = scheme.a_of(k), scheme.b_of(k)
        weight = (a_k + (lam + k) * b_k) * (a_k - k * b_k)
        den = scheme.phi(lam + n, k + 1) * scheme.phi(Fraction(-n), k + 1)
        if den == 0:
            raise ZeroDenominator(f"phi products vanished at n={n}, k={k}")
        total += (
            (-1) ** k
            * binomial(n, k)
            * weight
            / den
            * pochhammer(lam + k, n)
            * f(k)
        )
    return total


def _tabulate(fn: SequenceFn, n_max: int) -> SequenceFn:
    values = [fn(k) for k in range(n_max + 1)]
    return lambda k: values[k]


def roundtrip_check(
    scheme: InversionScheme,
    g_values: Sequence[Fraction],
    n_max: int,
    pair: str,
) -> list[str]:
    """Exact round-trip failures (empty list when the pair inverts cleanly).

    Both composition orders are checked: forward-then-inverse recovers g,
    and inverse-then-forward recovers g as well.
    """
    g = lambda k: g_values[k]
    failures: list[str] = []
    if pair == "plain":
        fwd, inv = forward_plain, inverse_plain
    elif pair == "extended":
        fwd, inv = forward_extended, inverse_extended
    else:
        raise ValueError(f"unknown pair {pair!r}")
    f = _tabulate(lambda k: fwd(scheme, g, k), n_max)
    for n in range(n_max + 1):
        got = inv(scheme, f, n)
        if got != g_values[n]:
            failures.append(f"{pair}: inverse(forward(g))({n}) = {got} != {g_values[n]}")
    h = _tabulate(lambda k: inv(scheme, g, k), n_max)
    for n in range(n_max + 1):
        got = fwd(scheme, h, n)
        if got != g_values[n]:
            failures.append(f"{pair}: forward(inverse(g))({n}) = {got} != {g_values[n]}")
    return failures


def random_scheme(
    rng: SplitMix64,
    n_max: int,
    extended: bool,
    max_coeff: int = 20,
    allow_zero_b: bool = True,
) -> InversionScheme:
    """Random scheme with numerators/denominators bounded by ``max_coeff``,
    rejection-sampled until the transforms' nonvanishing conditions hold on
    the whole index range 0..n_max."""
    while True:
        a_vals = []
        b_vals = []
        for _ in range(n_max + 1):
            a_vals.append(rng.fraction(max_coeff, max_coeff, nonzero=True))
            if allow_zero_b and rng.randint(0, 9) == 0:
                b_vals.append(Fraction(0))
            else:
                b_vals.append(rng.fraction(max_coeff, max_coeff))
        lam = Fraction(0)
        if extended:
            # A positive non-integer lam keeps (lam+n)_{k+1} and phi(lam+n; .)
            # clear of zeros more often; still rejection-checked below.
            lam = Fraction(rng.randint(1, 2 * max_coeff), rng.randint(2, max_coeff))
        scheme = InversionScheme(tuple(a_vals), tuple(b_vals), lam)
        if _scheme_admissible(scheme, n_max, extended):
            return scheme


def _scheme_admissible(scheme: InversionScheme, n_max: int, extended: bool) -> bool:
    for n in range(n_max + 1):
        for j in range(n_max + 1):
            if scheme.a_of(j) + n * scheme.b_of(j) == 0:
                return False
    if extended:
        lam = scheme.lam
        for n in range(n_max + 1):
            if pochhammer(lam + n, n_max + 1) == 0:
                return False
            for j in range(n_max + 1):
                if scheme.a_of(j) + (lam + n) * scheme.b_of(j) == 0:
                    return False
                if scheme.a_of(j) - n * scheme.b_of(j) == 0:
                    return False
    return True


def random_sequence(rng: SplitMix64, n_max: int, max_coeff: int = 20) -> tuple[Fraction, ...]:
    return tuple(rng.fraction(max_coeff, max_coeff) for _ in range(n_max + 1))
