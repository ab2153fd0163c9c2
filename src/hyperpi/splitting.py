"""Integer binary splitting for hypergeometric-style partial sums.

Evaluates sums of the form

    S = sum_{j=lo}^{hi-1} w(j) * prod_{i=lo}^{j-1} alpha(i) / beta(i)

in (big) integers.  The recursion keeps three accumulators per range: the
alpha-product A, the beta-product B and a numerator T with S = T / B.

:func:`product_sum` computes them exactly; balanced splitting keeps
intermediate operands near-minimal in size, so the dominant cost is a
handful of large multiplications.  For a sum needed only to ``width``
bits, :func:`truncated_product_sum` runs the exact splitting on subranges
whose operands stay below ``width`` bits and merges the subranges with
products shifted down to ``width`` bits of B.  B stays exact by
definition -- the shift acts on A, B and T alike and cancels in T / B --
so only A and T carry an integer error bound, proved next to the merge.
A right half, whose terms are scaled by the product of its left sibling,
runs at the width that product leaves it, so the tail of a series merges
at the few bits it contributes.  The caller gets T / B with a bound, can
tell whether the rounding it needs is certain, and falls back to the
exact pair when it is not.

When gmpy2 is importable its mpz type is used for the multiplications
(asymptotically fast); otherwise plain Python integers are used and results
are identical, just slower.
"""

from __future__ import annotations

from typing import Callable

try:  # pragma: no cover - exercised implicitly on hosts with gmpy2
    from gmpy2 import mpz as _mpz
except ImportError:  # pragma: no cover
    _mpz = int

Intish = int  # both int and gmpy2.mpz flow through these helpers

_FOLD_RANGE = 8  # product_sum folds ranges this short term by term
_BLOCK = 1024  # truncated_product_sum lists the sequences of ranges this long at once
_MIN_WIDTH = 1024  # truncated_product_sum narrows no right half below this many bits


def product_sum(
    weight: Callable[[int], int],
    alpha: Callable[[int], int],
    beta: Callable[[int], int],
    lo: int,
    hi: int,
) -> tuple[Intish, Intish, Intish]:
    """Binary-split the weighted product sum over the index range [lo, hi).

    Returns integers (A, B, T) with

        A = prod_{i in [lo, hi)} alpha(i)
        B = prod_{i in [lo, hi)} beta(i)
        T = sum_{j in [lo, hi)} weight(j)
              * prod_{i in [lo, j)} alpha(i) * prod_{i in [j, hi)} beta(i)

    so that the desired sum equals T / B.  An empty range yields (1, 1, 0).
    A range of at most ``_FOLD_RANGE`` terms is folded from the left, which
    yields the same integers: term j updates T to (T + A * weight(j)) *
    beta(j), then A and B, three products per term.
    """
    if hi - lo <= _FOLD_RANGE:
        a, b, t = _mpz(1), _mpz(1), _mpz(0)
        span = range(lo, hi)
        for w_j, a_j, b_j in zip(map(weight, span), map(alpha, span), map(beta, span)):
            t = (t + a * w_j) * b_j
            a *= a_j
            b *= b_j
        return a, b, t
    mid = (lo + hi) // 2
    a_left, b_left, t_left = product_sum(weight, alpha, beta, lo, mid)
    a_right, b_right, t_right = product_sum(weight, alpha, beta, mid, hi)
    return (
        a_left * a_right,
        b_left * b_right,
        t_left * b_right + a_left * t_right,
    )


def truncated_product_sum(
    sequences: Callable, terms: int, width: int
) -> tuple[Intish, Intish, Intish]:
    """Integers ``(b, t, e)`` with ``b != 0`` and ``|t - S * b| <= e``, S
    the exact sum of :func:`product_sum` over [0, terms), where
    ``sequences(lo, hi)`` lists ``weight``, ``alpha`` and ``beta`` at the
    indices in [lo, hi) and ``width >= 1``.  ``b`` carries no error of its
    own: it is whatever the truncated merges leave, and S lies within
    ``e / |b|`` of ``t / b``.

    A subrange is split exactly by :func:`product_sum` once its length
    times the larger bit length of ``alpha`` and ``beta`` at its two ends
    is at most its width.  Larger ranges merge their halves and shift the
    result to ``width`` bits of ``b``.  The right half of a range runs at a
    width reduced by the bits its left sibling's product decays by, since
    its contribution is scaled by that product, but not below
    ``min(width, _MIN_WIDTH)``.  When no merge truncates, ``(b, t)`` is
    the exact pair and ``e == 0``.
    """
    _, b, t, _, e_t = _split(sequences, width, 0, terms, False, None)
    return b, t, e_t


def _split(
    sequences: Callable, width: int, lo: int, hi: int, need_a: bool, block: tuple | None
) -> tuple:
    """``(a, b, t, e_a, e_t)`` over [lo, hi) for :func:`truncated_product_sum`,
    with ``|a - P * b| <= e_a`` and ``|t - S * b| <= e_t`` for the range's
    exact product P = prod alpha/beta and sum S; ``a`` and ``e_a`` are None
    unless ``need_a``.  The first range of at most ``_BLOCK`` indices on a
    path lists its sequences once (:func:`_block`) for the ranges below it;
    above it only the ends are listed, so memory stays bounded.  Not a
    closure: a recursive one is a cycle that outlives the call."""
    if block is None and hi - lo <= _BLOCK:
        block = _block(sequences, lo, hi)
    end_bits = max(_bits_at(block or _block(sequences, i, i + 1), i) for i in (lo, hi - 1))
    if hi - lo <= 1 or (hi - lo) * end_bits <= width:
        first, weights, alphas, betas = block or _block(sequences, lo, hi)
        a, b, t = product_sum(
            weights.__getitem__, alphas.__getitem__, betas.__getitem__, lo - first, hi - first
        )
        return a, b, t, 0, 0
    mid = (lo + hi) // 2
    a_l, b_l, t_l, ea_l, et_l = _split(sequences, width, lo, mid, True, block)
    decay = max(0, b_l.bit_length() - a_l.bit_length())
    right_width = max(min(width, _MIN_WIDTH), width - decay)
    a_r, b_r, t_r, ea_r, et_r = _split(sequences, right_width, mid, hi, need_a, block)
    # Error bound of a merge.  With a_l = P_l*b_l + d_al, t_r = S_r*b_r + d_tr
    # and so on, |d| <= e, the range's P = P_l*P_r and S = S_l + P_l*S_r, so
    # for b = b_l*b_r
    #     t - S*b = d_tl*b_r + a_l*d_tr + d_al*t_r - d_al*d_tr,
    #     a - P*b = a_l*d_ar + d_al*a_r - d_al*d_ar.
    # Truncating by s bits keeps x >> s = x/2**s - f, 0 <= f < 1, for each of
    # a, b and t, so with the new b
    #     t' - S*b' = (t - S*b)/2**s - f_t + S*f_b,
    # below ceil(e_t/2**s) + 1 + |S| in size, and |S| <= (|t| + e_t)/|b|
    # < 2**(len(|t| + e_t) - len(|b|) + 1); likewise for a with P.  b keeps
    # `width` >= 1 bits, so it stays nonzero.  The A product is needed only
    # by a left half, so the right spine skips it.
    b = b_l * b_r
    t = t_l * b_r + a_l * t_r
    e_t = et_l * abs(b_r) + abs(a_l) * et_r + abs(t_r) * ea_l + ea_l * et_r
    a = e_a = None
    if need_a:
        a = a_l * a_r
        e_a = abs(a_l) * ea_r + abs(a_r) * ea_l + ea_l * ea_r
    b_bits = b.bit_length()
    s = b_bits - width
    if s > 0:
        e_t = _shifted_bound(t, e_t, b_bits, s)
        t >>= s
        if need_a:
            e_a = _shifted_bound(a, e_a, b_bits, s)
            a >>= s
        b >>= s
    return a, b, t, e_a, e_t


def _shifted_bound(x: Intish, e: Intish, b_bits: int, s: int) -> Intish:
    """New bound e' with ``|(x >> s) - V * (b >> s)| <= e'`` given
    ``|x - V * b| <= e``, ``b`` being ``b_bits`` long (proved in
    :func:`_split`)."""
    return -(-e >> s) + 1 + (1 << max(0, (abs(x) + e).bit_length() - b_bits + 1))


def _block(sequences: Callable, lo: int, hi: int) -> tuple:
    """(lo, weights, alphas, betas) over [lo, hi)."""
    return (lo, *sequences(lo, hi))


def _bits_at(block: tuple, i: int) -> int:
    """The larger bit length of |alpha| and |beta| at index ``i`` of a block."""
    first, _, alphas, betas = block
    return max(alphas[i - first].bit_length(), betas[i - first].bit_length())


def alternating_arctan_sum(inv_arg: int, terms: int) -> tuple[Intish, Intish]:
    """Exact rational arctangent series tail as a (numerator, denominator) pair.

    Returns integers (T, B) with T/B = sum_{k=0}^{terms-1} (-1)^k / ((2k+1) * inv_arg^(2k)),
    so that atan(1/inv_arg) = T / (B * inv_arg) up to the truncation error of
    the series.
    """
    q2 = inv_arg * inv_arg
    _, b, t = product_sum(
        lambda j: 1,
        lambda i: -(2 * i + 1),
        lambda i: (2 * i + 3) * q2,
        0,
        terms,
    )
    return t, b
