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
products truncated to ``width`` bits.  It returns B and T each as a
mantissa, a binary exponent and an integer error bound, proved next to
the merge, so the caller can tell whether the rounding it needs is
certain and fall back to the exact pair when it is not.

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
# (m, x, e): an approximation m * 2**x of a value X with |X - m * 2**x| <= e * 2**x
Approx = tuple[Intish, int, Intish]

_FOLD_RANGE = 8  # product_sum folds ranges this short term by term
_BLOCK = 1024  # truncated_product_sum lists the sequences of ranges this long at once


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
    """
    if hi - lo <= _FOLD_RANGE:
        # A left fold yields the same integers as the balanced split; on a
        # short range it saves the recursion.
        a, b, t = _mpz(1), _mpz(1), _mpz(0)
        for j in range(lo, hi):
            b_j = _mpz(beta(j))
            t = t * b_j + a * _mpz(weight(j)) * b_j
            a *= alpha(j)
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


def _mul(p: Approx, q: Approx) -> Approx:
    m1, x1, e1 = p
    m2, x2, e2 = q
    return m1 * m2, x1 + x2, abs(m1) * e2 + abs(m2) * e1 + e1 * e2


def _add(p: Approx, q: Approx) -> Approx:
    m1, x1, e1 = p
    m2, x2, e2 = q
    if x1 < x2:
        return m1 + (m2 << (x2 - x1)), x1, e1 + (e2 << (x2 - x1))
    return (m1 << (x1 - x2)) + m2, x2, (e1 << (x1 - x2)) + e2


def _truncate(p: Approx, width: int) -> Approx:
    m, x, e = p
    s = abs(m).bit_length() - width
    if s <= 0:
        return p
    return m >> s, x + s, -(-e >> s) + 1


def truncated_product_sum(sequences: Callable, terms: int, width: int) -> tuple[Approx, Approx]:
    """B and T of :func:`product_sum` over [0, terms), each as an
    :data:`Approx` ``(m, x, e)`` with ``|X - m * 2**x| <= e * 2**x``, where
    ``sequences(lo, hi)`` lists ``weight``, ``alpha`` and ``beta`` at the
    indices in [lo, hi).

    A subrange is split exactly by :func:`product_sum` once its length
    times the larger bit length of ``alpha`` and ``beta`` at its two ends
    is at most ``width``.  Larger ranges merge their halves with products
    truncated to ``width`` bits.  When no merge truncates, both results
    are exact (``e == 0``).
    """
    _, b, t = _split(sequences, width, 0, terms, False, None)
    return b, t


def _split(
    sequences: Callable, width: int, lo: int, hi: int, need_a: bool, block: tuple | None
) -> tuple[Approx | None, Approx, Approx]:
    """A, B and T over [lo, hi) for :func:`truncated_product_sum`.  The
    first range of at most ``_BLOCK`` indices on a path lists its sequences
    once (:func:`_block`) for the ranges below it; above it only the ends
    are listed, so memory stays bounded.  Not a closure: a recursive one is
    a cycle that outlives the call."""
    if block is None and hi - lo <= _BLOCK:
        block = _block(sequences, lo, hi)
    if block is None:
        end_bits = max(_block(sequences, i, i + 1)[4][0] for i in (lo, hi - 1))
    else:
        first, bits = block[0], block[4]
        end_bits = max(bits[lo - first], bits[hi - 1 - first])
    if hi - lo <= 1 or (hi - lo) * end_bits <= width:
        first, weights, alphas, betas, _ = block or _block(sequences, lo, hi)
        a, b, t = product_sum(
            weights.__getitem__, alphas.__getitem__, betas.__getitem__, lo - first, hi - first
        )
        return (a, 0, 0), (b, 0, 0), (t, 0, 0)
    mid = (lo + hi) // 2
    a_left, b_left, t_left = _split(sequences, width, lo, mid, True, block)
    a_right, b_right, t_right = _split(sequences, width, mid, hi, need_a, block)
    # Error bound of a merge.  With X = (m1 + d1) * 2**x1 and
    # Y = (m2 + d2) * 2**x2, |d1| <= e1, |d2| <= e2,
    #     X*Y - m1*m2 * 2**(x1+x2) = (m1*d2 + m2*d1 + d1*d2) * 2**(x1+x2),
    # at most |m1|*e2 + |m2|*e1 + e1*e2 units of 2**(x1+x2) (_mul).  A sum
    # rewrites the operand with the larger exponent at the smaller one by
    # shifting its mantissa and bound left, exactly, and adds the bounds
    # (_add).  Truncating to `width` bits keeps m >> s = m/2**s - f with
    # 0 <= f < 1, so in units of 2**(x+s) the error is below
    # f + e/2**s < ceil(e/2**s) + 1 (_truncate).  Every step keeps
    # |X - m * 2**x| <= e * 2**x.  The A product is needed only by a left
    # half, so the right spine skips it.
    b = _truncate(_mul(b_left, b_right), width)
    t = _truncate(_add(_mul(t_left, b_right), _mul(a_left, t_right)), width)
    a = _truncate(_mul(a_left, a_right), width) if need_a else None
    return a, b, t


def _block(sequences: Callable, lo: int, hi: int) -> tuple:
    """(lo, weights, alphas, betas, bits) over [lo, hi), ``bits`` the larger
    bit length of |alpha| and |beta| at each index."""
    weights, alphas, betas = sequences(lo, hi)
    bits = [max(x.bit_length(), y.bit_length()) for x, y in zip(alphas, betas)]
    return lo, weights, alphas, betas, bits


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
