"""Integer binary splitting for hypergeometric-style partial sums.

Evaluates sums of the form

    S = sum_{j=lo}^{hi-1} w(j) * prod_{i=lo}^{j-1} alpha(i) / beta(i)

in integers (Haible & Papanikolaou, 1998).  The recursion keeps three
accumulators per range: the alpha-product A, the beta-product B and a
numerator T with S = T / B.  :func:`product_sum` computes them exactly.

:func:`truncated_product_sum` serves every sum needed only to ``width``
bits: the catalog's series, pi digits, and the fixed-point constants
(the arctangents of pi and ln 2 in :mod:`hyperpi.bigfloat`).  It splits
exactly on subranges whose operands stay below ``width`` bits and merges
them with products shifted down to ``width`` bits of B.  B stays exact by
definition -- the shift acts on A, B and T alike and cancels in T / B --
so only A and T carry an integer error bound, proved next to the merge.
A right half, scaled by its left sibling's product, runs at the width that
product leaves it, so a series' tail merges at the few bits it
contributes.  The caller gets T / B with a bound, so it can tell whether
the rounding it needs is certain.  A large sum is cut once into two parts
that need nothing from each other, the right one at a width estimated
ahead of time, so a forked child sums the left one meanwhile.

:func:`run_parts` runs such independent parts side by side, for these
sums and for the hex-digit spigot's index ranges: with more than one
usable CPU every part but the last runs in an ``os.fork`` child while the
caller runs the last, and a child sends its result back over a pipe as
:mod:`marshal` bytes (built in, and it reads back nothing but plain
values).  A part whose child fails, sends a short payload or cannot be
forked is called by the caller instead, so the results never depend on
forking.  All integers are Python's ``int``.
"""

from __future__ import annotations

import marshal
import math
import os
import sys
from functools import partial
from typing import Callable, NoReturn, Sequence

_FOLD_RANGE = 8  # product_sum folds ranges this short term by term
_BLOCK = 1024  # truncated_product_sum lists the sequences of ranges this long at once
_MIN_WIDTH = 1024  # truncated_product_sum narrows no right half below this many bits

# truncated_product_sum cuts its range in two parts, the left one summed in a
# forked child, above this many terms times bits of width; a fork, pipe and
# waitpid round trip costs 2-4 ms.  s3.1-ex1's sum uncut against cut and
# forked, medians of 15 alternating runs in three sets (Python 3.11, plain
# int, 2-CPU x86-64): 2000 digits (1.1e7) 6.7 against 7.1 ms, 3000 digits
# (2.5e7) 7.4-8.2 against 7.2-10.1 ms, 4000 digits (4.5e7) 10.8-18.3
# against 9.5-14.7 ms, 10**4 digits (2.8e8) 74.5 against 47.9 ms.  Cut
# without a child the sum takes 2-10% longer than uncut.  So the cut starts
# between the two, at 3460 digits of a base-16 series at compute_pi_via's
# width.
_MIN_CUT_WORK = 1 << 25
# The left part's share of the range: x = (1 - x)**2.
_CUT_SHARE = (3 - math.sqrt(5)) / 2
# Bits the right part's width keeps above the estimated decay of the left.
_DECAY_MARGIN = 32


def product_sum(
    weight: Callable[[int], int],
    alpha: Callable[[int], int],
    beta: Callable[[int], int],
    lo: int,
    hi: int,
) -> tuple[int, int, int]:
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
        a, b, t = 1, 1, 0
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
) -> tuple[int, int, int]:
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

    Above ``terms * width > _MIN_CUT_WORK`` the range is cut once, at
    ``c = floor(terms * (3 - sqrt(5)) / 2)``, into two parts that need
    nothing from each other: [0, c) at the full width with its A product,
    and [c, terms) at the width that :func:`_decay_estimate` leaves it, a
    lower estimate of the left part's decay taken from the sequences alone.
    :func:`run_parts` sums the left part in a forked child while this
    process estimates the decay and sums the right part, and
    :func:`_merge` joins them under the same bound as every other merge.  A
    part costs about its length times its width, and the tail narrows by
    about ``width / terms`` bits a term, so the parts balance where ``x =
    (1 - x)**2``.  The cut is the same whether or not a child runs (one
    CPU, no ``os.sched_getaffinity``, threads, a failed fork), so ``(b, t,
    e)`` does not depend on it.
    """
    cut = math.floor(terms * _CUT_SHARE)
    if cut == 0 or terms * width <= _MIN_CUT_WORK:
        _, b, t, _, e_t = _split(sequences, width, 0, terms, False, None)
        return b, t, e_t
    left, right = run_parts((
        partial(_left_part, sequences, width, cut),
        partial(_right_part, sequences, width, cut, terms),
    ))
    _, b, t, _, e_t = _merge(left, right, width, False)
    return b, t, e_t


def _left_part(sequences: Callable, width: int, cut: int) -> tuple:
    """:func:`_split` over [0, cut) with the A product."""
    return _split(sequences, width, 0, cut, True, None)


def _right_part(sequences: Callable, width: int, cut: int, terms: int) -> tuple:
    """:func:`_split` over [cut, terms) at the width that the estimated
    decay of [0, cut) leaves it."""
    decay = max(0, _decay_estimate(sequences, 0, cut))
    return _split(sequences, _right_width(width, decay), cut, terms, False, None)


def _decay_estimate(sequences: Callable, lo: int, hi: int) -> int:
    """About ``log2 |prod beta / prod alpha|`` over [lo, hi) less
    ``_DECAY_MARGIN`` bits, from the sequences listed ``_BLOCK`` indices at
    a time: the bits that the range's merged ``b`` outgrows its ``a`` by,
    less a margin for the truncation of both.  Zeros are left out.  Only
    cost rests on it: too large, and the caller's interval comes out wider
    than it needs."""
    bits = 0.0
    for start in range(lo, hi, _BLOCK):
        _, alphas, betas = sequences(start, min(hi, start + _BLOCK))
        bits += math.fsum(map(math.log2, map(abs, filter(None, betas))))
        bits -= math.fsum(map(math.log2, map(abs, filter(None, alphas))))
    return math.floor(bits) - _DECAY_MARGIN


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
    left = _split(sequences, width, lo, mid, True, block)
    a_l, b_l = left[0], left[1]
    decay = max(0, b_l.bit_length() - a_l.bit_length())
    right = _split(sequences, _right_width(width, decay), mid, hi, need_a, block)
    return _merge(left, right, width, need_a)


def _right_width(width: int, decay: int) -> int:
    """The width of a right half whose left sibling's product decays by
    ``decay`` bits: its contribution is scaled by that product."""
    return max(min(width, _MIN_WIDTH), width - decay)


def _merge(left: tuple, right: tuple, width: int, need_a: bool) -> tuple:
    """``(a, b, t, e_a, e_t)`` over the union of two adjacent ranges, from
    theirs as :func:`_split` returns them (the left one with its A
    product), shifted down to ``width`` bits of ``b``."""
    a_l, b_l, t_l, ea_l, et_l = left
    a_r, b_r, t_r, ea_r, et_r = right
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
    # by a left half, so the right spine skips it.  The bound holds whatever
    # width each half ran at: the widths set only how wide it is.
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


def _shifted_bound(x: int, e: int, b_bits: int, s: int) -> int:
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


# ----------------------------------------------------------------------
# independent parts in forked children
# ----------------------------------------------------------------------


def usable_cpus() -> int:
    """The CPUs this process may run forked children on.  1 where they
    cannot be counted (no ``os.sched_getaffinity``: macOS, Windows), and in
    a process with threads, where a forked child can deadlock on a lock that
    another thread held."""
    affinity = getattr(os, "sched_getaffinity", None)
    threading = sys.modules.get("threading")
    if affinity is None or (threading is not None and threading.active_count() > 1):
        return 1
    return len(affinity(0))


def _run_in_child(write_end: int, part: Callable[[], object]) -> NoReturn:
    """A forked child's whole life: call ``part``, write its result as
    marshal bytes, and exit 0, or 1 on any exception.  ``os._exit`` never
    returns and flushes none of the stdio buffers inherited from the
    parent."""
    status = 1
    try:
        data = memoryview(marshal.dumps(part()))
        while data:
            data = data[os.write(write_end, data):]
        status = 0
    finally:
        os._exit(status)


def run_parts(parts: Sequence[Callable[[], object]]) -> list:
    """The results of calling each of ``parts``, in order.  A result sent
    from a child must be a value :mod:`marshal` writes: ints, tuples, None.

    With :func:`usable_cpus` above 1, all parts but the last run in forked
    children and the last runs here meanwhile; otherwise each runs here in
    turn.  A part whose child exits nonzero or sends a payload that does not
    load, or that cannot be forked, is called here instead, so the results
    do not depend on forking.  Every child is reaped before this returns;
    one still running when the caller unwinds (an exception, a
    ``KeyboardInterrupt``, or SIGTERM, whose default action is replaced
    meanwhile by raising ``SystemExit(143)``) is killed first.
    """
    if len(parts) < 2 or usable_cpus() < 2:
        return [part() for part in parts]
    import signal  # not loaded at interpreter start; needed only here

    results: list = [None] * len(parts)
    local = [len(parts) - 1]
    children = []  # (index, pid, read end), until reaped
    # only the default action is replaced: a handler of the caller's stays
    unwind = signal.getsignal(signal.SIGTERM) == signal.SIG_DFL
    if unwind:
        signal.signal(signal.SIGTERM, _terminated)
    try:
        for index, part in enumerate(parts[:-1]):
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_end)
                os.close(write_end)
                local.append(index)
                continue
            if pid == 0:
                _run_in_child(write_end, part)
            os.close(write_end)
            children.append((index, pid, read_end))
        for index in local:
            results[index] = parts[index]()
        while children:
            index, pid, read_end = children[-1]
            with open(read_end, "rb", closefd=False) as pipe:
                data = pipe.read()
            _, status = os.waitpid(pid, 0)
            children.pop()
            os.close(read_end)
            loaded = status == 0
            if loaded:
                try:
                    results[index] = marshal.loads(data)
                except (EOFError, ValueError, TypeError):  # short or garbled
                    loaded = False
            if not loaded:
                results[index] = parts[index]()
        return results
    finally:
        for _, pid, read_end in children:
            os.close(read_end)
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass  # reaped just before the unwinding began
        if unwind:
            signal.signal(signal.SIGTERM, signal.SIG_DFL)


def _terminated(signum: int, frame: object) -> NoReturn:
    """:func:`run_parts`'s SIGTERM handler: unwind, then exit 128 + 15."""
    raise SystemExit(128 + signum)
