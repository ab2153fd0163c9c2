"""Series summation, pi computation, hex-digit spigot, template equivalence."""

import hashlib
import math
import os
import signal
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hyperpi
from hyperpi import bigfloat, engine, splitting
from hyperpi.bigfloat import BigFloat, pi_reference
from hyperpi.constexpr import parse_const_expr
from hyperpi.engine import (
    SLOTS_PI,
    SLOTS_TWO_PI,
    BbpEquivalence,
    bbp_hex_digits,
    compute_pi_via,
    convergence_rate,
    precision_for_digits,
    sum_series,
    summand_residues,
    terms_for_digits,
    verify_bbp_equivalence,
)
from hyperpi.errors import (
    DomainError,
    InvariantViolation,
    NoMatch,
    RangeError,
    RepeatedPole,
    UnsupportedLhs,
    ZeroTerm,
)
from hyperpi.factorials import SeriesSpec, poly_eval, term_eval
from hyperpi.prng import SplitMix64
from hyperpi.splitting import product_sum, truncated_product_sum
from oracles import hex_fraction_digits, sum_series_fraction, term_ratio_reference

F = Fraction

GEOMETRIC = SeriesSpec(upper=(F(1),), lower=(F(1),), poly=(F(1),), base=16)
NEGATIVE_LOWER = SeriesSpec(
    upper=(F(1, 2), F(1)), lower=(F(-1, 2), F(3, 4)),
    poly=(F(1, 3), F(-2, 5), F(1)), base=4,
)
SHIFTED = SeriesSpec(
    upper=(F(1, 3), F(2, 3)), lower=(F(1), F(5, 6)), poly=(F(7, 2), F(3)),
    base=27, start=3, additive=F(-7, 5), sign=-1,
)

# certificates of the ten digit-extraction entries against the classic
# 4-term and 8-term templates: family, sigma, head correction and the closed
# form's rational coefficient (slot coefficients are sigma times the template)
BBP_CERTIFICATES = {
    "s3.7-ex1": ("pi", F(15), F(0), F(15)),
    "s3.7-ex2": ("pi", F(63, 2), F(0), F(63, 2)),
    "s3.7-ex3": ("pi", F(21, 8), F(7), F(21, 8)),
    "s3.7-ex4": ("pi", F(21, 10), F(7), F(21, 10)),
    "s3.7-ex5": ("pi", F(77, 8), F(-55, 3), F(77, 8)),
    "s3.7-ex6": ("two-pi", F(5, 18), F(5, 3), F(5, 9)),
    "s3.7-ex7": ("two-pi", F(15, 28), F(3), F(15, 14)),
    "s3.7-ex8": ("two-pi", F(15, 16), F(5), F(15, 8)),
    "s3.7-ex9": ("two-pi", F(45, 16), F(16), F(45, 8)),
    "s3.7-ex10": ("two-pi", F(21, 2), F(0), F(21)),
}


def sum_series_naive(spec: SeriesSpec, terms: int) -> Fraction:
    """Reference oracle: direct term-by-term exact summation."""
    spec.validate()
    total = Fraction(spec.additive)
    for k in range(spec.start, spec.start + terms):
        total += term_eval(spec, k)
    return total


def test_geometric_series_oracle():
    # sum 16^-k = 16/15, exactly, through both summation paths
    assert sum_series_naive(GEOMETRIC, 200) == sum_series_fraction(GEOMETRIC, 200)
    total = sum_series_fraction(GEOMETRIC, 2000)
    assert abs(total - F(16, 15)) < F(1, 16**1990)


def test_splitting_equals_naive_on_catalog_entries(catalog_entries):
    rng = SplitMix64(41)
    picks = [catalog_entries[rng.randint(0, len(catalog_entries) - 1)] for _ in range(10)]
    for entry in picks:
        terms = rng.randint(5, 200)
        assert sum_series_fraction(entry.spec, terms) == sum_series_naive(
            entry.spec, terms
        )
    # NEGATIVE_LOWER makes the splitting denominator B negative; SHIFTED has
    # a lead factor, a sign and an additive constant to fold into the pair
    for spec in (NEGATIVE_LOWER, SHIFTED):
        for terms in (0, 1, 2, 17):
            assert sum_series_fraction(spec, terms) == sum_series_naive(spec, terms)


def test_term_budget_helpers():
    assert terms_for_digits(100, 16) >= 100 / 1.3 + 20
    assert precision_for_digits(100) >= 100 * 3.32 + 64
    assert terms_for_digits(100, 16) < terms_for_digits(200, 16)
    with pytest.raises(DomainError):
        terms_for_digits(0, 16)


def test_convergence_rate_matches_terms(catalog_by_id):
    spec = catalog_by_id["s3.1-ex1"].spec
    for k in (3, 50):
        assert convergence_rate(spec, k) == term_eval(spec, k + 1) / term_eval(spec, k)
    assert abs(convergence_rate(spec, 500) - F(1, 16)) < F(1, 16) * F(2, 100)


def test_convergence_rate_zero_term():
    spec = SeriesSpec(upper=(F(1),), lower=(F(1),), poly=(F(0), F(1)), base=16)
    with pytest.raises(ZeroTerm):
        convergence_rate(spec, 0)  # poly(0) = 0 kills the first term
    # (-2)_k = 0 from k = 3 on; t(2) != 0 = t(3)
    spec = SeriesSpec(upper=(F(-2), F(1, 2)), lower=(F(1), F(3, 2)), poly=(F(1),), base=4)
    assert convergence_rate(spec, 2) == 0 == term_eval(spec, 3)
    for k in (3, 4, 50):
        with pytest.raises(ZeroTerm):
            convergence_rate(spec, k)
    assert convergence_rate(spec, 1) == term_eval(spec, 2) / term_eval(spec, 1)
    # an invalid spec raises its typed error, not a ZeroDivisionError at beta(2) = 0
    with pytest.raises(InvariantViolation):
        convergence_rate(SeriesSpec(upper=(), lower=(F(-2),), poly=(F(1),), base=16), 2)


def test_convergence_rate_matches_its_definition(catalog_entries):
    # the ratio read off the integer sequences against the definition of a
    # term, and the definition against the terms themselves
    for entry in catalog_entries:
        spec = entry.spec
        for k in (spec.start, spec.start + 1, 7, 500, 10**6):
            if k < spec.start:
                continue
            try:
                ratio = convergence_rate(spec, k)
            except ZeroTerm:
                assert term_eval(spec, k) == 0
                continue
            assert ratio == term_ratio_reference(spec, k)
        for k in range(spec.start, 21):
            if term_eval(spec, k) != 0:
                assert term_ratio_reference(spec, k) == term_eval(spec, k + 1) / term_eval(spec, k)


def test_compute_pi_across_classes(catalog_by_id):
    digits = 40
    reference = pi_reference(precision_for_digits(digits)).to_decimal_string(digits)
    sample = [
        "s3.1-ex1", "s3.1-ex5", "s3.2-ex1", "s3.2-ex3", "s3.5-ex1",
        "s3.5-ex12", "s3.6-ex1", "s3.6-ex9", "s3.7-ex1", "s3.7-ex9",
    ]
    for eid in sample:
        entry = catalog_by_id[eid]
        got = compute_pi_via(entry.spec, entry.lhs, digits).to_decimal_string(digits)
        # final digits may round differently; the shared prefix must agree
        assert got[: digits - 2] == reference[: digits - 2], eid


# sha256 over f"{id}:{man}:{exp}:{prec};" of compute_pi_via at 1000 digits for
# every pi-solvable catalog entry, in catalog order
PI_VIA_1000_DIGEST = "89f9b804692d48a29c3067b7c6645b9ae6eea16d06e54288885e747dd1ecc12b"


def test_compute_pi_bits_are_pinned(catalog_entries):
    digest = hashlib.sha256()
    solved = 0
    for entry in catalog_entries:
        try:
            value = compute_pi_via(entry.spec, entry.lhs, 1000)
        except UnsupportedLhs:
            continue
        solved += 1
        digest.update(f"{entry.entry_id}:{value.man}:{value.exp}:{value.prec};".encode())
    assert solved == 67
    assert digest.hexdigest() == PI_VIA_1000_DIGEST


# sha256 over f"{id}:{man:x}:{exp}:{prec};" of compute_pi_via at 10**4 digits
# for one entry per pi exponent (1, -1, 2, -2), where sum_series truncates
PI_VIA_10000_ENTRIES = ("s3.1-ex1", "s3.5-ex16", "s3.6-ex15", "s3.2-ex1")
PI_VIA_10000_DIGEST = "e9061cca8b3a04d6717add8d7172bcb3fafa4b8211bd35e07a64bb3f143352ae"
# the same over entries whose alpha and beta constants share large factors
# (5184, 2048 and 512), recorded before the sums cancelled them
PI_VIA_10000_CANCELLING_ENTRIES = ("s3.6-ex4", "s3.5-ex12", "s3.7-ex4")
PI_VIA_10000_CANCELLING_DIGEST = "bd71e45dbd560d3f7331a1649ad41f48be1980966eefa23df75da7ff4f90fc74"


def _pi_digest_at_ten_thousand_digits(catalog_by_id, monkeypatch, entries):
    """The pin digest over ``entries`` and the exact re-splits it took."""
    resplits = []
    exact_ratio = engine._series_ratio

    def counted_ratio(spec, terms):
        resplits.append(terms)
        return exact_ratio(spec, terms)

    monkeypatch.setattr(engine, "_series_ratio", counted_ratio)
    digest = hashlib.sha256()
    for eid in entries:
        entry = catalog_by_id[eid]
        value = compute_pi_via(entry.spec, entry.lhs, 10000)
        digest.update(f"{eid}:{value.man:x}:{value.exp}:{value.prec};".encode())
    return digest.hexdigest(), resplits


def test_compute_pi_bits_are_pinned_at_ten_thousand_digits(catalog_by_id, monkeypatch):
    # the truncated interval decides every sum: no exact re-split
    digest, resplits = _pi_digest_at_ten_thousand_digits(
        catalog_by_id, monkeypatch, PI_VIA_10000_ENTRIES
    )
    assert (digest, resplits) == (PI_VIA_10000_DIGEST, [])


def test_compute_pi_bits_are_pinned_where_the_constants_cancel(catalog_by_id, monkeypatch):
    digest, resplits = _pi_digest_at_ten_thousand_digits(
        catalog_by_id, monkeypatch, PI_VIA_10000_CANCELLING_ENTRIES
    )
    assert (digest, resplits) == (PI_VIA_10000_CANCELLING_DIGEST, [])


def test_compute_pi_rejects_gamma_classes(catalog_by_id):
    for eid in ("s3.3-ex1", "s3.4-ex1"):
        entry = catalog_by_id[eid]
        with pytest.raises(UnsupportedLhs):
            compute_pi_via(entry.spec, entry.lhs, 30)


def test_compute_pi_rejects_negative_square():
    # lhs = -pi^2 would need the square root of a negative power quotient
    lhs = parse_const_expr(
        {"op": "mul", "args": [{"rat": "-1"}, {"pi": 2}]}
    )
    with pytest.raises(DomainError):
        compute_pi_via(GEOMETRIC, lhs, 30)


def test_spigot_known_digits():
    assert bbp_hex_digits(0, 16) == "243F6A8885A308D3"
    assert bbp_hex_digits(100, 12) == "29B7C97C50DD"
    assert bbp_hex_digits(104, 12) == "C97C50DD3F84"


def test_spigot_overlap_self_consistency():
    rng = SplitMix64(43)
    for _ in range(20):
        pos = rng.randint(0, 10**4)
        a = bbp_hex_digits(pos, 12)
        b = bbp_hex_digits(pos + 4, 12)
        assert a[4:] == b[:8], f"overlap mismatch at {pos}"


def test_spigot_range_errors():
    for bad in ((0, 0), (0, 17), (-1, 4), (2**48, 1)):
        with pytest.raises(RangeError):
            bbp_hex_digits(*bad)


# Bellard's seven slots: (weight, a, b) for weight / (a*n + b)
BELLARD_SLOTS = ((-32, 4, 1), (-1, 4, 3), (256, 10, 1), (-64, 10, 3),
                 (-4, 10, 5), (-4, 10, 7), (1, 10, 9))


def bellard_summand(n):
    return sum(F(w, a * n + b) for w, a, b in BELLARD_SLOTS)


def poly_at(coeffs, n):
    return sum(c * n**i for i, c in enumerate(coeffs))


def test_bellard_constants_match_seven_slot_sum():
    group = engine._SPIGOT_STEP
    assert group % 2 == 0  # every step then adds with sign +
    index_p, index_m = engine._bellard_summand(1)
    for n in range(51):
        m = poly_at(index_m, n)
        assert m == math.prod(a * n + b for _, a, b in BELLARD_SLOTS), n
        assert F(poly_at(index_p, n), m) == bellard_summand(n), n
    for k in range(51):
        indices = range(group * k, group * k + group)
        m = poly_at(engine._BELLARD_STEP_M, k)
        assert m == math.prod(a * n + b for n in indices for _, a, b in BELLARD_SLOTS), k
        step = sum(F(-1) ** j * 1024 ** (group - 1 - j) * bellard_summand(n)
                   for j, n in enumerate(indices))
        assert F(poly_at(engine._BELLARD_STEP_P, k), m) == step, k
    # the summand bound the drift proof rests on, largest at n = 0
    assert sum(F(abs(w), b) for w, _, b in BELLARD_SLOTS) < 2**9
    # and the sum itself is pi
    pi_head = sum(F(-1) ** n / F(2) ** (10 * n + 6) * bellard_summand(n) for n in range(30))
    ref = pi_reference(320)
    assert abs(pi_head - F(ref.man) * F(2) ** ref.exp) < F(1, 2**290)


def circular_distance(a, b, modulus):
    d = (a - b) % modulus
    return min(d, modulus - d)


def test_spigot_drift_within_proven_bound():
    # positions 0-64 take every q mod 4 of 4p - 6 = 10q + c0, so every way
    # a step can straddle q, and the negative exponents of p = 0, 1
    ref = pi_reference(4 * 64 + 160 + 64)
    for frac_bits in (24, 100, 160):
        one = 1 << frac_bits
        for position in range(65):
            value, indices, divisions = engine._spigot_fraction(position, frac_bits)
            assert 0 <= value < one
            assert 1 <= divisions <= indices
            # the omitted tail starts where 2**(exponent + 9) ulps, the
            # bound on each index, is below one ulp
            assert 4 * position - 6 - 10 * indices + 9 + frac_bits < 0
            # the same truncated sum, exactly
            exact = sum(
                F(-1) ** n * F(2) ** (4 * position - 6 - 10 * n) * bellard_summand(n)
                for n in range(indices)
            )
            exact_scaled = (exact - math.floor(exact)) * one
            assert circular_distance(value, exact_scaled, one) < divisions, (position, frac_bits)
            # and the whole bound, tail included, against pi itself
            true_scaled = F(ref.man) * F(2) ** (ref.exp + 4 * position + frac_bits)
            distance = circular_distance(value, true_scaled, one)
            assert distance < divisions + 1, (position, frac_bits)


def test_spigot_sums_several_indices_per_division():
    # a silent fallback to one division per index would fail here
    _, indices, divisions = engine._spigot_fraction(10**4, 4 * 16 + 96)
    assert 3 * divisions <= indices


SPLIT_POSITIONS = list(range(65)) + [10**4 + d for d in range(-3, 4)]


def powered_steps(position):
    q = (4 * position - 6) // 10
    return (q + 1) // engine._SPIGOT_STEP


def set_cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """The forks of this process, counted."""
    forks = []
    parent, real_fork = os.getpid(), os.fork

    def fork():
        if os.getpid() == parent:
            forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    return forks


@pytest.fixture
def parent_forks(monkeypatch, forks):
    """Ranges of one step allowed, and the forks of this process counted."""
    monkeypatch.setattr(engine, "_MIN_FORK_STEPS", 1)
    return forks


@pytest.mark.parametrize("cpus", [2, 3])
def test_spigot_split_is_the_serial_sum(monkeypatch, parent_forks, cpus):
    # the positions of the drift test (every q mod 4, the negative
    # exponents) and some around 10**4, where every range is long
    cases = [(p, fb) for fb in (24, 100, 160) for p in SPLIT_POSITIONS]
    set_cpus(monkeypatch, 1)
    serial = [engine._spigot_fraction(p, fb) for p, fb in cases]
    serial_digits = bbp_hex_digits(10**4, 16)
    assert not parent_forks
    set_cpus(monkeypatch, cpus)
    assert [engine._spigot_fraction(p, fb) for p, fb in cases] == serial
    assert bbp_hex_digits(10**4, 16) == serial_digits
    # every range but the parent's own ran in a child
    expected = sum(max(0, min(cpus, powered_steps(p)) - 1) for p, _ in cases)
    assert len(parent_forks) == expected + cpus - 1
    assert_no_child_left()


def test_spigot_sums_a_failed_childs_range_itself(monkeypatch, parent_forks):
    set_cpus(monkeypatch, 1)
    positions = (64, 10**4)
    serial = [engine._spigot_fraction(p, 160) for p in positions]
    serial_digits = bbp_hex_digits(10**4, 16)
    set_cpus(monkeypatch, 3)
    parent, real_sum, real_write = os.getpid(), engine._powered_sum, os.write

    def raising_in_child(*args):
        if os.getpid() != parent:
            raise RuntimeError("child fails")
        return real_sum(*args)

    def short_in_child(fd, data):
        if os.getpid() != parent:
            return real_write(fd, bytes(data)[:-1]) + 1  # claims the last byte too
        return real_write(fd, data)

    def cannot_fork():
        raise BlockingIOError("no process to spare")

    for name, target, fault in (
        ("_powered_sum", engine, raising_in_child),
        ("write", os, short_in_child),
        ("fork", os, cannot_fork),
    ):
        with monkeypatch.context() as patch:
            patch.setattr(target, name, fault)
            assert [engine._spigot_fraction(p, 160) for p in positions] == serial, name
            assert bbp_hex_digits(10**4, 16) == serial_digits, name
        assert_no_child_left()
    # the first two faults each forked two children per call (three calls)
    assert len(parent_forks) == 2 * 2 * 3


def test_interrupted_spigot_kills_and_reaps_its_children(monkeypatch, parent_forks):
    set_cpus(monkeypatch, 3)
    parent = os.getpid()

    def interrupted(first, shift, lo, hi):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(60)  # still running when the parent unwinds
        return 0

    monkeypatch.setattr(engine, "_powered_sum", interrupted)
    started = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        engine._spigot_fraction(10**4, 160)
    assert time.monotonic() - started < 30  # killed, not waited out
    assert len(parent_forks) == 2
    assert_no_child_left()


def test_spigot_is_serial_with_threads_or_without_affinity(monkeypatch):
    set_cpus(monkeypatch, 1)
    serial = engine._spigot_fraction(10**4, 160)

    def fork():
        raise AssertionError("forked")

    monkeypatch.setattr(engine, "_MIN_FORK_STEPS", 1)
    monkeypatch.setattr(os, "fork", fork)
    set_cpus(monkeypatch, 3)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert engine._spigot_fraction(10**4, 160) == serial
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    monkeypatch.delattr(os, "sched_getaffinity")
    assert engine._spigot_fraction(10**4, 160) == serial


def test_spigot_raises_when_guard_stays_inside_margin(monkeypatch):
    attempts = []

    def inside_margin(position, frac_bits):
        attempts.append(frac_bits)
        return 7, 28, 7  # guard 7 is below the margin 7 + 1

    monkeypatch.setattr(engine, "_spigot_fraction", inside_margin)
    with pytest.raises(DomainError):
        bbp_hex_digits(123, 4)
    assert attempts == [16 + 96 + 64 * i for i in range(8)]


def test_spigot_accepts_guard_exactly_at_margin(monkeypatch):
    count, indices, divisions = 4, 28, 7
    margin = divisions + 1

    def with_guard(guard_for_width):
        def spigot_fraction(position, frac_bits):
            guard_bits = frac_bits - 4 * count
            value = (0xBEEF << guard_bits) | guard_for_width(1 << guard_bits)
            return value, indices, divisions
        return spigot_fraction

    # both ends of the accepted window [margin, 2**guard_bits - margin)
    for accepted in (lambda width: margin, lambda width: width - margin - 1):
        monkeypatch.setattr(engine, "_spigot_fraction", with_guard(accepted))
        assert bbp_hex_digits(123, count) == "BEEF"
    for rejected in (lambda width: margin - 1, lambda width: width - margin):
        monkeypatch.setattr(engine, "_spigot_fraction", with_guard(rejected))
        with pytest.raises(DomainError):
            bbp_hex_digits(123, count)


WINDOW_REACH = 2 * 10**4


@pytest.fixture(scope="module")
def window_hex():
    # the digits as a string: hypothesis prints its arguments, and a
    # BigFloat's mantissa is past the int-to-str digit limit
    reference = pi_reference(4 * (WINDOW_REACH + 16) + 256)
    return hex_fraction_digits(reference, 0, WINDOW_REACH + 16)


def _at_fixed_positions(test):
    # positions 0-9 cover every residue of 4p - 6 mod 10 and both negative
    # exponents (p = 0, 1)
    for position in range(10):
        for count in (1, 16):
            test = example(position=position, count=count)(test)
    for position in (250, 500, 1000, WINDOW_REACH):
        test = example(position=position, count=16)(test)
    return test


@settings(max_examples=100, deadline=None)
@given(
    position=st.integers(min_value=0, max_value=WINDOW_REACH),
    count=st.integers(min_value=1, max_value=16),
)
@_at_fixed_positions
def test_spigot_matches_reference_at_random_positions(window_hex, position, count):
    assert bbp_hex_digits(position, count) == window_hex[position:position + count]


def residue_sum(residues, k):
    return sum((coeff / (k + pole) for coeff, pole in residues), F(0))


def test_summand_residues_reconstruct_terms(catalog_by_id):
    # sum coeff/(k + pole) is the term times 16**k on every digit-extraction entry
    for eid in BBP_CERTIFICATES:
        spec = catalog_by_id[eid].spec
        residues = summand_residues(spec)
        for k in range(spec.start, 21):
            assert residue_sum(residues, k) == term_eval(spec, k) * 16**k, eid


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_summand_residues_match_random_summands(data):
    # upper parameters with distinct fractional parts pair only with their
    # own lower partner, so the poles are distinct and never integers
    parts = data.draw(st.lists(
        st.sampled_from(sorted({F(n, d) for d in range(2, 9) for n in range(1, d)})),
        min_size=1, max_size=3, unique=True,
    ))
    upper = tuple(part + data.draw(st.integers(-2, 2)) for part in parts)
    shifts = [data.draw(st.integers(1 if i == 0 else 0, 3)) for i in range(len(upper))]
    coeffs = st.builds(F, st.integers(-9, 9), st.integers(1, 5))
    poly = tuple(data.draw(st.lists(coeffs, min_size=1, max_size=sum(shifts))))
    spec = SeriesSpec(
        upper=upper, lower=tuple(u + m for u, m in zip(upper, shifts)),
        poly=poly, base=16, sign=data.draw(st.sampled_from((1, -1))),
    )
    residues = summand_residues(spec)
    assert len(residues) == sum(shifts)
    for k in range(11):
        assert residue_sum(residues, k) == term_eval(spec, k) * 16**k


def _reductions(catalog_by_id):
    """summand_residues, and verify_bbp_equivalence with a pi closed form."""
    lhs = catalog_by_id["s3.7-ex1"].lhs
    return summand_residues, lambda spec: verify_bbp_equivalence(spec, lhs)


def test_summand_residues_reject_a_shared_pole(catalog_by_id):
    # (1/2)_k/(5/2)_k and (3/2)_k/(7/2)_k both have the factor 1/(k + 3/2)
    shared = SeriesSpec(
        upper=(F(1, 2), F(3, 2)), lower=(F(5, 2), F(7, 2)), poly=(F(1),), base=16
    )
    for run in _reductions(catalog_by_id):
        with pytest.raises(RepeatedPole):
            run(shared)


def test_summand_residues_reject_a_polynomial_part(catalog_by_id):
    # k/(k + 1/2) is 1 - (1/2)/(k + 1/2): its polynomial part is 1
    polynomial = SeriesSpec(upper=(F(1, 2),), lower=(F(3, 2),), poly=(F(0), F(1)), base=16)
    for run in _reductions(catalog_by_id):
        with pytest.raises(NoMatch, match="polynomial part"):
            run(polynomial)
    # the same summand without its polynomial part expands
    assert summand_residues(polynomial._replace(poly=(F(1),))) == ((F(1, 2), F(1, 2)),)


def test_summand_residues_reject_an_unpaired_parameter(catalog_by_id):
    unpaired = SeriesSpec(
        upper=(F(1, 2), F(1, 3)), lower=(F(3, 2), F(1, 4)), poly=(F(1),), base=16
    )
    uneven = unpaired._replace(upper=(F(1, 2),))
    for run in _reductions(catalog_by_id):
        with pytest.raises(NoMatch, match="upper parameter 1/3 has no lower partner"):
            run(unpaired)
        with pytest.raises(NoMatch, match="counts differ"):
            run(uneven)
    # the smallest shift wins: 1/2 pairs with 3/2, so 5/2 still finds 7/2
    crossed = unpaired._replace(upper=(F(1, 2), F(5, 2)), lower=(F(7, 2), F(3, 2)))
    assert [pole for _, pole in summand_residues(crossed)] == [F(1, 2), F(5, 2)]


def test_bbp_equivalences(catalog_by_id):
    for eid, (family, sigma, head, lhs_coefficient) in BBP_CERTIFICATES.items():
        entry = catalog_by_id[eid]
        template = SLOTS_PI if family == "pi" else SLOTS_TWO_PI
        want = BbpEquivalence(
            family=family,
            sigma=sigma,
            slot_coefficients=tuple(sigma * t for t in template),
            head_correction=head,
            lhs_coefficient=lhs_coefficient,
        )
        assert verify_bbp_equivalence(entry.spec, entry.lhs) == want, eid


def test_bbp_equivalence_rejects_non_bbp_entries(catalog_by_id):
    entry = catalog_by_id["s3.1-ex1"]  # closed form carries pi^-2
    with pytest.raises(NoMatch):
        verify_bbp_equivalence(entry.spec, entry.lhs)
    # pi times a gamma factor has the right pi exponent but no rational coefficient
    gamma_lhs = parse_const_expr(
        {"op": "mul", "args": [{"rat": "15"}, {"pi": 1}, {"gamma": "1/3", "exp": 3}]}
    )
    with pytest.raises(NoMatch):
        verify_bbp_equivalence(catalog_by_id["s3.7-ex1"].spec, gamma_lhs)


def test_bbp_equivalence_rejects_corrupted_weight(catalog_by_id):
    entry = catalog_by_id["s3.7-ex1"]
    corrupted = SeriesSpec(
        upper=entry.spec.upper,
        lower=entry.spec.lower,
        poly=(entry.spec.poly[0] + 1,) + entry.spec.poly[1:],
        base=entry.spec.base,
        start=entry.spec.start,
        additive=entry.spec.additive,
        sign=entry.spec.sign,
    )
    with pytest.raises(NoMatch):
        verify_bbp_equivalence(corrupted, entry.lhs)


def test_sum_series_matches_fraction_path(catalog_entries):
    # truncated splitting with a certified rounding, or one division from the
    # exact pair, gives exactly the bits of rounding the reduced exact fraction;
    # (851, 3450) truncates deeply on every entry
    specs = [entry.spec for entry in catalog_entries] + [NEGATIVE_LOWER, SHIFTED]
    for spec in specs:
        for terms, prec in ((1, 53), (23, 200), (120, 700), (851, 3450)):
            got = sum_series(spec, terms, prec)
            want = BigFloat.from_fraction(sum_series_fraction(spec, terms), prec)
            assert (got.man, got.exp, got.prec) == (want.man, want.exp, want.prec)
    setup = engine._series_setup(catalog_entries[0].spec)
    _, _, e_t = truncated_product_sum(setup.sequences, 851, 3450 + engine.SPLIT_GUARD_BITS)
    assert e_t > 0


def test_sum_series_fallback_gives_the_same_bits(catalog_entries, monkeypatch):
    fallbacks = []
    exact_ratio = engine._series_ratio

    def counted_ratio(spec, terms):
        fallbacks.append(terms)
        return exact_ratio(spec, terms)

    # merges truncated far below the target precision leave an interval many
    # ulps wide, whose ends never round alike
    monkeypatch.setattr(engine, "SPLIT_GUARD_BITS", -250)
    monkeypatch.setattr(engine, "_series_ratio", counted_ratio)
    for spec in [entry.spec for entry in catalog_entries[::9]] + [NEGATIVE_LOWER, SHIFTED]:
        for terms, prec in ((120, 300), (851, 3450)):
            got = sum_series(spec, terms, prec)
            want = BigFloat.from_fraction(Fraction(*exact_ratio(spec, terms)), prec)
            assert (got.man, got.exp, got.prec) == (want.man, want.exp, want.prec)
    assert len(fallbacks) == 2 * (len(catalog_entries[::9]) + 2)


def test_sum_series_never_resplits_the_catalog_at_1000_digits(catalog_entries, monkeypatch):
    # a correctly rounded quotient depends only on the value, so the certified
    # interval decides every catalog sum without the exact pair
    resplits = []
    exact_ratio = engine._series_ratio

    def counted_ratio(spec, terms):
        resplits.append(terms)
        return exact_ratio(spec, terms)

    monkeypatch.setattr(engine, "_series_ratio", counted_ratio)
    prec = precision_for_digits(1000)
    for entry in catalog_entries:
        sum_series(entry.spec, terms_for_digits(1000, entry.spec.base), prec)
    assert resplits == []


_params = st.fractions(min_value=-40, max_value=40, max_denominator=12)


@st.composite
def _series_specs(draw):
    """Random specs: negative upper and lower parameters (sign-changing
    terms), a start past 0, an additive constant and either sign."""
    lower = draw(st.lists(
        _params.filter(lambda x: x.denominator > 1 or x > 0), min_size=1, max_size=3))
    return SeriesSpec(
        upper=tuple(draw(st.lists(_params, min_size=1, max_size=3))),
        lower=tuple(lower),
        poly=tuple(draw(st.lists(_params, min_size=1, max_size=3)
                        .filter(lambda p: any(p)))),
        base=draw(st.integers(2, 300)),
        start=draw(st.integers(0, 6)),
        additive=draw(_params),
        sign=draw(st.sampled_from((1, -1))),
    )


@settings(max_examples=300, deadline=None)
@given(_series_specs(), st.integers(1, 2000), st.integers(8, 64))
@example(NEGATIVE_LOWER, 2000, 8)
@example(SHIFTED, 2000, 8)
@example(SeriesSpec(upper=(F(0),), lower=(F(1),), poly=(F(-1),), base=39, start=1), 8, 38)
def test_truncated_splitting_bounds_hold(spec, terms, width):
    # the exact sum T/B lies within e_t/|b| of t/b; long sums at a tiny
    # width drive the bounds past the values, where every term of the merge
    # bound counts (the base-39 example needs |a_l|*e_tr), and the lowered
    # floor lets right halves narrow at these widths (NEGATIVE_LOWER and
    # SHIFTED have B < 0)
    setup = engine._series_setup(spec)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(splitting, "_MIN_WIDTH", 8)
        b, t, e_t = truncated_product_sum(setup.sequences, terms, width)
    assert_within_bound(setup, terms, b, t, e_t)


def assert_within_bound(setup, terms, b, t, e_t):
    """The exact sum T/B over [0, terms) lies within e_t/|b| of t/b."""
    weights, alphas, betas = setup.sequences(0, terms)
    _, exact_b, exact_t = product_sum(
        weights.__getitem__, alphas.__getitem__, betas.__getitem__, 0, terms
    )
    assert b != 0
    assert abs(t * exact_b - exact_t * b) <= e_t * abs(exact_b)


def test_truncated_splitting_narrows_the_tail(catalog_by_id, monkeypatch):
    # the right halves of a 10^4-digit sum run at the width the decay of their
    # left siblings leaves them, so the last exact leaf is far below the top
    # width; with every half at full width it holds 19870 bits of 33348
    leaves = []
    exact_split = splitting.product_sum

    def recorded_split(*args):
        out = exact_split(*args)
        leaves.append(max(abs(x).bit_length() for x in out))
        return out

    monkeypatch.setattr(splitting, "product_sum", recorded_split)
    spec = catalog_by_id["s3.1-ex1"].spec
    width = precision_for_digits(10000) + engine.SPLIT_GUARD_BITS
    setup = engine._series_setup(spec)
    _, _, e_t = truncated_product_sum(setup.sequences, terms_for_digits(10000, spec.base), width)
    # the outermost call of a leaf returns last
    assert e_t > 0 and leaves[-1] < width // 2


@settings(max_examples=200, deadline=None)
@given(_series_specs(), st.integers(1, 2000), st.integers(8, 64), st.sampled_from((32, -400, 400)))
@example(NEGATIVE_LOWER, 2000, 8, -400)
@example(SHIFTED, 2000, 8, 400)
@example(SeriesSpec(upper=(F(1),), lower=(F(1),), poly=(F(1),), base=2), 6, 11, -400)
def test_cut_splitting_bounds_hold(spec, terms, width, margin):
    # the same bound through the cut into two parts and their merge, on one
    # CPU; a margin of -400 sets the right part's width from a decay
    # estimate 400 bits too high, 400 from one 400 bits too low (the base-2
    # example truncates only the right part, so its merge needs |a_l|*e_tr)
    setup = engine._series_setup(spec)
    cuts, real_run_parts = [], splitting.run_parts

    def counted_run_parts(parts):
        cuts.append(len(parts))
        return real_run_parts(parts)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(splitting, "_MIN_WIDTH", 8)
        patch.setattr(splitting, "_MIN_CUT_WORK", 0)
        patch.setattr(splitting, "_DECAY_MARGIN", margin)
        patch.setattr(splitting, "run_parts", counted_run_parts)
        patch.setattr(os, "fork", None)  # not called on one CPU
        set_cpus(patch, 1)
        b, t, e_t = truncated_product_sum(setup.sequences, terms, width)
    # every range of 3 terms or more is cut
    assert cuts == ([2] if terms >= 3 else [])
    assert_within_bound(setup, terms, b, t, e_t)


def _ten_thousand_digit_cut(catalog_by_id, eid):
    """``truncated_product_sum`` of ``eid``'s sum at 10**4 digits."""
    spec = catalog_by_id[eid].spec
    width = precision_for_digits(10000) + engine.SPLIT_GUARD_BITS
    setup = engine._series_setup(spec)
    return truncated_product_sum(setup.sequences, terms_for_digits(10000, spec.base), width)


# Guillera's pi**-2 series and a series that starts at k = 1
CUT_ENTRIES = ("s3.1-ex1", "s3.6-ex9")


def test_forked_cut_is_the_in_process_cut(catalog_by_id, monkeypatch, forks):
    assert catalog_by_id["s3.6-ex9"].spec.start == 1
    set_cpus(monkeypatch, 1)
    in_process = [_ten_thousand_digit_cut(catalog_by_id, eid) for eid in CUT_ENTRIES]
    assert not forks
    set_cpus(monkeypatch, 2)
    assert [_ten_thousand_digit_cut(catalog_by_id, eid) for eid in CUT_ENTRIES] == in_process
    # one child per sum, for the left part
    assert len(forks) == len(CUT_ENTRIES)
    assert all(e > 0 for _, _, e in in_process)
    assert_no_child_left()


def test_decay_estimate_is_the_left_parts_decay(catalog_by_id):
    # read off the sequences, the estimate sits the margin below the bits
    # that the left part's b outgrows its a by, so the right part runs at
    # the width that serial splitting would give a right half there
    for eid in CUT_ENTRIES:
        spec = catalog_by_id[eid].spec
        terms = terms_for_digits(10000, spec.base)
        width = precision_for_digits(10000) + engine.SPLIT_GUARD_BITS
        setup = engine._series_setup(spec)
        cut = math.floor(terms * splitting._CUT_SHARE)
        a, b, _, _, _ = splitting._left_part(setup.sequences, width, cut)
        estimate = splitting._decay_estimate(setup.sequences, 0, cut)
        decay = b.bit_length() - a.bit_length() - splitting._DECAY_MARGIN
        assert decay - 2 <= estimate <= decay, eid
        assert estimate > width // 3, eid


def test_cut_sums_a_failed_childs_part_itself(catalog_by_id, monkeypatch, forks):
    set_cpus(monkeypatch, 1)
    in_process = _ten_thousand_digit_cut(catalog_by_id, "s3.1-ex1")
    set_cpus(monkeypatch, 2)
    parent, real_split, real_write = os.getpid(), splitting._split, os.write

    def raising_in_child(*args):
        if os.getpid() != parent:
            raise RuntimeError("child fails")
        return real_split(*args)

    def short_in_child(fd, data):
        if os.getpid() != parent:
            return real_write(fd, bytes(data)[:-1]) + 1  # claims the last byte too
        return real_write(fd, data)

    def cannot_fork():
        raise BlockingIOError("no process to spare")

    for name, target, fault in (
        ("_split", splitting, raising_in_child),
        ("write", os, short_in_child),
        ("fork", os, cannot_fork),
    ):
        with monkeypatch.context() as patch:
            patch.setattr(target, name, fault)
            assert _ten_thousand_digit_cut(catalog_by_id, "s3.1-ex1") == in_process, name
        assert_no_child_left()
    # the first two faults forked one child each
    assert len(forks) == 2


def test_interrupted_cut_kills_and_reaps_its_child(catalog_by_id, monkeypatch, forks):
    set_cpus(monkeypatch, 2)
    parent = os.getpid()

    def interrupted(*args):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(60)  # still running when the parent unwinds

    monkeypatch.setattr(splitting, "_split", interrupted)
    started = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        _ten_thousand_digit_cut(catalog_by_id, "s3.1-ex1")
    assert time.monotonic() - started < 30  # killed, not waited out
    assert len(forks) == 1
    assert_no_child_left()


# A process whose run_parts child sleeps, with two CPUs; it prints the
# child's pid once the child runs.
SLEEPING_CHILD = """
import os, time
from hyperpi import splitting
os.sched_getaffinity = lambda pid: {0, 1}
def sleeper():
    print(os.getpid(), flush=True)
    time.sleep(60)
splitting.run_parts([sleeper, lambda: time.sleep(60)])
"""


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def test_sigterm_kills_and_reaps_the_children():
    # SIGTERM's default action would end the parent without unwinding and
    # leave its child running
    src = str(Path(hyperpi.__file__).resolve().parents[1])
    proc = subprocess.Popen(
        [sys.executable, "-c", SLEEPING_CHILD],
        env=dict(os.environ, PYTHONPATH=src),
        stdout=subprocess.PIPE,
        text=True,
    )
    child = 0
    try:
        child = int(proc.stdout.readline())
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) != 0
        deadline = time.monotonic() + 5
        while _alive(child) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not _alive(child)
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()
        if child and _alive(child):
            os.kill(child, signal.SIGKILL)
    assert_no_child_left()


def test_cut_is_unforked_with_threads_or_without_affinity(catalog_by_id, monkeypatch):
    set_cpus(monkeypatch, 1)
    in_process = _ten_thousand_digit_cut(catalog_by_id, "s3.1-ex1")

    def fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", fork)
    set_cpus(monkeypatch, 2)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert _ten_thousand_digit_cut(catalog_by_id, "s3.1-ex1") == in_process
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    monkeypatch.delattr(os, "sched_getaffinity")
    assert _ten_thousand_digit_cut(catalog_by_id, "s3.1-ex1") == in_process
    assert_no_child_left()


def test_sum_series_rounds_the_exact_pair_after_a_far_too_high_estimate(
    catalog_by_id, monkeypatch
):
    # a right part run 2000 bits too narrow leaves an interval far wider than
    # an ulp: the interval is declined and the exact pair gives the same bits
    spec = catalog_by_id["s3.1-ex1"].spec
    terms, prec = terms_for_digits(10000, spec.base), precision_for_digits(10000)
    fallbacks = []
    exact_ratio = engine._series_ratio

    def counted_ratio(spec, terms):
        fallbacks.append(terms)
        return exact_ratio(spec, terms)

    monkeypatch.setattr(engine, "_series_ratio", counted_ratio)
    want = sum_series(spec, terms, prec)
    assert fallbacks == []
    monkeypatch.setattr(splitting, "_DECAY_MARGIN", -2000)
    got = sum_series(spec, terms, prec)
    assert fallbacks == [terms]
    assert (got.man, got.exp, got.prec) == (want.man, want.exp, want.prec)
    assert_no_child_left()


@st.composite
def _listing_cases(draw):
    """A valid spec and a range [lo, hi) of its sequences: integer, negative
    and zero-crossing parameters (a negative upper form n + k d changes sign
    at some k, and is 0 there when the parameter is an integer), start 0-6,
    a weight polynomial of degree 0-3, and the range lengths at which the
    listing switches from point values to differences and the splitter's
    block edges (1024)."""
    integers = st.integers(-12, 12).map(F)
    params = st.one_of(_params, integers)
    lower = st.one_of(_params, integers).filter(lambda x: x.denominator > 1 or x > 0)
    spec = SeriesSpec(
        upper=tuple(draw(st.lists(params, min_size=1, max_size=4))),
        lower=tuple(draw(st.lists(lower, min_size=1, max_size=4))),
        poly=tuple(draw(st.lists(params, min_size=1, max_size=4).filter(lambda p: any(p)))),
        base=draw(st.integers(2, 300)),
        start=draw(st.integers(0, 6)),
        sign=draw(st.sampled_from((1, -1))),
    )
    lo = draw(st.integers(0, 3000))
    return spec, lo, lo + draw(st.sampled_from((0, 1, 2, 1023, 1024, 1025, 2049)))


def _forms_at(params, k: int) -> int:
    """prod (n + k d) over the parameters n/d: their rising-factorial steps
    at index k times the product of their denominators."""
    return math.prod(p.numerator + k * p.denominator for p in params)


@settings(max_examples=120, deadline=None)
@given(_listing_cases())
@example((SHIFTED, 0, 2049))
@example((SeriesSpec(upper=(F(-7),), lower=(F(1, 2),), poly=(F(0), F(1)), base=2, start=6), 0, 2))
def test_series_sequences_are_the_per_index_definition(case):
    spec, lo, hi = case
    setup = engine._series_setup(spec)
    weights, alphas, betas = setup.sequences(lo, hi)
    assert len(weights) == len(alphas) == len(betas) == hi - lo
    lcm = math.lcm(*(c.denominator for c in spec.poly))
    upper_dens = math.prod(u.denominator for u in spec.upper)
    lower_dens = math.prod(low.denominator for low in spec.lower)
    # the uncancelled step k -> k + 1 is alpha_full(k) / beta_full(k), whose
    # constants share this factor
    common = math.gcd(lower_dens, upper_dens * spec.base)

    def alpha_full(k):
        return lower_dens * _forms_at(spec.upper, k)

    def beta_full(k):
        return spec.base * upper_dens * _forms_at(spec.lower, k)

    for j, (weight, alpha, beta) in enumerate(zip(weights, alphas, betas), start=lo):
        k = spec.start + j
        assert weight == lcm * poly_eval(spec.poly, F(k))
        assert alpha * beta_full(k) == alpha_full(k) * beta
        assert (alpha * common, beta * common) == (alpha_full(k), beta_full(k))
    lead_num = spec.sign * math.prod(map(alpha_full, range(spec.start)))
    lead_den = lcm * math.prod(map(beta_full, range(spec.start)))
    assert setup.lead_num * lead_den == lead_num * setup.lead_den


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(*[st.integers(-50, 50)] * 3), max_size=40),
    st.integers(-5, 5),
)
def test_product_sum_is_its_definition(rows, lo):
    # A, B and T of the docstring, over zero and negative entries, through
    # both the fold (8 terms or fewer) and the balanced split
    weights = [w for w, _, _ in rows]
    alphas = [a for _, a, _ in rows]
    betas = [b for _, _, b in rows]

    def at(seq):
        return lambda j: seq[j - lo]

    a, b, t = product_sum(at(weights), at(alphas), at(betas), lo, lo + len(rows))
    assert (a, b) == (math.prod(alphas), math.prod(betas))
    assert t == sum(
        w * math.prod(alphas[:j]) * math.prod(betas[j:]) for j, w in enumerate(weights)
    )


def test_ten_thousand_digit_sum_divides_once(catalog_by_id, monkeypatch):
    # the truncated interval is rounded by one division, not one per end
    divisions = []

    def counted_divmod(x, y):
        divisions.append(max(int(x).bit_length(), int(y).bit_length()))
        return divmod(x, y)

    monkeypatch.setattr(bigfloat, "divmod", counted_divmod, raising=False)
    spec = catalog_by_id["s3.1-ex1"].spec
    prec = precision_for_digits(10000)
    value = sum_series(spec, terms_for_digits(10000, spec.base), prec)
    assert len(divisions) == 1 and divisions[0] > 2 * prec
    assert value.prec == prec
