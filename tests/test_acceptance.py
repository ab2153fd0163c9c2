"""End-to-end acceptance checks.

Each test prints exactly one ``[acceptance] ... PASS``/``FAIL`` line (the
suite runs with ``-s`` so the lines always reach the console) and enforces
both the stated tolerance and the stated runtime budget.
"""

import json
import time
from fractions import Fraction

import pytest

from hyperpi.bigfloat import BigFloat, pi_reference
from hyperpi.catalog import load_catalog, match_to_theorem, verify_entry
from hyperpi.cli import main as cli_main
from hyperpi.dougall import (
    limit_series_term,
    random_finite_params,
    random_parity_params,
    theorem_closed_value,
    theorem_gamma_args,
    theorem_term,
    verify_dougall,
    verify_dual_relation,
    verify_parity_form,
)
from hyperpi.engine import bbp_hex_digits, compute_pi_via, convergence_rate, verify_bbp_equivalence
from hyperpi.errors import HyperPiError
from hyperpi.gammafn import gamma_quotient, gamma_rational
from hyperpi.factorials import pochhammer
from hyperpi.inversion import random_scheme, random_sequence, roundtrip_check
from hyperpi.prng import SplitMix64
from oracles import hex_fraction_digits, pow_fraction, random_valid_params, value_cmp

F = Fraction


def report(name: str, ok: bool, elapsed: float, budget: float, detail: str = ""):
    verdict = "PASS" if ok and elapsed < budget else "FAIL"
    extra = f" ({detail})" if detail else ""
    print(
        f"\n[acceptance] {name}: {verdict} in {elapsed:.2f}s "
        f"(budget {budget:.0f}s){extra}"
    )
    assert ok, f"{name}: check failed{extra}"
    assert elapsed < budget, f"{name}: took {elapsed:.2f}s, budget {budget:.0f}s"


@pytest.fixture(scope="module")
def entries():
    return load_catalog()


def test_criterion_1_terminating_identity():
    started = time.perf_counter()
    rng = SplitMix64(101)
    failures = 0
    for _ in range(200):
        params = random_finite_params(rng, 20)
        for n in range(21):
            if not verify_dougall(params, n).passed:
                failures += 1
    report(
        "1 terminating identity, 200 parameter sets x n=0..20, exact",
        failures == 0,
        time.perf_counter() - started,
        60.0,
    )


def test_criterion_2_inversion_round_trips():
    started = time.perf_counter()
    rng = SplitMix64(102)
    failures = 0
    for pair in ("plain", "extended"):
        for _ in range(50):
            scheme = random_scheme(rng, 12, extended=(pair == "extended"))
            sequence = random_sequence(rng, 12)
            failures += len(roundtrip_check(scheme, sequence, 12, pair))
    report(
        "2 inverse pairs, 50 schemes each, n<=12, exact",
        failures == 0,
        time.perf_counter() - started,
        30.0,
    )


def test_criterion_3_parity_and_dual():
    started = time.perf_counter()
    rng = SplitMix64(103)
    failures = 0
    for _ in range(50):
        params = random_parity_params(rng, 12)
        for n in range(13):
            if not verify_parity_form(params, n).passed:
                failures += 1
            if not verify_dual_relation(params, n).passed:
                failures += 1
    report(
        "3 parity form and dual relation, 50 parameter sets, n<=12, exact",
        failures == 0,
        time.perf_counter() - started,
        60.0,
    )


def test_criterion_4_closed_values_numeric():
    started = time.perf_counter()
    rng = SplitMix64(104)
    prec = 400
    tolerance = BigFloat.from_fraction(F(1, 10**50), 64)
    worst_ok = True
    for _ in range(10):
        params = random_valid_params(rng)
        # the shared limit identity
        total = sum(
            limit_series_term(params, k, "even") + limit_series_term(params, k, "odd")
            for k in range(120)
        )
        upper, lower = theorem_gamma_args(params, "B")
        closed = gamma_quotient(upper, lower, prec)
        diff = BigFloat.from_fraction(total, prec).sub(closed, prec).abs()
        worst_ok = worst_ok and value_cmp(diff, tolerance) < 0
        # both generator families
        for tag in ("A", "B"):
            family_total = sum(theorem_term(params, tag, k) for k in range(120))
            family_closed = theorem_closed_value(params, tag, prec)
            fdiff = (
                BigFloat.from_fraction(family_total, prec)
                .sub(family_closed, prec)
                .abs()
            )
            worst_ok = worst_ok and value_cmp(fdiff, tolerance) < 0
    report(
        "4 gamma-quotient closed values vs 120-term sums, 10e-50 at 400 bits",
        worst_ok,
        time.perf_counter() - started,
        60.0,
    )


def test_criterion_5_full_catalog(entries):
    started = time.perf_counter()
    bad = []
    for entry in entries:
        check = verify_entry(entry, 100)
        if not check.passed:
            bad.append(f"{entry.entry_id}: verify")
            continue
        try:
            match_to_theorem(entry)
        except HyperPiError:
            bad.append(f"{entry.entry_id}: match")
    report(
        "5 full catalog certification at 100 digits plus family matching",
        not bad,
        time.perf_counter() - started,
        120.0,
        detail=",".join(bad[:4]),
    )


def _machin_digits(digits: int) -> str:
    # independent reference: pi = 16 arctan(1/5) - 4 arctan(1/239),
    # fixed-point integer arithmetic only
    fbits = int(digits * 3.322) + 64

    def arctan_inv(q: int) -> int:
        total = 0
        term = (1 << fbits) // q
        qq = q * q
        n = 0
        while term:
            total += term // (2 * n + 1) if n % 2 == 0 else -(term // (2 * n + 1))
            term //= qq
            n += 1
        return total

    value = 16 * arctan_inv(5) - 4 * arctan_inv(239)
    scaled = value * 10**digits
    rounded = (scaled + (1 << (fbits - 1))) >> fbits
    text = str(rounded)
    return f"{text[0]}.{text[1:]}"


def test_criterion_6_thousand_digits(entries):
    started = time.perf_counter()
    entry = next(e for e in entries if e.entry_id == "s3.1-ex1")
    got = compute_pi_via(entry.spec, entry.lhs, 1000).to_decimal_string(1000)
    expected = _machin_digits(1000)
    report(
        "6 pi via s3.1-ex1 to 1000 digits vs independent reference",
        got == expected,
        time.perf_counter() - started,
        10.0,
    )


def test_criterion_7_bbp(entries):
    started = time.perf_counter()
    ref = pi_reference(4 * (100000 + 16) + 256)
    ok = bbp_hex_digits(0, 16) == hex_fraction_digits(ref, 0, 16)
    ok = ok and bbp_hex_digits(100000, 16) == hex_fraction_digits(ref, 100000, 16)
    certified = 0
    for entry in entries:
        if entry.family_class != "BBP":
            continue
        cert = verify_bbp_equivalence(entry.spec, entry.lhs)
        certified += cert.family in ("pi", "two-pi")
    report(
        "7 hex digits at 0 and 10^5 vs reference; 10 template equivalences",
        ok and certified == 10,
        time.perf_counter() - started,
        30.0,
    )


def test_criterion_8_convergence_rate(entries):
    started = time.perf_counter()
    by_id = {e.entry_id: e for e in entries}
    sample = ["s3.1-ex1", "s3.2-ex1", "s3.5-ex1", "s3.6-ex1", "s3.6-ex9"]
    tags = {by_id[eid].theorem for eid in sample}
    ok = tags == {"A", "B"}
    for eid in sample:
        ratio = convergence_rate(by_id[eid].spec, 500)
        ok = ok and abs(ratio - F(1, 16)) <= F(1, 16) * F(2, 100)
    report(
        "8 term ratio within 2% of 1/16 at k=500, five entries, both families",
        ok,
        time.perf_counter() - started,
        5.0,
    )


def test_criterion_9_gamma_asymptotic():
    started = time.perf_counter()
    prec = 300
    ok = True
    for n, bound in ((100, 1e-2), (1000, 1e-3)):
        factorial = F(1)
        for j in range(2, n):
            factorial *= j
        for x in (F(1, 3), F(1, 2), F(5, 6)):
            # gamma(x+n) / (n^x (n-1)!) with gamma(x+n) = (x)_n gamma(x)
            ratio = (
                BigFloat.from_fraction(pochhammer(x, n), prec)
                .mul(gamma_rational(x, prec), prec)
                .div(pow_fraction(BigFloat.from_int(n, prec), x, prec), prec)
                .div(BigFloat.from_fraction(factorial, prec), prec)
            )
            ok = ok and abs(ratio.to_float() - 1.0) < bound
    report(
        "9 gamma asymptotic normalization, n=100 under 1e-2, n=1000 under 1e-3",
        ok,
        time.perf_counter() - started,
        5.0,
    )


def test_criterion_10_negative_controls(tmp_path, capsys):
    started = time.perf_counter()
    import importlib.resources

    doc = json.loads(
        importlib.resources.files("hyperpi").joinpath("data/catalog.json").read_text()
    )

    def run_mutated(name, entry_id, mutate):
        mutated = json.loads(json.dumps(doc))
        mutate({e["id"]: e for e in mutated["entries"]})
        path = tmp_path / name
        path.write_text(json.dumps(mutated))
        code = cli_main(
            [
                "verify", "catalog", "--id", entry_id, "--digits", "40",
                "--catalog", str(path),
            ]
        )
        capsys.readouterr()
        return code

    codes = [
        run_mutated(
            "poly.json", "s3.1-ex1",
            lambda by_id: by_id["s3.1-ex1"]["poly"].__setitem__(0, "4"),
        ),
        run_mutated(
            "tag.json", "s3.6-ex1",
            lambda by_id: by_id["s3.6-ex1"].__setitem__("theorem", "A"),
        ),
        run_mutated(
            "bbp.json", "s3.7-ex1",
            lambda by_id: by_id["s3.7-ex1"]["poly"].__setitem__(0, "55"),
        ),
    ]
    with capsys.disabled():
        report(
            "10 negative controls (poly, family tag, digit-extraction weight)",
            codes == [2, 2, 2],
            time.perf_counter() - started,
            30.0,
            detail=f"exit codes {codes}",
        )
