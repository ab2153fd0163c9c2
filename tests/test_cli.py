"""Command line interface: exit codes, report determinism, negative controls."""

import copy
import hashlib
import importlib.resources
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import hyperpi
from hyperpi import catalog, dougall, inversion
from hyperpi.bigfloat import pi_reference
from hyperpi.cli import build_parser, main
from hyperpi.constexpr import format_rational
from hyperpi.dougall import WellPoisedParams
from hyperpi.engine import precision_for_digits
from hyperpi.errors import RangeError, RepeatedPole, ZeroDenominator
from oracles import term_ratio_reference


@pytest.fixture(scope="module")
def raw_doc():
    text = (
        importlib.resources.files("hyperpi").joinpath("data/catalog.json").read_text()
    )
    return json.loads(text)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_dougall_ok(capsys):
    code, out, _ = run(
        capsys, "verify", "dougall", "--trials", "5", "--nmax", "6", "--seed", "1"
    )
    assert code == 0
    assert "PASS" in out


def test_verify_inversion_ok(capsys):
    code, out, _ = run(
        capsys, "verify", "inversion", "--trials", "3", "--nmax", "6", "--seed", "2"
    )
    assert code == 0
    assert "PASS" in out


def test_verify_chain_ok(capsys):
    code, out, _ = run(
        capsys, "verify", "chain", "--trials", "2", "--nmax", "3", "--seed", "3"
    )
    assert code == 0
    assert "PASS" in out


def _shift_closed_quotient(monkeypatch):
    closed_forms = dougall._closed_forms
    monkeypatch.setattr(
        dougall, "_closed_forms", lambda q, a, b, c, d: closed_forms(q, a, b + q, c, d)
    )


def _shift_parity_form(monkeypatch):
    exact = dougall.parity_closed_form
    monkeypatch.setattr(dougall, "parity_closed_form", lambda params, n: exact(params, n) + 1)


def _shift_inverse_pair_sums(monkeypatch):
    # every transform's numerator off by its denominator: each value off by 1
    apply = inversion._apply

    def shifted(weights, values):
        num, den = apply(weights, values)
        return num + den, den

    monkeypatch.setattr(inversion, "_apply", shifted)


def _fault_every_chain_check(monkeypatch):
    # the bracket side, the dual summands (taken at d + 1/3) and the forward
    # transform each off: every one of the chain's four checks fails
    _shift_parity_form(monkeypatch)
    expansion = dougall._dual_expansion
    monkeypatch.setattr(
        dougall, "_dual_expansion",
        lambda params, n: expansion(params._replace(d=params.d + Fraction(1, 3)), n),
    )
    _shift_inverse_pair_sums(monkeypatch)


def test_verify_chain_failure_exits_2(capsys, monkeypatch):
    _shift_parity_form(monkeypatch)
    code, out, _ = run(
        capsys, "verify", "chain", "--trials", "1", "--nmax", "2", "--seed", "3",
        "--format", "json",
    )
    assert code == 2
    rows = json.loads(out)["counterexamples"]
    assert any(row["detail"].startswith("parity form failed") for row in rows)


def test_verify_dougall_failure_exits_2(capsys, monkeypatch):
    # the closed quotient taken at b + 1: every trial of positive degree fails,
    # and each counterexample shows both sides as reduced fractions
    _shift_closed_quotient(monkeypatch)
    code, out, _ = run(
        capsys, "verify", "dougall", "--trials", "4", "--nmax", "6", "--seed", "1",
        "--format", "json",
    )
    assert code == 2
    rows = json.loads(out)["counterexamples"]
    assert rows
    checks = []
    for row in rows:
        params = WellPoisedParams.make(*(Fraction(x) for x in row["params"]))
        check = dougall.verify_dougall(params, row["n"])
        assert row["sum"] == format_rational(check.lhs) == str(check.lhs)
        assert row["closed_form"] == format_rational(check.rhs) == str(check.rhs)
        checks.append((params, row["n"], check))
    # the sum side is the true sum: it equals the unshifted closed quotient
    monkeypatch.undo()
    for params, n, check in checks:
        assert check.lhs == dougall.verify_dougall(params, n).rhs != check.rhs


# the human output of each trial command, passing and under a planted fault:
# header, one line per counterexample, verdict
TRIAL_OUTPUTS = [
    (("verify", "dougall", "--trials", "3", "--nmax", "2", "--seed", "1"),
     _shift_closed_quotient,
     "terminating identity: 3 random trials, degrees 0..2, seed 1\n",
     "  COUNTEREXAMPLE params=['-3/4', '6/5', '3/7', '1/6'] n=2 "
     "sum=-695623145/76755991 closed=26431804515/4657982563\n"
     "  COUNTEREXAMPLE params=['10/3', '-3/5', '8/7', '-1'] n=1 "
     "sum=2532673/2493874 closed=1550263/1573294\n"),
    (("verify", "chain", "--trials", "1", "--nmax", "1", "--seed", "3"),
     _shift_parity_form,
     "parity/dual/inverse-pair chain: 1 random parameter sets, n <= 1, seed 3\n",
     "  COUNTEREXAMPLE {'params': ['-1/2', '-1/2', '-7/6', '5'], "
     "'detail': 'parity form failed at n=0: 1 != 2'}\n"
     "  COUNTEREXAMPLE {'params': ['-1/2', '-1/2', '-7/6', '5'], "
     "'detail': 'parity form failed at n=1: 169/253 != 422/253'}\n"),
    (("verify", "inversion", "--trials", "1", "--nmax", "0", "--seed", "3"),
     _shift_inverse_pair_sums,
     "inverse pairs plain, extended: 1 random schemes each, n <= 0, seed 3\n",
     "  COUNTEREXAMPLE [plain] plain: inverse(forward(g))(0) = 31/13 != 5/13\n"
     "  COUNTEREXAMPLE [plain] plain: forward(inverse(g))(0) = 31/13 != 5/13\n"
     "  COUNTEREXAMPLE [extended] extended: inverse(forward(g))(0) = 22/19 != -16/19\n"
     "  COUNTEREXAMPLE [extended] extended: forward(inverse(g))(0) = 22/19 != -16/19\n"),
    # the chain lists its failures check by check: parity, forward, mapping, dual
    (("verify", "chain", "--trials", "1", "--nmax", "1", "--seed", "0"),
     _fault_every_chain_check,
     "parity/dual/inverse-pair chain: 1 random parameter sets, n <= 1, seed 0\n",
     "".join(
         f"  COUNTEREXAMPLE {{'params': ['6', '6/5', '6', '-2'], 'detail': '{detail}'}}\n"
         for detail in (
             "parity form failed at n=0: 1 != 2",
             "parity form failed at n=1: -119/232 != 113/232",
             "forward transform at n=0: 7/6 != 1/6",
             "forward transform at n=1: -5/29 != -34/29",
             "summand mapping at n=1, k=0: 16/9 != 115/52",
             "summand mapping at n=1, k=1: 238/261 != 2425/1508",
             "dual expansion failed at n=1: 78/29 != 1440/377",
         )
     )),
]


@pytest.mark.parametrize(
    "argv,fault,header,counterexamples", TRIAL_OUTPUTS,
    ids=["dougall", "chain", "inversion", "chain-every-check"],
)
def test_trial_commands_print_header_counterexamples_and_verdict(
    capsys, monkeypatch, argv, fault, header, counterexamples
):
    assert run(capsys, *argv) == (0, header + "PASS\n", "")
    fault(monkeypatch)
    assert run(capsys, *argv) == (2, header + counterexamples + "FAIL\n", "")


def test_verify_catalog_single_entry(capsys):
    code, out, _ = run(
        capsys, "verify", "catalog", "--id", "s3.1-ex1", "--digits", "40"
    )
    assert code == 0
    assert "ok s3.1-ex1" in out


def test_verify_catalog_unknown_id(capsys):
    code, _, err = run(capsys, "verify", "catalog", "--id", "nope")
    assert code == 1
    assert "unknown catalog entry id" in err


@pytest.mark.parametrize(
    "layer,entry_id,error",
    [("match_to_theorem", "s3.1-ex1", ZeroDenominator),
     ("verify_bbp_equivalence", "s3.7-ex1", RepeatedPole)],
)
def test_verify_catalog_reports_any_typed_error_as_a_failed_row(
    capsys, monkeypatch, layer, entry_id, error
):
    # any HyperPiError of a stage is the row's failure, not a traceback
    def broken(*args):
        raise error("planted")

    monkeypatch.setattr(catalog, layer, broken)
    code, out, err = run(
        capsys, "verify", "catalog", "--id", entry_id, "--digits", "40", "--format", "json"
    )
    assert code == 2
    assert "Traceback" not in err
    report = json.loads(out)
    assert report["passed"] is False
    (row,) = report["results"]
    assert row["verified"] is True
    assert row["failure"] == f"{error.__name__}: planted"


# bad values, unreadable paths, and the removed options --max-coeff,
# --pairs, --jobs, --anomalies and --verbose
BAD_COUNTS = [
    ("verify", "dougall", "--nmax", "-1"),
    ("verify", "dougall", "--max-coeff", "0"),
    ("verify", "dougall", "--trials", "-3"),
    ("verify", "chain", "--nmax", "-1"),
    ("verify", "inversion", "--nmax", "-1"),
    ("verify", "inversion", "--pairs", ","),
    ("verify", "inversion", "--pairs", "fancy"),
    ("verify", "catalog", "--digits", "0"),
    ("verify", "catalog", "--jobs", "2"),
    ("verify", "catalog", "--catalog", "no-such-catalog.json"),
    ("verify", "catalog", "--anomalies", "no-such-anomalies.json"),
    ("verify", "catalog", "--verbose"),
    ("pi", "--entry", "s3.1-ex1", "--catalog", "."),
    ("rate", "--id", "s3.1-ex1", "--catalog", "."),
    ("pi", "--entry", "s3.1-ex1", "--digits", "0"),
    ("derive", "--theorem", "A", "--params", "1/2,1/2,1/2,1/2", "--digits", "0"),
    ("derive", "--theorem", "A", "--params", "1/2,1/2,1/2,1/2", "--terms", "0"),
    ("rate", "--id", "s3.1-ex1", "--k", "-1"),
    # read as strictly as the catalog's rationals: no decimal point, and no
    # exponent, whose expansion alone would take seconds
    ("derive", "--theorem", "A", "--params=1.5,1/2,1/2,1/2"),
    ("derive", "--theorem", "A", "--params=1e10000000,1/2,1/2,1/2"),
]

# (subcommand argv, count option, its maximum)
COUNT_MAXIMA = [
    (("verify", "dougall"), "--trials", 1000),
    (("verify", "dougall"), "--nmax", 1000),
    (("verify", "inversion"), "--trials", 1000),
    (("verify", "inversion"), "--nmax", 50),
    (("verify", "chain"), "--trials", 1000),
    (("verify", "chain"), "--nmax", 50),
    (("verify", "catalog"), "--digits", 10_000),
    (("derive", "--theorem", "A", "--params", "1/2,1/2,1/2,1/2"), "--terms", 10_000),
    (("derive", "--theorem", "A", "--params", "1/2,1/2,1/2,1/2"), "--digits", 10_000),
    (("pi", "--entry", "s3.1-ex1"), "--digits", 100_000),
    (("bbp",), "--pos", 10_000_000),
    (("bbp", "--pos", "0"), "--count", 16),
]
# one above each count's maximum: a RangeError before any work
BAD_COUNTS += [(*argv, option, str(maximum + 1)) for argv, option, maximum in COUNT_MAXIMA]


@pytest.mark.parametrize("argv", BAD_COUNTS, ids=[" ".join(argv) for argv in BAD_COUNTS])
def test_bad_counts_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert "usage error" in err
    assert "Traceback" not in out + err


@pytest.mark.parametrize("argv, option, maximum", COUNT_MAXIMA)
def test_each_count_parses_up_to_its_maximum(argv, option, maximum):
    # the maximum itself is accepted; one more is refused while parsing
    parsed = build_parser().parse_args([*argv, option, str(maximum)])
    assert getattr(parsed, option[2:]) == maximum
    with pytest.raises(RangeError, match=f"{option} must be at most {maximum}, got {maximum + 1}"):
        build_parser().parse_args([*argv, option, str(maximum + 1)])


# sha256 of the full catalog report at 100 digits: every entry's verdict,
# error exponent, match mode, scale and BBP family
CATALOG_REPORT_DIGEST = "714ba475a2c4cee676d684e4f47185ddc4b8bf7c5b2fbdb34b7b1bed29eb63d6"


def test_catalog_report_is_pinned(capsys):
    code, out, _ = run(capsys, "verify", "catalog", "--digits", "100", "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CATALOG_REPORT_DIGEST


# sha256 of the full catalog report at 1000 digits, where the gamma-class
# entries take the longest gamma series
CATALOG_REPORT_1000_DIGEST = "86fd8252fd5ec4ead7e2ad52f74cff3d5a0e2fe96e4f5159e95256e439c3841e"

# sha256 of the full catalog report at 10**4 digits, the largest --digits.
# Only CI reads it: the run takes about 10 s, so tier-1 leaves it out.
CATALOG_REPORT_10000_DIGEST = "660368d85cfd9b60a66d9e43fa644fcee84a16143bff2ac6b3e0d25259ca901f"


def test_catalog_report_at_1000_digits_is_pinned(capsys):
    code, out, _ = run(capsys, "verify", "catalog", "--digits", "1000", "--format", "json")
    assert code == 0
    assert sum(row["verified"] for row in json.loads(out)["results"]) == 100
    assert hashlib.sha256(out.encode()).hexdigest() == CATALOG_REPORT_1000_DIGEST


def test_missing_subcommand(capsys):
    assert run(capsys)[0] == 1
    assert run(capsys, "verify")[0] == 1


def test_unknown_subcommand(capsys):
    assert run(capsys, "frobnicate")[0] == 1


def test_json_reports_are_byte_deterministic(capsys):
    args = (
        "verify", "dougall", "--trials", "4", "--nmax", "5", "--seed", "9",
        "--format", "json",
    )
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    report = json.loads(out1)
    assert report["passed"] is True
    assert report["parameters"] == {"trials": 4, "nmax": 5, "seed": 9}


# each report carries what its run computed, under keys shared by every command
REPORT_KEYS = [
    (("verify", "dougall", "--trials", "2"), {"counterexamples"}),
    (("verify", "inversion", "--trials", "1", "--nmax", "4"), {"counterexamples"}),
    (("verify", "chain", "--trials", "1", "--nmax", "2"), {"counterexamples"}),
    (("verify", "catalog", "--id", "s3.1-ex1", "--digits", "20"), {"results"}),
    (("derive", "--theorem", "A", "--params", "1/2,1/2,1/2,1/2", "--terms", "8",
      "--digits", "5"),
     {"series", "leading_terms", "partial_sum", "closed_form", "absolute_difference"}),
    (("pi", "--entry", "s3.1-ex1", "--digits", "10"), {"pi"}),
    (("bbp", "--pos", "0", "--count", "4"), {"hex_digits"}),
    (("rate", "--id", "s3.1-ex1", "--k", "10"),
     {"ratio", "ratio_float", "geometric_target", "relative_deviation"}),
]


@pytest.mark.parametrize(
    "argv,keys", REPORT_KEYS,
    ids=[argv[1] if argv[0] == "verify" else argv[0] for argv, _ in REPORT_KEYS],
)
def test_reports_carry_only_what_the_run_computed(capsys, argv, keys):
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    shared = {"command", "parameters", "passed", "tool", "version"}
    assert set(json.loads(out)) == shared | keys


# sha256 of the JSON reports of the benchmark's identity commands.  A
# passing report holds the parameters, "passed": true and an empty
# "counterexamples" list and no computed value, so these digests pin the
# verdicts and the report's shape; the draws are pinned by the sampler
# stream tests (test_prng, test_dougall)
PINNED_REPORTS = [
    (("verify", "dougall", "--nmax", "20", "--trials", "120", "--seed", "1"),
     "dbd622485dd6ea2d263b23767651eaabce73ad385c061c82133ce8f30be8c787"),
    (("verify", "dougall", "--nmax", "20", "--trials", "120", "--seed", "2"),
     "4c5527ec54ce00b619f98fdb08abe69578e90a07e36de8198c154fcaf5d56730"),
    (("verify", "chain", "--nmax", "6", "--trials", "3", "--seed", "1"),
     "459892dc5eed1b5cbe8d1fb94f79075d02a7e16a18c9e82d3e75ca5f3b78d7b4"),
    (("verify", "chain", "--nmax", "6", "--trials", "3", "--seed", "2"),
     "6f00458c2707012f5d60b6bf0487e69211ec78058a9782eb38b46018e46875a8"),
    (("verify", "inversion", "--nmax", "12", "--trials", "2", "--seed", "1"),
     "3ec0b8ab66157eb8a6c3525a623634c71dee8f8c5fd168f7a5a5eefdee830811"),
    (("verify", "inversion", "--nmax", "12", "--trials", "2", "--seed", "2"),
     "54854b25f174c6f518da28b0e8312d6153871b513583a1b8ef6ddefceafa91b2"),
]


@pytest.mark.parametrize(
    "argv,digest", PINNED_REPORTS,
    ids=[f"{argv[1]}-seed{argv[-1]}" for argv, _ in PINNED_REPORTS],
)
def test_identity_reports_are_pinned(capsys, argv, digest):
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_pi_digits(capsys):
    code, out, _ = run(capsys, "pi", "--entry", "s3.1-ex1", "--digits", "30")
    assert code == 0
    assert out.strip() == "3.141592653589793238462643383280"


@pytest.mark.parametrize("count", [10**4, 3 * 10**4])
def test_pi_ten_thousand_digits_json(capsys, count):
    # every digit against the Machin reference, cross-checked by Gauss
    code, out, _ = run(
        capsys, "pi", "--entry", "s3.1-ex1", "--digits", str(count), "--format", "json"
    )
    assert code == 0
    digits = json.loads(out)["pi"]
    assert digits == pi_reference(precision_for_digits(count)).to_decimal_string(count)
    if count == 10**4:
        assert digits.endswith("375679")  # ...3756785667...: the last digit rounds up


def test_pi_rejects_gamma_entry(capsys):
    code, _, err = run(capsys, "pi", "--entry", "s3.3-ex1", "--digits", "20")
    assert code == 2
    assert "UnsupportedLhs" in err


def test_bbp_subcommand(capsys):
    code, out, _ = run(capsys, "bbp", "--pos", "0", "--count", "16")
    assert code == 0
    assert out.strip() == "243F6A8885A308D3"
    code, _, err = run(capsys, "bbp", "--pos", "-1", "--count", "4")
    assert code == 1


def test_rate_subcommand(capsys):
    code, out, _ = run(
        capsys, "rate", "--id", "s3.1-ex1", "--k", "500", "--format", "json"
    )
    assert code == 0
    report = json.loads(out)
    assert report["relative_deviation"] < 0.02


def test_rate_subcommand_far_out(capsys, catalog_by_id):
    # two steps of the integer sequences, however large k is
    k = 10**6
    code, out, _ = run(capsys, "rate", "--id", "s3.1-ex1", "--k", str(k), "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["ratio"] == format_rational(term_ratio_reference(catalog_by_id["s3.1-ex1"].spec, k))
    assert report["relative_deviation"] < 1e-5


def test_rate_outside_the_float_range_is_a_range_error(capsys, raw_doc, tmp_path):
    # schema-valid, but its ratio at k = 0 is about 10**400
    entry = copy.deepcopy(next(e for e in raw_doc["entries"] if e["id"] == "s3.1-ex1"))
    entry["upper"][0] = str(10**400)
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(dict(raw_doc, entries=[entry])))
    code, out, err = run(capsys, "rate", "--id", "s3.1-ex1", "--catalog", str(path), "--k", "0")
    assert code == 1
    assert "usage error" in err and "s3.1-ex1" in err
    assert "Traceback" not in out + err


# sha256 of derive reports down the normaliser's two paths through the
# provenance rule: family B with start 1 and additive 3/2 (s3.2-ex4's
# family), and a quadruple at which every term of either family is 0, and so
# are the sum and the closed form
PINNED_DERIVE_REPORTS = [
    ("B", "5/2,1,2,1", "a1dde69abde166a32f19b7cbd77653cf096f912a44286a5a7fe074c04a5b81aa"),
    ("A", "1/2,0,1/2,1/2", "743b539ed389f2c0749aabf92c651a8bbba2974a900c6287570968fd5d330f6c"),
    ("B", "1/2,0,1/2,1/2", "92471c493c51e59e536de45359fb803af00fae51ca381f87aae5dbef0789ec1a"),
]


@pytest.mark.parametrize(
    "theorem,params,digest", PINNED_DERIVE_REPORTS,
    ids=[f"{theorem}-{params}" for theorem, params, _ in PINNED_DERIVE_REPORTS],
)
def test_derive_reports_are_pinned(capsys, theorem, params, digest):
    code, out, _ = run(
        capsys, "derive", "--theorem", theorem, "--params", params, "--format", "json"
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "terms,digits,code",
    [(2, 30, 2), (12, 20, 2), (30, 20, 0), (60, 40, 0)],
)
def test_derive_passes_only_within_the_requested_digits(capsys, terms, digits, code):
    # all four parameters 1/2: family A sums to a positive gamma quotient
    got, out, _ = run(
        capsys,
        "derive", "--theorem", "A", "--params", "1/2,1/2,1/2,1/2",
        "--terms", str(terms), "--digits", str(digits), "--format", "json",
    )
    report = json.loads(out)
    assert got == code
    assert report["passed"] is (code == 0)
    assert report["closed_form"] is not None
    difference = report["absolute_difference"] or 0.0
    assert (difference < 10.0**-digits) is (code == 0)


def test_derive_subcommand(capsys):
    code, out, _ = run(
        capsys,
        "derive", "--theorem", "A", "--params", "1/2,1/2,1/2,1/2",
        "--terms", "30", "--digits", "20",
    )
    assert code == 0
    assert "partial sum" in out
    code, _, err = run(capsys, "derive", "--theorem", "A", "--params", "1,2")
    assert code == 1


def write_mutated_catalog(raw_doc, tmp_path, name, mutate):
    doc = copy.deepcopy(raw_doc)
    mutate({e["id"]: e for e in doc["entries"]})
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_negative_control_mutated_poly(capsys, raw_doc, tmp_path):
    path = write_mutated_catalog(
        raw_doc, tmp_path, "poly.json",
        lambda by_id: by_id["s3.1-ex1"]["poly"].__setitem__(0, "4"),
    )
    code, out, _ = run(
        capsys,
        "verify", "catalog", "--id", "s3.1-ex1", "--digits", "40",
        "--catalog", path,
    )
    assert code == 2
    assert "FAIL" in out


def test_negative_control_wrong_theorem_tag(capsys, raw_doc, tmp_path):
    path = write_mutated_catalog(
        raw_doc, tmp_path, "tag.json",
        lambda by_id: by_id["s3.6-ex1"].__setitem__("theorem", "A"),
    )
    code, out, _ = run(
        capsys,
        "verify", "catalog", "--id", "s3.6-ex1", "--digits", "40",
        "--catalog", path,
    )
    assert code == 2
    assert "NoMatch" in out


def test_negative_control_corrupted_bbp_weight(capsys, raw_doc, tmp_path):
    def corrupt(by_id):
        entry = by_id["s3.7-ex1"]
        entry["poly"][0] = str(int(entry["poly"][0]) + 8)

    path = write_mutated_catalog(raw_doc, tmp_path, "bbp.json", corrupt)
    code, out, _ = run(
        capsys,
        "verify", "catalog", "--id", "s3.7-ex1", "--digits", "40",
        "--catalog", path,
    )
    assert code == 2
    assert "FAIL" in out


def verify_in_fresh_process(path):
    """``hyperpi verify catalog --catalog path`` in a new interpreter:
    the finished process and its wall time."""
    src = str(Path(hyperpi.__file__).resolve().parents[1])
    started = time.monotonic()
    done = subprocess.run(
        [sys.executable, "-m", "hyperpi.cli", "verify", "catalog", "--catalog", str(path)],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=60,
    )
    return done, time.monotonic() - started


@pytest.mark.parametrize("depth", [150, 3000])
def test_deeply_nested_closed_form_is_a_schema_error(raw_doc, tmp_path, depth):
    # past the parser's depth cap (150), and past the JSON decoder's stack
    # (3000): exit 2 with a typed error, in a fresh process, no traceback
    doc = copy.deepcopy(raw_doc)
    doc["entries"] = doc["entries"][:1]
    entry_id = doc["entries"][0]["id"]
    leaf = json.dumps(doc["entries"][0]["lhs"])
    doc["entries"][0]["lhs"] = "LHS"
    nested = '{"op": "mul", "args": [' * depth + leaf + ', {"rat": "1"}]}' * depth
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(doc).replace('"LHS"', nested))
    done, _ = verify_in_fresh_process(path)
    assert done.returncode == 2, done.stderr
    assert "SchemaError" in done.stderr
    assert "Traceback" not in done.stderr
    if depth == 150:  # the file parses, so the row it fails in is named
        assert f"entry {entry_id}: expression nested deeper" in done.stderr


@pytest.mark.parametrize(
    "field,value,message",
    [
        ("start", 10**7, "start must be in [0, 1000]"),
        ("lhs", {"op": "add", "args": [{"rat": "1"}] * 1001}, "more than 1000 nodes"),
        ("lhs", {"op": "pow", "args": [{"rat": "1"}, {"rat": "2"}]}, "unknown operator"),
        ("lhs", {"gamma": "-1/3", "exp": 1}, "gamma leaf argument must be positive"),
    ],
)
def test_hostile_row_fails_before_any_work(raw_doc, tmp_path, field, value, message):
    # each is a schema error naming the row (exit 2) within a second
    doc = copy.deepcopy(raw_doc)
    doc["entries"] = doc["entries"][:1]
    doc["entries"][0][field] = value
    path = tmp_path / "hostile.json"
    path.write_text(json.dumps(doc))
    done, seconds = verify_in_fresh_process(path)
    assert done.returncode == 2, done.stderr
    assert f"SchemaError: entry {doc['entries'][0]['id']}: " in done.stderr
    assert message in done.stderr
    assert seconds < 1.0


@pytest.mark.parametrize(
    "params,closed",
    [
        # s3.1-ex5's family: Gamma(-1/2) in the quotient, the value -1/pi**2
        ("1/2,1/2,1/2,-1/2", "-0.1013211836423377714438794632097276389044"),
        # Gamma(-1) below: 1/Gamma vanishes there, and so does the sum
        ("1/2,1,1,1", "0.0000000000000000000000000000000000000000"),
    ],
)
def test_derive_compares_at_negative_gamma_arguments(capsys, params, closed):
    code, out, _ = run(
        capsys, "derive", "--theorem", "A", "--params", params, "--format", "json"
    )
    report = json.loads(out)
    assert code == 0
    assert report["passed"] is True
    assert report["closed_form"] == closed
