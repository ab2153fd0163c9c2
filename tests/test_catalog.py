"""Catalog loading, schema strictness, certification, family matching."""

import copy
import json
import re
from fractions import Fraction

import pytest

from hyperpi import catalog, dougall, engine
from hyperpi.bigfloat import BigFloat, below_power_of_ten
from hyperpi.catalog import (
    CLASS_SHAPES,
    catalog_index,
    load_catalog,
    match_to_theorem,
    verify_entry,
)
from hyperpi.constexpr import eval_const_expr
from hyperpi.errors import InvariantViolation, NoMatch, SchemaError
from hyperpi.factorials import SeriesSpec
from hyperpi.gammafn import gamma_quotient

EXPECTED_CLASS_COUNTS = {
    "pi^-2": 9,
    "pi^2": 7,
    "pi^2/Gamma^3": 12,
    "Gamma^3/pi^2": 21,
    "pi^-1": 25,
    "pi": 16,
    "BBP": 10,
}

# (match mode, scale) of every packaged entry, as match_to_theorem reports
# them; s3.7-ex9, stored with its k = 0 term folded into the additive
# constant, matches exactly through the head rule
EXPECTED_MATCHES = {
    "s3.1-ex1": ("exact", "32"), "s3.1-ex2": ("exact", "32"),
    "s3.1-ex3": ("exact", "32/3"), "s3.1-ex4": ("exact", "32"),
    "s3.1-ex5": ("exact", "-32"), "s3.1-ex6": ("exact", "-32"),
    "s3.1-ex7": ("exact", "2"), "s3.1-ex8": ("exact", "6"),
    "s3.1-ex9": ("exact", "-32/9"), "s3.2-ex1": ("exact", "8"),
    "s3.2-ex2": ("exact", "8"), "s3.2-ex3": ("exact", "4"),
    "s3.2-ex4": ("exact", "2/3"), "s3.2-ex5": ("exact", "2/15"),
    "s3.2-ex6": ("exact", "2/3"), "s3.2-ex7": ("exact", "6"),
    "s3.3-ex1": ("exact", "-1944"), "s3.3-ex2": ("exact", "486"),
    "s3.3-ex3": ("exact", "972"), "s3.3-ex4": ("exact", "-972/5"),
    "s3.3-ex5": ("exact", "-1944/5"), "s3.3-ex6": ("exact", "-2178"),
    "s3.3-ex7": ("exact", "-1530/7"), "s3.3-ex8": ("exact", "-495/7"),
    "s3.3-ex9": ("exact", "198"), "s3.3-ex10": ("exact", "-495/13"),
    "s3.3-ex11": ("exact", "-1638/5"), "s3.3-ex12": ("exact", "882/5"),
    "s3.4-ex1": ("exact", "-7776"), "s3.4-ex2": ("exact", "-7776/7"),
    "s3.4-ex3": ("exact", "-7776/49"), "s3.4-ex4": ("exact", "-7776"),
    "s3.4-ex5": ("exact", "-7776/7"), "s3.4-ex6": ("exact", "7776/49"),
    "s3.4-ex7": ("exact", "7776/5"), "s3.4-ex8": ("exact", "7776/5"),
    "s3.4-ex9": ("exact", "7776/25"), "s3.4-ex10": ("exact", "-7776/55"),
    "s3.4-ex11": ("exact", "-7776/25"), "s3.4-ex12": ("exact", "7776/55"),
    "s3.4-ex13": ("exact", "-99"), "s3.4-ex14": ("exact", "-198"),
    "s3.4-ex15": ("exact", "-225"), "s3.4-ex16": ("exact", "90"),
    "s3.4-ex17": ("exact", "1170"), "s3.4-ex18": ("exact", "-441/2"),
    "s3.4-ex19": ("exact", "-126/5"), "s3.4-ex20": ("exact", "-126"),
    "s3.4-ex21": ("exact", "-630"), "s3.5-ex1": ("exact", "108"),
    "s3.5-ex2": ("exact", "108"), "s3.5-ex3": ("exact", "256"),
    "s3.5-ex4": ("exact", "256/3"), "s3.5-ex5": ("exact", "288"),
    "s3.5-ex6": ("exact", "864"), "s3.5-ex7": ("exact", "864"),
    "s3.5-ex8": ("exact", "500"), "s3.5-ex9": ("exact", "500"),
    "s3.5-ex10": ("exact", "500/3"), "s3.5-ex11": ("exact", "500"),
    "s3.5-ex12": ("exact", "2048"), "s3.5-ex13": ("exact", "2048/3"),
    "s3.5-ex14": ("exact", "2048"), "s3.5-ex15": ("exact", "2048"),
    "s3.5-ex16": ("exact", "90"), "s3.5-ex17": ("exact", "-36/5"),
    "s3.5-ex18": ("exact", "-80/3"), "s3.5-ex19": ("exact", "10"),
    "s3.5-ex20": ("exact", "-6"), "s3.5-ex21": ("exact", "-27"),
    "s3.5-ex22": ("exact", "144"), "s3.5-ex23": ("exact", "-400"),
    "s3.5-ex24": ("exact", "-14"), "s3.5-ex25": ("exact", "-432/5"),
    "s3.6-ex1": ("exact", "16/21"), "s3.6-ex2": ("exact", "80/9"),
    "s3.6-ex3": ("exact", "16/5"), "s3.6-ex4": ("exact", "54/5"),
    "s3.6-ex5": ("exact", "3"), "s3.6-ex6": ("exact", "-9"), "s3.6-ex7": ("exact", "9"),
    "s3.6-ex8": ("exact", "-9"), "s3.6-ex9": ("exact", "4/3"),
    "s3.6-ex10": ("exact", "-4/3"), "s3.6-ex11": ("exact", "2"),
    "s3.6-ex12": ("exact", "36"), "s3.6-ex13": ("exact", "-10"),
    "s3.6-ex14": ("exact", "8"), "s3.6-ex15": ("exact", "27"),
    "s3.6-ex16": ("exact", "54/5"), "s3.7-ex1": ("exact", "128/3"),
    "s3.7-ex2": ("exact", "128/3"), "s3.7-ex3": ("exact", "-16"),
    "s3.7-ex4": ("exact", "16/3"), "s3.7-ex5": ("exact", "16/3"),
    "s3.7-ex6": ("exact", "16/3"), "s3.7-ex7": ("exact", "16/3"),
    "s3.7-ex8": ("exact", "16"), "s3.7-ex9": ("exact", "-16"),
    "s3.7-ex10": ("exact", "128/3"),
}


@pytest.fixture(scope="module")
def raw_doc():
    import importlib.resources

    text = (
        importlib.resources.files("hyperpi").joinpath("data/catalog.json").read_text()
    )
    return json.loads(text)


def write_doc(tmp_path, doc, name="catalog.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def test_packaged_catalog_is_parsed_once(tmp_path):
    # each call gets its own list of the same parsed entries; a file path is
    # read afresh every time
    first, second = load_catalog(), load_catalog()
    assert first == second and first is not second
    assert all(a is b for a, b in zip(first, second))
    first.clear()
    assert len(load_catalog()) == 100
    path = tmp_path / "catalog.json"
    path.write_text('{"version": 1, "entries": []}')
    assert load_catalog(path) == []
    path.write_text('{"version": 2, "entries": []}')
    with pytest.raises(SchemaError):
        load_catalog(path)


def test_packaged_catalog_shape(catalog_entries):
    assert len(catalog_entries) == 100
    ids = [e.entry_id for e in catalog_entries]
    assert len(set(ids)) == 100
    counts = {}
    for e in catalog_entries:
        counts[e.family_class] = counts.get(e.family_class, 0) + 1
    assert counts == EXPECTED_CLASS_COUNTS
    assert set(counts) == set(CLASS_SHAPES)
    for e in catalog_entries:
        assert e.theorem in ("A", "B")
        assert len(e.spec.poly) <= 4  # stored weight polynomials are cubic at most


def test_schema_rejections(raw_doc, tmp_path):
    def expect_schema_error(mutate, name):
        doc = copy.deepcopy(raw_doc)
        mutate(doc)
        path = write_doc(tmp_path, doc, f"{name}.json")
        with pytest.raises(SchemaError):
            load_catalog(path)

    expect_schema_error(lambda d: d.__setitem__("version", 2), "bad-version")
    expect_schema_error(lambda d: d.__setitem__("extra", []), "extra-key")
    expect_schema_error(lambda d: d.pop("version"), "missing-version")
    expect_schema_error(lambda d: d["entries"][0].pop("poly"), "missing-field")
    expect_schema_error(
        lambda d: d["entries"][0].__setitem__("note", "x"), "extra-field"
    )
    expect_schema_error(
        lambda d: d["entries"][1].__setitem__("id", d["entries"][0]["id"]),
        "duplicate-id",
    )
    expect_schema_error(
        lambda d: d["entries"][0].__setitem__("class", "pi^3"), "unknown-class"
    )
    expect_schema_error(
        lambda d: d["entries"][0].__setitem__("theorem", "C"), "unknown-theorem"
    )
    expect_schema_error(
        lambda d: d["entries"][0].__setitem__("params", ["1/2", "1/2"]),
        "short-params",
    )
    expect_schema_error(
        lambda d: d["entries"][0].__setitem__("poly", ["1", "1", "1", "1", "1"]),
        "quartic-poly",
    )
    expect_schema_error(
        lambda d: d["entries"][0].__setitem__("sign", 0), "bad-sign"
    )
    expect_schema_error(
        lambda d: d["entries"][0].__setitem__("base", 1), "bad-base"
    )
    expect_schema_error(
        lambda d: d["entries"][0].__setitem__("start", -1), "bad-start"
    )
    expect_schema_error(
        lambda d: d["entries"][0].__setitem__("attribution", 7), "bad-attribution"
    )


def test_only_series_invariants_are_schema_errors(raw_doc, tmp_path, monkeypatch):
    # a broken invariant of the series is the entry's schema error; anything
    # else raised by the validation is a bug and passes through unchanged
    doc = copy.deepcopy(raw_doc)
    doc["entries"][0]["lower"][0] = "-1"
    with pytest.raises(SchemaError, match="invalid series: lower entry -1") as info:
        load_catalog(write_doc(tmp_path, doc, "bad-lower.json"))
    assert isinstance(info.value.__cause__, InvariantViolation)

    def broken(self):
        raise ZeroDivisionError("planted")

    monkeypatch.setattr(SeriesSpec, "validate", broken)
    with pytest.raises(ZeroDivisionError, match="planted"):
        load_catalog(write_doc(tmp_path, raw_doc))


def test_floats_rejected_in_json(raw_doc, tmp_path):
    doc = copy.deepcopy(raw_doc)
    doc["entries"][0]["poly"] = ["1.5", "2"]
    with pytest.raises(SchemaError):
        load_catalog(write_doc(tmp_path, doc, "float-string.json"))
    # a float literal and the three non-finite ones, each named in the error
    for literal, kind in (
        ("1.25", "floating-point"), ("NaN", "non-finite"),
        ("Infinity", "non-finite"), ("-Infinity", "non-finite"),
    ):
        text = json.dumps(copy.deepcopy(raw_doc))
        text = text.replace('"version": 1', f'"version": 1, "weight": {literal}', 1)
        path = tmp_path / "float-literal.json"
        path.write_text(text)
        with pytest.raises(SchemaError, match=re.escape(f"{kind} literal '{literal}'")):
            load_catalog(path)


def test_non_utf8_catalog_is_a_schema_error(tmp_path):
    # like invalid JSON, bytes that are not UTF-8 are a malformed file
    path = tmp_path / "latin1.json"
    path.write_bytes('{"version": 1, "entries": [], "note": "\u00e9"}'.encode("latin-1"))
    with pytest.raises(SchemaError, match="not UTF-8"):
        load_catalog(path)


def test_class_shape_consistency_enforced(raw_doc, tmp_path):
    # moving a plain-pi closed form onto a pi^2 entry must fail the class check
    doc = copy.deepcopy(raw_doc)
    by_id = {e["id"]: e for e in doc["entries"]}
    pi2_entry = by_id["s3.2-ex1"]
    plain_pi_entry = by_id["s3.6-ex1"]
    pi2_entry["lhs"] = plain_pi_entry["lhs"]
    with pytest.raises(SchemaError):
        load_catalog(write_doc(tmp_path, doc, "class-mismatch.json"))


def test_gamma_class_requires_gamma_leaf(raw_doc, tmp_path):
    doc = copy.deepcopy(raw_doc)
    by_id = {e["id"]: e for e in doc["entries"]}
    by_id["s3.3-ex1"]["lhs"] = {"op": "mul", "args": [{"rat": "2"}, {"pi": 2}]}
    with pytest.raises(SchemaError):
        load_catalog(write_doc(tmp_path, doc, "gamma-missing.json"))


GAMMA_2_3_INV_CUBE = {"gamma": "2/3", "exp": -3}


@pytest.mark.parametrize(
    "lhs",
    [
        # Gamma under a square root: its true exponent is -3/2, not -3
        {"op": "mul", "args": [
            {"rat": "98/3"}, {"pi": 2}, {"sqrt": GAMMA_2_3_INV_CUBE},
        ]},
        # Gamma inside a sum: not a monomial at all
        {"op": "mul", "args": [
            {"pi": 2}, {"op": "add", "args": [{"rat": "98/3"}, GAMMA_2_3_INV_CUBE]},
        ]},
        # pi under a square root next to a valid gamma factor
        {"op": "mul", "args": [
            {"rat": "98/3"}, {"sqrt": {"pi": 4}}, GAMMA_2_3_INV_CUBE,
        ]},
    ],
    ids=["gamma-under-sqrt", "gamma-in-sum", "pi-under-sqrt"],
)
def test_gamma_class_rejects_non_monomial_closed_forms(raw_doc, tmp_path, lhs):
    entry = copy.deepcopy(next(e for e in raw_doc["entries"] if e["id"] == "s3.3-ex1"))
    entry["lhs"] = lhs
    path = write_doc(tmp_path, {"version": 1, "entries": [entry]})
    with pytest.raises(SchemaError, match="s3.3-ex1"):
        load_catalog(path)


def test_verify_entry_samples(catalog_by_id):
    for eid in ("s3.1-ex1", "s3.3-ex1", "s3.4-ex1", "s3.5-ex1", "s3.7-ex1"):
        check = verify_entry(catalog_by_id[eid], 60)
        assert check.passed, f"{eid}: error exponent {check.error_exponent}"
        assert check.error_exponent is None or check.error_exponent < -60


def test_verify_entry_error_bound_is_honest(catalog_by_id, raw_doc, tmp_path):
    # corrupting the leading weight coefficient must be caught immediately
    doc = copy.deepcopy(raw_doc)
    target = next(e for e in doc["entries"] if e["id"] == "s3.1-ex1")
    target["poly"][0] = "4"
    entries = load_catalog(write_doc(tmp_path, doc, "corrupt.json"))
    broken = catalog_index(entries)["s3.1-ex1"]
    check = verify_entry(broken, 50)
    assert not check.passed
    assert check.error_exponent is not None and check.error_exponent > -3


@pytest.mark.parametrize("digits", (30, 50))
def test_verify_entry_verdict_is_exact_at_the_bound(catalog_by_id, monkeypatch, digits):
    # |difference| must stay strictly below 10**-digits: the first multiple of
    # 2**-(4*digits + 50) at or above it fails, the one before it passes
    scale = 2 ** (4 * digits + 50)
    above = -(-scale // 10**digits)
    monkeypatch.setattr(catalog, "eval_const_expr", lambda expr, prec: BigFloat.zero(prec))
    for steps, passed in ((above, False), (above - 1, True)):
        monkeypatch.setattr(
            catalog, "sum_series",
            lambda spec, terms, prec, steps=steps: BigFloat.from_ratio(steps, scale, prec),
        )
        check = verify_entry(catalog_by_id["s3.1-ex1"], digits)
        assert check.passed is passed
        assert check.error_exponent == -digits


def test_match_samples(catalog_by_id):
    match = match_to_theorem(catalog_by_id["s3.1-ex1"])
    assert match.mode == "exact"
    assert match.scale == Fraction(32)
    match_b = match_to_theorem(catalog_by_id["s3.6-ex1"])
    assert match_b.tag == "B" and match_b.mode == "exact"


def test_match_modes_and_scales_are_pinned(catalog_entries):
    got = {
        entry.entry_id: (match.mode, str(match.scale))
        for entry in catalog_entries
        for match in [match_to_theorem(entry)]
    }
    assert got == EXPECTED_MATCHES


def assert_scaled_family_quotient(entry, scale, upper, lower) -> None:
    """The entry's lhs is ``scale`` times the gamma quotient with arguments
    ``upper`` over ``lower``, to 98 of 100 digits; a failure names the entry."""
    prec = engine.precision_for_digits(100)
    expected = gamma_quotient(upper, lower, prec).mul(BigFloat.from_fraction(scale, prec), prec)
    lhs = eval_const_expr(entry.lhs, prec)
    assert below_power_of_ten(lhs.sub(expected, prec), 98), (
        f"entry {entry.entry_id}: lhs is not {scale} times the gamma quotient"
    )


def test_closed_forms_are_the_scaled_family_quotients(catalog_entries):
    # the chain from paper to catalog, closed: each entry's lhs is its match
    # scale times its family's gamma quotient at its parameters, to 98 of 100
    # digits; 46 of the quotients take a gamma at a negative argument
    negative = 0
    for entry in catalog_entries:
        upper, lower = dougall.theorem_gamma_args(entry.params, entry.theorem)
        negative += any(x < 0 for x in (*upper, *lower))
        assert_scaled_family_quotient(entry, match_to_theorem(entry).scale, upper, lower)
    assert negative == 46


@pytest.mark.parametrize("entry_id", ["s3.1-ex1", "s3.3-ex1"])
@pytest.mark.parametrize("perturbation", ["scale", "gamma-argument"])
def test_closed_form_tie_fails_on_a_perturbed_side(catalog_by_id, entry_id, perturbation):
    # negative control: the scale off by one part in 10^90, or the first
    # upper gamma argument moved by 1/3, breaks the tie for that entry
    entry = catalog_by_id[entry_id]
    scale = match_to_theorem(entry).scale
    upper, lower = dougall.theorem_gamma_args(entry.params, entry.theorem)
    assert_scaled_family_quotient(entry, scale, upper, lower)
    if perturbation == "scale":
        scale *= 1 + Fraction(1, 10**90)
    else:
        upper = (upper[0] + Fraction(1, 3), *upper[1:])
    with pytest.raises(AssertionError, match=f"entry {entry_id}: lhs is not"):
        assert_scaled_family_quotient(entry, scale, upper, lower)


def test_match_head_rule_absorbs_folded_constant(catalog_by_id):
    # s3.7-ex9 sums from k = 0 with an additive constant: its terms are -16
    # times the family-B terms for k >= 1, and 16 plus its k = 0 term is -16
    # times the family's k = 0 term
    entry = catalog_by_id["s3.7-ex9"]
    assert entry.spec.start == 0 and entry.spec.additive == 16
    match = match_to_theorem(entry)
    assert (match.mode, match.scale) == ("exact", Fraction(-16))


@pytest.mark.parametrize(
    "entry_id,field,value",
    [
        ("s3.7-ex9", "additive", "17"),
        ("s3.1-ex1", "additive", "1"),
        ("s3.2-ex4", "start", 0),
    ],
    ids=["folded-constant-off-by-one", "constant-added", "start-moved-to-zero"],
)
def test_match_head_rule_rejects_wrong_head(raw_doc, tmp_path, entry_id, field, value):
    # the terms for k >= 1 still match; only the head equation can fail
    entry = copy.deepcopy(next(e for e in raw_doc["entries"] if e["id"] == entry_id))
    entry[field] = value
    broken = load_catalog(write_doc(tmp_path, {"version": 1, "entries": [entry]}))[0]
    with pytest.raises(NoMatch, match="below k=1"):
        match_to_theorem(broken)


def test_match_rejects_corrupted_terms(catalog_by_id, raw_doc, tmp_path):
    doc = copy.deepcopy(raw_doc)
    target = next(e for e in doc["entries"] if e["id"] == "s3.2-ex1")
    target["poly"][1] = "65"
    entries = load_catalog(write_doc(tmp_path, doc, "corrupt-match.json"))
    broken = catalog_index(entries)["s3.2-ex1"]
    with pytest.raises(NoMatch):
        match_to_theorem(broken)


def test_match_rejects_wrong_theorem_tag(catalog_by_id, raw_doc, tmp_path):
    # flip the tag on a plain entry: its terms are no rational multiple of
    # the other family's, so the termwise rule fails
    doc = copy.deepcopy(raw_doc)
    target = next(e for e in doc["entries"] if e["id"] == "s3.6-ex1")
    assert target["theorem"] == "B"
    target["theorem"] = "A"
    entries = load_catalog(write_doc(tmp_path, doc, "wrong-tag.json"))
    broken = catalog_index(entries)["s3.6-ex1"]
    with pytest.raises(NoMatch):
        match_to_theorem(broken)


def _with_spec(entry, **fields):
    return entry._replace(spec=entry.spec._replace(**fields))


def test_match_negative_controls_keep_their_messages(catalog_by_id):
    # the first failing index and the message, as the Fraction-based
    # matcher reported them
    ex1, ex9, p2 = catalog_by_id["s3.1-ex1"], catalog_by_id["s3.7-ex9"], catalog_by_id["s3.2-ex1"]
    cases = [
        # perturbed poly: term k = 2 is off the scale of k = 1
        (_with_spec(p2, poly=(p2.spec.poly[0], Fraction(65), *p2.spec.poly[2:])),
         "entry s3.2-ex1: term at k=2 is not 988/123 times the family A term"),
        # perturbed geometric scale: base 17 multiplies term k by (16/17)**k
        (_with_spec(ex1, base=17),
         "entry s3.1-ex1: term at k=2 is not 512/17 times the family A term"),
        # perturbed overall scale: the terms match at -32, the folded head does not
        (_with_spec(ex9, poly=tuple(2 * c for c in ex9.spec.poly)),
         "entry s3.7-ex9: additive constant and terms below k=1 are not -32 "
         "times the family B terms below it"),
        # perturbed additive
        (_with_spec(ex9, additive=Fraction(17)),
         "entry s3.7-ex9: additive constant and terms below k=1 are not -16 "
         "times the family B terms below it"),
    ]
    for entry, message in cases:
        with pytest.raises(NoMatch) as raised:
            match_to_theorem(entry)
        assert str(raised.value) == message


@pytest.mark.parametrize("generator", ["theorem_term", "term_eval"])
def test_match_is_guarded_by_the_definitional_terms(catalog_by_id, monkeypatch, generator):
    # family_scale checks the last term of each running list against its
    # definition, so a perturbed definitional value stops the match and the
    # normaliser alike
    entry = catalog_by_id["s3.1-ex1"]
    exact = getattr(dougall, generator)
    monkeypatch.setattr(dougall, generator, lambda *args: exact(*args) * Fraction(10**30 + 1, 10**30))
    with pytest.raises(InvariantViolation, match=f"differs from {generator}"):
        match_to_theorem(entry)
    with pytest.raises(InvariantViolation, match=f"differs from {generator}"):
        dougall.normalize_theorem_series(entry.params, entry.theorem)
