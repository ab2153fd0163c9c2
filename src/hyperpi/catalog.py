"""Catalog of base-16 series with closed forms: loading, strict schema
validation, high-precision verification, exact matching against the two
infinite-series generator families, and the per-entry verdict that
``verify catalog`` reports (:func:`certify_entry`).

File format
-----------

``catalog.json`` is ``{"version": 1, "entries": [entry, ...]}``.  Every
entry object has exactly these fields (plus an optional ``attribution``):

======================  ======================================================
``id``                  unique string key, e.g. ``"s3.1-ex1"``
``class``               one of the seven closed-form classes below
``theorem``             generator family tag, ``"A"`` or ``"B"``
``params``              four rational strings: the family parameters
``upper`` / ``lower``   rising-factorial parameters as rational strings
``poly``                weight polynomial, ascending coefficients, degree <= 3
``base``                integer geometric base (16 throughout)
``start``               first summation index, an integer in [0, 1000]
``additive``            rational string added to the sum
``sign``                +1 or -1
``lhs``                 closed-form constant expression (see ``constexpr``),
                        at most 100 levels deep and 1000 nodes
======================  ======================================================

Rational values are always strings ("p" or "p/q"); floating-point literals
anywhere in the file are rejected.  The closed-form classes are
``pi^-2 | pi^2 | pi^-1 | pi | BBP`` (pure pi powers over square-root
algebraics) and ``pi^2/Gamma^3 | Gamma^3/pi^2`` (exactly one cubed gamma
factor at argument 1/3 or 2/3).

A path that cannot be read raises :class:`~hyperpi.errors.UsageError`; a
file that is not UTF-8 JSON of this schema raises
:class:`~hyperpi.errors.SchemaError`.

Provenance
----------

:func:`match_to_theorem` proves each entry an exact rational multiple of
its stated generator family by the rule of
:func:`~hyperpi.dougall.family_scale`.
"""

from __future__ import annotations

import json
import math
import os
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, NamedTuple

from hyperpi.bigfloat import below_power_of_ten
from hyperpi.constexpr import (
    ConstExpr,
    Monomial,
    eval_const_expr,
    format_rational,
    monomial,
    parse_const_expr,
    parse_rational_string,
    require_int,
)
from hyperpi.dougall import WellPoisedParams, family_scale
from hyperpi.engine import (
    precision_for_digits,
    sum_series,
    terms_for_digits,
    verify_bbp_equivalence,
)
from hyperpi.errors import (
    HyperPiError,
    InvariantViolation,
    NoMatch,
    NoNonzeroTerm,
    SchemaError,
    UnsupportedLhs,
    UsageError,
)
from hyperpi.factorials import SeriesSpec

#: closed-form class -> (pi exponent, gamma exponent or None)
CLASS_SHAPES: dict[str, tuple[int, int | None]] = {
    "pi^-2": (-2, None),
    "pi^2": (2, None),
    "pi^-1": (-1, None),
    "pi": (1, None),
    "BBP": (1, None),
    "pi^2/Gamma^3": (2, -3),
    "Gamma^3/pi^2": (-2, 3),
}

_GAMMA_ARGS = (Fraction(1, 3), Fraction(2, 3))

#: Largest first summation index (catalog entries start at 0 or 1): a sum's
#: lead products over [0, start) are built before any other check.
MAX_START = 1000

_REQUIRED_FIELDS = (
    "id",
    "class",
    "theorem",
    "params",
    "upper",
    "lower",
    "poly",
    "base",
    "start",
    "additive",
    "sign",
    "lhs",
)


class CatalogEntry(NamedTuple):
    entry_id: str
    family_class: str
    theorem: str
    params: WellPoisedParams
    spec: SeriesSpec
    lhs: ConstExpr
    attribution: str | None


class EntryCheck(NamedTuple):
    """Outcome of verifying one entry against its closed form."""

    entry_id: str
    digits: int
    terms: int
    precision: int
    passed: bool
    error_exponent: int | None  # ~floor(log10 |difference|); None: both sides rounded alike


class TheoremMatch(NamedTuple):
    """Successful identification of an entry with a generator family."""

    entry_id: str
    tag: str
    mode: str  # always "exact": the match is a termwise proof
    scale: Fraction


# ----------------------------------------------------------------------
# loading
# ----------------------------------------------------------------------


def _reject_float(text: str) -> None:
    raise SchemaError(f"floating-point literal {text!r} is not allowed in catalogs")


def _reject_constant(text: str) -> None:
    raise SchemaError(f"non-finite literal {text!r} is not allowed in catalogs")


def _load_json(path: str | os.PathLike) -> object:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise UsageError(f"cannot read the catalog at {path!r}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise SchemaError(f"catalog at {path!r} is not UTF-8: {exc}") from exc
    try:
        return json.loads(
            text, parse_float=_reject_float, parse_constant=_reject_constant
        )
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON in the catalog: {exc}") from exc
    except RecursionError as exc:  # nested deeper than the decoder's stack allows
        raise SchemaError("JSON in the catalog is nested too deeply") from exc


def _rational_list(value: object, what: str, length: int | None = None) -> tuple[Fraction, ...]:
    if not isinstance(value, list) or not value:
        raise SchemaError(f"{what} must be a nonempty list of rational strings")
    if length is not None and len(value) != length:
        raise SchemaError(f"{what} must have exactly {length} values, got {len(value)}")
    return tuple(parse_rational_string(item) for item in value)


def _check_class_shape(entry_id: str, family_class: str, form: Monomial) -> None:
    pi_exp, gamma_exp = CLASS_SHAPES[family_class]
    if gamma_exp is None:
        if form.gammas:
            raise SchemaError(
                f"entry {entry_id}: class {family_class} must not contain gamma factors"
            )
    elif form.gammas not in [((arg, gamma_exp),) for arg in _GAMMA_ARGS]:
        found = " * ".join(f"Gamma({arg})^{exp}" for arg, exp in form.gammas) or "none"
        raise SchemaError(
            f"entry {entry_id}: class {family_class} needs one gamma factor at 1/3 or "
            f"2/3 with exponent {gamma_exp}, found {found}"
        )
    if form.pi_exponent != pi_exp:
        raise SchemaError(
            f"entry {entry_id}: class {family_class} needs pi exponent {pi_exp}, "
            f"closed form has {form.pi_exponent}"
        )


def _parse_entry(raw: object, seen_ids: set[str]) -> CatalogEntry:
    if not isinstance(raw, dict):
        raise SchemaError(f"catalog entry must be an object, got {raw!r}")
    keys = set(raw.keys())
    missing = [f for f in _REQUIRED_FIELDS if f not in keys]
    if missing:
        raise SchemaError(f"catalog entry missing fields {missing}")
    extra = keys - set(_REQUIRED_FIELDS) - {"attribution"}
    if extra:
        raise SchemaError(f"catalog entry has unknown fields {sorted(extra)}")
    entry_id = raw["id"]
    if not isinstance(entry_id, str) or not entry_id:
        raise SchemaError(f"entry id must be a nonempty string, got {entry_id!r}")
    if entry_id in seen_ids:
        raise SchemaError(f"duplicate entry id {entry_id!r}")
    family_class = raw["class"]
    if family_class not in CLASS_SHAPES:
        raise SchemaError(f"entry {entry_id}: unknown class {family_class!r}")
    tag = raw["theorem"]
    if tag not in ("A", "B"):
        raise SchemaError(f"entry {entry_id}: theorem tag must be 'A' or 'B', got {tag!r}")
    params_values = _rational_list(raw["params"], f"entry {entry_id} params", 4)
    poly = _rational_list(raw["poly"], f"entry {entry_id} poly")
    if len(poly) > 4:
        raise SchemaError(
            f"entry {entry_id}: weight polynomial degree must be at most 3, "
            f"got degree {len(poly) - 1}"
        )
    base = require_int(raw["base"], f"entry {entry_id} base")
    if base < 2:
        raise SchemaError(f"entry {entry_id}: base must be at least 2, got {base}")
    start = require_int(raw["start"], f"entry {entry_id} start")
    if not 0 <= start <= MAX_START:
        raise SchemaError(f"entry {entry_id}: start must be in [0, {MAX_START}], got {start}")
    sign = require_int(raw["sign"], f"entry {entry_id} sign")
    if sign not in (1, -1):
        raise SchemaError(f"entry {entry_id}: sign must be +1 or -1, got {sign}")
    attribution = raw.get("attribution")
    if attribution is not None and not isinstance(attribution, str):
        raise SchemaError(f"entry {entry_id}: attribution must be a string or null")
    spec = SeriesSpec(
        upper=_rational_list(raw["upper"], f"entry {entry_id} upper"),
        lower=_rational_list(raw["lower"], f"entry {entry_id} lower"),
        poly=poly,
        base=base,
        start=start,
        additive=parse_rational_string(raw["additive"]),
        sign=sign,
    )
    try:
        spec.validate()
    except InvariantViolation as exc:
        raise SchemaError(f"entry {entry_id}: invalid series: {exc}") from exc
    try:
        lhs = parse_const_expr(raw["lhs"])
        form = monomial(lhs)
    except (SchemaError, UnsupportedLhs) as exc:
        raise SchemaError(f"entry {entry_id}: {exc}") from exc
    _check_class_shape(entry_id, family_class, form)
    seen_ids.add(entry_id)
    return CatalogEntry(
        entry_id=entry_id,
        family_class=family_class,
        theorem=tag,
        params=WellPoisedParams.make(*params_values),
        spec=spec,
        lhs=lhs,
        attribution=attribution,
    )


def load_catalog(path: str | os.PathLike | None = None) -> list[CatalogEntry]:
    """Load and fully validate a catalog file (package default when ``path``
    is None, parsed once per process)."""
    if path is None:
        return list(_packaged_catalog())
    return _parse_catalog(_load_json(path))


@lru_cache(maxsize=None)
def _packaged_catalog() -> tuple[CatalogEntry, ...]:
    """The catalog shipped with the package, read and parsed once per process.

    The file is opened next to this module: ``importlib.resources`` would
    import ``inspect`` (and ``ast``, ``dis``, ``tokenize``) on Python 3.12+."""
    path = os.path.join(os.path.dirname(__file__), "data", "catalog.json")
    return tuple(_parse_catalog(_load_json(path)))


def _parse_catalog(data: object) -> list[CatalogEntry]:
    if not isinstance(data, dict) or set(data.keys()) != {"version", "entries"}:
        raise SchemaError("catalog must be an object with exactly 'version' and 'entries'")
    if data["version"] != 1:
        raise SchemaError(f"unsupported catalog version {data['version']!r}")
    if not isinstance(data["entries"], list):
        raise SchemaError("catalog 'entries' must be a list")
    seen: set[str] = set()
    return [_parse_entry(raw, seen) for raw in data["entries"]]


def catalog_index(entries: Iterable[CatalogEntry]) -> dict[str, CatalogEntry]:
    return {entry.entry_id: entry for entry in entries}


# ----------------------------------------------------------------------
# verification
# ----------------------------------------------------------------------


def verify_entry(entry: CatalogEntry, digits: int) -> EntryCheck:
    """Check ``|series - closed form| < 10**-digits`` at working precision."""
    terms = terms_for_digits(digits, entry.spec.base)
    prec = precision_for_digits(digits)
    series_value = sum_series(entry.spec, terms, prec)
    closed_value = eval_const_expr(entry.lhs, prec)
    difference = series_value.sub(closed_value, prec)
    passed = below_power_of_ten(difference, digits)
    if difference.is_zero():
        return EntryCheck(entry.entry_id, digits, terms, prec, passed, None)
    error_exponent = math.floor(difference.magnitude_exponent() * math.log10(2))
    return EntryCheck(entry.entry_id, digits, terms, prec, passed, error_exponent)


# ----------------------------------------------------------------------
# matching an entry to the generator families
# ----------------------------------------------------------------------

def match_to_theorem(entry: CatalogEntry) -> TheoremMatch:
    """Prove the entry an exact rational multiple of its stated family by
    :func:`~hyperpi.dougall.family_scale`, whose :class:`NoMatch` or
    :class:`NoNonzeroTerm` is raised again with the entry id in front."""
    try:
        scale = family_scale(entry.spec, entry.params, entry.theorem)
    except (NoMatch, NoNonzeroTerm) as exc:
        raise type(exc)(f"entry {entry.entry_id}: {exc}") from exc
    return TheoremMatch(entry.entry_id, entry.theorem, "exact", scale)


# ----------------------------------------------------------------------
# the per-entry verdict
# ----------------------------------------------------------------------


def certify_entry(entry: CatalogEntry, digits: int) -> dict:
    """One report row for an entry: its value to ``digits`` digits
    (:func:`verify_entry`), then its family (:func:`match_to_theorem`),
    then for a BBP entry its digit-extraction template
    (:func:`~hyperpi.engine.verify_bbp_equivalence`).  The first stage that
    fails, or raises a :class:`~hyperpi.errors.HyperPiError`, sets the
    row's ``failure`` and ends the row."""
    row = {
        "id": entry.entry_id,
        "class": entry.family_class,
        "theorem": entry.theorem,
        "verified": False,
        "error_exponent": None,
        "match_mode": None,
        "scale": None,
        "bbp_family": None,
        "failure": None,
    }
    try:
        check = verify_entry(entry, digits)
        row["verified"] = check.passed
        row["error_exponent"] = check.error_exponent
        if not check.passed:
            row["failure"] = (
                f"series differs from closed form near 10^{check.error_exponent}"
            )
            return row
        match = match_to_theorem(entry)
        row["match_mode"] = match.mode
        row["scale"] = format_rational(match.scale)
        if entry.family_class == "BBP":
            row["bbp_family"] = verify_bbp_equivalence(entry.spec, entry.lhs).family
    except HyperPiError as exc:
        row["failure"] = f"{type(exc).__name__}: {exc}"
    return row
