"""An oracle that shares no code with hyperpi: mpmath sums every catalog
series and evaluates every closed form from the raw JSON, and hyperpi's own
series sums and closed forms must agree with both at 130 digits."""

import json
from fractions import Fraction
from pathlib import Path

import pytest

import hyperpi
from hyperpi.constexpr import eval_const_expr
from hyperpi.engine import sum_series

mpmath = pytest.importorskip("mpmath")

DIGITS = 130
CATALOG = Path(hyperpi.__file__).resolve().parent / "data" / "catalog.json"


def _mp(text: str):
    value = Fraction(text)
    return mpmath.mpf(value.numerator) / value.denominator


def _closed_form(node):
    """An lhs tree of the catalog JSON, straight from its schema."""
    if "rat" in node:
        return _mp(node["rat"])
    if "pi" in node:
        return mpmath.pi ** node["pi"]
    if "gamma" in node:
        return mpmath.gamma(_mp(node["gamma"])) ** node["exp"]
    if "sqrt" in node:
        return mpmath.sqrt(_closed_form(node["sqrt"]))
    op = node["op"]
    first, *rest = (_closed_form(arg) for arg in node["args"])
    for value in rest:
        if op == "add":
            first += value
        elif op == "sub":
            first -= value
        elif op == "mul":
            first *= value
        else:
            assert op == "div", op
            first /= value
    return first


def _series(raw, terms: int):
    """additive + sign * sum_{start <= k < start + terms} of the entry's term."""
    upper = [_mp(u) for u in raw["upper"]]
    lower = [_mp(low) for low in raw["lower"]]
    poly = [_mp(c) for c in raw["poly"]]
    ratio = mpmath.mpf(1)  # prod (u)_k / prod (l)_k / base**k
    total = mpmath.mpf(0)
    for k in range(raw["start"] + terms):
        if k >= raw["start"]:
            total += ratio * mpmath.polyval(poly[::-1], k)
        ratio *= mpmath.fprod(u + k for u in upper) / mpmath.fprod(low + k for low in lower)
        ratio /= raw["base"]
    return _mp(raw["additive"]) + raw["sign"] * total


def test_catalog_agrees_with_an_independent_mpmath_evaluation(catalog_by_id):
    raw_entries = json.loads(CATALOG.read_text())["entries"]
    assert len(raw_entries) == 100
    terms = 140  # 16**-140 is below 10**-168, far past the digits compared
    prec = 460  # bits, above 130 digits
    tolerance = mpmath.mpf(10) ** -DIGITS
    with mpmath.workdps(DIGITS + 20):
        for raw in raw_entries:
            closed = _closed_form(raw["lhs"])
            series = _series(raw, terms)
            assert abs(series - closed) <= tolerance * abs(closed), raw["id"]
            entry = catalog_by_id[raw["id"]]
            for value in (sum_series(entry.spec, terms, prec), eval_const_expr(entry.lhs, prec)):
                ours = mpmath.ldexp(value.man, value.exp)
                assert abs(ours - closed) <= tolerance * abs(closed), raw["id"]
