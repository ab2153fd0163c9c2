"""Closed-form constant expressions: parsing, classification, evaluation."""

from fractions import Fraction

import pytest

from hyperpi import constexpr
from hyperpi.bigfloat import BigFloat, pi_reference, pow_int, sqrt
from hyperpi.constexpr import (
    GammaLeaf,
    PiLeaf,
    PowerNode,
    ProductNode,
    RationalLeaf,
    SqrtNode,
    SumNode,
    eval_const_expr,
    format_rational,
    monomial,
    node_count,
    parse_const_expr,
    parse_rational_string,
)
from hyperpi.errors import SchemaError, UnsupportedLhs
from hyperpi.gammafn import gamma_rational
from oracles import agrees_to_bits, same_tree

INV_PI_SQ = {
    "op": "div",
    "args": [{"rat": "32"}, {"op": "mul", "args": [{"pi": 1}, {"pi": 1}]}],
}


@pytest.mark.parametrize(
    "wrap",
    [lambda node: {"sqrt": node}, lambda node: {"op": "mul", "args": [node, {"rat": "1"}]}],
    ids=["sqrt", "mul"],
)
def test_parse_caps_the_nesting_depth(wrap):
    # a tree at the cap parses and evaluates within the interpreter's stack
    node = {"rat": "2"}
    for _ in range(constexpr.MAX_DEPTH):
        node = wrap(node)
    assert eval_const_expr(parse_const_expr(node), 200).to_fraction() > 1
    with pytest.raises(SchemaError, match="nested deeper"):
        parse_const_expr(wrap(node))


def test_parse_rational_strings():
    assert parse_rational_string("3/2") == Fraction(3, 2)
    assert parse_rational_string("-7") == Fraction(-7)
    for bad in ("1.5", "", "x", 3, None, "1/0", ["1/2"]):
        with pytest.raises(SchemaError):
            parse_rational_string(bad)
    # each distinct string is parsed once; the Fraction is shared
    assert parse_rational_string("3/2") is parse_rational_string("3/2")


def test_format_rational():
    assert format_rational(Fraction(3, 2)) == "3/2"
    assert format_rational(Fraction(-1, 3)) == "-1/3"
    assert format_rational(Fraction(14, 2)) == "7"


def test_parse_builds_expected_trees():
    samples = [
        ({"rat": "-5/6"}, RationalLeaf(Fraction(-5, 6))),
        ({"pi": 1}, PiLeaf()),
        ({"pi": -2}, PowerNode(PiLeaf(), -2)),
        ({"gamma": "1/3", "exp": 1}, GammaLeaf(Fraction(1, 3))),
        ({"gamma": "1/3", "exp": 3}, PowerNode(GammaLeaf(Fraction(1, 3)), 3)),
        ({"sqrt": {"rat": "5"}}, SqrtNode(RationalLeaf(Fraction(5)))),
        # subtraction and division become sums and products of negated and
        # reciprocal terms on parse
        (
            {"op": "sub", "args": [{"rat": "1"}, {"pi": 1}]},
            SumNode((
                RationalLeaf(Fraction(1)),
                ProductNode((RationalLeaf(Fraction(-1)), PiLeaf())),
            )),
        ),
        (
            INV_PI_SQ,
            ProductNode((
                RationalLeaf(Fraction(32)),
                PowerNode(ProductNode((PiLeaf(), PiLeaf())), -1),
            )),
        ),
    ]
    for doc, tree in samples:
        assert same_tree(parse_const_expr(doc), tree), doc


def test_parse_rejects_malformed_nodes():
    bad_docs = [
        {},
        {"pi": "2"},
        {"pi": 1.0},
        {"gamma": "1/3"},
        {"rat": 3},
        {"op": "pow", "args": [{"rat": "2"}, {"rat": "3"}]},
        {"op": "add", "args": []},
        {"op": "div", "args": [{"rat": "1"}]},
        {"sqrt": []},
        ["rat", "1"],
    ]
    for doc in bad_docs:
        with pytest.raises(SchemaError):
            parse_const_expr(doc)


def test_eval_known_value():
    prec = 300
    value = eval_const_expr(parse_const_expr(INV_PI_SQ), prec)
    pi_val = pi_reference(prec)
    expected = BigFloat.from_int(32, prec).div(pi_val.mul(pi_val, prec), prec)
    assert agrees_to_bits(value, expected) > 290


def test_eval_sqrt_nesting():
    prec = 256
    doc = {
        "op": "mul",
        "args": [
            {"rat": "2"},
            {"sqrt": {"op": "add", "args": [{"rat": "7"}, {"sqrt": {"rat": "4"}}]}},
        ],
    }
    value = eval_const_expr(parse_const_expr(doc), prec)
    expected = BigFloat.from_int(2, prec).mul(
        sqrt(BigFloat.from_int(9, prec), prec), prec
    )
    assert agrees_to_bits(value, expected) > 250


def _eval_every_factor(expr, wp: int) -> BigFloat:
    """The closed-form walker without its exact-1 shortcuts: every product
    starts from 1 and multiplies by each factor, every power is pow_int."""
    if isinstance(expr, RationalLeaf):
        return BigFloat.from_fraction(expr.value, wp)
    if isinstance(expr, PiLeaf):
        return pi_reference(max(wp, 64))
    if isinstance(expr, GammaLeaf):
        return gamma_rational(expr.arg, wp)
    if isinstance(expr, SqrtNode):
        return sqrt(_eval_every_factor(expr.child, wp + 4), wp)
    if isinstance(expr, PowerNode):
        return pow_int(_eval_every_factor(expr.child, wp + 4), expr.exponent, wp)
    acc = BigFloat.from_int(0 if isinstance(expr, SumNode) else 1, wp)
    for child in expr.children:
        value = _eval_every_factor(child, wp + 4)
        acc = acc.add(value, wp) if isinstance(expr, SumNode) else acc.mul(value, wp)
    return acc


@pytest.mark.parametrize("wp", [100, 1000])
def test_exact_one_shortcuts_keep_every_bit(catalog_entries, wp):
    for entry in catalog_entries:
        for expr in (entry.lhs, monomial(entry.lhs).residue):
            fast, reference = constexpr._eval(expr, wp), _eval_every_factor(expr, wp)
            assert (fast.man, fast.exp, fast.prec) == (reference.man, reference.exp, reference.prec)


@pytest.mark.parametrize("doc", [INV_PI_SQ, {"op": "mul", "args": [{"rat": "32"}, {"pi": -2}]}])
def test_residue_of_a_pi_power_skips_its_exact_ones(monkeypatch, doc):
    # the residue of 32 pi^-2 is 32 * (1 * 1)^-1 or 32 * 1^-2: its value is
    # 32 rounded, with no reciprocal, power or product of an exact 1
    def forbidden(*args):
        raise AssertionError("an exact 1 was divided, multiplied or raised to a power")

    for owner, name in ((BigFloat, "div"), (BigFloat, "mul"), (constexpr, "pow_int")):
        monkeypatch.setattr(owner, name, forbidden)
    residue = monomial(parse_const_expr(doc)).residue
    assert eval_const_expr(residue, 3000) == BigFloat.from_int(32, 3000)


def test_pi_structure_exponents():
    cases = [
        (INV_PI_SQ, -2),
        ({"op": "mul", "args": [{"rat": "4"}, {"pi": 1}]}, 1),
        ({"op": "div", "args": [{"pi": 2}, {"rat": "6"}]}, 2),
        ({"op": "div", "args": [{"rat": "2"}, {"pi": 1}]}, -1),
    ]
    for doc, expected_exp in cases:
        expr = parse_const_expr(doc)
        form = monomial(expr)
        assert form.pi_exponent == expected_exp
        assert form.gammas == ()
        # the residue is a pure rational tree of the same size, so it
        # evaluates at the working precision the whole tree would get
        assert monomial(form.residue).pi_exponent == 0
        assert node_count(form.residue) == node_count(expr)


def test_pi_structure_keeps_algebraic_factor():
    doc = {"op": "mul", "args": [{"rat": "3/4"}, {"pi": 1}, {"sqrt": {"rat": "3"}}]}
    form = monomial(parse_const_expr(doc))
    assert form.pi_exponent == 1
    value = eval_const_expr(form.residue, 200).to_float()
    assert abs(value - 0.75 * 3**0.5) < 1e-12
    assert form.rational is None  # the residue holds a square root


def test_monomial_rational_residue():
    four_pi = parse_const_expr({"op": "mul", "args": [{"rat": "4"}, {"pi": 1}]})
    two_over_pi = parse_const_expr({"op": "div", "args": [{"rat": "2"}, {"pi": 1}]})
    assert monomial(four_pi).rational == 4
    assert monomial(two_over_pi).rational == 2
    assert monomial(parse_const_expr(INV_PI_SQ)).rational == 32
    assert monomial(parse_const_expr({"sqrt": {"rat": "4"}})).rational is None


def test_pi_structure_rejects_unreducible_shapes():
    bad_docs = [
        {"sqrt": {"pi": 1}},
        {"op": "add", "args": [{"pi": 1}, {"rat": "1"}]},
        {"sqrt": {"gamma": "2/3", "exp": -3}},
        {"op": "add", "args": [{"rat": "98/3"}, {"gamma": "2/3", "exp": -3}]},
        # a gamma factor of a product that is itself a term of a sum
        {"op": "sub", "args": [
            {"rat": "1"},
            {"op": "mul", "args": [{"rat": "2"}, {"gamma": "1/3", "exp": 1}]},
        ]},
    ]
    for doc in bad_docs:
        with pytest.raises(UnsupportedLhs):
            monomial(parse_const_expr(doc))
    # a gamma factor of the product is part of the monomial, not an error
    form = monomial(
        parse_const_expr({"op": "mul", "args": [{"pi": 1}, {"gamma": "1/3", "exp": 3}]})
    )
    assert (form.pi_exponent, form.gammas, form.rational) == (1, ((Fraction(1, 3), 3),), 1)


def test_gamma_leaves_collects_powers():
    doc = {
        "op": "div",
        "args": [
            {"op": "mul", "args": [{"pi": 2}, {"gamma": "2/3", "exp": -3}]},
            {"rat": "5"},
        ],
    }
    form = monomial(parse_const_expr(doc))
    assert form.gammas == ((Fraction(2, 3), -3),)
    assert (form.pi_exponent, form.rational) == (2, Fraction(1, 5))
    # repeated leaves merge into one factor per argument
    twice = {"op": "mul", "args": [{"gamma": "1/3", "exp": 1}, {"gamma": "1/3", "exp": 2}]}
    assert monomial(parse_const_expr(twice)).gammas == ((Fraction(1, 3), 3),)


def test_node_helpers():
    # 32 / pi^2 parses to mul(32, pow(mul(pi, pi), -1)): six nodes
    expr = parse_const_expr(INV_PI_SQ)
    assert node_count(expr) == 6
    assert isinstance(parse_const_expr({"rat": "1"}), RationalLeaf)
    assert isinstance(parse_const_expr({"pi": 1}), PiLeaf)
    gamma_cubed = parse_const_expr({"gamma": "1/3", "exp": 3})
    assert isinstance(gamma_cubed.child, GammaLeaf) and gamma_cubed.exponent == 3
    assert isinstance(parse_const_expr({"sqrt": {"rat": "2"}}), SqrtNode)
