"""Closed-form constant expressions: exact trees over pi, gamma values,
square roots and rationals, parsed from JSON and evaluated at arbitrary
precision.

Tree node kinds
---------------

* :class:`RationalLeaf` -- an exact rational.
* :class:`PiLeaf` -- the constant pi.
* :class:`GammaLeaf` -- Gamma(arg) for a positive rational argument.
* :class:`SqrtNode` -- square root of a subtree.
* :class:`SumNode` / :class:`ProductNode` -- n-ary sum / product.
* :class:`PowerNode` -- integer power of a subtree.

Nodes are plain NamedTuples, and the walkers below tell them apart by
``isinstance`` only.  Their ``==`` and hash are the tuples' own, so
``SumNode(c) == ProductNode(c)``, and ``PiLeaf()`` is false as an empty
tuple; no code here compares, hashes or truth-tests a node.

JSON schema
-----------

Leaves: ``{"rat": "p/q"}``, ``{"pi": e}`` (integer exponent e),
``{"gamma": "p/q", "exp": n}``, ``{"sqrt": <subtree>}``.
Operators: ``{"op": "add"|"sub"|"mul"|"div", "args": [<subtree>, ...]}``.
No floating-point numbers may appear anywhere.

Monomial form
-------------

Every supported closed form is one monomial, algebraic * pi**e *
prod Gamma(a)**g: pi and gamma leaves may appear only as factors of the
product, raised to integer powers, never inside a sum or a square root.
:func:`monomial` is the one walker that takes a tree apart in this shape.
It returns the pi exponent, the gamma factors as (argument, exponent)
pairs, the algebraic residue (the same tree with every pi and gamma leaf
replaced by the rational 1) and the residue's exact rational value, or
None when the residue holds a square root.  Catalog validation, solving
for pi and the digit-extraction equivalence all read the closed form
through it.

Evaluation error
----------------

``eval_const_expr(expr, prec)`` returns a value with relative error below
``2**(c - prec)`` where the per-node constants are: rational conversion and
multiplication/division/square root at most 1 ulp each, pi at most 1 ulp,
gamma at most 2 ulp.  Evaluation carries ``GUARD_BITS`` plus a
tree-size allowance of working precision, so for the shallow trees stored
in catalogs the overall constant satisfies ``c <= 10``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Union

from hyperpi.bigfloat import GUARD_BITS, BigFloat, pi_reference, pow_int, sqrt
from hyperpi.errors import DomainError, SchemaError, UnsupportedLhs
from hyperpi.gammafn import gamma_rational


class RationalLeaf(NamedTuple):
    value: Fraction


class PiLeaf(NamedTuple):
    pass


class GammaLeaf(NamedTuple):
    arg: Fraction


class SqrtNode(NamedTuple):
    child: "ConstExpr"


class SumNode(NamedTuple):
    children: tuple["ConstExpr", ...]


class ProductNode(NamedTuple):
    children: tuple["ConstExpr", ...]


class PowerNode(NamedTuple):
    child: "ConstExpr"
    exponent: int


ConstExpr = Union[RationalLeaf, PiLeaf, GammaLeaf, SqrtNode, SumNode, ProductNode, PowerNode]


# ----------------------------------------------------------------------
# parsing
# ----------------------------------------------------------------------


def parse_rational_string(text: object) -> Fraction:
    """Parse a strict ``"p"`` or ``"p/q"`` rational string."""
    if not isinstance(text, str):
        raise SchemaError(f"expected a rational string, got {text!r}")
    return _parse_rational(text)


@lru_cache(maxsize=None)
def _parse_rational(text: str) -> Fraction:
    """:func:`parse_rational_string` of a string, parsed once per distinct
    text: a catalog repeats a few dozen strings thousands of times, and a
    Fraction is immutable, so every caller may share it."""
    if "." in text or "e" in text.lower():  # before Fraction expands 1e10000000
        raise SchemaError(f"rational strings must be exact integers or p/q: {text!r}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"invalid rational string {text!r}") from exc


def format_rational(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def require_int(value: object, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{what} must be an integer, got {value!r}")
    return value


#: Deepest nesting of operator and square-root nodes the parser accepts
#: (catalog closed forms nest at most 6): the walkers below recurse once or
#: twice per level, so a deeper tree would exhaust the interpreter's stack.
MAX_DEPTH = 100
#: Most JSON objects in a closed form (catalog closed forms have at most
#: 11): every evaluation walks them all, and parsing stops at the next one.
MAX_NODES = 1000


def parse_const_expr(node: object) -> ConstExpr:
    """Parse the JSON form of a constant expression (strict; no floats) of
    at most :data:`MAX_DEPTH` levels and :data:`MAX_NODES` nodes."""
    return _parse_node(node, 0, [0])


def _parse_node(node: object, depth: int, seen: list[int]) -> ConstExpr:
    """:func:`parse_const_expr` of a node ``depth`` levels below the root,
    after ``seen[0]`` other nodes."""
    seen[0] += 1
    if seen[0] > MAX_NODES:
        raise SchemaError(f"expression has more than {MAX_NODES} nodes")
    if depth > MAX_DEPTH:
        raise SchemaError(f"expression nested deeper than {MAX_DEPTH} levels")
    if not isinstance(node, dict):
        raise SchemaError(f"expression node must be an object, got {node!r}")
    keys = set(node.keys())
    if keys == {"rat"}:
        return RationalLeaf(parse_rational_string(node["rat"]))
    if keys == {"pi"}:
        exponent = require_int(node["pi"], "pi exponent")
        base: ConstExpr = PiLeaf()
        return base if exponent == 1 else PowerNode(base, exponent)
    if keys == {"gamma", "exp"}:
        arg = parse_rational_string(node["gamma"])
        if arg <= 0:
            raise SchemaError(f"gamma leaf argument must be positive, got {arg}")
        exponent = require_int(node["exp"], "gamma exponent")
        leaf: ConstExpr = GammaLeaf(arg)
        return leaf if exponent == 1 else PowerNode(leaf, exponent)
    if keys == {"sqrt"}:
        return SqrtNode(_parse_node(node["sqrt"], depth + 1, seen))
    if keys == {"op", "args"}:
        op = node["op"]
        args = node["args"]
        if not isinstance(args, list) or len(args) < 2:
            raise SchemaError("operator node needs a list of at least two arguments")
        parsed = [_parse_node(a, depth + 1, seen) for a in args]
        if op == "add":
            return SumNode(tuple(parsed))
        if op == "sub":
            rest = [ProductNode((RationalLeaf(Fraction(-1)), p)) for p in parsed[1:]]
            return SumNode((parsed[0], *rest))
        if op == "mul":
            return ProductNode(tuple(parsed))
        if op == "div":
            rest = [PowerNode(p, -1) for p in parsed[1:]]
            return ProductNode((parsed[0], *rest))
        raise SchemaError(f"unknown operator {op!r}")
    raise SchemaError(f"unrecognized expression node with keys {sorted(keys)}")


# ----------------------------------------------------------------------
# structure queries
# ----------------------------------------------------------------------


def node_count(expr: ConstExpr) -> int:
    if isinstance(expr, (RationalLeaf, PiLeaf, GammaLeaf)):
        return 1
    if isinstance(expr, (SqrtNode, PowerNode)):
        return 1 + node_count(expr.child)
    if isinstance(expr, (SumNode, ProductNode)):
        return 1 + sum(node_count(c) for c in expr.children)
    raise SchemaError(f"unknown node {expr!r}")


class Monomial(NamedTuple):
    """A closed form as ``residue * pi**pi_exponent * prod Gamma(arg)**exp``."""

    pi_exponent: int
    gammas: tuple[tuple[Fraction, int], ...]  # (arg, exp) sorted by arg, exp != 0
    residue: ConstExpr  # the tree with every pi and gamma leaf replaced by 1
    rational: Fraction | None  # exact value of the residue; None under a sqrt


_ONE_LEAF = RationalLeaf(Fraction(1))


def monomial(expr: ConstExpr) -> Monomial:
    """Split ``expr`` into its pi power, its gamma factors and the algebraic
    residue, in one pass over the tree.

    The residue keeps the shape and node count of ``expr``.  Raises
    :class:`UnsupportedLhs` when pi or a gamma leaf sits inside a sum or a
    square root, where it is not a factor of the product.
    """
    pi_exponent = 0
    gammas: dict[Fraction, int] = {}

    def walk(node: ConstExpr, power: int, inside: str | None):
        """Residue of ``node`` and its exact value; ``power`` is the exponent
        the enclosing powers put on ``node``, ``inside`` the enclosing sum or
        square root, if any."""
        nonlocal pi_exponent
        if isinstance(node, RationalLeaf):
            return node, node.value
        if isinstance(node, (PiLeaf, GammaLeaf)):
            if inside is not None:
                what = "pi" if isinstance(node, PiLeaf) else f"Gamma({node.arg})"
                raise UnsupportedLhs(
                    f"{what} inside a {inside} is not a factor of the closed form"
                )
            if isinstance(node, PiLeaf):
                pi_exponent += power
            else:
                gammas[node.arg] = gammas.get(node.arg, 0) + power
            return _ONE_LEAF, _ONE_LEAF.value
        if isinstance(node, PowerNode):
            residue, value = walk(node.child, power * node.exponent, inside)
            if value is not None:
                value = value**node.exponent if value or node.exponent >= 0 else None
            return PowerNode(residue, node.exponent), value
        if isinstance(node, SqrtNode):
            residue, _ = walk(node.child, power, "square root")
            return SqrtNode(residue), None
        if isinstance(node, SumNode):
            parts = [walk(child, power, "sum") for child in node.children]
            values = [value for _, value in parts]
            known = not any(v is None for v in values)
            total = sum(values, Fraction(0)) if known else None
            return SumNode(tuple(residue for residue, _ in parts)), total
        if isinstance(node, ProductNode):
            parts = [walk(child, power, inside) for child in node.children]
            values = [value for _, value in parts]
            known = not any(v is None for v in values)
            product = math.prod(values, start=Fraction(1)) if known else None
            return ProductNode(tuple(residue for residue, _ in parts)), product
        raise SchemaError(f"unknown node {node!r}")

    residue, rational = walk(expr, 1, None)
    factors = tuple(sorted((arg, exp) for arg, exp in gammas.items() if exp != 0))
    return Monomial(pi_exponent, factors, residue, rational)


# ----------------------------------------------------------------------
# evaluation
# ----------------------------------------------------------------------


def eval_const_expr(expr: ConstExpr, prec: int) -> BigFloat:
    """Evaluate the tree at ``prec`` bits (see module docstring for error)."""
    wp = prec + GUARD_BITS + 2 * node_count(expr).bit_length() + 8
    return _eval(expr, wp).round_to(prec)


def _eval(expr: ConstExpr, wp: int) -> BigFloat:
    if isinstance(expr, RationalLeaf):
        return BigFloat.from_fraction(expr.value, wp)
    if isinstance(expr, PiLeaf):
        return pi_reference(max(wp, 64))
    if isinstance(expr, GammaLeaf):
        return gamma_rational(expr.arg, wp)
    if isinstance(expr, SqrtNode):
        inner = _eval(expr.child, wp + 4)
        if inner.man < 0:
            raise DomainError("square root of a negative value in a closed form")
        return sqrt(inner, wp)
    if isinstance(expr, PowerNode):
        base = _eval(expr.child, wp + 4)
        if _is_one(base):  # a residue's pi and gamma leaves are exact ones
            return BigFloat.from_int(1, wp)
        return pow_int(base, expr.exponent, wp)
    if isinstance(expr, SumNode):
        acc = BigFloat.zero(wp)
        for child in expr.children:
            acc = acc.add(_eval(child, wp + 4), wp)
        return acc
    if isinstance(expr, ProductNode):
        # Multiplying by an exact 1 only rounds, so the product starts from
        # its first factor other than 1, rounded to wp: the same bits.
        acc = None
        for child in expr.children:
            factor = _eval(child, wp + 4)
            if not _is_one(factor):
                acc = factor.round_to(wp) if acc is None else acc.mul(factor, wp)
        return acc if acc is not None else BigFloat.from_int(1, wp)
    raise SchemaError(f"unknown node {expr!r}")


def _is_one(value: BigFloat) -> bool:
    """True when ``value`` is exactly 1 (its normalized mantissa and
    exponent are unique)."""
    return value.man == 1 << (value.prec - 1) and value.exp == 1 - value.prec
