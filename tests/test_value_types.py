"""The package's value types: immutable NamedTuples (and two NamedTuple
subclasses that cache derived integers) with the tuple's own equality and
hash, and an import that generates no code at run time."""

import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import hyperpi
from hyperpi.bigfloat import BigFloat
from hyperpi.catalog import CatalogEntry, EntryCheck, TheoremMatch
from hyperpi.constexpr import (
    GammaLeaf,
    Monomial,
    PiLeaf,
    PowerNode,
    ProductNode,
    RationalLeaf,
    SqrtNode,
    SumNode,
)
from hyperpi.dougall import IdentityCheck, WellPoisedParams
from hyperpi.engine import BbpEquivalence
from hyperpi.factorials import SeriesSpec
from hyperpi.inversion import InversionScheme
from hyperpi.prng import SplitMix64
from oracles import same_tree

_CHILDREN = (RationalLeaf(F(2)), PiLeaf())
_PARAMS = WellPoisedParams.make(F(1, 2), F(1, 3), F(1, 4), F(1, 6))
_SPEC = SeriesSpec((F(1, 2),), (F(1),), (F(1),), 16)

# (value, a value of another type with the same fields, or None)
CASES = [
    (BigFloat(3, -1, 8), None),
    (RationalLeaf(F(1, 3)), GammaLeaf(F(1, 3))),
    (GammaLeaf(F(1, 3)), RationalLeaf(F(1, 3))),
    (PiLeaf(), None),
    (SqrtNode(PiLeaf()), None),
    (SumNode(_CHILDREN), ProductNode(_CHILDREN)),
    (ProductNode(_CHILDREN), SumNode(_CHILDREN)),
    (PowerNode(PiLeaf(), -2), None),
    (Monomial(-2, (), ProductNode(_CHILDREN), F(2)), None),
    (_PARAMS, None),
    (IdentityCheck((1, 2), (2, 4)), None),
    (InversionScheme((F(1), F(2)), (F(1, 3), F(0)), F(1, 2)), None),
    (_SPEC, None),
    (CatalogEntry("x", "pi", "A", _PARAMS, _SPEC, PiLeaf(), None), None),
    (EntryCheck("x", 100, 90, 400, True, None), None),
    (TheoremMatch("x", "A", "exact", F(2)), None),
    (BbpEquivalence("pi", F(1), (F(4), F(0)), F(0), F(1)), None),
]


@pytest.mark.parametrize("value, twin", CASES, ids=[type(v).__name__ for v, _ in CASES])
def test_value_types_are_immutable_true_and_typed(value, twin):
    assert value or not value._fields  # PiLeaf(), a tuple with no fields, is false
    copy = type(value)(*value)
    assert copy == value and not copy != value and hash(copy) == hash(value)
    assert repr(copy) == repr(value)
    # nodes compare and hash as the tuples of their fields; the tests tell
    # their types apart with oracles.same_tree
    if twin is not None:
        assert tuple(twin) == tuple(value) and twin == value
        assert not same_tree(twin, value) and same_tree(copy, value)
    for name in (*value._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)


def test_cached_integer_forms_follow_the_fields():
    moved = _PARAMS._replace(b=F(2, 5))
    assert _PARAMS.scaled == (12, 6, 4, 3, 2)
    assert moved.scaled == (60, 30, 24, 15, 10)
    assert WellPoisedParams.from_scaled((24, 12, 8, 6, 4)).scaled == _PARAMS.scaled
    scheme = InversionScheme((F(1, 2),), (F(1, 3),))
    assert scheme.phi_prefix(F(1)) == ([1, 5], [1, 6])
    assert scheme._replace(b_values=(F(1),)).phi_prefix(F(1)) == ([1, 3], [1, 2])


def test_splitmix64_is_a_mutable_generator():
    rng = SplitMix64(7)
    first = rng.next_u64()
    assert rng.state != 7
    rng.state = 7
    assert rng.next_u64() == first


def test_import_loads_no_code_generator():
    # dataclasses brings inspect, ast, dis and tokenize with it, and so does
    # importlib.resources from Python 3.12 on.
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import hyperpi.cli\n"
        "from hyperpi.catalog import load_catalog\n"
        "load_catalog()\n"
        "generators = {'dataclasses', 'inspect', 'ast', 'dis', 'tokenize'}\n"
        "print(sorted(generators & (set(sys.modules) - before)))\n"
    )
    src = str(Path(hyperpi.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
