"""Guard: every definition in ``src/hyperpi`` has a caller outside the tests.

A module-level function or class, or a non-dunder method, whose name occurs
as a Python NAME token nowhere in the non-test code except inside its own
definition is reached only by tests (or by nothing).  Such code belongs in
the tests or nowhere.  Docstrings and comments are STRING and COMMENT
tokens, so a name that is only mentioned there does not count as a use.

The check is by name, not by binding: a method shares its uses with every
other definition of the same name.  So a method whose bare name another
package class also defines could pass on the other's uses; each such
method is listed in ``SHARED`` with a caller that names its class, and
the list must hold exactly these methods.  (An attribute of a foreign
object, ``set.add`` for ``BigFloat.add``, still counts as a use.)
A method that an operator or a protocol reaches without naming it (``==``,
``<``, ``hash``, ``bool``, ``repr``) is left to ``test_reachability``.
"""

from __future__ import annotations

import ast
import io
import tokenize
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hyperpi"

# Kept with no caller outside the tests, one reason each.
ALLOWED: dict[str, str] = {}

# Methods whose bare name two or more package classes define, each with a
# caller that names its class.
SHARED = {
    "WellPoisedParams.scaled": "the dougall identity kernels and theorem_term_pairs (params.scaled)",
    "InversionScheme.scaled": "the inversion weight tables (scheme.scaled)",
}


def _non_test_sources() -> list[Path]:
    files = sorted(PACKAGE.rglob("*.py"))
    files += sorted(
        p for p in (ROOT / "perfbench").glob("*.py") if not p.name.startswith("test_")
    )
    return files


def _name_lines(path: Path) -> list[tuple[str, int]]:
    """(name, line) of every NAME token in the file."""
    tokens = tokenize.generate_tokens(io.StringIO(path.read_text()).readline)
    return [(tok.string, tok.start[0]) for tok in tokens if tok.type == tokenize.NAME]


def _definitions(path: Path):
    """(qualified name, bare name, first line, last line) of each checked
    definition: module-level functions and classes, non-dunder methods."""
    tree = ast.parse(path.read_text())
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, kinds):
            continue
        yield node.name, node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, kinds[:2]) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    qual = f"{node.name}.{item.name}"
                    yield qual, item.name, item.lineno, item.end_lineno


def _test_only_definitions() -> dict[str, str]:
    """Qualified name -> defining file of each definition with no use in
    the non-test code outside its own lines."""
    sources = {path: _name_lines(path) for path in _non_test_sources()}
    uses = Counter(name for names in sources.values() for name, _ in names)
    found = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        for qual, name, first, last in _definitions(path):
            inside = sum(1 for n, line in sources[path] if n == name and first <= line <= last)
            if uses[name] == inside:
                found[qual] = str(path.relative_to(ROOT))
    return found


def test_every_definition_has_a_non_test_caller():
    found = _test_only_definitions()
    listed = [f"{path}: {qual}" for qual, path in found.items() if qual not in ALLOWED]
    assert not listed, "defined in src/hyperpi but used only by tests:\n" + "\n".join(listed)


def test_allowlist_holds_only_test_only_definitions():
    # an allowed name that is gone, or that gained a caller, leaves the list
    assert sorted(set(ALLOWED) - set(_test_only_definitions())) == []


def _shared_methods(paths: list[Path]) -> list[str]:
    """Qualified names of the methods whose bare name two or more classes
    in ``paths`` define."""
    owners = defaultdict(list)
    for path in paths:
        for qual, name, _, _ in _definitions(path):
            if qual != name:
                owners[name].append(qual)
    return sorted(qual for quals in owners.values() if len(quals) > 1 for qual in quals)


def test_shared_method_names_are_listed():
    assert _shared_methods(sorted(PACKAGE.rglob("*.py"))) == sorted(SHARED)


def test_shared_method_names_are_found(tmp_path):
    # a test-only Unused.eval_at would pass by name on Used.eval_at's callers
    (tmp_path / "a.py").write_text("class Used:\n    def eval_at(self, k): ...\n")
    (tmp_path / "b.py").write_text(
        "class Unused:\n    def eval_at(self, k): ...\n    def add(self, x): ...\n"
        "def eval_at(k): ...\n"
    )
    paths = [tmp_path / "a.py", tmp_path / "b.py"]
    assert _shared_methods(paths) == ["Unused.eval_at", "Used.eval_at"]
