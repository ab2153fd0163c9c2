"""Guard: every function in ``src/hyperpi`` runs under some command.

``test_no_test_only_code`` finds definitions that no package code names.
It cannot see a method reached only through an operator or a protocol
(``==``, ``<``, ``hash``, ``bool``, ``repr``).  This guard runs a fixed
corpus of ``hyperpi.cli.main`` calls in a fresh interpreter under
``sys.setprofile``, installed before ``hyperpi`` is imported, so import-time
calls count and no cache warmed by another test hides a function.  Every
named ``def`` in ``src/hyperpi/*.py`` (module functions, methods, nested
defs; not comprehensions or lambdas) must be entered, or be in ``ALLOWED``
with its reason.

The subprocess needs nothing but the package: ``reach(corpus(dir), dir,
python=...)`` runs the same check under another interpreter.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from test_cli import BAD_COUNTS

SRC = Path(__file__).resolve().parents[1] / "src"

# Never entered by the corpus, one reason each.
ALLOWED = {
    "bigfloat.BigFloat._unordered": "the no-order guard: <, <=, > and >= on BigFloats raise",
    "dougall.IdentityCheck.lhs": "failure path: a counterexample's reported sum",
    "dougall.IdentityCheck.rhs": "failure path: a counterexample's reported closed form",
    "dougall.WellPoisedParams.__setattr__": "immutability guard",
    "inversion.InversionScheme.__setattr__": "immutability guard",
    "splitting._left_part": "forked child (in-process on a one-CPU host)",
    "splitting._run_in_child": "forked child",
    "splitting._terminated": "signal handler (SIGTERM while children run)",
}

# Runs in a fresh interpreter: the corpus (JSON on stdin) under the
# profiler, then every named def of the package's sources, compiled here.
_SCRIPT = r"""
import contextlib, io, json, os, sys

entered = set()


def profile(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)


sys.setprofile(profile)
import hyperpi.cli

codes = []
for argv in json.load(sys.stdin):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes.append(hyperpi.cli.main(argv))
sys.setprofile(None)

package = os.path.dirname(os.path.abspath(hyperpi.cli.__file__))
ran = {(code.co_filename, code.co_firstlineno, code.co_name) for code in entered}


def named_defs(code, prefix):
    # functions have CO_OPTIMIZED (0x1), class bodies do not
    for const in code.co_consts:
        if type(const) is type(code) and not const.co_name.startswith("<"):
            qual = prefix + const.co_name
            if const.co_flags & 0x1:
                yield qual, (const.co_filename, const.co_firstlineno, const.co_name)
            yield from named_defs(const, qual + ".")


defined = {}
for name in sorted(os.listdir(package)):
    if name.endswith(".py"):
        path = os.path.join(package, name)
        with open(path, encoding="utf-8") as handle:
            module = compile(handle.read(), path, "exec")
        defined.update(named_defs(module, name[:-3] + "."))
never = [qual for qual, key in defined.items() if key not in ran]
print(json.dumps({"codes": codes, "defined": sorted(defined), "never": never}))
"""


def corpus(tmp_path: Path) -> list[tuple[list[str], int]]:
    """(argv, exit code) of every call: each subcommand on good input, the
    usage errors of ``BAD_COUNTS``, and a float and a NaN literal in a
    one-entry catalog."""
    good = [
        "verify dougall --trials 20 --nmax 8",
        "verify inversion --trials 3 --nmax 6",
        "verify chain --trials 3 --nmax 4",
        "verify catalog --digits 30",
        "derive --theorem A --params 1/2,1,1,1",  # a lower pole: the value 0 from the exact pair
        "derive --theorem B --params 3/2,3/2,1/2,3/2",  # its normal form divides polynomials
        "pi --entry s3.1-ex1 --digits 4000",  # above the splitting's cut
        "bbp --pos 30000 --count 8",  # above the spigot's fork threshold
        "rate --id s3.1-ex1",
    ]
    calls = [(argv.split(), 0) for argv in good]
    calls += [(list(argv), 1) for argv in BAD_COUNTS]
    calls += [([], 1), ("verify catalog --id nope".split(), 1)]
    raw = json.loads((SRC / "hyperpi" / "data" / "catalog.json").read_text())
    for field, value in (("base", 16.0), ("additive", float("nan"))):
        doc = dict(raw, entries=[dict(raw["entries"][0], **{field: value})])
        path = tmp_path / f"{field}.json"
        path.write_text(json.dumps(doc))
        calls.append((["verify", "catalog", "--catalog", str(path)], 2))
    return calls


def reach(calls: list[tuple[list[str], int]], cwd: Path, python: str = sys.executable) -> dict:
    """Run ``calls`` under ``python`` from ``cwd`` and assert each exit
    code: ``{"defined": [...], "never": [...]}``, the qualified names of the
    package's functions and of those no call entered."""
    done = subprocess.run(
        [python, "-c", _SCRIPT],
        input=json.dumps([argv for argv, _ in calls]),
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    wrong = [(argv, code, want) for (argv, want), code in zip(calls, result.pop("codes")) if code != want]
    assert not wrong, f"unexpected exit codes (argv, got, want): {wrong}"
    return result


@pytest.fixture(scope="module")
def reached(tmp_path_factory):
    cwd = tmp_path_factory.mktemp("reach")
    return reach(corpus(cwd), cwd)


def test_every_function_runs_under_some_command(reached):
    unlisted = sorted(set(reached["never"]) - set(ALLOWED))
    assert not unlisted, "never entered by any command:\n" + "\n".join(unlisted)


def test_allowlist_names_only_existing_functions(reached):
    # an allowed function that runs (a one-CPU host runs _left_part) passes;
    # one that is gone leaves the list
    assert sorted(set(ALLOWED) - set(reached["defined"])) == []
