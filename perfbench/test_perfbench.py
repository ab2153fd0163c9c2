"""The benchmark's own tests: its reference, its output checks, and that a
wrong output or a bad environment ends a run with a nonzero status.

Run from the repository root: ``python -m pytest perfbench``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import pi_reference  # noqa: E402
import workloads as w  # noqa: E402
from hyperpi.bigfloat import BigFloat  # noqa: E402

BITS = 2000


@pytest.fixture(scope="module")
def ref():
    return pi_reference.pi_fixed(BITS)


def test_reference_agrees_with_known_digits_and_mpmath(ref):
    assert pi_reference.hex_digits(ref, BITS, 0, 16) == "243F6A8885A308D3"
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workprec(BITS + 64):
        expected = int(mpmath.floor(mpmath.pi * mpmath.mpf(2) ** BITS))
    assert abs(ref - expected) <= 2


def _catalog_out(**row_changes) -> dict:
    row = {"id": "s3.7-ex1", "class": "BBP", "theorem": "A", "verified": True,
           "error_exponent": None, "match_mode": "exact", "scale": "1",
           "bbp_family": "pi", "failure": None}
    row.update(row_changes)
    report = {"command": "verify-catalog", "passed": True, "results": [row]}
    return {"rc": 0, "stdout": json.dumps(report)}


def test_catalog_check_rejects_corrupted_rows():
    assert w.check_catalog(_catalog_out(), "s3.7-ex1", "BBP") == w.CATALOG_DIGITS
    for bad in ({"bbp_family": None}, {"verified": False}, {"match_mode": None},
                {"id": "s3.7-ex2"}):
        with pytest.raises(w.WrongResult):
            w.check_catalog(_catalog_out(**bad), "s3.7-ex1", "BBP")
    with pytest.raises(w.WrongResult):
        w.check_catalog(_catalog_out(), "s3.7-ex1", "pi")  # bbp_family on a non-BBP row


def test_pi_and_hex_checks_reject_corrupted_values(ref):
    digits = 500
    good = BigFloat.from_fixed(ref, BITS, 1800)
    assert w.check_pi({"value": good}, digits, ref, BITS) == 0  # no text: nothing produced
    text = "3." + "".join(str(d) for d in _decimal_digits(ref, digits))
    assert w.check_pi({"value": good, "text": text}, digits, ref, BITS) == digits
    off = BigFloat.normalize(good.man + (1 << 200), good.exp, good.prec)
    with pytest.raises(w.WrongResult):
        w.check_pi({"value": off}, digits, ref, BITS)
    wrong_last = text[:-1] + str((int(text[-1]) + 5) % 10)
    with pytest.raises(w.WrongResult):
        w.check_pi({"value": good, "text": wrong_last}, digits, ref, BITS)
    assert w.check_hex({"digits": "243F6A8885A308D3"}, 0, ref, BITS) == 16
    with pytest.raises(w.WrongResult):
        w.check_hex({"digits": "243F6A8885A308D4"}, 0, ref, BITS)


def _decimal_digits(ref: int, count: int) -> list[int]:
    frac = ref & ((1 << BITS) - 1)
    out = []
    for _ in range(count):
        frac *= 10
        out.append(frac >> BITS)
        frac &= (1 << BITS) - 1
    return out


def test_identity_check_rejects_failed_reports_and_large_differences():
    ok = {"command": "derive", "passed": True, "closed_form": "1.0",
          "absolute_difference": 1e-60}
    assert w.check_identity({"rc": 0, "stdout": json.dumps(ok)}, "derive") == w.DERIVE_DIGITS
    for bad in ({"absolute_difference": 1e-40}, {"closed_form": None}, {"passed": False}):
        with pytest.raises(w.WrongResult):
            w.check_identity({"rc": 0, "stdout": json.dumps({**ok, **bad})}, "derive")
    with pytest.raises(w.WrongResult):  # exit 2 is a mathematical failure, whatever the report
        w.check_identity({"rc": 2, "stdout": json.dumps(ok)}, "derive")


def test_tracer_times_only_the_outermost_product_sum():
    script = (
        "import json, spans\n"
        "from fractions import Fraction\n"
        "from hyperpi import engine\n"
        "from hyperpi.factorials import SeriesSpec\n"
        "t = spans.Tracer(); spans.install(t)\n"
        "spec = SeriesSpec(upper=(Fraction(1, 2),), lower=(Fraction(1),),"
        " poly=(Fraction(1),), base=16, start=0, additive=Fraction(0), sign=1)\n"
        "engine.sum_series(spec, 64, 200)\n"
        "print(json.dumps(t.summary()))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([HERE, os.path.join(ROOT, "src")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=60, check=True)
    stats = json.loads(proc.stdout)
    assert stats["splitting.product_sum.calls"] == 1
    assert stats["splitting.product_sum.terms"] == 64
    assert stats["engine.sum_series.calls"] == 1
    assert stats["bigfloat.from_fraction.calls"] == 1
    assert 0 <= stats["engine.sum_series.self_s"] <= stats["engine.sum_series.total_s"]


def _copy_checkout(dest, with_src: bool = True) -> None:
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), dest)
    shutil.copytree(HERE, os.path.join(dest, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__", "results", ".pytest_cache"))
    if with_src:
        shutil.copytree(os.path.join(ROOT, "src"), os.path.join(dest, "src"),
                        ignore=shutil.ignore_patterns("__pycache__"))


def _run(cwd, workload: str = "hex-spigot", env=None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=cwd, capture_output=True, text=True, timeout=170, env=env,
    )


def _corrupt(root, relpath: str, *replacements: tuple[str, str]) -> None:
    path = root / relpath
    source = path.read_text()
    for correct, wrong in replacements:
        assert correct in source
        source = source.replace(correct, wrong)
    path.write_text(source)


def _assert_rejected(proc: subprocess.CompletedProcess) -> None:
    assert proc.returncode != 0
    assert "WRONG RESULT" in proc.stderr
    assert '"correct"' not in proc.stdout


def test_wrong_hex_digits_fail_the_run(tmp_path):
    _copy_checkout(tmp_path)
    _corrupt(tmp_path, "src/hyperpi/engine.py",
             ('return format(value >> guard_bits, f"0{count}X")',
              'return format((value >> guard_bits) ^ 1, f"0{count}X")'))
    _assert_rejected(_run(tmp_path))


def test_unverified_catalog_entry_fails_the_run(tmp_path):
    # The CLI reports the entry as unverified and exits 2; that is a wrong
    # result, not a failed op.
    _copy_checkout(tmp_path)
    _corrupt(tmp_path, "src/hyperpi/catalog.py",
             ("    if difference.is_zero():\n        return EntryCheck",
              "    if False:\n        return EntryCheck"),
             ("passed = difference.abs() < threshold", "passed = False"))
    _assert_rejected(_run(tmp_path, "catalog"))


def test_failed_identity_fails_the_run(tmp_path):
    _copy_checkout(tmp_path)
    _corrupt(tmp_path, "src/hyperpi/dougall.py",
             ("return IdentityCheck(wellpoised_sum(params, n), ",
              "return IdentityCheck(wellpoised_sum(params, n) + 1, "))
    _assert_rejected(_run(tmp_path, "identity"))


def test_refuses_to_run_outside_a_checkout(tmp_path):
    _copy_checkout(tmp_path, with_src=False)
    proc = _run(tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_refuses_to_run_with_guard_bits_override(tmp_path):
    _copy_checkout(tmp_path)
    proc = _run(tmp_path, env=dict(os.environ, HYPERPI_GUARD_BITS="40"))
    assert proc.returncode != 0
    assert "HYPERPI_GUARD_BITS" in proc.stderr
