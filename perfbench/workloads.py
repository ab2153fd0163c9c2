"""The benchmark's workloads: seeded inputs, the calls into hyperpi, and the
checks on every output.

Each workload builds a *pass*, a fixed list of ops drawn from a
``random.Random`` seeded by the benchmark.  An op calls hyperpi's public
entry points and writes what they return into a dict; its check then judges
that dict against the catalog data or the independent pi reference.  An op
that raises, or exits nonzero without a report, is a failed op; an output
that comes back wrong, or a report of a mathematical failure, raises
:class:`WrongResult`, which aborts the run.

Why these workloads:

* ``catalog`` -- the certification path (``verify catalog`` once per entry,
  all 100 entries).  Almost all of its time is exact term generation in
  ``match_to_theorem``; it also runs about a hundred small binary-splitting
  sums.
* ``pi-decimal`` -- ``compute_pi_via`` then ``to_decimal_string``, the two
  calls ``hyperpi pi`` makes, at 10**4 digits: binary splitting, division
  and square roots on large operands, with almost no term generation.
* ``hex-spigot`` -- ``bbp_hex_digits`` at positions up to 10**5: modular
  exponentiation with no ``Fraction`` and no big integers, the control for
  every other layer.
* ``identity`` -- ``verify dougall/inversion/chain`` and ``derive``: the
  terminating-identity, parity/dual, inverse-pair and normaliser layers,
  which the other three workloads never reach.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass, field
from typing import Callable

from hyperpi import cli, engine
from hyperpi.constexpr import format_rational
from hyperpi.dougall import theorem_gamma_args

import pi_reference
from sizes import (
    CATALOG_DIGITS,
    DERIVE_DIGITS,
    DERIVE_OPS,
    DERIVE_TERMS,
    HEX_COUNT,
    HEX_MAX_POSITION,
    HEX_OPS,
    IDENTITY_VERIFY,
    PI_DIGITS,
    PI_STRATA,
)

_PI_EXPONENT = {"pi^-2": -2, "pi^-1": -1, "pi": 1, "BBP": 1, "pi^2": 2}


class WrongResult(Exception):
    """An op returned normally but its output is wrong."""


class ExitStatus(Exception):
    """A CLI op exited nonzero without a report to judge."""

    def __init__(self, rc: int, stderr: str) -> None:
        super().__init__(f"exit {rc}: {stderr}")
        self.kind = f"exit {rc}"


@dataclass
class Op:
    """One call into hyperpi; ``call`` fills ``out``, ``check`` judges it
    and returns the number of digits the op produced."""

    label: str
    call: Callable[[dict], None]
    check: Callable[[dict], int]
    out: dict = field(default_factory=dict)


# ----------------------------------------------------------------------
# in-process CLI calls
# ----------------------------------------------------------------------


def _cli_call(argv: list[str]) -> Callable[[dict], None]:
    """Run ``cli.main(argv)`` in process.

    The CLI exits 2 on a mathematical failure and 3 when its checks pass
    but the anomaly sidecar is nonempty; both print a report, which the
    op's check judges.  An exit without a report (a usage error, an
    exception turned into exit 2) is a failed op.
    """

    def call(out: dict) -> None:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = cli.main(argv)
        out["rc"], out["stdout"] = rc, stdout.getvalue()
        if rc != 0 and not out["stdout"].strip():
            del out["stdout"]
            raise ExitStatus(rc, stderr.getvalue().strip())

    return call


def _report(out: dict, command: str) -> dict:
    try:
        report = json.loads(out["stdout"])
    except (KeyError, ValueError) as exc:
        raise WrongResult(f"{command}: no JSON report ({exc})") from exc
    if out.get("rc") not in (0, 3) or not isinstance(report, dict):
        raise WrongResult(f"{command}: exit {out.get('rc')}: {out['stdout'][:200]}")
    if report.get("command") != command or report.get("passed") is not True:
        raise WrongResult(f"{command}: report does not pass: {out['stdout'][:200]}")
    return report


# ----------------------------------------------------------------------
# checks (pure functions of an op's output)
# ----------------------------------------------------------------------


def check_catalog(out: dict, entry_id: str, family_class: str) -> int:
    if "stdout" not in out:
        return 0
    report = _report(out, "verify-catalog")
    rows = report.get("results")
    if not isinstance(rows, list) or len(rows) != 1:
        raise WrongResult(f"{entry_id}: expected one result row, got {rows!r}")
    row = rows[0]
    if row.get("id") != entry_id or row.get("class") != family_class:
        raise WrongResult(f"{entry_id}: row is for {row.get('id')} ({row.get('class')})")
    if row.get("verified") is not True or row.get("failure") is not None:
        raise WrongResult(f"{entry_id}: not verified: {row}")
    if row.get("match_mode") not in ("exact", "numeric"):
        raise WrongResult(f"{entry_id}: match_mode {row.get('match_mode')!r}")
    bbp = row.get("bbp_family")
    if family_class == "BBP" and bbp not in ("pi", "two-pi"):
        raise WrongResult(f"{entry_id}: BBP entry without a bbp_family ({bbp!r})")
    if family_class != "BBP" and bbp is not None:
        raise WrongResult(f"{entry_id}: bbp_family {bbp!r} on a {family_class} entry")
    return CATALOG_DIGITS


def _parse_digits(text: str) -> int:
    # int(str) refuses more than 4300 digits on Python >= 3.11; the limit
    # stays on, so long strings are read in short chunks.
    value = 0
    for i in range(0, len(text), 4000):
        chunk = text[i:i + 4000]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


def check_pi(out: dict, digits: int, ref: int, ref_bits: int) -> int:
    value = out.get("value")
    if value is None:
        return 0
    if not pi_reference.within_decimal_digits(value.man, value.exp, ref, ref_bits, digits):
        raise WrongResult(f"pi value is not within 10^-{digits} of the reference")
    text = out.get("text")
    if text is None:
        return 0
    head, _, tail = text.partition(".")
    if head != "3" or len(tail) != digits or not tail.isdigit():
        raise WrongResult(f"pi text has the wrong shape: {text[:40]}...")
    scaled = _parse_digits(head + tail)
    if abs((scaled << ref_bits) - ref * 10**digits) >= 1 << ref_bits:
        raise WrongResult(f"pi text is not within 10^-{digits} of the reference")
    return digits


def check_hex(out: dict, position: int, ref: int, ref_bits: int) -> int:
    if "digits" not in out:
        return 0
    expected = pi_reference.hex_digits(ref, ref_bits, position, HEX_COUNT)
    if out["digits"] != expected:
        raise WrongResult(f"hex digits at {position}: got {out['digits']!r}, want {expected}")
    return HEX_COUNT


def check_identity(out: dict, command: str) -> int:
    if "stdout" not in out:
        return 0
    report = _report(out, command)
    if command != "derive":
        return 0
    if report.get("closed_form") is None:
        raise WrongResult("derive: closed form was not evaluated")
    diff = report.get("absolute_difference")
    if diff is not None and not diff < 10.0**-DERIVE_DIGITS:
        raise WrongResult(f"derive: |partial sum - closed form| = {diff}")
    return DERIVE_DIGITS


# ----------------------------------------------------------------------
# passes
# ----------------------------------------------------------------------


def catalog_pass(rng: random.Random, entries) -> list[Op]:
    order = list(entries)
    rng.shuffle(order)
    ops = []
    for e in order:
        argv = ["verify", "catalog", "--id", e.entry_id, "--digits", str(CATALOG_DIGITS),
                "--format", "json"]
        ops.append(Op(e.entry_id, _cli_call(argv),
                      lambda out, i=e.entry_id, c=e.family_class: check_catalog(out, i, c)))
    return ops


def _pi_call(entry, digits: int) -> Callable[[dict], None]:
    def call(out: dict) -> None:
        out["value"] = engine.compute_pi_via(entry.spec, entry.lhs, digits)
        out["text"] = out["value"].to_decimal_string(digits)

    return call


def pi_pass(rng: random.Random, entries, ref: int, ref_bits: int) -> list[Op]:
    # Stratified: for each pi-exponent, one entry from each of PI_STRATA runs
    # of consecutive catalog entries.  Neighbouring entries cost about the
    # same, so a pass costs about the same whatever the seed.
    chosen = []
    for exponent in (-2, -1, 1, 2):
        group = [e for e in entries if _PI_EXPONENT.get(e.family_class) == exponent]
        for s in range(PI_STRATA):
            lo = s * len(group) // PI_STRATA
            hi = (s + 1) * len(group) // PI_STRATA
            chosen.append(group[rng.randrange(lo, hi)])
    rng.shuffle(chosen)
    return [
        Op(e.entry_id, _pi_call(e, PI_DIGITS),
           lambda out: check_pi(out, PI_DIGITS, ref, ref_bits))
        for e in chosen
    ]


def hex_pass(rng: random.Random, ref: int, ref_bits: int) -> list[Op]:
    width = HEX_MAX_POSITION // HEX_OPS
    positions = [i * width + rng.randrange(width) for i in range(HEX_OPS)]
    rng.shuffle(positions)

    def op(p: int) -> Op:
        def call(out: dict) -> None:
            out["digits"] = engine.bbp_hex_digits(p, HEX_COUNT)

        return Op(f"pos {p}", call, lambda out: check_hex(out, p, ref, ref_bits))

    return [op(p) for p in positions]


def derive_candidates(entries) -> list:
    """Entries whose family closed form hyperpi can evaluate (every gamma
    argument positive), so that ``derive`` has a value to agree with."""
    out = []
    for e in entries:
        upper, lower = theorem_gamma_args(e.params, e.theorem)
        if all(x > 0 for x in upper + lower):
            out.append(e)
    return out


def identity_pass(rng: random.Random, candidates) -> list[Op]:
    ops = []
    for kind, (count, argv) in IDENTITY_VERIFY.items():
        for _ in range(count):
            seed = str(rng.getrandbits(32))
            ops.append(Op(f"{kind} seed {seed}",
                          _cli_call(argv + ["--seed", seed, "--format", "json"]),
                          lambda out, c=f"verify-{kind}": check_identity(out, c)))
    for e in rng.sample(candidates, DERIVE_OPS):
        params = ",".join(format_rational(x) for x in e.params.as_tuple())
        argv = ["derive", "--theorem", e.theorem, f"--params={params}",
                "--terms", str(DERIVE_TERMS), "--digits", str(DERIVE_DIGITS),
                "--format", "json"]
        ops.append(Op(f"derive {e.entry_id}", _cli_call(argv),
                      lambda out: check_identity(out, "derive")))
    rng.shuffle(ops)
    return ops


def catalog_digest(reports: dict[str, str], entries) -> str:
    """sha256 of the catalog reports concatenated in catalog order."""
    h = hashlib.sha256()
    for e in entries:
        h.update(reports.get(e.entry_id, "").encode())
    return h.hexdigest()
