"""Command line interface.

Subcommands
-----------

* ``verify dougall``   -- random exact trials of the terminating identity
* ``verify inversion`` -- random round-trips of the inverse-pair transforms
* ``verify chain``     -- parity form, dual expansion and their inverse-pair
  derivation, term for term, on random admissible parameters
* ``verify catalog``   -- every catalog entry against its closed form, its
  generator family, and (for digit-extraction entries) the classic templates
* ``derive``           -- instantiate a generator family at given parameters
* ``pi``               -- decimal digits of pi through a catalog entry
* ``bbp``              -- hexadecimal digits of pi at an arbitrary offset
* ``rate``             -- exact consecutive-term ratio of an entry

Exit codes: 0 success, 1 usage error (a count above its maximum among
them), 2 mathematical failure.  With ``--format json`` every command prints
a single deterministic JSON report: keys are sorted and nothing in it
depends on the clock, so identical inputs give identical bytes.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import lru_cache

from hyperpi import __version__
from hyperpi.bigfloat import below_power_of_ten
from hyperpi.catalog import (
    CatalogEntry,
    catalog_index,
    certify_entry,
    load_catalog,
)
from hyperpi.constexpr import format_rational
from hyperpi.dougall import (
    WellPoisedParams,
    normalize_theorem_series,
    random_finite_params,
    random_parity_params,
    theorem_closed_value,
    verify_chain,
    verify_dougall,
)
from hyperpi.engine import (
    bbp_hex_digits,
    compute_pi_via,
    convergence_rate,
    precision_for_digits,
    sum_series,
)
from hyperpi.errors import (
    HyperPiError,
    RangeError,
    UsageError,
)
from hyperpi.factorials import term_eval
from hyperpi.inversion import random_scheme, random_sequence, roundtrip_check
from hyperpi.prng import SplitMix64


class _Parser(argparse.ArgumentParser):
    """Argument parser that reports problems as :class:`UsageError`."""

    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def _count(option: str, minimum: int, maximum: int):
    """argparse ``type=`` for the integer count ``option`` from ``minimum``
    to ``maximum``.  Below it is a usage error and above it a
    :class:`RangeError`, both raised while parsing, before any work (exit 1)."""

    def integer(text: str) -> int:
        value = int(text)  # argparse reports a ValueError as "invalid integer value"
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        if value > maximum:
            raise RangeError(f"{option} must be at most {maximum}, got {value}")
        return value

    return integer


def _rat(value: Fraction) -> str:
    return format_rational(value)


def _params_str(params: WellPoisedParams) -> list[str]:
    return [_rat(v) for v in params.as_tuple()]


def _emit(args: argparse.Namespace, report: dict, human_lines: list[str]) -> None:
    if args.format == "json":
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        for line in human_lines:
            print(line)


def _report(command: str, parameters: dict, passed: bool, **extra) -> dict:
    report = {
        "tool": "hyperpi",
        "version": __version__,
        "command": command,
        "parameters": parameters,
        "passed": passed,
    }
    report.update(extra)
    return report


# ----------------------------------------------------------------------
# verify subcommands
# ----------------------------------------------------------------------


def _cmd_verify_dougall(args: argparse.Namespace) -> int:
    rng = SplitMix64(args.seed)
    counterexamples = []
    for _ in range(args.trials):
        params = random_finite_params(rng, args.nmax)
        degree = rng.randint(0, args.nmax)
        check = verify_dougall(params, degree)
        if not check.passed:
            counterexamples.append(
                {
                    "params": _params_str(params),
                    "n": degree,
                    "sum": _rat(check.lhs),
                    "closed_form": _rat(check.rhs),
                }
            )
    passed = not counterexamples
    report = _report(
        "verify-dougall",
        {"trials": args.trials, "nmax": args.nmax, "seed": args.seed},
        passed,
        counterexamples=counterexamples,
    )
    lines = [
        f"terminating identity: {args.trials} random trials, degrees 0..{args.nmax}, "
        f"seed {args.seed}"
    ]
    for ce in counterexamples:
        lines.append(
            f"  COUNTEREXAMPLE params={ce['params']} n={ce['n']} "
            f"sum={ce['sum']} closed={ce['closed_form']}"
        )
    lines.append("PASS" if passed else "FAIL")
    _emit(args, report, lines)
    return 0 if passed else 2


def _cmd_verify_inversion(args: argparse.Namespace) -> int:
    rng = SplitMix64(args.seed)
    failures = []
    for pair in ("plain", "extended"):
        for _ in range(args.trials):
            scheme = random_scheme(rng, args.nmax, extended=(pair == "extended"))
            sequence = random_sequence(rng, args.nmax)
            for message in roundtrip_check(scheme, sequence, args.nmax, pair):
                failures.append({"pair": pair, "detail": message})
    passed = not failures
    report = _report(
        "verify-inversion",
        {"trials": args.trials, "nmax": args.nmax, "seed": args.seed},
        passed,
        counterexamples=failures,
    )
    lines = [
        f"inverse pairs plain, extended: {args.trials} random schemes each, "
        f"n <= {args.nmax}, seed {args.seed}"
    ]
    lines.extend(f"  COUNTEREXAMPLE [{f['pair']}] {f['detail']}" for f in failures)
    lines.append("PASS" if passed else "FAIL")
    _emit(args, report, lines)
    return 0 if passed else 2


def _cmd_verify_chain(args: argparse.Namespace) -> int:
    rng = SplitMix64(args.seed)
    failures = []
    for _ in range(args.trials):
        params = random_parity_params(rng, args.nmax, for_chain=True)
        for message in verify_chain(params, args.nmax):
            failures.append({"params": _params_str(params), "detail": message})
    passed = not failures
    report = _report(
        "verify-chain",
        {"trials": args.trials, "nmax": args.nmax, "seed": args.seed},
        passed,
        counterexamples=failures,
    )
    lines = [
        f"parity/dual/inverse-pair chain: {args.trials} random parameter sets, "
        f"n <= {args.nmax}, seed {args.seed}"
    ]
    lines.extend(f"  COUNTEREXAMPLE {f}" for f in failures)
    lines.append("PASS" if passed else "FAIL")
    _emit(args, report, lines)
    return 0 if passed else 2


def _find_entry(entries: list[CatalogEntry], entry_id: str) -> CatalogEntry:
    index = catalog_index(entries)
    if entry_id not in index:
        raise UsageError(f"unknown catalog entry id {entry_id!r}")
    return index[entry_id]


def _cmd_verify_catalog(args: argparse.Namespace) -> int:
    entries = load_catalog(args.catalog)
    if args.id is not None:
        entries = [_find_entry(entries, args.id)]
    rows = [certify_entry(entry, args.digits) for entry in entries]
    failed = [row for row in rows if row["failure"] is not None]
    passed = not failed
    report = _report(
        "verify-catalog",
        {"id": args.id, "digits": args.digits, "catalog": args.catalog,
         "entries": len(rows)},
        passed,
        results=rows,
    )
    lines = [f"catalog: {len(rows)} entries at {args.digits} digits"]
    for row in rows:
        if row["failure"] is not None:
            lines.append(f"  FAIL {row['id']}: {row['failure']}")
        elif args.id is not None:
            bbp_note = f" bbp={row['bbp_family']}" if row["bbp_family"] else ""
            lines.append(
                f"  ok {row['id']} verified@{args.digits} "
                f"match={row['match_mode']} scale={row['scale']}{bbp_note}"
            )
    lines.append("PASS" if passed else "FAIL")
    _emit(args, report, lines)
    return 0 if passed else 2


# ----------------------------------------------------------------------
# derive / pi / bbp / rate
# ----------------------------------------------------------------------


def _parse_params(text: str) -> WellPoisedParams:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 4:
        raise UsageError(f"--params needs four comma-separated rationals, got {text!r}")
    try:
        return WellPoisedParams.make(*(Fraction(p) for p in parts))
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"invalid parameter list {text!r}: {exc}") from exc


def _cmd_derive(args: argparse.Namespace) -> int:
    params = _parse_params(args.params)
    spec = normalize_theorem_series(params, args.theorem)
    prec = precision_for_digits(args.digits)
    partial = sum_series(spec, args.terms, prec)
    closed = theorem_closed_value(params, args.theorem, prec)
    closed_text = closed.to_decimal_string(args.digits)
    difference = partial.sub(closed, prec)
    passed = below_power_of_ten(difference, args.digits)
    agreement = difference.abs().to_float() or None  # None: zero or below floats
    head = [
        {"k": k, "term": _rat(term_eval(spec, k))}
        for k in range(spec.start, min(spec.start + 8, spec.start + args.terms))
    ]
    report = _report(
        "derive",
        {"theorem": args.theorem, "params": _params_str(params),
         "terms": args.terms, "digits": args.digits},
        passed,
        series={
            "upper": [_rat(u) for u in spec.upper],
            "lower": [_rat(v) for v in spec.lower],
            "poly": [_rat(c) for c in spec.poly],
            "base": spec.base,
            "start": spec.start,
            "additive": _rat(spec.additive),
            "sign": spec.sign,
        },
        leading_terms=head,
        partial_sum=partial.to_decimal_string(args.digits),
        closed_form=closed_text,
        absolute_difference=agreement,
    )
    lines = [
        f"family {args.theorem} at parameters ({', '.join(_params_str(params))})",
        f"  upper    : {' '.join(_rat(u) for u in spec.upper)}",
        f"  lower    : {' '.join(_rat(v) for v in spec.lower)}",
        f"  poly     : {' '.join(_rat(c) for c in spec.poly)}",
        f"  base     : {spec.base}   start: {spec.start}   "
        f"additive: {_rat(spec.additive)}   sign: {spec.sign}",
    ]
    lines.extend(f"  term[{h['k']}] = {h['term']}" for h in head)
    lines.append(f"  partial sum ({args.terms} terms) = {report['partial_sum']}")
    lines.append(f"  closed form value         = {closed_text}")
    lines.append(f"  |difference| ~ {agreement if agreement is not None else 0}")
    if not passed:
        lines.append(f"FAIL: |partial sum - closed form| is not below 10^-{args.digits}")
    _emit(args, report, lines)
    return 0 if passed else 2


def _cmd_pi(args: argparse.Namespace) -> int:
    entry = _find_entry(load_catalog(args.catalog), args.entry)
    value = compute_pi_via(entry.spec, entry.lhs, args.digits)
    digits_text = value.to_decimal_string(args.digits)
    report = _report(
        "pi",
        {"entry": args.entry, "digits": args.digits, "catalog": args.catalog},
        True,
        pi=digits_text,
    )
    _emit(args, report, [digits_text])
    return 0


def _cmd_bbp(args: argparse.Namespace) -> int:
    digits = bbp_hex_digits(args.pos, args.count)
    report = _report(
        "bbp",
        {"pos": args.pos, "count": args.count},
        True,
        hex_digits=digits,
    )
    _emit(args, report, [digits])
    return 0


def _cmd_rate(args: argparse.Namespace) -> int:
    entry = _find_entry(load_catalog(args.catalog), args.id)
    if args.k < entry.spec.start:
        raise UsageError(
            f"--k must be at least the entry's start index {entry.spec.start}, "
            f"got {args.k}"
        )
    ratio = convergence_rate(entry.spec, args.k)
    target = Fraction(1, entry.spec.base)
    deviation = abs(ratio - target) / target
    report = _report(
        "rate",
        {"id": args.id, "k": args.k, "catalog": args.catalog},
        True,
        ratio=_rat(ratio),
        ratio_float=float(ratio),
        geometric_target=_rat(target),
        relative_deviation=float(deviation),
    )
    lines = [
        f"t({args.k + 1})/t({args.k}) = {_rat(ratio)} ~ {float(ratio):.10f}",
        f"geometric target 1/{entry.spec.base}; relative deviation "
        f"{float(deviation):.3e}",
    ]
    _emit(args, report, lines)
    return 0


# ----------------------------------------------------------------------
# parser wiring
# ----------------------------------------------------------------------


@lru_cache(maxsize=1)
def build_parser() -> _Parser:
    parser = _Parser(prog="hyperpi", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"hyperpi {__version__}")
    sub = parser.add_subparsers(dest="command")

    def common(p: _Parser) -> None:
        p.add_argument("--format", choices=("human", "json"), default="human")

    verify = sub.add_parser("verify", help="run exact/high-precision checks")
    vsub = verify.add_subparsers(dest="target")

    vd = vsub.add_parser("dougall", help="terminating identity, random trials")
    vd.add_argument("--trials", type=_count("--trials", 1, 1000), default=200)
    vd.add_argument("--nmax", type=_count("--nmax", 0, 1000), default=20)
    vd.add_argument("--seed", type=int, default=0)
    common(vd)
    vd.set_defaults(handler=_cmd_verify_dougall)

    vi = vsub.add_parser("inversion", help="inverse-pair round trips")
    vi.add_argument("--trials", type=_count("--trials", 1, 1000), default=50)
    vi.add_argument("--nmax", type=_count("--nmax", 0, 50), default=12)
    vi.add_argument("--seed", type=int, default=0)
    common(vi)
    vi.set_defaults(handler=_cmd_verify_inversion)

    vc = vsub.add_parser("chain", help="parity form, dual expansion, inverse-pair chain")
    vc.add_argument("--trials", type=_count("--trials", 1, 1000), default=10)
    vc.add_argument("--nmax", type=_count("--nmax", 0, 50), default=6)
    vc.add_argument("--seed", type=int, default=0)
    common(vc)
    vc.set_defaults(handler=_cmd_verify_chain)

    vcat = vsub.add_parser("catalog", help="catalog entries against closed forms")
    vcat.add_argument("--id", default=None)
    vcat.add_argument("--digits", type=_count("--digits", 1, 10_000), default=100)
    vcat.add_argument("--catalog", default=None, help="path to an alternative catalog")
    common(vcat)
    vcat.set_defaults(handler=_cmd_verify_catalog)

    derive = sub.add_parser("derive", help="instantiate a generator family")
    derive.add_argument("--theorem", choices=("A", "B"), required=True)
    derive.add_argument(
        "--params", required=True,
        help="a,b,c,d as rationals; a negative a is written --params=-1/4,1/2,1/2,1/2",
    )
    derive.add_argument("--terms", type=_count("--terms", 1, 10_000), default=60)
    derive.add_argument("--digits", type=_count("--digits", 1, 10_000), default=40)
    common(derive)
    derive.set_defaults(handler=_cmd_derive)

    pi_cmd = sub.add_parser("pi", help="decimal digits of pi via a catalog entry")
    pi_cmd.add_argument("--entry", required=True)
    pi_cmd.add_argument("--digits", type=_count("--digits", 1, 100_000), default=50)
    pi_cmd.add_argument("--catalog", default=None)
    common(pi_cmd)
    pi_cmd.set_defaults(handler=_cmd_pi)

    bbp = sub.add_parser("bbp", help="hexadecimal digits of pi at an offset")
    bbp.add_argument("--pos", type=_count("--pos", 0, 10_000_000), required=True)
    bbp.add_argument("--count", type=int, default=16)
    common(bbp)
    bbp.set_defaults(handler=_cmd_bbp)

    rate = sub.add_parser("rate", help="consecutive-term ratio of an entry")
    rate.add_argument("--id", required=True)
    rate.add_argument("--k", type=int, default=500)
    rate.add_argument("--catalog", default=None)
    common(rate)
    rate.set_defaults(handler=_cmd_rate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not hasattr(args, "handler"):
            raise UsageError("missing subcommand (try --help)")
        return args.handler(args)
    except (UsageError, RangeError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except HyperPiError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
