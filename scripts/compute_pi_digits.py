#!/usr/bin/env python3
"""Compute decimal digits of pi through a catalog series, cross-check them
and print two timings: the computation (``compute_pi_via``) and the
reference check.

The chosen entry's series is summed by binary splitting, exact below the
working precision plus 64 guard bits and truncated with a proven error bound
above it.  One division rounds the whole interval that bound gives when all
of it rounds alike; otherwise the exact integer pair is split and rounded
instead.  Either way the sum is the exact partial sum correctly rounded.
The closed form is solved for pi, and the digits are cross-checked against
the independent arctangent reference (exit 2 on a mismatch; ``--no-check``
skips it).
"""

import argparse
import sys
import time
from dataclasses import dataclass

from hyperpi.bigfloat import pi_reference
from hyperpi.catalog import catalog_index, load_catalog
from hyperpi.engine import compute_pi_via, precision_for_digits, terms_for_digits


@dataclass
class PiRunConfig:
    entry_id: str = "s3.1-ex1"
    digits: int = 1000
    check: bool = True


def run(config: PiRunConfig) -> int:
    index = catalog_index(load_catalog())
    if config.entry_id not in index:
        print(f"unknown entry {config.entry_id!r}", file=sys.stderr)
        return 1
    entry = index[config.entry_id]
    terms = terms_for_digits(config.digits, entry.spec.base)
    print(
        f"entry {entry.entry_id} (class {entry.family_class}, family "
        f"{entry.theorem}); {terms} terms for {config.digits} digits"
    )
    started = time.perf_counter()
    value = compute_pi_via(entry.spec, entry.lhs, config.digits)
    elapsed = time.perf_counter() - started
    text = value.to_decimal_string(config.digits)
    print(f"computed in {elapsed:.3f}s ({config.digits / max(elapsed, 1e-9):,.0f} digits/s)")
    if config.check:
        started = time.perf_counter()
        reference = pi_reference(precision_for_digits(config.digits)).to_decimal_string(
            config.digits
        )
        agree = sum(1 for a, b in zip(text, reference) if a == b) == len(text)
        print(
            f"reference check in {time.perf_counter() - started:.3f}s: "
            f"{'all digits agree' if agree else 'MISMATCH'}"
        )
        if not agree:
            return 2
    for offset in range(0, min(len(text), 202), 100):
        print(f"  {text[offset:offset + 100]}")
    if len(text) > 202:
        print(f"  ... ({len(text) - 202} more characters)")
    return 0


def parse_config(argv) -> PiRunConfig:
    parser = argparse.ArgumentParser(description=__doc__)
    defaults = PiRunConfig()
    parser.add_argument("--entry-id", default=defaults.entry_id)
    parser.add_argument("--digits", type=int, default=defaults.digits)
    parser.add_argument("--no-check", action="store_true")
    args = parser.parse_args(argv)
    return PiRunConfig(entry_id=args.entry_id, digits=args.digits, check=not args.no_check)


if __name__ == "__main__":
    sys.exit(run(parse_config(sys.argv[1:])))
