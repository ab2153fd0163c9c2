#!/usr/bin/env python3
"""Tabulate convergence behavior of representative catalog entries.

For one entry per class: the exact consecutive-term ratio at increasing
indices (approaching 1/16), and the certified error exponent at increasing
digit targets.
"""

import argparse
import sys
from dataclasses import dataclass
from fractions import Fraction

from hyperpi.catalog import catalog_index, load_catalog, verify_entry
from hyperpi.engine import convergence_rate, terms_for_digits


@dataclass
class TableConfig:
    entry_ids: tuple = (
        "s3.1-ex1", "s3.2-ex1", "s3.3-ex1", "s3.4-ex1",
        "s3.5-ex1", "s3.6-ex1", "s3.7-ex1",
    )
    ratio_indices: tuple = (10, 50, 200, 500)
    digit_targets: tuple = (25, 50, 100)


def run(config: TableConfig) -> int:
    index = catalog_index(load_catalog())
    target = Fraction(1, 16)
    print("consecutive-term ratio deviation from 1/16 (relative):")
    header = "".join(f"  k={k:<8}" for k in config.ratio_indices)
    print(f"{'entry':<12} class          family{header}")
    for eid in config.entry_ids:
        entry = index[eid]
        cells = []
        for k in config.ratio_indices:
            ratio = convergence_rate(entry.spec, max(k, entry.spec.start + 1))
            cells.append(f"{float(abs(ratio - target) / target):10.2e}")
        print(
            f"{eid:<12} {entry.family_class:<14} {entry.theorem:<6}" + "".join(cells)
        )
    print()
    print("certification at increasing digit targets (error exponent 10^e;")
    print("<ulp: series and closed form rounded alike at working precision):")
    print(f"{'entry':<12}" + "".join(f"  D={d:<12}" for d in config.digit_targets))
    for eid in config.entry_ids:
        entry = index[eid]
        cells = []
        for digits in config.digit_targets:
            check = verify_entry(entry, digits)
            exponent = "<ulp" if check.error_exponent is None else str(check.error_exponent)
            flag = "" if check.passed else "!"
            terms = terms_for_digits(digits, entry.spec.base)
            cells.append(f"  {exponent:>7}/{terms}t{flag}")
        print(f"{eid:<12}" + "".join(cells))
    return 0


def parse_config(argv) -> TableConfig:
    parser = argparse.ArgumentParser(description=__doc__)
    defaults = TableConfig()
    parser.add_argument(
        "--entry-ids", default=",".join(defaults.entry_ids),
        help="comma-separated catalog entry ids",
    )
    parser.add_argument(
        "--digit-targets", default=",".join(str(d) for d in defaults.digit_targets)
    )
    args = parser.parse_args(argv)
    return TableConfig(
        entry_ids=tuple(args.entry_ids.split(",")),
        digit_targets=tuple(int(d) for d in args.digit_targets.split(",")),
    )


if __name__ == "__main__":
    sys.exit(run(parse_config(sys.argv[1:])))
