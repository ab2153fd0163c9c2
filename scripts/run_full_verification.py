#!/usr/bin/env python3
"""Run every verification stage end to end and print a one-line summary each.

Stages: random trials of the terminating identity, inverse-pair round trips,
the parity/dual/inverse-pair derivation chain, full catalog certification
(closed-form value, generator-family match, digit-extraction templates), and
hexadecimal digits of pi from the spigot against an independent reference.
"""

import argparse
import sys
import time
from dataclasses import dataclass, fields

from hyperpi.bigfloat import pi_reference
from hyperpi.catalog import certify_entry, load_catalog
from hyperpi.dougall import (
    random_finite_params,
    random_parity_params,
    verify_chain,
    verify_dougall,
)
from hyperpi.engine import bbp_hex_digits
from hyperpi.inversion import random_scheme, random_sequence, roundtrip_check
from hyperpi.prng import SplitMix64

SPIGOT_POSITIONS = (0, 1000, 20000)
SPIGOT_COUNT = 16


@dataclass
class VerificationConfig:
    seed: int = 0
    dougall_trials: int = 200
    dougall_nmax: int = 20
    inversion_trials: int = 50
    inversion_nmax: int = 12
    chain_trials: int = 10
    chain_nmax: int = 6
    catalog_digits: int = 100


def stage(name: str, ok: bool, elapsed: float, detail: str = "") -> bool:
    extra = f"  {detail}" if detail else ""
    print(f"{'ok  ' if ok else 'FAIL'} {name:<38} {elapsed:7.2f}s{extra}")
    return ok


def run(config: VerificationConfig) -> int:
    all_ok = True

    started = time.perf_counter()
    rng = SplitMix64(config.seed)
    bad = 0
    for _ in range(config.dougall_trials):
        params = random_finite_params(rng, config.dougall_nmax)
        for n in range(config.dougall_nmax + 1):
            bad += not verify_dougall(params, n).passed
    all_ok &= stage(
        "terminating identity", bad == 0, time.perf_counter() - started,
        f"{config.dougall_trials} sets x n<= {config.dougall_nmax}",
    )

    started = time.perf_counter()
    bad = 0
    for pair in ("plain", "extended"):
        for _ in range(config.inversion_trials):
            scheme = random_scheme(rng, config.inversion_nmax, extended=(pair == "extended"))
            seq = random_sequence(rng, config.inversion_nmax)
            bad += len(roundtrip_check(scheme, seq, config.inversion_nmax, pair))
    all_ok &= stage(
        "inverse-pair round trips", bad == 0, time.perf_counter() - started,
        f"{config.inversion_trials} schemes per pair",
    )

    started = time.perf_counter()
    bad = 0
    for _ in range(config.chain_trials):
        params = random_parity_params(rng, config.chain_nmax, for_chain=True)
        bad += len(verify_chain(params, config.chain_nmax))
    all_ok &= stage(
        "parity/dual/derivation chain", bad == 0, time.perf_counter() - started,
        f"{config.chain_trials} sets",
    )

    started = time.perf_counter()
    entries = load_catalog()
    rows = [certify_entry(entry, config.catalog_digits) for entry in entries]
    failures = [f"{row['id']}: {row['failure']}" for row in rows if row["failure"] is not None]
    all_ok &= stage(
        "catalog certification", not failures, time.perf_counter() - started,
        f"{len(entries)} entries at {config.catalog_digits} digits",
    )
    if failures:
        print("   failures:", "; ".join(failures[:10]))

    started = time.perf_counter()
    reference = pi_reference(4 * (max(SPIGOT_POSITIONS) + SPIGOT_COUNT) + 256)
    wrong = [
        p for p in SPIGOT_POSITIONS
        if bbp_hex_digits(p, SPIGOT_COUNT) != reference.hex_fraction_digits(p, SPIGOT_COUNT)
    ]
    all_ok &= stage(
        "hex-digit spigot", not wrong, time.perf_counter() - started,
        f"positions {', '.join(map(str, SPIGOT_POSITIONS))} vs reference",
    )
    if wrong:
        print("   wrong digits at positions:", ", ".join(map(str, wrong)))

    print("all stages passed" if all_ok else "SOME STAGES FAILED")
    return 0 if all_ok else 2


def parse_config(argv) -> VerificationConfig:
    parser = argparse.ArgumentParser(description=__doc__)
    defaults = VerificationConfig()
    for field in fields(VerificationConfig):
        parser.add_argument(
            f"--{field.name.replace('_', '-')}",
            type=int,
            default=getattr(defaults, field.name),
        )
    args = parser.parse_args(argv)
    return VerificationConfig(
        **{f.name: getattr(args, f.name) for f in fields(VerificationConfig)}
    )


if __name__ == "__main__":
    sys.exit(run(parse_config(sys.argv[1:])))
