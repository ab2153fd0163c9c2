"""Workload sizes, shared by run.py (which builds the pi reference before
any hyperpi code is loaded) and the worker."""

from __future__ import annotations

import math

import pi_reference

WORKLOADS = ("catalog", "pi-decimal", "hex-spigot", "identity")
CATALOG_DIGITS = 100
PI_DIGITS = 10_000  # above the 4300-digit int/str conversion limit on purpose
PI_STRATA = 4  # entries per pi-exponent in one pass
HEX_MAX_POSITION = 100_000
HEX_COUNT = 16
HEX_OPS = 60  # one position per equal slice of [0, HEX_MAX_POSITION)
DERIVE_TERMS = 120
DERIVE_DIGITS = 50
DERIVE_OPS = 16
# verify target -> (ops per pass, CLI arguments before the per-op seed).
# dougall holds more than half of the identity pass's 100 ops, so that the
# pass's median latency falls inside one kind of op rather than on the edge
# between two kinds of different cost.
IDENTITY_VERIFY = {
    "dougall": (52, ["verify", "dougall", "--nmax", "20", "--trials", "120"]),
    "inversion": (16, ["verify", "inversion", "--nmax", "12", "--trials", "2"]),
    "chain": (16, ["verify", "chain", "--nmax", "6", "--trials", "3"]),
}


def reference_bits(workload: str) -> int:
    """Fraction bits of the pi reference a workload's checks need (0: none)."""
    if workload == "pi-decimal":
        return math.ceil(PI_DIGITS * math.log2(10)) + 2 * pi_reference.GUARD_BITS
    if workload == "hex-spigot":
        return 4 * (HEX_MAX_POSITION + HEX_COUNT) + 2 * pi_reference.GUARD_BITS
    return 0
