"""One workload in one fresh process; started by ``run.py``.

Usage: ``python3 worker.py --workload NAME --seed N [--trace PATH]
[--setup-only]`` with ``src`` on ``PYTHONPATH``.  When the
workload checks against pi, the reference arrives on stdin as JSON
``{"bits": F, "pi": "<hex of pi * 2**F>"}``.  The last stdout line is a
JSON object with the measurements; a wrong output exits with status 3.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import sys
import time
from collections import Counter

import sizes


def run_workload(args, entries, ref: int, ref_bits: int, tracer=None) -> dict:
    """Run one pass of ops: fixed work drawn from the seed.

    ``run_s`` and the op latencies cover the calls into hyperpi only, never
    the checks.
    """
    import workloads as w

    rng = random.Random(args.seed)
    if args.workload == "catalog":
        ops = w.catalog_pass(rng, entries)
    elif args.workload == "pi-decimal":
        ops = w.pi_pass(rng, entries, ref, ref_bits)
    elif args.workload == "hex-spigot":
        ops = w.hex_pass(rng, ref, ref_bits)
    else:
        ops = w.identity_pass(rng, w.derive_candidates(entries))

    latencies: list[float] = []
    failures: Counter = Counter()
    digits = 0
    reports: dict[str, str] = {}
    clock = time.perf_counter
    for op in ops:
        if tracer is not None:
            tracer.op_id = len(latencies)
        failed = None
        t = clock()
        try:
            op.call(op.out)
        except Exception as exc:  # a failed op is counted, not fatal
            failed = getattr(exc, "kind", type(exc).__name__)
        latencies.append(clock() - t)
        produced = op.check(op.out)  # raises WrongResult on a wrong output
        if failed is None:
            digits += produced
        else:
            failures[failed] += 1
        if args.workload == "catalog":
            reports[op.label] = op.out.get("stdout", "")
        op.out.clear()

    result = {
        "run_s": sum(latencies),
        "op_p50_s": statistics.median(latencies),
        "attempted": len(latencies),
        "failed": sum(failures.values()),
        "failure_kinds": dict(failures),
        "digits_produced": digits,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if len(latencies) >= 100:  # ten samples or more beyond the 90th percentile
        result["op_p90_s"] = statistics.quantiles(latencies, n=10, method="inclusive")[8]
    if args.workload == "catalog":
        result["catalog_report_sha256"] = w.catalog_digest(reports, entries)
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sizes.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", default=None, help="write spans here, report per-layer stats")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    # Set-up as a user pays it in a fresh process: import hyperpi, load the
    # catalog.  Nothing of hyperpi may be imported before this point.
    t0 = time.perf_counter()
    import hyperpi.cli  # noqa: F401  (imports every layer)
    from hyperpi.catalog import load_catalog

    entries = load_catalog()
    setup_s = time.perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import workloads as w
    from spans import Tracer, install

    ref, ref_bits = 0, sizes.reference_bits(args.workload)
    if ref_bits:
        given = json.loads(sys.stdin.read())
        if given["bits"] != ref_bits:
            parser.error(f"reference has {given['bits']} bits, need {ref_bits}")
        ref = int(given["pi"], 16)

    tracer = None
    if args.trace:
        tracer = Tracer()
        install(tracer)
    try:
        result = run_workload(args, entries, ref, ref_bits, tracer)
    except w.WrongResult as exc:
        print(f"WRONG RESULT ({args.workload}, seed {args.seed}): {exc}", file=sys.stderr)
        return 3
    result["setup_s"] = setup_s
    if tracer is not None:
        result["layers"] = tracer.summary()
        tracer.write(args.trace)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
