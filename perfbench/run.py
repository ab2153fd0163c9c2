"""hyperpi benchmark: one workload, one seed, one line of JSON results.

Run from the root of a checkout (no build step; hyperpi is imported from
``src``)::

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 25 --trace 0
    for w in catalog pi-decimal hex-spigot identity; do
        python3 perfbench/run.py --workload $w --seed 1 --seconds 25 --trace 0
    done

Workloads: catalog, pi-decimal, hex-spigot, identity (workloads.py says
what each exercises and why).  With ``--trace 0`` the result carries the
end-to-end metrics named in BENCHMARK.json: ``setup_s`` (median over fresh
processes that import hyperpi and load the catalog), ``run_s`` (time to
solution of one pass of seeded ops), ``op_p50_s`` and ``peak_rss_mib``;
``op_p90_s`` is printed where a run has at least 100 ops.  A pass is fixed
work sized to take about 15-25 s on a 2-CPU x86-64 host; ``--seconds`` is
accepted for the harness's interface and does not change the work.  With
``--trace 1`` the same pass runs twice in fresh processes, untraced and
traced; the result carries the per-layer metrics, from spans recorded
around calls into hyperpi, and the tracing overhead (traced ``run_s`` minus
untraced ``run_s``).  A traced run fails when a layer its workload must
reach records no call, or when ``catalog.match_to_theorem`` accounts for
less than half of the traced catalog pass.  Spans go to
``perfbench/results/``.

Every output is checked (see workloads.py).  A wrong output, including a
CLI report of a mathematical failure (exit 2), ends the run with a nonzero
status and no result line; ops that raise, or exit nonzero without a
report, are counted in ``failed``.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import pi_reference  # noqa: E402
import sizes  # noqa: E402

SETUP_PROBES = 8  # fresh set-up-only processes, half before and half after the run
WORKER_TIMEOUT_S = 170
# Layers each workload must reach; a traced run where one reads 0 calls has
# lost its wrappers (e.g. to a re-export) and cannot be trusted.
REQUIRED_LAYERS = {
    "catalog": ("cli.main", "catalog.verify_entry", "catalog.match_to_theorem",
                "dougall.theorem_term", "factorials.term_eval", "factorials.pochhammer",
                "splitting.product_sum", "engine.sum_series",
                "engine.verify_bbp_equivalence"),
    "pi-decimal": ("engine.compute_pi_via", "engine.sum_series", "splitting.product_sum",
                   "bigfloat.from_fraction", "bigfloat.to_decimal_string"),
    "hex-spigot": ("engine.bbp_hex_digits",),
    "identity": ("cli.main", "dougall.verify_dougall", "dougall.verify_parity_form",
                 "dougall.verify_dual_relation", "dougall.verify_chain",
                 "dougall.normalize_theorem_series", "inversion.roundtrip_check",
                 "gammafn.gamma_quotient"),
}
MATCH_SHARE_FLOOR = 0.5  # profiled at about 96% of the catalog pass


class BenchError(Exception):
    """The run cannot produce a trustworthy result; exit nonzero, print none."""


def _worker(args: list[str], env: dict, stdin: str = "") -> dict:
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), *args],
            input=stdin, capture_output=True, text=True, env=env,
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {' '.join(args)} timed out") from exc
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _metric(name: str, value: float, unit: str) -> str:
    return f"  {name:<40} {value!r:>24} {unit}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="hyperpi benchmark")
    parser.add_argument("--workload", required=True, choices=sizes.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if "HYPERPI_GUARD_BITS" in os.environ:
        raise BenchError("HYPERPI_GUARD_BITS is set; it silently changes the numerics")
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "hyperpi", "__init__.py")):
        raise BenchError("run from the root of a hyperpi checkout (no src/hyperpi)")
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    env = dict(os.environ, PYTHONPATH=src)

    meta = {
        "python": platform.python_version(),
        "int_backend": "gmpy2" if importlib.util.find_spec("gmpy2") else "int",
        "cpu_count": os.cpu_count(),
        "seed": args.seed,
    }
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("meta " + json.dumps(meta, sort_keys=True))

    # The reference is built here, before and outside every timed process.
    bits = sizes.reference_bits(args.workload)
    ref = json.dumps({"bits": bits, "pi": format(pi_reference.pi_fixed(bits), "x")}) if bits else ""
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    if args.trace:
        plain = _worker(common, env, ref)
        os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
        spans_path = os.path.join(HERE, "results", f"spans-{args.workload}-{args.seed}.jsonl.gz")
        traced = _worker(common + ["--trace", spans_path], env, ref)
        values = dict(traced["layers"])
        values["trace.overhead_s"] = traced["run_s"] - plain["run_s"]
        values["run.digits_produced"] = traced["digits_produced"]
        wanted, result = spec["per_layer"], traced
        print(f"spans: {spans_path}")
        print(f"untraced run_s {plain['run_s']!r} s, traced run_s {traced['run_s']!r} s")
        missing = [n for n in REQUIRED_LAYERS[args.workload] if not values.get(f"{n}.calls")]
        if missing:
            raise BenchError(f"traced {args.workload} pass recorded no call to {', '.join(missing)}")
        if args.workload == "catalog":
            share = values["catalog.match_to_theorem.total_s"] / traced["run_s"]
            print(f"catalog.match_to_theorem.total_s is {share:.1%} of traced run_s")
            if share < MATCH_SHARE_FLOOR:
                raise BenchError(f"catalog.match_to_theorem is only {share:.1%} of the traced "
                                 f"pass, below the {MATCH_SHARE_FLOOR:.0%} floor")
    else:
        # Probes on both sides of the run, so a slow spell of the host
        # during a second or two of probing cannot set the median alone.
        probe = common + ["--setup-only"]
        probes = [_worker(probe, env)["setup_s"] for _ in range(SETUP_PROBES // 2)]
        result = _worker(common, env, ref)
        probes += [_worker(probe, env)["setup_s"] for _ in range(SETUP_PROBES // 2)]
        values = dict(result)
        values["setup_s"] = statistics.median(probes + [result["setup_s"]])
        wanted = spec["end_to_end"]
        print(f"setup_s over {len(probes) + 1} fresh processes: "
              + " ".join(f"{s:.4f}" for s in sorted(probes + [result["setup_s"]])))

    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in wanted}
    for name, m in metrics.items():
        print(_metric(name, m["value"], m["unit"]))
    if "op_p90_s" in result and not args.trace:
        print(_metric("op_p90_s", result["op_p90_s"], "s") + f"  (of {result['attempted']} ops)")
    print(f"  ops_failed {result['failed']} / ops_attempted {result['attempted']}"
          + (f"  {json.dumps(result['failure_kinds'], sort_keys=True)}" if result["failed"] else ""))
    print(f"  digits produced {result['digits_produced']}")
    if "catalog_report_sha256" in result:
        print(f"  catalog report sha256 {result['catalog_report_sha256']}")
    print(json.dumps({
        "correct": True,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
