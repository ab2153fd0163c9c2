"""Timing spans around calls into hyperpi's layers, installed from outside.

:func:`install` replaces every binding of a traced function in the loaded
``hyperpi`` modules (``from x import f`` copies the reference, so each
importing module has its own) with a wrapper that records a span: name,
start, end, parent span and op id.  A function already open on the span
stack is called straight through, so a recursive function such as
``splitting.product_sum`` gets one span per outermost call.  Spans stay in
memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time
from array import array
from collections import Counter


def _observe_match(stats: Counter, name: str, args: tuple, result) -> None:
    stats[f"{name}.{result.mode}"] += 1


def _observe_product_sum(stats: Counter, name: str, args: tuple, result) -> None:
    lo, hi = args[3], args[4]
    stats[f"{name}.terms"] += max(0, hi - lo)
    bits = max(int(x).bit_length() for x in result)
    stats[f"{name}.max_operand_bits"] = max(stats[f"{name}.max_operand_bits"], bits)


def _observe_from_fraction(stats: Counter, name: str, args: tuple, result) -> None:
    bits = args[0].denominator.bit_length()
    stats[f"{name}.max_den_bits"] = max(stats[f"{name}.max_den_bits"], bits)


# (span name, module, attribute path, observer of (args, result) or None)
TARGETS = (
    ("cli.main", "hyperpi.cli", "main", None),
    ("catalog.verify_entry", "hyperpi.catalog", "verify_entry", None),
    ("catalog.match_to_theorem", "hyperpi.catalog", "match_to_theorem", _observe_match),
    ("dougall.theorem_term", "hyperpi.dougall", "theorem_term", None),
    ("dougall.verify_dougall", "hyperpi.dougall", "verify_dougall", None),
    ("dougall.verify_parity_form", "hyperpi.dougall", "verify_parity_form", None),
    ("dougall.verify_dual_relation", "hyperpi.dougall", "verify_dual_relation", None),
    ("dougall.verify_chain", "hyperpi.dougall", "verify_chain", None),
    ("dougall.normalize_theorem_series", "hyperpi.dougall", "normalize_theorem_series", None),
    ("inversion.roundtrip_check", "hyperpi.inversion", "roundtrip_check", None),
    ("factorials.term_eval", "hyperpi.factorials", "term_eval", None),
    ("factorials.pochhammer", "hyperpi.factorials", "pochhammer", None),
    ("constexpr.eval_const_expr", "hyperpi.constexpr", "eval_const_expr", None),
    ("gammafn.gamma_rational", "hyperpi.gammafn", "gamma_rational", None),
    ("gammafn.gamma_quotient", "hyperpi.gammafn", "gamma_quotient", None),
    ("bigfloat.pi_fixed", "hyperpi.bigfloat", "pi_fixed", None),
    ("bigfloat.exp", "hyperpi.bigfloat", "exp", None),
    ("bigfloat.ln", "hyperpi.bigfloat", "ln", None),
    ("bigfloat.sqrt", "hyperpi.bigfloat", "sqrt", None),
    ("bigfloat.from_fraction", "hyperpi.bigfloat", "BigFloat.from_fraction", _observe_from_fraction),
    ("bigfloat.to_decimal_string", "hyperpi.bigfloat", "BigFloat.to_decimal_string", None),
    ("splitting.product_sum", "hyperpi.splitting", "product_sum", _observe_product_sum),
    ("engine.sum_series", "hyperpi.engine", "sum_series", None),
    ("engine.compute_pi_via", "hyperpi.engine", "compute_pi_via", None),
    ("engine.bbp_hex_digits", "hyperpi.engine", "bbp_hex_digits", None),
    ("engine.verify_bbp_equivalence", "hyperpi.engine", "verify_bbp_equivalence", None),
)


class Tracer:
    """In-memory span recorder; one per traced run.

    Span ``i`` is column ``i`` of the arrays below, so a hot leaf such as
    ``factorials.pochhammer`` (hundreds of thousands of calls per pass)
    costs a few dozen bytes per span.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.ops = array("l")
        self.stack: list[int] = []
        self.open: Counter = Counter()
        self.stats: Counter = Counter()
        self.op_id = -1

    def wrap(self, name: str, fn, observe=None):
        name_id = len(self.names)
        self.names.append(name)
        stack, open_names, stats = self.stack, self.open, self.stats
        name_ids, starts, ends, parents, ops = (
            self.name_ids, self.starts, self.ends, self.parents, self.ops)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if open_names[name]:
                return fn(*args, **kwargs)
            index = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op_id)
            ends.append(0.0)
            stack.append(index)
            open_names[name] += 1
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stats[f"{name}.failed"] += 1
                raise
            finally:
                ends[index] = clock()
                stack.pop()
                open_names[name] -= 1
            if observe is not None:
                observe(stats, name, args, result)
            return result

        return traced

    def summary(self) -> dict[str, float]:
        """Per-name ``calls``, ``total_s`` and ``self_s``, plus observer stats.

        ``self_s`` is a span's duration minus the durations of its direct
        child spans.  ``bigfloat.pi_fixed.cache_hits`` counts pi_fixed spans
        that did no splitting, i.e. were served from hyperpi's cache.
        """
        count = len(self.starts)
        durations = [self.ends[i] - self.starts[i] for i in range(count)]
        child_time = [0.0] * count
        split_children = [False] * count
        split_id = self.names.index("splitting.product_sum")
        for i in range(count):
            parent = self.parents[i]
            if parent >= 0:
                child_time[parent] += durations[i]
                if self.name_ids[i] == split_id:
                    split_children[parent] = True
        out: dict[str, float] = dict(self.stats)
        for i in range(count):
            name = self.names[self.name_ids[i]]
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
            out[f"{name}.total_s"] = out.get(f"{name}.total_s", 0.0) + durations[i]
            out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + durations[i] - child_time[i]
            if name == "bigfloat.pi_fixed" and not split_children[i]:
                out["bigfloat.pi_fixed.cache_hits"] = out.get("bigfloat.pi_fixed.cache_hits", 0) + 1
        return out

    def write(self, path: str) -> None:
        """Write gzipped JSON lines, one per span: id, name, start, end,
        parent id, op id."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for i in range(len(self.starts)):
                fh.write(json.dumps([i, self.names[self.name_ids[i]], self.starts[i],
                                     self.ends[i], self.parents[i], self.ops[i]]))
                fh.write("\n")


def install(tracer: Tracer) -> None:
    """Route every traced hyperpi function through ``tracer``."""
    for name, module_name, attr, observe in TARGETS:
        module = importlib.import_module(module_name)
        if "." in attr:  # a static or instance method: one binding, on the class
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, staticmethod):
                setattr(cls, meth, staticmethod(tracer.wrap(name, raw.__func__, observe)))
            else:
                setattr(cls, meth, tracer.wrap(name, raw, observe))
            continue
        original = getattr(module, attr)
        wrapper = tracer.wrap(name, original, observe)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "hyperpi" and not mod_name.startswith("hyperpi."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
