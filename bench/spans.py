"""Span tracer for the traced benchmark run.

The tracer replaces public kobstruct functions with timing wrappers at
the module attributes their callers look up (``kobstruct.obstruct.pi_star``,
``kobstruct.kinv.direct_sum_many``, ...), so every call from one layer
into the next is seen.  Calls that stay inside a module body, such as
fgab's own calls to ``_snf_engine`` and ``_canonicalize_full``, are not
visible; their time lands in the caller's self time.

Spans live in flat arrays (name, start, end, parent, operation id) and
are only recorded while an operation is running, so the benchmark's own
checks never appear.  ``restore`` puts every wrapped attribute back.
"""

from __future__ import annotations

import gzip
import json
import statistics
from array import array
from time import perf_counter_ns

from oracle import max_bits

# Traced functions by the layer (module) that defines them, in stack order.
TRACED = {
    "fgab": (
        "smith_normal_form",
        "cokernel",
        "is_surjective",
        "compose",
        "tensor_elem",
        "direct_sum_many",
        "right_inverse_exists",
    ),
    "kinv": ("kunneth", "unital_free_product_k", "pi_star", "pi_star_full"),
    "obstruct": ("classify", "section_exists_k"),
    "catalog": ("evaluate",),
    "cli": ("main",),
}
MEMOS = ("_canonicalize_full", "_direct_sum_structure", "_tensor_structure")
SELF_TIME_LAYERS = ("cli", "obstruct", "kinv")
COUNTERS = ("cli.output_bytes", "fgab.section_columns", "fgab.snf_input_cells")


def memo_stats(fgab):
    """(hits, misses, entries) summed over fgab's lru_cache memos; zeros
    for memos that no longer exist."""
    hits = misses = entries = 0
    for name in MEMOS:
        info = getattr(getattr(fgab, name, None), "cache_info", None)
        if info is not None:
            ci = info()
            hits, misses, entries = hits + ci.hits, misses + ci.misses, entries + ci.currsize
    return hits, misses, entries


def clear_memos(fgab):
    for name in MEMOS:
        clear = getattr(getattr(fgab, name, None), "cache_clear", None)
        if clear is not None:
            clear()


class Tracer:
    def __init__(self, kob):
        self.kob = kob
        self.names = []
        self.span_name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op_id = array("i")
        self.stack = []
        self.op = None
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.snf_bits = []
        self.memo = [0, 0]
        self._memo_before = None
        self._patched = []

    # -- operations ----------------------------------------------------------

    def begin_op(self, op_id):
        self._memo_before = memo_stats(self.kob.fgab)
        self.op = op_id

    def end_op(self):
        self.op = None
        hits, misses, _ = memo_stats(self.kob.fgab)
        self.memo[0] += hits - self._memo_before[0]
        self.memo[1] += misses - self._memo_before[1]

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, name, fn, hook):
        name_id = len(self.names)
        self.names.append(name)
        span_name, start, end = self.span_name, self.start, self.end
        parent, op_id, stack = self.parent, self.op_id, self.stack

        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            idx = len(start)
            span_name.append(name_id)
            parent.append(stack[-1] if stack else -1)
            op_id.append(self.op)
            end.append(0)
            stack.append(idx)
            start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter_ns()
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _hook_main(self, args, kwargs, result):
        out = kwargs.get("out")
        if out is not None and hasattr(out, "getvalue"):
            self.counters["cli.output_bytes"] += len(out.getvalue().encode())

    def _hook_right_inverse(self, args, kwargs, result):
        self.counters["fgab.section_columns"] += args[0].target.ngens

    def _hook_snf(self, args, kwargs, result):
        m = args[0]
        self.counters["fgab.snf_input_cells"] += m.rows * m.cols
        self.snf_bits.append(max_bits(result[0].data, result[2].data))

    def install(self):
        hooks = {
            "main": self._hook_main,
            "right_inverse_exists": self._hook_right_inverse,
            "smith_normal_form": self._hook_snf,
        }
        modules = [getattr(self.kob, layer) for layer in TRACED]
        for layer, names in TRACED.items():
            home = getattr(self.kob, layer)
            for name in names:
                fn = getattr(home, name, None)
                if fn is None:
                    continue
                wrapper = self._wrap(f"{layer}.{name}", fn, hooks.get(name))
                for mod in modules:
                    if getattr(mod, name, None) is fn:
                        self._patched.append((mod, name, fn))
                        setattr(mod, name, wrapper)

    def restore(self):
        for mod, name, fn in reversed(self._patched):
            setattr(mod, name, fn)
        self._patched.clear()

    # -- results --------------------------------------------------------------

    def metrics(self):
        """Per-layer metrics: calls and inclusive time per traced name,
        self time per layer, counters, SNF transform sizes and memo use."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        calls = dict.fromkeys(
            (f"{layer}.{name}" for layer, names in TRACED.items() for name in names), 0
        )
        incl = dict.fromkeys(calls, 0)
        self_ns = dict.fromkeys(SELF_TIME_LAYERS, 0)
        for i in range(n):
            name = self.names[self.span_name[i]]
            calls[name] += 1
            incl[name] += dur[i]
            layer = name.split(".", 1)[0]
            if layer in self_ns:
                self_ns[layer] += dur[i] - child[i]
        out = {}
        for name in calls:
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.ms"] = (incl[name] / 1e6, "ms")
        for layer, ns in self_ns.items():
            out[f"{layer}.self_ms"] = (ns / 1e6, "ms")
        units = {"cli.output_bytes": "bytes"}
        for name, value in self.counters.items():
            out[name] = (value, units.get(name, "count"))
        bits = self.snf_bits
        out["fgab.snf_transform_bits_max"] = (max(bits, default=0), "bits")
        out["fgab.snf_transform_bits_p50"] = (statistics.median(bits) if bits else 0, "bits")
        out["fgab.memo_hits"] = (self.memo[0], "count")
        out["fgab.memo_misses"] = (self.memo[1], "count")
        out["fgab.memo_entries"] = (memo_stats(self.kob.fgab)[2], "count")
        return out

    def write(self, path):
        """One JSON header line with the name table, then one line per
        span: name id, start ns, end ns, parent span index, operation id."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps({"names": self.names, "fields": ["name", "start_ns", "end_ns", "parent", "op"]}) + "\n")
            base = self.start[0] if self.start else 0
            for i in range(len(self.start)):
                fh.write(
                    f"{self.span_name[i]} {self.start[i] - base} {self.end[i] - base} "
                    f"{self.parent[i]} {self.op_id[i]}\n"
                )
