"""Span tracing of quasiwide's layers from outside the program.

:class:`Tracer` wraps the public functions of each module for the length of
one traced pass and restores the originals afterwards, so untraced passes
run the program untouched. Modules bind these names with ``from .x import
y``, so every module attribute that holds the original function is replaced,
not only the defining one.

A wrapped call records a span (pass, operation, name, start, end, parent
span, payload). Spans stay in memory and are written once, by
:meth:`Tracer.write`. :func:`layer_metrics` turns one pass's spans into the
per-layer metrics: self time is a span's duration minus its child spans.
The hottest primitives (formula evaluations, bitset builds, kernel-file
text) are counted without a span.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
import weakref
from collections import defaultdict
from pathlib import Path

# (module, function) -> span name. Functions sharing a name form one group.
SPANS = {
    ("quasiwide.cli", "cmd_kernelize"): "cli.kernelize",
    ("quasiwide.cli", "cmd_solve"): "cli.solve",
    ("quasiwide.io", "load_graph"): "io.load_graph",
    ("quasiwide.graph", "build_graph"): "graph.build_graph",
    ("quasiwide.graph", "bfs_limited"): "graph.bfs",
    ("quasiwide.graph", "distances_from"): "graph.bfs",
    ("quasiwide.graph", "distance_vector"): "graph.bfs",
    ("quasiwide.graph", "is_r_independent"): "graph.bfs",
    ("quasiwide.graph", "contract_balls"): "graph.contract_balls",
    ("quasiwide._kernels", "tree_round"): "kernels.tree_round",
    ("quasiwide._kernels", "nr_masks"): "kernels.nr_masks",
    ("quasiwide.logic", "extract_indiscernible"): "logic.extract",
    ("quasiwide.uqw", "uqw_split"): "uqw.split",
    ("quasiwide.kernelize", "find_irrelevant_dominatee"): "kernelize.sieve",
    ("quasiwide.kernelize", "domination_core"): "kernelize.core",
    ("quasiwide.kernelize", "reduce_dominators"): "kernelize.reduce",
    ("quasiwide.kernelize", "build_kernel"): "kernelize.build",
    ("quasiwide.solvers", "exact_drds"): "solvers.exact_drds",
    ("quasiwide.solvers", "cds_fpt"): "solvers.cds_fpt",
    ("quasiwide.solvers", "dreyfus_wagner"): "solvers.dreyfus_wagner",
}


# Span name -> the sizes its span keeps from the call, for the ratio metrics.
_PAYLOADS = {
    "logic.extract": lambda args, res: (len(args[1]), len(res)),
    "uqw.split": lambda args, res: (len(res.rounds), len(res.S), len(res.B)),
    "kernelize.sieve": lambda args, res: (int(res is not None),),
    "kernelize.core": lambda args, res: (len(res.Z),),
    "kernelize.reduce": lambda args, res: (len(res.Y),),
    "kernelize.build": lambda args, res: (len(res.path_internals) + len(res.gadget_internals),),
}


# name -> (unit, better); the per-layer metrics, in report order.
METRICS = {
    "cli.kernelize.s": ("s", "lower"),
    "cli.solve.s": ("s", "lower"),
    "io.load_graph.calls": ("count", "lower"),
    "io.load_graph.self_s": ("s", "lower"),
    "io.kernel_file.bytes": ("bytes", "lower"),
    "graph.build_graph.calls": ("count", "lower"),
    "graph.build_graph.self_s": ("s", "lower"),
    "graph.bfs.calls": ("count", "lower"),
    "graph.bfs.self_s": ("s", "lower"),
    "graph.contract_balls.calls": ("count", "lower"),
    "graph.contract_balls.self_s": ("s", "lower"),
    "graph.bitsets.bytes": ("bytes", "lower"),
    "kernels.eval_formula.calls": ("count", "lower"),
    "kernels.tree_round.calls": ("count", "lower"),
    "kernels.tree_round.self_s": ("s", "lower"),
    "kernels.nr_masks.calls": ("count", "lower"),
    "kernels.nr_masks.self_s": ("s", "lower"),
    "logic.extract.calls": ("count", "lower"),
    "logic.extract.self_s": ("s", "lower"),
    "logic.extract.kept_ratio": ("ratio", "higher"),
    "uqw.split.calls": ("count", "lower"),
    "uqw.split.self_s": ("s", "lower"),
    "uqw.split.rounds": ("rounds", "lower"),
    "uqw.split.s_size": ("vertices", "lower"),
    "uqw.split.b_size": ("vertices", "higher"),
    "kernelize.sieve.calls": ("count", "lower"),
    "kernelize.sieve.hit_ratio": ("ratio", "higher"),
    "kernelize.sieve.splits_per_call": ("splits", "lower"),
    "kernelize.sieve.self_s": ("s", "lower"),
    "kernelize.core_vertices": ("vertices", "lower"),
    "kernelize.reps": ("vertices", "lower"),
    "kernelize.internal_vertices": ("vertices", "lower"),
    "kernelize.reduce.s": ("s", "lower"),
    "kernelize.build.s": ("s", "lower"),
    "solvers.exact_drds.calls": ("count", "lower"),
    "solvers.exact_drds.s": ("s", "lower"),
    "solvers.cds_fpt.s": ("s", "lower"),
    "solvers.dreyfus_wagner.calls": ("count", "lower"),
    "solvers.dreyfus_wagner.s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: list[dict[str, int]] = []
        self.op = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _span_wrapper(self, name: str, fn):
        spans, stack, clock, tracer = self.spans, self._stack, time.perf_counter, self
        payload_of = _PAYLOADS.get(name)

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            done = False
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                end = clock()
                stack.pop()
                payload = payload_of(args, result) if done and payload_of else None
                spans[index] = (len(tracer.counts) - 1, tracer.op, name, start, end, parent, payload)

        return traced

    def _count_evals(self, fn):
        counts = self.counts[-1]

        def counted(g, kind, i_split, arity, args):
            counts["kernels.eval_formula.calls"] += 1
            return fn(g, kind, i_split, arity, args)

        return counted

    def _count_bitsets(self, fn):
        """Bytes of each graph's bitsets, counted when first handed out. The
        formula evaluator asks for them on every call, mostly for the same
        graph, so that case returns first."""
        counts, seen, last = self.counts[-1], weakref.WeakSet(), [None]

        def counted(g):
            bits = fn(g)
            if bits is not last[0]:
                last[0] = bits
                if g not in seen:
                    seen.add(g)
                    size = sys.getsizeof(bits) + sum(sys.getsizeof(b) for b in bits)
                    counts["graph.bitsets.bytes"] += size
            return bits

        return counted

    def _count_kernel_text(self, fn):
        counts = self.counts[-1]

        def counted(*args, **kwargs):
            text = fn(*args, **kwargs)
            counts["io.kernel_file.bytes"] += len(text.encode())
            return text

        return counted

    def _patch(self, module: str, attr: str, wrap) -> None:
        """Replace every binding of ``module.attr`` across quasiwide."""
        original = getattr(sys.modules[module], attr)
        wrapper = wrap(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "quasiwide" or mod_name.startswith("quasiwide.")):
                continue
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, name, original))
                    setattr(mod, name, wrapper)

    def install(self) -> None:
        """Start a traced pass."""
        self.counts.append(defaultdict(int))
        for (module, attr), name in SPANS.items():
            self._patch(module, attr, lambda fn, name=name: self._span_wrapper(name, fn))
        self._patch("quasiwide._kernels", "eval_formula", self._count_evals)
        self._patch("quasiwide.graph", "adjacency_bitsets", self._count_bitsets)
        self._patch("quasiwide.cli", "kernel_text", self._count_kernel_text)

    def uninstall(self) -> None:
        for mod, name, original in reversed(self._patched):
            setattr(mod, name, original)
        self._patched.clear()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            json.dump({
                "fields": ["pass", "op", "name", "start", "end", "parent", "payload"],
                "spans": self.spans,
                "counts": self.counts,
            }, fh)


def layer_metrics(tracer: Tracer, traced_pass: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass (spans and counts)."""
    spans = tracer.spans
    child_time = defaultdict(float)
    for span in spans:
        if span[0] == traced_pass and span[5] >= 0:
            child_time[span[5]] += span[4] - span[3]
    calls = defaultdict(int)
    self_s = defaultdict(float)
    total_s = defaultdict(float)
    sums = defaultdict(lambda: [0, 0, 0])
    sieve_splits = 0
    for index, span in enumerate(spans):
        if span[0] != traced_pass:
            continue
        name, dur, payload = span[2], span[4] - span[3], span[6]
        calls[name] += 1
        total_s[name] += dur
        self_s[name] += dur - child_time[index]
        if payload is not None:
            acc = sums[name]
            for i, value in enumerate(payload):
                acc[i] += value
        if name == "uqw.split":
            parent = span[5]
            while parent >= 0 and spans[parent][2] != "kernelize.sieve":
                parent = spans[parent][5]
            sieve_splits += parent >= 0
    counts = tracer.counts[traced_pass]

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    split_calls = calls["uqw.split"]
    return {
        "cli.kernelize.s": total_s["cli.kernelize"],
        "cli.solve.s": total_s["cli.solve"],
        "io.load_graph.calls": calls["io.load_graph"],
        "io.load_graph.self_s": self_s["io.load_graph"],
        "io.kernel_file.bytes": counts["io.kernel_file.bytes"],
        "graph.build_graph.calls": calls["graph.build_graph"],
        "graph.build_graph.self_s": self_s["graph.build_graph"],
        "graph.bfs.calls": calls["graph.bfs"],
        "graph.bfs.self_s": self_s["graph.bfs"],
        "graph.contract_balls.calls": calls["graph.contract_balls"],
        "graph.contract_balls.self_s": self_s["graph.contract_balls"],
        "graph.bitsets.bytes": counts["graph.bitsets.bytes"],
        "kernels.eval_formula.calls": counts["kernels.eval_formula.calls"],
        "kernels.tree_round.calls": calls["kernels.tree_round"],
        "kernels.tree_round.self_s": self_s["kernels.tree_round"],
        "kernels.nr_masks.calls": calls["kernels.nr_masks"],
        "kernels.nr_masks.self_s": self_s["kernels.nr_masks"],
        "logic.extract.calls": calls["logic.extract"],
        "logic.extract.self_s": self_s["logic.extract"],
        "logic.extract.kept_ratio": ratio(sums["logic.extract"][1], sums["logic.extract"][0]),
        "uqw.split.calls": split_calls,
        "uqw.split.self_s": self_s["uqw.split"],
        "uqw.split.rounds": ratio(sums["uqw.split"][0], split_calls),
        "uqw.split.s_size": ratio(sums["uqw.split"][1], split_calls),
        "uqw.split.b_size": ratio(sums["uqw.split"][2], split_calls),
        "kernelize.sieve.calls": calls["kernelize.sieve"],
        "kernelize.sieve.hit_ratio": ratio(sums["kernelize.sieve"][0], calls["kernelize.sieve"]),
        "kernelize.sieve.splits_per_call": ratio(sieve_splits, calls["kernelize.sieve"]),
        "kernelize.sieve.self_s": self_s["kernelize.sieve"],
        "kernelize.core_vertices": sums["kernelize.core"][0],
        "kernelize.reps": sums["kernelize.reduce"][0],
        "kernelize.internal_vertices": sums["kernelize.build"][0],
        "kernelize.reduce.s": total_s["kernelize.reduce"],
        "kernelize.build.s": total_s["kernelize.build"],
        "solvers.exact_drds.calls": calls["solvers.exact_drds"],
        "solvers.exact_drds.s": total_s["solvers.exact_drds"],
        "solvers.cds_fpt.s": total_s["solvers.cds_fpt"],
        "solvers.dreyfus_wagner.calls": calls["solvers.dreyfus_wagner"],
        "solvers.dreyfus_wagner.s": total_s["solvers.dreyfus_wagner"],
    }


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Times are the median over traced passes; everything else repeats
    exactly from pass to pass, so the first pass's value stands."""
    return {
        key: statistics.median(m[key] for m in per_pass) if METRICS[key][0] == "s" else value
        for key, value in per_pass[0].items()
    }
