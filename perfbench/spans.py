"""Spans around the public functions of twistpoly's layers.

A span wraps one public function.  It is installed in every twistpoly
module namespace that holds the function, because each module calls the
name it imported (``twistpoly.cli.delta_matroid_of_matrix``,
``twistpoly.bouquet.twist_polynomial_fast``, ...).  Spans are kept in
memory as plain lists ``[name, op, start, end, parent, counts]`` and
written out when the run ends.  The size counters (subsets, pairs, bytes)
are computed from each call's arguments and result, not measured inside
the program.
"""

from __future__ import annotations

import sys
from time import perf_counter


def _dc(args, result):
    return {"subsets": 1 << args[0].n, "feasible": len(result.feasible)}


def _fast(args, result):
    return {"subsets": 1 << args[0].n}


def _naive(args, result):
    return {"pairs": (1 << args[0].n) * len(args[0].feasible)}


def _text_in(args, result):
    return {"bytes": len(args[0])}


def _text_out(args, result):
    return {"bytes": len(result)}


def _axiom(args, result):
    return {"pairs": len(args[0].feasible) ** 2, "accepted": int(bool(result))}


def _trace(args, result):
    return {"subsets": 1 << args[0].e}


# (module, function) -> (span name, counter); a name shared by several
# functions is one layer.
LAYERS = {
    ("twistpoly.cli", "run"): ("cli.run", None),
    ("twistpoly.core", "parse_dm"): ("core.parse_dm", _text_in),
    ("twistpoly.core", "format_dm"): ("core.format_dm", _text_out),
    ("twistpoly.core", "is_delta_matroid"): ("core.axiom", _axiom),
    ("twistpoly.core", "twist"): ("core.twist", None),
    ("twistpoly.core", "restrict"): ("core.restrict", None),
    ("twistpoly.gf2", "parse_gf2"): ("gf2.parse_gf2", None),
    ("twistpoly.gf2", "delta_matroid_of_matrix"): ("gf2.dc", _dc),
    ("twistpoly.gf2", "is_normal_binary"): ("gf2.normal_binary", None),
    ("twistpoly.gf2", "matrix_of_normal"): ("gf2.normal_binary", None),
    ("twistpoly.gf2", "graph_predicates"): ("gf2.graph_predicates", None),
    ("twistpoly.gf2", "two_coloring"): ("gf2.graph_predicates", None),
    ("twistpoly.poly", "twist_polynomial_fast"): ("poly.fast", _fast),
    ("twistpoly.poly", "twist_polynomial_naive"): ("poly.naive", _naive),
    ("twistpoly.bouquet", "parse_signed_rotation"): ("bouquet.parse", None),
    ("twistpoly.bouquet", "delta_matroid_of_bouquet"): ("bouquet.trace", _trace),
    ("twistpoly.bouquet", "interlacement_matrix"): ("bouquet.interlacement", None),
    ("twistpoly.bouquet", "partial_duality_polynomial"): ("bouquet.pdp", None),
    # one span name per suite: "verify.<suite>"
    ("twistpoly.verify", "run_suite"): ("verify", None),
}


class Tracer:
    """Records spans while installed; ``op`` tags the spans of one operation."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, counter):
        spans, stack = self.spans, self._stack

        def span(*args, **kwargs):
            label = f"{name}.{args[0]}" if name == "verify" else name
            index = len(spans)
            spans.append([label, self.op, 0.0, 0.0, stack[-1] if stack else -1, None])
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index][2:4] = start, end
            if counter is not None:
                spans[index][5] = counter(args, result)
            return result

        return span

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "twistpoly"]
        for (modname, fname), (name, counter) in LAYERS.items():
            original = getattr(sys.modules[modname], fname)
            wrapper = self._wrap(name, original, counter)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._saved.append((mod, attr, original))

    def remove(self) -> None:
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)


def summarize(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total self time and summed counters.

    Self time is a span's duration minus the durations of its direct
    children; calls are single-threaded, so children never overlap.
    """
    child_time = [0.0] * len(spans)
    for name, op, start, end, parent, counts in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for (name, op, start, end, parent, counts), inner in zip(spans, child_time):
        agg = out.setdefault(name, {"calls": 0, "self_s": 0.0})
        agg["calls"] += 1
        agg["self_s"] += end - start - inner
        for key, value in (counts or {}).items():
            agg[key] = agg.get(key, 0) + value
    return out


def merge(summaries: list[dict[str, dict[str, float]]]) -> dict[str, dict[str, float]]:
    out: dict[str, dict[str, float]] = {}
    for summary in summaries:
        for name, agg in summary.items():
            slot = out.setdefault(name, {})
            for key, value in agg.items():
                slot[key] = slot.get(key, 0) + value
    return out
