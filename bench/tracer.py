"""Span tracing of minklat's module boundaries, from outside the package.

`Tracer.install` replaces every public function of the traced modules by a
wrapper that records one span per call. It also rebinds the names that other
modules imported with ``from .x import f``, so a call from ``search`` into
``roots.find_roots`` is a span even though ``search`` holds its own reference.
Spans live in memory (a list of plain lists) until the pass ends.
"""
from __future__ import annotations

import functools
import inspect
import math
import time
from typing import Dict, Iterable, List, Optional

# span fields: layer, function name, parent span index (-1 at top), operation
# index, start, end
LAYER, NAME, PARENT, OP, START, END = range(6)


class Tracer:
    def __init__(self) -> None:
        self.spans: List[list] = []
        self.op = -1
        self._stack: List[int] = []
        self._restore: List[tuple] = []

    def _wrap(self, layer: str, name: str, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [layer, name, stack[-1] if stack else -1, self.op, clock(), None]
            spans.append(span)
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span[END] = clock()

        return traced

    def install(self, modules: Iterable) -> None:
        """Wrap the public functions defined in ``modules``; rebind every
        module-level name in ``modules`` that refers to one of them."""
        modules = list(modules)
        wrapped = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[-1]
            for name, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and not name.startswith("_")
                    and obj.__module__ == mod.__name__
                ):
                    wrapped[obj] = self._wrap(layer, name, obj)
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._restore.append((mod, name, obj))
                    setattr(mod, name, wrapped[obj])

    def uninstall(self) -> None:
        for mod, name, obj in reversed(self._restore):
            setattr(mod, name, obj)
        self._restore.clear()


def _durations(spans: List[list]):
    dur = [s[END] - s[START] for s in spans]
    child = [0.0] * len(spans)
    for s, d in zip(spans, dur):
        if s[PARENT] >= 0:
            child[s[PARENT]] += d
    return dur, child


def _outermost(spans: List[list], idx: int, name: str) -> bool:
    """True if no ancestor of span ``idx`` is a call of the same function."""
    parent = spans[idx][PARENT]
    while parent >= 0:
        if spans[parent][NAME] == name and spans[parent][LAYER] == spans[idx][LAYER]:
            return False
        parent = spans[parent][PARENT]
    return True


def function_time(spans: List[list], layer: str, name: str) -> float:
    """Inclusive time of a function; recursive calls are counted once."""
    return math.fsum(
        s[END] - s[START]
        for i, s in enumerate(spans)
        if s[LAYER] == layer and s[NAME] == name and _outermost(spans, i, name)
    )


def function_calls(spans: List[list], layer: str, name: str) -> int:
    return sum(1 for s in spans if s[LAYER] == layer and s[NAME] == name)


def self_time(
    spans: List[list], layer: str, name: Optional[str] = None
) -> float:
    """Time inside spans of ``layer`` (or of one function of it) that no
    child span covers."""
    dur, child = _durations(spans)
    return math.fsum(
        d - c
        for s, d, c in zip(spans, dur, child)
        if s[LAYER] == layer and (name is None or s[NAME] == name)
    )


def layer_metrics(spans: List[list], search_stats: Dict[str, int]) -> Dict[str, float]:
    """Per-layer metrics of one pass. A layer the workload never calls reads 0."""
    out: Dict[str, float] = {}

    def timed(layer: str, name: str, with_calls: bool = True) -> None:
        out[f"{layer}.{name}_s"] = function_time(spans, layer, name)
        if with_calls:
            out[f"{layer}.{name}.calls"] = function_calls(spans, layer, name)

    out["search.enumerate_s"] = function_time(spans, "search", "enumerate_m_lt_one")
    search_self = self_time(spans, "search")
    out["search.self_s"] = search_self
    generated = search_stats.get("generated", 0)
    passed = search_stats.get("passed_prescreen", 0)
    out["search.generated"] = generated
    out["search.passed_prescreen"] = passed
    out["search.leaf_yield"] = passed / generated if generated else 0.0
    out["search.leaves_per_s"] = generated / search_self if search_self > 0 else 0.0
    timed("intpoly", "is_irreducible")
    timed("intpoly", "sturm_real_count")
    timed("intpoly", "discriminant")
    timed("roots", "find_roots")
    out["roots.find_roots_self_s"] = self_time(spans, "roots", "find_roots")
    timed("roots", "erdos_turan_check")
    timed("measures", "size_profile")
    timed("lattice", "build_embedding", with_calls=False)
    timed("lattice", "lll_reduce")
    timed("lattice", "shortest_vector")
    out["lattice.enum_self_s"] = self_time(spans, "lattice", "shortest_vector")
    out["verify.self_s"] = self_time(spans, "verify")
    return out


def metric_unit(name: str) -> str:
    if name == "search.leaf_yield":
        return "ratio"
    if name == "search.leaves_per_s":
        return "1/s"
    return "s" if name.endswith("_s") else "count"
