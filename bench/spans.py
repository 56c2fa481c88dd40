"""In-memory span tracing of basscast's layers, installed from outside the package.

The tracer replaces each traced function with a wrapper wherever a
``basscast.*`` module binds it (``from .fitting import fit_quadratic`` makes
``basscast.cli.fit_quadratic`` a second binding that patching
``basscast.fitting`` alone would miss), records one span per call, and puts
every original object back when the traced op ends. Nothing under ``src/``
is edited.
"""
from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass

# Layer name (the basscast module) -> public functions whose calls are spans.
# `synthetic` only builds inputs and `errors` does no work, so neither is a layer.
LAYERS: dict[str, tuple[str, ...]] = {
    "cli": ("main",),
    "ingest": ("parse_generic_csv", "parse_google_trends_csv", "parse_transactions_csv"),
    "series": ("cumulative", "mean_demand"),
    "fitting": ("fit_quadratic",),
    "tail": ("profile",),
    "forecast": ("forecast",),
    "evaluation": ("compare_models",),
    "svgplot": ("render_comparison_svg",),
}


@dataclass(eq=False)
class Span:
    id: int
    layer: str
    name: str
    op: int
    parent: int | None
    start_ns: int
    end_ns: int = 0
    error: str | None = None
    out_bytes: int = 0

    def to_dict(self) -> dict:
        return {
            "id": self.id, "name": f"{self.layer}.{self.name}", "op": self.op,
            "parent": self.parent, "start_ns": self.start_ns, "end_ns": self.end_ns,
            "error": self.error,
        }


class Tracer:
    """Collects spans for the ops run inside ``active(op)``.

    A span's parent is the innermost open span of the same thread. A span
    opened on a thread with no open span (a ``batch`` worker thread) is a
    child of the op's root span, the first parentless span of the op.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._op = -1
        self._root: int | None = None
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def active(self, op: int):
        """Trace op ``op``: patch every binding on entry, restore every one on exit."""
        self._op, self._root = op, None
        self.install()
        try:
            yield self
        finally:
            self.restore()

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer is already installed")
        for layer, names in LAYERS.items():
            module = importlib.import_module(f"basscast.{layer}")
            for name in names:
                original = getattr(module, name, None)
                if original is None:
                    continue
                wrapper = self._wrap(layer, name, original)
                for mod in _basscast_modules():
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))

    def restore(self) -> None:
        while self._patched:
            mod, attr, original = self._patched.pop()
            setattr(mod, attr, original)

    def _wrap(self, layer: str, name: str, original):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            parent = stack[-1] if stack else tracer._root
            span = Span(next(tracer._ids), layer, name, tracer._op, parent, 0)
            if parent is None:
                tracer._root = span.id
            tracer.spans.append(span)
            stack.append(span.id)
            span.start_ns = time.perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end_ns = time.perf_counter_ns()
                stack.pop()
            if isinstance(result, str):
                span.out_bytes = len(result.encode("utf-8"))
            return result

        return traced


def _basscast_modules():
    return [m for key, m in list(sys.modules.items())
            if m is not None and (key == "basscast" or key.startswith("basscast."))]


def covered_ns(intervals: list[tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the part of [lo, hi] covered by the union of ``intervals``."""
    total = 0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times_ns(spans: list[Span]) -> dict[int, int]:
    """Span id -> its duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start_ns, s.end_ns))
    return {
        s.id: (s.end_ns - s.start_ns) - covered_ns(children.get(s.id, []), s.start_ns, s.end_ns)
        for s in spans
    }


def layer_totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per layer: calls, inclusive ms (outermost spans of the layer), self ms,
    calls that raised DivergenceError, and bytes of returned strings."""
    by_id = {s.id: s for s in spans}
    self_ns = self_times_ns(spans)
    totals = {layer: {"calls": 0, "ms": 0.0, "self_ms": 0.0, "failed": 0, "bytes": 0}
              for layer in LAYERS}
    for s in spans:
        t = totals[s.layer]
        t["calls"] += 1
        t["self_ms"] += self_ns[s.id] / 1e6
        parent = by_id.get(s.parent)
        if parent is None or parent.layer != s.layer:
            t["ms"] += (s.end_ns - s.start_ns) / 1e6
        if s.error == "DivergenceError":
            t["failed"] += 1
        t["bytes"] += s.out_bytes
    return totals
