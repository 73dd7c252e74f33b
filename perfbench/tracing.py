"""In-memory span tracer that wraps the program's public entry points.

Nothing under ``src/`` is instrumented.  :meth:`Tracer.install` replaces
the layer entry points named in :data:`TARGETS` with timing wrappers
(class attributes, or module globals for plain functions) and
:meth:`Tracer.uninstall` puts the originals back.  Each call records a
span ``(id, parent, name, start, end, context)``; ``context`` is the
tick, round or pass id the workload loop sets before each call.

Per span name the tracer keeps calls, busy seconds (inclusive
duration) and self seconds (duration minus the time covered by child
spans).  A nested call into a span of the same name -- an override
calling ``super()`` -- is folded into the outer span so calls are not
counted twice.  All spans are aggregated; the first
:data:`MAX_KEPT_SPANS` are also kept for the JSONL dump.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Spans kept for the JSONL file; later spans are aggregated only.
MAX_KEPT_SPANS = 50_000

_MISSING = object()


def _subclasses(base: type) -> List[type]:
    found, todo = [], [base]
    while todo:
        cls = todo.pop()
        found.append(cls)
        todo.extend(cls.__subclasses__())
    return found


def _store_save_bytes(tracer: "Tracer", args: tuple, kwargs: dict, result: Any) -> None:
    store, key = args[0], args[1]
    try:
        tracer.counts["runtime.store.save.bytes"] += os.path.getsize(store.record_path(key))
    except OSError:
        pass


def _store_load_hit(tracer: "Tracer", args: tuple, kwargs: dict, result: Any) -> None:
    default = args[2] if len(args) > 2 else kwargs.get("default")
    if result is not default:
        tracer.counts["runtime.store.load.hits"] += 1


def _snapshot_bytes(tracer: "Tracer", args: tuple, kwargs: dict, result: Any) -> None:
    tracer.counts["session.snapshot.bytes"] += len(result)


def _submit_many_lanes(tracer: "Tracer", args: tuple, kwargs: dict, result: Any) -> None:
    tracer.counts["serving.submit_many.lanes"] += len(args[1])


def _runner_cells(tracer: "Tracer", args: tuple, kwargs: dict, result: Any) -> None:
    stats = args[0].last_stats
    tracer.counts["runtime.cells_played"] += stats.played
    tracer.counts["runtime.cells_cached"] += stats.cached


#: ``(span name, kind, owner, attribute, after-hook)`` per entry point.
#: ``kind`` is ``method`` (the class and every subclass that defines the
#: attribute), ``classmethod``, or ``function`` (every loaded ``repro``
#: module whose global of that name is the original function).
TARGETS: Tuple[Tuple[str, str, str, str, Optional[Callable]], ...] = (
    ("serving.open", "method", "repro.serving.service:DefenseService", "open", None),
    ("serving.submit_many", "method", "repro.serving.service:DefenseService",
     "submit_many", _submit_many_lanes),
    ("serving.evict", "method", "repro.serving.service:DefenseService", "evict", None),
    ("serving.close", "method", "repro.serving.service:DefenseService", "close", None),
    ("streams.next_batch", "method", "repro.streams.source:StreamSource", "next_batch", None),
    ("streams.materialize", "method", "repro.streams.injection:PoisonInjector",
     "materialize", None),
    ("session.submit", "method", "repro.core.session:GameSession", "submit", None),
    ("session.snapshot", "method", "repro.core.session:GameSession", "snapshot",
     _snapshot_bytes),
    ("session.restore", "classmethod", "repro.core.session:GameSession", "restore", None),
    ("core.trim", "method", "repro.core.trimming:Trimmer", "trim", None),
    ("core.quality", "method", "repro.core.quality:QualityEvaluator", "evaluate", None),
    ("core.react", "method", "repro.core.strategies.base:CollectorStrategy", "react", None),
    ("core.react", "method", "repro.core.strategies.base:AdversaryStrategy", "react", None),
    ("runtime.run", "method", "repro.runtime.runner:SweepRunner", "run", _runner_cells),
    ("runtime.store.save", "method", "repro.runtime.store:ResultStore", "save",
     _store_save_bytes),
    ("runtime.store.load", "method", "repro.runtime.store:ResultStore", "load",
     _store_load_hit),
    ("runtime.load_reference", "function", "repro.runtime.spec", "load_reference", None),
    ("ldp.em_fit", "method", "repro.ldp.emf:ExpectationMaximizationFilter", "fit", None),
    ("datasets.generate_taxi", "function", "repro.datasets.taxi", "generate_taxi", None),
)


#: Span names the workloads open themselves, around calls the
#: program makes through scenario descriptors.
DRIVER_SPANS = (
    "scenarios.plan",
    "scenarios.aggregate",
    "scenarios.render",
    "scenarios.report",
)


def span_names() -> List[str]:
    names = []
    for name, *_ in TARGETS:
        if name not in names:
            names.append(name)
    return names + list(DRIVER_SPANS)


class Tracer:
    """Records spans around the wrapped entry points while installed."""

    def __init__(self) -> None:
        self.origin = time.perf_counter()
        self.context: Any = None
        self.totals: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: Dict[str, float] = defaultdict(float)
        self.kept: List[tuple] = []
        self.recorded = 0
        self._stack: List[list] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    # -------------------------------------------------------------- #
    def call(self, name: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        """Run ``fn`` inside a span called ``name``."""
        stack = self._stack
        if stack and stack[-1][1] == name:
            return fn(*args, **kwargs)
        self.recorded += 1
        frame = [self.recorded, name, 0.0]
        parent = stack[-1][0] if stack else 0
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - start
            total = self.totals[name]
            total[0] += 1
            total[1] += duration
            total[2] += duration - frame[2]
            if stack:
                stack[-1][2] += duration
            if len(self.kept) < MAX_KEPT_SPANS:
                self.kept.append(
                    (frame[0], parent, name, start - self.origin, end - self.origin, self.context)
                )

    def _wrap(self, name: str, fn: Callable, after: Optional[Callable]) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            result = tracer.call(name, fn, *args, **kwargs)
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        return wrapper

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every entry point in :data:`TARGETS`."""
        import importlib

        for name, kind, owner, attr, after in TARGETS:
            module_name, _, class_name = owner.partition(":")
            module = importlib.import_module(module_name)
            if kind == "function":
                original = getattr(module, attr)
                wrapped = self._wrap(name, original, after)
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name.startswith("repro") and getattr(mod, attr, None) is original:
                        self._patch(mod, attr, wrapped)
                continue
            base = getattr(module, class_name)
            if kind == "classmethod":
                original = base.__dict__[attr].__func__
                self._patch(base, attr, classmethod(self._wrap(name, original, after)))
                continue
            for cls in _subclasses(base):
                if attr in cls.__dict__:
                    self._patch(cls, attr, self._wrap(name, cls.__dict__[attr], after))

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -------------------------------------------------------------- #
    def span_metrics(self) -> Dict[str, float]:
        """``<span>.calls``, ``.busy_s`` and ``.self_s`` for every span name."""
        metrics: Dict[str, float] = {}
        for name in span_names():
            calls, busy, self_s = self.totals.get(name, (0, 0.0, 0.0))
            metrics[f"{name}.calls"] = calls
            metrics[f"{name}.busy_s"] = busy
            metrics[f"{name}.self_s"] = self_s
        return metrics

    def write_jsonl(self, path: str) -> None:
        """Write the kept spans, one JSON object a line."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            for span_id, parent, name, start, end, context in self.kept:
                handle.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "parent": parent,
                            "name": name,
                            "start": start,
                            "end": end,
                            "ctx": context,
                        }
                    )
                    + "\n"
                )
