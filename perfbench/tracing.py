"""Benchmark-side spans around the public functions each layer exposes.

A :class:`Tracer` replaces functions at the module or class attributes the
pipeline calls through with wrappers that record one span per call —
``(name, start, end, parent, request)`` — in memory.  Nothing inside
``src/`` changes; :meth:`Tracer.patched` restores every attribute on exit.
Self time is a span's duration minus the durations of its direct children,
so the self times of all spans plus the gaps between top-level spans
(``unattributed``) add up to the traced wall time exactly.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: ``(owner, attribute, span name)``; a callable name derives the span name
#: from the call's arguments.
Patch = Tuple[object, str, object]


class Tracer:
    """In-memory span recorder."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent index or -1, request id or None]``.
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.request: Optional[int] = None
        self.wall = 0.0

    def wrap(self, name, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            span = [label, 0.0, 0.0, stack[-1] if stack else -1,
                    self.request]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        return self.wrap(name, fn)(*args, **kwargs)

    @contextlib.contextmanager
    def patched(self, patches: Sequence[Patch]) -> Iterator[None]:
        """Install wrappers for ``patches``; count the block's wall time."""
        saved = []
        try:
            for owner, attribute, name in patches:
                original = owner.__dict__[attribute] if isinstance(
                    owner, type) else getattr(owner, attribute)
                if isinstance(original, classmethod):
                    replacement = classmethod(
                        self.wrap(name, original.__func__))
                else:
                    replacement = self.wrap(name, original)
                saved.append((owner, attribute, original))
                setattr(owner, attribute, replacement)
            started = time.perf_counter()
            try:
                yield
            finally:
                self.wall += time.perf_counter() - started
        finally:
            for owner, attribute, original in reversed(saved):
                setattr(owner, attribute, original)

    # ------------------------------------------------------------------
    def self_times(self) -> Tuple[Dict[str, float], Dict[str, int]]:
        """Summed self time and call count per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        seconds: Dict[str, float] = defaultdict(float)
        calls: Dict[str, int] = defaultdict(int)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            seconds[name] += (end - start) - child[index]
            calls[name] += 1
        return dict(seconds), dict(calls)

    def unattributed(self) -> float:
        """Traced wall time not covered by any top-level span."""
        covered = sum(end - start for _, start, end, parent, _ in self.spans
                      if parent < 0)
        return self.wall - covered

    def write(self, path) -> None:
        """Write the spans out as JSON lines."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent, request) in enumerate(
                    self.spans):
                handle.write(json.dumps({
                    "id": index, "name": name, "start": start, "end": end,
                    "parent": None if parent < 0 else parent,
                    "request": request}) + "\n")


def setup_patches() -> List[Patch]:
    """``build_dataset``, the stage functions it calls through, the
    constraint inference and the batch call the set-ups run."""
    import repro
    from repro.rfid import calibration
    from repro.simulation import datasets
    from repro.simulation.readings import ReadingGenerator
    from repro.simulation.trajectories import TrajectoryGenerator

    return [
        (repro, "build_dataset", "simulation.build_dataset"),
        (repro, "infer_constraints", "inference.constraints"),
        (repro, "clean_many", "runtime.batch.clean_many"),
        (datasets, "Grid", "mapmodel.grid"),
        (datasets, "WalkingDistances", "mapmodel.distances"),
        (datasets, "place_default_readers", "rfid.place_readers"),
        (datasets, "exact_matrix", "rfid.exact_matrix"),
        # calibrate() recomputes the exact matrix through its own module.
        (calibration, "exact_matrix", "rfid.exact_matrix"),
        (datasets, "calibrate", "rfid.calibrate"),
        (datasets, "PriorModel", "rfid.prior"),
        (TrajectoryGenerator, "generate", "simulation.generate"),
        (ReadingGenerator, "generate", "simulation.generate"),
    ]


def cleaning_patches() -> List[Patch]:
    """Interpretation, routing advice, the engines and the store."""
    from repro.analysis import advisor
    from repro.core.lsequence import LSequence
    from repro.runtime import batch
    from repro.runtime.plan import SharedCleaningPlan
    from repro.store import format as store_format, graphstore

    return [
        (LSequence, "from_readings", "core.lsequence.from_readings"),
        (SharedCleaningPlan, "advice_for", "analysis.advise"),
        (advisor, "recommend_options", "analysis.advise"),
        (batch, "build_ct_graph", "core.engine.build"),
        (store_format, "write_ctg", "store.write"),
        (store_format, "load_ctg", "store.load"),
        (batch, "load_ctg", "store.load"),
        (graphstore, "load_ctg", "store.load"),
    ]


def _statement_span(target, statement: str) -> str:
    keyword = statement.split(None, 1)[0].upper() if statement.strip() else ""
    return f"queries.stmt.{keyword}"


def query_patches() -> List[Patch]:
    """The store's read path and the query layer."""
    from repro.queries import ql
    from repro.queries.session import QuerySession
    from repro.store.graphstore import GraphStore

    return [
        (GraphStore, "load", "store.open"),
        # The session's forward pass runs lazily on first use and is cached.
        (QuerySession, "_alpha_levels", "queries.session"),
        (ql, "execute", _statement_span),
    ]


def serve_patches() -> List[Patch]:
    """The streaming cleaner and the session manager's checkpoints."""
    from repro.runtime.sessions import StreamSessionManager
    from repro.streaming import StreamingCleaner

    return [
        (StreamingCleaner, "extend", "streaming.extend"),
        (StreamingCleaner, "filtered_distribution", "streaming.estimate"),
        (StreamSessionManager, "checkpoint", "runtime.sessions.checkpoint"),
    ]
