"""In-memory span tracing and GC accounting for the traced benchmark run.

Spans are recorded from the benchmark's own code: ``instrument`` swaps the
public entry points of each relaysim layer for timing wrappers and restores
them on exit, so the program source is never edited. Spans nest on one
stack; a span's self time is its duration minus the time its direct child
spans cover. Only per-name aggregates (calls, total, self) are kept, which
keeps the hot per-packet spans cheap.
"""

from __future__ import annotations

import functools
import gc
import importlib
import time
from contextlib import contextmanager


class Tracer:
    """Nested spans aggregated by name: calls, total seconds, self seconds."""

    def __init__(self, clock=time.perf_counter) -> None:
        self._clock = clock
        self._stack: list[list] = []  # [name, start, child_seconds]
        self.calls: dict[str, int] = {}
        self.total_s: dict[str, float] = {}
        self.self_s: dict[str, float] = {}

    def enter(self, name: str) -> None:
        self._stack.append([name, self._clock(), 0.0])

    def exit(self) -> None:
        name, start, child = self._stack.pop()
        duration = self._clock() - start
        if self._stack:
            self._stack[-1][2] += duration
        self.calls[name] = self.calls.get(name, 0) + 1
        self.total_s[name] = self.total_s.get(name, 0.0) + duration
        self.self_s[name] = self.self_s.get(name, 0.0) + duration - child

    def wrap(self, name: str, fn):
        enter, leave = self.enter, self.exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                leave()

        return traced


class GcMonitor:
    """Counts collections and their pause time through ``gc.callbacks``."""

    def __init__(self) -> None:
        self._start = 0.0
        self.collections = [0, 0, 0]
        self.pause_s = 0.0

    def _callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._start = time.perf_counter()
        else:
            self.pause_s += time.perf_counter() - self._start
            self.collections[info["generation"]] += 1

    def __enter__(self) -> "GcMonitor":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._callback)


class _EstimatorProxy:
    """Times the estimator calls a jitter manager makes from inside on_arrival."""

    __slots__ = ("_est", "update", "transit_target")

    def __init__(self, est, tracer: Tracer) -> None:
        self._est = est
        self.update = tracer.wrap("estimator.update", est.update)
        self.transit_target = tracer.wrap("estimator.transit_target", est.transit_target)

    def __getattr__(self, name):
        return getattr(self._est, name)


# (module path, attribute path, span name): the layer entry points the
# engine and run_matrix reach through module globals or class attributes
ENTRY_POINTS = (
    ("relaysim.engine", "run_session", "engine.run_session"),
    ("relaysim.engine", "warmup_stats", "paths.warmup_stats"),
    ("relaysim.engine", "build_report", "reports.build_report"),
    ("relaysim.reports", "MetricsReport.to_json", "reports.to_json"),
    ("relaysim.traces", "LatencyTrace.sample", "traces.sample"),
    ("relaysim.routing", "ThompsonRouter.observe", "routing.observe"),
    ("relaysim.routing", "ThompsonRouter.select", "routing.select"),
    ("relaysim.routing", "Ucb1Router.observe", "routing.observe"),
    ("relaysim.routing", "Ucb1Router.select", "routing.select"),
    ("relaysim.jitter", "WatermarkReorderer.on_arrival", "jitter.on_arrival"),
    ("relaysim.jitter", "PlayoutBuffer.on_arrival", "jitter.on_arrival"),
    ("relaysim.jitter", "WatermarkReorderer.flush", "jitter.flush"),
    ("relaysim.jitter", "PlayoutBuffer.flush", "jitter.flush"),
)


@contextmanager
def instrument(tracer: Tracer):
    """Wrap every layer entry point in a span for the duration of the block.

    The engine builds its jitter manager through ``build_jitter_manager``;
    the manager's estimator is replaced by a proxy so estimator calls show
    up as child spans of ``jitter.on_arrival``. Entry points missing from
    the installed relaysim are skipped and listed in the yielded list.
    """
    saved: list[tuple[object, str, object]] = []
    missing: list[str] = []

    def patch(owner, attr, replacement):
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    for module_name, dotted, span_name in ENTRY_POINTS:
        owner = importlib.import_module(module_name)
        *parents, attr = dotted.split(".")
        for part in parents:
            owner = getattr(owner, part, None)
        if owner is None or attr not in vars(owner):
            missing.append(f"{module_name}.{dotted}")
            continue
        patch(owner, attr, tracer.wrap(span_name, vars(owner)[attr]))

    engine = importlib.import_module("relaysim.engine")
    build = vars(engine).get("build_jitter_manager")
    if build is None:
        missing.append("relaysim.engine.build_jitter_manager")
    else:
        def build_traced(*args, **kwargs):
            manager = build(*args, **kwargs)
            if hasattr(manager, "_est"):
                manager._est = _EstimatorProxy(manager._est, tracer)
            return manager

        patch(engine, "build_jitter_manager", build_traced)
    try:
        yield missing
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
