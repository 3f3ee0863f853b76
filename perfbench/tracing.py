"""Span tracing for the traced benchmark run.

The tracer wraps public functions of the ``repro`` package at their module
and class attributes, so calls from inside the package go through the
wrappers too.  Every wrapped call records one :class:`Span` (name, start,
end, parent span, op id) in memory; the run writes them out when it ends.
A layer's *self time* is its span's duration minus the part of that
interval its child spans cover.  Each benchmark op is a ``bench.op`` root
span, so an op's wall time splits exactly into the self times of its spans
(``bench.op``'s own self time being the residual).

Spans are recorded only in the process that installed the tracer: forked
pool workers inherit the wrappers but pass straight through, and the
parent's spans around pool start, map, merge and shutdown stand in for
them.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

ROOT = "bench.op"


@dataclass(frozen=True)
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of every span: its duration minus its children's cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {
        s.sid: s.duration - _covered(children.get(s.sid, []), s.start, s.end)
        for s in spans
    }


def op_breakdown(spans: list[Span]) -> dict[int, dict[str, float]]:
    """Per op id, the summed self time of each span name."""
    selfs = self_times(spans)
    out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for s in spans:
        if s.op is not None:
            out[s.op][s.name] += selfs[s.sid]
    return {op: dict(names) for op, names in out.items()}


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: per-op counters recorded by wrappers (e.g. shard return bytes)
        self.counters: dict[int, dict[str, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        self._pid = os.getpid()
        self._stack: list[int] = []
        self._next = 0
        self._op: int | None = None
        self._patches: list[tuple[object, str, object, bool]] = []

    # -- recording ------------------------------------------------------
    def _begin(self) -> tuple[int, int | None, float]:
        sid = self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent, time.perf_counter()

    def _end(self, name: str, sid: int, parent: int | None, t0: float) -> None:
        t1 = time.perf_counter()
        self._stack.pop()
        self.spans.append(Span(sid, name, t0, t1, parent, self._op))

    @contextmanager
    def op(self, op_id: int):
        """Root span of one benchmark op."""
        self._op = op_id
        sid, parent, t0 = self._begin()
        try:
            yield
        finally:
            self._end(ROOT, sid, parent, t0)
            self._op = None

    def count(self, name: str, value: float) -> None:
        if self._op is not None:
            self.counters[self._op][name] += value

    def wrap(self, fn, name: str, after=None):
        """``fn`` recording a ``name`` span per call in this process.

        ``after(result, args, kwargs)`` runs inside the span once ``fn``
        returned, for wrappers that also count or wrap the result.
        """
        tracer = self

        def traced(*args, **kwargs):
            if os.getpid() != tracer._pid:
                return fn(*args, **kwargs)
            sid, parent, t0 = tracer._begin()
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    result = after(result, args, kwargs)
                return result
            finally:
                tracer._end(name, sid, parent, t0)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- patching -------------------------------------------------------
    def _set(self, owner, attr: str, value) -> None:
        had = attr in vars(owner)
        self._patches.append((owner, attr, vars(owner).get(attr), had))
        setattr(owner, attr, value)

    def patch_function(self, module: str, attr: str, name: str, after=None) -> None:
        """Wrap ``module.attr`` wherever a loaded ``repro`` module binds it."""
        original = getattr(importlib.import_module(module), attr)
        traced = self.wrap(original, name, after)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, traced)

    def patch_method(self, cls_path: str, attr: str, name: str) -> None:
        module, _, cls_name = cls_path.rpartition(".")
        cls = getattr(importlib.import_module(module), cls_name)
        self._set(cls, attr, self.wrap(getattr(cls, attr), name))

    def install(self) -> None:
        for kind, target, attr, name in LAYER_TARGETS:
            if kind == "method":
                self.patch_method(target, attr, name)
            else:
                self.patch_function(target, attr, name)
        self.patch_function(
            "repro.parallel.executor", "make_executor", "parallel.pool_start",
            after=self._trace_executor,
        )
        self.patch_function(
            "repro.parallel.sharding", "merge_shard_results", "parallel.merge",
            after=self._count_return_bytes,
        )

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value, had = self._patches.pop()
            if had:
                setattr(owner, attr, value)
            else:
                delattr(owner, attr)

    def _trace_executor(self, pool, args, kwargs):
        pool.map = self.wrap(pool.map, "parallel.map")
        pool.shutdown = self.wrap(pool.shutdown, "parallel.shutdown")
        processes = getattr(pool, "pool", None)
        if processes is not None:
            # A ProcessPoolExecutor starts its workers at the first submit,
            # inside ``map``; each start is a ``parallel.pool_start`` span
            # nested in ``parallel.map``, so map's self time excludes it.
            processes._spawn_process = self.wrap(
                processes._spawn_process, "parallel.pool_start"
            )
        return pool

    def _count_return_bytes(self, merged, args, kwargs):
        shard_results = kwargs.get("shard_results", args[3] if len(args) > 3 else ())
        total = 0
        for r in shard_results:
            shared = getattr(r, "shared", None)
            if shared is not None:
                total += shared.nbytes
            else:
                total += r.nodes.nbytes + r.offsets.nbytes
        self.count("parallel.return_bytes", total)
        return merged


#: (kind, module or class path, attribute, span name) of every traced call
#: site.  Several functions may share one span name (``engine.draw``).
LAYER_TARGETS: tuple[tuple[str, str, str, str], ...] = (
    ("method", "repro.core.path_selection.HierarchicalRouter", "batch_spec", "routing.batch_spec"),
    ("function", "repro.routing.engine", "run_batch", "engine.run_batch"),
    ("function", "repro.routing.engine", "draw_plan", "engine.draw"),
    ("function", "repro.routing.engine", "build_waypoints", "engine.draw"),
    ("function", "repro.routing.engine", "resolve_orders", "engine.draw"),
    ("function", "repro.kernels", "assemble_paths", "kernels.assemble_paths"),
    ("function", "repro.kernels", "decycle_paths", "kernels.decycle_paths"),
    ("function", "repro.kernels", "count_loads", "kernels.count_loads"),
    ("method", "repro.core.pathset.PathSet", "edge_ids", "metrics.edge_ids"),
    ("method", "repro.mesh.mesh.Mesh", "edge_ids", "mesh.edge_ids"),
    ("function", "repro.metrics.congestion", "congestion", "metrics.congestion"),
    ("function", "repro.metrics.stretch", "stretch", "metrics.stretch"),
    ("function", "repro.simulation.scheduler", "simulate", "simulation.simulate"),
    ("function", "repro.workloads.generators", "random_pairs", "workloads.random_pairs"),
)
