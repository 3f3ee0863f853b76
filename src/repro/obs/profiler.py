"""The :class:`Profiler`: stage timers, counters and JSONL trace emission.

Design constraints, in order:

1. **Zero cost when absent** — every instrumentation site guards with
   ``if profiler is not None``; no global state, no monkey-patching.
2. **Cheap when present** — a stage is two ``perf_counter`` calls and a
   dict update; counters are a dict ``+=``.
3. **Composable** — one profiler can span several ``route`` calls (stage
   times accumulate), and :meth:`Profiler.merge` folds a child profiler
   into a parent (used by sweep-style harnesses).

JSONL trace schema (one JSON object per line, see docs/PERFORMANCE.md):

``{"event": "stage", "name": str, "wall_s": float, "seq": int}``
    Emitted when a stage context exits (only when a trace sink is set).
``{"event": "counter", "name": str, "delta": int, "seq": int}``
    Emitted on every :meth:`Profiler.count` call with a trace sink.
``{"event": "observation", "name": str, "value": float, "seq": int}``
    Emitted on every :meth:`Profiler.observe` call with a trace sink.
``{"event": "summary", "stages": {...}, "counters": {...}, ...}``
    Emitted by :meth:`write_trace` / :meth:`write_summary`; ``stages``
    maps stage name to ``{"calls": int, "wall_s": float}``.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import IO, Iterator, Mapping

from repro.obs.histogram import Histogram

__all__ = ["Profiler", "StageStats", "NULL_PROFILER"]


@dataclass
class ObservationStats:
    """Streaming summary of one named observation series (no samples kept).

    Backs :meth:`Profiler.observe` — per-request latencies, queue depths
    and other *measured values* that are neither monotone counters nor
    stage wall times.  Mergeable across workers: count/total/min/max fold
    exactly, so fleet-level summaries stay correct.
    """

    count: int = 0
    total: float = 0.0
    min: float = float("inf")
    max: float = float("-inf")

    def add(self, value: float) -> None:
        self.count += 1
        self.total += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
        }


@dataclass
class StageStats:
    """Accumulated wall time and call count of one named stage."""

    calls: int = 0
    wall_s: float = 0.0

    def add(self, wall_s: float) -> None:
        self.calls += 1
        self.wall_s += wall_s

    def to_dict(self) -> dict:
        return {"calls": self.calls, "wall_s": self.wall_s}


@dataclass
class Profiler:
    """Accumulates per-stage wall times and named counters.

    Parameters
    ----------
    trace:
        Optional sink for JSONL events: a path (opened lazily, line
        buffered) or an open text file object.  Without a sink, stages and
        counters are only accumulated in memory.

    Examples
    --------
    >>> prof = Profiler()
    >>> with prof.stage("demo"):
    ...     _ = sum(range(100))
    >>> prof.count("packets", 42)
    >>> prof.stages["demo"].calls
    1
    >>> prof.counters["packets"]
    42
    """

    trace: str | IO[str] | None = None
    stages: dict[str, StageStats] = field(default_factory=dict)
    counters: dict[str, int] = field(default_factory=dict)
    #: streaming value summaries (:meth:`observe`) — e.g. per-request
    #: latency ``service.request_s``, sampled queue depth
    observations: dict[str, ObservationStats] = field(default_factory=dict)
    #: fixed-bin distributions (:meth:`record_hist`) — e.g. per-packet
    #: step latency; bin counts add, so shard merges are exact
    histograms: dict[str, Histogram] = field(default_factory=dict)
    _seq: int = field(default=0, repr=False)
    _sink: IO[str] | None = field(default=None, repr=False)
    _owns_sink: bool = field(default=False, repr=False)
    # One profiler may be shared by several threads (sharded execution's
    # merge path, threaded harnesses); dict read-modify-write is not atomic,
    # so every mutation takes this lock.
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False, compare=False)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        """Time a named stage; nests and accumulates across calls."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dt = time.perf_counter() - t0
            with self._lock:
                self.stages.setdefault(name, StageStats()).add(dt)
                self._emit({"event": "stage", "name": name, "wall_s": dt})

    def count(self, name: str, delta: int = 1) -> None:
        """Add ``delta`` to the named counter (thread-safe)."""
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + int(delta)
            self._emit({"event": "counter", "name": name, "delta": int(delta)})

    def observe(self, name: str, value: float) -> None:
        """Record one sample of a measured value (latency, queue depth).

        Unlike :meth:`count` these are *values*, not increments: the
        profiler keeps a streaming count/total/min/max summary per name
        (:class:`ObservationStats`), never the raw samples.
        """
        with self._lock:
            self.observations.setdefault(name, ObservationStats()).add(float(value))
            self._emit({"event": "observation", "name": name, "value": float(value)})

    def record_hist(
        self, name: str, value: float, count: int = 1, bin_width: float = 1.0
    ) -> None:
        """Record ``count`` samples of ``value`` into the named histogram.

        Like :meth:`observe` but keeps the full fixed-bin distribution
        (:class:`~repro.obs.histogram.Histogram`), so percentiles survive
        worker-shard merges exactly.  ``bin_width`` only matters on the
        call that creates the histogram; later calls must agree.
        """
        with self._lock:
            hist = self.histograms.get(name)
            if hist is None:
                hist = self.histograms[name] = Histogram(bin_width=bin_width)
            hist.add(value, count)

    def merge(self, other: "Profiler") -> None:
        """Fold another profiler's stages and counters into this one."""
        self.merge_snapshot(other.snapshot())

    def merge_snapshot(self, snapshot: Mapping) -> None:
        """Fold a :meth:`snapshot` dict into this profiler.

        Snapshots are plain picklable dicts, so this is how per-worker
        profiles cross the process boundary: each worker snapshots its own
        profiler and the parent folds the dicts in shard order.
        """
        stages = snapshot.get("stages", {})
        counters = snapshot.get("counters", {})
        observations = snapshot.get("observations", {})
        histograms = snapshot.get("histograms", {})
        with self._lock:
            for name, st in stages.items():
                mine = self.stages.setdefault(name, StageStats())
                mine.calls += int(st["calls"])
                mine.wall_s += float(st["wall_s"])
            for name, v in counters.items():
                self.counters[name] = self.counters.get(name, 0) + int(v)
            for name, ob in observations.items():
                mine = self.observations.setdefault(name, ObservationStats())
                mine.count += int(ob["count"])
                mine.total += float(ob["total"])
                mine.min = min(mine.min, float(ob["min"]))
                mine.max = max(mine.max, float(ob["max"]))
            for name, hd in histograms.items():
                mine_h = self.histograms.get(name)
                if mine_h is None:
                    mine_h = self.histograms[name] = Histogram(
                        bin_width=float(hd["bin_width"])
                    )
                mine_h.merge_dict(hd)

    def reset(self) -> None:
        with self._lock:
            self.stages.clear()
            self.counters.clear()
            self.observations.clear()
            self.histograms.clear()
            self._seq = 0

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Plain-dict view: ``{"stages": {...}, "counters": {...}}``.

        Picklable and mergeable (:meth:`merge_snapshot`): the wire format
        between worker processes and the parent profiler.
        """
        with self._lock:
            return {
                "stages": {k: v.to_dict() for k, v in self.stages.items()},
                "counters": dict(self.counters),
                "observations": {
                    k: v.to_dict() for k, v in self.observations.items()
                },
                "histograms": {
                    k: v.to_dict() for k, v in self.histograms.items()
                },
            }

    def stage_rows(self) -> list[dict]:
        """One row per stage (sorted by wall time, descending)."""
        total = sum(s.wall_s for s in self.stages.values()) or 1.0
        rows = [
            {
                "stage": name,
                "calls": st.calls,
                "wall_s": st.wall_s,
                "share": st.wall_s / total,
            }
            for name, st in self.stages.items()
        ]
        rows.sort(key=lambda r: -r["wall_s"])
        return rows

    def format(self) -> str:
        """Human-readable per-stage table plus the counter inventory."""
        lines = [f"{'stage':<24} {'calls':>7} {'wall_s':>10} {'share':>7}"]
        for r in self.stage_rows():
            lines.append(
                f"{r['stage']:<24} {r['calls']:>7} {r['wall_s']:>10.4f} "
                f"{r['share']:>6.1%}"
            )
        if self.counters:
            lines.append("counters: " + ", ".join(
                f"{k}={v}" for k, v in sorted(self.counters.items())
            ))
        if self.observations:
            lines.append("observations: " + ", ".join(
                f"{k}: n={o.count} mean={o.mean:.4g} max={o.max:.4g}"
                for k, o in sorted(self.observations.items())
            ))
        if self.histograms:
            lines.append("histograms: " + ", ".join(
                f"{k}: n={h.count} p50={h.percentile(50):.4g} "
                f"p99={h.percentile(99):.4g}"
                for k, h in sorted(self.histograms.items())
            ))
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # JSONL trace
    # ------------------------------------------------------------------
    def _ensure_sink(self) -> IO[str] | None:
        if self._sink is not None:
            return self._sink
        if self.trace is None:
            return None
        if isinstance(self.trace, str):
            self._sink = open(self.trace, "w", encoding="utf-8")
            self._owns_sink = True
        else:
            self._sink = self.trace
        return self._sink

    def _emit(self, event: Mapping) -> None:
        sink = self._ensure_sink()
        if sink is None:
            return
        record = dict(event)
        record["seq"] = self._seq
        self._seq += 1
        sink.write(json.dumps(record) + "\n")

    def write_summary(self) -> None:
        """Emit the summary event to the trace sink (no-op without one)."""
        sink = self._ensure_sink()
        if sink is None:
            return
        sink.write(json.dumps({"event": "summary", **self.snapshot()}) + "\n")
        sink.flush()

    def write_trace(self, path: str) -> None:
        """Write the accumulated summary to ``path`` as a one-line JSONL.

        For live per-event traces, construct the profiler with ``trace=``
        instead; this helper is for after-the-fact dumps.
        """
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"event": "summary", **self.snapshot()}) + "\n")

    def close(self) -> None:
        if self._sink is not None and self._owns_sink:
            self._sink.close()
        self._sink = None
        self._owns_sink = False


#: Shared do-nothing sentinel some call sites use instead of ``None`` checks.
NULL_PROFILER: Profiler | None = None
