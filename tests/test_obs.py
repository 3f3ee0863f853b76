"""The observability layer: stage timers, counters, JSONL trace schema."""

import io
import json

import numpy as np
import pytest

from repro.core.path_selection import HierarchicalRouter
from repro.mesh.mesh import Mesh
from repro.obs import Profiler, StageStats
from repro.simulation.online import simulate_online
from repro.workloads.permutations import transpose


class TestProfiler:
    def test_stage_accumulates(self):
        prof = Profiler()
        for _ in range(3):
            with prof.stage("work"):
                pass
        assert prof.stages["work"].calls == 3
        assert prof.stages["work"].wall_s >= 0.0

    def test_counters(self):
        prof = Profiler()
        prof.count("packets", 10)
        prof.count("packets", 5)
        prof.count("edges")
        assert prof.counters == {"packets": 15, "edges": 1}

    def test_stage_records_on_exception(self):
        prof = Profiler()
        with pytest.raises(RuntimeError):
            with prof.stage("boom"):
                raise RuntimeError("x")
        assert prof.stages["boom"].calls == 1

    def test_merge(self):
        a, b = Profiler(), Profiler()
        with a.stage("s"):
            pass
        with b.stage("s"):
            pass
        b.count("c", 2)
        a.merge(b)
        assert a.stages["s"].calls == 2
        assert a.counters["c"] == 2

    def test_snapshot_and_rows(self):
        prof = Profiler()
        with prof.stage("s"):
            pass
        prof.count("c", 1)
        snap = prof.snapshot()
        assert snap["stages"]["s"]["calls"] == 1
        assert snap["counters"]["c"] == 1
        rows = prof.stage_rows()
        assert rows[0]["stage"] == "s" and 0.0 <= rows[0]["share"] <= 1.0

    def test_format_mentions_stages_and_counters(self):
        prof = Profiler()
        with prof.stage("assemble"):
            pass
        prof.count("packets", 7)
        text = prof.format()
        assert "assemble" in text and "packets=7" in text

    def test_reset(self):
        prof = Profiler()
        with prof.stage("s"):
            pass
        prof.reset()
        assert prof.stages == {} and prof.counters == {}


class TestConcurrency:
    """The counter/stage lock: concurrent updates must never lose a tick.

    Before the lock, ``count`` was a racy read-modify-write on a plain
    dict entry, so a hammer like this dropped increments.  The assertions
    are exact — any lost update fails the test.
    """

    def test_counter_hammer_exact_total(self):
        import threading

        prof = Profiler()
        n_threads, n_iter = 8, 2_000
        barrier = threading.Barrier(n_threads)

        def work():
            barrier.wait()
            for _ in range(n_iter):
                prof.count("hits")
                prof.count("weighted", 3)

        threads = [threading.Thread(target=work) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert prof.counters["hits"] == n_threads * n_iter
        assert prof.counters["weighted"] == 3 * n_threads * n_iter

    def test_stage_hammer_exact_calls(self):
        import threading

        prof = Profiler()
        n_threads, n_iter = 8, 500
        barrier = threading.Barrier(n_threads)

        def work():
            barrier.wait()
            for _ in range(n_iter):
                with prof.stage("shared"):
                    pass

        threads = [threading.Thread(target=work) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert prof.stages["shared"].calls == n_threads * n_iter
        assert prof.stages["shared"].wall_s >= 0.0

    def test_merge_snapshot_hammer(self):
        import threading

        prof = Profiler()
        donor = Profiler()
        with donor.stage("s"):
            pass
        donor.count("c", 2)
        snap = donor.snapshot()
        n_threads, n_iter = 6, 300
        barrier = threading.Barrier(n_threads)

        def work():
            barrier.wait()
            for _ in range(n_iter):
                prof.merge_snapshot(snap)

        threads = [threading.Thread(target=work) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        total = n_threads * n_iter
        assert prof.stages["s"].calls == total
        assert prof.counters["c"] == 2 * total


class TestTraceSchema:
    """The documented JSONL contract (docs/PERFORMANCE.md)."""

    def _events(self, sink: io.StringIO) -> list[dict]:
        return [json.loads(line) for line in sink.getvalue().splitlines()]

    def test_stage_and_counter_events(self):
        sink = io.StringIO()
        prof = Profiler(trace=sink)
        with prof.stage("s"):
            pass
        prof.count("c", 3)
        events = self._events(sink)
        assert events[0]["event"] == "stage"
        assert events[0]["name"] == "s"
        assert isinstance(events[0]["wall_s"], float)
        assert events[1] == {"event": "counter", "name": "c", "delta": 3, "seq": 1}
        # seq strictly increases
        assert [e["seq"] for e in events] == list(range(len(events)))

    def test_summary_event(self):
        sink = io.StringIO()
        prof = Profiler(trace=sink)
        with prof.stage("s"):
            pass
        prof.count("c", 1)
        prof.write_summary()
        summary = self._events(sink)[-1]
        assert summary["event"] == "summary"
        assert summary["stages"]["s"]["calls"] == 1
        assert summary["counters"] == {"c": 1}

    def test_write_trace_file(self, tmp_path):
        prof = Profiler()
        with prof.stage("s"):
            pass
        path = tmp_path / "trace.jsonl"
        prof.write_trace(str(path))
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["event"] == "summary"

    def test_path_sink_opens_and_closes(self, tmp_path):
        path = tmp_path / "live.jsonl"
        prof = Profiler(trace=str(path))
        with prof.stage("s"):
            pass
        prof.close()
        assert json.loads(path.read_text().splitlines()[0])["name"] == "s"


class TestThreading:
    """Profilers attached to the router and simulator surfaces."""

    def test_router_batch_stages_and_counters(self):
        prof = Profiler()
        router = HierarchicalRouter(profiler=prof)
        mesh = Mesh((8, 8))
        problem = transpose(mesh)
        result = router.route(problem, seed=0)
        for name in ("engine.sequence", "engine.draw", "engine.assemble"):
            assert prof.stages[name].calls == 1
        assert prof.counters["engine.packets"] == problem.num_packets
        assert prof.counters["engine.rng_values"] > 0
        assert prof.counters["engine.edges"] == sum(
            len(p) - 1 for p in result.paths
        )

    def test_router_legacy_loop_stage(self):
        prof = Profiler()
        router = HierarchicalRouter(profiler=prof)
        mesh = Mesh((8, 8), torus=True)  # no batch spec: the per-packet loop
        problem = transpose(mesh)
        router.route(problem, seed=0)
        assert prof.stages["route.select_loop"].calls == 1
        assert prof.counters["route.packets"] == problem.num_packets

    def test_simulate_online_stages(self):
        prof = Profiler()
        stats = simulate_online(
            HierarchicalRouter(),
            Mesh((4, 4)),
            rate=0.2,
            steps=10,
            seed=0,
            profiler=prof,
        )
        assert prof.stages["online.arrivals"].calls == 1
        assert prof.stages["online.inject"].calls == 1
        assert prof.stages["online.advance"].calls >= 1
        assert prof.counters["online.injected"] == stats.injected
        assert prof.counters["online.delivered"] == stats.delivered

    def test_no_profiler_is_default(self):
        router = HierarchicalRouter()
        assert router.profiler is None
        assert router.route(transpose(Mesh((4, 4))), seed=0).validate()
