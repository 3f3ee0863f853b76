"""Executor lifecycle regressions: pool teardown, fallback, spawn, shm.

These pin the per-call lifecycle bugs of sharded routes:

1. a failing sharded route used to leak its process pool (the try/finally
   covered only the map, not the merge/telemetry fold) — now an owned
   pool is torn down on *every* exit path;
2. ``make_executor`` used to degrade to the in-process executor silently
   — now it warns once per process and the sharding layer counts
   ``parallel.fallback_serial``;
3. a shard that raised used to strand the shared-memory reply of an
   earlier shard that succeeded — now the owned pool's shutdown sweeps
   the segments of its dead workers, and a worker that dies mid-route is
   replaced and its shard retried;
4. on an injected pool (the service's oversized-request path) the same
   stranded replies outlived the route until the pool's own shutdown —
   now the pool hands every completed reply of a failed map back for
   release.
"""

from __future__ import annotations

import multiprocessing
import os
import signal

import numpy as np
import pytest

from repro.cli import build_workload, parse_mesh
from repro.core import shm as core_shm
from repro.core.path_selection import HierarchicalRouter
from repro.obs import Profiler
from repro.parallel import executor as executor_mod
from repro.parallel.api import route_sharded
from repro.parallel.executor import (
    SerialExecutor,
    WorkerPool,
    make_executor,
    resolve_context,
    resolve_start_method,
)
from repro.routing.base import Router
from repro.routing.registry import make_router

FORK = "fork" in multiprocessing.get_all_start_methods()
SPAWN = "spawn" in multiprocessing.get_all_start_methods()


class ExplodingRouter(Router):
    """An oblivious router whose route() always fails (in the worker)."""

    name = "exploding"
    is_oblivious = True

    def select_path(self, mesh, s, t, rng):  # pragma: no cover - not reached
        raise AssertionError("select_path should not run")

    def route(self, problem, seed=None, **kwargs):
        raise RuntimeError("boom: injected worker failure")


class LaterShardFailsRouter(HierarchicalRouter):
    """Routes the first shard, raises on every later one (in the worker)."""

    def route(self, problem, seed=None, **kwargs):
        if kwargs.get("packet_offset", 0) > 0:
            raise RuntimeError("boom: later shard failed")
        return super().route(problem, seed, **kwargs)


class MiddleBlockFailsRouter(HierarchicalRouter):
    """Routes every block but the one starting at ``fail_at``, which raises."""

    def __init__(self, fail_at: int):
        super().__init__()
        self.fail_at = fail_at

    def route(self, problem, seed=None, **kwargs):
        if kwargs.get("packet_offset", 0) == self.fail_at:
            raise RuntimeError("boom: a middle block failed")
        return super().route(problem, seed, **kwargs)


class DieOnceRouter(HierarchicalRouter):
    """SIGKILLs its worker on a later shard while ``sentinel`` exists."""

    def __init__(self, sentinel: str):
        super().__init__()
        self.sentinel = sentinel

    def route(self, problem, seed=None, **kwargs):
        if kwargs.get("packet_offset", 0) > 0 and os.path.exists(self.sentinel):
            os.unlink(self.sentinel)
            os.kill(os.getpid(), signal.SIGKILL)
        return super().route(problem, seed, **kwargs)


def _new_children(before: set) -> list:
    return [
        p
        for p in multiprocessing.active_children()
        if p.pid not in before and p.is_alive()
    ]


def _problem(spec: str = "8x8", workload: str = "transpose"):
    mesh = parse_mesh(spec)
    return build_workload(workload, mesh, 0)


@pytest.fixture(autouse=True)
def _reset_fallback_warning():
    executor_mod._warned_fallback = False
    yield
    executor_mod._warned_fallback = False


@pytest.mark.skipif(not FORK, reason="needs fork pools")
class TestPoolTeardown:
    def test_failing_sharded_route_leaves_no_live_children(self):
        """The regression: a worker exception must tear the owned pool
        down, leaving no live child processes behind."""
        problem = _problem()
        before = set(p.pid for p in multiprocessing.active_children())
        with pytest.raises(RuntimeError, match="boom"):
            route_sharded(ExplodingRouter(), problem, 0, workers=2)
        leaked = [
            p
            for p in multiprocessing.active_children()
            if p.pid not in before and p.is_alive()
        ]
        assert not leaked, f"failing sharded route leaked children: {leaked}"

    def test_successful_sharded_route_leaves_no_live_children(self):
        problem = _problem()
        router = make_router("hierarchical")
        before = set(p.pid for p in multiprocessing.active_children())
        result = route_sharded(router, problem, 0, workers=2)
        assert result.problem.num_packets == problem.num_packets
        leaked = [
            p
            for p in multiprocessing.active_children()
            if p.pid not in before and p.is_alive()
        ]
        assert not leaked

    def test_failing_shard_leaves_no_segments(self):
        """Shard 0 succeeds and hands its CSR over in shared memory, then
        shard 1 raises: the dropped reply segment must not outlive the
        owned pool."""
        problem = _problem("16x16")
        before = set(core_shm.active_segments())
        children = set(p.pid for p in multiprocessing.active_children())
        with pytest.raises(RuntimeError, match="later shard"):
            route_sharded(LaterShardFailsRouter(), problem, 0, workers=2)
        assert set(core_shm.active_segments()) - before == set()
        assert not _new_children(children)

    def test_injected_pool_releases_completed_blocks(self, monkeypatch):
        """Four blocks on a resident pool; the second raises.  The replies
        of the blocks that completed — before and after the failure — must
        be gone when the route returns, not only after the pool's
        shutdown."""
        from repro.parallel import sharding
        from repro.routing import base

        monkeypatch.setattr(base, "ROUTE_BLOCK", 64)
        problem = _problem("16x16")
        bounds = sharding.block_bounds(problem.num_packets, 2)
        assert len(bounds) == 4
        router = MiddleBlockFailsRouter(fail_at=bounds[1][0])
        pool = WorkerPool(2, context="fork")
        try:
            before = set(core_shm.active_segments())
            with pytest.raises(RuntimeError, match="middle block"):
                route_sharded(router, problem, 0, workers=2, executor=pool)
            assert set(core_shm.active_segments()) - before == set()
            # the pool survives the failed route and still routes
            good = route_sharded(
                make_router("hierarchical"), problem, 0, workers=2, executor=pool
            )
            assert len(good.paths) == problem.num_packets
        finally:
            pool.shutdown()

    def test_worker_killed_mid_route_is_retried(self, tmp_path):
        """A worker SIGKILLed during an owned-pool route breaks the pool;
        the pool is rebuilt, the shards retried, and the route returns the
        serial bytes with nothing left behind."""
        sentinel = str(tmp_path / "die-once")
        open(sentinel, "w").close()
        problem = _problem("16x16")
        serial = make_router("hierarchical").route(problem, 2)
        before = set(core_shm.active_segments())
        children = set(p.pid for p in multiprocessing.active_children())
        result = route_sharded(DieOnceRouter(sentinel), problem, 2, workers=2)
        assert not os.path.exists(sentinel)
        assert result.paths.nodes.tobytes() == serial.paths.nodes.tobytes()
        assert result.paths.offsets.tobytes() == serial.paths.offsets.tobytes()
        assert set(core_shm.active_segments()) - before == set()
        assert not _new_children(children)

    def test_injected_executor_is_not_shut_down(self):
        pool = WorkerPool(2, context="fork")
        try:
            problem = _problem()
            router = make_router("hierarchical")
            a = route_sharded(router, problem, 0, workers=2, executor=pool)
            b = route_sharded(router, problem, 0, workers=2, executor=pool)
            assert a.paths.nodes.tobytes() == b.paths.nodes.tobytes()
        finally:
            pool.shutdown()


class TestSerialFallback:
    def test_unavailable_context_warns_once_and_degrades(self, monkeypatch):
        monkeypatch.setattr(
            executor_mod.multiprocessing, "get_all_start_methods", lambda: []
        )
        with pytest.warns(RuntimeWarning, match="parallel.fallback_serial"):
            ex = make_executor(4)
        assert isinstance(ex, SerialExecutor)
        # second request: same degradation, no second warning
        import warnings as _w

        with _w.catch_warnings():
            _w.simplefilter("error")
            assert isinstance(make_executor(4), SerialExecutor)

    def test_fallback_counts_and_stays_byte_identical(self, monkeypatch):
        monkeypatch.setattr(
            executor_mod.multiprocessing, "get_all_start_methods", lambda: []
        )
        problem = _problem()
        router = make_router("hierarchical")
        serial = router.route(problem, 3)
        profiler = Profiler()
        router.profiler = profiler
        with pytest.warns(RuntimeWarning):
            sharded = route_sharded(router, problem, 3, workers=4)
        assert sharded.paths.nodes.tobytes() == serial.paths.nodes.tobytes()
        assert profiler.snapshot()["counters"]["parallel.fallback_serial"] == 1

    def test_injected_serial_executor_counts_fallback(self):
        problem = _problem()
        router = make_router("hierarchical")
        profiler = Profiler()
        router.profiler = profiler
        route_sharded(
            router, problem, 0, workers=4, executor=SerialExecutor()
        )
        assert profiler.snapshot()["counters"]["parallel.fallback_serial"] == 1

    def test_explicit_serial_context_does_not_warn(self):
        import warnings as _w

        with _w.catch_warnings():
            _w.simplefilter("error")
            assert resolve_start_method(4, "serial") == "serial"

    def test_resolve_context(self):
        assert resolve_context("serial") == "serial"
        assert resolve_context("auto") in ("fork", "spawn")
        with pytest.raises(ValueError):
            resolve_context("threads")


@pytest.mark.skipif(not SPAWN, reason="needs spawn pools")
class TestSpawnContext:
    def test_spawn_pool_byte_identical(self):
        """Spawn workers inherit nothing — the warm-up initializer must
        rebuild their state, and the bytes must still match serial."""
        problem = _problem()
        router = make_router("hierarchical")
        serial = router.route(problem, 5)
        pool = WorkerPool(2, context="spawn")
        try:
            spawned = route_sharded(router, problem, 5, workers=2, executor=pool)
        finally:
            pool.shutdown()
        assert spawned.paths.nodes.tobytes() == serial.paths.nodes.tobytes()
        assert spawned.paths.offsets.tobytes() == serial.paths.offsets.tobytes()


@pytest.mark.skipif(not FORK, reason="needs fork pools")
class TestShmTransport:
    def test_shm_transport_byte_identical_and_clean(self):
        """Shards on a process pool come back through shared memory; the
        merge consumes every segment."""
        problem = _problem("16x16")
        router = make_router("hierarchical")
        serial = router.route(problem, 9)
        before = set(core_shm.active_segments())
        shm_result = route_sharded(router, problem, 9, workers=3)
        assert shm_result.paths.nodes.tobytes() == serial.paths.nodes.tobytes()
        assert set(core_shm.active_segments()) - before == set()
