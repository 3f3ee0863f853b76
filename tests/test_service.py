"""Service-tier tests: determinism, recovery, admission edges, leaks.

The contract under test is the one ``docs/SERVICE.md`` documents: a
request routed through ``repro serve`` is byte-identical to the same
route run locally — regardless of batch composition, block count, worker
count, or worker crash/restart history — and a stopped service leaves
nothing behind: no child processes, no ``/dev/shm`` segments, no socket
file.

The dispatch tests gate the ``map`` that ships each drained batch's
blocks to the pool, so every batch boundary they assert is set by the
test, never by a clock.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import struct
import subprocess
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.cli import build_workload, parse_mesh
from repro.core import shm as core_shm
from repro.core.shm import sweep_worker_segments
from repro.parallel.api import block_tasks
from repro.parallel.executor import WorkerPool
from repro.routing import base
from repro.routing.registry import make_router
from repro.service import server
from repro.service.client import ServiceClient, ServiceError
from repro.service.proto import recv_msg
from repro.service.server import RoutingService
from repro.workloads import random_pairs

GOLDEN_PATH = Path(__file__).parent / "golden" / "path_hashes.json"


def _local_bytes(problem, router: str, seed: int) -> tuple[bytes, bytes]:
    result = make_router(router).route(problem, seed)
    return result.paths.nodes.tobytes(), result.paths.offsets.tobytes()


def _live_children() -> list[int]:
    """Child pids of this process, excluding multiprocessing's trackers."""
    out = subprocess.run(
        ["ps", "--ppid", str(os.getpid()), "-o", "pid=,cmd="],
        capture_output=True,
        text=True,
    ).stdout
    pids = []
    for line in out.splitlines():
        pid, _, cmd = line.strip().partition(" ")
        if "resource_tracker" in cmd or cmd.strip().startswith("ps"):
            continue
        pids.append(int(pid))
    return pids


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    """One warm daemon shared by the read-only tests of this module.

    Its block size is 2,000 packets, so small problems reach the
    multi-block path.
    """
    sock = str(tmp_path_factory.mktemp("svc") / "repro.sock")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(base, "ROUTE_BLOCK", 2000)
        svc = RoutingService(sock, workers=2, prewarm=("8x8",)).start()
        yield svc
        svc.stop()


class TestServiceDeterminism:
    def test_small_request_byte_identical(self, service):
        mesh = parse_mesh("8x8")
        problem = build_workload("transpose", mesh, 0)
        with ServiceClient(service.socket_path) as client:
            via = client.route(problem, router="hierarchical", seed=7)
        nodes, offsets = _local_bytes(problem, "hierarchical", 7)
        assert via.paths.nodes.tobytes() == nodes
        assert via.paths.offsets.tobytes() == offsets
        assert via.seed == 7

    def test_unseeded_request_echoes_resolved_entropy(self, service):
        mesh = parse_mesh("8x8")
        problem = build_workload("transpose", mesh, 0)
        with ServiceClient(service.socket_path) as client:
            via = client.route(problem, router="hierarchical", seed=None)
        # replaying the echoed entropy locally reproduces the bytes
        local = make_router("hierarchical").route(problem, via.seed)
        assert via.paths.nodes.tobytes() == local.paths.nodes.tobytes()

    def test_concurrent_clients_each_byte_identical(self, service):
        """Batch composition must be invisible: concurrent requests with
        different seeds land in shared batches, yet each reply matches
        its own serial route."""
        mesh = parse_mesh("8x8")
        problem = build_workload("transpose", mesh, 0)
        results: dict[int, bytes] = {}
        errors: list[Exception] = []

        def one(seed: int) -> None:
            try:
                with ServiceClient(service.socket_path) as client:
                    r = client.route(problem, router="hierarchical", seed=seed)
                results[seed] = r.paths.nodes.tobytes()
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=one, args=(s,)) for s in range(10)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not errors
        assert len(results) == 10
        for seed, nodes in results.items():
            assert nodes == _local_bytes(problem, "hierarchical", seed)[0]

    def test_golden_matrix_sample_through_service(self, service):
        """A sample of committed golden cells, recomputed via the daemon."""
        from tests.golden.regenerate_goldens import _workload, cell_hash

        golden = json.loads(GOLDEN_PATH.read_text())
        sample = [
            k
            for k in golden
            if "|8x8|" in k and "+" not in k.split("|")[0]
        ][:8]
        assert sample, "golden matrix has no plain 8x8 cells?"
        mesh = parse_mesh("8x8")
        problem = _workload(mesh)
        with ServiceClient(service.socket_path) as client:
            for key in sample:
                router, _label, seed_part = key.split("|")
                seed = int(seed_part.removeprefix("seed="))
                via = client.route(problem, router=router, seed=seed)
                assert cell_hash(via) == golden[key], f"cell {key} differs"


class TestAdmissionEdges:
    def test_zero_packet_request(self, service):
        mesh = parse_mesh("8x8")
        empty = np.empty(0, dtype=np.int64)
        with ServiceClient(service.socket_path) as client:
            r = client.route(mesh, empty, empty, seed=1)
        assert len(r.paths) == 0
        assert r.paths.offsets.tolist() == [0]

    def test_oversized_request_shards_across_pool(self, service):
        """A request above ``ROUTE_BLOCK`` runs as several blocks across
        the pool, and still produces serial bytes."""
        mesh = parse_mesh("16x16")
        problem = random_pairs(mesh, 2500, seed=3)  # above ROUTE_BLOCK
        with ServiceClient(service.socket_path) as client:
            before = client.stats()["profile"]["counters"].get(
                "service.sharded_requests", 0
            )
            via = client.route(problem, router="hierarchical", seed=5)
            after = client.stats()["profile"]["counters"]["service.sharded_requests"]
        assert after == before + 1
        nodes, offsets = _local_bytes(problem, "hierarchical", 5)
        assert via.paths.nodes.tobytes() == nodes
        assert via.paths.offsets.tobytes() == offsets

    def test_oversized_non_oblivious_request_routes_whole(self, service):
        """A non-oblivious router is never split, however large the
        request: it routes in one worker call, as ``route(workers=1)``
        does locally."""
        mesh = parse_mesh("8x8")
        problem = random_pairs(mesh, 2100, seed=4)  # above ROUTE_BLOCK
        with ServiceClient(service.socket_path) as client:
            before = client.stats()["profile"]["counters"].get(
                "service.sharded_requests", 0
            )
            via = client.route(problem, router="greedy-offline", seed=6)
            after = client.stats()["profile"]["counters"].get(
                "service.sharded_requests", 0
            )
        assert after == before
        local = make_router("greedy-offline").route(problem, 6, workers=1)
        assert via.paths.nodes.tobytes() == local.paths.nodes.tobytes()
        assert via.paths.offsets.tobytes() == local.paths.offsets.tobytes()

    def test_mismatched_arrays_rejected(self, service):
        # the client validates first, so probe the server's own guard raw
        with ServiceClient(service.socket_path) as client:
            with pytest.raises(ServiceError, match="equal-length"):
                client._rpc(
                    {"op": "route", "mesh": [8, 8], "router": "hierarchical"},
                    {
                        "sources": np.zeros(3, np.int64),
                        "dests": np.zeros(2, np.int64),
                    },
                )

    def test_unknown_router_fails_that_request_only(self, service):
        mesh = parse_mesh("8x8")
        problem = build_workload("transpose", mesh, 0)
        with ServiceClient(service.socket_path) as client:
            with pytest.raises(ServiceError):
                client.route(problem, router="no-such-router")
            ok = client.route(problem, router="hierarchical", seed=2)
        assert ok.paths.nodes.tobytes() == _local_bytes(problem, "hierarchical", 2)[0]

    @pytest.mark.parametrize(
        "header",
        [
            {"op": "route", "arrays": [["sources", -1]]},
            {"op": "route", "arrays": [["sources", 1 << 40]]},
            {"op": "route", "arrays": [["sources", "abc"]]},
            ["op", "route"],
            {"op": "route", "arrays": 5},
        ],
        ids=["negative-count", "huge-count", "string-count", "list", "arrays-int"],
    )
    def test_malformed_header_is_a_counted_protocol_error(self, service, header):
        """A header the protocol cannot honour gets an error reply and a
        ``service.protocol_errors`` count — never a crashed handler thread
        or an allocation sized by the peer's claim."""

        def protocol_errors(client):
            counters = client.stats()["profile"]["counters"]
            return counters.get("service.protocol_errors", 0)

        crashes = []
        old_hook = threading.excepthook
        threading.excepthook = crashes.append
        try:
            with ServiceClient(service.socket_path) as client:
                before = protocol_errors(client)
            payload = json.dumps(header).encode()
            with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as raw:
                raw.connect(service.socket_path)
                raw.sendall(struct.pack(">I", len(payload)) + payload)
                raw.shutdown(socket.SHUT_WR)
                reply = recv_msg(raw)
            problem = build_workload("transpose", parse_mesh("8x8"), 0)
            with ServiceClient(service.socket_path) as client:
                after = protocol_errors(client)
                routed = client.route(problem, seed=3)
        finally:
            threading.excepthook = old_hook
        assert reply is not None, "the handler sent no reply"
        assert reply[0]["ok"] is False
        assert "protocol error" in reply[0]["error"]
        assert after == before + 1
        assert crashes == []
        nodes, offsets = _local_bytes(problem, "hierarchical", 3)
        assert routed.paths.nodes.tobytes() == nodes
        assert routed.paths.offsets.tobytes() == offsets

    def test_unknown_op_and_ping_and_stats(self, service):
        with ServiceClient(service.socket_path) as client:
            assert client.ping()["ok"]
            stats = client.stats()
            assert stats["workers"] == 2
            assert "service.requests" in stats["profile"]["counters"]
            with pytest.raises(ServiceError, match="unknown op"):
                client._rpc({"op": "bogus"})


# ---------------------------------------------------------------------------
# Dispatch: batch what is already waiting
# ---------------------------------------------------------------------------

def _wait_for(predicate, what: str, timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError(f"timed out waiting for {what}")
        time.sleep(0.005)


class _GatedDispatch:
    """Wraps a service's ``pool.map``: records how many blocks each
    drained batch ships, then holds the dispatch thread until the test
    releases a permit."""

    def __init__(self, svc: RoutingService):
        self.sizes: list[int] = []
        self.permits = threading.Semaphore(0)
        self._real = svc.pool.map
        svc.pool.map = self

    def __call__(self, fn, tasks, **kwargs):
        self.sizes.append(len(tasks))
        self.permits.acquire()
        return self._real(fn, tasks, **kwargs)

    def release(self, n: int = 1 << 10) -> None:
        for _ in range(n):
            self.permits.release()


class _Request(threading.Thread):
    """One client request on its own connection, run in the background."""

    def __init__(self, sock: str, problem, seed: int, router="hierarchical"):
        super().__init__(daemon=True)
        self.sock, self.problem, self.seed = sock, problem, seed
        self.router = router
        self.result = self.error = None
        self.start()

    def run(self) -> None:
        try:
            with ServiceClient(self.sock) as client:
                self.result = client.route(
                    self.problem, router=self.router, seed=self.seed
                )
        except Exception as exc:  # noqa: BLE001 - asserted by the test
            self.error = exc


def _occupy_slots(sock: str, problem, gate: _GatedDispatch, slots: int):
    """Park one request in each dispatch slot, one at a time, so no slot
    drains two of them into one batch."""
    busy = []
    for seed in range(slots):
        busy.append(_Request(sock, problem, seed))
        _wait_for(lambda: len(gate.sizes) == seed + 1, "a busy dispatch slot")
    return busy


@pytest.fixture
def transpose8():
    return build_workload("transpose", parse_mesh("8x8"), 0)


class TestDispatch:
    def test_waiting_requests_go_out_as_one_capped_batch(
        self, tmp_path, transpose8
    ):
        sock = str(tmp_path / "drain.sock")
        svc = RoutingService(sock, workers=2, context="serial").start()
        gate = _GatedDispatch(svc)
        try:
            slots = len(svc._dispatchers)
            busy = _occupy_slots(sock, transpose8, gate, slots)
            waiting = [
                _Request(sock, transpose8, slots + s)
                for s in range(server.MAX_BATCH + 3)
            ]
            _wait_for(
                lambda: svc._queue.qsize() == len(waiting), "queued requests"
            )
            gate.release(1)  # one slot frees and drains the queue
            _wait_for(lambda: len(gate.sizes) == slots + 1, "the next batch")
            assert gate.sizes == [1] * slots + [server.MAX_BATCH]
            gate.release()
            for req in busy + waiting:
                req.join(timeout=60)
                assert req.error is None
                nodes, offsets = _local_bytes(transpose8, "hierarchical", req.seed)
                assert req.result.paths.nodes.tobytes() == nodes
                assert req.result.paths.offsets.tobytes() == offsets
            assert sum(gate.sizes) == slots + len(waiting)
        finally:
            gate.release()
            svc.stop()

    def test_lone_request_on_idle_service_goes_alone(
        self, tmp_path, transpose8
    ):
        sock = str(tmp_path / "lone.sock")
        with RoutingService(sock, workers=2, context="serial") as svc:
            gate = _GatedDispatch(svc)
            gate.release()
            with ServiceClient(sock) as client:
                client.route(transpose8, seed=1)
                counters = client.stats()["profile"]["counters"]
            assert svc._queue.qsize() == 0
        assert gate.sizes == [1]
        assert counters["service.batches"] == 1
        assert counters["service.batched_requests"] == 1

    def test_stop_fails_queued_requests_and_joins_dispatchers(
        self, tmp_path, transpose8
    ):
        sock = str(tmp_path / "stop.sock")
        svc = RoutingService(sock, workers=2, context="serial").start()
        gate = _GatedDispatch(svc)
        slots = len(svc._dispatchers)
        busy = _occupy_slots(sock, transpose8, gate, slots)
        queued = [_Request(sock, transpose8, slots + s) for s in range(3)]
        _wait_for(lambda: svc._queue.qsize() == len(queued), "queued requests")
        stopper = threading.Thread(target=svc.stop, daemon=True)
        stopper.start()
        try:
            for req in queued:  # failed at once, not after the busy slots
                req.join(timeout=30)
                assert isinstance(req.error, ServiceError)
                assert "service stopped" in str(req.error)
        finally:
            gate.release()
        stopper.join(timeout=60)
        assert not stopper.is_alive()
        assert not any(t.is_alive() for t in svc._dispatchers)
        for req in busy:  # in flight at stop: completed, not failed
            req.join(timeout=30)
            assert req.error is None
        assert gate.sizes == [1] * slots

    def test_timed_out_request_gets_an_error_and_its_late_reply_is_dropped(
        self, tmp_path, transpose8
    ):
        sock = str(tmp_path / "timeout.sock")
        svc = RoutingService(
            sock, workers=2, context="serial", request_timeout_s=0.2
        ).start()
        gate = _GatedDispatch(svc)
        try:
            with ServiceClient(sock) as client:
                with pytest.raises(
                    ServiceError, match="request timed out in the service"
                ):
                    client.route(transpose8, seed=1)
                gate.release()
                # the same connection answers its next request with that
                # request's own bytes: the late reply never reached it
                via = client.route(transpose8, seed=2)
            nodes, offsets = _local_bytes(transpose8, "hierarchical", 2)
            assert via.paths.nodes.tobytes() == nodes
            assert via.paths.offsets.tobytes() == offsets
            assert gate.sizes == [1, 1]
        finally:
            gate.release()
            svc.stop()

    def test_request_that_times_out_while_queued_is_never_dispatched(
        self, tmp_path, transpose8
    ):
        sock = str(tmp_path / "cancel.sock")
        svc = RoutingService(
            sock, workers=2, context="serial", request_timeout_s=0.2
        ).start()
        gate = _GatedDispatch(svc)
        try:
            slots = len(svc._dispatchers)
            busy = _occupy_slots(sock, transpose8, gate, slots)
            late = _Request(sock, transpose8, slots)
            late.join(timeout=30)
            assert "request timed out in the service" in str(late.error)
            gate.release()
            for req in busy:
                req.join(timeout=30)
            with ServiceClient(sock) as client:
                client.route(transpose8, seed=9)
            assert gate.sizes == [1] * (slots + 1)
        finally:
            gate.release()
            svc.stop()

    def test_oversized_request_waits_in_the_queue_and_times_out(
        self, tmp_path, monkeypatch
    ):
        """A request of several blocks goes through the one queue like any
        other: held at the gate, its handler answers at
        ``request_timeout_s`` instead of waiting on the blocks."""
        monkeypatch.setattr(base, "ROUTE_BLOCK", 64)
        problem = random_pairs(parse_mesh("8x8"), 200, seed=2)
        sock = str(tmp_path / "big-timeout.sock")
        svc = RoutingService(
            sock, workers=2, context="serial", request_timeout_s=0.2
        ).start()
        gate = _GatedDispatch(svc)
        try:
            req = _Request(sock, problem, 3)
            req.join(timeout=10)
            assert isinstance(req.error, ServiceError)
            assert "request timed out in the service" in str(req.error)
            assert gate.sizes == [4]  # its four blocks, held at the gate
        finally:
            gate.release()
            svc.stop()

    def test_mixed_batch_routes_each_request_on_its_own_blocks(
        self, tmp_path, monkeypatch, transpose8
    ):
        """One drained batch: a one-block request, a four-block request and
        a large non-oblivious request (one task).  The two one-task
        requests share one ``map`` on a real pool and the four blocks get
        one of their own; each reply is its own local bytes."""
        monkeypatch.setattr(base, "ROUTE_BLOCK", 64)
        mesh = parse_mesh("8x8")
        big = random_pairs(mesh, 200, seed=1)
        whole = random_pairs(mesh, 100, seed=2)
        sock = str(tmp_path / "mixed.sock")
        svc = RoutingService(sock, workers=2).start()
        gate = _GatedDispatch(svc)

        def sharded(client) -> int:
            counters = client.stats()["profile"]["counters"]
            return counters.get("service.sharded_requests", 0)

        try:
            slots = len(svc._dispatchers)
            busy = _occupy_slots(sock, transpose8, gate, slots)
            with ServiceClient(sock) as client:
                before = sharded(client)
            mixed = [
                _Request(sock, transpose8, 11),
                _Request(sock, big, 12),
                _Request(sock, whole, 13, router="greedy-offline"),
            ]
            _wait_for(lambda: svc._queue.qsize() == 3, "queued requests")
            gate.release(1)
            _wait_for(lambda: len(gate.sizes) == slots + 2, "the mixed batch")
            assert sorted(gate.sizes[slots:]) == [1 + 1, 4]
            gate.release()
            for req in busy + mixed:
                req.join(timeout=60)
                assert req.error is None
                nodes, offsets = _local_bytes(req.problem, req.router, req.seed)
                assert req.result.paths.nodes.tobytes() == nodes
                assert req.result.paths.offsets.tobytes() == offsets
            with ServiceClient(sock) as client:
                after = sharded(client)
        finally:
            gate.release()
            svc.stop()
        assert after == before + 1

    def test_small_requests_do_not_wait_for_a_large_batch_mate(
        self, tmp_path, monkeypatch, transpose8
    ):
        """A batch that drained a four-block request ahead of two one-block
        requests answers the small ones, and frees its dispatch thread,
        while the large one's blocks are still held."""
        monkeypatch.setattr(base, "ROUTE_BLOCK", 64)
        big = random_pairs(parse_mesh("8x8"), 200, seed=1)
        svc = RoutingService(str(tmp_path / "hol.sock"), workers=2, context="serial")
        hold = threading.Event()
        real_map = svc.pool.map

        def gated_map(fn, tasks, **kwargs):
            if len(tasks) == 4:  # the large request's blocks
                hold.wait(timeout=60)
            return real_map(fn, tasks, **kwargs)

        svc.pool.map = gated_map

        def payload(problem, seed):
            router = make_router("hierarchical")
            tasks = block_tasks(router, problem, seed, svc.pool)
            return server._RoutePayload(router, problem, seed, tasks)

        batch = [payload(big, 1), payload(transpose8, 2), payload(transpose8, 3)]
        for p in batch:
            assert p.reply.set_running_or_notify_cancel()
        try:
            svc._dispatch_batch(batch)  # returns with the large route held
            for p in batch[1:]:
                nodes, offsets = _local_bytes(transpose8, "hierarchical", p.entropy)
                assert p.reply.result(timeout=0).nodes.tobytes() == nodes
                assert p.reply.result(timeout=0).offsets.tobytes() == offsets
            assert not batch[0].reply.done()
        finally:
            hold.set()
        nodes, offsets = _local_bytes(big, "hierarchical", 1)
        assert batch[0].reply.result(timeout=60).nodes.tobytes() == nodes
        svc.stop()  # joins the large route's thread
        assert not svc._large
        counters = svc.profiler.snapshot()["counters"]
        assert counters["service.sharded_requests"] == 1

    def test_request_whose_route_raises_fails_alone(self, tmp_path, transpose8):
        """A route that raises in the pool fails its own request; the
        batch-mate it shared a ``map`` with still gets its bytes."""
        bad = build_workload("transpose", parse_mesh("6x6"), 0)
        sock = str(tmp_path / "isolate.sock")
        svc = RoutingService(sock, workers=2, context="serial").start()
        gate = _GatedDispatch(svc)
        try:
            slots = len(svc._dispatchers)
            busy = _occupy_slots(sock, transpose8, gate, slots)
            failing = _Request(sock, bad, 1)
            good = _Request(sock, transpose8, 2)
            _wait_for(lambda: svc._queue.qsize() == 2, "queued requests")
            gate.release()
            for req in busy + [failing, good]:
                req.join(timeout=60)
            assert gate.sizes[slots] == 2  # they shared one batch
            assert isinstance(failing.error, ServiceError)
            assert "pad_to_power_of_two" in str(failing.error)
            assert good.error is None
            nodes, offsets = _local_bytes(transpose8, "hierarchical", 2)
            assert good.result.paths.nodes.tobytes() == nodes
            assert good.result.paths.offsets.tobytes() == offsets
        finally:
            gate.release()
            svc.stop()


# ---------------------------------------------------------------------------
# Crash recovery
# ---------------------------------------------------------------------------

_SENTINELS = {}


def _die_once_then_pid(sentinel: str) -> int:
    """Worker task: SIGKILL ourselves the first time, return pid after."""
    if os.path.exists(sentinel):
        os.unlink(sentinel)
        os.kill(os.getpid(), signal.SIGKILL)
    return os.getpid()


@pytest.mark.skipif(
    "fork" not in __import__("multiprocessing").get_all_start_methods(),
    reason="needs fork pools",
)
class TestCrashRecovery:
    def test_warmpool_retries_task_killed_mid_request(self, tmp_path):
        """A worker killed *while running the task* breaks the pool; the
        retried task runs on a fresh worker and succeeds."""
        sentinel = str(tmp_path / "die-once")
        open(sentinel, "w").close()
        pool = WorkerPool(2, context="fork")
        try:
            pids = pool.map(_die_once_then_pid, [sentinel])
            assert len(pids) == 1 and pids[0] > 0
            assert pool.worker_restarts == 1
        finally:
            pool.shutdown()
        assert not os.path.exists(sentinel)

    def test_service_survives_worker_kill_byte_identical(self, tmp_path):
        """Kill a warm worker; the next request is retried on a fresh
        worker, returns serial bytes, and the restart is counted."""
        sock = str(tmp_path / "crash.sock")
        svc = RoutingService(sock, workers=1, context="fork").start()
        try:
            mesh = parse_mesh("8x8")
            problem = build_workload("transpose", mesh, 0)
            with ServiceClient(sock) as client:
                first = client.route(problem, seed=4)
                victims = client.stats()["pids"]
                assert victims
                for pid in victims:
                    os.kill(pid, signal.SIGKILL)
                time.sleep(0.2)
                second = client.route(problem, seed=4)
                stats = client.stats()
            assert first.paths.nodes.tobytes() == second.paths.nodes.tobytes()
            assert stats["worker_restarts"] >= 1
            assert (
                stats["profile"]["counters"]["service.worker_restarts"] >= 1
            )
        finally:
            svc.stop()

    def test_dead_worker_segments_swept_on_restart(self, tmp_path):
        """Segments a dead worker produced but never delivered are
        reclaimed by the restart sweep."""
        pool = WorkerPool(1, context="fork")
        try:
            pool.prewarm()
            (victim,) = pool.pids()
            # a segment the victim "produced": same name shape the sweep keys on
            seg = core_shm.create_segment(64)
            orphan = seg.name.replace(str(os.getpid()), str(victim), 1)
            core_shm.handoff(seg)
            src = Path("/dev/shm") / seg.name
            src.rename(Path("/dev/shm") / orphan)
            os.kill(victim, signal.SIGKILL)
            # next dispatch hits the broken pool, rebuilds, retries fine
            (pid,) = pool.map(_die_once_then_pid, ["/nonexistent-sentinel"])
            assert pid != victim
            assert pool.worker_restarts >= 1
            # ... and the dead pid's undelivered segment was swept
            assert orphan not in core_shm.active_segments()
        finally:
            pool.shutdown()


# ---------------------------------------------------------------------------
# Lifecycle hygiene
# ---------------------------------------------------------------------------

class TestLifecycleHygiene:
    def test_full_lifecycle_leaks_nothing(self, tmp_path, monkeypatch):
        """Boot, route (one block + several blocks), stop: no children,
        no segments, no socket file."""
        monkeypatch.setattr(base, "ROUTE_BLOCK", 500)
        before_children = set(_live_children())
        before_segments = set(core_shm.active_segments())
        sock = str(tmp_path / "clean.sock")
        svc = RoutingService(sock, workers=2).start()
        mesh = parse_mesh("8x8")
        small = build_workload("transpose", mesh, 0)
        big = random_pairs(mesh, 800, seed=1)
        with ServiceClient(sock) as client:
            client.route(small, seed=0)
            client.route(big, seed=0)
            counters = client.stats()["profile"]["counters"]
        svc.stop()
        assert counters["service.sharded_requests"] == 1
        assert set(core_shm.active_segments()) - before_segments == set()
        assert not os.path.exists(sock)
        leaked = set(_live_children()) - before_children
        assert not leaked, f"service left children behind: {leaked}"

    def test_sweep_targets_only_named_pids(self):
        seg = core_shm.create_segment(32)
        name = seg.name
        core_shm.handoff(seg)
        try:
            assert sweep_worker_segments([999999999]) == []
            assert name in core_shm.active_segments()
            assert name in sweep_worker_segments([os.getpid()])
        finally:
            core_shm.discard(name)

    def test_stop_is_idempotent_and_blocking(self, tmp_path):
        sock = str(tmp_path / "stop.sock")
        svc = RoutingService(sock, workers=1).start()
        svc.stop()
        svc.stop()  # second call returns immediately, no error
        assert not os.path.exists(sock)

    def test_shutdown_op_stops_the_daemon(self, tmp_path):
        sock = str(tmp_path / "op.sock")
        svc = RoutingService(sock, workers=1).start()
        with ServiceClient(sock) as client:
            client.shutdown_server()
        deadline = time.monotonic() + 10
        while os.path.exists(sock) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not os.path.exists(sock)
        svc.stop()  # idempotent with the op-initiated stop
