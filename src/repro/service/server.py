"""The routing daemon: unix-socket front end over a resident worker pool.

``repro serve`` boots a :class:`RoutingService`: a listener thread
accepts connections, a handler thread per connection speaks
:mod:`repro.service.proto`, and routing requests wait on one queue.
``max(2, workers)`` dispatch threads drain it: each takes the head
request plus whatever is already waiting (at most :data:`MAX_BATCH`),
with no deadline, and ships them as one task to a prewarmed
:class:`~repro.parallel.executor.WorkerPool` — the same self-healing pool
sharded routes run on, kept for the service's lifetime.  A lone request
on an idle service goes out at once, alone; under load, the requests that
queued behind busy dispatches share the next one.  Even one worker gets a
real process (isolation, crash replacement); a ``serial`` or unavailable
start method routes in-process instead.  A request the block plan would
split — an oblivious router on more than
:data:`~repro.routing.base.ROUTE_BLOCK` packets — skips the queue and
shards across the warm workers via :func:`~repro.parallel.api.route_sharded`
(with the pool injected, so no per-request pool boot there either).

Observability: the service profiler counts ``service.requests``,
``service.batches``, ``service.batched_requests``,
``service.sharded_requests``, ``service.worker_restarts`` and
``service.protocol_errors`` (malformed messages), observes
``service.queue_depth`` (at admission), ``service.batch_size`` and
``service.request_s`` (admission-to-reply latency), and brackets pool
dispatches in the ``service.worker_batch`` / ``service.sharded`` stages.
``op=stats`` returns a full snapshot.
"""

from __future__ import annotations

import os
import queue
import socket
import threading
import time
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeout
from dataclasses import dataclass, field

import numpy as np

import repro.cache as cache
from repro.core.pathset import PathSet
from repro.core.randomness import resolve_entropy
from repro.obs import Profiler
from repro.parallel.executor import (
    SerialExecutor,
    WorkerPool,
    resolve_start_method,
    resolve_workers,
)
from repro.routing import base
from repro.routing.registry import make_router
from repro.service.proto import ProtocolError, recv_msg, send_msg
from repro.service.shm import share_pairs
from repro.service.worker import RouteRequest, route_request_batch

__all__ = ["MAX_BATCH", "PAIRS_SHM_MIN", "RoutingService", "serve"]

#: the most requests one dispatch ships to a worker
MAX_BATCH = 16
#: a request of at least this many packets ships its pairs to the worker
#: through a shared-memory segment instead of the task pickle
PAIRS_SHM_MIN = 2048

#: queued by stop(); each dispatch thread that takes it puts it back and exits
_STOP = object()


class _RequestFailed(Exception):
    """A request's error reply, delivered through its future."""


@dataclass
class _RoutePayload:
    """One admitted request: its parameters and the future of its reply."""

    sides: tuple
    torus: bool
    router: str
    entropy: int
    sources: np.ndarray
    dests: np.ndarray
    reply: Future = field(default_factory=Future)
    enqueued: float = field(default_factory=time.monotonic)

    @property
    def n(self) -> int:
        return int(self.sources.size)


def _parse_prewarm(spec: str):
    """``"16x16"`` / ``"8x8x8:torus"`` → a warm-up handshake key."""
    from repro.cli import parse_mesh

    sides, _, flag = spec.partition(":")
    torus = flag == "torus"
    if flag and not torus:
        raise ValueError(f"bad prewarm spec {spec!r} (suffix must be ':torus')")
    return cache.warmup_key(parse_mesh(sides, torus))


class RoutingService:
    """A persistent routing daemon on a unix socket.

    Determinism guarantee: every request is routed with its own resolved
    entropy and ``packet_offset=0`` — never merged into a batch-mate's
    engine call — so the reply is byte-identical to
    ``make_router(name).route(problem, seed)`` run locally, regardless of
    batching, worker count, or crash/restart history.

    ``request_timeout_s`` bounds how long a handler waits for its reply;
    past it the client gets an error and a late reply is dropped.
    """

    def __init__(
        self,
        socket_path: str,
        *,
        workers: int | None = 2,
        context: str = "auto",
        prewarm: tuple = (),
        profiler: Profiler | None = None,
        request_timeout_s: float = 120.0,
    ):
        self.socket_path = str(socket_path)
        self.profiler = profiler if profiler is not None else Profiler()
        self.request_timeout_s = float(request_timeout_s)
        self.warm_keys = tuple(_parse_prewarm(s) for s in prewarm)
        self.workers = resolve_workers(workers)
        start_method = resolve_start_method(self.workers, context)
        self.pool = (
            SerialExecutor()
            if start_method == "serial"
            else WorkerPool(
                self.workers,
                context=start_method,
                warm_keys=self.warm_keys,
                profiler=self.profiler,
            )
        )
        self._queue: queue.Queue = queue.Queue()
        self._admit_lock = threading.Lock()
        self._closing = False
        self._dispatchers = [
            threading.Thread(
                target=self._dispatch_loop, name="repro-dispatch", daemon=True
            )
            for _ in range(max(2, self.workers))
        ]
        self._sock: socket.socket | None = None
        self._stop = threading.Event()
        self._stop_lock = threading.Lock()
        self._stopped = False
        self._accept_thread: threading.Thread | None = None
        self._started = False

    # -- lifecycle -----------------------------------------------------

    def start(self) -> "RoutingService":
        """Prewarm the pool, bind the socket, begin accepting."""
        if self._started:
            return self
        self.pool.prewarm()
        if os.path.exists(self.socket_path):
            os.unlink(self.socket_path)
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.bind(self.socket_path)
        sock.listen(64)
        self._sock = sock
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-accept", daemon=True
        )
        self._accept_thread.start()
        for t in self._dispatchers:
            t.start()
        self._started = True
        return self

    def serve_forever(self) -> None:
        """Block until :meth:`stop` (or Ctrl-C, which stops cleanly)."""
        self.start()
        try:
            while not self._stop.wait(0.5):
                pass
        except KeyboardInterrupt:
            pass
        finally:
            self.stop()

    def stop(self) -> None:
        """Stop accepting, fail what is queued, shut the pool down.

        Blocking and idempotent: every caller returns only after teardown
        has fully completed, even when another thread started it first.
        """
        self._stop.set()
        with self._stop_lock:
            if self._stopped:
                return
            self._stopped = True
            self._teardown()

    def _teardown(self) -> None:
        if self._sock is not None:
            # close() alone does not wake the thread blocked in accept(),
            # which would hold the join below for its whole timeout.
            try:
                self._sock.shutdown(socket.SHUT_RDWR)
            except OSError:  # pragma: no cover - platforms without it
                pass
            try:
                self._sock.close()
            except OSError:  # pragma: no cover
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=10)
        with self._admit_lock:
            self._closing = True
        while True:  # requests no dispatch thread has taken yet
            try:
                _fail(self._queue.get_nowait(), "service stopped")
            except queue.Empty:
                break
        if self._started:
            self._queue.put(_STOP)
            for t in self._dispatchers:
                t.join()
        self.pool.shutdown()
        if os.path.exists(self.socket_path):
            os.unlink(self.socket_path)

    close = stop

    def __enter__(self) -> "RoutingService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- connection handling -------------------------------------------

    def _accept_loop(self) -> None:
        assert self._sock is not None
        while not self._stop.is_set():
            try:
                conn, _ = self._sock.accept()
            except OSError:  # listener closed by stop()
                return
            threading.Thread(
                target=self._handle_connection,
                args=(conn,),
                name="repro-handler",
                daemon=True,
            ).start()

    def _handle_connection(self, conn: socket.socket) -> None:
        with conn:
            while not self._stop.is_set():
                try:
                    msg = recv_msg(conn)
                except ProtocolError as exc:
                    # the stream may be desynchronised: answer, then hang up
                    self.profiler.count("service.protocol_errors", 1)
                    try:
                        send_msg(
                            conn, {"ok": False, "error": f"protocol error: {exc}"}
                        )
                    except OSError:
                        pass
                    return
                except OSError:
                    return
                if msg is None:
                    return
                header, arrays = msg
                op = header.get("op")
                try:
                    if op == "ping":
                        send_msg(conn, {"ok": True, "pid": os.getpid()})
                    elif op == "stats":
                        send_msg(conn, {"ok": True, **self._stats()})
                    elif op == "shutdown":
                        send_msg(conn, {"ok": True})
                        threading.Thread(target=self.stop, daemon=True).start()
                        return
                    elif op == "route":
                        self._handle_route(conn, header, arrays)
                    else:
                        send_msg(
                            conn, {"ok": False, "error": f"unknown op {op!r}"}
                        )
                except (BrokenPipeError, ConnectionError, OSError):
                    return
                except Exception as exc:  # noqa: BLE001 - reply, don't die
                    try:
                        send_msg(
                            conn,
                            {"ok": False, "error": f"{type(exc).__name__}: {exc}"},
                        )
                    except OSError:
                        return

    def _stats(self) -> dict:
        return {
            "workers": self.workers,
            "is_process_pool": self.pool.is_process_pool,
            "worker_restarts": self.pool.worker_restarts,
            "pids": list(self.pool.pids()),
            "queue_depth": self._queue.qsize(),
            "profile": self.profiler.snapshot(),
        }

    # -- routing -------------------------------------------------------

    def _handle_route(self, conn, header: dict, arrays: dict) -> None:
        sources = arrays.get("sources")
        dests = arrays.get("dests")
        if sources is None or dests is None or sources.size != dests.size:
            send_msg(
                conn,
                {"ok": False, "error": "route needs equal-length sources/dests"},
            )
            return
        payload = _RoutePayload(
            sides=tuple(int(s) for s in header.get("mesh", ())),
            torus=bool(header.get("torus", False)),
            router=str(header.get("router", "hierarchical")),
            entropy=resolve_entropy(header.get("seed")),
            sources=sources,
            dests=dests,
        )
        self.profiler.count("service.requests", 1)
        # the block plan's rule (Router._plan): split exactly the routes
        # it would split, and nothing a non-oblivious router asks for
        if payload.n > base.ROUTE_BLOCK:
            router = make_router(payload.router)
            if router.is_oblivious:
                self._route_sharded(conn, payload, router)
                return
        self.profiler.observe("service.queue_depth", self._queue.qsize())
        with self._admit_lock:
            if self._closing:
                _fail(payload, "service stopped")
            else:
                self._queue.put(payload)
        try:
            reply = payload.reply.result(timeout=self.request_timeout_s)
        except FutureTimeout:
            # a queued request is never dispatched; a running one's late
            # reply lands on a future nobody reads
            payload.reply.cancel()
            send_msg(
                conn,
                {"ok": False, "error": "request timed out in the service"},
            )
            return
        except _RequestFailed as exc:
            send_msg(conn, {"ok": False, "error": str(exc)})
            return
        send_msg(
            conn,
            {
                "ok": True,
                "entropy": reply["entropy"],
                "num_packets": reply["num_packets"],
                "elapsed_s": reply["elapsed_s"],
            },
            {"nodes": reply["nodes"], "offsets": reply["offsets"]},
        )

    def _route_sharded(self, conn, payload: _RoutePayload, router) -> None:
        """A request the block plan splits: shard it across the warm pool."""
        from repro.mesh.mesh import Mesh
        from repro.parallel.api import route_sharded
        from repro.routing.base import RoutingProblem

        t0 = time.perf_counter()
        mesh = Mesh(payload.sides, torus=payload.torus)
        problem = RoutingProblem(
            mesh, payload.sources, payload.dests, name="service"
        )
        router.profiler = self.profiler
        with self.profiler.stage("service.sharded"):
            result = route_sharded(
                router,
                problem,
                payload.entropy,
                workers=self.workers,
                executor=self.pool,
            )
        self.profiler.count("service.sharded_requests", 1)
        self.profiler.observe("service.request_s", time.perf_counter() - t0)
        send_msg(
            conn,
            {
                "ok": True,
                "entropy": payload.entropy,
                "num_packets": problem.num_packets,
                "elapsed_s": time.perf_counter() - t0,
            },
            {"nodes": result.paths.nodes, "offsets": result.paths.offsets},
        )

    def _dispatch_loop(self) -> None:
        """Ship the head request plus whatever already waits, until stop."""
        while True:
            batch = [self._queue.get()]
            while batch[-1] is not _STOP and len(batch) < MAX_BATCH:
                try:
                    batch.append(self._queue.get_nowait())
                except queue.Empty:
                    break
            stop = batch[-1] is _STOP
            if stop:
                batch.pop()
                self._queue.put(_STOP)  # for the next dispatch thread
            # a handler that timed out cancelled its queued request
            live = [p for p in batch if p.reply.set_running_or_notify_cancel()]
            if live:
                try:
                    self._dispatch_batch(live)
                except Exception as exc:  # noqa: BLE001 - handlers must not hang
                    msg = f"{type(exc).__name__}: {exc}"
                    for p in live:
                        if not p.reply.done():
                            p.reply.set_exception(_RequestFailed(msg))
            if stop:
                return

    def _dispatch_batch(self, batch: list) -> None:
        """Ship one batch to a warm worker; resolve every request's future."""
        self.profiler.count("service.batches", 1)
        self.profiler.count("service.batched_requests", len(batch))
        self.profiler.observe("service.batch_size", len(batch))
        use_shm = self.pool.is_process_pool

        def build() -> list[RouteRequest]:
            reqs = []
            for i, p in enumerate(batch):
                pairs = None
                sources, dests = p.sources, p.dests
                if use_shm and p.n >= PAIRS_SHM_MIN:
                    pairs = share_pairs(sources, dests)
                    sources = dests = None
                reqs.append(
                    RouteRequest(
                        req_id=i,
                        sides=p.sides,
                        torus=p.torus,
                        router=p.router,
                        entropy=p.entropy,
                        sources=sources,
                        dests=dests,
                        pairs=pairs,
                        reply_shm=use_shm,
                    )
                )
            return reqs

        reqs = build()

        def rebuild() -> list:
            # A retry after a worker crash must not reuse request segments
            # the dead worker may have consumed — discard leftovers and
            # park fresh ones.
            nonlocal reqs
            for r in reqs:
                if r.pairs is not None:
                    r.pairs.discard()
            reqs = build()
            return [reqs]

        try:
            with self.profiler.stage("service.worker_batch"):
                replies = self.pool.map(
                    route_request_batch, [reqs], rebuild=rebuild
                )[0]
        finally:
            # Workers consume request segments as their first act; anything
            # still linked here (crash before take, exhausted retries) is
            # an orphan.  discard() is a no-op for consumed segments.
            for r in reqs:
                if r.pairs is not None:
                    r.pairs.discard()

        by_id = {r.req_id: r for r in replies}
        now = time.monotonic()
        for i, p in enumerate(batch):
            r = by_id.get(i)
            if r is None or not r.ok:
                error = r.error if r is not None else "no reply from worker"
                p.reply.set_exception(_RequestFailed(error))
                continue
            if r.shared is not None:
                # Attach promptly (the parent owns the segment from this
                # instant), copy the CSR out, and release before the reply
                # can escape to a handler thread — so the segment's
                # lifetime never depends on who reads the reply when.
                ps = PathSet.from_shared(r.shared)
                nodes, offsets = np.array(ps.nodes), np.array(ps.offsets)
                ps.close_shared(unlink=True)
            else:
                nodes, offsets = r.nodes, r.offsets
            self.profiler.observe("service.request_s", now - p.enqueued)
            p.reply.set_result(
                {
                    "entropy": r.entropy,
                    "num_packets": r.num_packets,
                    "elapsed_s": r.elapsed_s,
                    "nodes": nodes,
                    "offsets": offsets,
                }
            )


def _fail(payload: _RoutePayload, error: str) -> None:
    """Resolve a request no dispatch will take with an error reply."""
    if payload.reply.set_running_or_notify_cancel():
        payload.reply.set_exception(_RequestFailed(error))


def serve(socket_path: str, **kwargs) -> RoutingService:
    """Build, start and return a :class:`RoutingService` (non-blocking)."""
    return RoutingService(socket_path, **kwargs).start()
