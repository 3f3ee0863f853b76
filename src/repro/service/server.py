"""The routing daemon: unix-socket front end over a resident worker pool.

``repro serve`` boots a :class:`RoutingService`: a listener thread
accepts connections, a handler thread per connection speaks
:mod:`repro.service.proto`, and routing requests wait on one queue.  The
handler builds each request's mesh, problem, router and pool tasks
before it joins the queue, so a malformed request gets its error reply
at admission.  ``max(2, workers)`` dispatch threads drain the queue:
each takes the head request plus whatever is already waiting (at most
:data:`MAX_BATCH`), with no deadline.  A request's tasks are the blocks
``Router.route(workers=1)`` would run
(:func:`~repro.parallel.api.block_tasks`), which go out by ``map`` to a
prewarmed :class:`~repro.parallel.executor.WorkerPool`, the same
self-healing pool and the same
:func:`~repro.parallel.worker.route_shard` task sharded routes use, kept
for the service's lifetime.  The batch's one-block requests share one
``map`` on the dispatch thread; each request of several blocks gets a
``map`` on a thread of its own, so neither a small request nor the next
batch waits for a large one's blocks.  Each request's slice of the
replies folds into its own result
(:func:`~repro.parallel.api.fold_blocks`). A lone request on an idle
service goes out at once, alone; under load, the requests that queued
behind busy dispatches share the next ``map``, and their blocks spread
over the workers.  Even one worker gets a real process (isolation, crash
replacement); a ``serial`` or unavailable start method routes in-process
instead.

Observability: the service profiler counts ``service.requests``,
``service.batches``, ``service.batched_requests``,
``service.sharded_requests`` (requests of more than one block),
``service.worker_restarts`` and ``service.protocol_errors`` (malformed
messages), observes ``service.queue_depth`` (at admission),
``service.batch_size`` and ``service.request_s`` (admission-to-reply
latency), and brackets each ``map`` in the ``service.worker_batch``
stage.  ``op=stats`` returns a full snapshot.
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

import repro.cache as cache
from repro.core.randomness import resolve_entropy
from repro.mesh.mesh import Mesh
from repro.obs import Profiler
from repro.parallel.api import block_tasks, fold_blocks
from repro.parallel.executor import (
    SerialExecutor,
    WorkerPool,
    resolve_start_method,
    resolve_workers,
)
from repro.parallel.sharding import release_shard_result
from repro.parallel.worker import route_shard
from repro.routing.base import RoutingProblem, Router
from repro.routing.registry import make_router
from repro.service.proto import ProtocolError, recv_msg, send_msg

__all__ = ["MAX_BATCH", "RoutingService", "serve"]

#: the most requests one dispatch drains from the queue
MAX_BATCH = 16

#: queued by stop(); each dispatch thread that takes it puts it back and exits
_STOP = object()


class _RequestFailed(Exception):
    """A request's error reply, delivered through its future."""


@dataclass
class _RoutePayload:
    """One admitted request: its route, its pool tasks and the future of
    its paths."""

    router: Router
    problem: RoutingProblem
    entropy: int
    tasks: list
    reply: Future = field(default_factory=Future)
    enqueued: float = field(default_factory=time.monotonic)


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

    Determinism guarantee: every request is routed on its own blocks,
    with its own resolved entropy and its packets' own global indices —
    never merged into a batch-mate's engine call — so the reply is
    byte-identical to ``make_router(name).route(problem, seed)`` run
    locally, regardless of batching, worker count, or crash/restart
    history.

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
        #: the threads routing requests of several blocks, joined at stop
        self._large: set[threading.Thread] = set()
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
        with self._admit_lock:  # no dispatch thread is left to add one
            large = list(self._large)
        for t in large:
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
        self.profiler.count("service.requests", 1)
        # validated here, so a bad request gets its error reply before it
        # can reach the queue
        sides = tuple(int(s) for s in header.get("mesh", ()))
        torus = bool(header.get("torus", False))
        mesh = cache.memo("mesh", (sides, torus), lambda: Mesh(sides, torus=torus))
        router = make_router(str(header.get("router", "hierarchical")))
        problem = RoutingProblem(mesh, sources, dests, name="service")
        entropy = resolve_entropy(header.get("seed"))
        payload = _RoutePayload(
            router=router,
            problem=problem,
            entropy=entropy,
            tasks=block_tasks(router, problem, entropy, self.pool),
        )
        self.profiler.observe("service.queue_depth", self._queue.qsize())
        with self._admit_lock:
            if self._closing:
                _fail(payload, "service stopped")
            else:
                self._queue.put(payload)
        try:
            paths = payload.reply.result(timeout=self.request_timeout_s)
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
                "entropy": payload.entropy,
                "num_packets": payload.problem.num_packets,
                "elapsed_s": time.monotonic() - payload.enqueued,
            },
            {"nodes": paths.nodes, "offsets": paths.offsets},
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
                    _fail_running(live, exc)
            if stop:
                return

    def _dispatch_batch(self, batch: list) -> None:
        """Route one drained batch; resolve every request's future.

        The one-block requests share one ``map`` in this thread.  Each
        request of several blocks gets a ``map`` on a thread of its own, so
        neither the small requests of its batch nor the next batch wait for
        its blocks.
        """
        self.profiler.count("service.batches", 1)
        self.profiler.count("service.batched_requests", len(batch))
        self.profiler.observe("service.batch_size", len(batch))
        small = [p for p in batch if len(p.tasks) <= 1]
        for p in batch:
            if len(p.tasks) > 1:
                t = threading.Thread(
                    target=self._route_large, args=(p,), name="repro-large"
                )
                with self._admit_lock:
                    self._large.add(t)
                t.start()
        try:
            self._route_group(small)
        except Exception as exc:  # noqa: BLE001 - handlers must not hang
            if len(small) == 1:
                _fail_running(small, exc)
            # one request whose route raises must not fail its batch-mates
            for p in small:
                if p.reply.done():
                    continue
                try:
                    self._route_group([p])
                except Exception as exc:  # noqa: BLE001 - this request only
                    _fail_running([p], exc)

    def _route_large(self, p: _RoutePayload) -> None:
        try:
            self._route_group([p])
        except Exception as exc:  # noqa: BLE001 - handlers must not hang
            _fail_running([p], exc)
        finally:
            with self._admit_lock:
                self._large.discard(threading.current_thread())

    def _route_group(self, group: list) -> None:
        """Every request's blocks in one ``map``; fold each request's slice."""
        if not group:
            return
        tasks: list = []
        spans: list[slice] = []
        for p in group:
            spans.append(slice(len(tasks), len(tasks) + len(p.tasks)))
            tasks += p.tasks
        with self.profiler.stage("service.worker_batch"):
            # a block that raises must not strand the replies of the blocks
            # that completed: the pool hands those to release_shard_result
            results = self.pool.map(
                route_shard, tasks, release=release_shard_result
            )
        folded = 0
        try:
            for p, span in zip(group, spans):
                result = fold_blocks(p.router, p.problem, p.entropy, results[span])
                folded = span.stop
                if span.stop - span.start > 1:
                    self.profiler.count("service.sharded_requests", 1)
                self.profiler.observe(
                    "service.request_s", time.monotonic() - p.enqueued
                )
                p.reply.set_result(result.paths)
        finally:
            # a fold that raised leaves later requests' replies unmerged
            for r in results[folded:]:
                release_shard_result(r)


def _fail(payload: _RoutePayload, error: str) -> None:
    """Resolve a request no dispatch will take with an error reply."""
    if payload.reply.set_running_or_notify_cancel():
        payload.reply.set_exception(_RequestFailed(error))


def _fail_running(batch: list, exc: Exception) -> None:
    """Resolve the dispatched requests still unanswered with ``exc``."""
    msg = f"{type(exc).__name__}: {exc}"
    for p in batch:
        if not p.reply.done():
            p.reply.set_exception(_RequestFailed(msg))


def serve(socket_path: str, **kwargs) -> RoutingService:
    """Build, start and return a :class:`RoutingService` (non-blocking)."""
    return RoutingService(socket_path, **kwargs).start()
