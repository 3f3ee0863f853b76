"""Executors: one self-healing process pool, and the in-process fallback.

The contract every executor here satisfies is tiny — ``map(fn, tasks)``
returning results *in task order*, plus ``shutdown()`` — which keeps the
sharding layer agnostic: byte-identity of the merged result is a property
of the sharding math, not of where the shards ran, and the test suite
exploits that by running most shard-count sweeps on the
:class:`SerialExecutor` (no process-spawn cost) with a thinner matrix on
real process pools.

:class:`WorkerPool` is the one process pool.  Sharded routes and the
online simulator build one per call through :func:`make_executor`; the
routing service keeps one for its lifetime.  Its workers warm the
decomposition cache once at start-up (:func:`repro.parallel.worker.warm_worker`,
so ``spawn`` workers are warm too); a worker the kernel kills is replaced
and its tasks retried, which is byte-safe because routing is
deterministic in ``(entropy, index, s, t)``; and the shared-memory
segments of dead workers — replies they produced but nobody received —
are swept on restart and at shutdown.

Start methods: ``fork`` is preferred — children inherit the parent's
imported modules and warm caches copy-on-write — and ``spawn`` works
everywhere else.  Degradation to the :class:`SerialExecutor` for
``workers > 1`` is never silent: it warns once per process and the
sharding layer records ``parallel.fallback_serial`` in the profiler.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
import warnings
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from typing import Callable, Iterable

from repro.core.shm import sweep_worker_segments

__all__ = [
    "MAX_RETRIES",
    "SerialExecutor",
    "WorkerPool",
    "make_executor",
    "resolve_context",
    "resolve_start_method",
    "resolve_workers",
]

#: consecutive broken-pool retries :meth:`WorkerPool.map` attempts
MAX_RETRIES = 2


class SerialExecutor:
    """Runs shard tasks in the calling process, one after another.

    The ``workers=1`` executor, and the last-resort fallback when the
    requested start method does not exist.  Because the sharding/merge
    math is identical, a serial run through this executor produces the
    same bytes as any process pool.  It speaks the :class:`WorkerPool`
    protocol; nothing in-process crashes, and there are no workers to
    prewarm or list.
    """

    #: real process pools run shard tasks elsewhere; the serial executor
    #: does not — callers use this to pick the shard return path and to
    #: account the ``parallel.fallback_serial`` counter
    is_process_pool = False
    worker_restarts = 0

    def map(self, fn: Callable, tasks: Iterable, *, release=None) -> list:
        # in-process results own no resource to release when a later task
        # raises
        del release
        return [fn(t) for t in tasks]

    def prewarm(self) -> None:
        return None

    def pids(self) -> tuple[int, ...]:
        return ()

    def shutdown(self, wait: bool = True) -> None:  # noqa: ARG002 - parity
        return None

    def __enter__(self) -> "SerialExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()


def _probe(delay: float) -> int:
    """No-op task used only to force worker processes to start."""
    time.sleep(delay)
    return os.getpid()


def _pids(pool: ProcessPoolExecutor) -> tuple[int, ...]:
    """Worker pids of ``pool``; a broken pool still lists its dead workers."""
    return tuple(int(p) for p in getattr(pool, "_processes", None) or {})


def _sweep_dead(pids) -> None:
    """Reclaim the segments of every worker in ``pids`` that no longer exists.

    Called only after the pool that ran them was joined, so a dead worker
    is gone, not a zombie; a pid found alive was reused and is skipped.
    """
    dead = []
    for pid in pids:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            dead.append(pid)
        except PermissionError:  # pragma: no cover - pid reused by another user
            pass
    sweep_worker_segments(dead)


def _gather(futures: list, release) -> list:
    """The futures' results in order; on a raise, cancel and ``release``.

    Waits for the tasks already running so their results can be released
    too; a task that raised or was cancelled has nothing to release.
    """
    try:
        return [f.result() for f in futures]
    except BaseException:
        for f in futures:
            f.cancel()
        if release is not None:
            for f in futures:
                if not f.cancelled() and f.exception() is None:
                    release(f.result())
        raise


class WorkerPool:
    """An ordered-``map`` process pool that stays warm and heals itself.

    ``context`` is a concrete start method (``"fork"`` or ``"spawn"``;
    see :func:`resolve_start_method`).  Tasks retried after a crash are
    re-submitted *as given*: a task is plain data, never a resource the
    dead worker may have consumed.  With a ``profiler``, each restart
    counts ``service.worker_restarts``.
    """

    is_process_pool = True

    def __init__(
        self,
        workers: int,
        *,
        context: str = "fork",
        warm_keys: tuple = (),
        profiler=None,
    ):
        self.workers = max(1, int(workers))
        self.context = context
        self.warm_keys = tuple(warm_keys)
        self.profiler = profiler
        self.worker_restarts = 0
        self._lock = threading.Lock()
        self._generation = 0
        self.pool = self._new_pool()

    def _new_pool(self) -> ProcessPoolExecutor:
        from repro.parallel.worker import warm_worker

        return ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=multiprocessing.get_context(self.context),
            initializer=warm_worker,
            initargs=(self.warm_keys,),
        )

    def pids(self) -> tuple[int, ...]:
        """Worker pids of the current executor."""
        return _pids(self.pool)

    def prewarm(self) -> None:
        """Start and initialise every worker before the first task.

        ``ProcessPoolExecutor`` starts processes lazily; parking one brief
        probe per worker makes it start its full complement, and each
        process runs the warm-up initializer before its probe — so after
        this returns, the decomposition cache is resident in every worker.
        """
        self.map(_probe, [0.05] * self.workers)

    def map(self, fn: Callable, tasks: Iterable, *, release=None) -> list:
        """Ordered ``map`` with broken-pool recovery.

        On ``BrokenExecutor`` (a worker died): rebuild the pool, sweep the
        dead workers' orphaned segments, bump ``worker_restarts``, and
        retry the same tasks.  Raises after :data:`MAX_RETRIES`
        consecutive failures.

        When a task raises, the tasks not yet started are cancelled and the
        results of every task that completed are passed to ``release``
        before the exception propagates, so a reply that owns a resource (a
        shared-memory segment) is never dropped while its worker lives on.
        """
        tasks = list(tasks)
        for attempt in range(MAX_RETRIES + 1):
            pool, generation = self.pool, self._generation
            try:
                return _gather([pool.submit(fn, t) for t in tasks], release)
            except BrokenExecutor:
                if attempt >= MAX_RETRIES:
                    raise
                self._restart(generation, _pids(pool))
        raise AssertionError("unreachable")  # pragma: no cover

    def _restart(self, generation: int, old_pids: tuple[int, ...]) -> None:
        """Replace a broken executor exactly once per generation."""
        with self._lock:
            if self._generation == generation:
                try:
                    # wait: join the broken pool so its workers are fully
                    # reaped before the sweep below judges them dead
                    self.pool.shutdown(wait=True)
                except Exception:  # pragma: no cover - already broken
                    pass
                self.pool = self._new_pool()
                self._generation += 1
                self.worker_restarts += 1
                if self.profiler is not None:
                    self.profiler.count("service.worker_restarts", 1)
            # Dead workers' undelivered reply segments are orphans by
            # construction (pid-named); reclaim them whether or not this
            # thread performed the rebuild — either way the broken pool
            # has been joined by now.
            _sweep_dead(old_pids)

    def shutdown(self, wait: bool = True) -> None:
        """Stop the workers; with ``wait``, sweep segments they left behind."""
        pids = self.pids()
        self.pool.shutdown(wait=wait)
        if wait:
            _sweep_dead(pids)


def resolve_workers(workers: int | None) -> int:
    """Normalise a ``workers`` argument to a concrete positive count.

    ``None`` and ``0`` mean one worker per CPU; anything else must be a
    positive integer.
    """
    if workers is None or workers == 0:
        return os.cpu_count() or 1
    w = int(workers)
    if w < 1:
        raise ValueError(f"workers must be >= 1 (or 0/None for auto), got {workers}")
    return w


def resolve_context(context: str = "auto") -> str:
    """The concrete start method a ``context`` request resolves to.

    ``"auto"`` prefers ``fork`` (cheap, caches inherited copy-on-write)
    and falls back to ``spawn`` — never silently to serial.  ``"serial"``
    names the in-process executor explicitly.  A concrete method that the
    platform lacks resolves to ``"serial"`` (the caller warns).
    """
    if context == "auto":
        methods = multiprocessing.get_all_start_methods()
        if "fork" in methods:
            return "fork"
        return "spawn" if "spawn" in methods else "serial"
    if context == "serial":
        return "serial"
    if context in ("fork", "spawn"):
        return context if context in multiprocessing.get_all_start_methods() else "serial"
    raise ValueError(f"unknown executor context {context!r}")


_warned_fallback = False


def resolve_start_method(workers: int, context: str = "auto") -> str:
    """:func:`resolve_context`, warning once per process on a degradation.

    A requested start method that resolves to ``"serial"`` — anything but
    an explicit ``context="serial"`` — raises a single
    :class:`RuntimeWarning` naming ``parallel.fallback_serial``.
    """
    global _warned_fallback
    resolved = resolve_context(context)
    if resolved == "serial" and context != "serial" and not _warned_fallback:
        _warned_fallback = True
        warnings.warn(
            f"workers={workers} requested but start method {context!r} is "
            "unavailable on this platform; routing serially in-process "
            "(counted as parallel.fallback_serial)",
            RuntimeWarning,
            stacklevel=3,
        )
    return resolved


def make_executor(workers: int, *, warm_keys: tuple = ()):
    """An executor for ``workers`` shard processes.

    One worker gets the :class:`SerialExecutor`; more get a
    :class:`WorkerPool` whose workers warm the named decomposition cache
    entries once at start-up, on fork where it exists and spawn
    elsewhere.  A platform with neither degrades to serial with a single
    :class:`RuntimeWarning` per process.
    """
    resolved = "serial" if workers <= 1 else resolve_start_method(workers)
    if resolved == "serial":
        return SerialExecutor()
    return WorkerPool(workers, context=resolved, warm_keys=warm_keys)
