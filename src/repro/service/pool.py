"""The warm, self-healing worker pool behind the routing service.

:class:`WarmPool` wraps :func:`repro.parallel.executor.make_executor`
(so it inherits the warm-up initializer, spawn support and the serial
degradation warning) and adds what a *persistent* pool needs:

- **Eager warm-up** — :meth:`prewarm` forces every worker process to
  exist and finish its initializer before the first request arrives, so
  the first request pays warm-dispatch latency, not pool-boot latency.
- **Crash recovery** — a worker the kernel kills breaks the whole
  ``ProcessPoolExecutor``; :meth:`map` catches that, rebuilds the pool
  (counting ``service.worker_restarts``), sweeps shared-memory segments
  the dead workers produced but never delivered, and retries.  Routing
  is deterministic in ``(entropy, index, s, t)``, so a retried task
  returns byte-identical results.
- **Executor protocol** — ``map``/``shutdown``/``is_process_pool``, so
  :func:`~repro.parallel.api.route_sharded` accepts a ``WarmPool`` as its
  injected executor and oversized requests shard across the warm workers.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import BrokenExecutor

from repro.parallel.executor import make_executor, resolve_workers
from repro.service.shm import sweep_worker_segments

__all__ = ["WarmPool"]


def _probe(delay: float) -> int:
    """No-op task used only to force worker processes to spawn."""
    time.sleep(delay)
    return os.getpid()


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - pid reused by another user
        return True
    # A SIGKILLed worker lingers as a zombie until its pool reaps it;
    # signal 0 still succeeds then, but a zombie will never deliver its
    # segments — treat it as dead so the orphan sweep is not racy.
    try:
        with open(f"/proc/{pid}/stat", "rb") as fh:
            return fh.read().rpartition(b")")[2].split()[0] != b"Z"
    except OSError:  # pragma: no cover - no procfs (non-Linux)
        return True


class WarmPool:
    """A process pool that stays warm and survives worker crashes.

    Tasks retried after a crash are re-submitted *as given*; callers whose
    tasks embed consumed resources (request shm segments) pass ``rebuild``
    to :meth:`map` to regenerate them per attempt.
    """

    def __init__(
        self,
        workers: int | None = 2,
        *,
        context: str = "auto",
        warm_keys: tuple = (),
        profiler=None,
        max_retries: int = 2,
    ):
        self.workers = resolve_workers(workers)
        self.context = context
        self.warm_keys = tuple(warm_keys)
        self.profiler = profiler
        self.max_retries = int(max_retries)
        self.worker_restarts = 0
        self._lock = threading.Lock()
        self._generation = 0
        self._build()

    def _build(self) -> None:
        # force_pool: the service wants process isolation (and a warm,
        # crash-replaceable worker) even at workers=1, where the sharding
        # layer would prefer its in-process executor.
        self._adapter = make_executor(
            self.workers,
            context=self.context,
            warm_keys=self.warm_keys,
            force_pool=self.context != "serial",
        )

    @property
    def is_process_pool(self) -> bool:
        return bool(getattr(self._adapter, "is_process_pool", False))

    def pids(self) -> tuple[int, ...]:
        """Live worker pids (empty for the serial fallback)."""
        pool = getattr(self._adapter, "pool", None)
        procs = getattr(pool, "_processes", None) or {}
        return tuple(int(p) for p in procs)

    def prewarm(self) -> None:
        """Spawn and initialise every worker before the first request.

        ``ProcessPoolExecutor`` starts processes lazily; parking one brief
        probe per worker makes the executor spawn its full complement, and
        each process runs the warm-up initializer before its probe — so
        after this returns, the decomposition cache is resident in every
        worker.
        """
        if not self.is_process_pool:
            return
        self._adapter.map(_probe, [0.05] * self.workers)

    def map(self, fn, tasks, *, rebuild=None) -> list:
        """Ordered ``map`` with broken-pool recovery.

        On ``BrokenExecutor`` (a worker died): rebuild the pool, sweep the
        dead workers' orphaned segments, bump ``worker_restarts``, and
        retry — with ``rebuild()``'s fresh tasks when given, else the same
        tasks.  Raises after ``max_retries`` consecutive failures.
        """
        tasks = list(tasks)
        for attempt in range(self.max_retries + 1):
            adapter, generation = self._adapter, self._generation
            pids_before = self.pids()
            try:
                return adapter.map(fn, tasks)
            except BrokenExecutor:
                if attempt >= self.max_retries:
                    raise
                self._restart(generation, pids_before)
                if rebuild is not None:
                    tasks = list(rebuild())
        raise AssertionError("unreachable")  # pragma: no cover

    def _restart(self, generation: int, pids_before: tuple[int, ...]) -> None:
        """Replace a broken executor exactly once per generation."""
        with self._lock:
            if self._generation == generation:
                try:
                    # wait: join the broken pool so its workers are fully
                    # reaped before the sweep below judges them dead
                    self._adapter.shutdown(wait=True)
                except Exception:  # pragma: no cover - already broken
                    pass
                self._build()
                self._generation += 1
                self.worker_restarts += 1
                if self.profiler is not None:
                    self.profiler.count("service.worker_restarts", 1)
            # Dead workers' undelivered reply segments are orphans by
            # construction (pid-named); reclaim them whether or not this
            # thread performed the rebuild.  A SIGKILLed worker can linger
            # briefly (signal delivered, death not yet scheduled), so give
            # each old pid a short grace window to actually die.
            deadline = time.monotonic() + 5.0
            pending = list(pids_before)
            dead: list[int] = []
            while pending and time.monotonic() < deadline:
                still = []
                for p in pending:
                    (dead if not _alive(p) else still).append(p)
                pending = still
                if pending:
                    time.sleep(0.05)
            sweep_worker_segments(dead)

    def sweep_orphans(self) -> list[str]:
        """Reclaim segments of workers that are gone (shutdown-time audit)."""
        return sweep_worker_segments(
            [p for p in self.pids() if not _alive(p)]
        )

    def shutdown(self, wait: bool = True) -> None:
        pids = self.pids()
        self._adapter.shutdown(wait=wait)
        if wait:
            sweep_worker_segments([p for p in pids if not _alive(p)])

    def __enter__(self) -> "WarmPool":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()
