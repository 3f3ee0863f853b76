"""Executor selection: process pool when possible, in-process otherwise.

The contract every executor here satisfies is tiny — ``map(fn, tasks)``
returning results *in task order*, plus ``shutdown()`` — which keeps the
sharding layer agnostic: byte-identity of the merged result is a property
of the sharding math, not of where the shards ran, and the test suite
exploits that by running most shard-count sweeps on the
:class:`SerialExecutor` (no process-spawn cost) with a thinner matrix on
real process pools.

Start methods: ``fork`` is preferred — children inherit the parent's
imported modules and warm caches copy-on-write — but since the service
tier must run on spawn-only platforms too, :func:`make_executor` now
accepts an explicit ``context`` and supports ``spawn`` pools with an
explicit worker warm-up initializer (:func:`repro.parallel.worker.warm_worker`)
that rebuilds the decomposition cache once per worker process instead of
once per task.  Degradation to the :class:`SerialExecutor` for
``workers > 1`` is no longer silent: it warns once per process and the
sharding layer records ``parallel.fallback_serial`` in the profiler.
"""

from __future__ import annotations

import multiprocessing
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Iterable, Sequence

__all__ = [
    "SerialExecutor",
    "fork_available",
    "make_executor",
    "resolve_context",
    "resolve_workers",
]


class SerialExecutor:
    """Runs shard tasks in the calling process, one after another.

    The ``workers=1`` executor, and the last-resort fallback when the
    requested start method does not exist.  Because the sharding/merge
    math is identical, a serial run through this executor produces the
    same bytes as any process pool.
    """

    #: real process pools run shard tasks elsewhere; the serial executor
    #: does not — callers use this to pick the pickle transport and to
    #: account the ``parallel.fallback_serial`` counter
    is_process_pool = False

    def map(self, fn: Callable, tasks: Iterable) -> list:
        return [fn(t) for t in tasks]

    def shutdown(self, wait: bool = True) -> None:  # noqa: ARG002 - parity
        return None

    def __enter__(self) -> "SerialExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()


class _PoolAdapter:
    """Order-preserving ``map`` over a ``ProcessPoolExecutor``."""

    is_process_pool = True

    def __init__(self, pool: ProcessPoolExecutor, context: str):
        self.pool = pool
        self.context = context

    def map(self, fn: Callable, tasks: Sequence) -> list:
        return list(self.pool.map(fn, tasks))

    def shutdown(self, wait: bool = True) -> None:
        self.pool.shutdown(wait=wait)

    def __enter__(self) -> "_PoolAdapter":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()


def fork_available() -> bool:
    """Whether the ``fork`` start method exists (Linux/macOS CPython)."""
    return "fork" in multiprocessing.get_all_start_methods()


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


def _warn_fallback(workers: int, context: str) -> None:
    global _warned_fallback
    if _warned_fallback:
        return
    _warned_fallback = True
    warnings.warn(
        f"workers={workers} requested but start method {context!r} is "
        "unavailable on this platform; routing serially in-process "
        "(counted as parallel.fallback_serial)",
        RuntimeWarning,
        stacklevel=3,
    )


def make_executor(
    workers: int,
    *,
    context: str = "auto",
    warm_keys: tuple = (),
    force_pool: bool = False,
):
    """An executor for ``workers`` shard processes.

    ``context`` selects the start method: ``"auto"`` (fork where it
    exists, else spawn), ``"fork"``, ``"spawn"``, or ``"serial"``.  Spawn
    workers do not inherit the parent's state, so pools built here install
    :func:`repro.parallel.worker.warm_worker` as the pool initializer —
    each worker warms the decomposition cache *once at start-up* (the
    explicit warm-up handshake) rather than per task.  One worker gets the :class:`SerialExecutor` — unless
    ``force_pool`` asks for a real single-process pool, which the warm
    service does for process isolation even at ``workers=1``.  A concrete
    ``context`` the platform lacks degrades to serial with a single
    :class:`RuntimeWarning` per process.
    """
    if workers <= 1 and not force_pool:
        return SerialExecutor()
    resolved = resolve_context(context)
    if resolved == "serial":
        if context != "serial":
            _warn_fallback(workers, context)
        return SerialExecutor()
    from repro.parallel.worker import warm_worker

    ctx = multiprocessing.get_context(resolved)
    pool = ProcessPoolExecutor(
        max_workers=max(1, workers),
        mp_context=ctx,
        initializer=warm_worker,
        initargs=(tuple(warm_keys),),
    )
    return _PoolAdapter(pool, resolved)
