"""POSIX shared-memory primitives with explicit ownership hand-off.

The service tier moves :class:`~repro.core.pathset.PathSet` CSR arrays
between processes through named ``multiprocessing.shared_memory`` segments
instead of pickling them.  That only works if ownership is explicit:
Python's resource tracker assumes *the creating process* owns a segment
and unlinks it (with a warning) when that process exits, which is exactly
wrong for a hand-off — the worker that produced a result dies long before
the parent has consumed it.

The ownership protocol, used everywhere in this repo:

1. The **producer** calls :func:`create_segment`, writes its payload, and
   calls :func:`handoff` — which *unregisters* the segment from the
   producer's resource tracker and closes the producer's mapping.  From
   that moment the producer holds nothing; the segment lives in the
   kernel, owned by whoever holds its descriptor.
2. The **consumer** calls :func:`attach` to map it, reads (zero-copy or
   by copy), then ``close()``\\ s its mapping and — as the terminal act of
   ownership — ``unlink()``\\ s the segment.

A consumer that forgets step 2 leaks kernel memory until reboot; the CI
service-smoke leg audits :func:`active_segments` after shutdown to catch
exactly that.  A segment whose consumer never receives it (its producer
died, or the reply was dropped on an error path) is reclaimed by
:func:`sweep_worker_segments` once the producer is gone.  All
repo-created segments carry the ``repro-`` name prefix so the audit never
flags foreign segments.
"""

from __future__ import annotations

import os
import secrets
from multiprocessing import shared_memory
from pathlib import Path

__all__ = [
    "SEGMENT_PREFIX",
    "active_segments",
    "attach",
    "create_segment",
    "discard",
    "handoff",
    "sweep_worker_segments",
]

#: every segment this repo creates is named ``repro-<pid>-<hex>`` so leak
#: audits can scan for ours and only ours
SEGMENT_PREFIX = "repro-"

_SHM_DIR = Path("/dev/shm")


def create_segment(nbytes: int) -> shared_memory.SharedMemory:
    """A fresh named segment of ``nbytes`` (>= 1) bytes, prefix-named."""
    size = max(int(nbytes), 1)
    for _ in range(16):
        name = f"{SEGMENT_PREFIX}{os.getpid()}-{secrets.token_hex(6)}"
        try:
            return shared_memory.SharedMemory(name=name, create=True, size=size)
        except FileExistsError:  # pragma: no cover - 48-bit collision
            continue
    raise RuntimeError("could not allocate a unique shared-memory name")


def handoff(seg: shared_memory.SharedMemory) -> None:
    """Give up this process's ownership of ``seg`` (producer's final act).

    Unregisters the segment from the local resource tracker — so this
    process exiting no longer auto-unlinks it out from under the consumer
    — and closes the local mapping.  After this call the *receiver* of the
    segment's name owns it and must eventually ``unlink``.
    """
    try:  # CPython keeps this private; degrade to a tracked segment if gone
        from multiprocessing import resource_tracker

        resource_tracker.unregister(seg._name, "shared_memory")  # type: ignore[attr-defined]
    except Exception:  # pragma: no cover - non-CPython fallback
        pass
    seg.close()


def attach(name: str) -> shared_memory.SharedMemory:
    """Map an existing segment by name (consumer side; never registers)."""
    return shared_memory.SharedMemory(name=name)


def discard(name: str) -> bool:
    """Close-and-unlink a segment by name; ``False`` if already gone."""
    try:
        seg = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return False
    seg.close()
    seg.unlink()
    return True


def active_segments(prefix: str = SEGMENT_PREFIX) -> list[str]:
    """Names of live repo-created segments (the leak audit).

    Reads ``/dev/shm`` directly on platforms that expose it; elsewhere
    returns ``[]`` (the audit is then a no-op rather than a false alarm).
    """
    if not _SHM_DIR.is_dir():  # pragma: no cover - non-Linux
        return []
    return sorted(p.name for p in _SHM_DIR.iterdir() if p.name.startswith(prefix))


def sweep_worker_segments(pids) -> list[str]:
    """Discard every live segment created by the given (dead) worker pids.

    Segments are named ``repro-<pid>-<hex>`` precisely so this sweep can
    target one producer without touching anything a live process may
    still deliver.  Returns the names it removed.
    """
    prefixes = tuple(f"{SEGMENT_PREFIX}{int(pid)}-" for pid in pids)
    return [n for n in active_segments() if n.startswith(prefixes) and discard(n)]
