"""POSIX shared-memory primitives with explicit ownership hand-off.

The service tier moves :class:`~repro.core.pathset.PathSet` CSR arrays
between processes through named POSIX shared-memory segments instead of
pickling them.  That only works if ownership is explicit, so segments
here bypass ``multiprocessing.shared_memory`` and its resource tracker.
The tracker assumes that every process that maps a segment owns it: it
unlinks, with a warning, whatever a process still has registered when
that process exits, which is exactly wrong for a hand-off, and it costs
two tracker pipe writes per register and per unregister.

The ownership protocol, used everywhere in this repo:

1. The **producer** calls :func:`create_segment`, writes its payload, and
   calls :func:`handoff`, which closes the producer's mapping.  From that
   moment the producer holds nothing; the segment lives in the kernel,
   owned by whoever holds its name.
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

import mmap
import os
import secrets
from pathlib import Path

import _posixshmem  # CPython's shm_open/shm_unlink, as shared_memory uses

__all__ = [
    "SEGMENT_PREFIX",
    "Segment",
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


class Segment:
    """One mapped segment: its ``name``, ``size`` and a ``buf`` memoryview.

    The subset of ``multiprocessing.shared_memory.SharedMemory`` this repo
    uses, without resource-tracker registration.
    """

    def __init__(self, name: str, fd: int, size: int):
        self.name = name
        self.size = size
        self._mmap = mmap.mmap(fd, size)
        self.buf = memoryview(self._mmap)

    def close(self) -> None:
        """Unmap this process's view; the segment itself stays linked.

        Raises ``BufferError`` while an array still exports the mapping.
        """
        if self.buf is not None:
            self.buf.release()
            self.buf = None
        self._mmap.close()

    def unlink(self) -> None:
        """Remove the segment's name (the owner's final act)."""
        _posixshmem.shm_unlink("/" + self.name)


def _open(name: str, flags: int, size: int | None = None) -> Segment:
    fd = _posixshmem.shm_open("/" + name, flags, mode=0o600)
    try:
        if size is None:
            size = os.fstat(fd).st_size
        else:
            os.ftruncate(fd, size)
        return Segment(name, fd, size)
    finally:
        os.close(fd)


def create_segment(nbytes: int) -> Segment:
    """A fresh named segment of ``nbytes`` (>= 1) bytes, prefix-named."""
    size = max(int(nbytes), 1)
    for _ in range(16):
        name = f"{SEGMENT_PREFIX}{os.getpid()}-{secrets.token_hex(6)}"
        try:
            return _open(name, os.O_CREAT | os.O_EXCL | os.O_RDWR, size)
        except FileExistsError:  # pragma: no cover - 48-bit collision
            continue
    raise RuntimeError("could not allocate a unique shared-memory name")


def handoff(seg: Segment) -> None:
    """Give up this process's hold on ``seg`` (producer's final act).

    Closes the local mapping.  After this call the *receiver* of the
    segment's name owns it and must eventually ``unlink``; nothing in this
    process unlinks it, even when the process exits.
    """
    seg.close()


def attach(name: str) -> Segment:
    """Map an existing segment by name (consumer side)."""
    return _open(name, os.O_RDWR)


def discard(name: str) -> bool:
    """Unlink a segment by name; ``False`` if already gone."""
    try:
        _posixshmem.shm_unlink("/" + name)
    except FileNotFoundError:
        return False
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
