"""Request-side shared-memory transport.

Replies travel as :class:`~repro.core.pathset.SharedCSR` (built into
``PathSet``); this module covers the *request* direction — a batch's
source/destination pairs parked in one segment per request.

Ownership follows the repo-wide protocol of :mod:`repro.core.shm`: the
server creates and hands off, the worker :meth:`SharedPairs.take`\\ s
(read + close + unlink).  A worker that dies before taking leaves the
segment linked; the dispatch retry path discards it explicitly, and the
worker pool's :func:`~repro.core.shm.sweep_worker_segments` catches
anything a dead worker *produced* but never delivered (reply segments are
pid-named, so a dead pid's segments are orphans by construction).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core import shm as core_shm

__all__ = ["SharedPairs", "share_pairs"]


@dataclass(frozen=True)
class SharedPairs:
    """Handle to one request's ``[sources | dests]`` int64 segment."""

    name: str
    n: int  #: packets — the segment holds ``2 * n`` int64 values

    @property
    def nbytes(self) -> int:
        return 16 * self.n

    def take(self) -> tuple[np.ndarray, np.ndarray]:
        """Copy the pairs out, then close and unlink (consumer's last act)."""
        seg = core_shm.attach(self.name)
        try:
            flat = np.frombuffer(
                seg.buf, dtype=np.int64, count=2 * self.n
            ).copy()
        finally:
            seg.close()
        seg.unlink()
        return flat[: self.n], flat[self.n :]

    def discard(self) -> bool:
        """Unlink without reading; ``False`` if already consumed/gone."""
        return core_shm.discard(self.name)


def share_pairs(sources: np.ndarray, dests: np.ndarray) -> SharedPairs:
    """Park ``sources``/``dests`` in a fresh segment and hand it off."""
    s = np.ascontiguousarray(sources, dtype=np.int64)
    d = np.ascontiguousarray(dests, dtype=np.int64)
    if s.shape != d.shape or s.ndim != 1:
        raise ValueError("sources and dests must be 1-D arrays of equal length")
    n = int(s.size)
    seg = core_shm.create_segment(16 * n)
    flat = np.frombuffer(seg.buf, dtype=np.int64, count=2 * n)
    flat[:n] = s
    flat[n:] = d
    del flat
    core_shm.handoff(seg)
    return SharedPairs(name=seg.name, n=n)
