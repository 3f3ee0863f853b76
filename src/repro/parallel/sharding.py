"""Shard bounds, the byte-identical merge and the telemetry fold.

Shards are *contiguous* index ranges: packet order is preserved, so the
merged CSR is the serial CSR verbatim (no permutation to undo), and the
per-packet global indices a worker needs are just ``offset + row``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

import repro.cache as cache
from repro.core.pathset import PathSet
from repro.routing.base import RoutingProblem, RoutingResult

__all__ = ["fold_telemetry", "merge_shard_results", "shard_bounds"]


def shard_bounds(n: int, workers: int) -> list[tuple[int, int]]:
    """Contiguous ``[start, stop)`` ranges covering ``n`` packets.

    ``np.array_split`` semantics — shard sizes differ by at most one, big
    shards first — with empty shards dropped (more workers than packets).
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    edges = np.linspace(0, n, min(workers, max(n, 1)) + 1).astype(np.int64)
    return [
        (int(a), int(b)) for a, b in zip(edges[:-1], edges[1:]) if b > a
    ]


def merge_shard_results(
    problem: RoutingProblem,
    router_name: str,
    entropy: int,
    shard_results: Sequence,
) -> RoutingResult:
    """Reassemble per-shard worker results into the serial result.

    ``shard_results`` must arrive in shard order.  Paths concatenate CSR-
    verbatim (:meth:`PathSet.concatenate`); if any shard dropped packets
    (fault-aware routing), the kept sets are lifted to global indices and
    the result is built on the same subproblem the serial route would have
    produced.

    Shards that travelled by shared memory (``r.shared`` set) are opened
    zero-copy, concatenated, and their segments unlinked here — the merge
    is the consuming end of the ownership hand-off, so a completed merge
    leaves no segment behind.
    """
    opened: list[PathSet] = []
    parts: list[PathSet] = []
    for r in shard_results:
        if getattr(r, "shared", None) is not None:
            ps = PathSet.from_shared(r.shared)
            opened.append(ps)
            parts.append(ps)
        else:
            parts.append(PathSet.from_arrays(r.nodes, r.offsets))
    try:
        paths = PathSet.concatenate(parts)
        if opened and any(paths is ps for ps in opened):
            # single-shard merge: concatenate returned the shm-backed part
            # itself; copy out so the segment can still be released below
            paths = PathSet.from_arrays(
                np.array(paths.nodes), np.array(paths.offsets)
            )
    finally:
        del parts
        for ps in opened:
            ps.close_shared(unlink=True)
    any_dropped = any(r.kept is not None for r in shard_results)
    if not any_dropped:
        return RoutingResult(problem, paths, router_name, entropy)
    kept_parts = []
    for r in shard_results:
        local = (
            r.kept
            if r.kept is not None
            else np.arange(r.num_packets, dtype=np.int64)
        )
        kept_parts.append(local + (r.offset - shard_results[0].offset))
    kept = np.concatenate(kept_parts) if kept_parts else np.empty(0, dtype=np.int64)
    if kept.size == problem.num_packets:
        return RoutingResult(problem, paths, router_name, entropy)
    sub = problem.subproblem(kept)
    return RoutingResult(
        sub, paths, router_name, entropy, kept_indices=kept
    )


def fold_telemetry(results: Sequence, router, profiler) -> None:
    """Fold worker results' telemetry back into the parent-side objects.

    Each result's ``profile`` snapshot merges into ``profiler`` (when
    there is one), its ``cache_stats`` delta into the process cache
    counters, and its ``counters`` deltas onto ``router``'s attributes —
    the inverse of the worker-side collection in
    :mod:`repro.parallel.worker`.
    """
    for r in results:
        if r.profile is not None and profiler is not None:
            profiler.merge_snapshot(r.profile)
        if r.cache_stats is not None:
            cache.absorb_worker_stats(r.cache_stats)
        for attr, delta in r.counters.items():
            setattr(router, attr, getattr(router, attr, 0) + delta)
