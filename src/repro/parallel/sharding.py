"""The block plan, the byte-identical streamed merge and the telemetry fold.

Every route larger than one block is split here and nowhere else: into
contiguous blocks of at most :data:`~repro.routing.base.ROUTE_BLOCK`
packets (:func:`block_bounds`), at least one per worker.  Blocks are
*contiguous* index ranges: packet order is preserved, so the merged CSR is
the serial CSR verbatim (no permutation to undo), and the per-packet
global indices a block needs are just ``offset + row``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

import repro.cache as cache
from repro.core.pathset import PathSet
from repro.routing import base
from repro.routing.base import RoutingProblem, RoutingResult

__all__ = [
    "block_bounds",
    "fold_telemetry",
    "merge_shard_results",
    "release_shard_result",
    "shard_bounds",
]


def shard_bounds(n: int, workers: int) -> list[tuple[int, int]]:
    """Contiguous ``[start, stop)`` ranges covering ``n`` packets.

    ``np.array_split`` semantics — shard sizes differ by at most one, big
    shards first — with empty shards dropped (more workers than packets).
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    parts = min(workers, max(n, 1))
    if parts == 1:  # the common one-block case, without numpy's fixed cost
        return [(0, n)] if n else []
    edges = np.linspace(0, n, parts + 1).astype(np.int64)
    return [
        (int(a), int(b)) for a, b in zip(edges[:-1], edges[1:]) if b > a
    ]


def block_bounds(n: int, workers: int) -> list[tuple[int, int]]:
    """The block plan of an ``n``-packet route on ``workers`` workers.

    :func:`shard_bounds` over ``max(workers, ceil(n / ROUTE_BLOCK))``
    parts: every worker gets a block, and no block exceeds
    :data:`~repro.routing.base.ROUTE_BLOCK` packets.
    """
    return shard_bounds(n, max(workers, -(-n // base.ROUTE_BLOCK)))


#: what a released inline part's ``nodes`` and ``offsets`` are left holding
_DROPPED = np.empty(0, dtype=np.int64)


def release_shard_result(r) -> None:
    """Free a shard result's CSR: unlink its segment or drop its arrays.

    The merge calls it on each inline part once copied, and on every part
    it did not reach when it fails.  Safe to call twice and on a result
    whose segment is already gone.
    """
    if r.shared is not None:
        r.shared.discard()
    else:
        r.nodes = r.offsets = _DROPPED


def _part_size(r) -> tuple[int, int]:
    """``(num_paths, num_nodes)`` of one shard result, without opening it."""
    if r.shared is not None:
        return int(r.shared.num_paths), int(r.shared.num_nodes)
    return int(r.offsets.size) - 1, int(r.nodes.size)


def merge_shard_results(
    problem: RoutingProblem,
    router_name: str,
    entropy: int,
    shard_results: Sequence,
) -> RoutingResult:
    """Reassemble per-shard worker results into the serial result.

    ``shard_results`` must arrive in shard order.  The output CSR is
    preallocated from the parts' sizes, and the parts are streamed into it
    one at a time: each part's nodes are copied verbatim and its offsets
    shifted by the nodes before it, then the part is released — a
    shared-memory reply (``r.shared`` set) is closed and unlinked, an inline
    part's arrays are dropped — before the next is touched.  Only the output
    and one block are in memory at once.  On any error every part not yet
    consumed is released too, so no exit leaves a segment behind.

    If any shard dropped packets (fault-aware routing), the kept sets are
    lifted to global indices and the result is built on the same subproblem
    the serial route would have produced.
    """
    consumed = 0
    try:
        sizes = [_part_size(r) for r in shard_results]
        nodes = np.empty(sum(m for _, m in sizes), dtype=np.int64)
        offsets = np.empty(sum(k for k, _ in sizes) + 1, dtype=np.int64)
        offsets[0] = 0
        row = at = 0
        for r, (k, m) in zip(shard_results, sizes):
            if r.shared is not None:
                part = PathSet.from_shared(r.shared)
                try:
                    nodes[at : at + m] = part.nodes
                    np.add(part.offsets[1:], at, out=offsets[row + 1 : row + k + 1])
                finally:
                    part.close_shared(unlink=True)
            else:
                nodes[at : at + m] = r.nodes
                np.add(r.offsets[1:], at, out=offsets[row + 1 : row + k + 1])
                release_shard_result(r)
            consumed += 1
            row, at = row + k, at + m
    finally:
        for r in shard_results[consumed:]:
            release_shard_result(r)
    nodes.setflags(write=False)
    offsets.setflags(write=False)
    paths = PathSet(nodes, offsets)
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
