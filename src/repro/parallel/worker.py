"""Picklable shard tasks/results and the worker-side entry points.

Everything crossing the process boundary lives here and is plain data:
tasks carry the router (profiler and heavyweight per-instance caches
stripped), the shard's subproblem, the resolved entropy, the shard's
global packet offset, and the cache warm-up keys; results carry raw CSR
arrays plus the telemetry the parent folds back in (profiler snapshot,
cache-stats delta, fault counters, bit log).  The same functions run
unchanged under the :class:`~repro.parallel.executor.SerialExecutor`, so
``workers=1`` and ``workers=N`` share one code path end to end.
"""

from __future__ import annotations

import copy
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

import repro.cache as cache
from repro.routing.base import RoutingProblem, Router

__all__ = [
    "ShardTask",
    "ShardResult",
    "OnlinePathTask",
    "OnlinePathResult",
    "prepare_router",
    "route_shard",
    "select_online_paths",
    "warm_worker",
    "PKT_OK",
    "PKT_SKIP",
    "PKT_DROP",
]

#: fault-aware telemetry attributes whose per-shard deltas merge additively
_COUNTER_ATTRS = ("resamples", "detours", "unroutable")


def warm_worker(warm_keys: tuple = ()) -> None:
    """Pool-initializer warm-up: runs once per worker process at start-up.

    Rebuilds the named decomposition cache entries, so even a ``spawn``
    worker (which inherits nothing) is warm before its first shard task
    arrives.  Fork workers run it too — it is idempotent and confirms the
    copy-on-write entries.
    """
    if warm_keys:
        cache.warm(warm_keys)


@contextmanager
def _telemetry(router: Router, profile: bool):
    """Collect one task's worker-side telemetry around the ``with`` body.

    Installs a fresh profiler when ``profile`` is set, and on exit fills
    the yielded dict with the fields every worker result carries: the
    ``profile`` snapshot, the ``cache_stats`` delta and the nonzero
    ``counters`` deltas.  :func:`~repro.parallel.sharding.fold_telemetry`
    is the parent-side inverse.
    """
    if profile:
        from repro.obs import Profiler

        router.profiler = Profiler()
    stats_before = cache.stats()
    before = {a: getattr(router, a) for a in _COUNTER_ATTRS if hasattr(router, a)}
    telemetry: dict = {}
    yield telemetry
    stats_after = cache.stats()
    deltas = {a: int(getattr(router, a)) - int(v) for a, v in before.items()}
    telemetry["counters"] = {a: d for a, d in deltas.items() if d}
    telemetry["profile"] = router.profiler.snapshot() if profile else None
    telemetry["cache_stats"] = {
        "hits": stats_after.hits - stats_before.hits,
        "misses": stats_after.misses - stats_before.misses,
        "entries": stats_after.entries,
    }


def prepare_router(router: Router) -> Router:
    """A shallow copy of ``router`` safe and cheap to pickle.

    The profiler is dropped (workers build their own and return snapshots)
    and known per-instance caches are emptied — workers rebuild them via
    the warm-up handshake instead of deserialising megabytes of tables.
    """
    payload = copy.copy(router)
    payload.profiler = None
    for attr in ("_graph_cache", "_dec_cache"):
        if getattr(payload, attr, None):
            setattr(payload, attr, {})
    if getattr(payload, "inner", None) is not None:  # fault-aware wrapper
        payload.inner = prepare_router(payload.inner)
    return payload


@dataclass
class ShardTask:
    """One worker's slice of a routing problem."""

    router: Router
    problem: RoutingProblem
    entropy: int  #: resolved in the parent — identical for every shard
    offset: int  #: global index of the shard's first packet
    warm_keys: tuple = ()
    profile: bool = False
    #: resolved :class:`~repro.core.budget.BudgetParams` (or ``None``) —
    #: resolved once in the parent so every shard enforces identically
    budget: object | None = None
    #: ship the shard's CSR back through a shared-memory segment
    #: (:class:`~repro.core.pathset.SharedCSR`) instead of pickling the
    #: arrays — set for the blocks of a route of several blocks that run
    #: in another process (:func:`~repro.parallel.api.block_tasks`)
    use_shm: bool = False


@dataclass
class ShardResult:
    """One worker's routed shard, as raw picklable arrays + telemetry.

    Exactly one of (``nodes``/``offsets``, ``shared``) carries the CSR:
    a task without ``use_shm`` returns the arrays inline; one with it
    parks them in a shared segment and ships only the :class:`SharedCSR`
    handle, with segment ownership handed to the parent.
    """

    offset: int
    num_packets: int
    nodes: np.ndarray | None
    offsets: np.ndarray | None
    #: shared-memory handle when the task asked for ``use_shm``
    shared: object | None = None
    #: kept packet indices local to the shard (fault drops); ``None`` = all
    kept: np.ndarray | None = None
    bits_log: list | None = None
    counters: dict = field(default_factory=dict)
    profile: dict | None = None
    cache_stats: dict | None = None
    #: the shard's :class:`~repro.core.budget.BitBudget` ledger; the parent
    #: folds these additively into the merged result's ledger
    budget: object | None = None


#: per-packet selection outcomes of :func:`select_online_paths`
PKT_OK = 0  #: path selected, packet enters the network
PKT_SKIP = 1  #: degenerate (single-node) path: never scheduled or counted
PKT_DROP = 2  #: unroutable under faults: counted injected + dropped


@dataclass
class OnlinePathTask:
    """One worker's slice of an online simulation's injected packets.

    ``router`` is the (prepared) selecting router — the fault-aware
    wrapper on faulty runs — and ``born`` the per-packet injection steps:
    fault-aware selection evaluates the edge-alive mask *at the packet's
    injection step*, so it must travel with the packet, not the shard.
    """

    router: Router
    mesh: object
    sources: np.ndarray
    dests: np.ndarray
    born: np.ndarray
    entropy: int
    offset: int  #: global injection index of the shard's first packet
    warm_keys: tuple = ()
    profile: bool = False


@dataclass
class OnlinePathResult:
    """Selected edge-id sequences of one online shard (CSR + outcomes)."""

    offset: int
    status: np.ndarray  #: per-packet PKT_OK / PKT_SKIP / PKT_DROP
    eids: np.ndarray  #: edge ids of the PKT_OK packets, concatenated
    nedges: np.ndarray  #: edges per PKT_OK packet
    counters: dict = field(default_factory=dict)
    profile: dict | None = None
    cache_stats: dict | None = None


def select_online_paths(task: OnlinePathTask) -> OnlinePathResult:
    """Select every packet's path in one online shard (worker entry point).

    Oblivious selection sees only ``(entropy, global index, s, t)`` — and,
    under faults, the deterministic fault mask at the packet's injection
    step — never the network state, which is exactly why this phase shards
    while arrival enumeration and the advance loop stay serial.
    """
    from repro.core.randomness import SIM_PATHS, packet_stream
    from repro.faults.router import FaultRoutingError

    cache.warm(task.warm_keys)
    router = task.router
    faulty = hasattr(router, "at_step")
    mesh = task.mesh
    n = task.sources.size
    status = np.full(n, PKT_OK, dtype=np.int8)
    seqs: list[np.ndarray] = []
    nedges: list[int] = []
    with _telemetry(router, task.profile) as telemetry:
        for j in range(n):
            if faulty:
                router.at_step = int(task.born[j])
            stream = packet_stream(task.entropy, task.offset + j, prefix=(SIM_PATHS,))
            try:
                path = router.select_path(
                    mesh, int(task.sources[j]), int(task.dests[j]), stream
                )
            except FaultRoutingError:
                status[j] = PKT_DROP
                continue
            if len(path) < 2:
                status[j] = PKT_SKIP
                continue
            seq = mesh.edge_ids(path[:-1], path[1:])
            seqs.append(seq)
            nedges.append(int(seq.size))
            if task.profile:
                # per-shard hop-count distribution; fixed-bin histograms
                # merge exactly in the parent, so the fleet-level view is
                # shard-count invariant (tests/test_traffic_properties.py)
                router.profiler.record_hist("online.path_hops", int(seq.size))
    return OnlinePathResult(
        offset=task.offset,
        status=status,
        eids=(
            np.concatenate(seqs) if seqs else np.empty(0, dtype=np.int64)
        ),
        nedges=np.asarray(nedges, dtype=np.int64),
        **telemetry,
    )


def route_shard(task: ShardTask) -> ShardResult:
    """Route one shard in the current process (the worker entry point)."""
    cold = cache.warm(task.warm_keys)
    router = task.router
    with _telemetry(router, task.profile) as telemetry:
        if task.profile:
            router.profiler.count("parallel.cache_cold_keys", cold)
        result = router.route(
            task.problem,
            task.entropy,
            workers=1,
            packet_offset=task.offset,
            budget=task.budget,
        )
    shared = None
    nodes: np.ndarray | None = result.paths.nodes
    offsets: np.ndarray | None = result.paths.offsets
    if task.use_shm:
        shared = result.paths.to_shared()
        nodes = offsets = None
    return ShardResult(
        offset=task.offset,
        num_packets=task.problem.num_packets,
        nodes=nodes,
        offsets=offsets,
        shared=shared,
        kept=result.kept_indices,
        bits_log=list(router.bits_log) if getattr(router, "bits_log", None) else None,
        budget=result.budget,
        **telemetry,
    )
