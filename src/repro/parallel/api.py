""":func:`route_sharded` — the entry point behind ``Router.route(workers=)``.

Every route that is larger than one block, or that asks for more than one
worker, runs here on one plan: contiguous blocks of at most
:data:`~repro.routing.base.ROUTE_BLOCK` packets
(:func:`~repro.parallel.sharding.block_bounds`), one task per block.  The
tasks run on an executor — a process pool, or the in-process
:class:`~repro.parallel.executor.SerialExecutor` for a serial route — and
the merge streams each block's reply into the exact serial bytes.  The
parent resolves the seed *once*
(:func:`~repro.core.randomness.resolve_entropy`) and ships the same
integer to every block, so even ``seed=None`` runs are internally
consistent across block and worker counts.
"""

from __future__ import annotations

from contextlib import nullcontext

from repro.core.randomness import resolve_entropy
from repro.parallel.executor import make_executor, resolve_workers
from repro.parallel.sharding import (
    block_bounds,
    fold_telemetry,
    merge_shard_results,
    release_shard_result,
)
from repro.parallel.worker import ShardTask, prepare_router, route_shard
from repro.routing.base import RoutingProblem, RoutingResult, Router

__all__ = ["route_sharded"]


def route_sharded(
    router: Router,
    problem: RoutingProblem,
    seed: int | None = None,
    *,
    workers: int | None = None,
    packet_offset: int = 0,
    executor=None,
    budget=None,
) -> RoutingResult:
    """Route ``problem`` block by block; byte-identical to one engine call.

    Parameters mirror :meth:`Router.route`; ``executor`` optionally
    injects a pre-built executor (anything with the ordered
    ``map(fn, tasks, release=)`` and ``shutdown`` of
    :class:`~repro.parallel.executor.WorkerPool`) — callers routing many
    problems amortise pool start-up by passing one in (the routing service
    passes its resident pool), and tests sweep block counts on the
    :class:`~repro.parallel.executor.SerialExecutor` without process cost.
    An executor this call created is always shut down before returning —
    success, worker exception or merge failure alike — so a failing route
    can never leak a pool, its child processes or the block segments it
    dropped.

    ``workers=1`` runs the blocks one after another in this process; a
    route of at most one block on one worker is a single
    :meth:`Router.route` call with no task at all.  Blocks that run in
    another process return their CSR through a shared-memory segment
    (:meth:`PathSet.to_shared`), one per block; in-process blocks return
    the arrays inline.
    """
    if not router.is_oblivious:
        raise ValueError(
            f"cannot shard non-oblivious router {router.name!r}: its paths "
            "depend on each other; route with workers=1"
        )
    from repro.core.budget import BudgetParams

    params = BudgetParams.resolve(budget)
    w = resolve_workers(workers)
    entropy = resolve_entropy(seed)
    bounds = block_bounds(problem.num_packets, w)
    if not bounds or (w == 1 and len(bounds) == 1):
        return router.route(
            problem,
            entropy,
            workers=1,
            packet_offset=packet_offset,
            budget=params,
        )

    profiler = router.profiler
    payload = prepare_router(router)
    warm_keys = tuple(router.warmup_keys(problem))
    own_executor = executor is None
    pool = make_executor(w, warm_keys=warm_keys) if own_executor else executor
    try:
        use_shm = bool(getattr(pool, "is_process_pool", False))
        if w > 1 and not use_shm and profiler is not None:
            # workers > 1 was requested but the blocks run in-process —
            # either a platform degradation or an injected SerialExecutor
            profiler.count("parallel.fallback_serial", 1)
        tasks = [
            ShardTask(
                router=payload,
                problem=problem.subproblem(range(a, b), name=problem.name),
                entropy=entropy,
                offset=packet_offset + a,
                warm_keys=warm_keys,
                profile=profiler is not None,
                budget=params,
                use_shm=use_shm,
            )
            for a, b in bounds
        ]
        stage = profiler.stage("parallel.route") if profiler else nullcontext()
        with stage:
            # a block that raises must not strand the replies of the blocks
            # that completed: the pool hands those to release_shard_result
            results = pool.map(route_shard, tasks, release=release_shard_result)

        # Merge first: it consumes (and unlinks) every shared-memory
        # segment the workers handed over, so a failure in the telemetry
        # fold below cannot strand them.
        merged = merge_shard_results(problem, router.name, entropy, results)

        if profiler is not None:
            profiler.count("parallel.shards", len(tasks))
            profiler.count("parallel.workers", w)
        fold_telemetry(results, router, profiler)
        if any(r.bits_log for r in results):
            merged_bits: list[int] = []
            for r in results:
                merged_bits.extend(r.bits_log or [])
            router.bits_log = merged_bits

        ledgers = [r.budget for r in results if r.budget is not None]
        if ledgers:
            total = ledgers[0]
            for extra in ledgers[1:]:
                total.merge(extra)
            merged.budget = total
        return merged
    finally:
        # Owned pools are torn down on *every* exit path, and the pool's
        # shutdown sweeps the segments of workers that died mid-reply.
        if own_executor:
            pool.shutdown()
