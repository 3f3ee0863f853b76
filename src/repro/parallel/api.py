""":func:`route_sharded` — the entry point behind ``Router.route(workers=)``.

Splits the problem into contiguous shards, routes them on an executor
(process pool or in-process), and merges per-shard results into the exact
serial bytes.  The parent resolves the seed *once*
(:func:`~repro.core.randomness.resolve_entropy`) and ships the same
integer to every worker, so even ``seed=None`` runs are internally
consistent across shard counts.
"""

from __future__ import annotations

from contextlib import nullcontext

from repro.core.randomness import resolve_entropy
from repro.parallel.executor import make_executor, resolve_workers
from repro.parallel.sharding import fold_telemetry, merge_shard_results, shard_bounds
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
    """Route ``problem`` in shards; byte-identical to the serial engine.

    Parameters mirror :meth:`Router.route`; ``executor`` optionally
    injects a pre-built executor (anything with ordered ``map`` +
    ``shutdown``) — callers routing many problems amortise pool start-up
    by passing one in (the routing service passes its resident
    :class:`~repro.parallel.executor.WorkerPool`), and tests sweep shard
    counts on the :class:`~repro.parallel.executor.SerialExecutor`
    without process cost.  An executor this call created is always shut
    down before returning — success, worker exception or merge failure
    alike — so a failing sharded route can never leak a pool, its child
    processes or the shard segments it dropped.

    Shards that run in another process return their CSR through a
    shared-memory segment (:meth:`PathSet.to_shared`); in-process shards
    return the arrays inline.
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
    n = problem.num_packets
    if w == 1 or n == 0:
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
        if not use_shm and profiler is not None:
            # workers > 1 was requested but the shards run in-process —
            # either a platform degradation or an injected SerialExecutor
            profiler.count("parallel.fallback_serial", 1)
        bounds = shard_bounds(n, w)
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
            results = pool.map(route_shard, tasks)

        # Merge first: it consumes (and unlinks) any shared-memory
        # segments the workers handed over, so a failure in the telemetry
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
        # shutdown sweeps segments its workers left behind — a shard
        # result dropped because a later shard raised included.
        if own_executor:
            pool.shutdown()
