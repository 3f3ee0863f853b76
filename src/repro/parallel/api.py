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

The two halves of that plan are public so the routing service can ship
the blocks of several requests in one ``map``: :func:`block_tasks` turns
a route into its tasks, and :func:`fold_blocks` turns the tasks' replies
back into the route's result.
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

__all__ = ["block_tasks", "fold_blocks", "route_sharded"]


def block_tasks(
    router: Router,
    problem: RoutingProblem,
    entropy: int,
    pool,
    *,
    bounds=None,
    packet_offset: int = 0,
    budget=None,
) -> list[ShardTask]:
    """One :class:`ShardTask` per ``[a, b)`` range of ``bounds``.

    ``bounds=None`` takes the blocks ``router.route(workers=1)`` would
    run: the block plan for an oblivious router, one block of every
    packet for any other, none for zero packets.  Every task carries the
    same prepared router, resolved ``entropy`` and budget (resolved here,
    once, so every block enforces identically).  Blocks of a route of
    several blocks return their CSR through shared memory exactly when
    ``pool`` runs them in another process, so the merge holds one block at
    a time; a lone block's reply is the result itself and comes back
    inline.  Blocks profile exactly when ``router`` has a profiler to fold
    the snapshots into.
    """
    from repro.core.budget import BudgetParams

    n = problem.num_packets
    if bounds is None:
        if router.is_oblivious:
            bounds = block_bounds(n, 1)
        else:
            bounds = [(0, n)] if n else []
    params = BudgetParams.resolve(budget)
    payload = prepare_router(router)
    warm_keys = tuple(router.warmup_keys(problem))
    use_shm = len(bounds) > 1 and bool(getattr(pool, "is_process_pool", False))
    return [
        ShardTask(
            router=payload,
            problem=(
                problem
                if (a, b) == (0, n)
                else problem.subproblem(range(a, b), name=problem.name)
            ),
            entropy=entropy,
            offset=packet_offset + a,
            warm_keys=warm_keys,
            profile=router.profiler is not None,
            budget=params,
            use_shm=use_shm,
        )
        for a, b in bounds
    ]


def fold_blocks(
    router: Router, problem: RoutingProblem, entropy: int, results
) -> RoutingResult:
    """The route's result from its blocks' replies, in block order.

    Merges first: the merge consumes (and unlinks) every shared-memory
    reply, so a failure in the telemetry fold after it cannot strand a
    segment.  Then folds the blocks' telemetry into ``router`` and its
    profiler, their bit logs into ``router.bits_log``, and their budget
    ledgers into the result's.
    """
    merged = merge_shard_results(problem, router.name, entropy, results)
    fold_telemetry(results, router, router.profiler)
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
    problems amortise pool start-up by passing one in, and tests sweep
    block counts on the :class:`~repro.parallel.executor.SerialExecutor`
    without process cost.
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
    own_executor = executor is None
    pool = (
        make_executor(w, warm_keys=tuple(router.warmup_keys(problem)))
        if own_executor
        else executor
    )
    try:
        tasks = block_tasks(
            router,
            problem,
            entropy,
            pool,
            bounds=bounds,
            packet_offset=packet_offset,
            budget=params,
        )
        in_process = not getattr(pool, "is_process_pool", False)
        if w > 1 and in_process and profiler is not None:
            # workers > 1 was requested but the blocks run in-process —
            # either a platform degradation or an injected SerialExecutor
            profiler.count("parallel.fallback_serial", 1)
        stage = profiler.stage("parallel.route") if profiler else nullcontext()
        with stage:
            # a block that raises must not strand the replies of the blocks
            # that completed: the pool hands those to release_shard_result
            results = pool.map(route_shard, tasks, release=release_shard_result)
        if profiler is not None:
            profiler.count("parallel.shards", len(tasks))
            profiler.count("parallel.workers", w)
        return fold_blocks(router, problem, entropy, results)
    finally:
        # Owned pools are torn down on *every* exit path, and the pool's
        # shutdown sweeps the segments of workers that died mid-reply.
        if own_executor:
            pool.shutdown()
