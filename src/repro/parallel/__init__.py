"""The block plan: every large or multi-worker route, byte-identical.

The batched engine made a single core fast; this package keeps it fast at
any batch size and spreads it over the machine without touching the
repo's strongest invariant: fixed-seed byte-identical paths.  It is the
only place a route is split.  A routing problem of more than
:data:`~repro.routing.base.ROUTE_BLOCK` packets, or one routed on
more than one worker, is cut into contiguous blocks of at most that many
packets; each block is one task, routed by one engine call in a worker
process (or one after another in-process for ``workers=1``), and the
per-block CSR results are streamed into one output —
**byte-identical to a single engine call for every block and worker
count**.

Why that holds, in one sentence: every per-packet random stream is keyed by
the packet's *global* index (:mod:`repro.core.randomness`), never by its
position inside a block, so block ``k`` derives exactly the bytes one
batch would have derived for the same packets, and oblivious path
selection has no other cross-packet state to lose.

Layout:

* :mod:`~repro.parallel.sharding` — the block
  bounds, the streamed merge (one output copy, one block in flight) and
  the parent-side telemetry fold;
* :mod:`~repro.parallel.executor` — :class:`WorkerPool`, the one
  process pool (warm-up, crash recovery, orphan-segment sweeps, release
  of completed replies when a task fails) shared by sharded routes, the
  online simulator and the routing service, and :class:`SerialExecutor`
  (in-process: the ``workers=1`` executor and the no-start-method
  fallback);
* :mod:`~repro.parallel.worker` — the picklable block task/result types,
  the top-level worker functions and their telemetry collection;
* :mod:`~repro.parallel.api` — :func:`route_sharded`, the entry point
  behind ``Router.route`` for every route on the block plan, and its two
  halves, ``block_tasks`` and ``fold_blocks``, through which the routing
  service runs each request's blocks on its resident pool.

Non-oblivious routers cannot be split (each path depends on every earlier
one): ``Router.route`` never blocks them, and :func:`route_sharded`
refuses them rather than silently changing their semantics.
"""

from repro.parallel.api import route_sharded
from repro.parallel.executor import (
    SerialExecutor,
    WorkerPool,
    make_executor,
    resolve_workers,
)
from repro.parallel.sharding import merge_shard_results, shard_bounds
from repro.parallel.worker import ShardResult, ShardTask, route_shard

__all__ = [
    "SerialExecutor",
    "ShardResult",
    "ShardTask",
    "WorkerPool",
    "make_executor",
    "merge_shard_results",
    "resolve_workers",
    "route_shard",
    "route_sharded",
    "shard_bounds",
]
