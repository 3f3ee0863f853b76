"""Sharded multiprocess execution with byte-identical merge.

The batched engine (PR 1) made a single core fast; this package makes the
*machine* fast without touching the repo's strongest invariant: fixed-seed
byte-identical paths.  A routing problem is split into contiguous per-worker
shards, each shard is routed in its own process, and the per-shard CSR
:class:`~repro.core.pathset.PathSet` results are concatenated —
**byte-identical to the serial engine for every shard count**.

Why that holds, in one sentence: every per-packet random stream is keyed by
the packet's *global* index (:mod:`repro.core.randomness`), never by its
position inside a shard, so worker ``k`` derives exactly the bytes the
serial engine would have derived for the same packets, and oblivious path
selection has no other cross-packet state to lose.

Layout:

* :mod:`~repro.parallel.sharding` — shard bounds, result merging and
  the parent-side telemetry fold;
* :mod:`~repro.parallel.executor` — :class:`WorkerPool`, the one
  process pool (warm-up, crash recovery, orphan-segment sweeps) shared by
  sharded routes, the online simulator and the routing service, and
  :class:`SerialExecutor` (in-process, the ``workers=1`` / no-start-method
  fallback);
* :mod:`~repro.parallel.worker` — the picklable shard task/result types,
  the top-level worker functions and their telemetry collection;
* :mod:`~repro.parallel.api` — :func:`route_sharded`, the entry point
  behind ``Router.route(workers=)``.

Non-oblivious routers cannot shard (each path depends on every earlier
one); :func:`route_sharded` refuses them rather than silently changing
their semantics.
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
