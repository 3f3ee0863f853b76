"""The block plan: every oblivious route above one block runs in blocks.

``Router.route`` hands a route of more than
:data:`repro.routing.base.ROUTE_BLOCK` packets (or any route on more
than one worker) to :func:`repro.parallel.route_sharded`, which splits it
into contiguous blocks of at most that many packets.  Packet ``i``'s path
depends only on ``(seed, i, s_i, t_i)``, so the block boundaries must not
move a single byte: these tests shrink the constant to :data:`BLOCK` and
compare routes of sizes around it with the one-batch route (the constant
raised above the size) — on the in-process executor and on a real pool,
on the engine lane and the per-packet loop lane, under the budget ladder
and under static faults.  The streamed merge is pinned on mixed inline and
shared-memory parts, including a bogus handle mid-stream.
"""

from __future__ import annotations

import multiprocessing

import numpy as np
import pytest

from repro.core import shm as core_shm
from repro.core.pathset import PathSet, SharedCSR
from repro.faults.model import FaultModel
from repro.faults.router import FaultAwareRouter
from repro.mesh.mesh import Mesh
from repro.obs import Profiler
from repro.parallel.api import block_tasks
from repro.parallel.sharding import block_bounds, merge_shard_results
from repro.parallel.worker import ShardResult
from repro.routing import base
from repro.routing.base import RoutingProblem
from repro.routing.registry import make_router
from repro.workloads.generators import random_pairs
from tests.golden.regenerate_goldens import _workload, ladder_router, ladder_router_name
from tests.test_budget import LADDER_LEDGERS

FORK = "fork" in multiprocessing.get_all_start_methods()

BLOCK = 64
#: just under, at, just over, and two blocks and a remainder
SIZES = [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3]
#: engine lane: the batched engine on a power-of-two mesh; loop lane: the
#: per-packet select_path loop (the torus has no batch spec)
LANES = {"engine": Mesh((16, 16)), "loop": Mesh((16, 16), torus=True)}


def _route(monkeypatch, block, router, problem, seed, **kwargs):
    monkeypatch.setattr(base, "ROUTE_BLOCK", block)
    return router.route(problem, seed, **kwargs)


def _one_batch(monkeypatch, router, problem, seed, **kwargs):
    """The reference: the same route with the block above the problem size."""
    return _route(monkeypatch, problem.num_packets + 1, router, problem, seed, **kwargs)


def _same_bytes(a, b) -> bool:
    return (
        a.paths.nodes.tobytes() == b.paths.nodes.tobytes()
        and a.paths.offsets.tobytes() == b.paths.offsets.tobytes()
    )


def _ledger(result) -> tuple:
    led = result.budget
    return (led.bits_drawn, led.max_bits, led.fallbacks_recycled, led.fallbacks_dimorder)


class TestBlockBounds:
    def test_blocks_never_exceed_the_constant(self, monkeypatch):
        monkeypatch.setattr(base, "ROUTE_BLOCK", BLOCK)
        for n in SIZES + [0, 1, 10 * BLOCK]:
            for w in (1, 2, 3):
                bounds = block_bounds(n, w)
                assert [a for a, _ in bounds[1:]] == [b for _, b in bounds[:-1]]
                assert sum(b - a for a, b in bounds) == n
                assert all(0 < b - a <= BLOCK for a, b in bounds)
                if n >= w:
                    assert len(bounds) >= w

    def test_one_block_per_worker_at_least(self, monkeypatch):
        monkeypatch.setattr(base, "ROUTE_BLOCK", BLOCK)
        assert block_bounds(BLOCK, 1) == [(0, BLOCK)]
        assert len(block_bounds(BLOCK, 2)) == 2
        assert len(block_bounds(2 * BLOCK + 3, 1)) == 3


@pytest.mark.parametrize("lane", sorted(LANES))
@pytest.mark.parametrize("n", SIZES)
class TestBlockBoundaryBytes:
    def test_serial_blocks_match_one_batch(self, monkeypatch, lane, n):
        problem = random_pairs(LANES[lane], n, seed=n)
        router = make_router("hierarchical")
        ref = _one_batch(monkeypatch, router, problem, 11)
        router.profiler = Profiler()
        blocked = _route(monkeypatch, BLOCK, router, problem, 11, workers=1)
        assert _same_bytes(blocked, ref)
        counters = router.profiler.snapshot()["counters"]
        # one block is one engine call: no task; more are one task per block
        assert counters.get("parallel.shards", 0) == (0 if n <= BLOCK else -(-n // BLOCK))
        # a serial blocked route is the plan, not a degraded parallel one
        assert "parallel.fallback_serial" not in counters

    @pytest.mark.skipif(not FORK, reason="needs fork pools")
    def test_pool_blocks_match_one_batch(self, monkeypatch, lane, n):
        problem = random_pairs(LANES[lane], n, seed=n)
        router = make_router("hierarchical")
        ref = _one_batch(monkeypatch, router, problem, 12)
        before = set(core_shm.active_segments())
        blocked = _route(monkeypatch, BLOCK, router, problem, 12, workers=2)
        assert _same_bytes(blocked, ref)
        assert set(core_shm.active_segments()) - before == set()


@pytest.mark.parametrize("faulty", [False, True], ids=["bare", "static-faults"])
@pytest.mark.parametrize("spec", ["8x8", "8x8t"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_budget_ladder_cells_in_blocks(monkeypatch, spec, faulty, seed):
    """The cap-10 ladder cells of the golden matrix, cut into 16-packet
    blocks: the merged ledger is the golden ledger, the paths the same."""
    mesh = Mesh((8, 8), torus=spec.endswith("t"))
    problem = _workload(mesh)
    key = f"{ladder_router_name(faulty)}|{spec}|seed={seed}"
    ref = _one_batch(monkeypatch, ladder_router(mesh, faulty), problem, seed, budget=10)
    blocked = _route(
        monkeypatch, 16, ladder_router(mesh, faulty), problem, seed, budget=10
    )
    assert _same_bytes(blocked, ref)
    assert _ledger(blocked) == _ledger(ref) == LADDER_LEDGERS[key]
    assert blocked.budget.to_dict() == ref.budget.to_dict()


@pytest.mark.parametrize("n", SIZES)
def test_static_faults_in_blocks(monkeypatch, n):
    """Dropped packets and the fault counters survive the block cut."""
    mesh = Mesh((16, 16))
    faults = FaultModel.static(mesh, p=0.3, seed=4)
    problem = random_pairs(mesh, n, seed=100 + n)
    ref_router = FaultAwareRouter(make_router("hierarchical"), faults)
    ref = _one_batch(monkeypatch, ref_router, problem, 3)
    router = FaultAwareRouter(make_router("hierarchical"), faults)
    blocked = _route(monkeypatch, BLOCK, router, problem, 3, workers=1)
    assert ref_router.unroutable > 0, "the fault model must drop packets"
    assert _same_bytes(blocked, ref)
    assert np.array_equal(blocked.kept_indices, ref.kept_indices)
    assert (router.unroutable, router.resamples, router.detours) == (
        ref_router.unroutable,
        ref_router.resamples,
        ref_router.detours,
    )


def test_non_oblivious_routers_are_never_blocked(monkeypatch):
    monkeypatch.setattr(base, "ROUTE_BLOCK", 4)
    problem = random_pairs(Mesh((4, 4)), 20, seed=1)
    router = make_router("greedy-offline")
    router.profiler = Profiler()
    result = router.route(problem, 0, workers=1)
    assert len(result.paths) == 20
    assert "parallel.shards" not in router.profiler.snapshot()["counters"]


class _ProcessPoolStub:
    is_process_pool = True


class TestBlockTasks:
    """``block_tasks`` without bounds builds the ``route(workers=1)`` plan."""

    def test_oblivious_route_gets_the_block_plan(self, monkeypatch):
        monkeypatch.setattr(base, "ROUTE_BLOCK", BLOCK)
        problem = random_pairs(Mesh((8, 8)), 2 * BLOCK + 3, seed=1)
        tasks = block_tasks(make_router("hierarchical"), problem, 5, _ProcessPoolStub())
        bounds = block_bounds(problem.num_packets, 1)
        assert [t.offset for t in tasks] == [a for a, _ in bounds]
        assert [t.problem.num_packets for t in tasks] == [b - a for a, b in bounds]
        # the blocks of a route of several blocks come back through shm
        assert all(t.use_shm for t in tasks)

    def test_lone_block_comes_back_inline(self, monkeypatch):
        monkeypatch.setattr(base, "ROUTE_BLOCK", BLOCK)
        problem = random_pairs(Mesh((8, 8)), BLOCK, seed=1)
        (task,) = block_tasks(make_router("hierarchical"), problem, 5, _ProcessPoolStub())
        assert task.problem is problem and not task.use_shm

    def test_non_oblivious_route_is_one_task_and_empty_is_none(self, monkeypatch):
        monkeypatch.setattr(base, "ROUTE_BLOCK", BLOCK)
        problem = random_pairs(Mesh((8, 8)), 2 * BLOCK + 3, seed=1)
        (task,) = block_tasks(make_router("greedy-offline"), problem, 5, _ProcessPoolStub())
        assert task.problem is problem and task.offset == 0
        empty = RoutingProblem(Mesh((4, 4)), np.empty(0, np.int64), np.empty(0, np.int64))
        assert block_tasks(make_router("hierarchical"), empty, 5, _ProcessPoolStub()) == []


class TestStreamedMerge:
    @staticmethod
    def _parts(k: int = 4):
        problem = random_pairs(Mesh((8, 8)), 40, seed=9)
        whole = make_router("hierarchical").route(problem, 1)
        cuts = np.linspace(0, 40, k + 1).astype(int)
        pieces = []
        for a, b in zip(cuts[:-1], cuts[1:]):
            nodes = whole.paths.nodes[whole.paths.offsets[a] : whole.paths.offsets[b]]
            offsets = whole.paths.offsets[a : b + 1] - whole.paths.offsets[a]
            pieces.append((int(a), int(b), PathSet.from_arrays(nodes, offsets)))
        return problem, whole, pieces

    @staticmethod
    def _result(a, b, part, shared: bool):
        if shared:
            return ShardResult(a, b - a, None, None, shared=part.to_shared())
        return ShardResult(a, b - a, np.array(part.nodes), np.array(part.offsets))

    def test_mixed_parts_concatenate_and_leave_nothing(self):
        problem, whole, pieces = self._parts()
        before = set(core_shm.active_segments())
        results = [
            self._result(a, b, part, shared=k % 2 == 1)
            for k, (a, b, part) in enumerate(pieces)
        ]
        merged = merge_shard_results(problem, "hierarchical", 1, results)
        assert merged.paths.nodes.tobytes() == whole.paths.nodes.tobytes()
        assert merged.paths.offsets.tobytes() == whole.paths.offsets.tobytes()
        assert set(core_shm.active_segments()) - before == set()
        # inline parts are dropped as they are copied
        assert all(r.nodes.size == 0 for r in results if r.shared is None)

    def test_bogus_handle_releases_every_part(self):
        problem, _, pieces = self._parts()
        before = set(core_shm.active_segments())
        results = [
            self._result(a, b, part, shared=k != 0)
            for k, (a, b, part) in enumerate(pieces)
        ]
        # part 2's segment vanished before the merge reached it
        results[2].shared.discard()
        with pytest.raises(FileNotFoundError):
            merge_shard_results(problem, "hierarchical", 1, results)
        assert set(core_shm.active_segments()) - before == set()

    def test_oversized_handle_releases_every_part(self):
        problem, _, pieces = self._parts()
        before = set(core_shm.active_segments())
        results = [
            self._result(a, b, part, shared=True) for a, b, part in pieces
        ]
        # a handle claiming more nodes than its segment holds
        good = results[1].shared
        results[1].shared = SharedCSR(good.name, good.num_paths, good.num_nodes + 10**6)
        with pytest.raises(ValueError):
            merge_shard_results(problem, "hierarchical", 1, results)
        assert set(core_shm.active_segments()) - before == set()

    def test_empty_merge(self):
        problem = RoutingProblem(Mesh((4, 4)), np.empty(0, np.int64), np.empty(0, np.int64))
        merged = merge_shard_results(problem, "hierarchical", 0, [])
        assert len(merged.paths) == 0
