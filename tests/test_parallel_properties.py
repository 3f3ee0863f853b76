"""Property-based suite for the sharded routing engine.

The central claim — ``Router.route(workers=N)`` is byte-identical to the
serial engine for every ``N`` — is exactly the paper's obliviousness
property made operational: packet *i*'s path depends only on ``(seed, i,
s_i, t_i)``, so where the packet was routed cannot matter.  The suite
checks it three ways:

* hypothesis sweeps over workloads/seeds/shard counts on the in-process
  :class:`~repro.parallel.executor.SerialExecutor` (sharding math without
  process-spawn cost);
* a full registry x mesh matrix on a *real* fork process pool;
* the seed-derivation layer is pinned bit-for-bit against numpy's
  ``SeedSequence`` — the contract that makes per-packet streams
  shard-position-free in the first place.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.budget import BudgetParams
from repro.core.path_selection import HierarchicalRouter
from repro.core.randomness import (
    packet_seed_sequence,
    packet_stream,
    packet_uniforms,
    resolve_entropy,
    spawn_state,
)
from repro.faults.model import FaultModel
from repro.faults.router import FaultAwareRouter
from repro.mesh.mesh import Mesh
from repro.parallel import (
    SerialExecutor,
    make_executor,
    resolve_workers,
    route_sharded,
    shard_bounds,
)
from repro.parallel.worker import prepare_router
from repro.routing.base import RoutingProblem
from repro.routing.registry import available_routers, make_router
from repro.workloads.generators import random_pairs
from repro.workloads.permutations import transpose


def digest(paths) -> str:
    h = hashlib.sha256()
    h.update(paths.nodes.tobytes())
    h.update(paths.offsets.tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Seed derivation: the vectorised SeedSequence replica is bit-exact.
# ---------------------------------------------------------------------------

entropies = st.one_of(
    st.integers(0, 2**32 - 1),
    st.integers(0, 2**128 - 1),
)


class TestSeedDerivation:
    @given(entropies, st.integers(0, 2**32 - 1))
    def test_spawn_state_matches_numpy(self, entropy, index):
        got = spawn_state(entropy, np.asarray([index], dtype=np.uint64), 4)[0]
        want = np.random.SeedSequence(entropy, spawn_key=(index,)).generate_state(4)
        np.testing.assert_array_equal(got, want)

    @given(entropies, st.integers(0, 2**20), st.integers(0, 2**32 - 1))
    def test_spawn_state_with_prefix_matches_numpy(self, entropy, index, pfx):
        got = spawn_state(
            entropy, np.asarray([index], dtype=np.uint64), 4, prefix=(pfx,)
        )[0]
        want = np.random.SeedSequence(
            entropy, spawn_key=(pfx, index)
        ).generate_state(4)
        np.testing.assert_array_equal(got, want)

    @given(entropies, st.integers(0, 1000))
    def test_two_element_prefix(self, entropy, index):
        got = spawn_state(
            entropy, np.asarray([index], dtype=np.uint64), 8, prefix=(4, 9)
        )[0]
        want = np.random.SeedSequence(
            entropy, spawn_key=(4, 9, index)
        ).generate_state(8)
        np.testing.assert_array_equal(got, want)

    @given(entropies, st.integers(0, 2**16), st.integers(1, 6))
    def test_packet_uniforms_match_spawned_generate_state(self, entropy, start, n):
        indices = np.arange(start, start + 3, dtype=np.int64)
        got = packet_uniforms(entropy, indices, n)
        for row, i in zip(got, indices.tolist()):
            ss = np.random.SeedSequence(entropy, spawn_key=(i,))
            want = (ss.generate_state(n, dtype=np.uint64) >> 11) * 2.0**-53
            np.testing.assert_array_equal(row, want)

    @given(st.integers(0, 2**64))
    def test_uniforms_are_position_free(self, entropy):
        """The shard-invariance kernel: uniforms for global index i do not
        depend on which slice of indices they were computed in."""
        whole = packet_uniforms(entropy, np.arange(20), 3)
        part = packet_uniforms(entropy, np.arange(13, 20), 3)
        np.testing.assert_array_equal(whole[13:], part)

    def test_packet_stream_matches_spawn(self):
        a = packet_stream(42, 7).random(5)
        b = np.random.default_rng(
            np.random.SeedSequence(42, spawn_key=(7,))
        ).random(5)
        np.testing.assert_array_equal(a, b)

    def test_resolve_entropy(self):
        assert resolve_entropy(17) == 17
        assert resolve_entropy(None) != resolve_entropy(None)  # fresh entropy
        with pytest.raises(ValueError):
            resolve_entropy(-1)
        with pytest.raises(TypeError):
            resolve_entropy(1.5)

    def test_index_guards_agree_between_scalar_and_vectorised(self):
        """Spawn keys are 32-bit words: both derivation paths reject out-of-
        range packet indices with the same message instead of silently
        wrapping (which would alias two packets onto one stream)."""
        for bad in (2**32, -1):
            with pytest.raises(ValueError, match="fit in 32 bits"):
                packet_seed_sequence(0, bad)
            with pytest.raises(ValueError, match="fit in 32 bits"):
                spawn_state(0, np.asarray([bad], dtype=np.int64), 4)
        with pytest.raises(ValueError, match="fit in 32 bits"):
            spawn_state(0, np.asarray([2**40], dtype=np.uint64), 4)

    @settings(max_examples=60, deadline=None)
    @given(
        entropies,
        st.lists(st.integers(0, 2**32 - 1), min_size=2, max_size=6),
        st.integers(1, 128),
        st.lists(st.integers(0, 2**32 - 1), max_size=2),
    )
    def test_spawn_state_rows_match_numpy_at_every_width(
        self, entropy, idx, n_words, prefix
    ):
        got = spawn_state(
            entropy, np.asarray(idx, dtype=np.int64), n_words, tuple(prefix)
        )
        assert got.shape == (len(idx), n_words) and got.dtype == np.uint32
        assert got.flags.c_contiguous
        for row, i in zip(got, idx):
            want = np.random.SeedSequence(
                entropy, spawn_key=(*prefix, i)
            ).generate_state(n_words)
            np.testing.assert_array_equal(row, want)

    @settings(max_examples=60, deadline=None)
    @given(
        entropies,
        st.lists(st.integers(0, 2**32 - 1), min_size=2, max_size=6),
        st.integers(1, 64),
        st.lists(st.integers(0, 2**32 - 1), max_size=2),
    )
    def test_packet_uniforms_rows_match_numpy_at_every_width(
        self, entropy, idx, n, prefix
    ):
        got = packet_uniforms(
            entropy, np.asarray(idx, dtype=np.uint64), n, tuple(prefix)
        )
        assert got.shape == (len(idx), n) and got.dtype == np.float64
        for row, i in zip(got, idx):
            ss = np.random.SeedSequence(entropy, spawn_key=(*prefix, i))
            want = (ss.generate_state(n, dtype=np.uint64) >> 11) * 2.0**-53
            np.testing.assert_array_equal(row, want)

    @pytest.mark.parametrize(
        "bad",
        [
            np.array([1.5]),
            np.array([-0.5]),
            np.array([1.0, 2.0]),
            np.array([], dtype=np.float64),
            np.array([True, False]),
            np.array([1, 2], dtype=object),
        ],
        ids=[
            "float", "negative-float", "whole-floats", "empty-float", "bool", "object"
        ],
    )
    def test_non_integer_indices_are_rejected(self, bad):
        """A float index would truncate onto another packet's stream."""
        for fn in (spawn_state, packet_uniforms):
            with pytest.raises(ValueError, match="integer dtype"):
                fn(1, bad, 2)

    def test_boundary_index_matches_numpy(self):
        """The largest legal index, 2^32 - 1, still derives identically on
        the scalar and vectorised paths."""
        top = 2**32 - 1
        got = spawn_state(5, np.asarray([top], dtype=np.uint64), 4)[0]
        want = packet_seed_sequence(5, top).generate_state(4)
        np.testing.assert_array_equal(got, want)


# ---------------------------------------------------------------------------
# Sharding units.
# ---------------------------------------------------------------------------

class TestShardBounds:
    @given(st.integers(0, 500), st.integers(1, 40))
    def test_partition_properties(self, n, workers):
        bounds = shard_bounds(n, workers)
        # covers [0, n) contiguously, in order
        cursor = 0
        for a, b in bounds:
            assert a == cursor and b > a
            cursor = b
        assert cursor == n
        if n:
            sizes = [b - a for a, b in bounds]
            assert len(bounds) == min(workers, n)
            assert max(sizes) - min(sizes) <= 1

    def test_zero_packets(self):
        assert shard_bounds(0, 4) == []

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            shard_bounds(-1, 2)
        with pytest.raises(ValueError):
            shard_bounds(5, 0)


class TestExecutors:
    def test_resolve_workers(self):
        assert resolve_workers(3) == 3
        assert resolve_workers(None) >= 1
        assert resolve_workers(0) == resolve_workers(None)
        with pytest.raises(ValueError):
            resolve_workers(-2)

    def test_serial_executor_maps_in_order(self):
        with SerialExecutor() as ex:
            assert ex.map(lambda x: x * x, [3, 1, 2]) == [9, 1, 4]

    def test_make_executor_one_worker_is_serial(self):
        assert isinstance(make_executor(1), SerialExecutor)

    def test_prepare_router_strips_parent_state(self):
        from repro.obs import Profiler

        router = HierarchicalRouter(profiler=Profiler())
        payload = prepare_router(router)
        assert payload.profiler is None
        assert router.profiler is not None  # the original is untouched

    def test_non_oblivious_router_rejected(self):
        router = make_router("greedy-offline")
        problem = transpose(Mesh((4, 4)))
        with pytest.raises(ValueError, match="non-oblivious"):
            route_sharded(router, problem, seed=0, workers=2)


# ---------------------------------------------------------------------------
# Shard invariance: the tentpole property.
# ---------------------------------------------------------------------------

class TestShardInvariance:
    @given(
        side=st.sampled_from([4, 8, 16]),
        seed=st.integers(0, 2**63),
        packets=st.integers(1, 60),
        workers=st.sampled_from([2, 3, 7]),
    )
    @settings(max_examples=25, deadline=None)
    def test_hierarchical_any_shard_count(self, side, seed, packets, workers):
        mesh = Mesh((side, side))
        problem = random_pairs(mesh, packets, seed=seed % 2**32)
        router = HierarchicalRouter()
        serial = router.route(problem, seed=seed, workers=1)
        sharded = route_sharded(
            router, problem, seed=seed, workers=workers, executor=SerialExecutor()
        )
        assert digest(sharded.paths) == digest(serial.paths)
        assert sharded.congestion == serial.congestion
        assert sharded.stretch == serial.stretch

    @pytest.mark.parametrize(
        "name", [n for n in available_routers() if n != "greedy-offline"]
    )
    @pytest.mark.parametrize("workers", [2, 3, 7])
    def test_every_registry_router_serial_executor(self, name, workers):
        mesh = Mesh((8, 8))
        problem = transpose(mesh)
        router = make_router(name)
        serial = router.route(problem, seed=11, workers=1)
        sharded = route_sharded(
            router, problem, seed=11, workers=workers, executor=SerialExecutor()
        )
        assert digest(sharded.paths) == digest(serial.paths)

    @pytest.mark.parametrize(
        "name", [n for n in available_routers() if n != "greedy-offline"]
    )
    @pytest.mark.parametrize("m", [8, 16])
    def test_every_registry_router_process_pool(self, name, m):
        """The acceptance matrix: real fork pool, workers=4, 8x8 and 16x16."""
        mesh = Mesh((m, m))
        problem = transpose(mesh)
        router = make_router(name)
        serial = router.route(problem, seed=3, workers=1)
        pooled = router.route(problem, seed=3, workers=4)
        assert digest(pooled.paths) == digest(serial.paths)
        assert pooled.seed == serial.seed

    def test_workers_beyond_packets(self):
        mesh = Mesh((8, 8))
        problem = random_pairs(mesh, 3, seed=0)
        router = HierarchicalRouter()
        serial = router.route(problem, seed=5, workers=1)
        sharded = route_sharded(
            router, problem, seed=5, workers=64, executor=SerialExecutor()
        )
        assert digest(sharded.paths) == digest(serial.paths)

    def test_seed_none_is_internally_consistent(self):
        """seed=None resolves once in the parent: every shard sees the same
        entropy, and the result records it for replay."""
        mesh = Mesh((8, 8))
        problem = transpose(mesh)
        router = HierarchicalRouter()
        sharded = route_sharded(
            router, problem, seed=None, workers=3, executor=SerialExecutor()
        )
        replay = router.route(problem, seed=sharded.seed, workers=1)
        assert digest(sharded.paths) == digest(replay.paths)

    def test_packet_offset_shifts_streams(self):
        """A shard routed standalone with its global offset reproduces the
        corresponding rows of the full batch."""
        mesh = Mesh((8, 8))
        problem = random_pairs(mesh, 40, seed=1)
        router = HierarchicalRouter()
        whole = router.route(problem, seed=9)
        tail = problem.subproblem(range(25, 40), name=problem.name)
        part = router.route(tail, seed=9, packet_offset=25)
        for i in range(15):
            assert part.paths[i].tolist() == whole.paths[25 + i].tolist()


class TestFaultSharding:
    @pytest.mark.parametrize("workers", [2, 3, 7])
    def test_fault_drops_merge_identically(self, workers):
        mesh = Mesh((8, 8))
        problem = random_pairs(mesh, 80, seed=2)
        faults = FaultModel(mesh, p=0.25, seed=4)
        serial = FaultAwareRouter(HierarchicalRouter(), faults)
        sharded = FaultAwareRouter(HierarchicalRouter(), faults)
        a = serial.route(problem, seed=6, workers=1)
        b = route_sharded(
            sharded, problem, seed=6, workers=workers, executor=SerialExecutor()
        )
        assert digest(a.paths) == digest(b.paths)
        assert a.problem.num_packets == b.problem.num_packets
        np.testing.assert_array_equal(a.problem.sources, b.problem.sources)
        np.testing.assert_array_equal(a.problem.dests, b.problem.dests)
        assert (serial.resamples, serial.detours, serial.unroutable) == (
            sharded.resamples,
            sharded.detours,
            sharded.unroutable,
        )

    def test_fault_drops_process_pool(self):
        mesh = Mesh((8, 8))
        problem = random_pairs(mesh, 80, seed=2)
        faults = FaultModel(mesh, p=0.25, seed=4)
        a = FaultAwareRouter(HierarchicalRouter(), faults).route(
            problem, seed=6, workers=1
        )
        b = FaultAwareRouter(HierarchicalRouter(), faults).route(
            problem, seed=6, workers=4
        )
        assert digest(a.paths) == digest(b.paths)
        np.testing.assert_array_equal(a.problem.sources, b.problem.sources)


class TestBudgetSharding:
    """Satellite property: the bit ledger is shard-invariant.

    Planned costs are per-packet deterministic, so the merged shard
    ledgers must equal the serial ledger field-for-field — packets,
    metered counts, total and max bits, fallback tallies — for every
    worker count, budget mode and cap."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        packets=st.integers(1, 60),
        workers=st.sampled_from([2, 3, 5, 9]),
        mode=st.sampled_from(["measure", "enforce"]),
        bits=st.one_of(st.none(), st.integers(0, 48)),
    )
    @settings(max_examples=30, deadline=None)
    def test_ledger_shard_invariant(self, seed, packets, workers, mode, bits):
        mesh = Mesh((8, 8))
        problem = random_pairs(mesh, packets, seed=seed)
        budget = BudgetParams(mode=mode, bits=bits)
        router = HierarchicalRouter()
        serial = router.route(problem, seed=seed, workers=1, budget=budget)
        sharded = route_sharded(
            router, problem, seed=seed, workers=workers,
            executor=SerialExecutor(), budget=budget,
        )
        assert digest(sharded.paths) == digest(serial.paths)
        assert sharded.budget.to_dict() == serial.budget.to_dict()

    @pytest.mark.parametrize("workers", [2, 3, 7])
    def test_faulty_ledger_shard_invariant(self, workers):
        mesh = Mesh((8, 8))
        problem = random_pairs(mesh, 60, seed=2)
        faults = FaultModel(mesh, p=0.15, seed=4)
        budget = BudgetParams(mode="enforce", bits=20)
        a = FaultAwareRouter(HierarchicalRouter(), faults).route(
            problem, seed=6, workers=1, budget=budget
        )
        b = route_sharded(
            FaultAwareRouter(HierarchicalRouter(), faults), problem, seed=6,
            workers=workers, executor=SerialExecutor(), budget=budget,
        )
        assert digest(a.paths) == digest(b.paths)
        assert a.budget.to_dict() == b.budget.to_dict()
        assert a.budget.fallbacks > 0  # the cap actually exercised the ladder

    def test_ledger_survives_process_pool(self):
        mesh = Mesh((8, 8))
        problem = transpose(mesh)
        router = HierarchicalRouter()
        serial = router.route(problem, seed=3, workers=1, budget=16)
        pooled = router.route(problem, seed=3, workers=4, budget=16)
        assert digest(pooled.paths) == digest(serial.paths)
        assert pooled.budget.to_dict() == serial.budget.to_dict()


class TestOnlineSharding:
    @staticmethod
    def _key(s):
        return (
            s.steps, s.injected, s.delivered, s.mean_latency, s.p95_latency,
            s.max_latency, s.mean_distance, s.max_queue, s.throughput,
            s.latencies.tobytes(), s.distances.tobytes(), s.dropped,
            s.reroutes, s.blocked_steps, s.resamples, s.detours,
        )

    @pytest.mark.parametrize("workers", [2, 3])
    def test_online_stats_shard_invariant(self, workers):
        from repro.simulation.online import simulate_online

        mesh = Mesh((8, 8))
        base = self._key(
            simulate_online(
                HierarchicalRouter(), mesh, rate=0.15, steps=30, seed=7, workers=1
            )
        )
        got = self._key(
            simulate_online(
                HierarchicalRouter(), mesh, rate=0.15, steps=30, seed=7,
                workers=workers,
            )
        )
        assert got == base

    def test_online_faulty_shard_invariant(self):
        from repro.simulation.online import simulate_online

        mesh = Mesh((8, 8))
        faults = FaultModel(mesh, "dynamic", p=0.15, seed=3)
        runs = [
            self._key(
                simulate_online(
                    HierarchicalRouter(), mesh, rate=0.15, steps=30, seed=7,
                    faults=faults, workers=w,
                )
            )
            for w in (1, 2)
        ]
        assert runs[0] == runs[1]
        assert runs[0][11] > 0  # drops actually exercised


class TestTelemetryMerge:
    def test_profiler_snapshots_fold_into_parent(self):
        from repro.obs import Profiler

        mesh = Mesh((16, 16))
        problem = transpose(mesh)
        prof = Profiler()
        router = HierarchicalRouter(profiler=prof)
        route_sharded(
            router, problem, seed=0, workers=3, executor=SerialExecutor()
        )
        assert prof.counters["parallel.shards"] == 3
        assert prof.counters["engine.edges"] > 0
        assert "parallel.route" in prof.stages

    def test_bits_log_merges_in_shard_order(self):
        mesh = Mesh((8, 8))
        problem = random_pairs(mesh, 30, seed=1)
        serial = HierarchicalRouter(bit_mode="fresh")
        serial.route(problem, seed=4, workers=1)
        sharded = HierarchicalRouter(bit_mode="fresh")
        route_sharded(
            sharded, problem, seed=4, workers=3, executor=SerialExecutor()
        )
        assert serial.bits_log == sharded.bits_log


# ---------------------------------------------------------------------------
# Nightly-only exhaustive sweeps (the `deep` marker)
# ---------------------------------------------------------------------------

@pytest.mark.deep
class TestShardInvarianceDeep:
    """Hypothesis with a nightly-sized budget plus wide real-pool sweeps.

    Tier-1 proves the property on small samples; these runs chase the
    tail: every router x several genuine fork-pool widths, and hundreds
    of randomized (mesh, seed, packets, workers) draws.
    """

    @given(
        side=st.sampled_from([4, 8, 16]),
        seed=st.integers(0, 2**63),
        packets=st.integers(1, 120),
        workers=st.integers(2, 12),
    )
    @settings(max_examples=200, deadline=None)
    def test_hierarchical_shard_sweep(self, side, seed, packets, workers):
        mesh = Mesh((side, side))
        problem = random_pairs(mesh, packets, seed=seed % 2**32)
        router = HierarchicalRouter()
        serial = router.route(problem, seed=seed, workers=1)
        sharded = route_sharded(
            router, problem, seed=seed, workers=workers, executor=SerialExecutor()
        )
        assert digest(sharded.paths) == digest(serial.paths)

    @pytest.mark.parametrize(
        "name", [n for n in available_routers() if n != "greedy-offline"]
    )
    @pytest.mark.parametrize("workers", [2, 3, 5, 8])
    def test_every_registry_router_wide_process_pools(self, name, workers):
        mesh = Mesh((8, 8))
        problem = transpose(mesh)
        router = make_router(name)
        serial = router.route(problem, seed=17, workers=1)
        pooled = router.route(problem, seed=17, workers=workers)
        assert digest(pooled.paths) == digest(serial.paths)
