"""Fault injection: model determinism, the fault-aware wrapper's
no-dead-edge guarantee and strict-no-op contract, and both simulators'
degradation accounting."""

import numpy as np
import pytest

from repro.core.path_selection import HierarchicalRouter
from repro.faults import (
    FaultAwareRouter,
    FaultModel,
    FaultRoutingError,
    shortest_alive_path,
)
from repro.mesh.mesh import Mesh
from repro.obs.profiler import Profiler
from repro.routing.base import RoutingProblem
from repro.simulation.online import simulate_online
from repro.simulation.scheduler import simulate
from repro.workloads.permutations import transpose


def _isolating_edges(mesh, node):
    """Edge ids of every link incident to ``node``."""
    return [
        int(mesh.edge_ids(np.asarray([node]), np.asarray([v]))[0])
        for v in mesh.neighbors(node)
    ]


class _DeadDuring(FaultModel):
    """A dynamic model whose ``edges`` are dead at steps ``[start, stop)``."""

    def __init__(self, mesh, edges, start, stop):
        super().__init__(mesh, "dynamic", failed_edges=edges)
        self._edges, self._start, self._stop = edges, start, stop

    def edge_alive(self, step=0):
        alive = np.ones(self.mesh.num_edges, dtype=bool)
        if self._start <= step < self._stop:
            alive[self._edges] = False
        return alive


class TestFaultModel:
    def test_static_mask_shape_and_determinism(self):
        mesh = Mesh((8, 8))
        a = FaultModel.static(mesh, p=0.1, seed=3).edge_alive()
        b = FaultModel.static(mesh, p=0.1, seed=3).edge_alive()
        assert a.shape == (mesh.num_edges,) and a.dtype == bool
        np.testing.assert_array_equal(a, b)
        assert not a.all()  # p = 0.1 on 112 edges: some fail
        # a different seed draws a different set
        c = FaultModel.static(mesh, p=0.1, seed=4).edge_alive()
        assert not np.array_equal(a, c)

    def test_static_mask_ignores_step(self):
        fm = FaultModel.static(Mesh((8, 8)), p=0.1, seed=0)
        np.testing.assert_array_equal(fm.edge_alive(0), fm.edge_alive(100))

    def test_node_failures_kill_incident_links(self):
        mesh = Mesh((8, 8))
        fm = FaultModel.static(mesh, p=0.0, node_p=0.1, seed=5)
        alive = fm.edge_alive()
        assert not alive.all()
        # every dead edge has at least one endpoint shared with another
        # dead edge (node deaths kill whole neighborhoods, not single links)
        dead = np.flatnonzero(~alive)
        ep = mesh.edge_endpoints[dead]
        nodes, counts = np.unique(ep, return_counts=True)
        assert (counts > 1).any()

    def test_blocks_are_spatially_correlated(self):
        mesh = Mesh((16, 16))
        fm = FaultModel.blocks(mesh, num_blocks=1, block_side=3, seed=2)
        dead = np.flatnonzero(~fm.edge_alive())
        assert dead.size > 0
        # all dead edges touch one 3x3 region (boundary links reach one
        # node beyond it, so the endpoint spread is at most block_side + 1)
        ep = mesh.edge_endpoints[dead]
        coords = mesh.flat_to_coords(ep.reshape(-1))
        spread = coords.max(axis=0) - coords.min(axis=0)
        assert (spread <= 4).all()

    def test_dynamic_replays_deterministically(self):
        mesh = Mesh((8, 8))
        fm1 = FaultModel.dynamic(mesh, p=0.02, repair_delay=5, seed=7)
        fm2 = FaultModel.dynamic(mesh, p=0.02, repair_delay=5, seed=7)
        masks = [fm1.edge_alive(s).copy() for s in range(12)]
        for s in range(12):
            np.testing.assert_array_equal(masks[s], fm2.edge_alive(s))
        # rewinding replays from the seed instead of drifting
        np.testing.assert_array_equal(fm1.edge_alive(4), masks[4])

    def test_dynamic_repairs(self):
        mesh = Mesh((8, 8))
        fm = FaultModel.dynamic(mesh, p=0.05, repair_delay=3, seed=1)
        ever_dead = np.zeros(mesh.num_edges, dtype=bool)
        revived = False
        prev = fm.edge_alive(0).copy()
        for s in range(1, 40):
            cur = fm.edge_alive(s)
            revived |= bool((cur & ~prev).any())
            ever_dead |= ~cur
            prev = cur.copy()
        assert ever_dead.any() and revived

    def test_from_failed_edges_explicit(self):
        mesh = Mesh((4, 4))
        fm = FaultModel.from_failed_edges(mesh, [0, 5])
        alive = fm.edge_alive()
        assert not alive[0] and not alive[5]
        assert alive.sum() == mesh.num_edges - 2
        assert not fm.is_trivial

    def test_trivial_detection(self):
        mesh = Mesh((4, 4))
        assert FaultModel.static(mesh, p=0.0).is_trivial
        assert FaultModel.blocks(mesh, num_blocks=0).is_trivial
        assert FaultModel.dynamic(mesh, p=0.0).is_trivial
        assert not FaultModel.static(mesh, p=0.5).is_trivial
        assert FaultModel.from_failed_edges(mesh, []).is_trivial

    def test_invalid_parameters_rejected(self):
        mesh = Mesh((4, 4))
        with pytest.raises(ValueError, match="mode"):
            FaultModel(mesh, "bogus")
        with pytest.raises(ValueError, match="probabilit"):
            FaultModel.static(mesh, p=1.5)
        with pytest.raises(ValueError, match="repair"):
            FaultModel.dynamic(mesh, p=0.1, repair_delay=0)


class TestAdjacencyCSR:
    def test_full_graph_matches_neighbors(self):
        mesh = Mesh((4, 4, 2))
        indptr, heads, eids = mesh.adjacency_csr()
        for u in range(mesh.n):
            assert sorted(heads[indptr[u] : indptr[u + 1]].tolist()) == mesh.neighbors(u)
        # the eid annotation is consistent with edge_ids
        for u in range(mesh.n):
            for v, e in zip(
                heads[indptr[u] : indptr[u + 1]], eids[indptr[u] : indptr[u + 1]]
            ):
                assert int(mesh.edge_ids(np.asarray([u]), np.asarray([int(v)]))[0]) == e

    def test_masked_graph_excludes_edges(self):
        mesh = Mesh((4, 4))
        mask = np.ones(mesh.num_edges, dtype=bool)
        mask[0] = False
        indptr, heads, eids = mesh.adjacency_csr(mask)
        assert 0 not in eids
        assert indptr[-1] == 2 * (mesh.num_edges - 1)

    def test_bad_mask_shape_rejected(self):
        mesh = Mesh((4, 4))
        with pytest.raises(ValueError, match="edge_mask"):
            mesh.adjacency_csr(np.ones(3, dtype=bool))


class TestShortestAlivePath:
    def test_no_faults_is_shortest(self):
        mesh = Mesh((8, 8))
        alive = np.ones(mesh.num_edges, dtype=bool)
        p = shortest_alive_path(mesh, 0, 63, alive)
        assert p[0] == 0 and p[-1] == 63
        assert len(p) - 1 == mesh.distance(0, 63)

    def test_detour_around_cut(self):
        mesh = Mesh((8, 8))
        fm = FaultModel.from_failed_edges(mesh, _isolating_edges(mesh, 1))
        alive = fm.edge_alive()
        p = shortest_alive_path(mesh, 0, 2, alive)
        assert p is not None and 1 not in p.tolist()
        assert alive[mesh.edge_ids(p[:-1], p[1:])].all()

    def test_unreachable_returns_none(self):
        mesh = Mesh((8, 8))
        fm = FaultModel.from_failed_edges(mesh, _isolating_edges(mesh, 0))
        assert shortest_alive_path(mesh, 0, 63, fm.edge_alive()) is None

    def test_trivial_endpoints(self):
        mesh = Mesh((4, 4))
        alive = np.ones(mesh.num_edges, dtype=bool)
        assert shortest_alive_path(mesh, 5, 5, alive).tolist() == [5]


class TestFaultAwareRouter:
    def test_trivial_faults_byte_identical(self):
        """The acceptance contract: FaultModel(p=0) is a strict no-op."""
        mesh = Mesh((16, 16))
        problem = transpose(mesh)
        bare = HierarchicalRouter().route(problem, seed=5)
        wrapped = FaultAwareRouter(
            HierarchicalRouter(), FaultModel.static(mesh, p=0.0)
        ).route(problem, seed=5)
        assert all(
            a.tobytes() == b.tobytes() for a, b in zip(bare.paths, wrapped.paths)
        )

    def test_never_crosses_a_failed_edge(self):
        """The acceptance contract: every emitted path respects the mask."""
        mesh = Mesh((16, 16))
        problem = transpose(mesh)
        for seed in (0, 1, 2):
            fm = FaultModel.static(mesh, p=0.05, seed=seed)
            router = FaultAwareRouter(HierarchicalRouter(), fm)
            result = router.route(problem, seed=seed)
            alive = fm.edge_alive()
            for path in result.paths:
                if len(path) > 1:
                    assert alive[mesh.edge_ids(path[:-1], path[1:])].all()
            assert result.validate()

    def test_unroutable_packets_dropped_to_subproblem(self):
        mesh = Mesh((8, 8))
        fm = FaultModel.from_failed_edges(mesh, _isolating_edges(mesh, 0))
        problem = RoutingProblem(mesh, np.asarray([0, 9]), np.asarray([63, 18]))
        router = FaultAwareRouter(HierarchicalRouter(), fm)
        result = router.route(problem, seed=1)
        assert router.unroutable == 1
        assert result.problem.num_packets == 1
        assert result.problem.sources.tolist() == [9]

    def test_select_path_raises_when_unreachable(self):
        mesh = Mesh((8, 8))
        fm = FaultModel.from_failed_edges(mesh, _isolating_edges(mesh, 0))
        router = FaultAwareRouter(HierarchicalRouter(), fm)
        with pytest.raises(FaultRoutingError):
            router.select_path(mesh, 0, 63, np.random.default_rng(0))

    def test_detour_fallback_after_resamples(self):
        # destination reachable only by one alive corridor: oblivious draws
        # keep failing, the BFS detour must kick in
        mesh = Mesh((8, 8))
        edges = [
            int(mesh.edge_ids(np.asarray([7]), np.asarray([v]))[0])
            for v in mesh.neighbors(7)
            if v != 6  # leave only the 6-7 link alive
        ]
        fm = FaultModel.from_failed_edges(mesh, edges)
        router = FaultAwareRouter(HierarchicalRouter(), fm, max_resamples=2)
        path = router.select_path(mesh, 56, 7, np.random.default_rng(0))
        alive = fm.edge_alive()
        assert alive[mesh.edge_ids(path[:-1], path[1:])].all()
        assert path[-1] == 7

    def test_rejects_non_oblivious_inner(self):
        from repro.routing.registry import make_router

        greedy = make_router("greedy-offline")
        with pytest.raises(ValueError, match="oblivious"):
            FaultAwareRouter(greedy, FaultModel.static(Mesh((4, 4)), p=0.1))

    def test_profiler_counters(self):
        mesh = Mesh((16, 16))
        fm = FaultModel.static(mesh, p=0.05, seed=0)
        router = FaultAwareRouter(HierarchicalRouter(), fm)
        router.profiler = Profiler()
        router.route(transpose(mesh), seed=0)
        counters = router.profiler.counters
        assert counters.get("faults.resamples", 0) + counters.get(
            "faults.detours", 0
        ) == router.resamples + router.detours > 0


class TestSimulateWithFaults:
    def test_trivial_faults_identical_results(self):
        mesh = Mesh((16, 16))
        res = HierarchicalRouter().route(transpose(mesh), seed=0)
        for pol in ("farthest-first", "fifo", "random", "random-delay"):
            a = simulate(mesh, res, policy=pol, seed=3)
            b = simulate(mesh, res, policy=pol, seed=3,
                         faults=FaultModel.static(mesh, p=0.0))
            assert a.makespan == b.makespan
            np.testing.assert_array_equal(a.delivery_times, b.delivery_times)

    def test_static_faults_deliver_with_reroutes(self):
        mesh = Mesh((16, 16))
        res = HierarchicalRouter().route(transpose(mesh), seed=0)
        fm = FaultModel.static(mesh, p=0.01, seed=2)
        out = simulate(mesh, res, seed=3, faults=fm)
        assert out.delivery_ratio > 0.9
        assert out.retries_total > 0
        assert out.num_packets == len(res.paths)
        # determinism under identical seeds
        out2 = simulate(mesh, res, seed=3, faults=FaultModel.static(mesh, p=0.01, seed=2))
        np.testing.assert_array_equal(out.delivery_times, out2.delivery_times)
        assert out.makespan == out2.makespan

    def test_unreachable_packet_dropped(self):
        mesh = Mesh((8, 8))
        fm = FaultModel.from_failed_edges(mesh, _isolating_edges(mesh, 0))
        problem = RoutingProblem(mesh, np.asarray([0, 17]), np.asarray([63, 34]))
        res = HierarchicalRouter().route(problem, seed=1)
        out = simulate(mesh, res, seed=0, faults=fm)
        assert out.dropped == 1
        assert out.delivery_times[0] == -1 and out.delivery_times[1] > 0
        assert out.delivered == 1 and out.delivery_ratio == 0.5

    def test_blocked_at_destination_of_a_revisiting_path(self):
        # [0, 1, 0] starts at its destination; its first edge is dead, so
        # the reroute from node 0 to node 0 is a one-node path: no way on
        mesh = Mesh((4, 4))
        dead = mesh.edge_ids(np.asarray([0]), np.asarray([1]))
        paths = [np.asarray([0, 1, 0]), np.asarray([4, 5, 6, 7])]
        out = simulate(mesh, paths, faults=FaultModel.from_failed_edges(mesh, dead))
        assert out.dropped == 1 and out.rerouted == 0
        assert out.delivery_times.tolist() == [-1, 3]
        # a repairing model waits the edge out and delivers
        fd = FaultModel(mesh, "dynamic", p=0.0, failed_edges=dead, repair_delay=20)
        out = simulate(mesh, paths, faults=fd)
        assert out.dropped == 0 and out.rerouted == 0
        assert out.delivery_times[0] > 20 and out.delivery_times[1] == 3

    def test_dynamic_faults_wait_out_repairs(self):
        mesh = Mesh((16, 16))
        res = HierarchicalRouter().route(transpose(mesh), seed=0)
        fd = FaultModel.dynamic(mesh, p=0.005, repair_delay=6, seed=4)
        out = simulate(mesh, res, policy="fifo", seed=3, faults=fd)
        assert out.delivery_ratio > 0.9
        assert out.dropped == 0  # repairs mean nobody is ever dropped

    def test_profiler_fault_counters(self):
        # both simulators count faults.* in one place; the counters must
        # equal the result fields, on a dynamic model and on dead nodes
        # that cut destinations off (in-flight drops)
        mesh = Mesh((8, 8))
        res = HierarchicalRouter().route(transpose(mesh), seed=0)
        names = ("faults.blocked_steps", "faults.reroutes", "faults.dropped")
        dynamic = FaultModel.dynamic(mesh, p=0.05, seed=2)
        dead_nodes = FaultModel.static(mesh, p=0.02, node_p=0.05, seed=0)
        for simulator, fm in (
            ("simulate", dynamic), ("online", dynamic), ("simulate", dead_nodes)
        ):
            prof = Profiler()
            if simulator == "simulate":
                out = simulate(mesh, res, seed=3, faults=fm, profiler=prof)
                fields = (out.retries_total, out.rerouted, out.dropped)
            else:
                out = simulate_online(
                    HierarchicalRouter(), mesh, rate=0.05, steps=40, seed=3,
                    faults=fm, profiler=prof,
                )
                fields = (out.blocked_steps, out.reroutes, out.dropped)
            assert tuple(prof.counters.get(n, 0) for n in names) == fields
            assert fields[0] > 0 and fields[1] > 0
            # online drops packets unroutable at birth; dead nodes strand
            # packets already in flight
            assert (fields[2] > 0) == (simulator == "online" or fm is dead_nodes)

    def test_fault_free_run_keeps_max_steps_guard(self):
        # the pre-existing RuntimeError contract must hold when faults=None
        mesh = Mesh((8, 8))
        res = HierarchicalRouter().route(transpose(mesh), seed=0)
        with pytest.raises(RuntimeError, match="exceeded"):
            simulate(mesh, res, max_steps=1)

    def test_negative_max_steps_rejected_before_running(self):
        mesh = Mesh((8, 8))
        res = HierarchicalRouter().route(transpose(mesh), seed=0)
        with pytest.raises(ValueError, match="max_steps"):
            simulate(mesh, res, max_steps=-1)

    @pytest.mark.parametrize(
        "max_retries, backoff_cap, name",
        [(-1, 5, "max_retries"), (3, -1, "backoff_cap"), (3, 63, "backoff_cap")],
    )
    def test_fault_ladder_inputs_range_checked(self, max_retries, backoff_cap, name):
        # a cap below 0 would read ``1 << -1`` as a 0-step backoff, and one
        # of 63 or more wraps int64: both simulators refuse them
        mesh = Mesh((8, 8))
        res = HierarchicalRouter().route(transpose(mesh), seed=0)
        fd = FaultModel.dynamic(mesh, p=0.1, seed=1)
        ladder = dict(max_retries=max_retries, backoff_cap=backoff_cap)
        with pytest.raises(ValueError, match=name):
            simulate(mesh, res, faults=fd, **ladder)
        with pytest.raises(ValueError, match=name):
            simulate_online(
                HierarchicalRouter(), mesh, rate=0.05, steps=5, seed=1,
                faults=fd, **ladder,
            )

    @pytest.mark.parametrize(
        "max_retries, backoff_cap, name",
        [(-1, 5, "max_retries"), (3, -1, "backoff_cap"), (3, 63, "backoff_cap")],
    )
    def test_online_ladder_checked_before_path_selection(
        self, monkeypatch, max_retries, backoff_cap, name
    ):
        # a bad ladder input must not cost a whole selection phase first
        import repro.parallel.worker as worker

        def reached(*args, **kwargs):
            raise AssertionError("path selection ran before the ladder check")

        monkeypatch.setattr(worker, "select_online_paths", reached)
        mesh = Mesh((8, 8))
        with pytest.raises(ValueError, match=name):
            simulate_online(
                HierarchicalRouter(), mesh, rate=0.05, steps=5, seed=1,
                faults=FaultModel.dynamic(mesh, p=0.1, seed=1),
                max_retries=max_retries, backoff_cap=backoff_cap,
            )

    def test_fault_ladder_range_ends_accepted(self):
        mesh = Mesh((8, 8))
        res = HierarchicalRouter().route(transpose(mesh), seed=0)
        fd = FaultModel.dynamic(mesh, p=0.1, seed=1)
        for max_retries, backoff_cap in ((0, 0), (3, 62)):
            out = simulate(
                mesh, res, faults=fd, max_retries=max_retries, backoff_cap=backoff_cap
            )
            assert out.delivered + out.dropped <= out.num_packets

    def test_empty_path_beside_faults(self):
        # a path with no nodes has no ends to look up: it is delivered at 0
        mesh = Mesh((8, 8))
        fm = FaultModel.static(mesh, p=0.05, seed=0)
        empty = np.asarray([], dtype=np.int64)
        out = simulate(mesh, [np.asarray([0, 1, 2]), empty], faults=fm)
        assert out.delivery_times[1] == 0 and out.num_packets == 2


class TestOnlineWithFaults:
    def test_trivial_faults_identical_stats(self):
        mesh = Mesh((8, 8))
        a = simulate_online(HierarchicalRouter(), mesh, rate=0.05, steps=30, seed=3)
        b = simulate_online(
            HierarchicalRouter(), mesh, rate=0.05, steps=30, seed=3,
            faults=FaultModel.static(mesh, p=0.0),
        )
        assert a.injected == b.injected and a.delivered == b.delivered
        np.testing.assert_array_equal(a.latencies, b.latencies)
        assert a.max_queue == b.max_queue

    def test_static_faults_high_delivery(self):
        mesh = Mesh((8, 8))
        fm = FaultModel.static(mesh, p=0.02, seed=1)
        s = simulate_online(
            HierarchicalRouter(), mesh, rate=0.05, steps=40, seed=3, faults=fm
        )
        assert s.delivery_ratio > 0.9
        assert s.resamples > 0  # selection had to dodge dead edges
        assert (s.latencies >= s.distances).all()

    def test_dynamic_faults_block_and_reroute(self):
        mesh = Mesh((8, 8))
        fd = FaultModel.dynamic(mesh, p=0.01, repair_delay=4, seed=9)
        s = simulate_online(
            HierarchicalRouter(), mesh, rate=0.05, steps=40, seed=3, faults=fd
        )
        assert s.blocked_steps > 0
        assert s.delivery_ratio > 0.8

    def test_blocked_at_destination_of_a_revisiting_path(self):
        # every packet bounces s -> t -> s -> t; the links die while the
        # packets sit on t, so re-selection from t to t gives one node
        class Bounce(HierarchicalRouter):
            def select_path(self, mesh, s, t, rng):
                return np.asarray([s] if s == t else [s, t, s, t])

        mesh = Mesh((2, 2))
        links = mesh.edge_ids(np.asarray([0, 2]), np.asarray([1, 3]))
        s = simulate_online(
            Bounce(), mesh, rate=1.0, steps=1, seed=0,
            dest_fn=lambda mesh, src, rng: src ^ 1,
            faults=_DeadDuring(mesh, links, 2, 12),
        )
        assert s.injected == 4 and s.delivered == 4
        assert s.dropped == 0 and s.reroutes == 0 and s.blocked_steps > 0

    def test_deterministic_under_fixed_seeds(self):
        mesh = Mesh((8, 8))
        runs = [
            simulate_online(
                HierarchicalRouter(), mesh, rate=0.05, steps=40, seed=3,
                faults=FaultModel.dynamic(mesh, p=0.01, repair_delay=4, seed=9),
            )
            for _ in range(2)
        ]
        assert runs[0].injected == runs[1].injected
        np.testing.assert_array_equal(runs[0].latencies, runs[1].latencies)
        assert runs[0].reroutes == runs[1].reroutes
        assert runs[0].blocked_steps == runs[1].blocked_steps

    def test_prewrapped_router_equivalent(self):
        mesh = Mesh((8, 8))
        fm = FaultModel.static(mesh, p=0.02, seed=1)
        plain = simulate_online(
            HierarchicalRouter(), mesh, rate=0.05, steps=30, seed=3, faults=fm
        )
        wrapped = simulate_online(
            FaultAwareRouter(
                HierarchicalRouter(), FaultModel.static(mesh, p=0.02, seed=1)
            ),
            mesh, rate=0.05, steps=30, seed=3,
        )
        assert plain.injected == wrapped.injected
        np.testing.assert_array_equal(plain.latencies, wrapped.latencies)
