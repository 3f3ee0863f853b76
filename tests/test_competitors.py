"""Competitor routers (semi-oblivious + Räcke tree) and ``GeneralGraph``.

Covers the PR-9 acceptance matrix:

* ``GeneralGraph`` honours the ``Mesh`` topology contract (distances,
  edge ids, CSR adjacency) and cross-checks against ``Mesh`` on grids;
* both competitor routers are byte-deterministic under fixed seeds, for
  every worker count, and per-packet oblivious;
* the randomness budget meters them (semi-oblivious pays ``k·⌈log n⌉``
  fresh bits, the tree router zero), and a tight enforced cap pushes
  semi-oblivious packets down the recycled (tree) rung of the ladder;
* the compact per-node tree state round-trips through bytes and stays
  logarithmic.

Property layers use seeded random *connected weighted* graphs built from
a random tree plus extra chords — arbitrary topologies, not grids.
"""

from __future__ import annotations

import hashlib
import json
import pickle
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.budget import BudgetParams, default_budget_bits
from repro.core.pathset import PathSet
from repro.core.randomness import bits_for_range
from repro.mesh.graph import (
    GeneralGraph,
    NAMED_GRAPHS,
    dumbbell,
    from_mesh,
    named_graph,
    random_regular,
)
from repro.mesh.mesh import Mesh
from repro.parallel import SerialExecutor, route_sharded
from repro.routing.competitors import (
    RackeNodeTable,
    RackeTreeRouter,
    SemiObliviousRouter,
    node_table,
    state_bits_per_node,
    tree_waypoints,
)
from repro.routing.registry import available_routers, make_router
from repro.verify.oracles import (
    oracle_weighted_distance,
    oracle_weighted_length,
)
from repro.workloads.generators import random_pairs
from repro.workloads.permutations import random_permutation


def digest(paths) -> str:
    h = hashlib.sha256()
    h.update(paths.nodes.tobytes())
    h.update(paths.offsets.tobytes())
    return h.hexdigest()


def random_connected_graph(seed: int, n: int) -> GeneralGraph:
    """A connected weighted graph: random tree + chords, quarter weights."""
    rng = np.random.default_rng(seed)
    edges = {(int(rng.integers(0, v)), v) for v in range(1, n)}
    for _ in range(int(rng.integers(0, 2 * n))):
        a, b = int(rng.integers(0, n)), int(rng.integers(0, n))
        if a != b:
            edges.add((min(a, b), max(a, b)))
    edge_list = sorted(edges)
    weights = 0.25 * rng.integers(1, 12, size=len(edge_list))
    return GeneralGraph(edge_list, weights, n=n, name=f"hyp-{seed}")


# ---------------------------------------------------------------------------
# GeneralGraph topology contract
# ---------------------------------------------------------------------------

class TestGeneralGraph:
    def test_registry_exposes_both_competitors(self):
        names = available_routers()
        assert "semi-oblivious" in names and "racke-tree" in names

    def test_construction_validation(self):
        with pytest.raises(ValueError, match="self-loops"):
            GeneralGraph([(0, 0), (0, 1)])
        with pytest.raises(ValueError, match="duplicate"):
            GeneralGraph([(0, 1), (1, 0)])
        with pytest.raises(ValueError, match="positive"):
            GeneralGraph([(0, 1)], weights=[0.0])
        with pytest.raises(ValueError, match="connected"):
            GeneralGraph([(0, 1), (2, 3)])
        with pytest.raises(ValueError, match="out of range"):
            GeneralGraph([(0, 5)], n=3)
        with pytest.raises(ValueError, match="finite and positive"):
            GeneralGraph([(0, 1), (1, 2), (2, 3)], weights=[1, np.inf, 1])
        with pytest.raises(ValueError, match="integers"):
            GeneralGraph([[0.5, 1.7], [1, 2]])
        with pytest.raises(ValueError, match="connected"):
            GeneralGraph([(0, 1)], n=10**12)

    def test_edge_ids_rejects_non_links(self):
        g = named_graph("dumbbell-16")
        with pytest.raises(ValueError, match="not mesh neighbors"):
            g.edge_ids(np.array([0]), np.array([15]))  # cross-clique non-edge
        with pytest.raises(ValueError, match="not mesh neighbors"):
            g.edge_ids(np.array([3]), np.array([3]))

    def test_edge_id_table_roundtrip(self):
        g = named_graph("random-regular-24")
        for e in range(g.num_edges):
            u, v = g.edge_id_to_endpoints(e)
            assert int(g.edge_ids(np.array([u]), np.array([v]))[0]) == e
            assert int(g.edge_ids(np.array([v]), np.array([u]))[0]) == e

    @given(
        m1=st.integers(2, 5),
        m2=st.integers(2, 5),
        seed=st.integers(0, 10),
    )
    @settings(max_examples=15, deadline=None)
    def test_grid_equivalence_with_mesh(self, m1, m2, seed):
        """A mesh re-expressed as a GeneralGraph agrees on hop distances,
        neighbor sets, and degree — edge *ids* may be renumbered."""
        mesh = Mesh((m1, m2))
        g = from_mesh(mesh)
        rng = np.random.default_rng(seed)
        us = rng.integers(0, mesh.n, size=16)
        vs = rng.integers(0, mesh.n, size=16)
        np.testing.assert_array_equal(
            np.asarray(g.distance(us, vs)), np.asarray(mesh.distance(us, vs))
        )
        for v in range(mesh.n):
            assert g.neighbors(v) == mesh.neighbors(v)
            assert g.degree(v) == mesh.degree(v)
        assert g.diameter == mesh.diameter
        assert g.num_edges == mesh.num_edges

    def test_adjacency_csr_mask_contract(self):
        g = named_graph("dumbbell-16")
        mask = np.ones(g.num_edges, dtype=bool)
        bridge = int(g.edge_ids(np.array([7]), np.array([8]))[0])
        mask[bridge] = False
        indptr, heads, eids = g.adjacency_csr(mask)
        assert indptr[-1] == 2 * (g.num_edges - 1)
        assert bridge not in set(eids.tolist())
        with pytest.raises(ValueError, match="edge_mask"):
            g.adjacency_csr(np.ones(3, dtype=bool))

    def test_identity_and_pickle(self):
        a = named_graph("random-regular-24")
        b = random_regular(24, 4, seed=7, weighted=True)
        assert a == b and hash(a) == hash(b)
        assert a != dumbbell(8)
        assert a != Mesh((24,))  # never equal to a same-shaped mesh
        c = pickle.loads(pickle.dumps(a))
        assert c == a and hash(c) == hash(a)
        # named_graph memoises: same object back on every call
        assert named_graph("random-regular-24") is a
        with pytest.raises(KeyError):
            named_graph("no-such-graph")

    def test_paper_gates_stay_closed(self):
        g = named_graph("dumbbell-16")
        assert g.is_power_of_two_cube is False
        assert g.torus is False and g.d == 1 and g.sides == (g.n,)

    def test_pathset_edge_cache_distinguishes_same_shape_topologies(self):
        """Regression for the edge-id cache key: a 1-D mesh and a graph
        with the same node count must not share cached edge ids."""
        mesh = Mesh((5,))
        g = GeneralGraph([(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)], n=5)
        assert mesh.sides == g.sides and mesh.torus == g.torus
        ps = PathSet.from_paths([np.array([0, 1, 2], dtype=np.int64)])
        mesh_ids = ps.edge_ids(mesh).tolist()
        graph_ids = ps.edge_ids(g).tolist()
        assert mesh_ids == [0, 1]
        assert graph_ids == [0, 2]  # (0,1) then (1,2) in lexicographic order

    def test_weighted_distance_uses_lengths(self):
        g = dumbbell(8)  # bridge edge (7, 8) has weight 0.5
        assert g.distance(7, 8) == 1
        assert g.weighted_distance(7, 8) == 0.5
        assert g.weighted_distance(0, 15) == 1.0 + 0.5 + 1.0

    def test_named_graphs_all_buildable(self):
        for name in NAMED_GRAPHS:
            g = named_graph(name)
            assert g.n >= 2 and g.num_edges >= g.n - 1


# ---------------------------------------------------------------------------
# Determinism, worker counts
# ---------------------------------------------------------------------------

TOPOLOGIES = (
    lambda: Mesh((8, 8)),
    lambda: Mesh((8, 8), torus=True),
    lambda: named_graph("random-regular-24"),
    lambda: named_graph("dumbbell-16"),
)


class TestDeterminism:
    @pytest.mark.parametrize("name", ["semi-oblivious", "racke-tree"])
    @pytest.mark.parametrize("topo", TOPOLOGIES, ids=["8x8", "8x8t", "rr24", "dumbbell"])
    def test_scalar_vs_batch_byte_equality(self, name, topo):
        """route() and a manual per-packet select_path loop must produce
        identical bytes (competitors have no batch spec: route() is the
        per-packet loop)."""
        from repro.core.randomness import packet_streams

        mesh = topo()
        problem = random_pairs(mesh, 40, seed=3)
        router = make_router(name)
        assert router.batch_spec(problem) is None
        a = router.route(problem, seed=11)
        streams = packet_streams(a.seed, 0, problem.num_packets)
        manual = [
            router.select_path(mesh, int(s), int(t), stream)
            for (s, t), stream in zip(problem.pairs(), streams)
        ]
        assert digest(PathSet.from_paths(manual)) == digest(a.paths)

    @pytest.mark.parametrize("name", ["semi-oblivious", "racke-tree"])
    def test_seed_determinism(self, name):
        g = named_graph("random-regular-24")
        problem = random_permutation(g, seed=0)
        router = make_router(name)
        assert digest(router.route(problem, seed=5).paths) == digest(
            router.route(problem, seed=5).paths
        )

    def test_semi_oblivious_seed_sensitivity(self):
        g = named_graph("random-regular-24")
        problem = random_permutation(g, seed=0)
        router = make_router("semi-oblivious")
        hashes = {digest(router.route(problem, seed=s).paths) for s in range(6)}
        assert len(hashes) > 1  # the candidate sampling really is random

    def test_racke_tree_ignores_the_seed(self):
        g = named_graph("dumbbell-16")
        problem = random_permutation(g, seed=0)
        router = make_router("racke-tree")
        assert digest(router.route(problem, seed=0).paths) == digest(
            router.route(problem, seed=999).paths
        )

    @pytest.mark.parametrize("workers", [2, 3, 5])
    @pytest.mark.parametrize("name", ["semi-oblivious", "racke-tree"])
    def test_shard_invariance(self, name, workers):
        g = named_graph("random-regular-24")
        problem = random_pairs(g, 60, seed=1)
        router = make_router(name)
        serial = router.route(problem, seed=7, workers=1)
        sharded = route_sharded(
            router, problem, seed=7, workers=workers, executor=SerialExecutor()
        )
        assert digest(serial.paths) == digest(sharded.paths)

    def test_process_pool_matches_serial_on_a_graph(self):
        g = named_graph("dumbbell-16")
        problem = random_pairs(g, 40, seed=2)
        router = make_router("semi-oblivious")
        a = router.route(problem, seed=4, workers=1)
        b = router.route(problem, seed=4, workers=4)
        assert digest(a.paths) == digest(b.paths)

    def test_golden_graph_cell_for_every_worker_count(self):
        """The committed general-graph golden binds sharded execution."""
        goldens = json.loads(
            (Path(__file__).parent / "golden" / "path_hashes.json").read_text()
        )
        g = named_graph("random-regular-24")
        problem = random_permutation(g, seed=0)
        for name in ("semi-oblivious", "racke-tree"):
            for workers in (1, 3):
                res = make_router(name).route(problem, seed=0, workers=workers)
                assert (
                    digest(res.paths)
                    == goldens[f"{name}|random-regular-24|seed=0"]
                )


# ---------------------------------------------------------------------------
# Hypothesis property layer: arbitrary connected weighted graphs
# ---------------------------------------------------------------------------

class TestGraphProperties:
    @given(seed=st.integers(0, 40), n=st.integers(4, 14))
    @settings(max_examples=20, deadline=None)
    def test_valid_walks_on_arbitrary_graphs(self, seed, n):
        g = random_connected_graph(seed, n)
        problem = random_pairs(g, 12, seed=seed + 1)
        for name in ("semi-oblivious", "racke-tree"):
            res = make_router(name).route(problem, seed=seed)
            assert res.validate()
            for i in range(problem.num_packets):
                path = [int(x) for x in res.paths[i]]
                assert path[0] == int(problem.sources[i])
                assert path[-1] == int(problem.dests[i])
                assert len(set(path)) == len(path)  # cycle-free

    @given(seed=st.integers(0, 30), n=st.integers(4, 12))
    @settings(max_examples=15, deadline=None)
    def test_semi_oblivious_weighted_stretch(self, seed, n):
        """Every sampled candidate is shortest under <= (1+eps)-inflated
        weights, so the chosen path's weighted length obeys the bound."""
        g = random_connected_graph(seed, n)
        problem = random_pairs(g, 10, seed=seed + 2)
        router = SemiObliviousRouter()
        res = router.route(problem, seed=seed)
        for i in range(problem.num_packets):
            s, t = int(problem.sources[i]), int(problem.dests[i])
            got = oracle_weighted_length(g, res.paths[i])
            opt = oracle_weighted_distance(g, s, t)
            assert got <= (1.0 + router.eps) * opt + 1e-9

    @given(seed=st.integers(0, 30), n=st.integers(4, 12))
    @settings(max_examples=15, deadline=None)
    def test_racke_path_within_waypoint_ceiling(self, seed, n):
        g = random_connected_graph(seed, n)
        problem = random_pairs(g, 10, seed=seed + 3)
        res = RackeTreeRouter().route(problem, seed=seed)
        for i in range(problem.num_packets):
            s, t = int(problem.sources[i]), int(problem.dests[i])
            if s == t:
                continue
            way = tree_waypoints(g, s, t)
            ceiling = sum(
                oracle_weighted_distance(g, a, b) for a, b in zip(way, way[1:])
            )
            assert oracle_weighted_length(g, res.paths[i]) <= ceiling + 1e-9

    @given(
        seed=st.integers(0, 20),
        n=st.integers(4, 12),
        row=st.integers(0, 9),
    )
    @settings(max_examples=15, deadline=None)
    def test_per_packet_obliviousness(self, seed, n, row):
        """Routing packet i alone at its global index reproduces its path."""
        g = random_connected_graph(seed, n)
        problem = random_pairs(g, 10, seed=seed + 4)
        for name in ("semi-oblivious", "racke-tree"):
            router = make_router(name)
            full = router.route(problem, seed=seed)
            solo = router.route(
                problem.subproblem([row]), full.seed, packet_offset=row
            )
            np.testing.assert_array_equal(
                np.asarray(solo.paths[0]), np.asarray(full.paths[row])
            )

    @given(seed=st.integers(0, 25), workers=st.sampled_from([2, 3, 5, 9]))
    @settings(max_examples=15, deadline=None)
    def test_budget_ledger_shard_invariant(self, seed, workers):
        """TestBudgetSharding idiom, lifted to a general graph: merged
        shard ledgers equal the serial ledger field for field."""
        g = named_graph("random-regular-24")
        problem = random_pairs(g, 30, seed=seed)
        budget = BudgetParams(mode="measure")
        router = SemiObliviousRouter()
        serial = router.route(problem, seed=seed, workers=1, budget=budget)
        sharded = route_sharded(
            router, problem, seed=seed, workers=workers,
            executor=SerialExecutor(), budget=budget,
        )
        assert digest(serial.paths) == digest(sharded.paths)
        assert serial.budget.to_dict() == sharded.budget.to_dict()


# ---------------------------------------------------------------------------
# Randomness budget: metering and the degradation ladder
# ---------------------------------------------------------------------------

class TestBudget:
    def test_semi_oblivious_is_metered(self):
        g = named_graph("random-regular-24")
        problem = random_pairs(g, 25, seed=0)
        res = SemiObliviousRouter().route(problem, seed=1, budget="measure")
        per_packet = 4 * bits_for_range(g.n)
        assert res.budget.metered == 25 and res.budget.unmetered == 0
        assert res.budget.bits_drawn == 25 * per_packet
        assert res.budget.max_bits == per_packet

    def test_racke_tree_draws_zero_bits(self):
        g = named_graph("dumbbell-16")
        problem = random_pairs(g, 25, seed=0)
        res = RackeTreeRouter().route(problem, seed=1, budget="measure")
        assert res.budget.metered == 25
        assert res.budget.bits_drawn == 0 and res.budget.max_bits == 0

    @pytest.mark.parametrize("topo", TOPOLOGIES, ids=["8x8", "8x8t", "rr24", "dumbbell"])
    def test_default_ceiling_never_degrades_competitors(self, topo):
        mesh = topo()
        problem = random_pairs(mesh, 30, seed=3)
        ceiling = default_budget_bits(mesh)
        for name in ("semi-oblivious", "racke-tree"):
            router = make_router(name)
            plan = router.planned_bits(problem)
            assert int(np.max(plan)) <= ceiling
            res = router.route(problem, seed=2, budget="enforce")
            assert res.budget.fallbacks == 0

    def test_tight_cap_falls_back_to_the_tree_rung(self):
        """Under an impossible fresh budget every semi-oblivious packet is
        re-routed by the zero-bit tree fallback — never dimension-order,
        which does not exist on a general graph."""
        g = named_graph("random-regular-24")
        problem = random_permutation(g, seed=0)
        capped = SemiObliviousRouter().route(problem, seed=6, budget=3)
        tree = RackeTreeRouter().route(problem, seed=6)
        assert digest(capped.paths) == digest(tree.paths)
        assert capped.budget.fallbacks_recycled == problem.num_packets
        assert capped.budget.fallbacks_dimorder == 0
        assert capped.budget.bits_drawn == 0

    def test_tight_cap_ladder_is_shard_invariant(self):
        g = named_graph("random-regular-24")
        problem = random_pairs(g, 40, seed=5)
        budget = BudgetParams(mode="enforce", bits=3)
        serial = SemiObliviousRouter().route(
            problem, seed=6, workers=1, budget=budget
        )
        sharded = route_sharded(
            SemiObliviousRouter(), problem, seed=6, workers=3,
            executor=SerialExecutor(), budget=budget,
        )
        assert digest(serial.paths) == digest(sharded.paths)
        assert serial.budget.to_dict() == sharded.budget.to_dict()


# ---------------------------------------------------------------------------
# Compact per-node tree state
# ---------------------------------------------------------------------------

class TestRackeNodeTable:
    def test_roundtrip_every_node(self):
        g = named_graph("dumbbell-16")
        for v in range(g.n):
            table = node_table(g, v)
            assert table.centers[-1] == v
            assert RackeNodeTable.from_bytes(table.to_bytes()) == table

    def test_rejects_bad_blobs(self):
        g = named_graph("dumbbell-16")
        blob = node_table(g, 0).to_bytes()
        with pytest.raises(ValueError, match="magic"):
            RackeNodeTable.from_bytes(b"XXXX" + blob[4:])
        with pytest.raises(ValueError, match="trailing"):
            RackeNodeTable.from_bytes(blob + b"\x00")
        with pytest.raises(ValueError, match="end at the node"):
            RackeNodeTable(n=4, node=1, centers=(0, 2))
        with pytest.raises(ValueError, match="out of range"):
            node_table(g, g.n)

    @pytest.mark.parametrize("topo", TOPOLOGIES, ids=["8x8", "8x8t", "rr24", "dumbbell"])
    def test_state_stays_logarithmic(self, topo):
        mesh = topo()
        bits = state_bits_per_node(mesh)
        depth_ceiling = int(np.ceil(np.log2(mesh.n))) + 1
        # header (14 bytes) + <= depth_ceiling centers of 4 bytes each
        assert bits <= 8 * (14 + 4 * depth_ceiling)

    def test_chains_share_the_root(self):
        g = named_graph("random-regular-24")
        roots = {node_table(g, v).centers[0] for v in range(g.n)}
        assert len(roots) == 1
