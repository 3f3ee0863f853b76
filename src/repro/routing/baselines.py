"""Baseline routers the paper compares against (explicitly or implicitly).

* :class:`DimensionOrderRouter` — deterministic dimension-by-dimension
  (XY / e-cube) shortest paths.  Stretch 1, but deterministic oblivious
  routing has unavoidable ``Ω(sqrt(n)/d)``-type congestion on worst-case
  permutations (Section 5.1; Borodin-Hopcroft / Kaklamanis et al.).
* :class:`RandomDimOrderRouter` — same, with a random dimension order per
  packet.  Still stretch 1; the randomization spreads load across the
  ``d!`` staircase paths (the ingredient the paper says improves Maggs et
  al. by a factor of ``d``).
* :class:`ValiantRouter` — route to a uniformly random intermediate node,
  then to the destination (Valiant & Brebner [14]).  Good congestion on
  permutations, but stretch ``Θ(m)`` for nearby pairs — the unbounded
  stretch the paper criticises.
* :class:`AccessTreeRouter` — the hierarchical scheme *without* bridges:
  exactly the access tree of Maggs et al. [9].  Near-optimal congestion but
  unbounded stretch (adjacent nodes straddling the top-level cut travel
  ``Θ(m)``).
* :class:`ShortestPathRouter` — one fixed shortest path per pair (networkx
  bidirectional search on the mesh graph); deterministic, minimal stretch.
* :class:`GreedyMinCongestionRouter` — an *offline, non-oblivious*
  sequential heuristic: each packet takes a path minimising the current
  maximum load (Dijkstra over congestion-aware weights).  Stands in for the
  offline algorithms of [1, 2, 12, 13] when we report "oblivious is within
  a log factor of offline".
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.path_selection import HierarchicalRouter
from repro.mesh.mesh import Mesh
from repro.mesh.paths import concatenate_paths, dimension_order_path, remove_cycles
from repro.routing.base import Router, RoutingProblem, RoutingResult

__all__ = [
    "DimensionOrderRouter",
    "RandomDimOrderRouter",
    "ValiantRouter",
    "AccessTreeRouter",
    "ShortestPathRouter",
    "GreedyMinCongestionRouter",
]


def _stageless_spec(problem: RoutingProblem, dim_order: str, fixed_order=None):
    """A :class:`BatchSpec` with zero inner boxes: a single dimension-order
    subpath from source to destination (the dim-order router family)."""
    from repro.routing.engine import BatchSpec

    mesh = problem.mesh
    N = problem.num_packets
    return BatchSpec(
        mesh=mesh,
        coords_s=np.atleast_2d(mesh.flat_to_coords(problem.sources)),
        coords_t=np.atleast_2d(mesh.flat_to_coords(problem.dests)),
        box_lo=np.empty((N, 0, mesh.d), dtype=np.int64),
        box_len=np.empty((N, 0, mesh.d), dtype=np.int64),
        dim_order=dim_order,
        fixed_order=tuple(fixed_order) if fixed_order is not None else None,
        drop_cycles=False,  # a single dimension-order subpath never cycles
    )


class DimensionOrderRouter(Router):
    """Deterministic dimension-order (XY / e-cube) routing."""

    is_oblivious = True

    def __init__(self, order: Sequence[int] | None = None):
        self.order = tuple(order) if order is not None else None
        suffix = "" if order is None else "-" + "".join(map(str, self.order))
        self.name = f"dim-order{suffix}"

    def select_path(self, mesh: Mesh, s: int, t: int, rng: np.random.Generator) -> np.ndarray:
        return dimension_order_path(mesh, s, t, self.order)

    def batch_spec(self, problem: RoutingProblem):
        if problem.mesh.torus:
            return None
        return _stageless_spec(problem, "fixed", fixed_order=self.order)

    def planned_bits(self, problem: RoutingProblem, mode: str | None = None):
        # Deterministic: zero random bits in every mode.
        return np.zeros(problem.num_packets, dtype=np.int64)


class RandomDimOrderRouter(Router):
    """Dimension-order routing with a random permutation per packet."""

    is_oblivious = True
    name = "random-dim-order"

    def select_path(self, mesh: Mesh, s: int, t: int, rng: np.random.Generator) -> np.ndarray:
        order = tuple(int(x) for x in rng.permutation(mesh.d))
        return dimension_order_path(mesh, s, t, order)

    def batch_spec(self, problem: RoutingProblem):
        if problem.mesh.torus:
            return None
        # "shared" = one random ordering per packet; with a single subpath
        # that is exactly "a random permutation per packet".
        return _stageless_spec(problem, "shared")

    def planned_bits(self, problem: RoutingProblem, mode: str | None = None):
        from repro.core.budget import perm_bits

        pb = perm_bits(problem.mesh.d)
        return np.where(problem.sources != problem.dests, pb, 0).astype(np.int64)


class ValiantRouter(Router):
    """Valiant-Brebner two-phase routing via a random intermediate node.

    Both phases use (independently) random dimension orders, matching the
    randomized-dimension-routing convention of the other routers.
    """

    is_oblivious = True
    name = "valiant"
    #: the analyzer contract: every subpath uses a fresh random dim order
    dim_order = "random"

    def __init__(self, *, drop_cycles: bool = True):
        self.drop_cycles = drop_cycles

    def submesh_sequence(self, mesh: Mesh, s: int, t: int):
        """Valiant as a (degenerate) bitonic sequence: leaf -> mesh -> leaf.

        The random intermediate node is exactly a uniform waypoint in the
        whole mesh, so the exact expected-load analyzer
        (:mod:`repro.analysis.expected_congestion`) applies verbatim.
        """
        from repro.mesh.submesh import Submesh

        if s == t:
            return [Submesh.single(mesh, s)], 0
        return (
            [Submesh.single(mesh, s), Submesh.whole(mesh), Submesh.single(mesh, t)],
            1,
        )

    def select_path(self, mesh: Mesh, s: int, t: int, rng: np.random.Generator) -> np.ndarray:
        if s == t:
            return np.asarray([s], dtype=np.int64)
        w = int(rng.integers(mesh.n))
        first = dimension_order_path(
            mesh, s, w, tuple(int(x) for x in rng.permutation(mesh.d))
        )
        second = dimension_order_path(
            mesh, w, t, tuple(int(x) for x in rng.permutation(mesh.d))
        )
        path = concatenate_paths([first, second])
        return remove_cycles(path) if self.drop_cycles else path

    def batch_spec(self, problem: RoutingProblem):
        mesh = problem.mesh
        if mesh.torus:
            return None
        from repro.routing.engine import BatchSpec

        cs = np.atleast_2d(mesh.flat_to_coords(problem.sources))
        ct = np.atleast_2d(mesh.flat_to_coords(problem.dests))
        alive = (cs != ct).any(axis=1, keepdims=True)
        sides = np.asarray(mesh.sides, dtype=np.int64)
        # One inner box per packet: the whole mesh (a uniform waypoint),
        # padded to the destination's single-node box for s == t packets.
        box_lo = np.where(alive, 0, ct)[:, None, :]
        box_len = np.where(alive, sides, 1)[:, None, :]
        return BatchSpec(
            mesh=mesh,
            coords_s=cs,
            coords_t=ct,
            box_lo=box_lo,
            box_len=box_len,
            dim_order="random",
            drop_cycles=self.drop_cycles,
        )

    def planned_bits(self, problem: RoutingProblem, mode: str | None = None):
        from repro.core.budget import perm_bits
        from repro.core.randomness import bits_for_range

        mesh = problem.mesh
        # One uniform waypoint in the whole mesh + two fresh orderings.
        cost = sum(bits_for_range(side) for side in mesh.sides) + 2 * perm_bits(
            mesh.d
        )
        return np.where(problem.sources != problem.dests, cost, 0).astype(np.int64)


class AccessTreeRouter(HierarchicalRouter):
    """The access-tree algorithm of Maggs et al. [9]: no bridge submeshes.

    Identical machinery to :class:`HierarchicalRouter` with bridges
    switched off, so the comparison isolates exactly the paper's new idea.
    """

    def __init__(self, *, dim_order: str = "random", **kwargs):
        kwargs.setdefault("name", "access-tree")
        super().__init__(use_bridges=False, dim_order=dim_order, **kwargs)


class ShortestPathRouter(Router):
    """A fixed shortest path per pair, via networkx bidirectional search.

    Deterministic (networkx tie-breaking), so congestion concentrates on
    median lines for structured permutations — the cautionary baseline for
    "just take shortest paths".  Small meshes only (builds the graph).
    """

    is_oblivious = True
    name = "shortest-path"

    def __init__(self):
        self._graph_cache: dict[Mesh, object] = {}

    def _graph(self, mesh: Mesh):
        g = self._graph_cache.get(mesh)
        if g is None:
            g = mesh.to_networkx()
            self._graph_cache[mesh] = g
        return g

    def select_path(self, mesh: Mesh, s: int, t: int, rng: np.random.Generator) -> np.ndarray:
        import networkx as nx

        path = nx.bidirectional_shortest_path(self._graph(mesh), s, t)
        return np.asarray(path, dtype=np.int64)

    def planned_bits(self, problem: RoutingProblem, mode: str | None = None):
        # Deterministic tie-breaking: zero random bits.
        return np.zeros(problem.num_packets, dtype=np.int64)


class GreedyMinCongestionRouter(Router):
    """Offline sequential greedy: route each packet to minimise current load.

    Not oblivious — the path of packet ``i`` depends on packets ``< i``.
    Edge weights are ``(1 + load)^alpha`` so heavily used edges repel new
    paths; with ``alpha`` large this approximates min-max-load routing
    (cf. the exponential-weights schemes of Aspnes et al. [1]).
    """

    is_oblivious = False
    name = "greedy-offline"

    def __init__(self, alpha: float = 8.0, shuffle: bool = True):
        self.alpha = float(alpha)
        self.shuffle = bool(shuffle)

    def select_path(self, mesh: Mesh, s: int, t: int, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError("greedy routing is not per-packet oblivious")

    @staticmethod
    def _csr_structure(mesh: Mesh):
        """Fixed CSR sparsity of the directed mesh graph (cached per shape):
        ``(indptr, indices, eid)`` where ``eid`` maps each directed entry to
        its undirected edge id, in CSR data order.  Only the data vector
        (the congestion-aware weights) changes between Dijkstra calls."""
        from repro import cache

        def build():
            edges = mesh.all_edges()
            eid = np.arange(mesh.num_edges, dtype=np.int64)
            tails = np.concatenate([edges[:, 0], edges[:, 1]])
            heads = np.concatenate([edges[:, 1], edges[:, 0]])
            eid2 = np.concatenate([eid, eid])
            perm = np.lexsort((heads, tails))
            tails, heads, eid2 = tails[perm], heads[perm], eid2[perm]
            indptr = np.zeros(mesh.n + 1, dtype=np.int64)
            np.cumsum(np.bincount(tails, minlength=mesh.n), out=indptr[1:])
            return indptr, heads, eid2

        return cache.memo("greedy-csr", mesh, build)

    def route(
        self,
        problem: RoutingProblem,
        seed: int | None = None,
        *,
        workers: int | None = 1,
        packet_offset: int = 0,
        budget=None,
    ) -> RoutingResult:
        # Greedy routing is sequential by construction (each path sees the
        # loads of every earlier one), so it cannot shard; ``workers`` and
        # ``packet_offset`` are accepted for interface parity (a greedy
        # route is always one task of every packet) and it always routes
        # in-process.
        # ``budget`` likewise: the router draws no per-packet oblivious
        # randomness, so an active budget records every packet as unmetered
        # (the documented fallback mode) and never degrades anything.
        from repro.core.budget import BudgetParams, note_budget

        params = BudgetParams.resolve(budget)
        ledger = None
        if params.active:
            ledger = params.make_ledger(problem.mesh, problem.num_packets)
            ledger.unmetered = problem.num_packets
            note_budget(self.profiler, ledger)
        result = self._route_greedy(problem, seed)
        result.budget = ledger
        return result

    def _route_greedy(
        self, problem: RoutingProblem, seed: int | None
    ) -> RoutingResult:
        mesh = problem.mesh
        loads = np.zeros(mesh.num_edges, dtype=np.int64)
        rng = np.random.default_rng(seed)
        order = np.arange(problem.num_packets)
        if self.shuffle:
            rng.shuffle(order)
        try:
            from scipy.sparse import csr_matrix
            from scipy.sparse.csgraph import dijkstra
        except ImportError:  # pragma: no cover - scipy is a hard dependency
            return self._route_networkx(problem, loads, order)

        indptr, indices, eid = self._csr_structure(mesh)
        # One CSR whose sparsity never changes; only .data (the weights) is
        # rewritten between Dijkstra calls, skipping per-packet validation.
        graph = csr_matrix(
            (np.ones(indices.size, dtype=np.float64), indices, indptr),
            shape=(mesh.n, mesh.n),
        )
        paths: list[np.ndarray | None] = [None] * problem.num_packets
        for i in order.tolist():
            s = int(problem.sources[i])
            t = int(problem.dests[i])
            if s == t:
                paths[i] = np.asarray([s], dtype=np.int64)
                continue
            np.power(1.0 + loads[eid], self.alpha, out=graph.data)
            _, pred = dijkstra(graph, indices=s, return_predecessors=True)
            node_path = [t]
            while node_path[-1] != s:
                node_path.append(int(pred[node_path[-1]]))
            p = np.asarray(node_path[::-1], dtype=np.int64)
            loads[mesh.edge_ids(p[:-1], p[1:])] += 1
            paths[i] = p
        return RoutingResult(problem, paths, self.name, seed)  # type: ignore[arg-type]

    def _route_networkx(
        self, problem: RoutingProblem, loads: np.ndarray, order: np.ndarray
    ) -> RoutingResult:
        """Pure-networkx fallback (same greedy, Python-speed Dijkstra)."""
        import networkx as nx

        mesh = problem.mesh
        g = mesh.to_networkx()

        def weight(u, v, data):
            return float((1.0 + loads[data["edge_id"]]) ** self.alpha)

        paths: list[np.ndarray | None] = [None] * problem.num_packets
        for i in order.tolist():
            s = int(problem.sources[i])
            t = int(problem.dests[i])
            if s == t:
                paths[i] = np.asarray([s], dtype=np.int64)
                continue
            node_path = nx.dijkstra_path(g, s, t, weight=weight)
            p = np.asarray(node_path, dtype=np.int64)
            loads[mesh.edge_ids(p[:-1], p[1:])] += 1
            paths[i] = p
        return RoutingResult(problem, paths, self.name, seed=None)  # type: ignore[arg-type]
