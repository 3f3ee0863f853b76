"""General weighted graphs behind the :class:`~repro.mesh.mesh.Mesh` contract.

The paper routes on meshes, but its successors (semi-oblivious routing,
Räcke-style tree routing — see ``docs/COMPETITORS.md``) are stated for
arbitrary weighted graphs.  :class:`GeneralGraph` lifts the repo's topology
substrate to that setting while duck-typing the parts of the ``Mesh``
surface the topology-agnostic layers consume:

* ``n`` / ``d`` / ``sides`` / ``torus`` — shape metadata (``d = 1`` and
  ``sides = (n,)`` so flat ids round-trip through coordinate helpers and
  the default randomness budget stays well defined);
* ``distance`` / ``diameter`` — vectorised **hop** distances from an
  unweighted all-pairs BFS (metrics such as stretch and dilation compare
  against hop counts, exactly as on the mesh);
* ``edge_endpoints`` / ``edge_ids`` / ``edge_id_to_endpoints`` /
  ``adjacency_csr(edge_mask)`` / ``all_edges`` — the edge-id table and CSR
  adjacency contracts :class:`~repro.core.pathset.PathSet`, the metrics
  kernels, and the fault detour search are written against.

Edges additionally carry positive float ``weights`` (length, not
capacity); :meth:`weighted_distance` exposes the Dijkstra metric the
competitor routers optimise.  Instances hash by content digest, so they
work as process-stable :mod:`repro.cache` keys and survive pickling into
shard workers unchanged.

>>> g = GeneralGraph([(0, 1), (1, 2), (0, 2)], weights=[1.0, 1.0, 2.5])
>>> g.n, g.num_edges, g.sides, g.torus
(3, 3, (3,), False)
>>> int(g.distance(0, 2)), float(g.weighted_distance(0, 2))
(1, 2.0)
>>> g.neighbors(1)
[0, 2]
"""

from __future__ import annotations

import hashlib
from functools import cached_property
from typing import Iterator

import numpy as np

__all__ = [
    "GeneralGraph",
    "from_mesh",
    "random_regular",
    "dumbbell",
    "named_graph",
    "NAMED_GRAPHS",
]


class GeneralGraph:
    """An undirected, connected, positively weighted simple graph.

    ``edges`` is an ``(E, 2)`` array-like of node-id pairs; ``weights`` an
    optional matching array of positive edge lengths (default all 1.0).
    Edge ids are assigned by sorting the canonical ``(min, max)`` endpoint
    pairs lexicographically, so the id table is a pure function of the edge
    *set* — independent of input order.
    """

    def __init__(
        self,
        edges,
        weights=None,
        *,
        n: int | None = None,
        name: str = "general-graph",
    ):
        raw = np.asarray(edges)
        if raw.ndim != 2 or raw.shape[1] != 2 or raw.shape[0] == 0:
            raise ValueError("edges must be a non-empty (E, 2) array of node pairs")
        if raw.dtype.kind not in "iu" and not (
            raw.dtype.kind == "f" and np.all(np.isfinite(raw) & (raw == np.floor(raw)))
        ):
            raise ValueError("node ids must be integers")
        ep = raw.astype(np.int64)
        if ep.min() < 0:
            raise ValueError("node ids must be non-negative")
        if np.any(ep[:, 0] == ep[:, 1]):
            raise ValueError("self-loops are not allowed")
        w = (
            np.ones(ep.shape[0], dtype=np.float64)
            if weights is None
            else np.asarray(weights, dtype=np.float64)
        )
        if w.shape != (ep.shape[0],):
            raise ValueError("weights must align with edges")
        if not np.all(np.isfinite(w) & (w > 0)):
            raise ValueError("edge weights must be finite and positive")
        lo = np.minimum(ep[:, 0], ep[:, 1])
        hi = np.maximum(ep[:, 0], ep[:, 1])
        self.n = int(hi.max()) + 1 if n is None else int(n)
        if self.n < 2:
            raise ValueError("need at least two nodes")
        if int(hi.max()) >= self.n:
            raise ValueError("edge endpoint out of range")
        # A connected graph on n nodes has at least n - 1 edges; checking
        # that first keeps a huge n from sizing the reachability scan.
        if ep.shape[0] < self.n - 1:
            raise ValueError("graph must be connected")
        keys = lo * self.n + hi
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        if np.any(np.diff(keys) == 0):
            raise ValueError("duplicate edges are not allowed")
        self._edge_keys = keys
        endpoints = np.stack((lo[order], hi[order]), axis=1)
        endpoints.setflags(write=False)
        self.edge_endpoints = endpoints
        weights_sorted = np.ascontiguousarray(w[order])
        weights_sorted.setflags(write=False)
        self.weights = weights_sorted
        self.num_edges = int(endpoints.shape[0])
        # Mesh-compatible shape metadata: a general graph is "1-dimensional"
        # with a single side of length n, which keeps flat-id round-trips
        # and the default bit-budget ceiling meaningful.
        self.d = 1
        self.sides = (self.n,)
        self.torus = False
        self.name = name
        if not self._connected():
            raise ValueError("graph must be connected")

    # ------------------------------------------------------------------
    # Identity: content digest, stable across processes
    # ------------------------------------------------------------------
    @cached_property
    def _digest(self) -> bytes:
        h = hashlib.sha256()
        h.update(self.n.to_bytes(8, "little"))
        h.update(np.ascontiguousarray(self.edge_endpoints).tobytes())
        h.update(np.ascontiguousarray(self.weights).tobytes())
        return h.digest()

    def __hash__(self) -> int:
        return int.from_bytes(self._digest[:8], "little")

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, GeneralGraph):
            return NotImplemented
        return (
            self.n == other.n
            and np.array_equal(self.edge_endpoints, other.edge_endpoints)
            and np.array_equal(self.weights, other.weights)
        )

    def __repr__(self) -> str:
        return f"GeneralGraph({self.name!r}, n={self.n}, E={self.num_edges})"

    def _connected(self) -> bool:
        indptr, heads, _ = self.adjacency_csr()
        seen = np.zeros(self.n, dtype=bool)
        seen[0] = True
        frontier = [0]
        while frontier:
            nxt = []
            for u in frontier:
                for v in heads[indptr[u] : indptr[u + 1]].tolist():
                    if not seen[v]:
                        seen[v] = True
                        nxt.append(v)
            frontier = nxt
        return bool(seen.all())

    # ------------------------------------------------------------------
    # Distances (hop metric, matching Mesh.distance semantics)
    # ------------------------------------------------------------------
    @cached_property
    def _hop_matrix(self) -> np.ndarray:
        from scipy.sparse.csgraph import shortest_path

        dm = shortest_path(self._sparse(unit=True), method="D", unweighted=True)
        out = dm.astype(np.int64)
        out.setflags(write=False)
        return out

    @cached_property
    def _weighted_matrix(self) -> np.ndarray:
        from scipy.sparse.csgraph import dijkstra

        dm = dijkstra(self._sparse())
        dm.setflags(write=False)
        return dm

    def _sparse(self, unit: bool = False):
        from scipy.sparse import csr_matrix

        ep = self.edge_endpoints
        w = np.ones(self.num_edges) if unit else self.weights
        data = np.concatenate((w, w))
        rows = np.concatenate((ep[:, 0], ep[:, 1]))
        cols = np.concatenate((ep[:, 1], ep[:, 0]))
        return csr_matrix((data, (rows, cols)), shape=(self.n, self.n))

    def distance(self, u, v):
        """Hop distance (fewest edges); scalar in, scalar out."""
        scalar = np.isscalar(u) and np.isscalar(v)
        d = self._hop_matrix[np.asarray(u, dtype=np.int64), np.asarray(v, dtype=np.int64)]
        return int(d) if scalar else d

    def weighted_distance(self, u, v):
        """Shortest-path distance under the edge ``weights`` metric."""
        scalar = np.isscalar(u) and np.isscalar(v)
        d = self._weighted_matrix[
            np.asarray(u, dtype=np.int64), np.asarray(v, dtype=np.int64)
        ]
        return float(d) if scalar else d

    @cached_property
    def diameter(self) -> int:
        return int(self._hop_matrix.max())

    # ------------------------------------------------------------------
    # Adjacency
    # ------------------------------------------------------------------
    def neighbors(self, u: int) -> list[int]:
        indptr, heads, _ = self._csr
        return sorted(heads[indptr[u] : indptr[u + 1]].tolist())

    def degree(self, u: int) -> int:
        indptr, _, _ = self._csr
        return int(indptr[u + 1] - indptr[u])

    def iter_nodes(self) -> Iterator[int]:
        return iter(range(self.n))

    @cached_property
    def _csr(self):
        return self.adjacency_csr()

    def link_ids(self, tails: np.ndarray, heads: np.ndarray) -> np.ndarray:
        """Edge ids of the pairs ``(tails[i], heads[i])``, ``-1`` for a non-link.

        The graph's one id lookup (same contract as ``Mesh.link_ids``):
        ``int64`` ids in the input's shape and order; raises ``ValueError``
        if any node id is outside ``[0, n)``.
        """
        tails = np.asarray(tails, dtype=np.int64)
        heads = np.asarray(heads, dtype=np.int64)
        if tails.shape != heads.shape:
            raise ValueError("tails and heads must have the same shape")
        if tails.size and (
            min(tails.min(), heads.min()) < 0 or max(tails.max(), heads.max()) >= self.n
        ):
            raise ValueError("consecutive nodes are not mesh neighbors")
        keys = np.minimum(tails, heads) * self.n + np.maximum(tails, heads)
        idx = np.searchsorted(self._edge_keys, keys)
        idx = np.minimum(idx, self.num_edges - 1)
        return np.where(self._edge_keys[idx] == keys, idx, -1).astype(np.int64)

    def edge_ids(self, tails: np.ndarray, heads: np.ndarray) -> np.ndarray:
        """Edge ids of the links ``(tails[i], heads[i])``; raises on non-links."""
        ids = self.link_ids(tails, heads)
        if ids.size and int(ids.min()) < 0:
            raise ValueError("consecutive nodes are not mesh neighbors")
        return ids

    def edge_id_to_endpoints(self, edge_id: int) -> tuple[int, int]:
        if not (0 <= edge_id < self.num_edges):
            raise ValueError("edge id out of range")
        u, v = self.edge_endpoints[edge_id]
        return (int(u), int(v))

    def adjacency_csr(self, edge_mask: np.ndarray | None = None):
        """CSR adjacency ``(indptr, heads, eids)``; same contract as Mesh."""
        ep = self.edge_endpoints
        if edge_mask is not None:
            mask = np.asarray(edge_mask, dtype=bool)
            if mask.shape != (self.num_edges,):
                raise ValueError(
                    f"edge_mask must have shape ({self.num_edges},), got {mask.shape}"
                )
            ep = ep[mask]
            kept = np.flatnonzero(mask)
        else:
            kept = np.arange(self.num_edges, dtype=np.int64)
        tails = np.concatenate((ep[:, 0], ep[:, 1]))
        heads = np.concatenate((ep[:, 1], ep[:, 0]))
        eids = np.concatenate((kept, kept))
        order = np.argsort(tails, kind="stable")
        counts = np.bincount(tails, minlength=self.n)
        indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return indptr, heads[order], eids[order]

    def all_edges(self) -> np.ndarray:
        return self.edge_endpoints.copy()

    # ------------------------------------------------------------------
    # Interop + paper-specific gates
    # ------------------------------------------------------------------
    def to_networkx(self):
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(range(self.n))
        for e in range(self.num_edges):
            u, v = self.edge_id_to_endpoints(e)
            g.add_edge(u, v, edge_id=e, weight=float(self.weights[e]))
        return g

    @property
    def is_power_of_two_cube(self) -> bool:
        """Always False: the paper's decomposition gates never apply here."""
        return False


# ----------------------------------------------------------------------
# Factories
# ----------------------------------------------------------------------
def from_mesh(mesh) -> GeneralGraph:
    """The unit-weight :class:`GeneralGraph` with the same links as ``mesh``.

    Edge *ids* are renumbered (lexicographic endpoint order), but the node
    set, links, hop distances and CSR adjacency semantics agree — the
    property tests cross-check the two implementations on grid instances.
    """
    label = "x".join(str(s) for s in mesh.sides) + ("t" if mesh.torus else "")
    return GeneralGraph(
        mesh.edge_endpoints.copy(), n=mesh.n, name=f"grid-{label}"
    )


def random_regular(
    n: int, degree: int, seed: int = 0, *, weighted: bool = False
) -> GeneralGraph:
    """A connected random ``degree``-regular graph (expander-ish for d>=3).

    Deterministic in ``seed``: built by repeated seeded stub matching until
    the pairing is simple and connected.  ``weighted=True`` additionally
    draws edge weights from ``{0.75, 1.0, ..., 2.25}`` (exact quarter
    multiples, so float arithmetic stays reproducible).
    """
    if n * degree % 2 or degree >= n:
        raise ValueError("need degree < n and n*degree even")
    for attempt in range(1000):
        rng = np.random.default_rng((seed, attempt))
        stubs = rng.permutation(np.repeat(np.arange(n, dtype=np.int64), degree))
        pairs = stubs.reshape(-1, 2)
        lo = np.minimum(pairs[:, 0], pairs[:, 1])
        hi = np.maximum(pairs[:, 0], pairs[:, 1])
        if np.any(lo == hi):
            continue
        keys = lo * n + hi
        if np.unique(keys).size != keys.size:
            continue
        weights = None
        if weighted:
            weights = 0.75 + 0.25 * rng.integers(0, 7, size=keys.size)
        try:
            return GeneralGraph(
                pairs, weights, n=n, name=f"random-regular-{n}"
            )
        except ValueError:
            continue  # disconnected pairing: redraw
    raise RuntimeError("could not sample a connected simple regular graph")


def dumbbell(side: int, *, bridge_weight: float = 0.5) -> GeneralGraph:
    """Two ``side``-cliques joined by one bridge edge: the congestion stress
    case — all cross traffic must use the single bridge."""
    if side < 2:
        raise ValueError("side must be >= 2")
    edges = []
    weights = []
    for block in (0, side):
        for i in range(side):
            for j in range(i + 1, side):
                edges.append((block + i, block + j))
                weights.append(1.0)
    edges.append((side - 1, side))
    weights.append(bridge_weight)
    return GeneralGraph(edges, weights, n=2 * side, name=f"dumbbell-{2 * side}")


# Named instances: fixed, fully deterministic graphs usable as golden /
# verify-case topologies.  ``named_graph`` memoises through repro.cache so
# every caller in a process shares one object (and its lazy caches).
NAMED_GRAPHS = {
    "random-regular-24": lambda: random_regular(24, 4, seed=7, weighted=True),
    "dumbbell-16": lambda: dumbbell(8),
}


def named_graph(name: str) -> GeneralGraph:
    """Build (or fetch the cached) named deterministic graph instance."""
    from repro import cache

    if name not in NAMED_GRAPHS:
        raise KeyError(
            f"unknown graph {name!r}; choose from {sorted(NAMED_GRAPHS)}"
        )
    return cache.memo("named-graph", name, NAMED_GRAPHS[name])
