"""Reference oracles: slow, obviously-correct reimplementations of hot paths.

Every function here trades speed for transparency.  The batched engine,
the columnar metrics, the fault masking, and the sharded merge are all
re-derived from first principles — scalar Python loops, dict-based edge
lookups, numpy's *public* ``SeedSequence`` instead of the repo's
vectorised :func:`~repro.core.randomness.spawn_state` replica — so that a
bug in the optimised code and the same bug in the oracle would have to be
introduced twice, independently, to go unnoticed.

The canonical randomized-routing protocol being checked (see
:mod:`repro.routing.engine`):

* packet ``i`` (global index) draws all its uniforms from
  ``SeedSequence(entropy, spawn_key=(i,))`` — waypoint uniforms first
  (``S * d`` of them), ordering uniforms after;
* a uniform ``u`` picks node ``lo + floor(u * len)`` of its inner box;
* consecutive waypoints are joined by dimension-order subpaths whose
  ordering is the ``argsort`` of the order uniforms;
* with ``drop_cycles``, revisited nodes splice out the enclosed loop.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.core.pathset import PathSet
from repro.mesh.mesh import Mesh
from repro.routing.base import RoutingProblem, RoutingResult, Router

__all__ = [
    "oracle_uniforms",
    "oracle_metered_bits",
    "oracle_route",
    "oracle_edge_loads",
    "oracle_node_loads",
    "oracle_stretches",
    "oracle_dilation",
    "oracle_distance",
    "oracle_fault_mask",
    "oracle_alive_bfs",
    "oracle_remove_cycles",
    "oracle_semi_oblivious_path",
    "oracle_tree_path",
    "oracle_weighted_length",
    "oracle_weighted_distance",
    "result_hash",
    "replay_hash",
]


# ---------------------------------------------------------------------------
# Scalar coordinate helpers (independent of Mesh's stride arithmetic)
# ---------------------------------------------------------------------------

def _coords(mesh: Mesh, node: int) -> list[int]:
    """Flat id -> coordinate list by repeated divmod (C order)."""
    out = [0] * mesh.d
    rem = int(node)
    for i in range(mesh.d - 1, -1, -1):
        rem, out[i] = divmod(rem, mesh.sides[i])
    return out


def _flat(mesh: Mesh, coords: list[int]) -> int:
    """Coordinate list -> flat id by Horner's rule."""
    out = 0
    for c, side in zip(coords, mesh.sides):
        out = out * side + int(c)
    return out


def oracle_distance(mesh: Mesh, u: int, v: int) -> int:
    """Scalar L1 distance, shorter-way-around per dimension on the torus.

    On a :class:`~repro.mesh.graph.GeneralGraph` (no coordinate
    structure), the hop distance from a scalar breadth-first search over
    the edge map instead — still fully independent of the topology's own
    vectorised ``distance``.
    """
    from repro.mesh.graph import GeneralGraph

    if isinstance(mesh, GeneralGraph):
        return _oracle_bfs_hops(mesh, int(u))[int(v)]
    cu, cv = _coords(mesh, u), _coords(mesh, v)
    total = 0
    for a, b, side in zip(cu, cv, mesh.sides):
        diff = abs(a - b)
        if mesh.torus:
            diff = min(diff, side - diff)
        total += diff
    return total


def _edge_map(mesh: Mesh) -> dict[tuple[int, int], int]:
    """Undirected (min, max) endpoint pair -> dense edge id.

    Built scalarly from :meth:`Mesh.edge_id_to_endpoints`, the one-edge
    inverse — never from the vectorised ``edge_ids`` being verified.
    """
    cache = getattr(mesh, "_verify_edge_map", None)
    if cache is not None:
        return cache
    table = {}
    for e in range(mesh.num_edges):
        u, v = mesh.edge_id_to_endpoints(e)
        table[(min(u, v), max(u, v))] = e
    try:
        mesh._verify_edge_map = table
    except AttributeError:  # pragma: no cover - Mesh has no __slots__ today
        pass
    return table


def _path_edge_ids(mesh: Mesh, path: np.ndarray) -> list[int]:
    """Edge ids along a path via the scalar edge map (raises on non-links)."""
    table = _edge_map(mesh)
    out = []
    nodes = [int(x) for x in path]
    for a, b in zip(nodes[:-1], nodes[1:]):
        key = (min(a, b), max(a, b))
        if key not in table:
            raise ValueError(f"({a}, {b}) is not a mesh link")
        out.append(table[key])
    return out


# ---------------------------------------------------------------------------
# Competitor-router oracles (semi-oblivious + Räcke tree), all scalar
# ---------------------------------------------------------------------------

def _scalar_adjacency(mesh) -> dict[int, list[tuple[int, int]]]:
    """Node -> sorted ``(neighbor, edge id)`` list, from the edge map."""
    adj = getattr(mesh, "_verify_adj", None)
    if adj is None:
        adj = {v: [] for v in range(mesh.n)}
        for (a, b), e in _edge_map(mesh).items():
            adj[a].append((b, e))
            adj[b].append((a, e))
        for v in adj:
            adj[v].sort()
        mesh._verify_adj = adj
    return adj


def _oracle_bfs_hops(mesh, s: int) -> list[int]:
    """Hop distances from ``s`` by plain breadth-first search (cached)."""
    from collections import deque

    cache = getattr(mesh, "_verify_bfs", None)
    if cache is None:
        cache = {}
        mesh._verify_bfs = cache
    row = cache.get(s)
    if row is None:
        adj = _scalar_adjacency(mesh)
        row = [-1] * mesh.n
        row[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for v, _e in adj[u]:
                if row[v] < 0:
                    row[v] = row[u] + 1
                    queue.append(v)
        cache[s] = row
    return row


def _oracle_base_weights(mesh) -> list[float]:
    """Per-edge-id lengths: the graph's ``weights``, or all 1.0 on a mesh."""
    w = getattr(mesh, "weights", None)
    if w is None:
        return [1.0] * mesh.num_edges
    return [float(x) for x in w]


# the same splitmix64-style constants the router documents; all arithmetic
# here is plain-int with explicit 64-bit masking
_GOLD = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_M64 = (1 << 64) - 1


def _oracle_salt_uniform(e: int, salt: int) -> float:
    x = ((e + 1) * _GOLD) & _M64
    x ^= ((salt + 1) & _M64) * _MIX1 & _M64
    x ^= x >> 30
    x = (x * _MIX1) & _M64
    x ^= x >> 27
    x = (x * _MIX2) & _M64
    x ^= x >> 31
    return (x >> 11) * 2.0**-53


def _oracle_salt_weights(mesh, salt: int) -> list[float]:
    base = _oracle_base_weights(mesh)
    return [
        w * (1.0 + 0.25 * _oracle_salt_uniform(e, salt))
        for e, w in enumerate(base)
    ]


def _oracle_dijkstra_row(mesh, weights: list[float], s: int) -> list[float]:
    """Textbook heapq Dijkstra.  Each relaxation is the single float add
    ``dist[u] + w`` — identical operands to any other implementation on
    the same weights, so the final row is bitwise reproducible."""
    import heapq

    adj = _scalar_adjacency(mesh)
    dist = [float("inf")] * mesh.n
    dist[s] = 0.0
    heap = [(0.0, s)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v, e in adj[u]:
            nd = d + weights[e]
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def _oracle_wdist_row(mesh, salt: int | None, s: int) -> list[float]:
    """Cached Dijkstra row under the base (``salt=None``) or salted weights."""
    cache = getattr(mesh, "_verify_wdist", None)
    if cache is None:
        cache = {}
        mesh._verify_wdist = cache
    row = cache.get((salt, s))
    if row is None:
        w = (
            _oracle_base_weights(mesh)
            if salt is None
            else _oracle_salt_weights(mesh, salt)
        )
        row = _oracle_dijkstra_row(mesh, w, s)
        cache[(salt, s)] = row
    return row


def oracle_weighted_distance(mesh, s: int, t: int) -> float:
    """Scalar shortest-path distance under the edge-length metric."""
    return _oracle_wdist_row(mesh, None, int(s))[int(t)]


def oracle_weighted_length(mesh, path) -> float:
    """Total edge length of a path, summed front to back."""
    w = _oracle_base_weights(mesh)
    total = 0.0
    for e in _path_edge_ids(mesh, np.asarray(path, dtype=np.int64)):
        total += w[e]
    return total


def _oracle_min_id_walk(
    mesh, dist: list[float], weights: list[float], s: int, t: int
) -> list[int]:
    """The canonical min-id shortest path from a distance row: step to the
    smallest-id predecessor satisfying the exact relaxation equality."""
    adj = _scalar_adjacency(mesh)
    rev = [t]
    cur = t
    while cur != s:
        nxt = None
        for v, e in adj[cur]:  # sorted by id: first hit is the minimum
            if dist[v] < dist[cur] and dist[v] + weights[e] == dist[cur]:
                nxt = v
                break
        if nxt is None:
            raise RuntimeError(f"no shortest-path predecessor at node {cur}")
        rev.append(nxt)
        cur = nxt
    return rev[::-1]


def _oracle_potential(mesh) -> list[int]:
    """Scalar shortest-path load potential: for each source, the min-id
    predecessor tree plus bottom-up subtree counts (the vectorised twin
    lives in ``repro.routing.competitors``)."""
    pot = getattr(mesh, "_verify_potential", None)
    if pot is not None:
        return pot
    adj = _scalar_adjacency(mesh)
    w = _oracle_base_weights(mesh)
    pot = [0] * mesh.num_edges
    for s in range(mesh.n):
        dist = _oracle_wdist_row(mesh, None, s)
        parent: dict[int, tuple[int, int]] = {}
        for v in range(mesh.n):
            if v == s:
                continue
            for u, e in adj[v]:
                if dist[u] < dist[v] and dist[u] + w[e] == dist[v]:
                    parent[v] = (u, e)
                    break
        if len(parent) != mesh.n - 1:
            raise RuntimeError("incomplete shortest-path tree")
        count = [1] * mesh.n
        count[s] = 0
        for v in sorted(range(mesh.n), key=lambda x: (-dist[x], x)):
            if v != s:
                count[parent[v][0]] += count[v]
        for v in range(mesh.n):
            if v != s:
                pot[parent[v][1]] += count[v]
    mesh._verify_potential = pot
    return pot


def oracle_semi_oblivious_path(
    mesh, entropy: int, index: int, s: int, t: int, candidates: int = 4
) -> list[int]:
    """Independent replay of ``SemiObliviousRouter.select_path``.

    Salts come off the packet's public ``SeedSequence`` stream exactly as
    the router draws them (one vectorised ``integers(0, n, size=k)``
    call); everything downstream — perturbation hash, Dijkstra, min-id
    walk-back, potential scoring — is scalar reimplementation.
    """
    s, t = int(s), int(t)
    if s == t:
        return [s]
    ss = np.random.SeedSequence(entropy, spawn_key=(index,))
    salts = [
        int(x)
        for x in np.random.default_rng(ss).integers(
            0, mesh.n, size=candidates
        )
    ]
    pot = _oracle_potential(mesh)
    best = None
    best_path: list[int] | None = None
    for j, salt in enumerate(salts):
        weights = _oracle_salt_weights(mesh, salt)
        dist = _oracle_wdist_row(mesh, salt, s)
        path = _oracle_min_id_walk(mesh, dist, weights, s, t)
        loads = [pot[e] for e in _path_edge_ids(mesh, np.asarray(path))]
        score = (max(loads), sum(loads), j)
        if best is None or score < best:
            best, best_path = score, path
    return best_path


def oracle_tree_path(mesh, s: int, t: int) -> list[int]:
    """Independent replay of ``RackeTreeRouter.select_path`` from the
    *serialized* per-node state: deserialize both endpoints' node tables,
    derive the waypoint sequence from their center chains, and join the
    waypoints by scalar min-id shortest paths under the base weights."""
    from repro.routing.competitors import RackeNodeTable, node_table

    s, t = int(s), int(t)
    if s == t:
        return [s]
    cs = RackeNodeTable.from_bytes(node_table(mesh, s).to_bytes()).centers
    ct = RackeNodeTable.from_bytes(node_table(mesh, t).to_bytes()).centers
    pre = 0
    for a, b in zip(cs, ct):
        if a != b:
            break
        pre += 1
    raw = list(cs[pre - 1 :][::-1]) + list(ct[pre:])
    way = [raw[0]]
    for v in raw[1:]:
        if v != way[-1]:
            way.append(v)
    w = _oracle_base_weights(mesh)
    path = [s]
    for a, b in zip(way, way[1:]):
        dist = _oracle_wdist_row(mesh, None, a)
        path.extend(_oracle_min_id_walk(mesh, dist, w, a, b)[1:])
    return oracle_remove_cycles(path)


# ---------------------------------------------------------------------------
# The per-packet stream, straight from numpy's public SeedSequence
# ---------------------------------------------------------------------------

def oracle_uniforms(
    entropy: int, index: int, n: int, prefix: tuple[int, ...] = ()
) -> list[float]:
    """``n`` uniforms of global packet ``index``, via the public primitive.

    Definitionally what :func:`repro.core.randomness.packet_uniforms`
    promises: ``generate_state(2n)`` uint32 words, paired little-endian
    (low word first) into uint64, mapped through the standard 53-bit
    conversion.  No vectorised hash replica involved.
    """
    ss = np.random.SeedSequence(entropy, spawn_key=(*prefix, index))
    words = ss.generate_state(2 * n).tolist()
    out = []
    for k in range(n):
        w = words[2 * k] | (words[2 * k + 1] << 32)
        out.append((w >> 11) * 2.0**-53)
    return out


# ---------------------------------------------------------------------------
# Scalar path assembly
# ---------------------------------------------------------------------------

def oracle_remove_cycles(path: list[int]) -> list[int]:
    """Splice out loops, keeping the earliest visit of every node.

    Naive quadratic restatement of :func:`repro.mesh.paths.remove_cycles`:
    repeatedly find the first position whose node already appeared and cut
    everything between the two visits.
    """
    path = list(path)
    while True:
        seen: dict[int, int] = {}
        cut = None
        for j, node in enumerate(path):
            if node in seen:
                cut = (seen[node], j)
                break
            seen[node] = j
        if cut is None:
            return path
        first, again = cut
        path = path[: first + 1] + path[again + 1 :]


def _dim_order_walk(
    mesh: Mesh, a: int, b: int, order: list[int]
) -> list[int]:
    """Dimension-order walk from ``a`` to ``b``: unit steps per dimension.

    On the torus each dimension takes the shorter way around (positive on
    ties) when the side admits wrap links (``m_i >= 3``).
    """
    ca, cb = _coords(mesh, a), _coords(mesh, b)
    out = [a]
    cur = list(ca)
    for dim in order:
        side = mesh.sides[dim]
        delta = cb[dim] - cur[dim]
        wrap = mesh.torus and side >= 3
        if wrap:
            fwd = delta % side
            bwd = fwd - side
            delta = fwd if fwd <= -bwd else bwd
        step = 1 if delta > 0 else -1
        for _ in range(abs(delta)):
            cur[dim] = (cur[dim] + step) % side if wrap else cur[dim] + step
            out.append(_flat(mesh, cur))
    return out




def _oracle_batch_path(spec, entropy: int, i: int, index: int) -> list[int]:
    """Replay of the batch protocol for row ``i``, global packet ``index``."""
    mesh = spec.mesh
    _, S, d = spec.box_lo.shape
    L = S + 1
    if spec.dim_order == "random":
        n_ord = L * d
    elif spec.dim_order == "shared":
        n_ord = d
    else:
        n_ord = 0
    u = oracle_uniforms(entropy, index, S * d + n_ord)
    # inner waypoints: lo + floor(u * len), one uniform per (stage, dim)
    pts = [[int(c) for c in spec.coords_s[i]]]
    for j in range(S):
        pts.append(
            [
                int(spec.box_lo[i, j, k])
                + int(u[j * d + k] * int(spec.box_len[i, j, k]))
                for k in range(d)
            ]
        )
    pts.append([int(c) for c in spec.coords_t[i]])
    # subpath dimension orders
    if spec.dim_order == "fixed":
        base = list(spec.fixed_order) if spec.fixed_order is not None else list(range(d))
        orders = [base] * L
    elif spec.dim_order == "shared":
        vals = u[S * d : S * d + d]
        shared = sorted(range(d), key=lambda k: (vals[k], k))
        orders = [shared] * L
    else:
        orders = [
            sorted(
                range(d),
                key=lambda k, j=j: (u[S * d + j * d + k], k),
            )
            for j in range(L)
        ]
    path = [_flat(mesh, pts[0])]
    for j in range(L):
        a = _flat(mesh, pts[j])
        b = _flat(mesh, pts[j + 1])
        path.extend(_dim_order_walk(mesh, a, b, orders[j])[1:])
    if spec.drop_cycles:
        path = oracle_remove_cycles(path)
    return path


def oracle_metered_bits(spec) -> list[int]:
    """Independent scalar recount of the planned fresh bits per batch row.

    Re-derives the information-theoretic price the budget layer meters
    (:func:`repro.core.budget.planned_fresh_bits`) from the batch spec
    alone: ``ceil(log2 side)`` per inner-box dimension (padded single-node
    slots price 0 since ``bit_length(0) == 0``) plus the dimension-order
    cost — ``sum_{i=2..d} ceil(log2 i)`` per consumed ordering.  A bug in
    the vectorised metering and the same bug here would have to be written
    twice to agree.
    """
    N, S, d = spec.box_lo.shape
    perm = sum((i - 1).bit_length() for i in range(2, d + 1))
    out = []
    for i in range(N):
        alive = any(
            int(spec.coords_s[i][k]) != int(spec.coords_t[i][k])
            for k in range(d)
        )
        if not alive:
            out.append(0)
            continue
        total = sum(
            (int(spec.box_len[i, j, k]) - 1).bit_length()
            for j in range(S)
            for k in range(d)
        )
        if spec.n_inner is not None:
            n_inner = int(spec.n_inner[i])
        else:
            n_inner = sum(
                1
                for j in range(S)
                if any(int(spec.box_len[i, j, k]) > 1 for k in range(d))
            )
        if spec.dim_order == "random":
            total += (n_inner + 1) * perm
        elif spec.dim_order == "shared":
            total += perm
        out.append(total)
    return out


# ---------------------------------------------------------------------------
# Fault masking and detours
# ---------------------------------------------------------------------------

def oracle_fault_mask(model, step: int = 0) -> np.ndarray:
    """Recompute a :class:`~repro.faults.model.FaultModel` mask scalarly.

    Consumes the generator in the documented order (explicit set, link
    uniforms, node uniforms / block corners, then one draw per edge per
    dynamic step) but applies the masking logic edge by edge in Python.
    """
    mesh = model.mesh
    E = mesh.num_edges
    endpoints = [mesh.edge_id_to_endpoints(e) for e in range(E)]
    dead = [False] * E
    if model._explicit is not None:
        for e in range(E):
            dead[e] = bool(model._explicit[e])
    rng = np.random.default_rng(model.seed)
    if model.mode == "static":
        if model.p > 0.0:
            u = rng.random(E)
            for e in range(E):
                if u[e] < model.p:
                    dead[e] = True
        if model.node_p > 0.0:
            un = rng.random(mesh.n)
            dead_nodes = {v for v in range(mesh.n) if un[v] < model.node_p}
            for e, (a, b) in enumerate(endpoints):
                if a in dead_nodes or b in dead_nodes:
                    dead[e] = True
    elif model.mode == "blocks":
        side = [min(model.block_side, m) for m in mesh.sides]
        for _ in range(model.num_blocks):
            lo = [int(rng.integers(0, m - s + 1)) for m, s in zip(mesh.sides, side)]
            hi = [a + s for a, s in zip(lo, side)]

            def inside(node: int) -> bool:
                return all(
                    lo[k] <= c < hi[k] for k, c in enumerate(_coords(mesh, node))
                )

            for e, (a, b) in enumerate(endpoints):
                if inside(a) or inside(b):
                    dead[e] = True
    elif model.mode == "dynamic":
        down_until = [model.repair_delay if dead[e] else 0 for e in range(E)]
        for t in range(1, step + 1):
            u = rng.random(E)
            # an edge repaired exactly at step t can fail again at step t
            for e in range(E):
                if down_until[e] <= t and u[e] < model.p:
                    down_until[e] = t + model.repair_delay
        dead = [down_until[e] > step for e in range(E)]
    return np.asarray([not d for d in dead], dtype=bool)


def oracle_alive_bfs(
    mesh: Mesh, s: int, t: int, alive: np.ndarray
) -> list[int] | None:
    """Naive BFS over alive edges, matching ``shortest_alive_path``'s ties.

    The fast BFS expands whole levels at once; within a level the first
    writer wins and the next frontier is the *sorted* set of new nodes.
    This loop reproduces that discipline with dicts and sorted lists.
    """
    if s == t:
        return [s]
    table = _edge_map(mesh)
    alive_set = {
        pair for pair, e in table.items() if bool(alive[e])
    }
    parent = {s: s}
    frontier = [s]
    while frontier:
        level: dict[int, int] = {}
        for u in frontier:
            for v in mesh.neighbors(u):
                if v in parent or v in level:
                    continue
                if (min(u, v), max(u, v)) in alive_set:
                    level[v] = u
        if not level:
            return None
        parent.update(level)
        if t in parent:
            break
        frontier = sorted(level)
    path = [t]
    while path[-1] != s:
        path.append(parent[path[-1]])
    return path[::-1]


def _oracle_fault_paths(
    router,
    problem: RoutingProblem,
    entropy: int,
    packet_offset: int,
    degraded=None,
) -> tuple[list[list[int]], list[int]]:
    """Replay of :class:`FaultAwareRouter`: resample, detour, or drop.

    The inner router's draws come from the same per-packet stream the
    fast path uses (selection *draws* are the shared contract); the mask,
    the edge checks, the BFS detour, and the drop bookkeeping are all
    re-derived here.  ``degraded`` optionally carries the budget ladder's
    ``(use_rec, use_dim, fallback)`` decisions: recycled packets select
    through the fallback router on the same stream, dimension-order
    packets are deterministic and skip the resample loop entirely.
    """
    mesh = problem.mesh
    alive = oracle_fault_mask(router.faults, router.at_step)
    use_rec, use_dim, fallback = degraded or (None, None, None)

    def path_ok(path: np.ndarray) -> bool:
        if len(path) < 2:
            return True
        return all(bool(alive[e]) for e in _path_edge_ids(mesh, path))

    paths, kept = [], []
    for i, (s, t) in enumerate(problem.pairs()):
        if use_dim is not None and use_dim[i]:
            # deterministic: redrawing cannot dodge a dead edge
            path = np.asarray(
                _dim_order_walk(mesh, int(s), int(t), list(range(mesh.d))),
                dtype=np.int64,
            )
        else:
            select = (
                fallback.select_path
                if use_rec is not None and use_rec[i]
                else router.inner.select_path
            )
            ss = np.random.SeedSequence(entropy, spawn_key=(packet_offset + i,))
            rng = np.random.default_rng(ss)
            path = select(mesh, int(s), int(t), rng)
            tries = 0
            while tries < router.max_resamples and not path_ok(path):
                path = select(mesh, int(s), int(t), rng)
                tries += 1
        if not path_ok(path):
            detour = oracle_alive_bfs(mesh, int(s), int(t), alive)
            if detour is None:
                continue
            path = detour
        paths.append([int(x) for x in path])
        kept.append(i)
    return paths, kept


# ---------------------------------------------------------------------------
# The routing oracle
# ---------------------------------------------------------------------------

def _oracle_degradation(router, problem: RoutingProblem, params):
    """The budget ladder's decisions, replayed from planned costs.

    Reuses the router's deterministic :meth:`planned_bits` (the shared
    contract, like ``select_path`` in the fault replay — the costs are
    pinned separately by :func:`oracle_metered_bits`) and re-derives the
    ok / recycled / dimension-order split.  Returns ``None`` when nothing
    degrades.
    """
    from repro.core.budget import degradation_plan

    if not params.enforcing:
        return None
    plan = router.planned_bits(problem)
    if plan is None:
        return None
    plan = np.asarray(plan)
    limit = params.limit_for(problem.mesh)
    if not bool((plan > limit).any()):
        return None
    fallback = router.budget_fallback_router()
    rec = (
        router.planned_bits(problem, mode="recycled")
        if fallback is not None
        else None
    )
    _, use_rec, use_dim = degradation_plan(plan, rec, limit)
    return use_rec, use_dim, fallback


def oracle_route(
    router: Router,
    problem: RoutingProblem,
    entropy: int,
    *,
    packet_offset: int = 0,
    budget=None,
) -> tuple[PathSet, np.ndarray | None]:
    """Route ``problem`` the slow way; returns ``(paths, kept_indices)``.

    * routers with a :meth:`~repro.routing.base.Router.batch_spec` replay
      the batch protocol packet by packet (independent waypoint building,
      ordering, walking, and cycle removal);
    * fault-aware routers with live faults replay the resample / detour /
      drop discipline against a scalarly recomputed mask;
    * everything else runs the per-packet loop with the documented
      ``SeedSequence(entropy, spawn_key=(i,))`` streams.

    ``budget`` (anything :meth:`BudgetParams.resolve` accepts; ``None``
    reads ``REPRO_BUDGET`` exactly like the fast path) replays the
    enforcement ladder: over-budget packets select through the recycled
    fallback on their own stream, or walk the deterministic zero-bit
    dimension-order path.

    ``entropy`` must be the resolved integer (a fast-path result's
    ``seed`` attribute), so seeded and unseeded runs replay alike.
    """
    from repro.core.budget import BudgetParams
    from repro.faults.router import FaultAwareRouter

    params = BudgetParams.resolve(budget)
    degraded = _oracle_degradation(router, problem, params)
    mesh = problem.mesh

    if isinstance(router, FaultAwareRouter) and not router.faults.is_trivial:
        paths, kept = _oracle_fault_paths(
            router, problem, entropy, packet_offset, degraded
        )
        kept_idx = None
        if len(kept) != problem.num_packets:
            kept_idx = np.asarray(kept, dtype=np.int64)
        ps = PathSet.from_paths(
            [np.asarray(p, dtype=np.int64) for p in paths]
        )
        return ps, kept_idx

    use_rec, use_dim, fallback = degraded or (None, None, None)
    spec = router.batch_spec(problem)
    if spec is not None:
        raw = []
        for i in range(problem.num_packets):
            if use_dim is not None and use_dim[i]:
                raw.append(
                    _dim_order_walk(
                        mesh,
                        int(problem.sources[i]),
                        int(problem.dests[i]),
                        list(range(mesh.d)),
                    )
                )
            elif use_rec is not None and use_rec[i]:
                ss = np.random.SeedSequence(
                    entropy, spawn_key=(packet_offset + i,)
                )
                path = fallback.select_path(
                    mesh,
                    int(problem.sources[i]),
                    int(problem.dests[i]),
                    np.random.default_rng(ss),
                )
                raw.append([int(x) for x in path])
            else:
                raw.append(_oracle_batch_path(spec, entropy, i, packet_offset + i))
        ps = PathSet.from_paths([np.asarray(p, dtype=np.int64) for p in raw])
        return ps, None

    # Per-packet loop reference: same generators as Router.route's
    # per-packet loop, built from the public primitive.
    paths = []
    for i, (s, t) in enumerate(problem.pairs()):
        if use_dim is not None and use_dim[i]:
            paths.append(
                np.asarray(
                    _dim_order_walk(mesh, int(s), int(t), list(range(mesh.d))),
                    dtype=np.int64,
                )
            )
            continue
        ss = np.random.SeedSequence(entropy, spawn_key=(packet_offset + i,))
        rng = np.random.default_rng(ss)
        select = (
            fallback.select_path
            if use_rec is not None and use_rec[i]
            else router.select_path
        )
        paths.append(select(mesh, int(s), int(t), rng))
    return PathSet.from_paths(paths), None


# ---------------------------------------------------------------------------
# Metric oracles
# ---------------------------------------------------------------------------

def oracle_edge_loads(mesh: Mesh, paths) -> np.ndarray:
    """Per-edge path counts via a dict of endpoint pairs; multiplicity kept."""
    loads = [0] * mesh.num_edges
    for path in paths:
        for e in _path_edge_ids(mesh, np.asarray(path)):
            loads[e] += 1
    return np.asarray(loads, dtype=np.int64)


def oracle_node_loads(mesh: Mesh, paths) -> np.ndarray:
    """Per-node visiting-path counts; a path counts once per node."""
    counts = [0] * mesh.n
    for path in paths:
        for node in set(int(x) for x in np.asarray(path)):
            counts[node] += 1
    return np.asarray(counts, dtype=np.int64)


def oracle_stretches(
    mesh: Mesh, sources, dests, paths
) -> np.ndarray:
    """Per-packet |p| / dist(s, t); nan where s == t."""
    out = []
    for s, t, path in zip(sources, dests, paths):
        dist = oracle_distance(mesh, int(s), int(t))
        if dist == 0:
            out.append(float("nan"))
        else:
            out.append((len(np.asarray(path)) - 1) / dist)
    return np.asarray(out, dtype=np.float64)


def oracle_dilation(paths) -> int:
    """Max path length (edges), 0 for empty collections."""
    best = 0
    for path in paths:
        best = max(best, len(np.asarray(path)) - 1)
    return best


# ---------------------------------------------------------------------------
# Hashing
# ---------------------------------------------------------------------------

def result_hash(result: RoutingResult) -> str:
    """sha256 over the CSR bytes — the golden-matrix fingerprint."""
    ps = result.paths
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(ps.nodes).tobytes())
    h.update(np.ascontiguousarray(ps.offsets).tobytes())
    return h.hexdigest()


def replay_hash(
    router: Router,
    problem: RoutingProblem,
    entropy: int,
    *,
    workers: int = 1,
) -> str:
    """Hash of a fresh route under ``entropy`` — the io round-trip check."""
    return result_hash(router.route(problem, entropy, workers=workers))
