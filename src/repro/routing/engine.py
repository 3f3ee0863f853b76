"""The batched path-assembly engine.

Vectorised replacement for the per-packet ``select_path`` loop of
:class:`~repro.routing.base.Router.route`.  A router that can express its
path distribution as

    *draw one uniform node per inner box, then connect consecutive
    waypoints by dimension-order subpaths under per-subpath /
    per-packet / fixed dimension orderings*

returns a :class:`BatchSpec` from :meth:`Router.batch_spec` and the engine
does the rest with a handful of numpy passes over *all* packets at once:

1. **draw** — vectorised per-packet streams: packet ``i`` (its *global*
   index, ``spec.packet_indices[row]``) takes its uniforms from
   ``SeedSequence(entropy, spawn_key=(i,))`` via
   :func:`repro.core.randomness.packet_uniforms` — waypoint uniforms
   first, dimension-order uniforms after, in one fixed mesh-determined
   shape per packet (padded to ``S_max``).  Packet ``i``'s path is a
   function of ``(seed, i, s_i, t_i)`` alone — the obliviousness
   discipline of Section 2 is structural, and because the stream is keyed
   by global index (never batch-local order) any shard split of the batch
   reproduces the serial bytes exactly (see :mod:`repro.parallel`).
2. **assemble** — signed per-dimension deltas between waypoints, ordered
   by the ``(u_k, k)`` ranks of the order uniforms, expanded to unit
   steps with one ``np.repeat``, and integrated per packet with one
   jump-anchored cumulative sum.  No Python-level per-packet work.
3. **cycles** — with ``drop_cycles``, :func:`repro.kernels.decycle_paths`
   loop-erases every path at once, equal per path to
   :func:`~repro.mesh.paths.remove_cycles`.

:func:`repro.verify.oracles.oracle_route` replays the same protocol one
packet at a time in scalar code — the byte-identical reference that
``tests/test_engine.py`` compares against.

Torus meshes are *not* supported (wrap-around steps break the
constant-stride expansion); ``batch_spec`` implementations return ``None``
there and ``route`` falls back to the per-packet loop.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from repro import kernels
from repro.core.pathset import PathSet
from repro.core.randomness import packet_uniforms, resolve_entropy
from repro.mesh.mesh import Mesh
from repro.routing.base import RoutingProblem, RoutingResult

__all__ = ["BatchSpec", "run_batch", "draw_plan", "build_waypoints", "resolve_orders"]


@dataclass
class BatchSpec:
    """Everything the engine needs to route one problem array-wise.

    ``box_lo`` / ``box_len`` are ``(N, S, d)``: per packet, ``S`` padded
    inner boxes (lower corner and side lengths).  Padded slots must be the
    single-node box of the packet's destination so the drawn waypoint is
    the destination itself and contributes zero movement; this keeps draw
    shapes mesh-determined (obliviousness) without altering any path.
    """

    mesh: Mesh
    coords_s: np.ndarray  #: (N, d) source coordinates
    coords_t: np.ndarray  #: (N, d) destination coordinates
    box_lo: np.ndarray  #: (N, S, d) inner-box lower corners
    box_len: np.ndarray  #: (N, S, d) inner-box side lengths
    dim_order: str  #: "random" (per subpath), "shared" (per packet), "fixed"
    fixed_order: tuple[int, ...] | None = None  #: ordering for "fixed"
    drop_cycles: bool = False
    #: (N,) real (unpadded) inner-box count per packet, when the router
    #: knows it — the scalar metering oracle derives it from ``box_len``
    #: otherwise
    n_inner: np.ndarray | None = None
    #: (N,) global packet index of each row (``None`` = ``arange(N)``) —
    #: ``Router.route`` sets it, so shard workers and budget-degraded runs
    #: draw each packet's streams exactly as the serial engine would
    packet_indices: np.ndarray | None = None

    def __post_init__(self):
        if self.dim_order not in ("random", "shared", "fixed"):
            raise ValueError(f"unknown dim_order {self.dim_order!r}")
        if self.mesh.torus:
            raise ValueError("the batch engine does not support torus meshes")

    @property
    def num_packets(self) -> int:
        return self.box_lo.shape[0]

    @property
    def num_stages(self) -> int:
        """``S``: padded inner waypoints per packet."""
        return self.box_lo.shape[1]

    @property
    def num_subpaths(self) -> int:
        """``L = S + 1`` dimension-order subpaths per packet."""
        return self.num_stages + 1


def draw_plan(
    entropy: int, spec: BatchSpec
) -> tuple[np.ndarray, np.ndarray | None]:
    """All random values for the whole batch, one stream per global packet.

    Returns ``(U_way, U_ord)`` — waypoint uniforms ``(N, S, d)`` and
    dimension-order uniforms (``(N, L, d)`` for ``"random"``, ``(N, 1, d)``
    for ``"shared"``, ``None`` for ``"fixed"``).  Packet ``i`` consumes a
    fixed number of uniforms — ``S*d`` waypoint values first, then its
    ordering values — from its own global-index stream
    (:func:`~repro.core.randomness.packet_uniforms`), so the plan row of a
    packet is invariant under any re-batching of the problem.  The draw
    order (waypoints first, then orderings) is part of the canonical
    protocol; the scalar oracle replays the identical plan.
    """
    N, S, d = spec.box_lo.shape
    n_way = S * d
    if spec.dim_order == "random":
        n_ord = spec.num_subpaths * d
    elif spec.dim_order == "shared":
        n_ord = d
    else:
        n_ord = 0
    if spec.packet_indices is not None:
        indices = np.asarray(spec.packet_indices, dtype=np.int64)
    else:
        indices = np.arange(N, dtype=np.int64)
    U = packet_uniforms(entropy, indices, n_way + n_ord)
    U_way = U[:, :n_way].reshape(N, S, d)
    if spec.dim_order == "random":
        U_ord = U[:, n_way:].reshape(N, spec.num_subpaths, d)
    elif spec.dim_order == "shared":
        U_ord = U[:, n_way:].reshape(N, 1, d)
    else:
        U_ord = None
    return U_way, U_ord


def build_waypoints(spec: BatchSpec, U_way: np.ndarray) -> np.ndarray:
    """Waypoint coordinate array ``(N, S + 2, d)``: source, inner draws, dest.

    A uniform ``u`` in ``[0, 1)`` maps to ``lo + floor(u * len)`` — the
    uniform node of the box, matching ``Submesh.sample_node`` in law.
    """
    N, S, d = spec.box_lo.shape
    W = np.empty((N, S + 2, d), dtype=np.int64)
    W[:, 0] = spec.coords_s
    W[:, S + 1] = spec.coords_t
    if S:
        W[:, 1 : S + 1] = spec.box_lo + (U_way * spec.box_len).astype(np.int64)
    return W


def resolve_orders(spec: BatchSpec, U_ord: np.ndarray | None) -> np.ndarray:
    """Per-subpath dimension orderings ``(N, L, d)`` (broadcast views).

    Each row of ``U_ord`` orders the dimensions by ``(u_k, k)``, the rule
    of :func:`repro.verify.oracles.oracle_route`; see :func:`_rank_orders`.
    """
    N, _, d = spec.box_lo.shape
    L = spec.num_subpaths
    if spec.dim_order == "fixed":
        base = np.asarray(
            spec.fixed_order if spec.fixed_order is not None else range(d),
            dtype=np.int64,
        )
        return np.broadcast_to(base, (N, L, d))
    orders = _rank_orders(U_ord)
    if spec.dim_order == "shared":
        return np.broadcast_to(orders, (N, L, d))
    return orders


def _rank_orders(U: np.ndarray) -> np.ndarray:
    """Stable argsort of every length-``d`` row of ``U``, by ranks.

    Dimension ``k``'s rank is the number of dimensions ``i`` with ``(u_i,
    i) < (u_k, k)``: one comparison per pair of dimensions decides both
    ranks, so ties go to the lower dimension by construction.  Position
    ``r`` of the ordering is then the dimension whose rank is ``r``.  That
    is ``O(d^2)`` elementwise passes over the ``(N, L)`` rows, each on a
    narrow integer dtype, in place of a sort per row.
    """
    d = U.shape[-1]
    rows = U.shape[:-1]
    rank_t = np.min_scalar_type(d)
    ranks = [np.zeros(rows, dtype=rank_t) for _ in range(d)]
    for k in range(1, d):
        for i in range(k):
            before = U[..., i] <= U[..., k]  # (u_i, i) < (u_k, k)
            ranks[k] += before
            ranks[i] += ~before
    orders = np.empty(U.shape, dtype=np.int64)
    for r in range(d):
        dim = np.zeros(rows, dtype=rank_t)
        for k in range(1, d):
            dim += (ranks[k] == r) * rank_t.type(k)
        orders[..., r] = dim
    return orders


def _assemble_array(
    spec: BatchSpec, W: np.ndarray, orders: np.ndarray, profiler=None
) -> PathSet:
    """Segmented-cumsum assembly of every path at once, emitted as CSR.

    The assembly *is* CSR — the flat node buffer plus per-path offsets —
    so the result wraps those arrays directly in a
    :class:`~repro.core.pathset.PathSet` instead of splitting into
    ``list[np.ndarray]`` and re-flattening downstream.  The two hot
    passes — step integration and loop erasure — are
    :mod:`repro.kernels` functions.
    """
    mesh = spec.mesh
    N = W.shape[0]
    deltas = np.diff(W, axis=1)  # (N, L, d)
    ordered = np.take_along_axis(deltas, orders, axis=2)
    counts = np.abs(ordered)
    values = np.sign(ordered) * mesh.strides[orders]
    # Unit steps of every packet, in path order (C-order ravel == per
    # packet, per subpath, per ordered dimension — exactly the step
    # sequence dimension_order_path emits).
    lens = counts.sum(axis=(1, 2)) + 1  # nodes per path (N == 0 safe)
    starts = np.zeros(N, dtype=np.int64)
    np.cumsum(lens[:-1], out=starts[1:])
    total = int(lens.sum())
    flat_s = spec.coords_s @ mesh.strides
    nodes = kernels.assemble_paths(
        values.reshape(-1),
        counts.reshape(-1),
        flat_s,
        lens,
        starts,
        total,
    )
    offsets = np.concatenate((starts, np.asarray([total], dtype=np.int64)))
    if spec.drop_cycles:
        nodes, offsets, decycled = kernels.decycle_paths(nodes, offsets)
        if decycled and profiler is not None:
            profiler.count("engine.paths_decycled", decycled)
    # Freeze the freshly built buffers so PathSet can wrap them zero-copy
    # (a writable buffer would force a defensive copy).
    nodes.setflags(write=False)
    offsets.setflags(write=False)
    pathset = PathSet.from_arrays(nodes, offsets)
    if profiler is not None:
        profiler.count("engine.edges", pathset.total_nodes - N)
    return pathset


def run_batch(
    router,
    spec: BatchSpec,
    problem: RoutingProblem,
    seed: int | None = None,
) -> RoutingResult:
    """Route ``problem`` under ``spec``; the batched half of ``Router.route``.

    ``seed`` may be an int or ``None``; it is resolved to concrete entropy
    (:func:`~repro.core.randomness.resolve_entropy`) and the resolved value
    is stored on the result so every run — seeded or not — can be replayed.
    Budget metering and degradation happen before, in ``Router.route``
    (:func:`~repro.core.budget.budget_ladder`).
    """
    profiler = getattr(router, "profiler", None)

    def stage(name):
        return profiler.stage(name) if profiler is not None else nullcontext()

    entropy = resolve_entropy(seed)
    with stage("engine.draw"):
        U_way, U_ord = draw_plan(entropy, spec)
        W = build_waypoints(spec, U_way)
        orders = resolve_orders(spec, U_ord)
    if profiler is not None:
        profiler.count("engine.packets", spec.num_packets)
        profiler.count(
            "engine.rng_values", U_way.size + (U_ord.size if U_ord is not None else 0)
        )
    with stage("engine.assemble"):
        paths = _assemble_array(spec, W, orders, profiler)
    return RoutingResult(problem, paths, router.name, entropy)
