"""Routing problems, results and the router protocol.

The *path selection problem* (Section 2): the input is the mesh ``M`` and a
set of ``N`` source/destination pairs ``Π = {(s_i, t_i)}``; the output is a
set of paths ``P = {p_i}`` with ``p_i`` from ``s_i`` to ``t_i``.  A routing
algorithm is **oblivious** when every path is chosen independently of every
other path — each packet's selection may see only its own (s, t) and its
own random bits.

:class:`Router.route` enforces that discipline for oblivious routers by
handing each packet an independent random stream; non-oblivious routers
(``is_oblivious = False``) override :meth:`Router.route` wholesale.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from contextlib import nullcontext as _nullcontext
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from repro.core.budget import BitBudget, BudgetParams, budget_ladder, note_budget
from repro.core.pathset import PathSet
from repro.core.randomness import packet_stream, resolve_entropy
from repro.mesh.mesh import Mesh
from repro.metrics.congestion import congestion as _congestion
from repro.metrics.congestion import edge_loads as _edge_loads
from repro.metrics.stretch import dilation as _dilation
from repro.metrics.stretch import stretch as _stretch
from repro.metrics.stretch import stretches as _stretches

__all__ = ["RoutingProblem", "RoutingResult", "Router"]


@dataclass(frozen=True)
class RoutingProblem:
    """A set of packet transfer requests ``Π`` on a mesh.

    ``sources[i]`` / ``dests[i]`` are flat node ids.  Problems are
    immutable; workload generators in :mod:`repro.workloads` build them.
    """

    mesh: Mesh
    sources: np.ndarray
    dests: np.ndarray
    name: str = "custom"

    def __post_init__(self):
        object.__setattr__(
            self, "sources", np.ascontiguousarray(self.sources, dtype=np.int64)
        )
        object.__setattr__(
            self, "dests", np.ascontiguousarray(self.dests, dtype=np.int64)
        )
        if self.sources.ndim != 1 or self.sources.shape != self.dests.shape:
            raise ValueError("sources and dests must be 1-D arrays of equal length")
        for arr, label in ((self.sources, "source"), (self.dests, "dest")):
            if arr.size and (arr.min() < 0 or arr.max() >= self.mesh.n):
                raise ValueError(f"{label} node id out of range")

    @property
    def num_packets(self) -> int:
        return int(self.sources.size)

    def __len__(self) -> int:
        return self.num_packets

    def pairs(self) -> Iterator[tuple[int, int]]:
        """Iterate (source, dest) pairs."""
        return zip(self.sources.tolist(), self.dests.tolist())

    @cached_property
    def distances(self) -> np.ndarray:
        """Per-packet shortest-path distances ``dist(s_i, t_i)``."""
        if self.num_packets == 0:
            return np.empty(0, dtype=np.int64)
        return np.asarray(self.mesh.distance(self.sources, self.dests))

    @property
    def max_distance(self) -> int:
        """``D`` of Section 2: the maximum shortest distance of any packet."""
        return int(self.distances.max()) if self.num_packets else 0

    def subproblem(self, indices: Sequence[int] | np.ndarray, name: str | None = None) -> "RoutingProblem":
        """Restriction of the problem to the selected packets."""
        idx = np.asarray(indices, dtype=np.int64)
        return RoutingProblem(
            self.mesh,
            self.sources[idx],
            self.dests[idx],
            name or f"{self.name}[{idx.size}]",
        )

    def describe(self) -> str:
        return (
            f"{self.name}: {self.num_packets} packets on {self.mesh!r}, "
            f"D = {self.max_distance}"
        )


@dataclass
class RoutingResult:
    """Selected paths plus lazily computed quality metrics.

    ``paths`` is stored as a columnar :class:`~repro.core.pathset.PathSet`
    (any ``list[np.ndarray]`` passed in is converted); the ``Sequence``
    protocol keeps ``result.paths[i]`` / iteration working as before while
    metrics run as array passes over the shared CSR views.
    """

    problem: RoutingProblem
    paths: PathSet
    router_name: str
    seed: int | None = None
    #: when a router dropped packets (fault-aware routing), the indices of
    #: the kept packets in the *original* problem; ``None`` = all kept.
    #: Shard merging needs this to reassemble the global kept set.
    kept_indices: np.ndarray | None = field(default=None, repr=False)
    #: randomness-budget ledger (:class:`~repro.core.budget.BitBudget`)
    #: when the run was metered; ``None`` under budget mode ``off``
    budget: BitBudget | None = field(default=None, repr=False)
    _cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self.paths = PathSet.from_paths(self.paths)
        if len(self.paths) != self.problem.num_packets:
            raise ValueError("one path per packet required")

    # -- metrics -------------------------------------------------------
    @property
    def edge_loads(self) -> np.ndarray:
        if "edge_loads" not in self._cache:
            self._cache["edge_loads"] = _edge_loads(self.problem.mesh, self.paths)
        return self._cache["edge_loads"]

    @property
    def congestion(self) -> int:
        """``C``: the maximum number of paths over any edge."""
        if "congestion" not in self._cache:
            loads = self.edge_loads
            self._cache["congestion"] = int(loads.max()) if loads.size else 0
        return self._cache["congestion"]

    @property
    def dilation(self) -> int:
        """``D``: the maximum path length."""
        if "dilation" not in self._cache:
            self._cache["dilation"] = _dilation(self.paths)
        return self._cache["dilation"]

    @property
    def stretches(self) -> np.ndarray:
        if "stretches" not in self._cache:
            self._cache["stretches"] = _stretches(
                self.problem.mesh, self.problem.sources, self.problem.dests, self.paths
            )
        return self._cache["stretches"]

    @property
    def stretch(self) -> float:
        """``stretch(P)``: the maximum per-packet stretch."""
        if "stretch" not in self._cache:
            self._cache["stretch"] = _stretch(
                self.problem.mesh, self.problem.sources, self.problem.dests, self.paths
            )
        return self._cache["stretch"]

    @property
    def total_path_length(self) -> int:
        return int(self.paths.lengths.sum())

    def validate(self) -> bool:
        """Every path is a mesh walk from its source to its destination.

        One array pass over the CSR views: endpoint checks by gather, link
        checks by :meth:`PathSet.edge_ids` (one id lookup over the node
        stream, whose ids the metrics then reuse from its cache).
        """
        mesh = self.problem.mesh
        ps = self.paths
        if np.any(ps.nodes_per_path == 0):
            return False
        if ps.total_nodes and (
            int(ps.nodes.min()) < 0 or int(ps.nodes.max()) >= mesh.n
        ):
            return False
        firsts = ps.nodes[ps.offsets[:-1]]
        lasts = ps.nodes[ps.offsets[1:] - 1]
        if not (
            np.array_equal(firsts, self.problem.sources)
            and np.array_equal(lasts, self.problem.dests)
        ):
            return False
        try:
            ps.edge_ids(mesh)
        except ValueError:
            return False
        return True

    def summary(self) -> str:
        return (
            f"{self.router_name} on {self.problem.name}: C={self.congestion} "
            f"D={self.dilation} stretch={self.stretch:.2f}"
        )


#: most packets one :meth:`Router.route` call routes at once.  The engine's
#: temporaries grow with the batch (about 2.2M stream positions per 16k
#: packets on a 64x64 mesh), so a larger batch overflows cache in every
#: kernel pass and holds hundreds of MB at once; a larger oblivious route
#: runs on the block plan of :mod:`repro.parallel` instead, which is where
#: it is split.  Chosen by measurement, docs/PERFORMANCE.md, "perfbench
#: record: one block plan".
ROUTE_BLOCK = 16_384


class Router(ABC):
    """Base class for path-selection algorithms.

    Oblivious routers implement :meth:`select_path`; the per-packet half of
    :meth:`route` calls it once per packet with an independently seeded
    generator, making the "each path chosen independently" property
    structural rather than a convention.

    Routers whose path distribution fits the batched engine
    (:mod:`repro.routing.engine`) additionally implement
    :meth:`batch_spec`; :meth:`route` then assembles all paths array-wise.
    The batched protocol draws fixed, mesh-determined shapes per packet, so
    packet ``i``'s path still depends only on ``(seed, i, s_i, t_i)`` —
    obliviousness is preserved, but the random *stream* differs from the
    per-packet spawn protocol of the loop.
    """

    #: human-readable identifier used in tables and the registry
    name: str = "router"
    #: whether paths are chosen independently per packet
    is_oblivious: bool = True
    #: optional :class:`repro.obs.Profiler`; attach to time route() stages
    profiler = None

    @abstractmethod
    def select_path(self, mesh: Mesh, s: int, t: int, rng: np.random.Generator) -> np.ndarray:
        """Select a path from ``s`` to ``t`` using only ``rng``'s bits."""

    def batch_spec(self, problem: RoutingProblem):
        """A :class:`repro.routing.engine.BatchSpec` when this router can be
        routed by the batched engine on this problem, else ``None``.

        The default is ``None``: exotic routers keep the per-packet loop.
        """
        return None

    def planned_bits(self, problem: RoutingProblem, mode: str | None = None):
        """Deterministic planned random-bit cost per packet, or ``None``.

        ``mode=None`` asks for the cost of this router's *own* randomness
        scheme; ``mode="recycled"`` for the cost it would pay degraded to
        the Section 5.3 recycled scheme.  The default ``None`` marks the
        router *unmetered*: budget accounting records its packets in the
        ``unmetered`` column and never enforces against them (the
        documented fallback mode).
        """
        return None

    def budget_fallback_router(self):
        """A recycled-bit clone for budget degradation, or ``None``.

        Routers with no recycled scheme return ``None``; over-budget
        packets then degrade straight to dimension-order.
        """
        return None

    def warmup_keys(self, problem: RoutingProblem) -> tuple:
        """Picklable cache keys a shard worker should warm before routing.

        The sharded executor (:mod:`repro.parallel`) ships these to each
        worker process, which rebuilds the named decompositions once via
        :func:`repro.cache.warm` instead of racing to build them mid-route.
        Routers that consume no shared decomposition return ``()``.
        """
        return ()

    def route(
        self,
        problem: RoutingProblem,
        seed: int | None = None,
        *,
        workers: int | None = 1,
        packet_offset: int = 0,
        budget=None,
    ) -> RoutingResult:
        """Route every packet of ``problem`` independently.

        Uses the vectorised engine when :meth:`batch_spec` offers a spec,
        the per-packet :meth:`select_path` loop otherwise.

        ``workers`` selects the executor of the block plan
        (:mod:`repro.parallel`): ``1`` (or ``None``) routes in-process,
        ``N > 1`` spreads the blocks over ``N`` worker processes, ``0``
        uses one worker per CPU.  An oblivious route of more than
        :data:`ROUTE_BLOCK` packets runs in blocks
        of at most that many even in-process; a smaller one is a single
        engine call.  Every per-packet stream is keyed by the packet's
        *global* index (``packet_offset`` plus its row), so the merged
        result is byte-identical to one batch for every block and worker
        count.  ``packet_offset`` is that global base index — block tasks
        set it; top-level callers leave it at 0.

        ``budget`` makes the per-packet randomness budget first class
        (:mod:`repro.core.budget`): ``None`` reads ``REPRO_BUDGET`` from
        the environment, a mode string or int bit ceiling or
        :class:`~repro.core.budget.BudgetParams` configures it directly.
        Metered runs attach a :class:`~repro.core.budget.BitBudget` ledger
        to the result; ``enforce`` degrades over-budget packets down the
        deterministic recycled/dimension-order ladder
        (:func:`~repro.core.budget.budget_ladder`) while the within-budget
        packets keep their exact bytes.
        """
        params = BudgetParams.resolve(budget)
        planned = self._plan(problem, seed, workers, packet_offset, params)
        if planned is not None:
            return planned
        entropy = resolve_entropy(seed)
        ladder = budget_ladder(self, problem, params)
        note_budget(self.profiler, ladder.ledger)
        indices = packet_offset + np.arange(problem.num_packets, dtype=np.int64)
        degraded = ladder.degraded
        if not degraded.any():
            paths = self._select(problem, entropy, indices)
        else:
            # Within-budget rows keep their executor and their global
            # streams; degraded rows route on their rung, one by one.
            paths = [None] * problem.num_packets
            rows = np.flatnonzero(~degraded)
            kept = self._select(problem.subproblem(rows), entropy, indices[rows])
            for row, path in zip(rows.tolist(), kept):
                paths[row] = path
            for row in np.flatnonzero(degraded).tolist():
                select, _ = ladder.selector(row, self.select_path)
                paths[row] = select(
                    problem.mesh,
                    int(problem.sources[row]),
                    int(problem.dests[row]),
                    packet_stream(entropy, int(indices[row])),
                )
        result = RoutingResult(problem, paths, self.name, entropy)
        result.budget = ladder.ledger
        return result

    def _plan(self, problem, seed, workers, packet_offset, params):
        """The route on the parallel layer's block plan, or ``None``.

        ``None`` — route in this call — for one worker when ``problem``
        fits one block or the router is not oblivious; otherwise
        :func:`~repro.parallel.api.route_sharded` splits ``problem`` into
        blocks and runs them on ``workers`` (in-process for one).
        """
        if workers is None or workers == 1:
            if not self.is_oblivious or problem.num_packets <= ROUTE_BLOCK:
                return None
            workers = 1
        from repro.parallel import route_sharded

        return route_sharded(
            self,
            problem,
            seed,
            workers=workers,
            packet_offset=packet_offset,
            budget=params,
        )

    def _select(
        self, problem: RoutingProblem, entropy: int, indices: np.ndarray
    ):
        """Paths of ``problem`` on the streams of global ``indices``.

        The batched engine when :meth:`batch_spec` offers a spec, else the
        per-packet :meth:`select_path` loop.
        """
        profiler = self.profiler
        with profiler.stage("engine.sequence") if profiler else _nullcontext():
            spec = self.batch_spec(problem)
        if spec is not None:
            from repro.routing.engine import run_batch

            spec.packet_indices = indices
            return run_batch(self, spec, problem, entropy).paths
        streams = [packet_stream(entropy, int(i)) for i in indices]
        with profiler.stage("route.select_loop") if profiler else _nullcontext():
            paths = [
                self.select_path(problem.mesh, int(s), int(t), stream)
                for (s, t), stream in zip(problem.pairs(), streams)
            ]
        if profiler is not None:
            profiler.count("route.packets", problem.num_packets)
        return paths

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"
