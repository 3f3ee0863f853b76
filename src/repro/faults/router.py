"""Fault-aware path selection: resample, then detour.

:class:`FaultAwareRouter` wraps any oblivious router and makes its paths
avoid currently-failed edges.  The selection discipline stays oblivious:
on a path that crosses a dead edge the wrapper simply *resamples* the
inner router with fresh bits from the same per-packet stream — each
packet still sees only its own ``(s, t)`` and its own randomness, never
another packet's state.  After ``max_resamples`` failed draws it falls
back to a greedy detour (:func:`shortest_alive_path`, a BFS over the
alive subgraph), and raises :class:`FaultRoutingError` only when the
destination is genuinely unreachable.

When the fault model is trivial (``p = 0``) the wrapper delegates
``batch_spec`` and skips every check, so it is a strict no-op: byte-
identical paths to the bare inner router under the same seed.
"""

from __future__ import annotations

import numpy as np

from repro import kernels
from repro.core.budget import BudgetParams, budget_ladder, note_budget
from repro.core.randomness import packet_stream, resolve_entropy
from repro.faults.model import FaultModel
from repro.mesh.mesh import Mesh
from repro.routing.base import Router, RoutingProblem, RoutingResult

__all__ = ["FaultAwareRouter", "FaultRoutingError", "shortest_alive_path"]


class FaultRoutingError(RuntimeError):
    """No alive path exists from the packet's position to its destination."""


def shortest_alive_path(
    mesh: Mesh, s: int, t: int, alive: np.ndarray
) -> np.ndarray | None:
    """A shortest path from ``s`` to ``t`` using only alive edges.

    BFS over the alive subgraph's CSR adjacency (all edges have unit
    length, so BFS is Dijkstra here), computed by
    :func:`repro.kernels.bfs_parents`.  Returns the node array, or
    ``None`` when ``t`` is unreachable.  Deterministic: within a level the
    first writer in (ascending frontier node, CSR neighbor order) wins, so
    equal-length ties always break the same way.
    """
    if s == t:
        return np.asarray([s], dtype=np.int64)
    indptr, heads, _eids = mesh.adjacency_csr(alive)
    parent = kernels.bfs_parents(indptr, heads, s, t, mesh.n)
    if parent[t] == -1:
        return None
    path = [t]
    while path[-1] != s:
        path.append(int(parent[path[-1]]))
    return np.asarray(path[::-1], dtype=np.int64)


class FaultAwareRouter(Router):
    """Wrap an oblivious router so its paths avoid failed edges.

    Parameters
    ----------
    inner:
        Any oblivious :class:`Router`.
    faults:
        The :class:`FaultModel` whose mask paths must respect.
    max_resamples:
        Fresh oblivious draws to attempt before the greedy detour.
    at_step:
        The fault-model time step selections are checked against; the
        online simulator advances this as packets are injected.

    Counters (``resamples`` / ``detours`` / ``unroutable``) accumulate on
    the instance and mirror into the attached profiler as ``faults.*``.
    """

    def __init__(
        self,
        inner: Router,
        faults: FaultModel,
        *,
        max_resamples: int = 8,
        at_step: int = 0,
    ):
        if not inner.is_oblivious:
            raise ValueError("FaultAwareRouter requires an oblivious inner router")
        self.inner = inner
        self.faults = faults
        self.max_resamples = int(max_resamples)
        self.at_step = int(at_step)
        self.name = f"fault-aware({inner.name})"
        self.is_oblivious = inner.is_oblivious
        self.resamples = 0
        self.detours = 0
        self.unroutable = 0

    def _count(self, key: str, n: int = 1) -> None:
        if self.profiler is not None:
            self.profiler.count(f"faults.{key}", n)

    def batch_spec(self, problem: RoutingProblem):
        # Trivial faults: delegate wholesale — the batched engine then
        # produces byte-identical paths to the bare inner router.
        if self.faults.is_trivial:
            return self.inner.batch_spec(problem)
        return None

    def warmup_keys(self, problem: RoutingProblem) -> tuple:
        return self.inner.warmup_keys(problem)

    def planned_bits(self, problem: RoutingProblem, mode: str | None = None):
        # Budget costs are the inner router's: resampling re-pays the same
        # planned cost per extra selection (accounted in :meth:`route`).
        return self.inner.planned_bits(problem, mode)

    def budget_fallback_router(self):
        return self.inner.budget_fallback_router()

    def select_path(
        self, mesh: Mesh, s: int, t: int, rng: np.random.Generator
    ) -> np.ndarray:
        if self.faults.is_trivial:
            return self.inner.select_path(mesh, s, t, rng)
        path, _ = self._guarded(self.inner.select_path, mesh, s, t, rng)
        return path

    def _guarded(
        self,
        select,
        mesh: Mesh,
        s: int,
        t: int,
        rng: np.random.Generator,
        *,
        deterministic: bool = False,
    ) -> tuple[np.ndarray, int]:
        """Resample-then-detour around dead edges; returns ``(path, draws)``.

        ``draws`` counts the randomness-consuming selections made (budget
        accounting multiplies it by the packet's planned per-selection
        cost).  ``deterministic`` skips the resample loop — redrawing a
        deterministic path would yield the same dead edge — and goes
        straight from a blocked path to the BFS detour, consuming no bits.
        """
        alive = self.faults.edge_alive(self.at_step)
        path = select(mesh, s, t, rng)
        draws = 0 if deterministic else 1
        if not deterministic:
            for _ in range(self.max_resamples):
                if path.size < 2 or bool(
                    alive[mesh.edge_ids(path[:-1], path[1:])].all()
                ):
                    return path, draws
                # fresh bits from the same per-packet stream:
                # obliviousness holds
                self.resamples += 1
                self._count("resamples")
                path = select(mesh, s, t, rng)
                draws += 1
        if path.size < 2 or bool(alive[mesh.edge_ids(path[:-1], path[1:])].all()):
            return path, draws
        detour = shortest_alive_path(mesh, s, t, alive)
        if detour is None:
            self.unroutable += 1
            self._count("unroutable")
            err = FaultRoutingError(
                f"no alive path from {s} to {t} at step {self.at_step}"
            )
            err.draws = draws
            raise err
        self.detours += 1
        self._count("detours")
        return detour, draws

    def route(
        self,
        problem: RoutingProblem,
        seed: int | None = None,
        *,
        workers: int | None = 1,
        packet_offset: int = 0,
        budget=None,
    ) -> RoutingResult:
        """Route, dropping packets whose destinations are unreachable.

        With non-trivial faults, unreachable packets are excluded and the
        result is built on the routable subproblem; the number excluded
        accumulates in :attr:`unroutable`.  Whether a packet is kept
        depends only on its own stream and the static fault state, so a
        route split into blocks (more than one block or worker) keeps and
        routes exactly the one-batch packet set.

        Budget semantics under faults: degradation decisions are made
        *once* by the shared ladder (:func:`~repro.core.budget.
        budget_ladder`) from the inner router's planned costs; every
        selection — including resamples — re-pays the packet's planned
        per-selection cost in ``bits_drawn``, while ``max_bits`` (what
        ``enforce`` bounds) tracks the per-selection maximum.
        Dimension-order-degraded packets are deterministic, so a blocked
        one goes straight to the zero-bit BFS detour instead of
        resampling.
        """
        params = BudgetParams.resolve(budget)
        if self.faults.is_trivial:
            return super().route(
                problem,
                seed=seed,
                workers=workers,
                packet_offset=packet_offset,
                budget=params,
            )
        planned = self._plan(problem, seed, workers, packet_offset, params)
        if planned is not None:
            return planned
        entropy = resolve_entropy(seed)
        ladder = budget_ladder(self, problem, params)
        mesh = problem.mesh
        draws = np.zeros(problem.num_packets, dtype=np.int64)
        paths, kept = [], []
        for i, (s, t) in enumerate(problem.pairs()):
            select, det = ladder.selector(i, self.inner.select_path)
            stream = packet_stream(entropy, packet_offset + i)
            try:
                path, draws[i] = self._guarded(
                    select, mesh, int(s), int(t), stream, deterministic=det
                )
            except FaultRoutingError as err:
                draws[i] = getattr(err, "draws", 0)
                continue
            paths.append(path)
            kept.append(i)
        if ladder.cost is not None:
            # the ladder charged one selection per packet; charge the draws
            ladder.ledger.bits_drawn = int((ladder.cost * draws).sum())
            ladder.ledger.max_bits = int(ladder.cost[draws > 0].max(initial=0))
        note_budget(self.profiler, ladder.ledger)
        if len(kept) == problem.num_packets:
            result = RoutingResult(problem, paths, self.name, entropy)
        else:
            kept_idx = np.asarray(kept, dtype=np.int64)
            sub = problem.subproblem(kept_idx)
            result = RoutingResult(
                sub, paths, self.name, entropy, kept_indices=kept_idx
            )
        result.budget = ladder.ledger
        return result

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FaultAwareRouter({self.inner!r}, {self.faults!r})"
