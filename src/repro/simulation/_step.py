"""The synchronous step core shared by both simulators.

:func:`~repro.simulation.scheduler.simulate` and
:func:`~repro.simulation.online.simulate_online` call
:meth:`StepCore.advance` once per step:

1. **gate** — packet ``i`` requests its next edge once ``step >=
   not_before[i]``, a value set by ``random-delay`` start delays and by
   the fault backoff (a blocked packet has passed its delay already);
2. **faults** — a request for a dead edge blocks and waits ``2 **
   min(retries - 1, backoff_cap)`` steps; after ``max_retries`` blocks
   the caller's ``reroute`` callback gives a path from the current node,
   or ``None`` (or one node, when a path that revisits its destination
   blocks there): drop on a non-repairing model, wait on a repairing one;
3. **contention** — each of the ``n`` requests gets a distinct ``int64``
   key and the smallest key per edge moves: one ``np.minimum.at`` into an
   edge-sized buffer, then only the winners are sorted, by edge, so
   ``finished`` comes out in edge order.  With ``j`` the request's
   position in the ascending packet order, the key is ``-(remaining
   hops) * n + j`` for ``farthest-first`` (ties go to the lower packet
   index), the ``rng.permutation`` value for ``random``, and the packet
   index for ``fifo`` / ``random-delay``.

In-network packets form an ascending index array (they enter in index
order, directly or FIFO through admission).  Packet ``i``'s remaining
edges are ``eids[at[i] : end[i]]``; a move advances the cursor ``at[i]``,
and a reroute appends to the edge buffer (doubling it when full) and
repoints the slice.
"""

from __future__ import annotations

import numpy as np

from repro.mesh.mesh import Mesh
from repro.simulation.admission import AdmissionState

_NO_KEY = np.iinfo(np.int64).max


class StepCore:
    """In-network packet state and the per-step advance of both simulators.

    ``eids`` holds every packet's edges back to back, ``nedges[i]`` of
    them for packet ``i``; it is never written (the first reroute moves
    it into a private buffer).  With a ``faults`` model, ``cur`` /
    ``dests`` are the packets' start and destination nodes and
    ``reroute(cur, dest, step, alive)`` returns a fresh node path or
    ``None``; without one they are ignored.
    """

    def __init__(
        self,
        mesh: Mesh,
        eids: np.ndarray,
        nedges: np.ndarray,
        *,
        policy: str,
        rng: np.random.Generator,
        not_before: np.ndarray | None = None,
        faults,
        reroute,
        cur: np.ndarray,
        dests: np.ndarray,
        max_retries: int,
        backoff_cap: int,
        profiler,
        admission,
    ):
        num = nedges.size
        self.mesh = mesh
        self.eids = eids
        self.used = int(eids.size)
        self.end = np.cumsum(nedges, dtype=np.int64)
        self.at = self.end - nedges
        #: per-edge minimum request key of the step; ``_NO_KEY`` between steps
        self.best = np.full(mesh.num_edges, _NO_KEY, dtype=np.int64)
        self.policy = policy
        self.rng = rng
        self.faults = faults
        self.profiler = profiler
        if faults is not None:
            self.reroute = reroute
            self.cur = np.array(cur, dtype=np.int64)
            self.dests = dests
            self.retries = np.zeros(num, dtype=np.int64)
            self.max_retries = max_retries
            self.backoff_cap = backoff_cap
            if not_before is None:
                not_before = np.zeros(num, dtype=np.int64)
        self.not_before = not_before
        self.blocked_steps = self.reroutes = self.dropped = 0
        self.active = np.empty(0, dtype=np.int64)
        self.adm = AdmissionState(admission) if admission is not None else None

    @property
    def queued(self) -> int:
        """Packets waiting in the admission queue."""
        return len(self.adm) if self.adm is not None else 0

    def enter(self, fresh: np.ndarray) -> None:
        """Newly born packets (ascending, above every earlier index)."""
        if self.adm is None:
            self.active = np.concatenate((self.active, fresh))
        else:
            self.adm.push(fresh)

    def admit(self, step: int, born: np.ndarray | None = None) -> None:
        """One admission round: queued packets enter or are shed."""
        if self.adm is None:
            return
        admitted, _shed = self.adm.step_admit(step, int(self.active.size), born)
        if admitted:
            self.active = np.concatenate(
                (self.active, np.asarray(admitted, dtype=np.int64))
            )

    def admission_totals(self) -> tuple[int, int]:
        """Count the ``admission.*`` totals on the profiler; return the
        packets shed and the packet-steps spent queued."""
        if self.adm is None:
            return 0, 0
        for name, value in self.adm.counters().items():
            self._count(name, value)
        return self.adm.dropped, self.adm.delayed_steps

    def _count(self, name: str, delta: int) -> None:
        if self.profiler is not None:
            self.profiler.count(name, delta)

    def advance(self, step: int) -> tuple[np.ndarray, np.ndarray] | None:
        """Move every contention winner one edge at ``step``.

        Returns ``(edges, finished)``: the edge each requesting packet
        asked for and the packets that reached their destination — or
        ``None`` when no packet requested an edge.
        """
        ready = self.active
        if self.not_before is not None:
            ready = ready[self.not_before[ready] <= step]
            if ready.size == 0:
                return None
        at = self.at[ready]
        edges = self.eids[at]
        if self.faults is not None:
            alive = self.faults.edge_alive(step)
            blocked = ~alive[edges]
            if np.any(blocked):
                self._block(step, ready[blocked], alive)
                ready = ready[~blocked]
                if ready.size == 0:
                    return None
                at = at[~blocked]
                edges = edges[~blocked]
        n = ready.size
        if self.policy == "farthest-first":
            key = (at - self.end[ready]) * n + np.arange(n)
        elif self.policy == "random":
            key = self.rng.permutation(n)
        else:
            key = ready
        best = self.best
        np.minimum.at(best, edges, key)
        won = np.flatnonzero(best[edges] == key)
        taken = edges[won]
        best[taken] = _NO_KEY  # each requested edge has one winner
        order = np.argsort(taken)
        taken = taken[order]
        winners = ready[won[order]]
        if self.faults is not None:
            ends = self.mesh.edge_endpoints[taken]
            self.cur[winners] = ends.sum(axis=1) - self.cur[winners]
            self.retries[winners] = 0
        self.at[winners] += 1
        finished = winners[self.at[winners] == self.end[winners]]
        if finished.size:
            self.active = np.delete(
                self.active, np.searchsorted(self.active, finished)
            )
        return edges, finished

    def _block(self, step: int, bidx: np.ndarray, alive: np.ndarray) -> None:
        """Back off the packets in ``bidx``; reroute or drop the stuck ones."""
        self.retries[bidx] += 1
        self.blocked_steps += int(bidx.size)
        self._count("faults.blocked_steps", int(bidx.size))
        self.not_before[bidx] = step + (
            1 << np.minimum(self.retries[bidx] - 1, self.backoff_cap)
        )
        drop: list[int] = []
        for i in bidx[self.retries[bidx] >= self.max_retries].tolist():
            path = self.reroute(int(self.cur[i]), int(self.dests[i]), step, alive)
            if path is not None and path.size > 1:
                self._repoint(i, self.mesh.edge_ids(path[:-1], path[1:]))
                self.retries[i] = 0
                self.not_before[i] = step + 1
                self.reroutes += 1
                self._count("faults.reroutes", 1)
            elif not self.faults.repairs:
                drop.append(i)
            else:
                self.retries[i] = 0
        if drop:
            self.dropped += len(drop)
            self._count("faults.dropped", len(drop))
            self.active = self.active[~np.isin(self.active, drop)]

    def _repoint(self, i: int, seq: np.ndarray) -> None:
        """Append ``seq`` to the edge buffer as packet ``i``'s remaining path."""
        end = self.used + seq.size
        if end > self.eids.size:
            grown = np.empty(max(end, 2 * self.eids.size), dtype=self.eids.dtype)
            grown[: self.used] = self.eids[: self.used]
            self.eids = grown
        self.eids[self.used : end] = seq
        self.at[i] = self.used
        self.end[i] = self.used = end
