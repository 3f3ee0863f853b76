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
3. **contention** — one lexicographic sort on (edge, priority) and the
   first request per edge moves.  Priority is ``-(remaining hops)`` for
   ``farthest-first``, ``rng.permutation`` for ``random``, and the packet
   index for ``fifo`` / ``random-delay``.

In-network packets form an ascending index array (they enter in index
order, directly or FIFO through admission).  Packet ``i``'s remaining
edges are ``eids[starts[i] + pos[i] : starts[i] + nedges[i]]``; a reroute
appends to the edge buffer (doubling it when full) and repoints the slice.
"""

from __future__ import annotations

import numpy as np

from repro.mesh.mesh import Mesh
from repro.simulation.admission import AdmissionState


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
        self.nedges = np.array(nedges, dtype=np.int64)
        self.starts = np.zeros(num, dtype=np.int64)
        np.cumsum(self.nedges[:-1], out=self.starts[1:])
        self.pos = np.zeros(num, dtype=np.int64)
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
        edges = self.eids[self.starts[ready] + self.pos[ready]]
        if self.faults is not None:
            alive = self.faults.edge_alive(step)
            blocked = ~alive[edges]
            if np.any(blocked):
                self._block(step, ready[blocked], alive)
                ready = ready[~blocked]
                if ready.size == 0:
                    return None
                edges = edges[~blocked]
        if self.policy == "farthest-first":
            prio = self.pos[ready] - self.nedges[ready]
        elif self.policy == "random":
            prio = self.rng.permutation(ready.size)
        else:
            prio = ready
        order = np.lexsort((prio, edges))
        sorted_edges = edges[order]
        first = np.ones(sorted_edges.size, dtype=bool)
        first[1:] = sorted_edges[1:] != sorted_edges[:-1]
        winners = ready[order[first]]
        if self.faults is not None:
            ends = self.mesh.edge_endpoints[sorted_edges[first]]
            self.cur[winners] = ends.sum(axis=1) - self.cur[winners]
            self.retries[winners] = 0
        self.pos[winners] += 1
        finished = winners[self.pos[winners] == self.nedges[winners]]
        if finished.size:
            a = self.active
            self.active = a[self.pos[a] < self.nedges[a]]
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
        self.starts[i] = self.used - self.pos[i]
        self.nedges[i] = self.pos[i] + seq.size
        self.used = end
