"""The synchronous step core shared by both simulators.

:func:`~repro.simulation.scheduler.simulate` and
:func:`~repro.simulation.online.simulate_online` call
:meth:`StepCore.advance` once per step.

**State.**  The packets inside the network occupy *slots*: compact
arrays aligned with the in-network set, in ascending packet order
(packets enter in index order, directly or FIFO through admission, and
slots are only ever appended or compacted in order).  Slot ``s`` holds
the packet id ``pid``, its cursor ``at`` and ``end`` into the edge
buffer ``eids`` (the packet's remaining edges are ``eids[at : end]``),
its priority ``key`` and the edge ``req`` it requests.  No step gathers
a packet-indexed array over the in-network set.

**Fixed keys.**  A key changes only when its packet moves or reroutes:
``(at - end) * N + pid`` for ``farthest-first`` (``N`` the packet count:
most remaining hops first, ties to the lower packet index — a move adds
``N``), and ``pid`` for ``fifo`` / ``random-delay``.  ``random`` draws
``rng.permutation(n)`` over the ``n`` requests of each step, in
ascending packet order.

**Parked slots.**  A slot that does not request an edge this step sits on
the sentinel edge slot ``park`` (one past the last edge), whose per-edge
minimum is pinned below every key, so it never wins.  A waiting slot
(a ``random-delay`` start delay, a fault backoff) keeps its wake-up step
in ``wait`` and returns to its edge at that step; a finished or dropped
slot stays parked until parked slots pass ``COMPACT_SHARE`` of the set,
when one pass compacts them away.

Each step then runs:

1. **gate** — waiting slots whose step has come request their edge again;
2. **faults** — a request for a dead edge blocks and waits ``2 **
   min(retries - 1, backoff_cap)`` steps; after ``max_retries`` blocks
   the caller's ``reroute`` callback gives a path from the current node,
   or ``None`` (or one node, when a path that revisits its destination
   blocks there): drop on a non-repairing model, wait on a repairing one;
   a reroute re-keys the packet;
3. **contention** — one ``np.minimum.at`` of the keys into an edge-sized
   buffer and one compare find the smallest key per edge; only those
   winners move, and only the finished ones are sorted, by edge, so
   ``finished`` comes out in edge order.

A reroute appends to the edge buffer (doubling it when full) and
repoints the slot's cursor.
"""

from __future__ import annotations

import numpy as np

from repro.mesh.mesh import Mesh
from repro.simulation.admission import AdmissionState

_NO_KEY = np.iinfo(np.int64).max
#: ``wait`` of a slot that is not waiting (requesting, finished or dropped)
_NEVER = np.iinfo(np.int64).max
#: parked slots are compacted away once they pass this share of the slots
COMPACT_SHARE = 0.25
#: the largest ``backoff_cap``: ``2 ** 62`` steps is the top int64 power of two
MAX_BACKOFF_CAP = 62

_EMPTY = np.empty(0, dtype=np.int64)
_EMPTY.setflags(write=False)


def check_fault_ladder(max_retries: int, backoff_cap: int) -> None:
    """Raise ``ValueError`` for a negative ``max_retries`` or a
    ``backoff_cap`` outside ``[0, MAX_BACKOFF_CAP]``.

    Both simulators call it on entry, before any arrival or path work,
    and :class:`StepCore` calls it again for direct callers.
    """
    if max_retries < 0:
        raise ValueError(f"max_retries must be >= 0, got {max_retries!r}")
    if not 0 <= backoff_cap <= MAX_BACKOFF_CAP:
        raise ValueError(
            f"backoff_cap must be in [0, {MAX_BACKOFF_CAP}], got {backoff_cap!r}"
        )


class StepCore:
    """In-network packet state and the per-step advance of both simulators.

    ``eids`` holds every packet's edges back to back, ``nedges[i]`` of
    them for packet ``i``; it is never written (the first reroute moves
    it into a private buffer).  ``not_before`` gives per-packet start
    delays.  With a ``faults`` model, ``cur`` / ``dests`` are the
    packets' start and destination nodes and ``reroute(cur, dest, step,
    alive)`` returns a fresh node path or ``None``; without one they are
    ignored.  With ``track_queue``, ``max_queue`` keeps the most requests
    any edge got in one step.

    Raises ``ValueError`` for a negative ``max_retries`` or a
    ``backoff_cap`` outside ``[0, MAX_BACKOFF_CAP]``
    (:func:`check_fault_ladder`).
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
        track_queue: bool = False,
    ):
        check_fault_ladder(max_retries, backoff_cap)
        self.num = int(nedges.size)
        self.mesh = mesh
        self.eids = eids
        self.used = int(eids.size)
        self.stop = np.cumsum(nedges, dtype=np.int64)
        self.start = self.stop - nedges
        self.park = mesh.num_edges
        #: per-edge minimum request key of the step; ``_NO_KEY`` between
        #: steps, and below every key on the ``park`` slot
        self.best = np.full(self.park + 1, _NO_KEY, dtype=np.int64)
        self.best[self.park] = np.iinfo(np.int64).min
        self.policy = policy
        self.rng = rng
        self.delays = not_before
        self.faults = faults
        self.profiler = profiler
        # slot-aligned state; ``wait`` only when a packet can wait
        self.pid = self.at = self.end = self.key = self.req = _EMPTY
        self.wait = self.cur = self.retries = None
        if not_before is not None or faults is not None:
            self.wait = _EMPTY
        if faults is not None:
            self.reroute = reroute
            self.sources = cur
            self.dests = dests
            self.cur = self.retries = _EMPTY
            self.max_retries = max_retries
            self.backoff_cap = backoff_cap
            self.ends_sum = mesh.edge_endpoints.sum(axis=1)
            self.alive = np.ones(self.park + 1, dtype=bool)
        self.wake_at = _NEVER
        self.live = 0  # slots of packets still in the network
        self.parked = 0  # slots of finished or dropped packets
        self.max_queue = 0 if track_queue else None
        self.blocked_steps = self.reroutes = self.dropped = 0
        self.adm = AdmissionState(admission) if admission is not None else None

    @property
    def queued(self) -> int:
        """Packets waiting in the admission queue."""
        return len(self.adm) if self.adm is not None else 0

    def enter(self, fresh: np.ndarray) -> None:
        """Newly born packets (ascending, above every earlier index)."""
        if self.adm is None:
            self._append(fresh)
        else:
            self.adm.push(fresh)

    def admit(self, step: int, born: np.ndarray | None = None) -> None:
        """One admission round: queued packets enter or are shed."""
        if self.adm is None:
            return
        admitted, _shed = self.adm.step_admit(step, self.live, born)
        if admitted:
            self._append(np.asarray(admitted, dtype=np.int64))

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

    def _fields(self) -> tuple[str, ...]:
        names = ("pid", "at", "end", "key", "req", "wait", "cur", "retries")
        return tuple(n for n in names if getattr(self, n) is not None)

    def _append(self, pids: np.ndarray) -> None:
        """Give packets ``pids`` (ascending, above every slot's) new slots."""
        if not pids.size:
            return
        at = self.start[pids]
        end = self.stop[pids]
        new = {"pid": pids, "at": at, "end": end}
        if self.policy == "farthest-first":
            new["key"] = (at - end) * self.num + pids
        else:
            new["key"] = np.array(pids, dtype=np.int64)
        if self.delays is not None:
            # every delayed packet waits for the gate, even a zero delay
            new["wait"] = self.delays[pids]
            new["req"] = np.full(pids.size, self.park, dtype=np.int64)
            self.wake_at = min(self.wake_at, int(new["wait"].min()))
        else:
            new["req"] = self.eids[at]
            if self.wait is not None:
                new["wait"] = np.full(pids.size, _NEVER, dtype=np.int64)
        if self.faults is not None:
            new["cur"] = self.sources[pids]
            new["retries"] = np.zeros(pids.size, dtype=np.int64)
        for name in self._fields():
            setattr(self, name, np.concatenate((getattr(self, name), new[name])))
        self.live += int(pids.size)

    def advance(self, step: int) -> np.ndarray:
        """Move every contention winner one edge at ``step``.

        Returns the packets that reached their destination, in the order
        of the edges they took last.
        """
        if step >= self.wake_at:
            self._wake(step)
        if self.faults is not None:
            self.alive[: self.park] = alive = self.faults.edge_alive(step)
            blocked = np.flatnonzero(~self.alive[self.req])
            if blocked.size:
                self._block(step, blocked, alive)
        req, key = self.req, self.key
        if self.policy == "random":
            asking = req != self.park
            n = int(np.count_nonzero(asking))
            if n:
                key[asking] = self.rng.permutation(n)
        best = self.best
        np.minimum.at(best, req, key)
        won = np.flatnonzero(best[req] == key)
        if won.size == 0:
            return _EMPTY
        taken = req[won]
        best[taken] = _NO_KEY  # each requested edge has one winner
        if self.max_queue is not None:
            per_edge = np.bincount(req, minlength=self.park + 1)[: self.park]
            self.max_queue = max(self.max_queue, int(per_edge.max()))
        at = self.at[won] + 1
        self.at[won] = at
        if self.faults is not None:
            self.cur[won] = self.ends_sum[taken] - self.cur[won]
            self.retries[won] = 0
        done = at == self.end[won]
        going = ~done
        moving = won[going]
        req[moving] = self.eids[at[going]]
        if self.policy == "farthest-first":
            key[moving] += self.num
        fin = won[done]
        if not fin.size:
            return _EMPTY
        req[fin] = self.park
        finished = self.pid[fin[np.argsort(taken[done])]]
        self.live -= int(fin.size)
        self.parked += int(fin.size)
        self._settle()
        return finished

    def _wake(self, step: int) -> None:
        """Waiting slots whose step has come request their edge again."""
        wait = self.wait
        due = np.flatnonzero(wait <= step)
        self.req[due] = self.eids[self.at[due]]
        wait[due] = _NEVER
        self.wake_at = int(wait.min()) if wait.size else _NEVER

    def _settle(self) -> None:
        """Compact the parked slots away once they pass ``COMPACT_SHARE``."""
        if self.parked <= COMPACT_SHARE * self.pid.size:
            return
        keep = self.req != self.park
        if self.wait is not None:
            keep |= self.wait != _NEVER
        for name in self._fields():
            setattr(self, name, getattr(self, name)[keep])
        self.parked = 0

    def _block(self, step: int, slots: np.ndarray, alive: np.ndarray) -> None:
        """Back off the slots in ``slots``; reroute or drop the stuck ones."""
        retries = self.retries[slots] + 1
        self.retries[slots] = retries
        self.blocked_steps += int(slots.size)
        self._count("faults.blocked_steps", int(slots.size))
        self.wait[slots] = step + (1 << np.minimum(retries - 1, self.backoff_cap))
        self.req[slots] = self.park
        drop: list[int] = []
        for s in slots[retries >= self.max_retries].tolist():
            i = int(self.pid[s])
            path = self.reroute(int(self.cur[s]), int(self.dests[i]), step, alive)
            if path is not None and path.size > 1:
                self._repoint(s, self.mesh.edge_ids(path[:-1], path[1:]))
                self.retries[s] = 0
                self.wait[s] = step + 1
                self.reroutes += 1
                self._count("faults.reroutes", 1)
            elif not self.faults.repairs:
                drop.append(s)
            else:
                self.retries[s] = 0
        if drop:
            self.wait[drop] = _NEVER
            self.live -= len(drop)
            self.parked += len(drop)
            self.dropped += len(drop)
            self._count("faults.dropped", len(drop))
        self.wake_at = min(self.wake_at, int(self.wait[slots].min()))

    def _repoint(self, s: int, seq: np.ndarray) -> None:
        """Append ``seq`` to the edge buffer as slot ``s``'s remaining path."""
        start = self.used
        end = start + seq.size
        if end > self.eids.size:
            grown = np.empty(max(end, 2 * self.eids.size), dtype=self.eids.dtype)
            grown[:start] = self.eids[:start]
            self.eids = grown
        self.eids[start:end] = seq
        self.at[s] = start
        self.end[s] = self.used = end
        if self.policy == "farthest-first":
            self.key[s] = (start - end) * self.num + self.pid[s]
