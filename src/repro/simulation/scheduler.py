"""Greedy synchronous store-and-forward scheduling of fixed paths.

Every packet is born at step 0 on its pre-selected path; per time step
every edge carries at most one packet (the paper's model), and contention
is resolved by a priority policy:

* ``"farthest-first"`` — most remaining hops wins (the classic policy
  behind near-``O(C + D)`` schedules on meshes);
* ``"fifo"`` — lowest packet index wins (stable, injection-order);
* ``"random"`` — a fresh random winner per edge per step;
* ``"random-delay"`` — every packet waits a uniform initial delay in
  ``[0, C]`` before moving, then FIFO — the classic random-delays trick
  behind the ``O(C + D)``-style schedules the paper's ``C + D`` metric
  anticipates (delays decorrelate packets sharing edges).

The step itself — gate, fault ladder, a per-edge minimum of fixed
priority keys for contention — is the step core shared with the online simulator
(:mod:`repro.simulation._step`); this module only records delivery times
over the flat edge-id stream of a :class:`~repro.core.pathset.PathSet`.

The makespan of *any* schedule is at least ``max(C, D) >= (C + D) / 2``,
so ``makespan / (C + D)`` in ``[0.5, ~1+]`` certifies the selected paths
are routable in near-optimal time.

With ``faults=`` a blocked packet backs off, then reroutes over the
shortest alive path from its current node; a packet whose destination is
unreachable under a non-repairing model is dropped (``delivery_times[i]
== -1``).  A trivial model (``p = 0``) is a strict no-op: the fault-free
code path runs and results are byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.pathset import PathSet
from repro.faults.router import shortest_alive_path
from repro.mesh.mesh import Mesh
from repro.metrics.congestion import congestion
from repro.routing.base import RoutingResult
from repro.simulation._step import StepCore, check_fault_ladder

__all__ = ["simulate", "SimulationResult"]


@dataclass
class SimulationResult:
    """Outcome of a synchronous schedule.

    Fault-tolerance accounting (all zero on a fault-free run):
    ``delivered`` counts packets that reached their destination,
    ``retries_total`` the packet-steps spent blocked on a dead edge,
    ``rerouted`` the packets that switched to an alive-subgraph detour,
    and ``dropped`` the packets abandoned as unreachable (their
    ``delivery_times`` entry is ``-1``).
    """

    makespan: int
    delivery_times: np.ndarray  # step at which each packet arrived (0 = started there)
    congestion: int
    dilation: int
    policy: str
    num_packets: int = 0
    delivered: int = 0
    retries_total: int = 0
    rerouted: int = 0
    dropped: int = 0
    #: admission-control accounting (zero with ``admission=None``)
    admission_dropped: int = 0
    admission_delayed_steps: int = 0

    @property
    def cd_bound(self) -> int:
        """``C + D``: the paper's path-quality measure."""
        return self.congestion + self.dilation

    @property
    def efficiency(self) -> float:
        """``makespan / (C + D)`` — at least 0.5 for any schedule."""
        return self.makespan / self.cd_bound if self.cd_bound else 0.0

    @property
    def delivery_ratio(self) -> float:
        """Delivered fraction (1.0 when nothing was injected)."""
        return self.delivered / self.num_packets if self.num_packets else 1.0

    def summary(self) -> str:
        base = (
            f"makespan={self.makespan} vs C+D={self.cd_bound} "
            f"(C={self.congestion}, D={self.dilation}, policy={self.policy})"
        )
        if self.delivered < self.num_packets or self.retries_total:
            base += (
                f"; delivered {self.delivered}/{self.num_packets} "
                f"(retries={self.retries_total}, rerouted={self.rerouted}, "
                f"dropped={self.dropped})"
            )
        return base


def simulate(
    mesh: Mesh,
    paths: Sequence[np.ndarray] | RoutingResult,
    *,
    policy: str = "farthest-first",
    seed: int | None = None,
    max_steps: int | None = None,
    faults=None,
    max_retries: int = 3,
    backoff_cap: int = 5,
    profiler=None,
    admission=None,
) -> SimulationResult:
    """Schedule ``paths`` synchronously and measure the makespan.

    ``paths`` may be a raw path list or a :class:`RoutingResult`.  Raises
    ``RuntimeError`` if delivery takes more than ``max_steps`` (default
    ``8 * (C + D) + 64``, far above anything a greedy schedule needs), and
    ``ValueError`` for a negative ``max_steps``, a negative
    ``max_retries`` or a ``backoff_cap`` outside ``[0, 62]``.

    With a non-trivial ``faults`` model the run degrades instead of
    raising: blocked packets back off exponentially (capped at
    ``2 ** backoff_cap`` steps), reroute after ``max_retries`` blocked
    attempts, drop when unreachable, and hitting ``max_steps`` ends the
    run with the stragglers marked undelivered rather than raising.

    With ``admission=`` an :class:`~repro.simulation.admission.
    AdmissionParams`, packets enter the network from a FIFO ingress
    queue under token-bucket + backpressure control instead of all at
    step 0; ``delivery_times`` keep counting from step 0, so queueing
    shows up in the makespan, and stragglers at ``max_steps`` are marked
    undelivered rather than raising.  ``admission=None`` runs the
    byte-identical pre-admission code path.
    """
    pathset = PathSet.from_paths(
        paths.paths if isinstance(paths, RoutingResult) else paths
    )
    if policy not in ("farthest-first", "fifo", "random", "random-delay"):
        raise ValueError(f"unknown policy {policy!r}")
    if max_steps is not None and max_steps < 0:
        raise ValueError(f"max_steps must be >= 0, got {max_steps!r}")
    check_fault_ladder(max_retries, backoff_cap)
    faulty = faults is not None and not faults.is_trivial
    rng = np.random.default_rng(seed)

    num = len(pathset)
    lengths = pathset.lengths

    cong = congestion(mesh, pathset)
    dil = int(lengths.max()) if num else 0
    if max_steps is None:
        max_steps = 8 * (cong + dil) + 64
        if faulty:
            # waiting/rerouting legitimately needs more room than C + D
            max_steps = 8 * max_steps + 8 * mesh.diameter
        if admission is not None:
            # queueing legitimately stretches the schedule: budget the
            # worst-case release time on top of the scheduling bound
            if admission.rate_limit is not None:
                max_steps += int(np.ceil(num / admission.rate_limit)) + 64
            if admission.max_backlog is not None:
                waves = int(np.ceil(num / admission.max_backlog))
                max_steps += waves * (cong + dil + 1)

    cur = dests = None
    if faulty:  # a path may have no nodes: look up the ends of moving ones
        moving = lengths > 0
        cur = np.zeros(num, dtype=np.int64)
        dests = np.zeros(num, dtype=np.int64)
        cur[moving] = pathset.nodes[pathset.offsets[:-1][moving]]
        dests[moving] = pathset.nodes[pathset.offsets[1:][moving] - 1]
    core = StepCore(
        mesh,
        pathset.edge_ids(mesh),
        lengths,
        policy=policy,
        rng=rng,
        not_before=(
            rng.integers(0, cong + 1, size=num) if policy == "random-delay" else None
        ),
        faults=faults if faulty else None,
        reroute=lambda s, t, _step, alive: shortest_alive_path(mesh, s, t, alive),
        cur=cur,
        dests=dests,
        max_retries=max_retries,
        backoff_cap=backoff_cap,
        profiler=profiler,
        admission=admission,
    )
    # -1 until delivered: dropped, shed and straggling packets keep it
    delivery = np.where(lengths > 0, -1, 0).astype(np.int64)
    core.enter(np.flatnonzero(lengths > 0))
    step = 0
    while core.live or core.queued:
        if step >= max_steps:
            if faulty or admission is not None:
                break  # stragglers are undelivered, not a scheduling bug
            raise RuntimeError(
                f"schedule exceeded {max_steps} steps (C={cong}, D={dil})"
            )
        core.admit(step)
        finished = core.advance(step)
        step += 1
        delivery[finished] = step
    admission_dropped, admission_delayed = core.admission_totals()
    return SimulationResult(
        makespan=step,
        delivery_times=delivery,
        congestion=cong,
        dilation=dil,
        policy=policy,
        num_packets=num,
        delivered=int((delivery >= 0).sum()),
        retries_total=core.blocked_steps,
        rerouted=core.reroutes,
        dropped=core.dropped,
        admission_dropped=admission_dropped,
        admission_delayed_steps=admission_delayed,
    )
