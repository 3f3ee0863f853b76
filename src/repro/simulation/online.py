"""Online (dynamic-arrival) routing simulation.

The paper motivates oblivious algorithms because they are "by their nature
distributed and capable of solving online routing problems, where packets
continuously arrive in the network" (Section 1).  This module closes that
loop: packets are injected over time, each one picks its path *immediately
and independently* via an oblivious router, and a synchronous scheduler
(one packet per edge per step) delivers them.

The headline quantity is the latency-vs-load curve: a router whose paths
have low congestion sustains higher injection rates before queues blow up,
and a router with low stretch keeps latency near the distance at light
load.  The hierarchical router is the only one good on both ends — the
online restatement of the paper's contribution.

Fault injection
---------------
Pass ``faults=`` a :class:`~repro.faults.model.FaultModel` and the run
becomes fault-aware end to end: paths are selected through a
:class:`~repro.faults.router.FaultAwareRouter` against the mask at the
injection step (resample with fresh bits, greedy detour as a last
resort), in-flight packets blocked on a dead edge wait with exponential
backoff and re-select their path from their current node after
``max_retries`` blocked attempts, and packets that become unreachable
under a non-repairing model are dropped.  A trivial model (``p = 0``)
runs the fault-free code path: byte-identical statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.mesh.mesh import Mesh
from repro.routing.base import Router

__all__ = ["OnlineStats", "simulate_online", "latency_vs_load"]


def _empty_i64() -> np.ndarray:
    return np.empty(0, dtype=np.int64)


@dataclass
class OnlineStats:
    """Outcome of an online simulation run.

    The fault-tolerance counters (zero on fault-free runs): ``dropped``
    packets abandoned (unroutable at injection or in flight),
    ``reroutes`` in-flight path re-selections, ``blocked_steps`` the
    packet-steps spent waiting on a dead edge, ``resamples`` /
    ``detours`` the fault-aware selection fallbacks taken.
    """

    steps: int
    injected: int
    delivered: int
    mean_latency: float
    p95_latency: float
    max_latency: int
    mean_distance: float
    max_queue: int
    #: delivered packets per step during the injection phase
    throughput: float
    latencies: np.ndarray = field(repr=False)
    #: per-delivered-packet shortest distances, aligned with ``latencies``
    distances: np.ndarray = field(default_factory=_empty_i64, repr=False)
    dropped: int = 0
    reroutes: int = 0
    blocked_steps: int = 0
    resamples: int = 0
    detours: int = 0
    #: admission-control accounting (zero with ``admission=None``):
    #: packets shed by the ``max_wait`` rule / packet-steps spent in the
    #: ingress queue / peak of in-network + queued packets over the run
    admission_dropped: int = 0
    admission_delayed_steps: int = 0
    peak_backlog: int = 0
    #: :class:`~repro.simulation.slo.SLOStats` when ``slo=`` was passed
    slo: object | None = None

    @property
    def mean_slowdown(self) -> float:
        """Mean latency / mean distance: the online stretch analogue."""
        return self.mean_latency / self.mean_distance if self.mean_distance else 0.0

    @property
    def delivery_ratio(self) -> float:
        """Delivered fraction of injected packets (1.0 when none)."""
        return self.delivered / self.injected if self.injected else 1.0

    def summary(self) -> str:
        base = (
            f"{self.delivered}/{self.injected} delivered in {self.steps} steps; "
            f"latency mean={self.mean_latency:.1f} p95={self.p95_latency:.1f} "
            f"max_queue={self.max_queue}"
        )
        if self.dropped or self.blocked_steps:
            base += (
                f"; faults: dropped={self.dropped} reroutes={self.reroutes} "
                f"blocked_steps={self.blocked_steps}"
            )
        return base


def _uniform_dest(mesh: Mesh, src: int, rng: np.random.Generator) -> int:
    t = int(rng.integers(mesh.n))
    while t == src:
        t = int(rng.integers(mesh.n))
    return t


def simulate_online(
    router: Router,
    mesh: Mesh,
    *,
    rate: float | None = None,
    steps: int,
    seed: int | str | None = 0,
    dest_fn: Callable[[Mesh, int, np.random.Generator], int] = _uniform_dest,
    drain_steps: int | None = None,
    policy: str = "fifo",
    profiler=None,
    faults=None,
    max_retries: int = 3,
    backoff_cap: int = 5,
    workers: int | None = 1,
    traffic=None,
    slo=None,
    admission=None,
) -> OnlineStats:
    """Inject packets over time and schedule them synchronously.

    Parameters
    ----------
    rate:
        Per-node per-step Bernoulli injection probability (the classic
        synthetic load).  Mutually exclusive with ``traffic``.
    traffic:
        A :class:`~repro.workloads.traffic.TrafficProcess`: arrivals for
        birth step ``b`` come from ``traffic.arrivals_at(mesh, b - 1,
        entropy)`` — seeded, chunk-invariant production traffic shapes
        (Poisson, bursty, diurnal, flash crowds, hotspots, adversarial
        replay).  ``dest_fn`` is ignored; the process draws both ends.
    slo:
        Optional :class:`~repro.simulation.slo.SLOParams`; the result's
        ``slo`` field then carries :class:`~repro.simulation.slo.SLOStats`
        — exact-merge latency percentile histograms, per-step backlog
        distribution and delivery-SLO attainment.
    admission:
        Optional :class:`~repro.simulation.admission.AdmissionParams`:
        token-bucket admission + queue-depth backpressure between birth
        and network entry.  Paths are selected *before* admission from
        per-packet streams, so ``admission=None`` is byte-identical to a
        run without the feature, and an enabled policy changes only
        *when* packets enter, never which path they take.  Latency keeps
        counting from birth, so ingress queueing is visible in every
        percentile.
    steps:
        Injection phase length; afterwards the network drains for
        ``drain_steps`` (default ``8 * steps + 200``) or until empty.
    dest_fn:
        Destination chooser (default: uniform over other nodes).  Use a
        local chooser to model locality traffic.
    policy:
        ``"fifo"`` (oldest packet wins an edge) or ``"random"``.
    profiler:
        Optional :class:`repro.obs.Profiler`: times the ``online.arrivals``
        (arrival enumeration), ``online.inject`` (path selection) and
        ``online.advance`` (contention/scheduling) stages and counts
        ``online.injected`` / ``online.delivered`` plus the ``faults.*``
        counters on fault-injected runs.
    faults:
        Optional :class:`~repro.faults.model.FaultModel`.  Selection goes
        through a fault-aware wrapper and blocked packets wait (with
        exponential backoff, capped at ``2 ** backoff_cap`` steps) then
        reroute after ``max_retries`` blocked attempts.
    workers:
        Shard the path-selection phase over this many worker processes
        (``None``/``0`` = one per CPU).  Statistics are identical for
        every worker count.

    The run is organised in three phases so selection can shard:

    1. **arrivals** (serial) — enumerate every injected packet ``(src,
       dst, birth step)`` from a dedicated arrival stream;
    2. **selection** (sharded) — each packet's path is chosen obliviously
       from its own stream, keyed by *global injection index*
       (:mod:`repro.core.randomness`); under faults the wrapper evaluates
       the mask at the packet's birth step.  Oblivious selection never
       sees network state, so this phase is order-free by construction —
       the very property the paper attributes to oblivious algorithms in
       online settings (Section 1);
    3. **advance** (serial) — the synchronous scheduler replays injections
       by birth step and moves packets; scheduler tie-breaks and
       mid-flight reroutes draw from their own streams.

    The router must be oblivious: paths depend only on ``(seed, packet,
    s, t)``, independent of network state.
    """
    from repro.core.randomness import (
        SIM_ARRIVALS,
        SIM_REROUTE,
        SIM_SCHED,
        packet_seed_sequence,
        packet_stream,
        resolve_entropy,
    )
    from repro.faults.router import FaultAwareRouter, FaultRoutingError
    from repro.parallel.executor import make_executor, resolve_workers
    from repro.routing.base import RoutingProblem
    from repro.parallel.sharding import shard_bounds
    from repro.parallel.worker import (
        PKT_DROP,
        PKT_OK,
        OnlinePathTask,
        prepare_router,
        select_online_paths,
    )

    if not router.is_oblivious:
        raise ValueError("online simulation requires an oblivious router")
    if policy not in ("fifo", "random"):
        raise ValueError(f"unknown policy {policy!r}")
    if (rate is None) == (traffic is None):
        raise ValueError("pass exactly one of rate= or traffic=")
    from contextlib import nullcontext

    def stage(name):
        return profiler.stage(name) if profiler is not None else nullcontext()

    if faults is None and isinstance(router, FaultAwareRouter):
        faults = router.faults
    faulty = faults is not None and not faults.is_trivial
    if faulty:
        if isinstance(router, FaultAwareRouter):
            wrapper = router
        else:
            wrapper = FaultAwareRouter(router, faults)
        wrapper.profiler = profiler
        select = wrapper.select_path
        selecting_router: Router = wrapper
        endpoints = mesh.edge_endpoints
    else:
        select = router.select_path
        selecting_router = router

    entropy = resolve_entropy(seed)
    arrival_rng = np.random.default_rng(
        packet_seed_sequence(entropy, SIM_ARRIVALS)
    )
    sched_rng = np.random.default_rng(packet_seed_sequence(entropy, SIM_SCHED))

    # ------------------------------------------------------------------
    # Phase 1 (serial): enumerate arrivals — (src, dst, birth step) per
    # injected packet, in injection order.
    # ------------------------------------------------------------------
    with stage("online.arrivals"):
        if traffic is not None:
            # Trace-driven arrivals: birth step b replays traffic step
            # b - 1, so the injected stream is exactly rows [0, steps) of
            # ``traffic.stream(mesh, steps, seed)`` — chunk-invariant and
            # regenerable in isolation (the golden-hash contract).
            srcs_l: list[np.ndarray] = []
            dsts_l: list[np.ndarray] = []
            borns_l: list[np.ndarray] = []
            for birth in range(1, steps + 1):
                t_src, t_dst = traffic.arrivals_at(mesh, birth - 1, entropy)
                srcs_l.append(t_src)
                dsts_l.append(t_dst)
                borns_l.append(np.full(t_src.size, birth, dtype=np.int64))
            pkt_src = (
                np.concatenate(srcs_l) if srcs_l else np.empty(0, np.int64)
            )
            pkt_dst = (
                np.concatenate(dsts_l) if dsts_l else np.empty(0, np.int64)
            )
            pkt_born = (
                np.concatenate(borns_l) if borns_l else np.empty(0, np.int64)
            )
        else:
            src_l: list[int] = []
            dst_l: list[int] = []
            born_l: list[int] = []
            for birth in range(1, steps + 1):
                arrivals = np.nonzero(arrival_rng.random(mesh.n) < rate)[0]
                for src in arrivals.tolist():
                    src_l.append(int(src))
                    dst_l.append(dest_fn(mesh, int(src), arrival_rng))
                    born_l.append(birth)
            pkt_src = np.asarray(src_l, dtype=np.int64)
            pkt_dst = np.asarray(dst_l, dtype=np.int64)
            pkt_born = np.asarray(born_l, dtype=np.int64)
    total_packets = pkt_src.size

    # ------------------------------------------------------------------
    # Phase 2 (sharded): oblivious path selection, one stream per global
    # injection index.
    # ------------------------------------------------------------------
    w = resolve_workers(workers)
    with stage("online.inject"):
        payload = prepare_router(selecting_router)
        warm_keys = (
            tuple(
                selecting_router.warmup_keys(RoutingProblem(mesh, pkt_src, pkt_dst))
            )
            if total_packets
            else ()
        )
        tasks = [
            OnlinePathTask(
                router=payload,
                mesh=mesh,
                sources=pkt_src[a:b],
                dests=pkt_dst[a:b],
                born=pkt_born[a:b],
                entropy=entropy,
                offset=a,
                warm_keys=warm_keys,
                profile=profiler is not None,
            )
            for a, b in shard_bounds(total_packets, w)
        ]
        pool = make_executor(w if len(tasks) > 1 else 1)
        try:
            shard_results = pool.map(select_online_paths, tasks)
        finally:
            pool.shutdown()
    status = (
        np.concatenate([r.status for r in shard_results])
        if shard_results
        else np.empty(0, dtype=np.int8)
    )
    for r in shard_results:
        if r.profile is not None and profiler is not None:
            profiler.merge_snapshot(r.profile)
        if r.cache_stats is not None:
            import repro.cache as _cache

            _cache.absorb_worker_stats(r.cache_stats)
        for attr, delta in r.counters.items():
            setattr(
                selecting_router,
                attr,
                getattr(selecting_router, attr, 0) + delta,
            )

    dropped_n = int(np.count_nonzero(status == PKT_DROP))
    injected = int(np.count_nonzero(status == PKT_OK)) + dropped_n
    if dropped_n and profiler is not None:
        profiler.count("faults.dropped", dropped_n)

    # Scheduled packets (PKT_OK only), packet-major CSR of edge ids.  The
    # buffer stays growable: mid-flight reroutes append fresh suffixes.
    ok = status == PKT_OK
    nedges_a = (
        np.concatenate([r.nedges for r in shard_results])
        if shard_results
        else np.empty(0, dtype=np.int64)
    )
    eids_used = int(nedges_a.sum())
    eids = np.empty(max(eids_used, 1024), dtype=np.int64)
    filled = 0
    for r in shard_results:
        eids[filled : filled + r.eids.size] = r.eids
        filled += int(r.eids.size)
    starts_a = np.zeros(nedges_a.size, dtype=np.int64)
    np.cumsum(nedges_a[:-1], out=starts_a[1:])
    born_a = pkt_born[ok]
    dist_a = (
        np.asarray(mesh.distance(pkt_src[ok], pkt_dst[ok]), dtype=np.int64).reshape(-1)
        if born_a.size
        else np.empty(0, dtype=np.int64)
    )
    num_ok = born_a.size
    pos = np.zeros(num_ok, dtype=np.int64)
    if faulty:
        cur_a = pkt_src[ok].copy()
        dests_a = pkt_dst[ok].copy()
        retries = np.zeros(num_ok, dtype=np.int64)
        next_try = np.zeros(num_ok, dtype=np.int64)
        reroute_idx = 0  # global mid-flight reroute counter (its own streams)

    active = np.empty(0, dtype=np.int64)  # indices into the packet arrays
    next_birth = 0  # packets [0, next_birth) have been activated
    done_latency: list[int] = []
    done_distance: list[int] = []

    adm = None
    if admission is not None:
        from repro.simulation.admission import AdmissionState

        adm = AdmissionState(admission)
    slo_stats = None
    if slo is not None:
        from repro.simulation.slo import SLOStats

        slo_stats = SLOStats(params=slo)

    max_queue = 0
    peak_backlog = 0
    reroutes = blocked_steps = 0
    if drain_steps is None:
        drain_steps = 8 * steps + 200
    total_steps = steps + drain_steps
    step = 0
    delivered_during_injection = 0

    # ------------------------------------------------------------------
    # Phase 3 (serial): synchronous advance — activate packets at their
    # birth step, resolve contention, move winners one edge per step.
    # ------------------------------------------------------------------
    for step in range(1, total_steps + 1):
        injecting = step <= steps
        if injecting and next_birth < num_ok:
            hi = int(np.searchsorted(born_a, step, side="right"))
            if hi > next_birth:
                fresh = np.arange(next_birth, hi, dtype=np.int64)
                next_birth = hi
                if adm is None:
                    active = np.concatenate((active, fresh))
                else:
                    adm.push(fresh)
        if adm is not None:
            admitted, shed = adm.step_admit(step, int(active.size), born_a)
            if shed:
                # shed before entering the network: injected but never
                # scheduled — the admission analogue of a fault drop
                for i in shed:
                    pos[i] = nedges_a[i]  # mark consumed, never active
            if admitted:
                active = np.concatenate(
                    (active, np.asarray(admitted, dtype=np.int64))
                )
        # backlog = packets *inside* the network: the pressure backpressure
        # caps.  Ingress-queue depth is reported separately (``admission.
        # delayed_steps`` / ``admission_delayed_steps``) — at fixed
        # arrivals, total unserved work is conserved, so folding the
        # ingress queue in here would make the cap invisible.
        backlog = int(active.size)
        peak_backlog = max(peak_backlog, backlog)
        if slo_stats is not None:
            slo_stats.record_backlog(backlog)
        if active.size == 0:
            if not injecting and (adm is None or len(adm) == 0):
                break
            continue
        with stage("online.advance"):
            if faulty:
                alive_mask = faults.edge_alive(step)
                wrapper.at_step = step
                ready = active[next_try[active] <= step]
                if ready.size == 0:
                    continue
                edges = eids[starts_a[ready] + pos[ready]]
                blocked = ~alive_mask[edges]
                if np.any(blocked):
                    bidx = ready[blocked]
                    retries[bidx] += 1
                    blocked_steps += int(bidx.size)
                    if profiler is not None:
                        profiler.count("faults.blocked_steps", int(bidx.size))
                    next_try[bidx] = step + (
                        1 << np.minimum(retries[bidx] - 1, backoff_cap)
                    )
                    drop: list[int] = []
                    for i in bidx[retries[bidx] >= max_retries].tolist():
                        # re-select from the current node with fresh bits
                        # from the next reroute stream — keyed by a global
                        # reroute counter, separate from the per-packet
                        # selection streams
                        pkt_rng = packet_stream(
                            entropy, reroute_idx, prefix=(SIM_REROUTE,)
                        )
                        reroute_idx += 1
                        try:
                            new_path = select(
                                mesh, int(cur_a[i]), int(dests_a[i]), pkt_rng
                            )
                        except FaultRoutingError:
                            if not faults.repairs:
                                drop.append(i)
                            else:
                                retries[i] = 0
                            continue
                        seq = mesh.edge_ids(new_path[:-1], new_path[1:])
                        if eids_used + seq.size > eids.size:
                            grown = np.empty(
                                max(eids_used + seq.size, 2 * eids.size),
                                dtype=np.int64,
                            )
                            grown[:eids_used] = eids[:eids_used]
                            eids = grown
                        eids[eids_used : eids_used + seq.size] = seq
                        # repoint packet i's slice at the fresh suffix
                        starts_a[i] = eids_used - int(pos[i])
                        nedges_a[i] = int(pos[i]) + seq.size
                        eids_used += seq.size
                        retries[i] = 0
                        next_try[i] = step + 1
                        reroutes += 1
                        if profiler is not None:
                            profiler.count("faults.reroutes", 1)
                    if drop:
                        dropped_n += len(drop)
                        if profiler is not None:
                            profiler.count("faults.dropped", len(drop))
                        active = active[~np.isin(active, np.asarray(drop))]
                    ready = ready[~blocked]
                    if ready.size == 0:
                        continue
                    edges = edges[~blocked]
                sched = ready
            else:
                sched = active
                # every active packet's next edge, in one gather
                edges = eids[starts_a[sched] + pos[sched]]
            # queue sizes: packets waiting per next-edge tail (proxy: per edge)
            max_queue = max(max_queue, int(np.bincount(edges).max()))
            # contention resolution
            if policy == "fifo":
                prio = born_a[sched]
            else:
                prio = sched_rng.permutation(sched.size)
            order = np.lexsort((prio, edges))
            sorted_edges = edges[order]
            first = np.ones(sorted_edges.size, dtype=bool)
            first[1:] = sorted_edges[1:] != sorted_edges[:-1]
            winners = sched[order[first]]
            if faulty:
                wedges = eids[starts_a[winners] + pos[winners]]
                cur_a[winners] = endpoints[wedges].sum(axis=1) - cur_a[winners]
                retries[winners] = 0
            pos[winners] += 1
            finished = winners[pos[winners] == nedges_a[winners]]
            if finished.size:
                done_latency.extend((step - born_a[finished] + 1).tolist())
                done_distance.extend(dist_a[finished].tolist())
                if injecting:
                    delivered_during_injection += int(finished.size)
                active = active[pos[active] < nedges_a[active]]

    if faulty:
        resamples, detours = wrapper.resamples, wrapper.detours
    else:
        resamples = detours = 0
    admission_dropped = adm.dropped if adm is not None else 0
    admission_delayed = adm.delayed_steps if adm is not None else 0
    if profiler is not None:
        profiler.count("online.injected", injected)
        profiler.count("online.delivered", len(done_latency))
        if adm is not None:
            for name, value in adm.counters().items():
                profiler.count(name, value)
    lat = np.asarray(done_latency, dtype=np.int64)
    if profiler is not None and lat.size:
        # exact-merge latency distribution (bin width 1 step): the same
        # histogram SLOStats reports, exposed as streaming telemetry
        for v, c in zip(*np.unique(lat, return_counts=True)):
            profiler.record_hist("online.latency", int(v), int(c))
    if slo_stats is not None:
        slo_stats.injected = injected
        slo_stats.dropped = dropped_n
        slo_stats.admission_dropped = admission_dropped
        for latency in done_latency:
            slo_stats.record_delivery(latency)
    return OnlineStats(
        steps=step,
        injected=injected,
        delivered=int(lat.size),
        mean_latency=float(lat.mean()) if lat.size else 0.0,
        p95_latency=float(np.percentile(lat, 95)) if lat.size else 0.0,
        max_latency=int(lat.max()) if lat.size else 0,
        mean_distance=float(np.mean(done_distance)) if done_distance else 0.0,
        max_queue=max_queue,
        throughput=delivered_during_injection / max(steps, 1),
        latencies=lat,
        distances=np.asarray(done_distance, dtype=np.int64),
        dropped=dropped_n,
        reroutes=reroutes,
        blocked_steps=blocked_steps,
        resamples=resamples,
        detours=detours,
        admission_dropped=admission_dropped,
        admission_delayed_steps=admission_delayed,
        peak_backlog=peak_backlog,
        slo=slo_stats,
    )


def latency_vs_load(
    router: Router,
    mesh: Mesh,
    rates: list[float],
    *,
    steps: int = 200,
    seed: int = 0,
    dest_fn: Callable[[Mesh, int, np.random.Generator], int] = _uniform_dest,
    faults=None,
) -> list[dict]:
    """Sweep injection rates, one row per rate (the saturation curve)."""
    rows = []
    for rate in rates:
        stats = simulate_online(
            router, mesh, rate=rate, steps=steps, seed=seed, dest_fn=dest_fn,
            faults=faults,
        )
        rows.append(
            {
                "router": router.name,
                "rate": rate,
                "injected": stats.injected,
                "delivered": stats.delivered,
                "mean_latency": stats.mean_latency,
                "p95_latency": stats.p95_latency,
                "mean_slowdown": stats.mean_slowdown,
                "max_queue": stats.max_queue,
                "delivery_ratio": stats.delivery_ratio,
            }
        )
    return rows
