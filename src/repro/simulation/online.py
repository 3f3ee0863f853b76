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

The synchronous step — admission, fault ladder, contention — is the step
core shared with :func:`~repro.simulation.scheduler.simulate`
(:mod:`repro.simulation._step`); this module adds arrivals, path
selection and the online statistics (latency, distance, queue, backlog,
SLO).

With ``faults=`` selection goes through a
:class:`~repro.faults.router.FaultAwareRouter` against the mask at the
injection step, and a packet blocked in flight re-selects its path from
its current node with fresh bits.  A trivial model (``p = 0``) runs the
fault-free code path: byte-identical statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.mesh.mesh import Mesh
from repro.routing.base import Router
from repro.simulation._step import StepCore, check_fault_ladder

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
        Per-node per-step Bernoulli injection probability in ``[0, 1]``
        (the classic synthetic load).  Mutually exclusive with ``traffic``.
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
    3. **advance** (serial) — the shared step core enters packets at
       their birth step and moves them; scheduler tie-breaks and
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
    from repro.parallel.sharding import fold_telemetry, shard_bounds
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
    if rate is not None and not 0 <= rate <= 1:
        raise ValueError(f"rate is a Bernoulli probability in [0, 1], got {rate!r}")
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps!r}")
    check_fault_ladder(max_retries, backoff_cap)
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
        selecting_router: Router = wrapper
    else:
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
            def arrivals(birth: int) -> tuple[np.ndarray, np.ndarray]:
                return traffic.arrivals_at(mesh, birth - 1, entropy)

        else:

            def arrivals(birth: int) -> tuple[np.ndarray, np.ndarray]:
                src = np.flatnonzero(arrival_rng.random(mesh.n) < rate)
                dst = [dest_fn(mesh, int(v), arrival_rng) for v in src.tolist()]
                return src, np.asarray(dst, dtype=np.int64)

        rows = [arrivals(birth) for birth in range(1, steps + 1)]
        pkt_src = np.concatenate([src for src, _ in rows] + [_empty_i64()])
        pkt_dst = np.concatenate([dst for _, dst in rows] + [_empty_i64()])
        pkt_born = np.repeat(
            np.arange(1, steps + 1, dtype=np.int64), [src.size for src, _ in rows]
        )
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
    fold_telemetry(shard_results, selecting_router, profiler)
    # scheduled packets (PKT_OK only): their edge ids back to back
    if shard_results:
        status = np.concatenate([r.status for r in shard_results])
        eids = np.concatenate([r.eids for r in shard_results])
        nedges_a = np.concatenate([r.nedges for r in shard_results])
    else:
        status = np.empty(0, dtype=np.int8)
        eids = nedges_a = _empty_i64()

    dropped_n = int(np.count_nonzero(status == PKT_DROP))
    injected = int(np.count_nonzero(status == PKT_OK)) + dropped_n
    if dropped_n and profiler is not None:
        profiler.count("faults.dropped", dropped_n)
    ok = status == PKT_OK
    born_a = pkt_born[ok]
    dist_a = np.asarray(mesh.distance(pkt_src[ok], pkt_dst[ok]), dtype=np.int64)

    reroute_idx = 0  # global mid-flight reroute counter (its own streams)

    def reroute(cur: int, dest: int, step: int, _alive) -> np.ndarray | None:
        # re-select from the current node with fresh bits from the next
        # reroute stream — keyed by a global reroute counter, separate
        # from the per-packet selection streams
        nonlocal reroute_idx
        pkt_rng = packet_stream(entropy, reroute_idx, prefix=(SIM_REROUTE,))
        reroute_idx += 1
        wrapper.at_step = step
        try:
            return wrapper.select_path(mesh, cur, dest, pkt_rng)
        except FaultRoutingError:
            return None

    # fifo's priority is the packet index: packets enter in index order
    # and birth steps never decrease with the index, so index order and
    # birth order pick the same winners
    core = StepCore(
        mesh,
        eids,
        nedges_a,
        policy=policy,
        rng=sched_rng,
        faults=faults if faulty else None,
        reroute=reroute,
        cur=pkt_src[ok],
        dests=pkt_dst[ok],
        max_retries=max_retries,
        backoff_cap=backoff_cap,
        profiler=profiler,
        admission=admission,
        track_queue=True,
    )
    # packets born at step b are [births[b - 1], births[b])
    births = np.searchsorted(born_a, np.arange(steps + 1), side="right")
    done_latency: list[int] = []
    done_distance: list[int] = []

    slo_stats = None
    if slo is not None:
        from repro.simulation.slo import SLOStats

        slo_stats = SLOStats(params=slo)

    peak_backlog = 0
    if drain_steps is None:
        drain_steps = 8 * steps + 200
    total_steps = steps + drain_steps
    step = 0
    delivered_during_injection = 0

    # ------------------------------------------------------------------
    # Phase 3 (serial): synchronous advance — packets enter at their
    # birth step (through admission, if any) and the step core moves
    # contention winners one edge per step.
    # ------------------------------------------------------------------
    for step in range(1, total_steps + 1):
        injecting = step <= steps
        if injecting and births[step] > births[step - 1]:
            core.enter(np.arange(births[step - 1], births[step], dtype=np.int64))
        core.admit(step, born_a)
        # backlog = packets *inside* the network: the pressure backpressure
        # caps.  Ingress-queue depth is reported separately (``admission.
        # delayed_steps`` / ``admission_delayed_steps``) — at fixed
        # arrivals, total unserved work is conserved, so folding the
        # ingress queue in here would make the cap invisible.
        backlog = core.live
        peak_backlog = max(peak_backlog, backlog)
        if slo_stats is not None:
            slo_stats.record_backlog(backlog)
        if backlog == 0:
            if not injecting and not core.queued:
                break
            continue
        with stage("online.advance"):
            finished = core.advance(step)
            if finished.size:
                done_latency.extend((step - born_a[finished] + 1).tolist())
                done_distance.extend(dist_a[finished].tolist())
                if injecting:
                    delivered_during_injection += int(finished.size)

    resamples, detours = (wrapper.resamples, wrapper.detours) if faulty else (0, 0)
    dropped_n += core.dropped
    admission_dropped, admission_delayed = core.admission_totals()
    if profiler is not None:
        profiler.count("online.injected", injected)
        profiler.count("online.delivered", len(done_latency))
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
        # queue sizes: packets waiting per next-edge tail (proxy: per edge)
        max_queue=core.max_queue,
        throughput=delivered_during_injection / max(steps, 1),
        latencies=lat,
        distances=np.asarray(done_distance, dtype=np.int64),
        dropped=dropped_n,
        reroutes=core.reroutes,
        blocked_steps=core.blocked_steps,
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
