"""Synchronous store-and-forward packet scheduling.

The paper's routing model (Section 1): time is synchronous and at most one
packet traverses any edge per time step, so any schedule needs at least
``max(C, D) >= (C + D) / 2`` steps — the ``Ω(C + D)`` folklore bound that
motivates judging path selection by congestion *and* dilation together.
:func:`~repro.simulation.scheduler.simulate` schedules selected paths
greedily under several contention policies and reports the makespan, which
experiments compare against ``C + D``;
:func:`~repro.simulation.online.simulate_online` injects packets over time
and reports latency.  Both drive one step core
(:class:`repro.simulation._step.StepCore`): in-network packets move one
edge per step, contention goes to the highest priority, faults block,
back off, reroute or drop, and admission control meters entry.
"""

from repro.simulation.scheduler import SimulationResult, simulate
from repro.simulation.online import OnlineStats, latency_vs_load, simulate_online
from repro.simulation.admission import AdmissionParams, AdmissionState
from repro.simulation.slo import SLOParams, SLOStats, capacity_curve

__all__ = [
    "simulate",
    "SimulationResult",
    "simulate_online",
    "latency_vs_load",
    "OnlineStats",
    "AdmissionParams",
    "AdmissionState",
    "SLOParams",
    "SLOStats",
    "capacity_curve",
]
