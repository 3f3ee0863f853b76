"""Admission control: the policy machinery and its byte-identity contract.

The load-bearing claim (docs/WORKLOADS.md): path selection happens before
admission from per-packet streams keyed by global injection index, so the
policy can only change *when* packets enter the network — never which
path they take.  ``admission=None`` must be byte-identical to the
pre-feature simulator, and a policy so loose it never binds must be
byte-identical to ``admission=None``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.mesh.mesh import Mesh
from repro.obs import Profiler
from repro.routing.registry import make_router
from repro.simulation import (
    AdmissionParams,
    AdmissionState,
    SLOParams,
    simulate,
    simulate_online,
)
from repro.workloads.generators import random_pairs
from repro.workloads.traffic import HotspotTraffic, PoissonTraffic


class TestAdmissionParams:
    def test_rejects_a_no_op_policy(self):
        with pytest.raises(ValueError, match="no-op"):
            AdmissionParams()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rate_limit": 0.0},
            {"rate_limit": -1.0},
            {"rate_limit": 2.0, "burst": 0.5},
            {"rate_limit": float("nan")},
            {"rate_limit": float("inf")},
            {"rate_limit": 2.0, "burst": float("nan")},
            {"rate_limit": 2.0, "burst": float("inf")},
            {"max_backlog": 0},
            {"max_wait": 0},
        ],
    )
    def test_rejects_invalid_fields(self, kwargs):
        with pytest.raises(ValueError):
            AdmissionParams(**kwargs)

    def test_default_burst_is_the_rate(self):
        assert AdmissionParams(rate_limit=4.0).effective_burst == 4.0
        assert AdmissionParams(rate_limit=0.25).effective_burst == 1.0
        assert AdmissionParams(rate_limit=2.0, burst=8).effective_burst == 8.0


class TestAdmissionState:
    def test_token_bucket_paces_admissions(self):
        adm = AdmissionState(AdmissionParams(rate_limit=2.0))
        adm.push(range(10))
        admitted_per_step = []
        for step in range(1, 6):
            admitted, shed = adm.step_admit(step, in_network=0)
            assert shed == []
            admitted_per_step.append(len(admitted))
        # refill is capped at the burst (== rate), so pacing is flat
        assert admitted_per_step == [2, 2, 2, 2, 2]
        assert adm.admitted == 10 and len(adm) == 0

    def test_burst_allows_catchup_after_quiet(self):
        adm = AdmissionState(AdmissionParams(rate_limit=1.0, burst=5))
        for step in range(1, 5):  # quiet: bucket climbs to its cap
            adm.step_admit(step, in_network=0)
        adm.push(range(7))
        admitted, _ = adm.step_admit(5, in_network=0)
        assert len(admitted) == 5  # the full burst, then pace resumes

    def test_backpressure_holds_at_the_backlog_cap(self):
        adm = AdmissionState(AdmissionParams(max_backlog=3))
        adm.push(range(6))
        admitted, _ = adm.step_admit(1, in_network=2)
        assert admitted == [0]  # 2 in network + 1 admitted == cap
        admitted, _ = adm.step_admit(2, in_network=0)
        assert admitted == [1, 2, 3]
        assert adm.throttled_steps >= 1

    def test_max_wait_sheds_the_stale_prefix(self):
        adm = AdmissionState(AdmissionParams(rate_limit=1.0, max_wait=3))
        adm.push(range(5))
        born = np.zeros(5, dtype=np.int64)
        adm.step_admit(1, in_network=0, born=born)  # admits 0
        admitted, shed = adm.step_admit(4, in_network=0, born=born)
        # packets born at 0 have now waited 4 >= max_wait: shed before admit
        assert len(admitted) + len(shed) > 0
        assert shed and all(s in (1, 2, 3, 4) for s in shed)
        assert adm.dropped == len(shed)

    def test_counters_wire_format(self):
        adm = AdmissionState(AdmissionParams(rate_limit=1.0))
        adm.push(range(3))
        adm.step_admit(1, in_network=0)
        counters = adm.counters()
        assert set(counters) == {
            "admission.admitted",
            "admission.dropped",
            "admission.delayed_steps",
            "admission.throttled_steps",
        }
        assert counters["admission.admitted"] == 1


def _online(mesh, admission, workers=1, **kwargs):
    return simulate_online(
        make_router("hierarchical"),
        mesh,
        traffic=PoissonTraffic(rate=0.2),
        steps=15,
        seed=3,
        admission=admission,
        workers=workers,
        **kwargs,
    )


class TestOnlineByteIdentity:
    def test_disabled_equals_never_binding(self):
        """A policy too loose to ever bind admits every packet the step it
        is born — the whole run, latencies included, matches
        ``admission=None`` byte for byte."""
        mesh = Mesh((8, 8))
        base = _online(mesh, None)
        loose = _online(
            mesh, AdmissionParams(rate_limit=1e9, max_backlog=10**9)
        )
        assert loose.injected == base.injected
        assert loose.delivered == base.delivered
        assert loose.steps == base.steps
        np.testing.assert_array_equal(loose.latencies, base.latencies)
        assert loose.admission_dropped == 0

    def test_disabled_is_shard_invariant_with_rate_api(self):
        mesh = Mesh((8, 8))
        runs = [
            simulate_online(
                make_router("hierarchical"),
                mesh,
                rate=0.1,
                steps=15,
                seed=7,
                workers=w,
            )
            for w in (1, 2)
        ]
        np.testing.assert_array_equal(runs[0].latencies, runs[1].latencies)

    def test_enabled_is_shard_invariant_too(self):
        mesh = Mesh((8, 8))
        adm = AdmissionParams(rate_limit=3.0, max_backlog=20)
        a = _online(mesh, adm, workers=1)
        b = _online(mesh, adm, workers=3)
        np.testing.assert_array_equal(a.latencies, b.latencies)
        assert a.admission_dropped == b.admission_dropped

    def test_throttling_defers_but_conserves_packets(self):
        mesh = Mesh((8, 8))
        base = _online(mesh, None)
        slow = _online(mesh, AdmissionParams(rate_limit=2.0))
        assert slow.injected == base.injected
        assert slow.delivered == base.delivered  # no shed rule: all arrive
        assert slow.steps > base.steps  # paying for the pacing in time
        assert slow.admission_delayed_steps > 0

    def test_backpressure_caps_peak_backlog(self):
        mesh = Mesh((8, 8))
        traffic = HotspotTraffic(rate=0.6, hot_frac=0.05, hot_weight=0.9)
        kwargs = dict(traffic=traffic, steps=40, seed=0, slo=SLOParams())
        router = make_router("hierarchical")
        base = simulate_online(router, mesh, **kwargs)
        capped = simulate_online(
            router, mesh, admission=AdmissionParams(max_backlog=50), **kwargs
        )
        assert capped.peak_backlog <= 50 < base.peak_backlog
        assert capped.slo.backlog_p99 < base.slo.backlog_p99

    def test_max_wait_sheds_are_counted(self):
        mesh = Mesh((8, 8))
        shedding = _online(
            mesh, AdmissionParams(rate_limit=1.0, max_wait=5)
        )
        assert shedding.admission_dropped > 0
        assert (
            shedding.delivered + shedding.admission_dropped == shedding.injected
        )

    def test_profiler_carries_admission_counters(self):
        mesh = Mesh((8, 8))
        profiler = Profiler()
        _online(
            mesh, AdmissionParams(rate_limit=2.0), profiler=profiler
        )
        counters = profiler.counters
        assert counters["admission.admitted"] > 0
        assert "admission.throttled_steps" in counters


class TestSchedulerAdmission:
    def test_pacing_stretches_makespan_without_losses(self):
        mesh = Mesh((8, 8))
        problem = random_pairs(mesh, 120, seed=0)
        router = make_router("hierarchical")
        result = router.route(problem, seed=0)
        free = simulate(mesh, result.paths)
        paced = simulate(
            mesh, result.paths, admission=AdmissionParams(rate_limit=4.0)
        )
        assert paced.delivery_times.min() >= 0  # everything delivered
        assert paced.makespan > free.makespan
        assert paced.admission_dropped == 0

    def test_max_wait_sheds_and_accounts(self):
        mesh = Mesh((8, 8))
        problem = random_pairs(mesh, 200, seed=1)
        router = make_router("hierarchical")
        result = router.route(problem, seed=1)
        res = simulate(
            mesh,
            result.paths,
            admission=AdmissionParams(rate_limit=2.0, max_wait=20),
        )
        assert res.admission_dropped > 0
        delivered = int((res.delivery_times >= 0).sum())
        assert delivered + res.admission_dropped == 200
