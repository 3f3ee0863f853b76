"""Simulator invariants, checked across every policy of both simulators:

* physicality — a delivered packet's latency is at least its shortest
  distance (one hop per step, no teleporting);
* conservation — every injected packet is exactly one of delivered,
  dropped, or still in flight when the run ends;
* determinism — a fixed seed reproduces the run bit-for-bit;
* contention — the step core's per-edge minimum-key winner pick agrees
  with a lexicographic sort on (edge, priority) that takes the first
  request per edge.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.path_selection import HierarchicalRouter
from repro.faults import FaultModel
from repro.mesh.mesh import Mesh
from repro.routing.baselines import ValiantRouter
from repro.simulation._step import StepCore
from repro.simulation.online import simulate_online
from repro.simulation.scheduler import simulate
from repro.workloads.generators import random_pairs
from repro.workloads.permutations import transpose

OFFLINE_POLICIES = ["farthest-first", "fifo", "random", "random-delay"]
ONLINE_POLICIES = ["fifo", "random"]


def _routed(mesh, seed=0):
    problem = random_pairs(mesh, 80, seed=seed)
    return problem, HierarchicalRouter().route(problem, seed=seed)


class TestOfflineInvariants:
    @pytest.mark.parametrize("policy", OFFLINE_POLICIES)
    def test_latency_at_least_distance(self, policy):
        mesh = Mesh((16, 16))
        problem, result = _routed(mesh)
        out = simulate(mesh, result, policy=policy, seed=1)
        dists = problem.distances
        delivered = out.delivery_times >= 0
        assert delivered.all()  # fault-free: everything arrives
        assert (out.delivery_times[delivered] >= dists[delivered]).all()
        # random-delay legitimately idles before moving; the others can't
        # beat the makespan bound either
        assert out.makespan == int(out.delivery_times.max())

    @pytest.mark.parametrize("policy", OFFLINE_POLICIES)
    def test_delivery_conservation(self, policy):
        mesh = Mesh((16, 16))
        _, result = _routed(mesh)
        out = simulate(mesh, result, policy=policy, seed=1)
        assert out.num_packets == len(result.paths)
        assert out.delivered + out.dropped == out.num_packets
        assert out.delivery_ratio == 1.0

    @pytest.mark.parametrize("policy", OFFLINE_POLICIES)
    def test_fixed_seed_reproduces(self, policy):
        mesh = Mesh((16, 16))
        _, result = _routed(mesh)
        a = simulate(mesh, result, policy=policy, seed=7)
        b = simulate(mesh, result, policy=policy, seed=7)
        assert a.makespan == b.makespan
        np.testing.assert_array_equal(a.delivery_times, b.delivery_times)

    @pytest.mark.parametrize("policy", OFFLINE_POLICIES)
    def test_invariants_hold_under_faults(self, policy):
        mesh = Mesh((16, 16))
        problem = transpose(mesh)
        result = HierarchicalRouter().route(problem, seed=0)
        fm = FaultModel.static(mesh, p=0.01, seed=5)
        out = simulate(mesh, result, policy=policy, seed=1, faults=fm)
        delivered = out.delivery_times >= 0
        dists = result.problem.distances
        assert (out.delivery_times[delivered] >= dists[delivered]).all()
        assert out.delivered == int(delivered.sum())
        assert out.delivered + (out.num_packets - out.delivered) == out.num_packets

    def test_empty_pathset(self):
        mesh = Mesh((8, 8))
        out = simulate(mesh, [], seed=0)
        assert out.makespan == 0 and out.num_packets == 0
        assert out.delivery_ratio == 1.0


class TestOnlineInvariants:
    @pytest.mark.parametrize("policy", ONLINE_POLICIES)
    def test_latency_at_least_distance(self, policy):
        mesh = Mesh((8, 8))
        s = simulate_online(
            HierarchicalRouter(), mesh, rate=0.05, steps=40, seed=2, policy=policy
        )
        assert s.latencies.size == s.distances.size == s.delivered
        assert (s.latencies >= s.distances).all()
        assert (s.distances >= 1).all()  # dest_fn never picks the source

    @pytest.mark.parametrize("policy", ONLINE_POLICIES)
    def test_delivery_conservation(self, policy):
        mesh = Mesh((8, 8))
        s = simulate_online(
            HierarchicalRouter(), mesh, rate=0.05, steps=40, seed=2, policy=policy
        )
        # fault-free with a full drain phase: everything injected arrives
        assert s.delivered == s.injected
        assert s.delivery_ratio == 1.0

    @pytest.mark.parametrize("policy", ONLINE_POLICIES)
    def test_fixed_seed_reproduces(self, policy):
        mesh = Mesh((8, 8))
        runs = [
            simulate_online(
                HierarchicalRouter(), mesh, rate=0.05, steps=40, seed=9, policy=policy
            )
            for _ in range(2)
        ]
        assert runs[0].injected == runs[1].injected
        assert runs[0].steps == runs[1].steps
        np.testing.assert_array_equal(runs[0].latencies, runs[1].latencies)
        np.testing.assert_array_equal(runs[0].distances, runs[1].distances)

    @pytest.mark.parametrize("policy", ONLINE_POLICIES)
    def test_invariants_hold_under_faults(self, policy):
        mesh = Mesh((8, 8))
        fd = FaultModel.dynamic(mesh, p=0.01, repair_delay=4, seed=3)
        s = simulate_online(
            HierarchicalRouter(), mesh, rate=0.05, steps=40, seed=2,
            policy=policy, faults=fd,
        )
        assert (s.latencies >= s.distances).all()
        assert s.delivered + s.dropped <= s.injected
        assert 0.0 <= s.delivery_ratio <= 1.0

    def test_other_router_same_invariants(self):
        mesh = Mesh((8, 8))
        s = simulate_online(ValiantRouter(), mesh, rate=0.05, steps=30, seed=2)
        assert (s.latencies >= s.distances).all()
        assert s.delivered == s.injected


@st.composite
def _contention_steps(draw):
    """One step's requests: few edges, many packets per edge, and few
    distinct remaining-hop counts so ``farthest-first`` ties often."""
    num = draw(st.integers(1, 60))
    num_edges = draw(st.integers(1, 6))
    return (
        draw(st.sampled_from(OFFLINE_POLICIES)),
        draw(st.lists(st.integers(0, num_edges - 1), min_size=num, max_size=num)),
        draw(st.lists(st.integers(0, 3), min_size=num, max_size=num)),  # done
        draw(st.lists(st.integers(1, 3), min_size=num, max_size=num)),  # left
        draw(st.lists(st.integers(0, 2), min_size=num, max_size=num)),  # delay
        draw(st.integers(0, 2**32 - 1)),
    )


def _lexsort_winners(ready, edges, prio):
    """The reference pick: sort on (edge, priority), first request per edge."""
    order = np.lexsort((prio, edges))
    first = np.ones(order.size, dtype=bool)
    first[1:] = edges[order][1:] != edges[order][:-1]
    return ready[order[first]]


class TestContentionDifferential:
    @settings(max_examples=300, deadline=None)
    @given(_contention_steps())
    def test_winners_match_lexsort_reference(self, case):
        policy, wanted, done, left, delay, seed = case
        mesh = Mesh((4, 4))
        done, left = np.array(done), np.array(left)
        nedges = done + left
        starts = np.cumsum(nedges) - nedges
        eids = np.random.default_rng(seed).integers(0, mesh.num_edges, nedges.sum())
        eids[starts + done] = wanted  # each packet's requested edge
        not_before = np.array(delay) if policy == "random-delay" else None
        core = StepCore(
            mesh, eids, nedges, policy=policy, rng=np.random.default_rng(seed),
            not_before=not_before, faults=None, reroute=None, cur=None,
            dests=None, max_retries=0, backoff_cap=0, profiler=None,
            admission=None,
        )
        core.at += done
        core.enter(np.arange(nedges.size))
        step = 1
        moved = core.advance(step)

        ready = np.arange(nedges.size)
        if not_before is not None:
            ready = ready[not_before <= step]
        if ready.size == 0:
            assert moved is None
            return
        edges = eids[starts[ready] + done[ready]]
        if policy == "farthest-first":
            prio = -left[ready]
        elif policy == "random":
            prio = np.random.default_rng(seed).permutation(ready.size)
        else:
            prio = ready
        winners = _lexsort_winners(ready, edges, prio)
        finished = winners[left[winners] == 1]

        requested, got_finished = moved
        np.testing.assert_array_equal(requested, edges)
        np.testing.assert_array_equal(got_finished, finished)  # same order
        advanced = np.flatnonzero(core.at != starts + done)
        np.testing.assert_array_equal(advanced, np.sort(winners))
        np.testing.assert_array_equal(core.at[winners], (starts + done + 1)[winners])
        np.testing.assert_array_equal(
            core.active, np.setdiff1d(np.arange(nedges.size), finished)
        )
        assert (core.best == np.iinfo(np.int64).max).all()  # clean for next step


# ---------------------------------------------------------------------------
# Nightly-only exhaustive sweeps (the `deep` marker)
# ---------------------------------------------------------------------------

@pytest.mark.deep
class TestOnlineInvariantsDeep:
    """Wide rate x policy x fault sweep, checked through the verify registry."""

    @pytest.mark.parametrize("policy", ONLINE_POLICIES)
    @pytest.mark.parametrize("rate", [0.02, 0.1, 0.3, 0.6])
    @pytest.mark.parametrize(
        "fault", [None, ("static", 0.02), ("dynamic", 0.01)]
    )
    def test_conservation_across_the_load_curve(self, policy, rate, fault):
        from repro.verify.invariants import VerifyContext, check_invariants

        mesh = Mesh((8, 8))
        fm = None
        if fault is not None:
            mode, p = fault
            fm = (
                FaultModel.static(mesh, p=p, seed=3)
                if mode == "static"
                else FaultModel.dynamic(mesh, p=p, repair_delay=4, seed=3)
            )
        steps = 60
        stats = simulate_online(
            HierarchicalRouter(), mesh, rate=rate, steps=steps, seed=11,
            policy=policy, faults=fm,
        )
        ctx = VerifyContext(
            result=None,
            router=None,
            entropy=11,
            original_problem=None,
            online=stats,
            online_params={"total_steps": steps + 8 * steps + 200},
            faults=fm,
        )
        assert check_invariants(ctx, names=("online.conservation",)) == {}
