"""Simulator invariants, checked across every policy of both simulators:

* physicality — a delivered packet's latency is at least its shortest
  distance (one hop per step, no teleporting);
* conservation — every injected packet is exactly one of delivered,
  dropped, or still in flight when the run ends;
* determinism — a fixed seed reproduces the run bit-for-bit;
* contention — the step core's per-edge minimum-key winner pick agrees
  with a lexicographic sort on (edge, priority) that takes the first
  request per edge;
* whole runs — both simulators give the same results on the step core
  and on a plain reference core written here (``_ReferenceCore``).
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
from repro.simulation.admission import AdmissionParams
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
        policy, wanted, left, delay, seed = case
        mesh = Mesh((4, 4))
        left = np.array(left)
        starts = np.cumsum(left) - left
        eids = np.random.default_rng(seed).integers(0, mesh.num_edges, left.sum())
        eids[starts] = wanted  # each packet's requested edge
        not_before = np.array(delay) if policy == "random-delay" else None
        core = StepCore(
            mesh, eids, left, policy=policy, rng=np.random.default_rng(seed),
            not_before=not_before, faults=None, reroute=None, cur=None,
            dests=None, max_retries=0, backoff_cap=0, profiler=None,
            admission=None, track_queue=True,
        )
        core.enter(np.arange(left.size))
        step = 1
        got_finished = core.advance(step)

        ready = np.arange(left.size)
        if not_before is not None:
            ready = ready[not_before <= step]
        if ready.size == 0:
            assert got_finished.size == 0 and core.max_queue == 0
            return
        edges = eids[starts[ready]]
        if policy == "farthest-first":
            prio = -left[ready]
        elif policy == "random":
            prio = np.random.default_rng(seed).permutation(ready.size)
        else:
            prio = ready
        winners = _lexsort_winners(ready, edges, prio)
        finished = winners[left[winners] == 1]

        np.testing.assert_array_equal(got_finished, finished)  # same order
        assert core.max_queue == np.bincount(edges).max()
        # finished slots park on ``core.park`` and may be compacted away:
        # read the in-network slots through their packet ids
        inside = core.req != core.park
        if core.wait is not None:  # waiting slots park too
            inside |= core.wait != np.iinfo(np.int64).max
        np.testing.assert_array_equal(
            core.pid[inside], np.setdiff1d(np.arange(left.size), finished)
        )
        assert core.live == np.count_nonzero(inside)
        moved = core.at[inside] - starts[core.pid[inside]]
        np.testing.assert_array_equal(
            core.pid[inside][moved == 1], np.setdiff1d(winners, finished)
        )
        assert ((moved == 0) | (moved == 1)).all()
        # clean for the next step
        assert (core.best[: core.park] == np.iinfo(np.int64).max).all()


class _ReferenceCore:
    """The step core as a plain loop over packet-indexed lists.

    It keeps the interface both simulators drive (``enter``, ``admit``,
    ``advance``, ``live``, ``queued``, the counters) and nothing of the
    real core's layout: each step gathers the requests of the packets in
    the network, runs the fault ladder over them in packet order, then
    sorts them on (edge, priority) and moves the first request per edge.
    """

    def __init__(
        self, mesh, eids, nedges, *, policy, rng, not_before=None, faults,
        reroute, cur, dests, max_retries, backoff_cap, profiler, admission,
        track_queue=False,
    ):
        from repro.simulation.admission import AdmissionState

        bounds = np.concatenate(([0], np.cumsum(nedges))).tolist()
        self.path = [eids[a:b].tolist() for a, b in zip(bounds[:-1], bounds[1:])]
        self.pos = [0] * len(self.path)
        self.not_before = (
            [0] * len(self.path) if not_before is None else not_before.tolist()
        )
        self.retries = [0] * len(self.path)
        self.mesh, self.policy, self.rng, self.faults = mesh, policy, rng, faults
        self.reroute, self.max_retries = reroute, max_retries
        self.backoff_cap = backoff_cap
        if faults is not None:
            self.cur, self.dests = cur.tolist(), dests.tolist()
        self.inside: list[int] = []
        self.adm = AdmissionState(admission) if admission is not None else None
        self.max_queue = 0 if track_queue else None
        self.blocked_steps = self.reroutes = self.dropped = 0

    @property
    def live(self):
        return len(self.inside)

    @property
    def queued(self):
        return len(self.adm) if self.adm is not None else 0

    def enter(self, fresh):
        if self.adm is None:
            self.inside += fresh.tolist()
        else:
            self.adm.push(fresh)

    def admit(self, step, born=None):
        if self.adm is not None:
            self.inside += self.adm.step_admit(step, len(self.inside), born)[0]

    def admission_totals(self):
        if self.adm is None:
            return 0, 0
        return self.adm.dropped, self.adm.delayed_steps

    def _edge(self, i):
        return self.path[i][self.pos[i]]

    def _block(self, step, i, alive):
        self.retries[i] += 1
        self.blocked_steps += 1
        self.not_before[i] = step + 2 ** min(self.retries[i] - 1, self.backoff_cap)
        if self.retries[i] < self.max_retries:
            return
        path = self.reroute(self.cur[i], self.dests[i], step, alive)
        if path is not None and path.size > 1:
            self.path[i] = self.mesh.edge_ids(path[:-1], path[1:]).tolist()
            self.pos[i] = self.retries[i] = 0
            self.not_before[i] = step + 1
            self.reroutes += 1
        elif not self.faults.repairs:
            self.inside.remove(i)
            self.dropped += 1
        else:
            self.retries[i] = 0

    def advance(self, step):
        ready = [i for i in self.inside if self.not_before[i] <= step]
        if self.faults is not None:
            alive = self.faults.edge_alive(step)
            for i in [i for i in ready if not alive[self._edge(i)]]:
                ready.remove(i)
                self._block(step, i, alive)
        if not ready:
            return np.empty(0, dtype=np.int64)
        idx = np.array(ready, dtype=np.int64)
        edges = np.array([self._edge(i) for i in ready], dtype=np.int64)
        if self.policy == "farthest-first":
            prio = np.array([self.pos[i] - len(self.path[i]) for i in ready])
        elif self.policy == "random":
            prio = self.rng.permutation(idx.size)
        else:
            prio = idx
        order = np.lexsort((idx, prio, edges))
        first = np.ones(order.size, dtype=bool)
        first[1:] = edges[order][1:] != edges[order][:-1]
        if self.max_queue is not None:
            self.max_queue = max(self.max_queue, int(np.bincount(edges).max()))
        finished = []
        for i, e in zip(idx[order[first]].tolist(), edges[order[first]].tolist()):
            if self.faults is not None:
                self.cur[i] = int(self.mesh.edge_endpoints[e].sum()) - self.cur[i]
                self.retries[i] = 0
            self.pos[i] += 1
            if self.pos[i] == len(self.path[i]):
                finished.append(i)
                self.inside.remove(i)
        return np.array(finished, dtype=np.int64)


def _assert_same_run(got, want):
    """Every field of two result dataclasses agrees (arrays byte for byte)."""
    import dataclasses

    for f in dataclasses.fields(want):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, np.ndarray):
            np.testing.assert_array_equal(a, b, err_msg=f.name)
            assert a.dtype == b.dtype, f.name
        elif f.name != "slo":
            assert a == b, f.name


def _fault_model(mesh, kind, p, seed):
    if kind == "static":
        return FaultModel.static(mesh, p=p, seed=seed)
    if kind == "dynamic":
        return FaultModel.dynamic(mesh, p=p, repair_delay=3, seed=seed)
    return None


#: (kind, p, seed); a static model at p = 0.4 cuts destinations off (drops)
_FAULTS = st.tuples(
    st.sampled_from([None, "static", "dynamic"]),
    st.sampled_from([0.05, 0.2, 0.4]),
    st.integers(0, 50),
)
_ADMISSION = st.one_of(
    st.none(),
    st.tuples(
        st.sampled_from([None, 0.5, 2.0]),
        st.sampled_from([None, 3, 12]),
        st.sampled_from([None, 2, 6]),
    )
    .filter(lambda knobs: any(k is not None for k in knobs))
    .map(
        lambda knobs: AdmissionParams(
            rate_limit=knobs[0], max_backlog=knobs[1], max_wait=knobs[2]
        )
    ),
)


def _patched_core(module):
    from unittest import mock

    return mock.patch.object(module, "StepCore", _ReferenceCore)


class TestWholeRunDifferential:
    """Both simulators, run end to end on the real step core and on
    :class:`_ReferenceCore`, agree on every result field."""

    @settings(max_examples=120, deadline=None)
    @given(
        policy=st.sampled_from(OFFLINE_POLICIES),
        side=st.integers(3, 6),
        num=st.integers(1, 60),
        stationary=st.integers(0, 3),
        faults=_FAULTS,
        admission=_ADMISSION,
        max_retries=st.integers(0, 3),
        backoff_cap=st.integers(0, 4),
        seed=st.integers(0, 2**16),
    )
    def test_simulate_matches_reference(
        self, policy, side, num, stationary, faults, admission, max_retries,
        backoff_cap, seed,
    ):
        from repro.simulation import scheduler

        mesh = Mesh((side, side + 1))
        routed = ValiantRouter().route(random_pairs(mesh, num, seed=seed), seed=seed)
        paths = list(routed.paths)
        rng = np.random.default_rng(seed)
        for _ in range(stationary):  # one-node and empty paths never move
            at = int(rng.integers(len(paths) + 1))
            paths.insert(at, np.arange(int(rng.integers(2)), dtype=np.int64))

        def run():
            return simulate(
                mesh, paths, policy=policy, seed=seed,
                faults=_fault_model(mesh, *faults),
                admission=admission, max_retries=max_retries,
                backoff_cap=backoff_cap,
            )

        got = run()
        with _patched_core(scheduler):
            want = run()
        _assert_same_run(got, want)

    @settings(max_examples=40, deadline=None)
    @given(
        policy=st.sampled_from(ONLINE_POLICIES),
        rate=st.sampled_from([0.1, 0.3, 0.6]),
        steps=st.integers(1, 12),
        faults=_FAULTS,
        admission=_ADMISSION,
        max_retries=st.integers(0, 3),
        backoff_cap=st.integers(0, 4),
        seed=st.integers(0, 2**16),
    )
    def test_simulate_online_matches_reference(
        self, policy, rate, steps, faults, admission, max_retries, backoff_cap,
        seed,
    ):
        from repro.simulation import online

        mesh = Mesh((4, 4))

        def run():
            return simulate_online(
                HierarchicalRouter(), mesh, rate=rate, steps=steps, seed=seed,
                policy=policy, drain_steps=40,
                faults=_fault_model(mesh, *faults),
                admission=admission, max_retries=max_retries,
                backoff_cap=backoff_cap,
            )

        got = run()
        with _patched_core(online):
            want = run()
        _assert_same_run(got, want)  # ``latencies`` in delivery order


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
