"""Tests for the synchronous store-and-forward scheduler.

``TestGoldenMatrix`` pins both simulators (``simulate`` and
``simulate_online``) to the committed hashes in
``tests/golden/simulation_hashes.json``.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from tests.golden.regenerate_simulation_goldens import (
    result_hash,
    simulation_golden_cases,
)

from repro.core.path_selection import HierarchicalRouter
from repro.mesh.mesh import Mesh
from repro.mesh.paths import dimension_order_path
from repro.routing.baselines import DimensionOrderRouter
from repro.simulation.scheduler import simulate
from repro.workloads.generators import random_pairs
from repro.workloads.permutations import transpose


@pytest.fixture
def mesh():
    return Mesh((8, 8))


class TestBasics:
    def test_single_packet_takes_its_length(self, mesh):
        p = dimension_order_path(mesh, 0, 63)
        res = simulate(mesh, [p])
        assert res.makespan == len(p) - 1
        assert res.delivery_times[0] == res.makespan

    def test_no_packets(self, mesh):
        res = simulate(mesh, [])
        assert res.makespan == 0

    def test_stationary_packet(self, mesh):
        res = simulate(mesh, [np.asarray([5])])
        assert res.makespan == 0
        assert res.delivery_times[0] == 0

    def test_empty_path_beside_moving_packets(self, mesh):
        # a path with no nodes never moves and counts as delivered at 0
        empty = np.asarray([], dtype=np.int64)
        res = simulate(mesh, [empty])
        assert res.makespan == 0 and res.delivery_times.tolist() == [0]
        res = simulate(mesh, [np.asarray([0, 1]), empty, np.asarray([7])])
        assert res.makespan == 1 and res.delivery_times.tolist() == [1, 0, 0]

    def test_two_packets_share_edge(self, mesh):
        p = np.asarray([0, 1])
        res = simulate(mesh, [p, p])
        assert res.makespan == 2  # one per step over the shared edge

    def test_disjoint_packets_parallel(self, mesh):
        a = np.asarray([0, 1])
        b = np.asarray([62, 63])
        res = simulate(mesh, [a, b])
        assert res.makespan == 1

    def test_invalid_policy(self, mesh):
        with pytest.raises(ValueError):
            simulate(mesh, [np.asarray([0, 1])], policy="nope")

    def test_max_steps_guard(self, mesh):
        p = dimension_order_path(mesh, 0, 63)
        with pytest.raises(RuntimeError):
            simulate(mesh, [p], max_steps=3)


class TestBenchmarkScale:
    """The benchmark's scale: 16,384 packets on 32x32 reach long edge
    queues and compact parked slots many times, which the 8x8 goldens
    never do.  Pinned from the step core before fixed priority keys."""

    def test_farthest_first_16k_pinned(self):
        import hashlib

        mesh = Mesh((32, 32))
        problem = random_pairs(mesh, 16_384, seed=1)
        result = HierarchicalRouter().route(problem, seed=1, workers=1)
        sim = simulate(mesh, result, policy="farthest-first")
        digest = hashlib.sha256(
            np.ascontiguousarray(sim.delivery_times, dtype=np.int64).tobytes()
        ).hexdigest()
        assert (sim.makespan, sim.congestion, sim.dilation) == (523, 523, 126)
        assert digest == (
            "094aae7ee0a31f009390fd9399b3e199e607d0b18124cbd8f2f8e64b7ad428f5"
        )


class TestBounds:
    @pytest.mark.parametrize("policy", ["farthest-first", "fifo", "random"])
    def test_makespan_bounds(self, mesh, policy):
        problem = random_pairs(mesh, 60, seed=0)
        result = HierarchicalRouter().route(problem, seed=1)
        sim = simulate(mesh, result, policy=policy, seed=2)
        assert sim.makespan >= max(sim.congestion, sim.dilation)
        assert sim.makespan <= sim.congestion * sim.dilation + sim.dilation
        assert np.all(sim.delivery_times <= sim.makespan)

    def test_every_packet_delivered_once(self, mesh):
        problem = random_pairs(mesh, 40, seed=3)
        result = DimensionOrderRouter().route(problem, seed=0)
        sim = simulate(mesh, result)
        lengths = np.asarray([len(p) - 1 for p in result.paths])
        assert np.all(sim.delivery_times >= lengths)

    def test_cd_metrics_match_routing_result(self, mesh):
        problem = transpose(mesh)
        result = HierarchicalRouter().route(problem, seed=4)
        sim = simulate(mesh, result)
        assert sim.congestion == result.congestion
        assert sim.dilation == result.dilation
        assert sim.cd_bound == result.congestion + result.dilation

    def test_efficiency_range(self, mesh):
        problem = random_pairs(mesh, 30, seed=5)
        result = HierarchicalRouter().route(problem, seed=6)
        sim = simulate(mesh, result)
        assert 0.4 <= sim.efficiency  # >= 0.5 up to rounding of tiny cases

    def test_summary(self, mesh):
        sim = simulate(mesh, [np.asarray([0, 1])])
        assert "makespan=1" in sim.summary()


class TestPolicies:
    def test_fifo_priority_order(self, mesh):
        """Under FIFO (by index), the lower-index packet wins the edge."""
        p = np.asarray([0, 1])
        res = simulate(mesh, [p, p], policy="fifo")
        assert res.delivery_times[0] == 1
        assert res.delivery_times[1] == 2

    def test_farthest_first_prefers_long_paths(self, mesh):
        long = dimension_order_path(mesh, 0, 63)
        short = long[:2].copy()
        res = simulate(mesh, [short, long], policy="farthest-first")
        # The long packet wins the first shared edge.
        assert res.delivery_times[1] == len(long) - 1

    def test_random_policy_seeded(self, mesh):
        problem = random_pairs(mesh, 30, seed=7)
        result = HierarchicalRouter().route(problem, seed=8)
        a = simulate(mesh, result, policy="random", seed=1)
        b = simulate(mesh, result, policy="random", seed=1)
        assert a.makespan == b.makespan
        np.testing.assert_array_equal(a.delivery_times, b.delivery_times)


class TestRandomDelayPolicy:
    def test_delivers_everything(self, mesh):
        problem = random_pairs(mesh, 50, seed=9)
        result = HierarchicalRouter().route(problem, seed=10)
        sim = simulate(mesh, result, policy="random-delay", seed=11)
        assert np.all(sim.delivery_times >= 0)
        assert sim.makespan >= max(sim.congestion, sim.dilation)
        # delays are bounded by C, so makespan <= 2C + schedule length
        assert sim.makespan <= 3 * sim.cd_bound + 8

    def test_reproducible(self, mesh):
        problem = random_pairs(mesh, 30, seed=12)
        result = HierarchicalRouter().route(problem, seed=13)
        a = simulate(mesh, result, policy="random-delay", seed=1)
        b = simulate(mesh, result, policy="random-delay", seed=1)
        assert a.makespan == b.makespan


class TestTorusSimulation:
    def test_wrap_edges_schedule(self):
        torus = Mesh((8, 8), torus=True)
        problem = random_pairs(torus, 40, seed=14)
        result = HierarchicalRouter().route(problem, seed=15)
        sim = simulate(torus, result)
        assert sim.makespan >= max(sim.congestion, sim.dilation)
        assert np.all(sim.delivery_times <= sim.makespan)


GOLDEN_PATH = Path(__file__).parent / "golden" / "simulation_hashes.json"
CASES = dict(simulation_golden_cases())
#: online cells re-run on a two-process pool: statistics must not move
SHARDED_KEYS = (
    "online|8x8|fifo|dynamic2|admit|seed=0",
    "online|8x8|random|static5|none|seed=0",
)


def load_goldens() -> dict[str, str]:
    assert GOLDEN_PATH.exists(), (
        f"golden file missing: {GOLDEN_PATH} — run "
        "tests/golden/regenerate_simulation_goldens.py"
    )
    return json.loads(GOLDEN_PATH.read_text())


class TestGoldenMatrix:
    def test_goldens_cover_the_matrix(self):
        assert set(load_goldens()) == set(CASES), (
            "golden matrix out of sync with simulation_golden_cases() — run "
            "tests/golden/regenerate_simulation_goldens.py"
        )
        assert len(CASES) == 64

    @pytest.mark.parametrize(
        "key", [k for k in sorted(CASES) if "|maxwait|" in k],
        ids=lambda k: k.replace("|", ","),
    )
    def test_maxwait_cells_shed(self, key):
        # the shed cells pin how a shed packet is recorded only if they shed
        assert CASES[key]().admission_dropped > 0

    @pytest.mark.parametrize("key", sorted(CASES), ids=lambda k: k.replace("|", ","))
    def test_golden_cell(self, key):
        assert result_hash(CASES[key]()) == load_goldens()[key], (
            f"simulator output changed for {key}: a stored seed now replays "
            "a different schedule (regenerate_simulation_goldens.py --force "
            "if intentional)"
        )

    @pytest.mark.parametrize("key", SHARDED_KEYS, ids=lambda k: k.replace("|", ","))
    def test_online_cell_is_worker_invariant(self, key):
        sharded = dict(simulation_golden_cases(workers=2))[key]
        assert result_hash(sharded()) == load_goldens()[key]
