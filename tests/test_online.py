"""Tests for the online (dynamic-arrival) routing simulation."""

import numpy as np
import pytest

from repro.core.path_selection import HierarchicalRouter
from repro.mesh.mesh import Mesh
from repro.routing.baselines import (
    GreedyMinCongestionRouter,
    RandomDimOrderRouter,
    ValiantRouter,
)
from repro.simulation.online import latency_vs_load, simulate_online


@pytest.fixture
def mesh():
    return Mesh((8, 8))


class TestSimulateOnline:
    def test_everything_delivered(self, mesh):
        stats = simulate_online(
            HierarchicalRouter(), mesh, rate=0.03, steps=100, seed=0
        )
        assert stats.delivered == stats.injected
        assert stats.injected > 0

    def test_zero_rate(self, mesh):
        stats = simulate_online(
            HierarchicalRouter(), mesh, rate=0.0, steps=30, seed=0
        )
        assert stats.injected == 0
        assert stats.delivered == 0
        assert stats.mean_latency == 0.0

    def test_latency_at_least_distance(self, mesh):
        stats = simulate_online(
            RandomDimOrderRouter(), mesh, rate=0.02, steps=100, seed=1
        )
        # stretch-1 router: latency >= distance, so slowdown >= 1
        assert stats.mean_slowdown >= 1.0

    def test_reproducible(self, mesh):
        a = simulate_online(HierarchicalRouter(), mesh, rate=0.02, steps=60, seed=3)
        b = simulate_online(HierarchicalRouter(), mesh, rate=0.02, steps=60, seed=3)
        assert a.injected == b.injected
        assert a.mean_latency == b.mean_latency
        np.testing.assert_array_equal(a.latencies, b.latencies)

    def test_rejects_non_oblivious(self, mesh):
        with pytest.raises(ValueError):
            simulate_online(
                GreedyMinCongestionRouter(), mesh, rate=0.01, steps=10
            )

    def test_invalid_policy(self, mesh):
        with pytest.raises(ValueError):
            simulate_online(
                HierarchicalRouter(), mesh, rate=0.01, steps=10, policy="nope"
            )

    @pytest.mark.parametrize("rate", [float("nan"), -0.01, 1.5, float("inf")])
    def test_rejects_rate_outside_unit_interval(self, mesh, rate):
        # nan used to inject nothing and 1.5 to behave as 1, both silently
        with pytest.raises(ValueError, match="rate"):
            simulate_online(HierarchicalRouter(), mesh, rate=rate, steps=10)

    def test_rejects_negative_steps(self, mesh):
        with pytest.raises(ValueError, match="steps"):
            simulate_online(HierarchicalRouter(), mesh, rate=0.01, steps=-1)

    def test_unit_rate_bounds_run(self, mesh):
        assert simulate_online(
            HierarchicalRouter(), mesh, rate=1.0, steps=2, seed=0
        ).injected == 2 * mesh.n
        assert simulate_online(
            HierarchicalRouter(), mesh, rate=0.01, steps=0, seed=0
        ).injected == 0

    def test_random_policy_runs(self, mesh):
        stats = simulate_online(
            HierarchicalRouter(), mesh, rate=0.02, steps=50, seed=4, policy="random"
        )
        assert stats.delivered == stats.injected

    def test_custom_destination_function(self, mesh):
        def neighbor_dest(m, src, rng):
            nbrs = m.neighbors(src)
            return int(nbrs[int(rng.integers(len(nbrs)))])

        stats = simulate_online(
            HierarchicalRouter(),
            mesh,
            rate=0.05,
            steps=60,
            seed=5,
            dest_fn=neighbor_dest,
        )
        assert stats.mean_distance == 1.0
        # constant stretch => tiny latencies on neighbor traffic
        assert stats.mean_latency < 12

    def test_summary(self, mesh):
        stats = simulate_online(HierarchicalRouter(), mesh, rate=0.02, steps=40, seed=6)
        assert "delivered" in stats.summary()


class TestLatencyVsLoad:
    def test_latency_increases_with_load(self, mesh):
        rows = latency_vs_load(
            HierarchicalRouter(), mesh, [0.01, 0.12], steps=120, seed=0
        )
        assert rows[0]["mean_latency"] <= rows[1]["mean_latency"] * 1.2
        assert rows[0]["max_queue"] <= rows[1]["max_queue"]

    def test_stretch_matters_at_light_load_on_local_traffic(self, mesh):
        """The online restatement of the paper: Valiant pays its stretch as
        latency on local traffic even when the network is idle."""

        def neighbor_dest(m, src, rng):
            nbrs = m.neighbors(src)
            return int(nbrs[int(rng.integers(len(nbrs)))])

        ours = simulate_online(
            HierarchicalRouter(), mesh, rate=0.01, steps=150, seed=7,
            dest_fn=neighbor_dest,
        )
        valiant = simulate_online(
            ValiantRouter(), mesh, rate=0.01, steps=150, seed=7,
            dest_fn=neighbor_dest,
        )
        assert ours.mean_latency * 1.5 < valiant.mean_latency

    def test_rows_have_router_name(self, mesh):
        rows = latency_vs_load(HierarchicalRouter(), mesh, [0.01], steps=40)
        assert rows[0]["router"] == "hierarchical"
