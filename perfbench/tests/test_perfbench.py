"""Tests for the benchmark's own logic (not collected by the repo's tier-1 run).

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracing import ROOT as ROOT_SPAN, Span, Tracer, op_breakdown, self_times  # noqa: E402


# -- self time -------------------------------------------------------------
def test_self_time_on_synthetic_span_tree():
    # op 0: root [0, 10] with children a [1, 4] and b [5, 9]; b has child
    # c [6, 8] and a child d [7, 9.5] that overlaps c and runs past b.
    spans = [
        Span(0, ROOT_SPAN, 0.0, 10.0, None, 0),
        Span(1, "a", 1.0, 4.0, 0, 0),
        Span(2, "b", 5.0, 9.0, 0, 0),
        Span(3, "c", 6.0, 8.0, 2, 0),
        Span(4, "d", 7.0, 9.5, 2, 0),
        Span(5, "a", 0.5, 1.5, None, 1),
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10 - 3 - 4)
    assert selfs[1] == pytest.approx(3)
    # c and d cover [6, 9] inside b once, not 2 + 2.5
    assert selfs[2] == pytest.approx(4 - 3)
    assert selfs[3] == pytest.approx(2)
    assert selfs[4] == pytest.approx(2.5)
    per_op = op_breakdown(spans)
    assert per_op[0] == pytest.approx({ROOT_SPAN: 3.0, "a": 3.0, "b": 1.0, "c": 2.0, "d": 2.5})
    assert per_op[1] == pytest.approx({"a": 1.0})


def test_tracer_spans_tile_the_op_and_uninstall_restores():
    from repro.mesh.mesh import Mesh
    from repro.routing import base

    congestion_mod = wl._mod("repro.metrics.congestion")

    mesh = Mesh((8, 8))
    problem = wl._mod("repro.workloads.generators").random_pairs(mesh, 64, seed=3)
    router = wl._mod("repro.core.path_selection").HierarchicalRouter()
    original = congestion_mod.congestion
    tracer = Tracer()
    tracer.install()
    try:
        assert base._congestion is not original  # bound by name elsewhere: patched too
        with tracer.op(7):
            result = router.route(problem, seed=1)
            congestion_mod.congestion(mesh, result.paths)
    finally:
        tracer.uninstall()
    assert congestion_mod.congestion is original and base._congestion is original
    names = {s.name for s in tracer.spans}
    assert {"engine.run_batch", "kernels.assemble_paths", "metrics.congestion"} <= names
    root = next(s for s in tracer.spans if s.name == ROOT_SPAN)
    assert sum(op_breakdown(tracer.spans)[7].values()) == pytest.approx(root.duration)


def test_pool_start_is_a_span_inside_map():
    # Fork workers start at the first submit, inside ``map``: their start
    # must be its own span, not part of map's self time.
    from repro.mesh.mesh import Mesh

    problem = wl._mod("repro.workloads.generators").random_pairs(Mesh((8, 8)), 256, seed=4)
    router = wl._mod("repro.core.path_selection").HierarchicalRouter()
    tracer = Tracer()
    # One resource tracker for this process and its workers, stopped after.
    run.share_resource_tracker()
    tracer.install()
    try:
        with tracer.op(0):
            router.route(problem, seed=1, workers=2)
    finally:
        tracer.uninstall()
        run.stop_children()
    by_sid = {s.sid: s for s in tracer.spans}
    starts = [s for s in tracer.spans if s.name == "parallel.pool_start"]
    nested = [s for s in starts if s.parent is not None and by_sid[s.parent].name == "parallel.map"]
    assert len(nested) == 2  # one per worker process
    assert tracer.counters[0]["parallel.return_bytes"] > 0


# -- output checks ---------------------------------------------------------
def _routed(side=8, n=200, seed=5):
    from repro.core.path_selection import HierarchicalRouter
    from repro.mesh.mesh import Mesh
    from repro.workloads.generators import random_pairs

    problem = random_pairs(Mesh((side, side)), n, seed=seed)
    return HierarchicalRouter().route(problem, seed=seed)


def test_output_check_catches_one_flipped_path_byte():
    from repro.core.pathset import PathSet
    from repro.routing.base import RoutingResult

    result = _routed()
    ref = wl.csr_digest(result.paths.nodes, result.paths.offsets)
    assert wl.check_paths(result, result.stretch) == []
    nodes = np.array(result.paths.nodes)
    nodes.view(np.uint8)[8 * 10] ^= 1  # one bit of one byte of node 10
    flipped = RoutingResult(
        result.problem, PathSet.from_arrays(nodes, result.paths.offsets), result.router_name
    )
    assert wl.csr_digest(flipped.paths.nodes, flipped.paths.offsets) != ref
    assert wl.check_paths(flipped, 1.0) == ["invalid path"]


def test_output_check_catches_a_broken_conservation_count():
    from repro.simulation.scheduler import simulate

    result = _routed()
    sim = simulate(result.problem.mesh, result.paths)
    assert wl.check_schedule(sim) == []
    sim.delivered -= 1
    assert wl.check_schedule(sim) == [f"delivered {sim.delivered} of {sim.num_packets}"]


def test_schedule_check_bounds():
    from types import SimpleNamespace

    ok = SimpleNamespace(delivered=5, num_packets=5, congestion=3, dilation=4, makespan=6)
    assert wl.check_schedule(ok) == []
    assert wl.check_schedule(SimpleNamespace(**{**vars(ok), "makespan": 3}))
    assert wl.check_schedule(SimpleNamespace(**{**vars(ok), "delivered": 4}))


# -- inputs ----------------------------------------------------------------
def _input_arrays(workload, seed):
    w = wl.WORKLOADS[workload](seed)
    return [a for problem, s in w.inputs for a in (problem.sources, problem.dests, np.asarray(s))]


@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
def test_inputs_equal_for_equal_seeds_and_differ_otherwise(workload):
    a, b, c = (_input_arrays(workload, s) for s in (11, 11, 12))
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert not any(np.array_equal(x, z) for x, z in zip(a, c))


def test_derived_seeds_are_distinct_across_slots_and_workloads():
    seeds = {wl.derive_seed(1, name, k) for name in wl.WORKLOADS for k in range(4)}
    assert len(seeds) == 4 * len(wl.WORKLOADS)


# -- BENCHMARK.json --------------------------------------------------------
def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)


def test_missing_program_source_exits_nonzero(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "route-64x64", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""


def test_stop_children_reaps_an_orphaned_grandchild():
    # A child starts a grandchild and exits at once, orphaning it; the
    # subreaper adopts it, and stop_children waits for it to end.
    code = f"""
import os, subprocess, sys
sys.path.insert(0, {str(HERE)!r})
import run
run.adopt_orphans()
child = subprocess.run(
    [sys.executable, "-c",
     "import subprocess, sys; print(subprocess.Popen([sys.executable, '-c', "
     "'import time; time.sleep(0.5)']).pid)"],
    capture_output=True, text=True, check=True,
)
grandchild = int(child.stdout)
assert grandchild in run.child_pids()
run.stop_children()
assert run.child_pids() == []
assert not os.path.exists(f"/proc/{{grandchild}}")
"""
    import subprocess

    subprocess.run([sys.executable, "-c", code], check=True, timeout=60)
