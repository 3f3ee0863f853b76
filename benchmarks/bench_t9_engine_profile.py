"""Experiment T9 — the batched routing engine: where the time goes.

Not a paper figure: this is the engineering experiment behind the
production north star ("route heavy traffic as fast as the hardware
allows").  It times the vectorised engine (sequence tables + array
assembly) with a cold and a warm shared-decomposition cache, and reports
the per-stage profile of a route (sequence / draw / assemble).  The
qualitative claims asserted here:

* the engine's paths are byte-identical to the scalar oracle's
  packet-by-packet replay of the same plan
  (:func:`repro.verify.oracles.oracle_route`; the engine's contract);
* a warm cache makes the sequence stage cheaper than a cold one.

``run_metrics_experiment`` times the *metrics* stage: the columnar
``PathSet`` passes (``congestion`` / ``node_loads`` / ``stretches``)
against the pre-PathSet list-of-arrays implementations, kept below as the
baseline.  The contract recorded here: every metric is at least 5x faster
on a 100k-packet 64x64 workload.

``run_kernels_experiment`` times one full route, plus a stage-level A/B
of the dominant assembly pass — the loop-erasure kernel
(``repro.kernels.decycle_paths``) against the seed-era per-path
``remove_cycles`` Python loop, kept below verbatim.  The two decycle
outputs are asserted byte-identical before any time is reported.
"""

from __future__ import annotations

import time

import numpy as np

from common import main_print

from repro import cache, kernels
from repro.core.path_selection import HierarchicalRouter
from repro.core.pathset import PathSet
from repro.mesh.mesh import Mesh
from repro.mesh.paths import remove_cycles
from repro.metrics.congestion import edge_loads, node_loads
from repro.metrics.stretch import stretches
from repro.obs import Profiler
from repro.verify.oracles import oracle_route
from repro.workloads.generators import random_pairs
from repro.workloads.permutations import transpose


def _time(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def run_experiment(m: int = 32, seed: int = 0) -> list[dict]:
    mesh = Mesh((m, m))
    problem = transpose(mesh)
    profiler = Profiler()
    router = HierarchicalRouter(profiler=profiler)

    cache.invalidate()
    cold = _time(lambda: router.route(problem, seed=seed), repeats=1)
    warm = _time(lambda: router.route(problem, seed=seed))

    rows = [
        {"mode": "batch (cold cache)", "wall_s": round(cold, 4), "vs_batch": round(cold / warm, 1)},
        {"mode": "batch (warm cache)", "wall_s": round(warm, 4), "vs_batch": 1.0},
    ]
    profiler.reset()
    router.route(problem, seed=seed)
    for r in profiler.stage_rows():
        rows.append(
            {
                "mode": f"stage: {r['stage']}",
                "wall_s": round(r["wall_s"], 4),
                "vs_batch": round(r["share"], 2),
            }
        )
    _assert_matches_oracle(router, problem, seed)
    return rows


def _assert_matches_oracle(router, problem, seed: int) -> None:
    """The engine's bytes equal the scalar oracle's replay of its plan."""
    result = router.route(problem, seed=seed)
    reference, _ = oracle_route(router, problem, result.seed)
    assert len(result.paths) == len(reference)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(result.paths, reference))


# ---------------------------------------------------------------------------
# Metrics stage: columnar PathSet passes vs the list-of-arrays baseline.
# The baselines below are the seed's metric implementations, kept verbatim
# so the speedup is measured against real history, not a strawman.
# ---------------------------------------------------------------------------

def _baseline_edge_loads(mesh, paths):
    from repro.mesh.paths import path_edge_endpoints

    tails_parts, heads_parts = [], []
    for p in paths:
        p = np.asarray(p, dtype=np.int64)
        if p.size < 2:
            continue
        t, h = path_edge_endpoints(p)
        tails_parts.append(t)
        heads_parts.append(h)
    if not tails_parts:
        return np.zeros(mesh.num_edges, dtype=np.int64)
    ids = mesh.edge_ids(np.concatenate(tails_parts), np.concatenate(heads_parts))
    return np.bincount(ids, minlength=mesh.num_edges).astype(np.int64)


def _baseline_node_loads(mesh, paths):
    counts = np.zeros(mesh.n, dtype=np.int64)
    for p in paths:
        p = np.asarray(p, dtype=np.int64)
        if p.size:
            counts += np.bincount(np.unique(p), minlength=mesh.n)
    return counts


def _baseline_stretches(mesh, sources, dests, paths):
    from repro.mesh.paths import path_length

    lengths = np.asarray([path_length(p) for p in paths], dtype=np.float64)
    dists = np.asarray(mesh.distance(sources, dests), dtype=np.float64)
    out = np.full(sources.size, np.nan)
    nonzero = dists > 0
    out[nonzero] = lengths[nonzero] / dists[nonzero]
    return out


def run_metrics_experiment(
    m: int = 64, packets: int = 100_000, seed: int = 0
) -> list[dict]:
    """Time each metric on one routed workload, columnar vs list baseline."""
    mesh = Mesh((m, m))
    problem = random_pairs(mesh, packets, seed=seed)
    result = HierarchicalRouter().route(problem, seed=seed)
    ps = result.paths
    as_list = ps.to_list()

    pairs = [
        (
            "congestion (edge_loads)",
            lambda: edge_loads(mesh, ps),
            lambda: _baseline_edge_loads(mesh, as_list),
        ),
        (
            "node_loads",
            lambda: node_loads(mesh, ps),
            lambda: _baseline_node_loads(mesh, as_list),
        ),
        (
            "stretch (stretches)",
            lambda: stretches(mesh, problem.sources, problem.dests, ps),
            lambda: _baseline_stretches(
                mesh, problem.sources, problem.dests, as_list
            ),
        ),
    ]
    rows = []
    total_ps = total_list = 0.0
    for name, columnar, baseline in pairs:
        ref_val = baseline()
        np.testing.assert_allclose(np.asarray(columnar(), dtype=np.float64), ref_val)
        t_ps = _time(columnar)
        t_list = _time(baseline, repeats=1 if m >= 64 else 2)
        total_ps += t_ps
        total_list += t_list
        rows.append(
            {
                "metric": name,
                "list_s": round(t_list, 4),
                "pathset_s": round(t_ps, 4),
                "speedup": round(t_list / t_ps, 1),
            }
        )
    rows.append(
        {
            "metric": "all three (metrics stage)",
            "list_s": round(total_list, 4),
            "pathset_s": round(total_ps, 4),
            "speedup": round(total_list / total_ps, 1),
        }
    )
    return rows


# ---------------------------------------------------------------------------
# Kernels A/B: one route, plus the decycle stage vs the seed-era
# per-path Python loop (kept verbatim — real history, not a strawman).
# ---------------------------------------------------------------------------

def _seed_decycle_baseline(mesh_n, nodes, starts, lens):
    """The PR-4 engine's cycle handling: sorted-key dup scan, then
    per-path ``remove_cycles`` over ``np.split`` segments."""
    N = starts.size
    seg_id = np.repeat(np.arange(N, dtype=np.int64), lens)
    keys = np.sort(seg_id * mesh_n + nodes)
    dup = keys[1:] == keys[:-1]
    parts = np.split(nodes, starts[1:])
    if dup.any():
        dup_segs = np.unique(keys[1:][dup] // mesh_n)
        for i in dup_segs.tolist():
            parts[i] = remove_cycles(parts[i])
    return PathSet.from_paths(parts)


def _cyclic_assembly(m, packets, seed):
    """The raw (pre-decycle) assembled node buffer of one routed workload."""
    from repro.core.randomness import resolve_entropy
    from repro.routing.engine import build_waypoints, draw_plan, resolve_orders

    mesh = Mesh((m, m))
    problem = random_pairs(mesh, packets, seed=seed)
    router = HierarchicalRouter()
    spec = router.batch_spec(problem)
    U_way, U_ord = draw_plan(resolve_entropy(seed), spec)
    W = build_waypoints(spec, U_way)
    orders = resolve_orders(spec, U_ord)
    deltas = np.diff(W, axis=1)
    ordered = np.take_along_axis(deltas, orders, axis=2)
    counts = np.abs(ordered)
    values = np.sign(ordered) * mesh.strides[orders]
    lens = counts.sum(axis=(1, 2)) + 1
    starts = np.zeros(lens.size, dtype=np.int64)
    np.cumsum(lens[:-1], out=starts[1:])
    total = int(lens.sum())
    flat_s = spec.coords_s @ mesh.strides
    nodes = kernels.assemble_paths(
        values.reshape(-1), counts.reshape(-1), flat_s, lens, starts, total
    )
    offsets = np.concatenate((starts, np.asarray([total], dtype=np.int64)))
    return mesh, problem, nodes, offsets, starts, lens


def run_kernels_experiment(
    m: int = 64, packets: int = 200_000, seed: int = 0
) -> list[dict]:
    mesh, problem, nodes, offsets, starts, lens = _cyclic_assembly(m, packets, seed)
    router = HierarchicalRouter()
    router.route(problem, seed=seed)  # warm the decomposition cache
    wall = _time(lambda: router.route(problem, seed=seed))
    rows = [
        {"run": "route", "wall_s": round(wall, 4), "pkts/s": int(packets / wall)}
    ]

    want = _seed_decycle_baseline(mesh.n, nodes, offsets[:-1], lens)
    out_nodes, out_offsets, _ = kernels.decycle_paths(nodes, offsets)
    assert out_nodes.tobytes() == want.nodes.tobytes()
    assert out_offsets.tobytes() == want.offsets.tobytes()
    wall = _time(lambda: kernels.decycle_paths(nodes, offsets))
    rows.append(
        {
            "run": "decycle stage [last-visit table + run chase]",
            "wall_s": round(wall, 4),
            "pkts/s": int(packets / wall),
        }
    )
    seed_wall = _time(
        lambda: _seed_decycle_baseline(mesh.n, nodes, offsets[:-1], lens),
        repeats=1,
    )
    rows.append(
        {
            "run": "decycle stage [seed-era per-path loop]",
            "wall_s": round(seed_wall, 4),
            "pkts/s": int(packets / seed_wall),
        }
    )
    return rows


def test_t9_engine_matches_oracle():
    mesh = Mesh((16, 16))
    _assert_matches_oracle(HierarchicalRouter(), transpose(mesh), 3)


def test_t9_metrics_columnar_speedup():
    # Reduced workload for pytest; the full 100k-packet 64x64 run (where
    # the contract is >= 5x per metric) is run_metrics_experiment's default.
    rows = run_metrics_experiment(m=32, packets=20_000)
    for row in rows:
        assert row["speedup"] >= 3.0, f"{row['metric']}: only {row['speedup']}x"


def test_t9_kernels_ab_byte_identical():
    # Reduced workload for pytest; the full 200k-packet 64x64 A/B is
    # run_kernels_experiment's default.  The byte-identity asserts inside
    # are the test — a decycle divergence from the seed-era loop raises.
    rows = run_kernels_experiment(m=16, packets=2_000)
    assert [r["run"] for r in rows][0] == "route"
    assert any("seed-era" in r["run"] for r in rows)


def test_t9_cache_hits_accumulate():
    mesh = Mesh((16, 16))
    problem = transpose(mesh)
    cache.invalidate()
    cache.reset_stats()
    HierarchicalRouter().route(problem, seed=0)
    HierarchicalRouter().route(problem, seed=1)  # second instance: all hits
    st = cache.stats()
    assert st.hits >= 1 and st.entries >= 2


if __name__ == "__main__":
    main_print(run_experiment, "T9: batched engine profile (32x32 transpose)")
    main_print(
        run_metrics_experiment,
        "T9: metrics stage, PathSet vs list baseline (100k packets, 64x64)",
    )
    main_print(
        run_kernels_experiment,
        "T9: kernels, route + decycle stage vs seed-era loop "
        "(200k packets, 64x64)",
    )
