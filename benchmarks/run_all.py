#!/usr/bin/env python
"""Regenerate every experiment table (the data behind EXPERIMENTS.md).

Runs the ``run_experiment()`` of every bench module and prints the tables.
Three parameter tiers:

* default — the full parameters behind EXPERIMENTS.md;
* ``--quick`` — the reduced parameters the pytest-benchmark assertions use;
* ``--smoke`` — tiny meshes, one seed: exercises every experiment
  end-to-end in well under a minute (CI runs this on every push).

Usage:  python benchmarks/run_all.py [--quick | --smoke] [--json PATH]

``--json PATH`` additionally writes every experiment's rows as one JSON
document (``{"mode": ..., "experiments": {title: rows}}``) — CI uploads
the smoke-tier file as a build artifact so regressions can be diffed
without re-running anything.

One failing experiment does not hide the rest: every experiment runs,
each failure is printed with its title and exception, the JSON (which
omits the failed titles) is still written, and the run then exits
non-zero naming every failed title.
"""

from __future__ import annotations

import json
import sys
import traceback

from common import print_experiment

import bench_f1_decomposition_2d as f1
import bench_f2_decomposition_dd as f2
import bench_t1_stretch_2d as t1
import bench_t2_bridge_height as t2
import bench_t3_congestion_2d as t3
import bench_t4_stretch_dd as t4
import bench_t5_congestion_dd as t5
import bench_t6_randomization as t6
import bench_t7_random_bits as t7
import bench_t8_routing_time as t8
import bench_t9_engine_profile as t9
import bench_t10_fault_tolerance as t10
import bench_t11_parallel_scaling as t11
import bench_t14_randomness_frontier as t14
import bench_t15_service_latency as t15
import bench_t16_competitor_frontier as t16
import bench_t17_traffic_slo as t17
import bench_a1_bridge_ablation as a1
import bench_a2_dim_order_ablation as a2
import bench_a3_scheme_ablation as a3
import bench_x1_online_routing as x1
import bench_x2_expected_congestion as x2
import bench_x3_torus as x3
import bench_x4_scaling as x4
import bench_x5_rectangular as x5
import bench_x6_adversary_search as x6

# (title, runner, quick kwargs, smoke kwargs); default runs use {}.
EXPERIMENTS = [
    (
        "F1 / Figure 1: 2-D decomposition inventory (8x8)",
        f1.run_experiment,
        {},
        {},
    ),
    (
        "F2 / Figure 2: multishift shift table (16^3)",
        f2.run_experiment,
        {},
        {"d": 2, "m": 8},
    ),
    (
        "T1 / Theorem 3.4: 2-D stretch <= 64",
        t1.run_experiment,
        {"sizes": (8, 16, 32), "pairs_per_mesh": 200},
        {"sizes": (8,), "pairs_per_mesh": 50},
    ),
    (
        "T2 / Lemma 3.3: bridge height vs log2(dist)+2",
        t2.run_experiment,
        {"m": 32, "samples": 1000},
        {"m": 16, "samples": 100},
    ),
    (
        "T3 / Theorem 3.9: 2-D congestion vs C* lower bound",
        t3.run_experiment,
        {"m": 16, "seeds": (0,)},
        {"m": 8, "seeds": (0,)},
    ),
    (
        "T4 / Theorem 4.2: stretch O(d^2)",
        t4.run_experiment,
        {},
        {"configs": ((2, 8),)},
    ),
    (
        "T5 / Theorem 4.3: d-dim congestion",
        t5.run_experiment,
        {},
        {"configs": ((2, 8),)},
    ),
    (
        "T6 / Section 5.1: forced congestion of deterministic routing",
        t6.run_experiment,
        {"m": 32, "ls": (2, 8, 16)},
        {"m": 16, "ls": (2, 4)},
    ),
    (
        "T6b / Lemma 5.1: kappa-choice hot-edge sweep",
        t6.run_kappa_experiment,
        {"m": 16, "l": 8, "ks": (1, 4, 16), "trials": 4},
        {"m": 8, "l": 4, "ks": (1, 2), "trials": 2},
    ),
    (
        "T7 / Lemma 5.4: random bits per packet",
        t7.run_experiment,
        {"m": 32, "ls": (2, 8, 16)},
        {"m": 16, "ls": (2, 4)},
    ),
    (
        "T8 / routing time: makespan vs C+D",
        t8.run_experiment,
        {},
        {"m": 8},
    ),
    (
        "T9 / engineering: batched engine profile",
        t9.run_experiment,
        {"m": 16},
        {"m": 16},
    ),
    (
        "T9 / engineering: metrics stage, PathSet vs list baseline",
        t9.run_metrics_experiment,
        {"m": 32, "packets": 20_000},
        {"m": 16, "packets": 2_000},
    ),
    (
        "T10 / extension: fault tolerance",
        t10.run_experiment,
        {"ps": (0.0, 0.01), "steps": 80},
        {"m": 8, "ps": (0.0, 0.01), "steps": 40},
    ),
    (
        "T11 / engineering: parallel scaling, byte-identical shards",
        t11.run_experiment,
        {"m": 32, "packets": 50_000, "worker_counts": (1, 2)},
        {"m": 16, "packets": 2_000, "worker_counts": (1, 2)},
    ),
    (
        "T14 / Theorems 5.2+5.5: the bits/congestion frontier",
        t14.run_experiment,
        {"m": 16, "seeds": (0,), "budgets": (0, 16, 24, None)},
        {"m": 16, "seeds": (0,), "budgets": (0, 16, None)},
    ),
    (
        "T15 / engineering: warm routing service vs cold per-call engines",
        t15.run_experiment,
        {"requests": 8, "big_packets": 70_000, "big_m": 32},
        {"requests": 4, "big_packets": 20_000, "big_m": 16},
    ),
    (
        "T16 / competitors: congestion x stretch x bits frontier",
        t16.run_experiment,
        {"m": 16, "seeds": (0,)},
        {"m": 8, "seeds": (0,)},
    ),
    (
        "T17 / service: traffic, SLO telemetry, admission",
        t17.run_experiment,
        {"m": 8, "steps": 60},
        {"m": 8, "rates": (0.02, 0.05, 0.1, 0.2, 0.35), "steps": 30},
    ),
    (
        "A1 / ablation: bridges on vs off",
        a1.run_experiment,
        {},
        {"m": 16, "seeds": (0,)},
    ),
    (
        "A2 / ablation: dimension-order randomization",
        a2.run_experiment,
        {},
        {"seeds": (0,)},
    ),
    (
        "A3 / ablation: multishift vs half-shift generalization",
        a3.run_experiment,
        {},
        {"configs": ((3, 16),)},
    ),
    (
        "X1 / extension: online routing latency vs load",
        x1.run_experiment,
        {"rates": (0.01, 0.1), "steps": 150},
        {"m": 8, "rates": (0.05,), "steps": 50},
    ),
    (
        "X2 / extension: exact E[C(e)] vs Lemma 3.8",
        x2.run_experiment,
        {"mc_trials": 100},
        {"sizes": (4,), "mc_trials": 20},
    ),
    (
        "X3 / extension: torus vs mesh",
        x3.run_experiment,
        {},
        {"m": 8},
    ),
    (
        "X4 / extension: log-n scaling",
        x4.run_experiment,
        {"sizes": (8, 16, 32), "seeds": (0,)},
        {"sizes": (8,), "seeds": (0,)},
    ),
    (
        "X5 / extension: rectangular meshes",
        x5.run_experiment,
        {},
        {"configs": ((32, 8),), "packets": 50},
    ),
    (
        "X6 / extension: adversarial workload search",
        x6.run_experiment,
        {"budget": 120},
        {"m": 8, "budget": 20},
    ),
]


def main(mode: str = "full", json_path: str | None = None) -> int:
    """Run every experiment; return 1 if any of them raised, else 0."""
    results: dict[str, list] = {}
    failed: list[str] = []
    for title, run, quick_kwargs, smoke_kwargs in EXPERIMENTS:
        kwargs = {"quick": quick_kwargs, "smoke": smoke_kwargs}.get(mode, {})
        try:
            rows = run(**kwargs)
        except Exception as exc:
            failed.append(title)
            traceback.print_exc()
            print(f"\nFAILED {title}: {type(exc).__name__}: {exc}", flush=True)
            continue
        results[title] = [dict(r) for r in rows]
        print_experiment(title, rows)
    if json_path is not None:
        with open(json_path, "w", encoding="utf-8") as fh:
            json.dump({"mode": mode, "experiments": results}, fh, indent=2, default=str)
        print(f"results written to {json_path}")
    if failed:
        print(f"{len(failed)} experiment(s) failed:", file=sys.stderr)
        for title in failed:
            print(f"  {title}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    argv = sys.argv[1:]
    json_path = None
    if "--json" in argv:
        i = argv.index("--json")
        try:
            json_path = argv[i + 1]
        except IndexError:
            raise SystemExit("--json requires a path argument")
    if "--smoke" in argv:
        mode = "smoke"
    elif "--quick" in argv:
        mode = "quick"
    else:
        mode = "full"
    raise SystemExit(main(mode, json_path))
