#!/usr/bin/env python3
"""Steadiness record: run every workload with seeds 1-10, keep quartiles.

    python3 perfbench/steadiness.py --out perfbench/steadiness.json
    python3 perfbench/steadiness.py --out perfbench/steadiness-repeat.json
    python3 perfbench/steadiness.py --compare perfbench/steadiness.json perfbench/steadiness-repeat.json

Runs ``perfbench/run.py`` once per seed and per workload of
``BENCHMARK.json``, one after another, with its ``run_seconds``.  For each
end-to-end metric it records the ten values, their median and quartiles
(``statistics.quantiles(values, n=4)``) and the spread ``(q3 - q1) /
median`` next to the metric's bound.  ``--compare`` checks that no median
of the second record is worse than the first by more than the bound, and
that runs with equal seeds printed equal output digests.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(spec: dict, workload: str, seed: int) -> dict:
    cmd = list(spec["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0",
    ]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    steal = re.search(r"host CPU steal ([0-9.]+)%", proc.stdout)
    result["steal_frac"] = float(steal.group(1)) / 100 if steal else None
    host = re.search(r"^# host (.*)$", proc.stdout, re.M)
    result["host"] = json.loads(host.group(1)) if host else None
    digests = re.search(r"^# digests (.*)$", proc.stdout, re.M)
    result["digests"] = json.loads(digests.group(1)) if digests else None
    return result


def summarise(values: list[float], bound: float) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / median
    return {
        "median": median, "q1": q1, "q3": q3, "spread": spread,
        "bound": bound, "spread_over_bound": spread / bound, "values": values,
    }


def record(out_path: str) -> int:
    spec = load_spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out = {"run_seconds": spec["run_seconds"], "runs": len(SEEDS), "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        results = [run_once(spec, workload, seed) for seed in SEEDS]
        entry = {
            "seeds": [SEEDS[0], SEEDS[-1]],
            "host": results[0]["host"],
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "max_run_wall_s": max(r["wall_s"] for r in results),
            "steal_frac": [r["steal_frac"] for r in results],
            "digests": {str(seed): r["digests"] for seed, r in zip(SEEDS, results)},
            "metrics": {},
        }
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            entry["metrics"][name] = summarise(values, bound)
            s = entry["metrics"][name]
            print(f"{workload:16s} {name:16s} median={s['median']:.5g} "
                  f"spread={s['spread']:.4f} bound={bound} ratio={s['spread_over_bound']:.2f}")
        print(f"{workload:16s} attempted={entry['attempted']} failed={entry['failed']} "
              f"max_run_wall_s={entry['max_run_wall_s']:.1f} steal={entry['steal_frac']}",
              flush=True)
        out["workloads"][workload] = entry
    Path(out_path).write_text(json.dumps(out, indent=1) + "\n")
    return 0


def compare(first: str, second: str) -> int:
    """Second medians no worse than the first by more than each bound."""
    spec = load_spec()
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    a = json.loads(Path(first).read_text())["workloads"]
    b = json.loads(Path(second).read_text())["workloads"]
    worst = 0
    for workload in sorted(set(a) & set(b)):
        da, db = a[workload].get("digests", {}), b[workload].get("digests", {})
        for seed in sorted(set(da) & set(db), key=int):
            if da[seed] and db[seed] and da[seed] != db[seed]:
                worst += 1
                print(f"{workload:16s} seed {seed}: outputs differ between the records")
        for name, ma in a[workload]["metrics"].items():
            mb = b[workload]["metrics"][name]
            change = mb["median"] / ma["median"] - 1
            worse = change if better[name] == "lower" else -change
            flag = "WORSE" if worse > ma["bound"] else "ok"
            worst += flag != "ok"
            print(f"{workload:16s} {name:16s} {ma['median']:.5g} -> {mb['median']:.5g} "
                  f"({change:+.2%}, bound {ma['bound']}) {flag}")
    return 1 if worst else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--out", help="write a new record here")
    group.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = p.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    return record(args.out)


if __name__ == "__main__":
    sys.exit(main())
