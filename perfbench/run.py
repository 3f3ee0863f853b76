#!/usr/bin/env python3
"""Benchmark command: run one workload and print its metrics as JSON.

    python3 perfbench/run.py --workload route-64x64 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the repository root; the program is imported from ``src/``.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates traced and untraced cycles of
ops and reports the per-layer metrics, writing every span to
``perfbench/out/``.  See ``perfbench/README.md`` for the metric tables.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

END_TO_END = {
    "pps": "pkt/s",
    "p50_ms": "ms",
    "cpu_ms_per_kpkt": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

#: span self times, reported as the median over traced ops of the per-op sum
SELF_SPANS = (
    "routing.batch_spec",
    "engine.draw",
    "kernels.assemble_paths",
    "kernels.decycle_paths",
    "engine.run_batch",
    "metrics.edge_ids",
    "kernels.count_loads",
    "metrics.congestion",
    "metrics.stretch",
    "parallel.map",
    "parallel.merge",
    "mesh.edge_ids",
    "simulation.simulate",
    "bench.op",
)

PER_LAYER = {
    **{f"{name}.self_s": "s" for name in SELF_SPANS},
    "engine.decycled_frac": "ratio",
    "engine.edges_per_pkt": "count",
    "cache.hit_rate": "ratio",
    "cache.misses": "count",
    "cache.setup_misses": "count",
    "parallel.pool_start_s": "s",
    "parallel.shutdown_s": "s",
    "parallel.return_bytes": "bytes",
    "parallel.child_cpu_s": "s",
    "workloads.random_pairs_s": "s",
    "simulation.simulate.ns_per_hop": "ns",
    "simulation.makespan_over_cd": "ratio",
    "trace.overhead_frac": "ratio",
}

#: set-ups per run (this process plus fresh child processes); setup_s is
#: their median
SETUP_SAMPLES = 5
MIN_OPS = 3
#: op id of the spans recorded while the traced run builds its inputs
SETUP_OP = -1


#: prctl option that re-parents orphaned descendants to this process
PR_SET_CHILD_SUBREAPER = 36
#: seconds to wait for child processes to end before killing them
REAP_TIMEOUT_S = 30.0


def adopt_orphans() -> None:
    """Make this process the reaper of its orphaned descendants (Linux).

    A pool worker that exits leaves any process it started (such as its own
    shared-memory resource tracker) orphaned; as a subreaper this process
    inherits it, so :func:`stop_children` can wait for it to end.
    """
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def share_resource_tracker() -> None:
    """Start the shared-memory resource tracker before any pool forks.

    Fork workers then register their segments with this one tracker
    instead of each starting a tracker of its own.
    """
    from multiprocessing import resource_tracker

    resource_tracker.ensure_running()


def child_pids() -> list[int]:
    me = str(os.getpid())
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                ppid = f.read().rsplit(")", 1)[1].split()[1]
        except (OSError, IndexError):
            continue
        if ppid == me:
            pids.append(int(entry))
    return pids


def stop_children() -> None:
    """Stop the resource tracker and wait until every child has ended.

    Children still running after ``REAP_TIMEOUT_S`` are killed, then reaped.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        try:
            stop()
        except (OSError, ChildProcessError):
            pass
    deadline = time.monotonic() + REAP_TIMEOUT_S
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() > deadline:
            for pid in child_pids():
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            deadline = float("inf")
        time.sleep(0.01)


def process_age_s() -> float:
    """Seconds since this process started (kernel start time)."""
    with open("/proc/self/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    start = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start


def git_sha(root: Path) -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def host_fingerprint(seed: int) -> dict:
    import numpy

    from repro import kernels

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernels_backend": kernels.backend(),
        "git_sha": git_sha(ROOT),
        "source_sha256": source_sha256(SRC),
        "seed": seed,
    }


def steal_ticks() -> tuple[int, int]:
    """(steal, total) CPU ticks of the host so far, from ``/proc/stat``."""
    with open("/proc/stat") as f:
        ticks = [int(x) for x in f.readline().split()[1:]]
    return ticks[7], sum(ticks)


def cpu_s(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def cache_counts() -> tuple[int, int]:
    """(hits, misses) of the cache, this process plus absorbed workers."""
    from repro import cache

    own, workers = cache.stats(), cache.worker_stats()
    return own.hits + workers.hits, own.misses + workers.misses


@dataclass
class OpRecord:
    index: int
    traced: bool
    wall_s: float
    cpu_s: float
    child_cpu_s: float
    packets: int = 0
    problems: list = field(default_factory=list)
    facts: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.problems


def run_ops(wl, seconds: float, min_ops: int, tracer=None, traced=None) -> list[OpRecord]:
    """Run ops until their summed wall time reaches ``seconds``."""
    records: list[OpRecord] = []
    busy = 0.0
    i = 0
    while i < min_ops or busy < seconds:
        wl.before_op(i)
        trace_this = tracer is not None and traced(i)
        if trace_this:
            from repro.obs import Profiler

            tracer.install()
            profiler = Profiler() if hasattr(wl, "router") else None
            if profiler is not None:
                wl.router.profiler = profiler
        out, problems = None, []
        s0 = resource.getrusage(resource.RUSAGE_SELF)
        c0 = resource.getrusage(resource.RUSAGE_CHILDREN)
        t0 = time.perf_counter()
        try:
            if trace_this:
                with tracer.op(i):
                    out = wl.op(i)
            else:
                out = wl.op(i)
        except Exception as exc:  # a raising op is a failed op, not a crash
            problems = [f"raised {exc!r}"]
        t1 = time.perf_counter()
        s1 = resource.getrusage(resource.RUSAGE_SELF)
        c1 = resource.getrusage(resource.RUSAGE_CHILDREN)
        if trace_this:
            tracer.uninstall()
            if profiler is not None:
                wl.router.profiler = None
        rec = OpRecord(i, trace_this, t1 - t0, cpu_s(s1) - cpu_s(s0), cpu_s(c1) - cpu_s(c0))
        if out is not None:
            try:
                rec.problems = wl.check(i, out)
                rec.packets = wl.packets(out)
                rec.facts = wl.facts(i, out)
            except Exception as exc:
                rec.problems = [f"check raised {exc!r}"]
            if trace_this and profiler is not None:
                rec.facts.update(engine_facts(profiler.counters))
        else:
            rec.problems = problems
        records.append(rec)
        busy += rec.wall_s
        i += 1
    return records


def engine_facts(counters: dict) -> dict:
    packets = counters.get("engine.packets", 0)
    if not packets:
        return {}
    return {
        "engine.decycled_frac": counters.get("engine.paths_decycled", 0) / packets,
        "engine.edges_per_pkt": counters.get("engine.edges", 0) / packets,
    }


def apply_verify(wl, records: list[OpRecord]) -> None:
    """Post-timing reference checks; a failing input fails its ops."""
    try:
        bad = wl.verify()
    except Exception as exc:
        for r in records:
            r.problems.append(f"verify raised {exc!r}")
        return
    for r in records:
        if r.index % wl.cycle in bad:
            r.problems.append("output differs from the reference")


def pps(records: list[OpRecord]) -> float:
    """Median over ops of packets completed per wall second (0 if failed).

    Medians, not totals over the run: a host stall during a few ops (CPU
    steal on a shared machine) then moves the figure little.
    """
    if not records:
        return 0.0
    return statistics.median((r.packets if r.ok else 0) / r.wall_s for r in records)


def end_to_end(records: list[OpRecord], setups: list[float], peak_rss_kb: int) -> dict:
    done = [r for r in records if r.ok and r.packets]
    return {
        "pps": pps(records),
        "p50_ms": statistics.median(r.wall_s for r in records) * 1e3,
        "cpu_ms_per_kpkt": statistics.median(
            (r.cpu_s + r.child_cpu_s) * 1e3 / (r.packets / 1e3) for r in done
        ) if done else 0.0,
        "peak_rss_mb": peak_rss_kb / 1024,
        "setup_s": statistics.median(setups),
    }


def per_input_mean(records: list[OpRecord], key: str, cycle: int) -> float:
    """Mean over distinct inputs of a deterministic per-op fact."""
    first: dict[int, float] = {}
    for r in records:
        if key in r.facts:
            first.setdefault(r.index % cycle, r.facts[key])
    return sum(first.values()) / len(first) if first else 0.0


def per_layer(wl, records, tracer, cache_delta, setup_misses) -> dict:
    from tracing import op_breakdown

    traced = [r for r in records if r.traced and r.ok]
    plain = [r for r in records if not r.traced and r.ok]
    breakdown = op_breakdown(tracer.spans)
    inclusive: dict[int, dict[str, float]] = {}
    for s in tracer.spans:
        d = inclusive.setdefault(s.op, {})
        d[s.name] = d.get(s.name, 0.0) + s.duration

    def med(values) -> float:
        values = list(values)
        return statistics.median(values) if values else 0.0

    m = {
        f"{name}.self_s": med(breakdown.get(r.index, {}).get(name, 0.0) for r in traced)
        for name in SELF_SPANS
    }
    m["parallel.pool_start_s"] = med(
        inclusive.get(r.index, {}).get("parallel.pool_start", 0.0) for r in traced
    )
    m["parallel.shutdown_s"] = med(
        inclusive.get(r.index, {}).get("parallel.shutdown", 0.0) for r in traced
    )
    m["parallel.return_bytes"] = med(
        tracer.counters.get(r.index, {}).get("parallel.return_bytes", 0.0) for r in traced
    )
    m["parallel.child_cpu_s"] = med(r.child_cpu_s for r in traced)
    m["workloads.random_pairs_s"] = inclusive.get(SETUP_OP, {}).get(
        "workloads.random_pairs", 0.0
    )
    hops = [r for r in traced if r.facts.get("hops")]
    m["simulation.simulate.ns_per_hop"] = med(
        inclusive[r.index].get("simulation.simulate", 0.0) * 1e9 / r.facts["hops"]
        for r in hops
    )
    for key in ("engine.decycled_frac", "engine.edges_per_pkt", "simulation.makespan_over_cd"):
        m[key] = per_input_mean(traced, key, wl.cycle)
    hits, misses = cache_delta
    m["cache.hit_rate"] = hits / (hits + misses) if hits + misses else 0.0
    m["cache.misses"] = misses
    m["cache.setup_misses"] = setup_misses
    untraced_pps = pps(plain)
    m["trace.overhead_frac"] = 1 - pps(traced) / untraced_pps if untraced_pps else 0.0
    return m


def write_trace(wl, tracer, records, host) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{wl.name}-seed{wl.seed}.json"
    doc = {
        "host": host,
        "workload": wl.name,
        "ops": [
            {"op": r.index, "traced": r.traced, "wall_s": r.wall_s, "ok": r.ok}
            for r in records
        ],
        "spans": [
            [s.sid, s.name, s.start, s.end, s.parent, s.op] for s in tracer.spans
        ],
        "span_fields": ["sid", "name", "start", "end", "parent", "op"],
    }
    path.write_text(json.dumps(doc))
    return path


def child_setup_s(args) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "0", "--setup-only"],
        capture_output=True, text=True, timeout=150, cwd=ROOT, check=True,
    )
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def run_workload(args) -> int:
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: "
              f"{', '.join(WORKLOADS)}, all", file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        from tracing import Tracer

        # Input generation is traced too: the ``workloads`` layer's time.
        tracer = Tracer()
        tracer.install()
        with tracer.op(SETUP_OP):
            wl = WORKLOADS[args.workload](args.seed)
        tracer.uninstall()
    else:
        wl = WORKLOADS[args.workload](args.seed)
    share_resource_tracker()
    wl.setup()
    setup_s = process_age_s()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    host = host_fingerprint(args.seed)
    cache0 = cache_counts()
    steal0 = steal_ticks()
    if args.trace:
        records = run_ops(
            wl, args.seconds, 2 * wl.cycle, tracer, lambda i: (i // wl.cycle) % 2 == 0
        )
    else:
        records = run_ops(wl, args.seconds, max(MIN_OPS, wl.cycle))
    peak_rss_kb = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    cache1 = cache_counts()
    steal1 = steal_ticks()
    steal_frac = (steal1[0] - steal0[0]) / max(1, steal1[1] - steal0[1])
    apply_verify(wl, records)
    if args.trace:
        delta = (cache1[0] - cache0[0], cache1[1] - cache0[1])
        metrics = per_layer(wl, records, tracer, delta, cache0[1])
        units = PER_LAYER
        trace_path = write_trace(wl, tracer, records, host)
        print(f"# spans written to {trace_path.relative_to(ROOT)}")
    else:
        setups = [setup_s] + [child_setup_s(args) for _ in range(SETUP_SAMPLES - 1)]
        metrics = end_to_end(records, setups, peak_rss_kb)
        units = END_TO_END
    failed = sum(not r.ok for r in records)
    print("# host " + json.dumps(host, sort_keys=True))
    print(f"# workload {wl.name}: {len(records)} ops, {failed} failed, "
          f"host CPU steal {steal_frac:.1%} while measuring")
    # equal seeds must reproduce these across runs
    print("# digests " + json.dumps(wl.digests, sort_keys=True))
    for r in records:
        if not r.ok:
            print(f"# op {r.index} failed: {'; '.join(r.problems)}")
    for name, unit in units.items():
        print(f"# {wl.name} {name} = {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; one table and one merged record."""
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    attempted = failed = 0
    correct = True
    metrics = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600, cwd=ROOT,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        correct = correct and result["correct"]
        for metric, value in result["metrics"].items():
            metrics[f"{name}/{metric}"] = value
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    adopt_orphans()
    try:
        if args.workload == "all":
            return run_all(args)
        return run_workload(args)
    finally:
        stop_children()


if __name__ == "__main__":
    sys.exit(main())
