"""Experiment T15 — the warm routing service vs cold per-call engines.

Not a paper figure: this is the engineering experiment behind ``repro
serve`` (the long-lived routing daemon).  A cold ``route(workers=4)``
call pays for its process pool on *every* request — fork, module import,
kernels-backend resolution, decomposition-cache rebuild — which dwarfs
the actual routing work for small batches.  The service boots that
machinery once: workers stay warm (backend pinned, cache resident), each
request goes out as soon as a dispatch thread is free (together with
whatever queued behind it), and a large request's blocks travel back
through shared memory instead of pickles.

Two claims, both asserted on every run:

* **latency** — the mean warm-service round-trip for a small request is
  at least ``min_speedup``× (default 5×) faster than the same request
  through a cold ``route(workers=4)`` call that builds its pool inline;
* **byte-identity** — a large request (1M packets at full size) routed
  *through the service* (which shards it across the warm pool) hashes to
  the same sha256 as the plain serial engine, packet for packet.

The speedup column measures how much per-call lifecycle the daemon
amortises away; the hash column proves the daemon changed none of the
bytes while doing it.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
import time

from common import main_print

from repro import cache, kernels
from repro.cli import build_workload, parse_mesh
from repro.core.path_selection import HierarchicalRouter
from repro.mesh.mesh import Mesh
from repro.service.client import ServiceClient
from repro.service.server import RoutingService
from repro.workloads.generators import random_pairs


def path_bytes_digest(paths) -> str:
    h = hashlib.sha256()
    h.update(paths.nodes.tobytes())
    h.update(paths.offsets.tobytes())
    return h.hexdigest()


def _cold_route(problem, seed: int) -> float:
    """One request the pre-service way: ``route(workers=4)`` builds its
    4-worker pool inline and tears it down before returning — the
    per-call lifecycle the daemon exists to amortise."""
    router = HierarchicalRouter()
    t0 = time.perf_counter()
    router.route(problem, seed=seed, workers=4)
    return time.perf_counter() - t0


def run_experiment(
    m: int = 16,
    small_packets: int = 64,
    requests: int = 20,
    big_packets: int = 1_000_000,
    big_m: int = 64,
    workers: int = 2,
    seed: int = 0,
    min_speedup: float = 5.0,
) -> list[dict]:
    mesh = parse_mesh(f"{m}x{m}")
    problem = build_workload("random-pairs", mesh, seed)
    if small_packets < problem.num_packets:
        problem = random_pairs(mesh, small_packets, seed=seed)
    cache.warm([cache.warmup_key(mesh, "auto")])

    # Cold baseline: every request pays pool construction + teardown.
    cold = [_cold_route(problem, seed + i) for i in range(requests)]
    cold_mean = sum(cold) / len(cold)

    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        socket_path = os.path.join(tmp, "repro.sock")
        service = RoutingService(
            socket_path,
            workers=workers,
            prewarm=(f"{m}x{m}", f"{big_m}x{big_m}"),
        )
        service.start()
        try:
            # generous timeout: the 1M-packet request takes minutes on a
            # 1-CPU host (it is a throughput check, not a latency one)
            with ServiceClient(socket_path, timeout=1800.0) as client:
                client.route(problem, seed=seed)  # connection warm-up
                warm = []
                for i in range(requests):
                    t0 = time.perf_counter()
                    client.route(problem, seed=seed + i)
                    warm.append(time.perf_counter() - t0)
                warm_mean = sum(warm) / len(warm)
                speedup = cold_mean / warm_mean
                assert speedup >= min_speedup, (
                    f"warm service only {speedup:.1f}x faster than cold "
                    f"route(workers=4); needs >= {min_speedup}x"
                )
                rows.append(
                    {
                        "request": f"{small_packets}p on {m}x{m} x{requests}",
                        "cold_ms": round(cold_mean * 1e3, 1),
                        "warm_ms": round(warm_mean * 1e3, 2),
                        "speedup": round(speedup, 1),
                        "sha256[:12]": "",
                    }
                )

                big_mesh = Mesh((big_m, big_m))
                big = random_pairs(big_mesh, big_packets, seed=seed)
                serial = HierarchicalRouter().route(big, seed=seed, workers=1)
                t0 = time.perf_counter()
                via_service = client.route(big, seed=seed)
                service_wall = time.perf_counter() - t0
                d_serial = path_bytes_digest(serial.paths)
                d_service = path_bytes_digest(via_service.paths)
                assert d_service == d_serial, "service bytes diverged from serial"
                rows.append(
                    {
                        "request": f"{big_packets}p on {big_m}x{big_m} (sharded)",
                        "cold_ms": "",
                        "warm_ms": round(service_wall * 1e3, 1),
                        "speedup": "",
                        "sha256[:12]": d_service[:12] + " ==serial",
                    }
                )
        finally:
            service.stop()
    rows.append(
        {
            "request": f"(host: {os.cpu_count()} cpu, {kernels.backend()} kernels)",
            "cold_ms": "",
            "warm_ms": "",
            "speedup": "",
            "sha256[:12]": "",
        }
    )
    return rows


def test_warm_service_amortises_cold_lifecycle(benchmark):
    rows = benchmark.pedantic(
        lambda: run_experiment(
            requests=6, big_packets=20_000, big_m=16, min_speedup=5.0
        ),
        rounds=1,
        iterations=1,
    )
    assert rows[0]["speedup"] >= 5.0
    assert "==serial" in rows[1]["sha256[:12]"]


if __name__ == "__main__":
    main_print(
        lambda: run_experiment(),
        "T15 / service: warm-pool latency vs cold per-call engines",
    )
