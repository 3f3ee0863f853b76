"""Drive a warm routing service from N client processes; print latency.

Boots ``RoutingService(workers=W, prewarm=(MESH,))`` here, warms
``--clients`` client *processes* (none shares the server's interpreter),
releases them at once, and has each send ``--requests`` random-pairs
requests of ``--packets`` packets.  Prints one JSON line: median and p90
client latency, req/s over the loaded window, and the mean batch size
dispatched in it.  ``--large N`` adds one more client that sends
``N``-packet requests for as long as the others run, so the small
requests' latency shows whether they wait on a large one; its own
latencies are reported apart.  It passes only arguments every revision
of the service accepts, so ``PYTHONPATH`` picks the checkout it
measures::

    PYTHONPATH=src python tools/service_load.py --clients 8
    PYTHONPATH=src python tools/service_load.py --clients 4 --large 40000
"""

from __future__ import annotations

import argparse
import json
import multiprocessing as mp
import os
import statistics
import tempfile
import time


def _client(sock, mesh_spec, packets, requests, cid, barrier, out, done=None):
    """Send ``requests`` requests, or with ``done``, send until it is set."""
    from repro.cli import parse_mesh
    from repro.service.client import ServiceClient
    from repro.workloads import random_pairs

    problem = random_pairs(parse_mesh(mesh_spec), packets, seed=cid)
    with ServiceClient(sock) as client:
        client.route(problem, seed=cid)  # connection and cache warm-up
        barrier.wait()  # all warm: the driver reads the counters
        barrier.wait()  # ... and releases every client at once
        start, lat, i = time.monotonic(), [], 0
        while (i < requests) if done is None else not done.is_set():
            i += 1
            t0 = time.perf_counter()
            client.route(problem, seed=cid * requests + i)
            lat.append(time.perf_counter() - t0)
    out.put((cid, start, time.monotonic(), lat))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--clients", type=int, default=1)
    ap.add_argument("--requests", type=int, default=200, help="per client")
    ap.add_argument("--packets", type=int, default=64)
    ap.add_argument("--mesh", default="16x16")
    ap.add_argument("--workers", type=int, default=2)
    ap.add_argument("--large", type=int, default=0,
                    help="packets per request of one extra client (0: none)")
    args = ap.parse_args()

    from repro.service.client import ServiceClient
    from repro.service.server import RoutingService

    sock = os.path.join(tempfile.mkdtemp(prefix="repro-load-"), "load.sock")
    ctx = mp.get_context("spawn")
    large = args.large > 0
    barrier, out = ctx.Barrier(args.clients + large + 1), ctx.Queue()
    done = ctx.Event()
    with RoutingService(sock, workers=args.workers, prewarm=(args.mesh,)):
        procs = [
            ctx.Process(target=_client, args=(sock, args.mesh, args.packets,
                                              args.requests, c, barrier, out))
            for c in range(args.clients)
        ]
        if large:
            procs.append(ctx.Process(
                target=_client, args=(sock, args.mesh, args.large, 0,
                                      args.clients, barrier, out, done)))
        for p in procs:
            p.start()
        with ServiceClient(sock) as stats_client:
            barrier.wait()
            before = stats_client.stats()["profile"]["counters"]
            barrier.wait()
            runs = [out.get() for _ in range(args.clients)]
            done.set()
            big = [out.get() for _ in range(large)]
            after = stats_client.stats()["profile"]["counters"]
        for p in procs:
            p.join()
    os.rmdir(os.path.dirname(sock))
    lat = sorted(x for _, _, _, ls in runs for x in ls)
    wall = max(e for _, _, e, _ in runs) - min(s for _, s, _, _ in runs)
    batches = after["service.batches"] - before["service.batches"]
    batched = after["service.batched_requests"] - before["service.batched_requests"]
    n = len(lat)
    row = {"clients": args.clients, "requests": n,
           "median_ms": round(statistics.median(lat) * 1e3, 3),
           "p90_ms": round(lat[int(0.9 * (n - 1))] * 1e3, 3),
           "req_s": round(n / wall, 1),
           "mean_batch": round(batched / batches, 2)}
    if large:
        big_lat = [x for _, _, _, ls in big for x in ls]
        row["large_requests"] = len(big_lat)
        row["large_median_ms"] = round(statistics.median(big_lat) * 1e3, 3)
    print(json.dumps(row))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
