"""Experiment T11 — sharded routing: scaling without changing a byte.

Not a paper figure: this is the engineering experiment behind the sharded
multiprocess engine (``Router.route(workers=N)``).  Oblivious routing is
embarrassingly parallel — packet *i*'s path depends only on ``(seed, i,
s_i, t_i)`` (the paper's Section 1 definition of obliviousness) — so the
batch splits into contiguous shards, each worker routes its slice with
per-packet streams keyed by *global* packet index, and the merged CSR is
byte-identical to the serial run for every worker count.

The experiment routes one large random-pairs workload at several worker
counts and reports wall time, speedup over ``workers=1``, and a sha256
over the merged path bytes — the hash column must be constant down the
table, which is asserted on every run.

Caveat recorded with the table: on a single-CPU host the process pool
adds fork/pickle overhead and cannot speed anything up; the speedup
column measures hardware, the hash column measures correctness.  Only the
latter is asserted here.
"""

from __future__ import annotations

import hashlib
import os
import time

from common import main_print

from repro import cache
from repro.core.path_selection import HierarchicalRouter
from repro.mesh.mesh import Mesh
from repro.workloads.generators import random_pairs


def path_bytes_digest(paths) -> str:
    """sha256 over the CSR arrays — the byte-identity witness."""
    h = hashlib.sha256()
    h.update(paths.nodes.tobytes())
    h.update(paths.offsets.tobytes())
    return h.hexdigest()


def run_experiment(
    m: int = 64,
    packets: int = 1_000_000,
    worker_counts: tuple[int, ...] = (1, 2, 4),
    seed: int = 0,
) -> list[dict]:
    mesh = Mesh((m, m))
    problem = random_pairs(mesh, packets, seed=seed)
    router = HierarchicalRouter()
    cache.warm([cache.warmup_key(mesh, router.scheme)])

    rows = []
    base_time = None
    base_digest = None
    for w in worker_counts:
        t0 = time.perf_counter()
        result = router.route(problem, seed=seed, workers=w)
        wall = time.perf_counter() - t0
        digest = path_bytes_digest(result.paths)
        if base_time is None:
            base_time, base_digest = wall, digest
        assert digest == base_digest, f"workers={w} diverged from workers=1"
        rows.append(
            {
                "workers": w,
                "wall_s": round(wall, 3),
                "speedup": round(base_time / wall, 2),
                "sha256[:12]": digest[:12],
            }
        )
    rows.append(
        {
            "workers": f"(host: {os.cpu_count()} cpu)",
            "wall_s": "",
            "speedup": "",
            "sha256[:12]": "identical" if len({r["sha256[:12]"] for r in rows}) == 1 else "DIVERGED",
        }
    )
    return rows


def test_t11_hashes_identical_across_workers():
    rows = run_experiment(m=16, packets=2_000, worker_counts=(1, 2, 3))
    digests = {r["sha256[:12]"] for r in rows if isinstance(r["workers"], int)}
    assert len(digests) == 1


def test_t11_pool_runs_all_shards():
    mesh = Mesh((8, 8))
    problem = random_pairs(mesh, 101, seed=5)
    result = HierarchicalRouter().route(problem, seed=5, workers=4)
    assert len(result.paths) == 101
    assert result.validate()


if __name__ == "__main__":
    main_print(
        run_experiment,
        "T11: parallel scaling, 1M packets on 64x64 (byte-identity asserted)",
    )
