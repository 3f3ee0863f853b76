"""Experiment T2 — Lemma 3.3: common-ancestor height <= ceil(log2 dist) + 2.

Buckets sampled pairs by distance and reports the maximum observed meeting
height per bucket against the lemma's bound.  Expected shape: max height
tracks ``log2 dist`` with the +2 slack rarely saturated.

It also reports the window's lower side, which the vectorised bridge search
(``SequenceTables``) starts from: a cell of side ``2^h`` cannot hold two
nodes ``max_j |s_j - t_j|`` apart when ``2^h`` is at most that, so no pair
meets below its floor ``bit_length(max_j |s_j - t_j|)``.  Per bucket,
``min_height`` is the lowest meeting height and ``min_over_floor`` the
smallest ``height - floor`` (0 when the floor is met exactly); the run
asserts that no pair meets below its floor.
"""

from __future__ import annotations

import math

import numpy as np

from common import main_print

from repro.core.bridges import bridge_height_bound_2d, common_ancestor_2d
from repro.core.decomposition import Decomposition
from repro.mesh.mesh import Mesh


def run_experiment(m: int = 64, samples: int = 3000) -> list[dict]:
    mesh = Mesh((m, m))
    dec = Decomposition(mesh)
    rng = np.random.default_rng(0)
    buckets: dict[int, list[int]] = {}
    for _ in range(samples):
        s, t = (int(x) for x in rng.integers(mesh.n, size=2))
        if s == t:
            continue
        dist = int(mesh.distance(s, t))
        h, _ = common_ancestor_2d(dec, s, t)
        delta = np.abs(mesh.flat_to_coords(s) - mesh.flat_to_coords(t))
        floor = int(delta.max()).bit_length()
        if h < floor:
            raise AssertionError(f"pair ({s}, {t}) meets at {h}, below its floor {floor}")
        buckets.setdefault(math.ceil(math.log2(dist)) if dist > 1 else 0, []).append(
            (h, floor)
        )
    rows = []
    for key in sorted(buckets):
        hs = [h for h, _ in buckets[key]]
        dist_hi = 1 << key
        rows.append(
            {
                "dist_bucket": f"<=2^{key}",
                "pairs": len(hs),
                "min_height": min(hs),
                "min_over_floor": min(h - f for h, f in buckets[key]),
                "max_height": max(hs),
                "mean_height": float(np.mean(hs)),
                "lemma_bound": bridge_height_bound_2d(max(dist_hi, 1)),
            }
        )
    return rows


def test_lemma_3_3(benchmark):
    rows = benchmark.pedantic(run_experiment, args=(32, 1000), rounds=1, iterations=1)
    for row in rows:
        assert row["max_height"] <= row["lemma_bound"]
        assert row["min_over_floor"] >= 0
    # the floor is tight: some pair meets exactly at it
    assert min(row["min_over_floor"] for row in rows) == 0
    # heights genuinely grow with distance (not all met at the root)
    assert rows[0]["max_height"] < rows[-1]["lemma_bound"]


def test_bridge_search_throughput(benchmark):
    """Kernel: 1000 arithmetic common-ancestor queries on 64x64."""
    mesh = Mesh((64, 64))
    dec = Decomposition(mesh)
    rng = np.random.default_rng(1)
    pairs = rng.integers(mesh.n, size=(1000, 2))
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]

    def kernel():
        return sum(
            common_ancestor_2d(dec, int(s), int(t))[0] for s, t in pairs
        )

    assert benchmark(kernel) > 0


if __name__ == "__main__":
    main_print(
        run_experiment, "T2 / Lemma 3.3: bridge height between its floor and log2(dist) + 2"
    )
