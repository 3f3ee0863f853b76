#!/usr/bin/env python
"""Regenerate the golden path-hash matrix (``path_hashes.json``).

Run after any *intentional* change to path selection or seed derivation:

    PYTHONPATH=src python tests/golden/regenerate_goldens.py [--force]

Each entry is the sha256 over the merged CSR bytes (nodes then offsets)
of one cell of the matrix: every oblivious registry router on every mesh
family it supports (square, rectangular, torus), plus fault-aware
hierarchical cells, each at three seeds.  ``tests/test_golden.py``
recomputes every cell and compares: a mismatch means the bytes a given
seed produces have changed — which is an API break for anyone replaying
stored seeds — and must be a deliberate, documented decision, never an
accident.

To make that decision visible, this script never silently overwrites:
it prints an added/removed/changed diff against the committed file and
*aborts* when existing hashes changed, unless ``--force`` is given.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

#: (sides, torus, label) — label is the mesh part of every golden key
MESHES = (
    ((8, 8), False, "8x8"),
    ((16, 16), False, "16x16"),
    ((8, 8), True, "8x8t"),
    ((8, 4), False, "8x4"),
)
SEEDS = (0, 1, 2)

#: fault-aware cells: hierarchical behind a static fault mask, on the
#: meshes where the hierarchical decomposition is defined
FAULT_MESH_LABELS = ("8x8", "8x8t")
FAULT_P = 0.05
FAULT_SEED = 1

#: randomness-budget cells: bit-metered scalar runs (fresh / recycled)
#: on both 8x8 families, plus a tight enforced cap on the square that
#: pins the degradation ladder's bytes (recycled + dim-order fallbacks)
BUDGET_MESH_LABELS = ("8x8", "8x8t")
BUDGET_ENFORCE_BITS = 16

#: degradation-ladder cells: a cap tight enough to reach both rungs
#: (recycled and dimension-order) on every lane that routes it — the
#: engine (8x8), the per-packet loop (8x8t) and the fault-aware wrapper
#: (both meshes, with BFS detours)
LADDER_BUDGET_BITS = 10

#: one fixed general graph (see repro.mesh.graph.NAMED_GRAPHS): both
#: topology-generic competitor routers, pinned at the same three seeds
GRAPH_LABEL = "random-regular-24"
GRAPH_ROUTERS = ("semi-oblivious", "racke-tree")


def _workload(mesh):
    """Transpose where it is defined; bit-complement on rectangles."""
    from repro.cli import build_workload
    from repro.workloads.permutations import transpose

    if len(set(mesh.sides)) == 1:
        return transpose(mesh)
    return build_workload("bit-complement", mesh, 0)


def ladder_router_name(faulty: bool) -> str:
    """Golden key prefix of a degradation-ladder cell."""
    faults = "+static-faults" if faulty else ""
    return f"hierarchical{faults}+budget-enforce{LADDER_BUDGET_BITS}"


def ladder_router(mesh, faulty: bool):
    """The router of a degradation-ladder cell: bare or behind the faults."""
    from repro.faults.model import FaultModel
    from repro.faults.router import FaultAwareRouter
    from repro.routing.registry import make_router

    router = make_router("hierarchical")
    if not faulty:
        return router
    return FaultAwareRouter(
        router, FaultModel.static(mesh, p=FAULT_P, seed=FAULT_SEED)
    )


def golden_cases():
    """Yield ``(key, route_fn)`` for every cell of the golden matrix.

    Shared by this script and ``tests/test_golden.py`` so the two can
    never disagree about what the matrix contains.  ``route_fn()`` routes
    the cell serially and returns the :class:`RoutingResult`.
    """
    from repro.faults.model import FaultModel
    from repro.faults.router import FaultAwareRouter
    from repro.mesh.mesh import Mesh
    from repro.routing.registry import available_routers, make_router
    from repro.verify.cases import Case, supported

    for sides, torus, label in MESHES:
        mesh = Mesh(sides, torus=torus)
        problem = _workload(mesh)
        for name in available_routers():
            if not make_router(name).is_oblivious:
                continue  # greedy baselines re-order work; no per-seed contract
            probe = Case(
                sides=tuple(sides),
                torus=torus,
                router=name,
                workload="random-pairs",
                seed=0,
                packets=1,
            )
            if not supported(probe):
                continue
            for seed in SEEDS:

                def route(name=name, problem=problem, seed=seed):
                    return make_router(name).route(problem, seed=seed)

                yield f"{name}|{label}|seed={seed}", route
        if label in FAULT_MESH_LABELS:
            for seed in SEEDS:

                def route_faulty(mesh=mesh, problem=problem, seed=seed):
                    router = FaultAwareRouter(
                        make_router("hierarchical"),
                        FaultModel.static(mesh, p=FAULT_P, seed=FAULT_SEED),
                    )
                    return router.route(problem, seed=seed)

                yield f"hierarchical+static-faults|{label}|seed={seed}", route_faulty
        if label in BUDGET_MESH_LABELS:
            for mode in ("fresh", "recycled"):
                for seed in SEEDS:

                    def route_bits(problem=problem, seed=seed, mode=mode):
                        return make_router("hierarchical", bit_mode=mode).route(
                            problem, seed=seed
                        )

                    yield f"hierarchical+bits-{mode}|{label}|seed={seed}", route_bits
        if label == "8x8":
            for seed in SEEDS:

                def route_budget(problem=problem, seed=seed):
                    return make_router("hierarchical").route(
                        problem, seed=seed, budget=BUDGET_ENFORCE_BITS
                    )

                yield (
                    f"hierarchical+budget-enforce{BUDGET_ENFORCE_BITS}"
                    f"|{label}|seed={seed}",
                    route_budget,
                )
        if label in BUDGET_MESH_LABELS:
            for faulty in (False, True):
                for seed in SEEDS:

                    def route_ladder(
                        mesh=mesh, problem=problem, seed=seed, faulty=faulty
                    ):
                        return ladder_router(mesh, faulty).route(
                            problem, seed=seed, budget=LADDER_BUDGET_BITS
                        )

                    yield (
                        f"{ladder_router_name(faulty)}|{label}|seed={seed}",
                        route_ladder,
                    )

    # general-graph cells: a fixed random permutation on the named graph
    from repro.mesh.graph import named_graph
    from repro.workloads.permutations import random_permutation

    gproblem = random_permutation(named_graph(GRAPH_LABEL), seed=0)
    for name in GRAPH_ROUTERS:
        for seed in SEEDS:

            def route_graph(name=name, problem=gproblem, seed=seed):
                return make_router(name).route(problem, seed=seed)

            yield f"{name}|{GRAPH_LABEL}|seed={seed}", route_graph


def cell_hash(result) -> str:
    h = hashlib.sha256()
    h.update(result.paths.nodes.tobytes())
    h.update(result.paths.offsets.tobytes())
    return h.hexdigest()


def build_matrix() -> dict[str, str]:
    return {key: cell_hash(route()) for key, route in golden_cases()}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    force = "--force" in argv
    out = Path(__file__).parent / "path_hashes.json"
    old = json.loads(out.read_text()) if out.exists() else {}
    new = build_matrix()

    added = sorted(set(new) - set(old))
    removed = sorted(set(old) - set(new))
    changed = sorted(k for k in set(new) & set(old) if new[k] != old[k])
    for key in added:
        print(f"  added:   {key}")
    for key in removed:
        print(f"  removed: {key}")
    for key in changed:
        print(f"  CHANGED: {key}")
    print(
        f"{len(new)} cells: {len(added)} added, {len(removed)} removed, "
        f"{len(changed)} changed"
    )
    if changed and not force:
        print(
            "refusing to overwrite changed hashes — changed cells break "
            "every stored seed; rerun with --force if that is intentional",
            file=sys.stderr,
        )
        return 1
    out.write_text(json.dumps(new, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(new)} golden hashes to {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
