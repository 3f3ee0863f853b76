#!/usr/bin/env python
"""Regenerate the golden simulator matrix (``simulation_hashes.json``).

Run after any *intentional* change to either synchronous simulator
(:func:`repro.simulation.simulate` or
:func:`repro.simulation.online.simulate_online`):

    PYTHONPATH=src python tests/golden/regenerate_simulation_goldens.py [--force]

Each entry is :func:`result_hash` of one cell on the 8x8 mesh, under
three fault settings (none, ``FaultModel.static(p=0.05)``,
``FaultModel.dynamic(p=0.02)``) and with admission control off or on:

* ``simulate`` — every scheduling policy, seeds 0 and 1, on hierarchical
  routes of ``random_pairs(mesh, 256, seed)``;
* ``simulate_online`` — the ``fifo`` and ``random`` policies, rate 0.05,
  32 injection steps, hierarchical selection.

Under the dynamic fault model four more cells add the ``max_wait`` shed
rule on top of the admission limits (``maxwait``): ``simulate`` with
``farthest-first`` for both seeds, and ``simulate_online`` with both
policies.  Every one of them sheds packets (``admission_dropped > 0``),
so the bytes pin how a shed packet is recorded.

The dynamic fault model drives both simulators through blocking, backoff
and reroute.  ``tests/test_simulation.py`` recomputes every cell and
compares: a mismatch means a stored seed now replays a different
schedule.  Like ``regenerate_goldens.py``, this script prints an
added/removed/changed diff and refuses to overwrite changed hashes
without ``--force``.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

SIDES = (8, 8)
SEEDS = (0, 1)
PACKETS = 256
SIM_POLICIES = ("farthest-first", "fifo", "random", "random-delay")
ONLINE_POLICIES = ("fifo", "random")
ONLINE_RATE = 0.05
ONLINE_STEPS = 32
#: label -> (FaultModel constructor, link failure probability)
FAULTS = {"none": None, "static5": ("static", 0.05), "dynamic2": ("dynamic", 0.02)}
#: admission rate limits; both simulators cap the backlog at 64
SIM_RATE_LIMIT = 8.0
ONLINE_RATE_LIMIT = 4.0
MAX_BACKLOG = 64
#: ``max_wait`` of the shed cells (dynamic faults only); the online run
#: queues less, so it sheds only under a tighter wait
SIM_MAX_WAIT = 16
ONLINE_MAX_WAIT = 2
SHED_FAULTS = "dynamic2"
SHED_SIM_POLICIES = ("farthest-first",)


def result_hash(result) -> str:
    """sha256 over every dataclass field of ``result``, in declaration order.

    Arrays contribute their dtype and bytes; every other value (floats,
    ints, strings, ``None``) its ``repr``, numpy scalars as Python ones.
    """
    h = hashlib.sha256()
    for f in fields(result):
        value = getattr(result, f.name)
        h.update(f.name.encode() + b"=")
        if isinstance(value, np.ndarray):
            h.update(value.dtype.str.encode() + b":")
            h.update(np.ascontiguousarray(value).tobytes())
        else:
            if isinstance(value, np.generic):
                value = value.item()
            h.update(repr(value).encode())
        h.update(b";")
    return h.hexdigest()


def simulation_golden_cases(workers: int = 1):
    """Yield ``(key, run_fn)`` for every cell; ``run_fn()`` returns the result.

    Shared with ``tests/test_simulation.py`` so the test and this script
    can never disagree about what the matrix contains.  ``workers`` only
    reaches ``simulate_online``, whose statistics do not depend on it.
    """
    from repro.faults.model import FaultModel
    from repro.mesh.mesh import Mesh
    from repro.routing.registry import make_router
    from repro.simulation.admission import AdmissionParams
    from repro.simulation.online import simulate_online
    from repro.simulation.scheduler import simulate
    from repro.workloads.generators import random_pairs

    def faults(spec):
        return None if spec is None else getattr(FaultModel, spec[0])(mesh, p=spec[1])

    def admissions(fault_label, rate_limit, max_wait):
        out = {
            "none": None,
            "admit": AdmissionParams(rate_limit=rate_limit, max_backlog=MAX_BACKLOG),
        }
        if fault_label == SHED_FAULTS:
            out["maxwait"] = AdmissionParams(
                rate_limit=rate_limit, max_backlog=MAX_BACKLOG, max_wait=max_wait
            )
        return out.items()

    mesh = Mesh(SIDES)
    label = "x".join(map(str, SIDES))
    for fault_label, spec in FAULTS.items():
        for adm_label, admission in admissions(
            fault_label, SIM_RATE_LIMIT, SIM_MAX_WAIT
        ):
            policies = SHED_SIM_POLICIES if adm_label == "maxwait" else SIM_POLICIES
            for policy in policies:
                for seed in SEEDS:

                    def cell(policy=policy, seed=seed, spec=spec, admission=admission):
                        routes = make_router("hierarchical").route(
                            random_pairs(mesh, PACKETS, seed=seed), seed=seed
                        )
                        return simulate(
                            mesh,
                            routes,
                            policy=policy,
                            seed=seed,
                            faults=faults(spec),
                            admission=admission,
                        )

                    yield (
                        f"simulate|{label}|{policy}|{fault_label}|{adm_label}"
                        f"|seed={seed}",
                        cell,
                    )
        for adm_label, admission in admissions(
            fault_label, ONLINE_RATE_LIMIT, ONLINE_MAX_WAIT
        ):
            for policy in ONLINE_POLICIES:

                def cell_online(policy=policy, spec=spec, admission=admission):
                    return simulate_online(
                        make_router("hierarchical"),
                        mesh,
                        rate=ONLINE_RATE,
                        steps=ONLINE_STEPS,
                        seed=0,
                        policy=policy,
                        faults=faults(spec),
                        admission=admission,
                        workers=workers,
                    )

                yield (
                    f"online|{label}|{policy}|{fault_label}|{adm_label}|seed=0",
                    cell_online,
                )


def build_matrix() -> dict[str, str]:
    return {key: result_hash(cell()) for key, cell in simulation_golden_cases()}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    force = "--force" in argv
    out = Path(__file__).parent / "simulation_hashes.json"
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
            "refusing to overwrite changed hashes — changed cells replay "
            "a different schedule for every stored seed; rerun with "
            "--force if that is intentional",
            file=sys.stderr,
        )
        return 1
    out.write_text(json.dumps(new, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(new)} golden simulation hashes to {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
