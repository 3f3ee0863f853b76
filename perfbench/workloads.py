"""The benchmark workloads, their generated inputs and output checks.

Each workload builds a fixed cycle of inputs from the workload seed; op
``i`` runs input ``i % cycle``, so every run does identical work and the
program only ever sees generated inputs.  ``setup`` holds everything that
happens before the first timed op (mesh, decomposition and sequence
tables, inputs, one warm-up op); ``op`` is the timed call; ``check`` and
``verify`` check outputs outside the timed region.

Why these three:

* ``route-64x64`` — the paper's evaluation loop (serial route, then
  congestion and stretch): the engine and metrics layers do the work.
* ``sharded-64x64`` — the same engine behind a fresh two-process pool per
  call, at a size where sharding pays on two CPUs; set against
  ``route-64x64`` it separates transport gains from engine gains.
* ``schedule-32x32`` — the synchronous ``C + D`` scheduler on pre-routed
  paths: the only workload whose time goes to the step loop.
"""

from __future__ import annotations

import hashlib
import importlib
import zlib

import numpy as np

#: Theorem 3.4: the hierarchical router's stretch is at most 64
MAX_STRETCH = 64.0


def derive_seed(seed: int, workload: str, k: int) -> int:
    """Input ``k`` of ``workload``'s cycle, as a 63-bit seed."""
    ss = np.random.SeedSequence((int(seed), zlib.crc32(workload.encode()), int(k)))
    return int(ss.generate_state(1, dtype=np.uint64)[0] >> np.uint64(1))


def csr_digest(nodes: np.ndarray, offsets: np.ndarray) -> str:
    """sha256 of a path set's CSR bytes (``nodes`` then ``offsets``)."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(nodes, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(offsets, dtype=np.int64).tobytes())
    return h.hexdigest()


def check_paths(result, stretch: float) -> list[str]:
    """Invalid paths, or a stretch over the Theorem 3.4 bound."""
    problems = []
    if not result.validate():
        problems.append("invalid path")
    if stretch > MAX_STRETCH:
        problems.append(f"stretch {stretch} > {MAX_STRETCH}")
    return problems


def check_schedule(sim) -> list[str]:
    """Every packet arrives, within ``max(C, D) <= makespan <= 8(C+D)+64``."""
    problems = []
    if sim.delivered != sim.num_packets:
        problems.append(f"delivered {sim.delivered} of {sim.num_packets}")
    lo = max(sim.congestion, sim.dilation)
    hi = 8 * (sim.congestion + sim.dilation) + 64
    if not lo <= sim.makespan <= hi:
        problems.append(f"makespan {sim.makespan} outside [{lo}, {hi}]")
    return problems


def _mod(name: str):
    # Calls go through module attributes so the traced run's patches apply.
    return importlib.import_module(name)


class Workload:
    """One benchmark workload; subclasses fill in the hooks."""

    name = ""
    cycle = 1

    def __init__(self, seed: int):
        self.seed = int(seed)
        self.inputs = self.make_inputs()
        #: first digest seen per input: later ops must reproduce it
        self.digests: dict[int, str] = {}

    def make_inputs(self) -> list:
        raise NotImplementedError

    def setup(self) -> None:
        """Build state, then run the warm-up op (input 0) and check it."""
        self.prepare()
        self.before_op(0)
        out = self.op(0)
        problems = self.check(0, out)
        if problems:
            raise RuntimeError(f"warm-up op failed its check: {problems}")

    def prepare(self) -> None:
        pass

    def before_op(self, i: int) -> None:
        """Untimed per-op preparation (fresh views of cached inputs)."""

    def op(self, i: int):
        raise NotImplementedError

    def packets(self, out) -> int:
        raise NotImplementedError

    def digest(self, out) -> str | None:
        return None

    def check(self, i: int, out) -> list[str]:
        """Cheap per-op checks, including the per-input digest match."""
        problems = self.check_output(i, out)
        d = self.digest(out)
        if d is not None:
            first = self.digests.setdefault(i % self.cycle, d)
            if d != first:
                problems.append("output differs from an earlier op on the same input")
        return problems

    def check_output(self, i: int, out) -> list[str]:
        return []

    def verify(self) -> set[int]:
        """Inputs whose recorded digest fails the reference (after timing)."""
        return set()

    def facts(self, i: int, out) -> dict[str, float]:
        """Deterministic outcomes of one op, for the traced run."""
        return {}


class RouteWorkload(Workload):
    name = "route-64x64"
    cycle = 4
    side = 64
    num_packets = 16_384

    def make_inputs(self):
        gen = _mod("repro.workloads.generators")
        mesh = _mod("repro.mesh.mesh").Mesh((self.side, self.side))
        return [
            (gen.random_pairs(mesh, self.num_packets, seed=s), s)
            for s in (derive_seed(self.seed, self.name, k) for k in range(self.cycle))
        ]

    def prepare(self):
        self.mesh = self.inputs[0][0].mesh
        self.router = _mod("repro.core.path_selection").HierarchicalRouter()
        # Decomposition and sequence tables are built in set-up; the fork
        # workers of every sharded call inherit them.
        _mod("repro.core.tables").SequenceTables.for_mesh(self.mesh)

    def op(self, i):
        problem, route_seed = self.inputs[i % self.cycle]
        result = self.router.route(problem, seed=route_seed, workers=1)
        c = _mod("repro.metrics.congestion").congestion(self.mesh, result.paths)
        s = _mod("repro.metrics.stretch").stretch(
            self.mesh, problem.sources, problem.dests, result.paths
        )
        return result, c, s

    def packets(self, out):
        return out[0].problem.num_packets

    def digest(self, out):
        return csr_digest(out[0].paths.nodes, out[0].paths.offsets)

    def check_output(self, i, out):
        result, _, s = out
        return check_paths(result, s)


class ShardedWorkload(RouteWorkload):
    name = "sharded-64x64"
    cycle = 1
    num_packets = 131_072
    workers = 2

    def op(self, i):
        problem, route_seed = self.inputs[i % self.cycle]
        return self.router.route(problem, seed=route_seed, workers=self.workers)

    def packets(self, out):
        return out.problem.num_packets

    def digest(self, out):
        return csr_digest(out.paths.nodes, out.paths.offsets)

    def check_output(self, i, out):
        if len(out.paths) != out.problem.num_packets:
            return ["wrong path count"]
        return []

    def verify(self):
        # The serial engine's bytes are the reference; its paths are checked
        # for validity once (equal digests mean equal paths).
        bad = set()
        for k, d in self.digests.items():
            problem, route_seed = self.inputs[k]
            ref = self.router.route(problem, seed=route_seed, workers=1)
            if csr_digest(ref.paths.nodes, ref.paths.offsets) != d or check_paths(
                ref, ref.stretch
            ):
                bad.add(k)
        return bad


class ScheduleWorkload(RouteWorkload):
    name = "schedule-32x32"
    cycle = 2
    side = 32
    num_packets = 16_384

    def prepare(self):
        self.mesh = self.inputs[0][0].mesh
        router = _mod("repro.core.path_selection").HierarchicalRouter()
        self.routed = [router.route(p, seed=s, workers=1) for p, s in self.inputs]

    def before_op(self, i):
        # A fresh path-set view per op, so no op reuses another's cached
        # edge ids.
        paths = self.routed[i % self.cycle].paths
        self.paths = _mod("repro.core.pathset").PathSet.from_arrays(paths.nodes, paths.offsets)

    def op(self, i):
        return _mod("repro.simulation.scheduler").simulate(self.mesh, self.paths)

    def packets(self, out):
        return out.num_packets

    def digest(self, out):
        h = hashlib.sha256(repr((out.makespan, out.congestion, out.dilation)).encode())
        h.update(np.ascontiguousarray(out.delivery_times, dtype=np.int64).tobytes())
        return h.hexdigest()

    def check_output(self, i, out):
        return check_schedule(out)

    def facts(self, i, out):
        return {
            "simulation.makespan_over_cd": out.makespan / (out.congestion + out.dilation),
            "hops": int(self.routed[i % self.cycle].paths.lengths.sum()),
        }


WORKLOADS = {
    w.name: w
    for w in (RouteWorkload, ShardedWorkload, ScheduleWorkload)
}
