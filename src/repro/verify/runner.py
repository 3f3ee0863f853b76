"""The differential runner: fast path vs oracle, case by case.

For every :class:`~repro.verify.cases.Case` the runner

1. routes the problem with the optimised stack (batched engine, sharded
   execution for ``workers > 1``, fault-aware wrapper where configured);
2. routes it again with the :mod:`~repro.verify.oracles` reference and
   diffs the CSR **byte-exactly** (nodes, offsets, kept indices);
3. recomputes every metric with the naive oracles and diffs;
4. runs every applicable invariant from the registry;
5. checks the statistical congestion certificate for certified routers.

``workers > 1`` cases additionally assert the sharded merge is
byte-identical to the serial engine — on an in-process
:class:`~repro.parallel.executor.SerialExecutor` in the smoke tier (the
merge logic is identical; only process start-up is skipped) and on a real
fork pool in the deep tier.

``via_service`` cases route a third time through a live ``repro serve``
daemon (booted lazily, shared across the suite, torn down at exit) and
demand byte-identity with the serial route — the acceptance cells for
the warm-pool/shared-memory transport.

Failures are shrunk (:mod:`~repro.verify.shrink`) and persisted as JSON
to the replay corpus, so every bug the runner ever finds stays
reproducible with ``repro verify --replay <case-file>``.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.verify.cases import Case, build_case
from repro.verify.certificate import CERTIFIED_ROUTERS, congestion_certificate
from repro.verify.invariants import VerifyContext, check_invariants
from repro.verify.oracles import (
    oracle_dilation,
    oracle_edge_loads,
    oracle_node_loads,
    oracle_route,
    oracle_stretches,
)

__all__ = [
    "CaseOutcome",
    "VerifyReport",
    "run_case",
    "run_suite",
    "save_corpus_case",
    "load_corpus_case",
    "check_corpus",
]


@dataclass
class CaseOutcome:
    """What the runner observed for one case."""

    case: Case
    mismatches: list[str] = field(default_factory=list)
    violations: dict[str, list[str]] = field(default_factory=dict)
    certificate: list[str] = field(default_factory=list)
    invariants_checked: int = 0
    duration_s: float = 0.0

    @property
    def ok(self) -> bool:
        return not (self.mismatches or self.violations or self.certificate)

    def to_dict(self) -> dict:
        return {
            "case": self.case.to_dict(),
            "case_id": self.case.case_id,
            "label": self.case.label(),
            "ok": self.ok,
            "mismatches": self.mismatches,
            "violations": self.violations,
            "certificate": self.certificate,
        }


def _diff_paths(fast, oracle_ps, oracle_kept, mismatches: list[str]) -> None:
    """Byte-exact CSR + kept-set diff between fast result and oracle."""
    if not np.array_equal(fast.paths.offsets, oracle_ps.offsets):
        mismatches.append("CSR offsets differ between fast path and oracle")
    elif not np.array_equal(fast.paths.nodes, oracle_ps.nodes):
        bad = np.flatnonzero(fast.paths.nodes != oracle_ps.nodes)
        mismatches.append(
            f"CSR nodes differ at {bad.size} positions (first: {int(bad[0])})"
        )
    fk = fast.kept_indices
    if (fk is None) != (oracle_kept is None) or (
        fk is not None and not np.array_equal(fk, oracle_kept)
    ):
        mismatches.append("kept_indices differ between fast path and oracle")


def _diff_metrics(result, mismatches: list[str]) -> None:
    """Vectorised metrics vs the naive loop oracles."""
    mesh = result.problem.mesh
    paths = list(result.paths)
    if not np.array_equal(result.edge_loads, oracle_edge_loads(mesh, paths)):
        mismatches.append("edge_loads differ from the loop oracle")
    from repro.metrics.congestion import node_loads

    if not np.array_equal(node_loads(mesh, result.paths), oracle_node_loads(mesh, paths)):
        mismatches.append("node_loads differ from the loop oracle")
    fast_st = result.stretches
    slow_st = oracle_stretches(
        mesh, result.problem.sources, result.problem.dests, paths
    )
    both_nan = np.isnan(fast_st) & np.isnan(slow_st)
    if not np.all(both_nan | np.isclose(fast_st, slow_st, rtol=0, atol=1e-12, equal_nan=True)):
        mismatches.append("stretches differ from the loop oracle")
    if result.dilation != oracle_dilation(paths):
        mismatches.append("dilation differs from the loop oracle")


_SERVICE: tuple | None = None


def _live_service():
    """The suite-shared ``repro serve`` daemon, booted on first use.

    One daemon serves every ``via_service`` cell of a verify run — that
    is the point: the cells must stay byte-identical on a *warm*, shared,
    batching service, not on a fresh one per case.
    """
    global _SERVICE
    if _SERVICE is None:
        import atexit
        import os
        import tempfile

        from repro.service.server import serve

        path = os.path.join(
            tempfile.mkdtemp(prefix="repro-verify-"), "service.sock"
        )
        svc = serve(path, workers=2)
        atexit.register(svc.stop)
        _SERVICE = (svc, path)
    return _SERVICE


def _diff_service(case: Case, serial, entropy: int, mismatches: list[str]) -> None:
    """Route the case through the live daemon; demand serial bytes."""
    from repro.service.client import ServiceClient

    if case.fault_mode != "none" or case.budget_mode != "off":
        # the service protocol carries (mesh, pairs, router, seed) only
        mismatches.append(
            "via_service cells must be fault-free and unbudgeted"
        )
        return
    _svc, path = _live_service()
    problem = serial.problem
    with ServiceClient(path) as client:
        via = client.route(problem, router=case.router, seed=entropy)
    if not (
        np.array_equal(via.paths.nodes, serial.paths.nodes)
        and np.array_equal(via.paths.offsets, serial.paths.offsets)
    ):
        mismatches.append("service route differs from serial bytes")
    if via.seed != entropy:
        mismatches.append("service echoed a different entropy")


def _run_route_case(case: Case, profiler, real_pool: bool) -> CaseOutcome:
    from repro.core.randomness import resolve_entropy
    from repro.parallel import route_sharded
    from repro.parallel.executor import SerialExecutor

    outcome = CaseOutcome(case)
    router, problem, faults = build_case(case)
    if profiler is not None:
        router.profiler = profiler
    entropy = resolve_entropy(case.seed)
    # "off" passes None so REPRO_BUDGET still applies (the CI enforce leg);
    # explicit modes pin the params for fast path, shards and oracle alike.
    budget = None
    if case.budget_mode != "off":
        from repro.core.budget import BudgetParams

        budget = BudgetParams(mode=case.budget_mode, bits=case.budget_bits)

    def route_fn(workers: int):
        return router.route(problem, entropy, workers=workers, budget=budget)

    serial = route_fn(1)

    if case.workers != 1:
        if real_pool:
            sharded = router.route(
                problem, entropy, workers=case.workers, budget=budget
            )
        else:
            sharded = route_sharded(
                router,
                problem,
                entropy,
                workers=case.workers,
                executor=SerialExecutor(),
                budget=budget,
            )
        if not (
            np.array_equal(sharded.paths.nodes, serial.paths.nodes)
            and np.array_equal(sharded.paths.offsets, serial.paths.offsets)
        ):
            outcome.mismatches.append(
                f"sharded merge (workers={case.workers}) differs from serial bytes"
            )
        sk, ek = sharded.kept_indices, serial.kept_indices
        if (sk is None) != (ek is None) or (
            sk is not None and not np.array_equal(sk, ek)
        ):
            outcome.mismatches.append("sharded kept_indices differ from serial")
        sb, eb = sharded.budget, serial.budget
        if (sb is None) != (eb is None) or (
            sb is not None and sb.to_dict() != eb.to_dict()
        ):
            outcome.mismatches.append("sharded bit ledger differs from serial")

    if case.via_service:
        _diff_service(case, serial, entropy, outcome.mismatches)
        if profiler is not None:
            profiler.count("verify.service_cells", 1)

    if router.is_oblivious:
        oracle_ps, oracle_kept = oracle_route(
            router, problem, entropy, budget=budget
        )
        _diff_paths(serial, oracle_ps, oracle_kept, outcome.mismatches)
    _diff_metrics(serial, outcome.mismatches)

    ctx = VerifyContext(
        result=serial,
        router=router,
        entropy=entropy,
        original_problem=problem,
        route_fn=route_fn,
        workers=case.workers,
        faults=faults,
        budget=budget,
        rng=np.random.default_rng(case.seed + 99),
    )
    outcome.violations = check_invariants(ctx)
    outcome.invariants_checked = len(
        [1 for inv in _applicable(ctx)]
    )

    if (
        getattr(ctx.base_router, "name", "") in CERTIFIED_ROUTERS
        and ctx.trivial_faults
        and serial.problem.num_packets
    ):
        from repro.metrics.bounds import congestion_lower_bound

        bound = congestion_lower_bound(
            problem.mesh, serial.problem.sources, serial.problem.dests, use_lp=False
        )
        outcome.certificate = congestion_certificate(serial, bound)
    return outcome


def _applicable(ctx: VerifyContext):
    from repro.verify.invariants import REGISTRY

    for inv in REGISTRY.values():
        try:
            if inv.applies(ctx):
                yield inv
        except Exception:  # pragma: no cover - applies() must not crash
            continue


def _run_online_case(case: Case, profiler) -> CaseOutcome:
    from repro.cli import parse_mesh
    from repro.simulation.online import simulate_online

    outcome = CaseOutcome(case)
    mesh = parse_mesh("x".join(str(s) for s in case.sides), case.torus)
    from repro.routing.registry import make_router

    router = make_router(case.router)
    from repro.verify.cases import _fault_model

    faults = _fault_model(case, mesh)
    kwargs = dict(rate=case.rate, steps=case.steps, seed=case.seed, faults=faults)
    stats = simulate_online(router, mesh, profiler=profiler, **kwargs)
    again = simulate_online(router, mesh, **kwargs)
    if (
        stats.injected != again.injected
        or stats.delivered != again.delivered
        or stats.dropped != again.dropped
        or not np.array_equal(stats.latencies, again.latencies)
    ):
        outcome.mismatches.append("online simulation is not seed-deterministic")
    drain = 8 * case.steps + 200
    ctx = VerifyContext(
        result=None,
        router=router,
        entropy=case.seed,
        original_problem=None,
        online=stats,
        online_params={"total_steps": case.steps + drain},
        faults=faults,
    )
    outcome.violations = check_invariants(ctx, names=("online.conservation",))
    outcome.invariants_checked = 1
    return outcome


def run_case(case: Case, profiler=None, *, real_pool: bool = False) -> CaseOutcome:
    """Execute one case end to end; never raises for a product bug.

    Infrastructure errors (the case itself cannot be built) do raise —
    a corpus case that stops building must be looked at, not skipped.
    """
    t0 = time.perf_counter()
    if case.kind == "online":
        outcome = _run_online_case(case, profiler)
    else:
        outcome = _run_route_case(case, profiler, real_pool)
    outcome.duration_s = time.perf_counter() - t0
    if profiler is not None:
        profiler.count("verify.cases", 1)
        if not outcome.ok:
            profiler.count("verify.failures", 1)
        profiler.count("verify.mismatches", len(outcome.mismatches))
        profiler.count(
            "verify.violations", sum(len(v) for v in outcome.violations.values())
        )
        profiler.count("verify.invariants_checked", outcome.invariants_checked)
    return outcome


# ---------------------------------------------------------------------------
# Suite driver
# ---------------------------------------------------------------------------

@dataclass
class VerifyReport:
    """Aggregate of one ``repro verify`` run."""

    mode: str
    cases: int = 0
    failures: int = 0
    mismatches: int = 0
    violations: int = 0
    certificate_failures: int = 0
    invariants_checked: int = 0
    duration_s: float = 0.0
    failing: list[dict] = field(default_factory=list)
    counters: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.failures == 0

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "ok": self.ok,
            "cases": self.cases,
            "failures": self.failures,
            "mismatches": self.mismatches,
            "violations": self.violations,
            "certificate_failures": self.certificate_failures,
            "invariants_checked": self.invariants_checked,
            "duration_s": round(self.duration_s, 3),
            "failing": self.failing,
            "counters": self.counters,
        }


def run_suite(
    cases: list[Case],
    *,
    mode: str = "smoke",
    profiler=None,
    real_pool: bool = False,
    corpus_dir: str | Path | None = None,
    shrink: bool = True,
    log=None,
) -> VerifyReport:
    """Run all cases; shrink + persist failures when ``corpus_dir`` is set."""
    from repro.verify.shrink import shrink_case

    report = VerifyReport(mode=mode)
    t0 = time.perf_counter()
    for case in cases:
        outcome = run_case(case, profiler, real_pool=real_pool)
        report.cases += 1
        report.mismatches += len(outcome.mismatches)
        report.violations += sum(len(v) for v in outcome.violations.values())
        report.certificate_failures += len(outcome.certificate)
        report.invariants_checked += outcome.invariants_checked
        if outcome.ok:
            continue
        report.failures += 1
        if log is not None:
            log(f"FAIL {case.label()}: {outcome.to_dict()}")
        final = outcome
        if shrink:
            small = shrink_case(case, real_pool=real_pool)
            if small is not None:
                final = small
        report.failing.append(final.to_dict())
        if corpus_dir is not None:
            save_corpus_case(Path(corpus_dir), final)
    report.duration_s = time.perf_counter() - t0
    if profiler is not None:
        report.counters = {
            k: v
            for k, v in profiler.snapshot().get("counters", {}).items()
            if k.startswith("verify.")
        }
    return report


# ---------------------------------------------------------------------------
# The replay corpus
# ---------------------------------------------------------------------------

def save_corpus_case(corpus_dir: Path, outcome: CaseOutcome) -> Path:
    """Persist a failing case as ``<case_id>.json`` (status: open)."""
    corpus_dir.mkdir(parents=True, exist_ok=True)
    path = corpus_dir / f"{outcome.case.case_id}.json"
    payload = {
        "case": outcome.case.to_dict(),
        "status": "open",
        "found": time.strftime("%Y-%m-%d"),
        "note": "auto-recorded by repro verify; see mismatches/violations",
        "mismatches": outcome.mismatches,
        "violations": outcome.violations,
        "certificate": outcome.certificate,
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def load_corpus_case(path: str | Path) -> Case:
    """Load a corpus file (or a bare case JSON) back into a :class:`Case`."""
    data = json.loads(Path(path).read_text())
    if "case" in data:
        data = data["case"]
    return Case.from_dict(data)


def check_corpus(corpus_dir: str | Path) -> tuple[int, list[str]]:
    """(total files, names of unresolved cases) — the CI corpus gate."""
    corpus_dir = Path(corpus_dir)
    open_cases = []
    total = 0
    for path in sorted(corpus_dir.glob("*.json")):
        total += 1
        data = json.loads(path.read_text())
        if data.get("status", "open") != "resolved":
            open_cases.append(path.name)
    return total, open_cases
