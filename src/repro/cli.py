"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------
``route``       route one workload with one router; print metrics (optionally
                an edge-load heatmap and a sample path drawing in 2-D).
``compare``     route one workload with several routers; print the table.
``decompose``   print the decomposition inventory (and 2-D level renders).
``simulate``    route, then schedule synchronously; print makespan vs C+D.
``online``      dynamic-arrival simulation; print the latency-vs-load curve.
``faults``      fault-injection sweep: delivery ratio and degradation under
                static / block / dynamic link failures.

Examples
--------
::

    python -m repro route --mesh 16x16 --workload transpose --heatmap
    python -m repro compare --mesh 32x32 --workload nearest-neighbor \
        --routers hierarchical,access-tree,valiant --seeds 0,1,2
    python -m repro decompose --mesh 8x8 --render-level 1
    python -m repro online --mesh 16x16 --rates 0.01,0.05,0.1
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.analysis.experiments import aggregate, sweep
from repro.analysis.reporting import format_table
from repro.analysis.visualize import draw_path, edge_load_heatmap
from repro.core.decomposition import Decomposition
from repro.mesh.mesh import Mesh
from repro.routing.registry import (
    available_routers,
    make_router,
    oblivious_routers,
)

__all__ = ["main", "parse_mesh", "build_workload"]

WORKLOAD_CHOICES = (
    "transpose",
    "bit-reversal",
    "bit-complement",
    "tornado",
    "random-permutation",
    "random-pairs",
    "all-to-one",
    "nearest-neighbor",
    "block-exchange",
)


def parse_mesh(spec: str, torus: bool = False) -> Mesh:
    """Parse ``"16x16"``, ``"8x8x8"`` or ``"16^2"`` into a mesh.

    Any malformed spec — unparsable, or sides :class:`Mesh` rejects —
    raises :class:`argparse.ArgumentTypeError`, which :func:`main` turns
    into a usage error.
    """
    spec = spec.strip().lower()
    try:
        if "^" in spec:
            side, d = spec.split("^")
            sides = (int(side),) * int(d)
        else:
            sides = tuple(int(p) for p in spec.split("x"))
        return Mesh(sides, torus=torus)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad mesh spec {spec!r}: {exc}") from exc


def build_workload(name: str, mesh: Mesh, seed: int):
    """Instantiate a workload by CLI name."""
    from repro import workloads as wl

    if name == "transpose":
        return wl.transpose(mesh)
    if name == "bit-reversal":
        return wl.bit_reversal(mesh)
    if name == "bit-complement":
        return wl.bit_complement(mesh)
    if name == "tornado":
        return wl.tornado(mesh)
    if name == "random-permutation":
        return wl.random_permutation(mesh, seed=seed)
    if name == "random-pairs":
        return wl.random_pairs(mesh, mesh.n, seed=seed)
    if name == "all-to-one":
        return wl.all_to_one(mesh)
    if name == "nearest-neighbor":
        return wl.nearest_neighbor(mesh, seed=seed)
    if name == "block-exchange":
        return wl.block_exchange(mesh, max(mesh.sides[0] // 4, 1))
    raise argparse.ArgumentTypeError(f"unknown workload {name!r}")


def _parse_rates(text: str) -> list[float]:
    """``--rates`` values: comma-separated finite, non-negative floats."""
    try:
        rates = [float(r) for r in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {text!r}"
        ) from None
    if not all(0 <= r < float("inf") for r in rates):
        raise argparse.ArgumentTypeError(
            f"rates must be finite and non-negative, got {text!r}"
        )
    return rates


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mesh", default="16x16", help="e.g. 16x16, 8x8x8, 16^2")
    p.add_argument("--torus", action="store_true", help="wrap-around links")
    p.add_argument("--workload", default="transpose", choices=WORKLOAD_CHOICES)
    p.add_argument("--seed", type=int, default=0)


def _cmd_route(args) -> int:
    mesh = parse_mesh(args.mesh, args.torus)
    problem = build_workload(args.workload, mesh, args.seed)
    if args.via is not None:
        return _route_via_service(args, mesh, problem)
    router = make_router(args.router)
    profiler = None
    if args.profile or args.trace:
        from repro.obs import Profiler

        profiler = Profiler(trace=args.trace)
        router.profiler = profiler
    budget = None
    if args.budget_mode is not None or args.budget_bits is not None:
        from repro.core.budget import BudgetParams

        budget = BudgetParams(
            mode=args.budget_mode or "enforce", bits=args.budget_bits
        )
    result = router.route(
        problem, seed=args.seed, workers=args.workers, budget=budget
    )
    from repro.metrics.bounds import congestion_lower_bound

    bound = congestion_lower_bound(mesh, problem.sources, problem.dests, use_lp=False)
    print(problem.describe())
    print(result.summary())
    print(f"C* lower bound = {bound:.2f}; C / bound = {result.congestion / max(bound, 1e-9):.2f}")
    if result.budget is not None:
        b = result.budget
        line = (
            f"budget: mode={b.mode} metered={b.metered}/{b.packets} "
            f"bits/packet={b.bits_per_packet:.1f} max={b.max_bits}"
        )
        if b.limit is not None:
            line += f" limit={b.limit}"
        if b.fallbacks:
            line += (
                f" fallbacks={b.fallbacks_recycled} recycled"
                f" + {b.fallbacks_dimorder} dim-order"
            )
        print(line)
    if hasattr(router, "state_bits_per_node"):
        print(f"compact state: {router.state_bits_per_node(mesh)} bits/node")
    if profiler is not None:
        from repro import cache

        print()
        print(profiler.format())
        st = cache.stats()
        print(f"cache: hits={st.hits} misses={st.misses} entries={st.entries} "
              f"hit_rate={st.hit_rate:.0%}")
        ws = cache.worker_stats()
        if ws.hits or ws.misses:
            print(f"worker cache (rolled up): hits={ws.hits} misses={ws.misses} "
                  f"entries={ws.entries}")
        if args.trace:
            profiler.write_summary()
            profiler.close()
            print(f"trace written to {args.trace}")
    if args.heatmap:
        if mesh.d != 2:
            print("(heatmap skipped: needs a 2-D mesh)", file=sys.stderr)
        else:
            print()
            print(edge_load_heatmap(mesh, result.edge_loads))
    if args.show_path is not None:
        i = args.show_path
        if not (0 <= i < problem.num_packets):
            print(f"(no packet {i})", file=sys.stderr)
        elif mesh.d != 2:
            print("(path drawing needs a 2-D mesh)", file=sys.stderr)
        else:
            print()
            print(draw_path(mesh, result.paths[i]))
    return 0


def _route_via_service(args, mesh: Mesh, problem) -> int:
    """``repro route --via SOCKET``: route through a live daemon."""
    if args.budget_mode is not None or args.budget_bits is not None:
        print("--via does not carry budget options", file=sys.stderr)
        return 2
    from repro.service.client import ServiceClient

    with ServiceClient(args.via) as client:
        result = client.route(problem, router=args.router, seed=args.seed)
    print(problem.describe())
    print(result.summary())
    print(f"(routed via service at {args.via})")
    return 0


def _cmd_serve(args) -> int:
    """``repro serve``: run the routing daemon until stopped."""
    import signal

    from repro.service.server import RoutingService

    prewarm = tuple(s for s in (args.prewarm or "").split(",") if s)
    service = RoutingService(
        args.socket,
        workers=args.workers,
        context=args.context,
        prewarm=prewarm,
    )
    signal.signal(signal.SIGTERM, lambda *_: service.stop())
    service.start()
    print(
        f"repro service: {service.workers} warm worker(s) on "
        f"{args.socket} (pid {__import__('os').getpid()})",
        flush=True,
    )
    service.serve_forever()
    return 0


def _cmd_compare(args) -> int:
    mesh = parse_mesh(args.mesh, args.torus)
    problem = build_workload(args.workload, mesh, args.seed)
    routers = [make_router(name) for name in args.routers.split(",")]
    seeds = [int(s) for s in args.seeds.split(",")]
    rows = sweep(routers, [problem], seeds=seeds)
    agg = aggregate(
        rows, group_by=["router", "workload"], fields=["C", "D", "stretch", "C_ratio"]
    )
    print(format_table(agg, title=f"{problem.name} on {mesh!r} (mean over {len(seeds)} seeds)"))
    return 0


def _cmd_decompose(args) -> int:
    mesh = parse_mesh(args.mesh, args.torus)
    dec = Decomposition(mesh, scheme=args.scheme)
    print(dec.summary())
    if args.render_level is not None:
        if mesh.d != 2:
            print("(render skipped: needs a 2-D mesh)", file=sys.stderr)
        else:
            for j in range(1, dec.num_types(args.render_level) + 1):
                print(f"\nlevel {args.render_level}, type {j}:")
                print(dec.render_level_2d(args.render_level, j))
    return 0


def _cmd_simulate(args) -> int:
    mesh = parse_mesh(args.mesh, args.torus)
    problem = build_workload(args.workload, mesh, args.seed)
    router = make_router(args.router)
    result = router.route(problem, seed=args.seed)
    from repro.simulation.scheduler import simulate

    sim = simulate(mesh, result, policy=args.policy, seed=args.seed)
    print(problem.describe())
    print(sim.summary())
    return 0


def _cmd_online(args) -> int:
    mesh = parse_mesh(args.mesh, args.torus)
    router = make_router(args.router)
    from repro.simulation.online import latency_vs_load

    if any(r > 1 for r in args.rates):
        args.error("argument --rates: Bernoulli injection rates must be in [0, 1]")
    rows = latency_vs_load(router, mesh, args.rates, steps=args.steps, seed=args.seed)
    print(format_table(rows, title=f"online: {router.name} on {mesh!r}"))
    return 0


def _build_traffic(args, mesh, rate: float):
    from repro.workloads import traffic as tr

    if args.traffic == "adversarial":
        try:
            return tr.adversarial_replay(
                mesh, args.adv_router, l=args.adv_l, rate=rate
            )
        except ValueError as exc:
            args.error(str(exc))
    kwargs: dict = {}
    if args.traffic in ("poisson", "hotspot", "shifting-hotspot"):
        kwargs["rate"] = rate
    elif args.traffic == "mmpp":
        kwargs["rate_on"] = rate
    elif args.traffic == "diurnal":
        kwargs["peak_rate"] = rate
    elif args.traffic == "flash-crowd":
        kwargs["spike_rate"] = rate
    return tr.make_traffic(args.traffic, **kwargs)


def _build_admission(args):
    flags = (args.admit_rate, args.admit_burst, args.max_backlog, args.max_wait)
    if all(flag is None for flag in flags):
        return None
    from repro.simulation.admission import AdmissionParams

    try:
        return AdmissionParams(
            rate_limit=args.admit_rate,
            burst=args.admit_burst,
            max_backlog=args.max_backlog,
            max_wait=args.max_wait,
        )
    except ValueError as exc:
        args.error(str(exc))


def _cmd_traffic(args) -> int:
    mesh = parse_mesh(args.mesh, args.torus)
    router = make_router(args.router)
    from repro.simulation.slo import SLOParams, capacity_curve

    slo = SLOParams(deadline=args.deadline)
    admission = _build_admission(args)
    faults = None
    if args.fault_mode != "none":
        from repro.faults import FaultModel

        if args.fault_mode == "static":
            faults = FaultModel.static(mesh, p=args.fault_p, seed=args.fault_seed)
        else:
            faults = FaultModel.dynamic(mesh, p=args.fault_p, seed=args.fault_seed)
    rows = capacity_curve(
        router,
        mesh,
        args.rates,
        steps=args.steps,
        seed=args.seed,
        traffic_factory=lambda rate: _build_traffic(args, mesh, rate),
        slo=slo,
        admission=admission,
        faults=faults,
        workers=args.workers,
    )
    title = (
        f"traffic: {args.traffic} x {router.name} on {mesh!r}"
        + (" +admission" if admission is not None else "")
        + (f" +faults:{args.fault_mode}" if faults is not None else "")
    )
    print(format_table(rows, title=title))
    return 0


def _build_faults(args, mesh):
    from repro.faults import FaultModel

    if args.mode == "static":
        return FaultModel.static(mesh, p=args.p, node_p=args.node_p, seed=args.fault_seed)
    if args.mode == "blocks":
        return FaultModel.blocks(
            mesh, num_blocks=args.blocks, block_side=args.block_side, seed=args.fault_seed
        )
    return FaultModel.dynamic(
        mesh, p=args.p, repair_delay=args.repair_delay, seed=args.fault_seed
    )


def _cmd_faults(args) -> int:
    mesh = parse_mesh(args.mesh, args.torus)
    router = make_router(args.router)
    faults = _build_faults(args, mesh)
    from repro.simulation.online import simulate_online

    print(faults.describe())
    baseline = simulate_online(
        make_router(args.router), mesh, rate=args.rate, steps=args.steps, seed=args.seed
    )
    stats = simulate_online(
        router, mesh, rate=args.rate, steps=args.steps, seed=args.seed, faults=faults
    )
    rows = [
        {
            "run": name,
            "injected": s.injected,
            "delivered": s.delivered,
            "delivery_ratio": round(s.delivery_ratio, 4),
            "mean_latency": round(s.mean_latency, 2),
            "p95_latency": round(s.p95_latency, 2),
            "resamples": s.resamples,
            "detours": s.detours,
            "reroutes": s.reroutes,
            "blocked": s.blocked_steps,
            "dropped": s.dropped,
        }
        for name, s in (("fault-free", baseline), (args.mode, stats))
    ]
    print(format_table(rows, title=f"faults: {router.name} on {mesh!r}"))
    if baseline.mean_latency:
        tax = stats.mean_latency / baseline.mean_latency - 1.0
        print(f"latency tax: {tax:+.1%}; delivery ratio {stats.delivery_ratio:.1%}")
    return 0


def _cmd_certify(args) -> int:
    mesh = parse_mesh(args.mesh, args.torus)
    router = make_router(args.router)
    from repro.analysis.certificates import certify_stretch

    if mesh.n * (mesh.n - 1) <= args.exhaustive_limit:
        cert = certify_stretch(router, mesh, exhaustive_limit=args.exhaustive_limit)
        mode = "exhaustive"
    else:
        rng = np.random.default_rng(args.seed)
        pairs = [
            (int(a), int(b))
            for a, b in rng.integers(mesh.n, size=(args.samples, 2))
            if a != b
        ]
        cert = certify_stretch(router, mesh, pairs=pairs)
        mode = f"sampled ({len(pairs)} pairs)"
    s, t = cert["witness"]
    cs = tuple(int(x) for x in mesh.flat_to_coords(s))
    ct = tuple(int(x) for x in mesh.flat_to_coords(t))
    print(f"{router.name} on {mesh!r} [{mode}]:")
    print(f"  certified worst-case stretch over ALL random choices: "
          f"{cert['worst_stretch']:.2f}")
    print(f"  witness pair: {cs} -> {ct}")
    bound = 64 if mesh.d <= 2 else None
    if bound is not None:
        verdict = "HOLDS" if cert["worst_stretch"] <= bound else "VIOLATED"
        print(f"  Theorem 3.4 bound ({bound}): {verdict}")
    return 0


def _cmd_bits(args) -> int:
    mesh = parse_mesh(args.mesh, args.torus)
    from repro.core.path_selection import HierarchicalRouter
    from repro.workloads.generators import random_pairs

    problem = random_pairs(mesh, args.packets, seed=args.seed)
    rows = []
    for mode in ("fresh", "recycled"):
        router = HierarchicalRouter(bit_mode=mode)
        router.route(problem, seed=args.seed)
        bits = np.asarray(router.bits_log, dtype=np.float64)
        rows.append(
            {
                "mode": mode,
                "packets": problem.num_packets,
                "mean_bits": float(bits.mean()),
                "max_bits": int(bits.max()),
            }
        )
    from repro.analysis.theory import random_bits_upper_curve

    print(format_table(rows, title=f"random bits per packet on {mesh!r}"))
    print(f"Lemma 5.4 shape d*log2(D*d) = "
          f"{random_bits_upper_curve(mesh.d, problem.max_distance):.1f}")
    return 0


def _cmd_verify(args) -> int:
    import json as _json

    from repro.obs import Profiler
    from repro.verify.cases import generate_cases
    from repro.verify.runner import check_corpus, load_corpus_case, run_case, run_suite

    profiler = Profiler()

    def log(msg: str) -> None:
        if not args.json:
            print(msg, file=sys.stderr)

    if args.replay is not None:
        case = load_corpus_case(args.replay)
        outcome = run_case(case, profiler, real_pool=args.deep)
        payload = outcome.to_dict()
        if args.json:
            print(_json.dumps(payload, indent=2, sort_keys=True))
        else:
            status = "OK" if outcome.ok else "FAIL"
            print(f"{status} {case.label()} (case {case.case_id})")
            for msg in outcome.mismatches:
                print(f"  mismatch: {msg}")
            for name, msgs in outcome.violations.items():
                for msg in msgs:
                    print(f"  {name}: {msg}")
            for msg in outcome.certificate:
                print(f"  certificate: {msg}")
        return 0 if outcome.ok else 1

    if args.check_corpus:
        total, open_cases = check_corpus(args.corpus)
        if open_cases:
            print(
                f"replay corpus has {len(open_cases)} unresolved case(s): "
                + ", ".join(open_cases)
            )
            return 1
        print(f"replay corpus clean: {total} case(s), all resolved")
        return 0

    count = args.cases if args.cases is not None else (1000 if args.deep else 220)
    cases = generate_cases(count, seed=args.seed)
    report = run_suite(
        cases,
        mode="deep" if args.deep else "smoke",
        profiler=profiler,
        real_pool=args.deep,
        corpus_dir=args.corpus if args.record else None,
        log=log,
    )
    if args.json:
        print(_json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        d = report.to_dict()
        print(
            f"verify [{d['mode']}]: {d['cases']} cases, "
            f"{d['failures']} failures ({d['mismatches']} mismatches, "
            f"{d['violations']} invariant violations, "
            f"{d['certificate_failures']} certificate failures), "
            f"{d['invariants_checked']} invariant checks in {d['duration_s']:.1f}s"
        )
        for fail in report.failing:
            print(f"  FAIL {fail['label']} -> corpus case {fail['case_id']}")
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Oblivious path selection on the mesh (Busch et al., IPPS 2005)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # the commands that run the online simulator, which needs oblivious paths
    online_routers = oblivious_routers()

    p = sub.add_parser("route", help="route one workload, print metrics")
    _add_common(p)
    p.add_argument("--router", default="hierarchical", choices=available_routers())
    p.add_argument("--workers", type=int, default=1, metavar="N",
                   help="shard routing over N processes (0 = one per CPU); "
                        "the result is byte-identical for every N")
    p.add_argument("--heatmap", action="store_true", help="ASCII edge-load heatmap (2-D)")
    p.add_argument("--show-path", type=int, default=None, metavar="I",
                   help="draw packet I's path (2-D)")
    p.add_argument("--profile", action="store_true",
                   help="print per-stage timings, counters and cache stats")
    p.add_argument("--trace", default=None, metavar="PATH",
                   help="write a JSONL event trace (implies profiling)")
    p.add_argument("--budget-mode", default=None,
                   choices=("off", "measure", "enforce"),
                   help="randomness budget: measure meters planned bits, "
                        "enforce degrades over-budget packets "
                        "(default: the REPRO_BUDGET environment variable)")
    p.add_argument("--budget-bits", type=int, default=None, metavar="N",
                   help="per-packet bit cap (implies --budget-mode enforce; "
                        "default cap: a structural ceiling no fresh "
                        "selection exceeds)")
    p.add_argument("--via", default=None, metavar="SOCKET",
                   help="route through a running 'repro serve' daemon at "
                        "this unix socket (byte-identical to local routing)")
    p.set_defaults(func=_cmd_route)

    p = sub.add_parser(
        "serve", help="persistent routing daemon with a warm worker pool",
        description="Run the routing daemon.  A request goes to the warm "
                    "workers as soon as a dispatch thread is free, batched "
                    "with whatever queued behind it, as the blocks "
                    "route(workers=1) would run: a request the block plan "
                    "splits (an oblivious router on more than "
                    "repro.routing.base.ROUTE_BLOCK packets) spreads its "
                    "blocks over all workers.",
    )
    p.add_argument("--socket", default="/tmp/repro.sock", metavar="PATH",
                   help="unix socket to listen on (default: /tmp/repro.sock)")
    p.add_argument("--workers", type=int, default=2, metavar="N",
                   help="warm worker processes (0 = one per CPU)")
    p.add_argument("--context", default="auto",
                   choices=("auto", "fork", "spawn", "serial"),
                   help="worker start method (default: auto)")
    p.add_argument("--prewarm", default="", metavar="MESHES",
                   help="comma-separated mesh specs to warm at boot, e.g. "
                        "'16x16,8x8x8:torus'")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("compare", help="compare routers on one workload")
    _add_common(p)
    p.add_argument("--routers", default="hierarchical,access-tree,dim-order,valiant")
    p.add_argument("--seeds", default="0,1,2")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("decompose", help="print the decomposition inventory")
    p.add_argument("--mesh", default="8x8")
    p.add_argument("--torus", action="store_true")
    p.add_argument("--scheme", default="auto", choices=("auto", "paper2d", "multishift"))
    p.add_argument("--render-level", type=int, default=None)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("simulate", help="route then schedule; makespan vs C+D")
    _add_common(p)
    p.add_argument("--router", default="hierarchical", choices=available_routers())
    p.add_argument("--policy", default="farthest-first",
                   choices=("farthest-first", "fifo", "random", "random-delay"))
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser(
        "certify", help="worst-case stretch certificate over all random choices"
    )
    p.add_argument("--mesh", default="8x8")
    p.add_argument("--torus", action="store_true")
    p.add_argument("--router", default="hierarchical", choices=available_routers())
    p.add_argument("--exhaustive-limit", type=int, default=4096)
    p.add_argument("--samples", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("bits", help="measure random bits per packet (Lemma 5.4)")
    p.add_argument("--mesh", default="16x16")
    p.add_argument("--torus", action="store_true")
    p.add_argument("--packets", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_bits)

    p = sub.add_parser("faults", help="fault injection: delivery under failures")
    p.add_argument("--mesh", default="16x16")
    p.add_argument("--torus", action="store_true")
    p.add_argument("--router", default="hierarchical", choices=online_routers)
    p.add_argument("--mode", default="static", choices=("static", "blocks", "dynamic"))
    p.add_argument("--p", type=float, default=0.01,
                   help="link failure probability (static: once; dynamic: per step)")
    p.add_argument("--node-p", type=float, default=0.0,
                   help="node failure probability (static only)")
    p.add_argument("--blocks", type=int, default=2, help="failed blocks (blocks mode)")
    p.add_argument("--block-side", type=int, default=2)
    p.add_argument("--repair-delay", type=int, default=8, help="dynamic repair time")
    p.add_argument("--fault-seed", type=int, default=0)
    p.add_argument("--rate", type=float, default=0.05)
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_faults)

    p = sub.add_parser(
        "verify",
        help="differential conformance gate: fast paths vs reference oracles",
    )
    tier = p.add_mutually_exclusive_group()
    tier.add_argument("--smoke", action="store_true",
                      help="the CI tier: 220 cases, in-process shard checks (default)")
    tier.add_argument("--deep", action="store_true",
                      help="the nightly tier: more cases, real worker pools")
    p.add_argument("--cases", type=int, default=None, metavar="N",
                   help="override the case count of the selected tier")
    p.add_argument("--seed", type=int, default=0, help="case-generator seed")
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p.add_argument("--replay", default=None, metavar="PATH",
                   help="re-run one corpus case file and report, nothing else")
    p.add_argument("--corpus", default="tests/corpus", metavar="DIR",
                   help="replay-corpus directory (default: tests/corpus)")
    p.add_argument("--record", action="store_true",
                   help="persist shrunk failing cases into the corpus")
    p.add_argument("--check-corpus", action="store_true",
                   help="fail if the corpus holds unresolved cases (CI gate)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("online", help="dynamic arrivals: latency vs load")
    p.add_argument("--mesh", default="16x16")
    p.add_argument("--torus", action="store_true")
    p.add_argument("--router", default="hierarchical", choices=online_routers)
    p.add_argument("--rates", type=_parse_rates, default="0.01,0.05,0.1")
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_online)

    p = sub.add_parser(
        "traffic",
        help="trace-driven load: capacity curves, SLO percentiles, admission",
    )
    p.add_argument("--mesh", default="16x16")
    p.add_argument("--torus", action="store_true")
    p.add_argument("--router", default="hierarchical", choices=online_routers)
    from repro.workloads.traffic import TRAFFIC as _TRAFFIC

    p.add_argument(
        "--traffic",
        default="poisson",
        choices=sorted(_TRAFFIC) + ["adversarial"],
        help="arrival process (docs/WORKLOADS.md); 'adversarial' replays Pi_A",
    )
    p.add_argument(
        "--rates",
        type=_parse_rates,
        default="0.05,0.1,0.2",
        help="offered per-node loads, one capacity-curve row each",
    )
    p.add_argument("--steps", type=int, default=120)
    p.add_argument("--seed", default=0, help="int or decimal-string entropy")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--deadline", type=int, default=None, help="latency SLO (steps)")
    p.add_argument("--admit-rate", type=float, default=None,
                   help="token-bucket admissions/step (enables admission)")
    p.add_argument("--admit-burst", type=float, default=None)
    p.add_argument("--max-backlog", type=int, default=None,
                   help="in-network packet ceiling (backpressure)")
    p.add_argument("--max-wait", type=int, default=None,
                   help="shed packets queued longer than this")
    p.add_argument("--fault-mode", default="none", choices=["none", "static", "dynamic"])
    p.add_argument("--fault-p", type=float, default=0.01)
    p.add_argument("--fault-seed", type=int, default=0)
    p.add_argument("--adv-router", default="dim-order", choices=available_routers(),
                   help="router the adversarial replay is mined against")
    p.add_argument("--adv-l", type=int, default=4)
    p.set_defaults(func=_cmd_traffic)

    for p in sub.choices.values():
        # commands report late-detected bad input as their own usage error
        p.set_defaults(error=p.error)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except argparse.ArgumentTypeError as exc:  # a malformed mesh spec
        args.error(str(exc))


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
