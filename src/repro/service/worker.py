"""Worker-side request specs and the batch entry point.

A dispatch — the head request plus whatever queued behind it — crosses
to the pool as ONE task, a list of :class:`RouteRequest`, and comes back
as a list of :class:`RouteReply`.
The worker loops :meth:`Router.route` *per request*, each with its own
resolved entropy and ``packet_offset=0``: requests are never merged into
a single engine call, which is precisely what makes a service route
byte-identical to the same route run locally, regardless of which other
requests happened to share its batch.

Per-request failures are caught and shipped back as ``ok=False`` replies
so one malformed request cannot poison its batch-mates.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.service.shm import SharedPairs

__all__ = ["RouteReply", "RouteRequest", "route_request_batch"]


@dataclass
class RouteRequest:
    """One routing request, picklable, with pairs inline or in shm."""

    req_id: int
    sides: tuple
    torus: bool
    router: str
    entropy: int  #: resolved by the server — never ``None`` here
    #: exactly one of (``sources``/``dests``, ``pairs``) carries the pairs
    sources: np.ndarray | None = None
    dests: np.ndarray | None = None
    pairs: SharedPairs | None = None
    #: ship the reply CSR through a shared segment instead of pickling
    reply_shm: bool = True


@dataclass
class RouteReply:
    """One routed request: CSR inline or as a :class:`SharedCSR` handle."""

    req_id: int
    ok: bool
    num_packets: int = 0
    entropy: int = 0
    nodes: np.ndarray | None = None
    offsets: np.ndarray | None = None
    shared: object | None = None
    error: str | None = None
    elapsed_s: float = 0.0


def _route_one(req: RouteRequest) -> RouteReply:
    from repro.mesh.mesh import Mesh
    from repro.routing.base import RoutingProblem
    from repro.routing.registry import make_router

    t0 = time.perf_counter()
    if req.pairs is not None:
        sources, dests = req.pairs.take()
    else:
        sources, dests = req.sources, req.dests
    mesh = Mesh(tuple(req.sides), torus=req.torus)
    problem = RoutingProblem(mesh, sources, dests, name="service")
    router = make_router(req.router)
    result = router.route(problem, req.entropy, workers=1)
    shared = None
    nodes: np.ndarray | None = result.paths.nodes
    offsets: np.ndarray | None = result.paths.offsets
    if req.reply_shm:
        shared = result.paths.to_shared()
        nodes = offsets = None
    return RouteReply(
        req_id=req.req_id,
        ok=True,
        num_packets=problem.num_packets,
        entropy=req.entropy,
        nodes=nodes,
        offsets=offsets,
        shared=shared,
        elapsed_s=time.perf_counter() - t0,
    )


def route_request_batch(requests: list) -> list:
    """Route every request of one dispatch in this worker process."""
    replies: list[RouteReply] = []
    for req in requests:
        try:
            replies.append(_route_one(req))
        except Exception as exc:  # noqa: BLE001 - shipped back per-request
            replies.append(
                RouteReply(
                    req_id=req.req_id,
                    ok=False,
                    error=f"{type(exc).__name__}: {exc}",
                )
            )
    return replies
