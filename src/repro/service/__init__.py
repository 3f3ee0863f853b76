"""Long-lived routing service: warm worker pool behind a unix socket.

``python -m repro serve --socket /tmp/repro.sock`` boots a daemon whose
worker processes hold the decomposition cache resident, so a small
routing request costs a warm dispatch instead of a pool boot plus a cold
cache build.  A request goes out as soon as a dispatch thread is free,
together with whatever queued behind it, as the blocks of the block plan
(:mod:`repro.parallel`) — one block for a small request, several for a
large one, spread over the same workers.  The workers are a
:class:`~repro.parallel.executor.WorkerPool` — the pool sharded routes
use — kept for the daemon's lifetime.  A request's pairs travel in the
task pickle.  A one-block request's paths come back in the task's reply;
each block of a larger request comes back through a named shared-memory
segment (:mod:`repro.core.shm`), so the merge holds one block at a time.

Layering: ``core``/``routing``/``parallel`` know nothing about the
service; the service composes them.  Clients talk the length-prefixed
protocol of :mod:`repro.service.proto` — most simply via
:class:`~repro.service.client.ServiceClient`.

The determinism guarantee (documented in ``docs/SERVICE.md``): a request
routed through the service is byte-identical to ``router.route(problem,
seed)`` in-process, for any worker count, batch composition or restart
history.
"""

from __future__ import annotations

__all__ = [
    "RoutingService",
    "ServiceClient",
    "serve",
]


def __getattr__(name: str):
    if name == "RoutingService" or name == "serve":
        from repro.service import server

        return getattr(server, name)
    if name == "ServiceClient":
        from repro.service.client import ServiceClient

        return ServiceClient
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
