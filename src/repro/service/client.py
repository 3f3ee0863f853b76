"""The client: routes over a socket, returns a real :class:`RoutingResult`.

:class:`ServiceClient` builds the :class:`RoutingProblem` locally (so
workload generation and validation stay client-side), ships only the
pairs and parameters, and rehydrates the reply CSR into a
:class:`~repro.routing.base.RoutingResult` — callers get the same object
``router.route`` would have returned, with all lazy metrics working.

One client holds one connection; it is serialised with a lock, so a
client instance is thread-safe but concurrent requests want one client
per thread.
"""

from __future__ import annotations

import socket
import threading

import numpy as np

from repro.core.pathset import PathSet
from repro.mesh.mesh import Mesh
from repro.routing.base import RoutingProblem, RoutingResult
from repro.service.proto import ProtocolError, recv_msg, send_msg

__all__ = ["ServiceClient", "ServiceError"]


class ServiceError(RuntimeError):
    """The service replied ``ok=False`` (the server-side error message)."""


class ServiceClient:
    """Talks to a :class:`~repro.service.server.RoutingService` socket."""

    def __init__(self, socket_path: str, *, timeout: float = 120.0):
        self.socket_path = str(socket_path)
        self._lock = threading.Lock()
        self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._sock.settimeout(timeout)
        self._sock.connect(self.socket_path)

    def _rpc(self, header: dict, arrays: dict | None = None):
        with self._lock:
            send_msg(self._sock, header, arrays)
            msg = recv_msg(self._sock)
        if msg is None:
            raise ProtocolError("service closed the connection")
        reply, reply_arrays = msg
        if not reply.get("ok"):
            raise ServiceError(reply.get("error", "unknown service error"))
        return reply, reply_arrays

    # -- ops -----------------------------------------------------------

    def ping(self) -> dict:
        return self._rpc({"op": "ping"})[0]

    def stats(self) -> dict:
        return self._rpc({"op": "stats"})[0]

    def shutdown_server(self) -> None:
        """Ask the daemon to stop (replies before stopping)."""
        self._rpc({"op": "shutdown"})

    def route(
        self,
        mesh: RoutingProblem | Mesh | str,
        sources: np.ndarray | None = None,
        dests: np.ndarray | None = None,
        *,
        torus: bool = False,
        router: str = "hierarchical",
        seed: int | None = 0,
        workload: str | None = None,
        workload_seed: int = 0,
    ) -> RoutingResult:
        """Route through the service; byte-identical to a local route.

        The first argument is a ready :class:`RoutingProblem`, or a
        :class:`Mesh` / spec string (``"16x16"``) combined with either
        ``sources``/``dests`` arrays or a named ``workload`` (generated
        locally with ``workload_seed``).
        """
        if isinstance(mesh, RoutingProblem):
            if sources is not None or dests is not None or workload is not None:
                raise ValueError(
                    "pass a RoutingProblem alone, without sources/dests/workload"
                )
            problem = mesh
            mesh = problem.mesh
        else:
            if isinstance(mesh, str):
                from repro.cli import parse_mesh

                mesh = parse_mesh(mesh, torus)
            if workload is not None:
                if sources is not None or dests is not None:
                    raise ValueError(
                        "pass either sources/dests or workload, not both"
                    )
                from repro.cli import build_workload

                generated = build_workload(workload, mesh, workload_seed)
                sources, dests = generated.sources, generated.dests
            problem = RoutingProblem(
                mesh,
                np.asarray(sources, dtype=np.int64),
                np.asarray(dests, dtype=np.int64),
                name=workload or "service",
            )
        reply, arrays = self._rpc(
            {
                "op": "route",
                "mesh": list(mesh.sides),
                "torus": mesh.torus,
                "router": router,
                "seed": seed,
            },
            {"sources": problem.sources, "dests": problem.dests},
        )
        paths = PathSet.from_arrays(arrays["nodes"], arrays["offsets"])
        if len(paths) != problem.num_packets:
            raise ServiceError(
                f"service returned {len(paths)} paths for "
                f"{problem.num_packets} packets"
            )
        return RoutingResult(
            problem, paths, router_name=router, seed=int(reply["entropy"])
        )

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:  # pragma: no cover
            pass

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
