"""Edge-congestion accounting (Section 2).

The (edge) congestion ``C`` of a path collection is the maximum number of
paths using any edge.  The paper's synchronous model moves at most one
packet per edge per time step, so congestion is counted on *undirected*
edges; directed loads are also provided for link-level analyses.

All accounting is columnar: path collections are viewed as a
:class:`~repro.core.pathset.PathSet` (a no-op for results coming from the
routing engine, one concatenation for raw ``list[np.ndarray]`` input) and
every function below is a handful of array passes over its shared flat
edge/node streams — no per-path Python loops.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro import kernels
from repro.core.pathset import PathSet
from repro.mesh.mesh import Mesh

__all__ = ["edge_loads", "congestion", "directed_edge_loads", "node_loads"]


def edge_loads(mesh: Mesh, paths: Sequence[np.ndarray] | PathSet) -> np.ndarray:
    """Per-edge path counts ``C(e)``, indexed by undirected edge id.

    A path that crosses the same edge twice contributes twice — the paper
    counts "the number of times that edge e is used by the paths of all the
    packets" (Section 3.3).
    """
    ps = PathSet.from_paths(paths)
    if ps.total_edges == 0:
        return np.zeros(mesh.num_edges, dtype=np.int64)
    ids = ps.edge_ids(mesh)
    return kernels.count_loads(ids, mesh.num_edges)


def congestion(mesh: Mesh, paths: Sequence[np.ndarray] | PathSet) -> int:
    """The congestion ``C = max_e C(e)`` (0 for empty path sets)."""
    loads = edge_loads(mesh, paths)
    return int(loads.max()) if loads.size else 0


def directed_edge_loads(
    mesh: Mesh, paths: Sequence[np.ndarray] | PathSet
) -> np.ndarray:
    """Per-edge loads split by traversal direction, shape ``(E, 2)``.

    Column 0 counts low-to-high endpoint traversals (as ordered by
    ``Mesh.edge_id_to_endpoints``), column 1 the reverse.  Orientation is a
    single gather into :attr:`Mesh.edge_endpoints`.
    """
    ps = PathSet.from_paths(paths)
    out = np.zeros((mesh.num_edges, 2), dtype=np.int64)
    if ps.total_edges == 0:
        return out
    ids = ps.edge_ids(mesh)
    forward = mesh.edge_endpoints[ids, 0] == ps.edge_tails
    out[:, 0] = kernels.count_loads(ids[forward], mesh.num_edges)
    out[:, 1] = kernels.count_loads(ids[~forward], mesh.num_edges)
    return out


def node_loads(mesh: Mesh, paths: Sequence[np.ndarray] | PathSet) -> np.ndarray:
    """How many paths visit each node (endpoints included).

    A path visiting a node several times (a walk with a cycle) still counts
    once for that node.  Counted by :func:`repro.kernels.node_loads_csr`
    (a bucketed row-wise sort-and-dedupe).
    """
    ps = PathSet.from_paths(paths)
    if ps.total_nodes == 0:
        return np.zeros(mesh.n, dtype=np.int64)
    return kernels.node_loads_csr(ps.nodes, ps.offsets, mesh.n)
