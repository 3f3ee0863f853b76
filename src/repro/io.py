"""Persistence helpers: save/load routing results and export sweep rows.

Routing large instances and LP bounds can take minutes; experiments want to
route once and analyse many times.  Results serialise to a single ``.npz``
(paths are ragged, so they are stored as one concatenated array plus
per-path lengths — exactly the CSR layout of
:class:`~repro.core.pathset.PathSet`, so the arrays are written and read
verbatim, no re-flattening or re-splitting); sweep rows export to CSV for
external tooling.
"""

from __future__ import annotations

import csv
import zipfile
import zlib
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from repro.core.pathset import PathSet
from repro.mesh.mesh import Mesh
from repro.routing.base import RoutingProblem, RoutingResult

__all__ = ["save_result", "load_result", "rows_to_csv", "rows_from_csv"]

#: what reading a damaged or foreign ``.npz`` raises, short of a missing file
_MALFORMED = (
    KeyError, IndexError, TypeError, ValueError, EOFError, NotImplementedError,
    zipfile.BadZipFile, zlib.error,
)


def save_result(path: str | Path, result: RoutingResult) -> None:
    """Serialise a routing result (mesh, problem, paths) to ``.npz``."""
    problem = result.problem
    mesh = problem.mesh
    paths = PathSet.from_paths(result.paths)
    np.savez_compressed(
        Path(path),
        sides=np.asarray(mesh.sides, dtype=np.int64),
        torus=np.asarray([int(mesh.torus)]),
        sources=problem.sources,
        dests=problem.dests,
        problem_name=np.asarray([problem.name]),
        router_name=np.asarray([result.router_name]),
        # Seeds serialise as decimal strings: resolved entropy from an
        # unseeded run is a 128-bit integer, far past int64.
        seed=np.asarray(["-1" if result.seed is None else str(int(result.seed))]),
        path_data=paths.nodes,
        path_lengths=paths.nodes_per_path,
    )


def load_result(path: str | Path) -> RoutingResult:
    """Inverse of :func:`save_result`.

    A missing file raises :class:`FileNotFoundError`.  Any other file that
    does not hold a saved result — not an archive, truncated, an array
    missing or malformed, a path node id outside ``[0, mesh.n)`` — raises
    :class:`ValueError` naming the file.
    """
    path = Path(path)
    try:
        with np.load(path, allow_pickle=False) as data:
            mesh = Mesh(
                tuple(int(s) for s in data["sides"]), torus=bool(data["torus"][0])
            )
            problem = RoutingProblem(
                mesh,
                data["sources"],
                data["dests"],
                str(data["problem_name"][0]),
            )
            paths = PathSet.from_lengths(data["path_data"], data["path_lengths"])
            # str() covers both the string format and legacy int64 files.
            seed = int(str(data["seed"][0]))
            router_name = str(data["router_name"][0])
    except _MALFORMED as exc:
        raise ValueError(f"{path}: not a saved routing result ({exc!r})") from exc
    nodes = paths.nodes
    if nodes.size and (int(nodes.min()) < 0 or int(nodes.max()) >= mesh.n):
        raise ValueError(
            f"{path}: path node ids must lie in [0, {mesh.n}) for mesh "
            f"{'x'.join(map(str, mesh.sides))}"
        )
    return RoutingResult(problem, paths, router_name, None if seed == -1 else seed)


def rows_to_csv(path: str | Path, rows: Sequence[Mapping]) -> None:
    """Write evaluation rows (dicts) as CSV; columns from the first row."""
    rows = list(rows)
    if not rows:
        raise ValueError("no rows to write")
    columns = list(rows[0].keys())
    with open(Path(path), "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns, extrasaction="ignore")
        writer.writeheader()
        writer.writerows(rows)


def rows_from_csv(path: str | Path) -> list[dict]:
    """Read rows back; numeric-looking fields are converted."""
    out = []
    with open(Path(path), newline="") as fh:
        for row in csv.DictReader(fh):
            parsed: dict = {}
            for key, value in row.items():
                try:
                    parsed[key] = int(value)
                except (TypeError, ValueError):
                    try:
                        parsed[key] = float(value)
                    except (TypeError, ValueError):
                        parsed[key] = value
            out.append(parsed)
    return out
