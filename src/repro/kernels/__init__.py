"""Hot-path kernels: flat-array contracts with plain numpy bodies.

The batch engine's inner loops — segmented-cumsum path assembly, per-path
cycle removal (loop erasure), the fault-aware BFS detour, and the metrics
array passes — are *kernel-shaped*: tight integer loops over flat CSR
buffers with no Python objects in sight.  Each is one vectorised numpy
function here, with a signature of arrays and ints only, so it can be
refereed in isolation: the scalar oracles in :mod:`repro.verify.oracles`
restate every kernel independently and ``repro verify`` must stay at zero
mismatches.  See ``docs/KERNELS.md`` for the contract and for how to add a
new kernel against the referee.

The interesting kernel is :func:`decycle_paths`.  The scalar contract
(:func:`repro.mesh.paths.remove_cycles`) is the classic stack algorithm:
walk the path, and on meeting a node already on the stack, pop back to
its first visit.  That is exactly chronological *loop erasure*, and loop
erasure has an equivalent **last-exit** characterisation::

    erase(w) = [w[0]] + erase(w[last_occurrence_of(w[0]) + 1 :])

(when ``w[0]`` is seen again the stack rewinds to position 0, so only the
walk *after its last visit* survives; no later rewind can cross below it
because ``w[0]`` never reappears).  The last-exit form vectorises: one
bucketed row-sort pass precomputes, for every position, the position of
its node's last occurrence within the path, and a lockstep pointer-chase
over all cyclic paths at once emits the erased nodes — O(total) work,
no per-path Python.

The row-sort pass groups paths of equal length ``L`` into a dense
``(k, L)`` matrix and sorts each row by the key ``value * L + position``
(node ids times a path length stay far inside int64).  Every node value
becomes one contiguous run, in position order, whose last column holds
the value's last original position.  A *run-end fill* finds that column
for every sorted column at once: mark column ``i`` with ``i`` where the
run ends there and with ``L`` where the next value is equal, take a
running minimum over the reversed columns, and gather the sorted
positions at the result.  That is a fixed number of numpy calls per
bucket, whatever ``L`` and the mesh size.

Examples
--------
>>> import numpy as np
>>> from repro import kernels
>>> kernels.count_loads(np.array([0, 2, 2], dtype=np.int64), 4).tolist()
[1, 0, 2, 0]
>>> nodes, offsets, changed = kernels.decycle_paths(
...     np.array([0, 1, 2, 1, 3], dtype=np.int64), np.array([0, 5], dtype=np.int64)
... )
>>> nodes.tolist(), changed
([0, 1, 3], 1)
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "backend",
    "assemble_paths",
    "decycle_paths",
    "bfs_parents",
    "fill_box_chains",
    "count_loads",
    "node_loads_csr",
    "stretch_ratios",
]


def backend() -> str:
    """The kernel implementation in use; always ``"numpy"``."""
    return "numpy"


def assemble_paths(
    values: np.ndarray,
    counts: np.ndarray,
    flat_s: np.ndarray,
    lens: np.ndarray,
    starts: np.ndarray,
    total: int,
) -> np.ndarray:
    """Segmented-cumsum path assembly: unit steps -> flat node buffer.

    ``values``/``counts`` are the flattened per-(packet, subpath, dim)
    signed strides and step counts; ``flat_s`` the per-packet source node
    ids; ``lens``/``starts`` the per-packet node counts and output
    offsets (``starts = exclusive cumsum of lens``, ``total = lens.sum()``).
    Returns the ``int64[total]`` node buffer: path ``p`` occupies
    ``[starts[p], starts[p] + lens[p])`` and integrates ``flat_s[p]``
    through its repeated step values.
    """
    total = int(total)
    steps = np.repeat(values, counts)
    buf = np.zeros(total, dtype=np.int64)
    mask = np.ones(total, dtype=bool)
    mask[starts] = False
    buf[mask] = steps
    # Segmented integration: global cumsum, then re-anchor each segment to
    # its source node.
    nodes = np.cumsum(buf)
    nodes -= np.repeat(nodes[starts] - flat_s, lens)
    return nodes


def _last_occurrence(nodes, offsets, lens, starts):
    """Per-position last occurrence of the position's node within its path.

    Returns ``(jump, has_dup)``: ``jump[g]`` is the *path-local* index of
    the last occurrence of ``nodes[g]``'s value inside its own path, and
    ``has_dup[p]`` whether path ``p`` contains any revisited node.
    Computed per length-bucket so each bucket is a dense ``(k, L)`` matrix
    sorted row-wise — many small-row sorts beat one global sort of the
    whole node stream — followed by the run-end fill described in the
    module docstring.
    """
    N = offsets.size - 1
    jump = np.empty(nodes.size, dtype=np.int64)
    has_dup = np.zeros(N, dtype=bool)
    order = np.argsort(lens, kind="stable")
    sizes = lens[order]
    bounds = np.flatnonzero(sizes[1:] != sizes[:-1]) + 1
    group_starts = np.concatenate(([0], bounds))
    group_ends = np.concatenate((bounds, [sizes.size]))
    for gs, ge in zip(group_starts.tolist(), group_ends.tolist()):
        L = int(sizes[gs])
        rows = order[gs:ge]
        if L == 0:
            continue
        if L == 1:
            jump[starts[rows]] = 0
            continue
        cols = np.arange(L, dtype=np.int64)
        idx = starts[rows][:, None] + cols
        # One key per (value, position) pair: keys are unique, so a plain
        # row sort orders by value and, within a value, by position.
        key = nodes[idx] * L + cols
        key.sort(axis=1)
        sm, srt = np.divmod(key, L)
        same = sm[:, 1:] == sm[:, :-1]  # sorted col i == col i+1
        has_dup[rows] = same.any(axis=1)
        # Run-end fill: endcol[:, i] becomes the last sorted column of
        # column i's value-run, which holds the value's last position.
        endcol = np.empty_like(srt)
        endcol[:, :-1] = np.where(same, L, cols[:-1])
        endcol[:, -1] = L - 1
        rev = endcol[:, ::-1]
        np.minimum.accumulate(rev, axis=1, out=rev)
        lastpos = np.take_along_axis(srt, endcol, axis=1)
        local = np.empty_like(srt)
        np.put_along_axis(local, srt, lastpos, axis=1)
        jump[idx] = local
    return jump, has_dup


def decycle_paths(
    nodes: np.ndarray, offsets: np.ndarray
) -> tuple[np.ndarray, np.ndarray, int]:
    """Loop-erase every path of a CSR collection (earliest-visit semantics).

    Returns ``(nodes, offsets, changed)`` where ``changed`` counts the
    paths that contained a revisited node.  When ``changed == 0`` the
    input arrays themselves are returned.  Per path the result equals
    :func:`repro.mesh.paths.remove_cycles` exactly — the scalar oracle
    :func:`repro.verify.oracles.oracle_remove_cycles` referees it.
    """
    N = offsets.size - 1
    if N == 0 or nodes.size == 0:
        return nodes, offsets, 0
    lens = np.diff(offsets)
    starts = offsets[:-1]
    jump, has_dup = _last_occurrence(nodes, offsets, lens, starts)
    ndup = int(np.count_nonzero(has_dup))
    if ndup == 0:
        return nodes, offsets, 0
    dup_idx = np.flatnonzero(has_dup)

    # Phase 1: erased length of every cyclic path (lockstep pointer chase;
    # iteration t keeps only the paths still emitting at position t).
    new_lens = lens.copy()
    act = dup_idx
    pos = np.zeros(act.size, dtype=np.int64)
    emitted = 1
    while True:
        j = jump[starts[act] + pos]
        done = j == lens[act] - 1
        new_lens[act[done]] = emitted
        keep = ~done
        if not keep.any():
            break
        act = act[keep]
        pos = j[keep] + 1
        emitted += 1

    new_offsets = np.zeros(N + 1, dtype=np.int64)
    np.cumsum(new_lens, out=new_offsets[1:])
    out = np.empty(int(new_offsets[-1]), dtype=np.int64)

    # Acyclic paths copy over verbatim in one masked move.
    clean = ~has_dup
    if clean.any():
        out[np.repeat(clean, new_lens)] = nodes[np.repeat(clean, lens)]

    # Phase 2: re-chase the cyclic paths, writing erased nodes in place.
    act = dup_idx
    pos = np.zeros(act.size, dtype=np.int64)
    base = new_offsets[:-1]
    t = 0
    while act.size:
        g = starts[act] + pos
        out[base[act] + t] = nodes[g]
        j = jump[g]
        keep = j != lens[act] - 1
        act = act[keep]
        pos = j[keep] + 1
        t += 1
    return out, new_offsets, ndup


def bfs_parents(
    indptr: np.ndarray, heads: np.ndarray, s: int, t: int, n: int
) -> np.ndarray:
    """Level-synchronous BFS parents over a CSR adjacency, rooted at ``s``.

    Stops once ``t``'s level is complete; ``parent[v] == -1`` marks
    unreached nodes and ``parent[s] == s``.  Each level expands the whole
    frontier in one gather.  Tie-breaking is part of the contract: within
    a level the first writer in (ascending frontier node, CSR neighbor
    order) wins — ``np.unique``'s first index over the level's gather —
    so equal-length detours are always identical.
    """
    s, t = int(s), int(t)
    parent = np.full(int(n), -1, dtype=np.int64)
    parent[s] = s
    if s == t:
        return parent
    frontier = np.asarray([s], dtype=np.int64)
    while frontier.size:
        counts = indptr[frontier + 1] - indptr[frontier]
        idx = np.repeat(indptr[frontier], counts) + (
            np.arange(int(counts.sum())) - np.repeat(np.cumsum(counts) - counts, counts)
        )
        nbrs = heads[idx]
        fresh = parent[nbrs] == -1
        nbrs = nbrs[fresh]
        srcs = np.repeat(frontier, counts)[fresh]
        uniq, first = np.unique(nbrs, return_index=True)
        parent[uniq] = srcs[first]
        if parent[t] != -1:
            break
        frontier = uniq
    return parent


def fill_box_chains(
    box_lo: np.ndarray,
    box_len: np.ndarray,
    cs: np.ndarray,
    ct: np.ndarray,
    u: np.ndarray,
    blo: np.ndarray,
    bhi: np.ndarray,
    alive: np.ndarray,
    k: int,
) -> None:
    """Scatter the bitonic ancestor chains + bridge into padded box arrays.

    Mutates ``box_lo``/``box_len`` (``(N, S, d)``, pre-filled with the
    destination single-node padding) in place: per alive packet, slots
    ``0..u-1`` get the source's type-1 ancestors at heights ``1..u``,
    slot ``u`` the bridge box ``[blo, bhi]``, slots ``u+1..2u`` the
    destination's ancestors at heights ``u..1``.  One masked scatter per
    height and chain.
    """
    rows = np.arange(cs.shape[0])
    # up chain: height j at slot j - 1
    for j in range(1, int(k)):
        mask = alive & (u >= j)
        if not mask.any():
            continue
        box_lo[mask, j - 1] = (cs[mask] >> j) << j
        box_len[mask, j - 1] = 1 << j
    # bridge at slot u
    if alive.any():
        box_lo[rows[alive], u[alive]] = blo[alive]
        box_len[rows[alive], u[alive]] = bhi[alive] - blo[alive] + 1
    # down chain: height j at slot 2u + 1 - j
    for j in range(1, int(k)):
        mask = alive & (u >= j)
        if not mask.any():
            continue
        box_lo[rows[mask], 2 * u[mask] + 1 - j] = (ct[mask] >> j) << j
        box_len[rows[mask], 2 * u[mask] + 1 - j] = 1 << j


def count_loads(ids: np.ndarray, minlength: int) -> np.ndarray:
    """Dense ``int64`` histogram of ``ids`` (the edge-load accumulate)."""
    return np.bincount(ids, minlength=int(minlength)).astype(np.int64)


def node_loads_csr(nodes: np.ndarray, offsets: np.ndarray, n: int) -> np.ndarray:
    """Per-node visiting-path counts over a CSR collection.

    A path visiting a node several times counts once for that node.  Paths
    are bucketed by length; one row-wise sort dedupes each bucket.
    """
    n = int(n)
    counts = np.zeros(n, dtype=np.int64)
    if nodes.size == 0:
        return counts
    npp = np.diff(offsets)
    starts = offsets[:-1]
    order = np.argsort(npp, kind="stable")
    sizes = npp[order]
    bounds = np.flatnonzero(sizes[1:] != sizes[:-1]) + 1
    group_starts = np.concatenate(([0], bounds))
    group_ends = np.concatenate((bounds, [sizes.size]))
    for gs, ge in zip(group_starts.tolist(), group_ends.tolist()):
        length = int(sizes[gs])
        if length == 0:
            continue
        rows = order[gs:ge]
        idx = starts[rows][:, None] + np.arange(length, dtype=np.int64)
        mat = np.sort(nodes[idx], axis=1)
        first = np.empty(mat.shape, dtype=bool)
        first[:, 0] = True
        np.not_equal(mat[:, 1:], mat[:, :-1], out=first[:, 1:])
        counts += np.bincount(mat[first], minlength=n)
    return counts


def stretch_ratios(lengths: np.ndarray, dists: np.ndarray) -> np.ndarray:
    """``lengths / dists`` with ``nan`` where ``dists <= 0`` (stretch pass)."""
    out = np.full(lengths.size, np.nan)
    nonzero = dists > 0
    out[nonzero] = lengths[nonzero] / dists[nonzero]
    return out
