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
because ``w[0]`` never reappears).  The last-exit form vectorises in two
steps with no per-path sort: a table of last visits, then a chase over
runs.

*Last visits.*  ``skip[g]`` is how far past position ``g`` the last visit
of ``nodes[g]`` in its path lies; it is 0 at a last visit.  Ids first map
to a dense range ``[0, span)``: minus their minimum when ``span = max -
min + 1`` is at most the number of positions, by ``np.unique`` rank
otherwise.  That one rule covers the engine's ids in ``[0, n)``,
negative ids and ids across the whole ``int64`` range.  Paths then pass
through one table in chunks of ``K = max(1, TABLE_CELLS // span)``:
each position is keyed ``local path * span + id``, the chunk's positions
are scattered into the table in ascending order, so every key keeps its
last visit, and a gather reads it back.  numpy documents no order for
repeated scatter indices, so the kernel checks the one it relies on: an
earlier write that survived would read back below a later visit's
position and leave a negative ``skip``, and the kernel raises.

*A chase over runs.*  A position with ``skip == 0`` is kept and steps to
the next position, so a chaser moves a run at a time.  A *stop* is a
position with ``skip > 0`` or a path's last position.  Each non-empty
path's chaser keeps the run from where it stands to the next stop (one
``searchsorted`` over the stops), then jumps to ``stop + skip[stop] +
1``, past the last visit of the node it stopped on, and retires once
that passes its path's end.  A path takes one round more than the jumps
it keeps, not one per position.  Per-path sums of run lengths give the output
offsets, and the runs, sorted by start, expand with the gaps between
them into the kept mask in one ``np.repeat``.  No per-path Python loop
runs; the work is O(total) plus a few numpy calls per chunk of paths.

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
    signed strides and step counts, the same number of entries for every
    packet; ``flat_s`` the per-packet source node ids; ``lens``/``starts``
    the per-packet node counts and output offsets (``starts = exclusive
    cumsum of lens``, ``total = lens.sum()``).  Returns the
    ``int64[total]`` node buffer: path ``p`` occupies ``[starts[p],
    starts[p] + lens[p])`` and integrates ``flat_s[p]`` through its
    repeated step values.

    Jump anchoring: path ``p`` ends at ``end[p] = flat_s[p] + sum(values *
    counts)`` over its entries, so one leading jump step ``flat_s[p] -
    end[p - 1]`` (``flat_s[0]`` for the first path) carries a running sum
    from the previous path's last node to this path's source.  The buffer
    is then one ``np.repeat`` of the steps and one in-place ``cumsum``.
    """
    total = int(total)
    N = flat_s.shape[0]
    if N == 0:
        return np.zeros(total, dtype=np.int64)
    values = values.reshape(N, -1)
    counts = counts.reshape(N, -1)
    end = np.einsum("ij,ij->i", values, counts)
    end += flat_s
    steps = np.empty((N, values.shape[1] + 1), dtype=np.int64)
    steps[:, 1:] = values
    steps[:, 0] = flat_s
    steps[1:, 0] -= end[:-1]
    reps = np.ones(steps.shape, dtype=counts.dtype)
    reps[:, 1:] = counts
    nodes = np.repeat(steps.reshape(-1), reps.reshape(-1))
    # In place: the node buffer sets a route's peak memory.
    np.cumsum(nodes, out=nodes)
    return nodes


#: cells of the dense last-visit table, unless the id span alone is wider
#: (then every chunk is one path; see :func:`_last_visits`)
TABLE_CELLS = 1 << 18


def _last_visits(nodes, offsets):
    """``skip[g]``: how far past ``g`` the last visit of ``nodes[g]`` in its
    path lies (0 at a last visit).

    Ids map to a dense range ``[0, span)`` first: minus the minimum when
    that range holds at most ``nodes.size`` ids, by ``np.unique`` rank
    otherwise.  Chunks of ``K`` paths then key each position as ``local
    path * span + id`` into one table of ``K * span`` cells; scattering the
    chunk's positions in ascending order leaves each key's last visit in
    the table, and a gather reads it back.  The keys are built in the
    output array, which the gather overwrites chunk by chunk.
    """
    total = nodes.size
    dt = np.int32 if total < 2**31 else np.int64
    lo = int(nodes.min())
    span = int(nodes.max()) - lo + 1
    if span <= total:
        skip = np.empty(total, dtype=dt)
        np.subtract(nodes, lo, out=skip, dtype=np.int64, casting="unsafe")
    else:
        uniq, inverse = np.unique(nodes, return_inverse=True)
        skip = inverse.astype(dt)
        span = uniq.size
    lens = np.diff(offsets)
    K = max(1, TABLE_CELLS // span)
    # Keys stay below ``max(TABLE_CELLS, total)``, so they fit ``dt``.
    skip += np.repeat((np.arange(lens.size) % K * span).astype(dt), lens)
    bounds = offsets[::K].tolist()
    if bounds[-1] != total:
        bounds.append(total)
    table = np.empty(K * span, dtype=dt)
    ar = np.arange(np.diff(bounds).max(), dtype=dt)
    for g0, g1 in zip(bounds[:-1], bounds[1:]):
        seg = skip[g0:g1]
        key = seg.astype(np.intp, copy=False)
        pos = ar[: g1 - g0]
        table[key] = pos
        np.subtract(table[key], pos, out=seg)
    # numpy documents no order for repeated scatter indices: an earlier
    # write that survived reads back below a later visit's position.
    if skip.min() < 0:
        raise RuntimeError("the last-visit scatter did not keep the last write")
    return skip


def decycle_paths(
    nodes: np.ndarray, offsets: np.ndarray
) -> tuple[np.ndarray, np.ndarray, int]:
    """Loop-erase every path of a CSR collection (earliest-visit semantics).

    Returns ``(nodes, offsets, changed)`` where ``changed`` counts the
    paths that contained a revisited node.  When ``changed == 0`` the
    input arrays themselves are returned.  Per path the result equals
    :func:`repro.mesh.paths.remove_cycles` exactly — the scalar oracle
    :func:`repro.verify.oracles.oracle_remove_cycles` referees it.  The
    output arrays are ``int64``; any ``int64`` ids are accepted.
    """
    if offsets.size == 1 or nodes.size == 0:
        return nodes, offsets, 0
    skip = _last_visits(nodes, offsets)
    jumps = np.flatnonzero(skip > 0)
    if jumps.size == 0:
        return nodes, offsets, 0
    # A chaser keeps the run up to its next stop (a jump, or its path's
    # last position, whose skip is 0), then jumps past the last visit of
    # the node it stops on.
    jumps = np.append(jumps, nodes.size)
    lens = np.diff(offsets)
    paths = np.flatnonzero(lens)
    cur, end = offsets[paths], offsets[paths + 1]
    out_lens = np.zeros(lens.size, dtype=np.int64)
    firsts, lasts = [], []
    while paths.size:
        last = np.minimum(jumps[np.searchsorted(jumps, cur)], end - 1)
        firsts.append(cur)
        lasts.append(last)
        out_lens[paths] += last + 1 - cur
        cur = last + 1 + skip[last]
        live = cur < end
        paths, cur, end = paths[live], cur[live], end[live]
    # Kept runs and the gaps between them, in stream order, expand into
    # the kept mask with one repeat.
    first = np.concatenate(firsts)
    order = np.argsort(first)
    first = first[order]
    last = np.concatenate(lasts)[order]
    runs = np.empty(2 * first.size + 1, dtype=np.int64)
    runs[0] = first[0]
    runs[1::2] = last + 1 - first
    runs[2:-1:2] = first[1:] - last[:-1] - 1
    runs[-1] = nodes.size - 1 - last[-1]
    kept = np.zeros(runs.size, dtype=bool)
    kept[1::2] = True
    out = nodes[np.repeat(kept, runs)].astype(np.int64, copy=False)
    out_offsets = np.zeros(lens.size + 1, dtype=np.int64)
    np.cumsum(out_lens, out=out_offsets[1:])
    return out, out_offsets, int(np.count_nonzero(out_lens != lens))


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
    """Write the bitonic ancestor chains + bridge into padded box arrays.

    Fills ``box_lo``/``box_len`` (``(N, S, d)``) in place: per alive
    packet (``0 <= u < k``, ``2u < S``), slots ``0..u-1`` get the source's
    type-1 ancestors at heights ``1..u``, slot ``u`` the bridge box ``[blo,
    bhi]``, slots ``u+1..2u`` the destination's ancestors at heights
    ``u..1``.  Every other slot, and every slot of a dead packet, gets the
    destination's single-node box, so the arrays need no pre-fill.

    One pass per dimension, with no per-height loop: slot ``q`` of a
    packet holds height ``h = max(u + 1 - |q - u|, 0)`` of the source's
    chain when ``q < u`` and of the destination's otherwise (height 0, the
    node itself, is the padding), i.e. the box ``c & -(1 << h)`` of side
    ``1 << h``.  Both depend on ``u`` alone, so they come from ``(k + 1,
    S)`` tables (the last row for dead packets) in one row gather.  The
    bridge is then scattered once over slot ``u``.
    """
    N, S, d = box_lo.shape
    slot = np.arange(S)
    u_row = np.arange(k + 1)[:, None]
    height = np.maximum(u_row + 1 - np.abs(slot - u_row), 0)
    height[k] = 0
    from_dest = slot >= u_row
    from_dest[k] = True
    key = np.where(alive, u, k)
    side = np.left_shift(1, height)[key]
    mask = -side  # clears the low h bits
    # Flat index into the per-dimension (N, 2) table of chain ends.
    pick = from_dest[key] + np.arange(0, 2 * N, 2)[:, None]
    ends = np.empty((N, 2), dtype=box_lo.dtype)
    for j in range(d):
        ends[:, 0] = cs[:, j]
        ends[:, 1] = ct[:, j]
        lo = ends.reshape(-1)[pick]
        lo &= mask
        box_lo[:, :, j] = lo
        box_len[:, :, j] = side
    rows = np.flatnonzero(alive)
    box_lo[rows, u[rows]] = blo[rows]
    box_len[rows, u[rows]] = bhi[rows] - blo[rows] + 1


def count_loads(ids: np.ndarray, minlength: int) -> np.ndarray:
    """Dense ``int64`` histogram of ``ids`` (the edge-load accumulate)."""
    return np.bincount(ids, minlength=int(minlength)).astype(np.int64)


def node_loads_csr(nodes: np.ndarray, offsets: np.ndarray, n: int) -> np.ndarray:
    """Per-node visiting-path counts over a CSR collection.

    A path visiting a node several times counts once for that node: only
    its last visit, where :func:`_last_visits` reads 0, is counted.
    """
    n = int(n)
    if nodes.size == 0:
        return np.zeros(n, dtype=np.int64)
    last = nodes[_last_visits(nodes, offsets) == 0]
    return np.bincount(last, minlength=n).astype(np.int64, copy=False)


def stretch_ratios(lengths: np.ndarray, dists: np.ndarray) -> np.ndarray:
    """``lengths / dists`` with ``nan`` where ``dists <= 0`` (stretch pass)."""
    out = np.full(lengths.size, np.nan)
    nonzero = dists > 0
    out[nonzero] = lengths[nonzero] / dists[nonzero]
    return out
