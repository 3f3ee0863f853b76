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
steps: a table of next pointers, then one lockstep pointer chase.

*Next pointers.*  ``nxt[g]`` is the stream position just after the last
occurrence of ``nodes[g]`` in its path.  Paths are grouped into length
classes, walked from the longest length down; adjacent lengths merge
until a class holds ``MIN_CLASS_ROWS`` rows, so a small batch costs a
class or two rather than one per distinct length.  Each class is a dense
``(k, L)`` matrix, and a shorter row's padding slot ``c`` holds
``min(ids, 0) - 1 - c``: distinct and below every node id, so padding
never joins a run of real values.  Each row is sorted by the packed key
``(value << b) | column`` with ``b = (L - 1).bit_length()``, in ``int32``
when the id range allows and ``int64`` otherwise.  Every value becomes
one run of ascending keys.  Because keys ascend along a sorted row, the
nearest run end at or after a column holds the smallest run-end key
there: a running minimum over the reversed row, with every other column
set to the dtype's maximum, hands each column its run's end key, whose
low ``b`` bits are the value's last column.  The result is scattered
straight to the stream positions; padding goes to a sink slot.

*One chase.*  Starting from every cyclic path's first position, the
chase marks the position kept and follows ``nxt``, all paths in
lockstep.  A chaser that runs past its path's end walks on through the
next path's kept positions, and at the next compaction, every
``CHASE_COMPACT`` rounds, it stands on a position already kept and is
dropped.  The kept positions give the output nodes, and a
``searchsorted`` of them against the input offsets gives the output
offsets.  No per-path Python loop runs, and the work is O(total) plus a
sort of each row.

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


#: a merged length class grows until it holds at least this many rows
MIN_CLASS_ROWS = 32
#: pointer-chase rounds between compactions of the active set
CHASE_COMPACT = 8


def _length_classes(lens, min_rows=1):
    """Group path indices into length classes, longest first.

    Yields ``(L, rows)``: ``rows`` indexes paths of length at most ``L``,
    and at least one of them has length exactly ``L``.  Distinct lengths
    are walked from the longest down, and adjacent lengths merge into one
    class until it holds ``min_rows`` rows (the shortest class may hold
    fewer).  ``min_rows=1`` gives one class per distinct length.
    """
    order = np.argsort(lens, kind="stable")
    sizes = lens[order]
    edges = [0, *(np.flatnonzero(sizes[1:] != sizes[:-1]) + 1).tolist()]
    end = sizes.size
    for i in range(len(edges) - 1, -1, -1):
        start = edges[i]
        if end - start >= min_rows or i == 0:
            yield int(sizes[end - 1]), order[start:end]
            end = start


def _next_pointers(nodes, lens, starts):
    """``(nxt, has_dup)``: the chase's pointer table (module docstring).

    ``nxt[g]`` is the stream position after the last occurrence of
    ``nodes[g]`` in its path, and ``has_dup[p]`` whether path ``p``
    revisits a node.  ``nxt`` has one extra slot, ``total``, which
    receives the padding's writes.
    """
    total = nodes.size
    longest = int(lens.max())
    b = max(longest - 1, 1).bit_length()
    # Padding slot c of a class holds ``pad0 - c``: distinct, and below
    # every node id, so padding never joins a run of real values.
    pad0 = min(int(nodes.min()), 0) - 1
    lo, hi = pad0 - longest, int(nodes.max())
    narrow = (
        total < 2**31 - 1
        and lo << b >= -(2**31)
        and (hi << b) | ((1 << b) - 1) < 2**31
    )
    kdt = np.int32 if narrow else np.int64
    kmax = np.iinfo(kdt).max
    values = nodes.astype(kdt, copy=False)
    nxt = np.empty(total + 1, dtype=np.int32 if total < 2**31 - 1 else np.int64)
    has_dup = np.zeros(lens.size, dtype=bool)
    for L, rows in _length_classes(lens, MIN_CLASS_ROWS):
        rl = lens[rows]
        bits = (L - 1).bit_length()
        mask = (1 << bits) - 1
        cols = np.arange(L, dtype=kdt)
        rs = starts[rows]
        idx = rs[:, None] + cols
        padded = int(rl[0]) != L  # rows ascend by length
        if padded:
            np.minimum(idx, total - 1, out=idx)
            key = values[idx]
            np.copyto(key, (pad0 - cols).astype(kdt), where=cols >= rl[:, None])
        else:
            key = values[idx]
        # One key per (value, column): a plain row sort orders by value
        # and, within a value, by column.
        key <<= bits
        key |= cols
        key.sort(axis=1)
        np.bitwise_and(key, mask, out=idx)  # sorted column -> original column
        sv = key >> bits
        same = sv[:, 1:] == sv[:, :-1]
        has_dup[rows] = same.any(axis=1)
        # Run-end fill: within a row the keys ascend, so the nearest run
        # end at or after a column holds the smallest run-end key there,
        # and its low bits are the value's last column.
        np.copyto(key[:, :-1], kmax, where=same)
        rev = key[:, ::-1]
        np.minimum.accumulate(rev, axis=1, out=rev)
        key &= mask
        key += (rs + 1)[:, None].astype(kdt)
        idx += rs[:, None]
        if padded:
            np.copyto(idx, total, where=idx >= (rs + rl)[:, None])
        nxt[idx] = key
    return nxt, has_dup


def _kept_positions(nodes, lens, starts):
    """``(kept, changed)``: the stream positions loop erasure keeps.

    ``changed`` counts the cyclic paths; when it is 0, ``kept`` is None.
    """
    total = nodes.size
    nxt, has_dup = _next_pointers(nodes, lens, starts)
    changed = int(np.count_nonzero(has_dup))
    if changed == 0:
        return None, 0
    nxt[total] = total  # the sink loops on itself
    # One lockstep chase from every cyclic path's start marks the kept
    # positions.  A chaser that runs past its path's end walks on through
    # the next path's kept positions (or parks in the sink); it is dropped
    # at the next compaction, where it stands on a position already kept.
    kept = np.repeat(np.append(~has_dup, True), np.append(lens, 1))
    cur = starts[has_dup]
    while cur.size:
        for _ in range(CHASE_COMPACT):
            kept[cur] = True
            cur = nxt[cur].astype(np.intp)
        cur = cur[~kept[cur]]
    return kept[:total], changed


def decycle_paths(
    nodes: np.ndarray, offsets: np.ndarray
) -> tuple[np.ndarray, np.ndarray, int]:
    """Loop-erase every path of a CSR collection (earliest-visit semantics).

    Returns ``(nodes, offsets, changed)`` where ``changed`` counts the
    paths that contained a revisited node.  When ``changed == 0`` the
    input arrays themselves are returned.  Per path the result equals
    :func:`repro.mesh.paths.remove_cycles` exactly — the scalar oracle
    :func:`repro.verify.oracles.oracle_remove_cycles` referees it.  The
    output arrays are ``int64``; node ids shifted left by the bit length
    of the longest path must fit in ``int64``.
    """
    if offsets.size == 1 or nodes.size == 0:
        return nodes, offsets, 0
    # The pointer table is freed before the output is built (peak memory).
    kept, changed = _kept_positions(nodes, np.diff(offsets), offsets[:-1])
    if changed == 0:
        return nodes, offsets, 0
    pos = np.flatnonzero(kept)
    out = nodes[pos].astype(np.int64, copy=False)
    return out, np.searchsorted(pos, offsets).astype(np.int64, copy=False), changed


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

    A path visiting a node several times counts once for that node.  Paths
    are grouped by exact length; one row-wise sort dedupes each group.
    """
    n = int(n)
    counts = np.zeros(n, dtype=np.int64)
    if nodes.size == 0:
        return counts
    starts = offsets[:-1]
    for length, rows in _length_classes(np.diff(offsets)):
        if length == 0:
            continue
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
