"""The ``d``-dimensional mesh network model (Section 2 of the paper).

The mesh ``M`` is a ``d``-dimensional grid of nodes with side length ``m_i``
in dimension ``i``.  A link connects a node with each of its (up to) ``2d``
neighbors.  We additionally support the torus variant (wrap-around links),
which the paper uses inside proofs "for simplicity"; all routing experiments
run on the mesh.

Nodes are represented as flat integer ids in C order (row-major), i.e. the
node with coordinate vector ``c`` has id ``sum(c[i] * strides[i])`` where
``strides[i] = prod(sides[i+1:])``.  All conversions are vectorised so that
congestion accounting over millions of path edges stays in numpy.

Edges get dense integer ids so that edge loads can be accumulated with
``np.bincount``:  edges along dimension ``i`` are numbered contiguously in a
block starting at ``edge_offsets[i]``; within the block an edge is identified
by the coordinates of its lower endpoint (with dimension ``i``'s range
shortened by one on the mesh).
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

__all__ = ["Mesh"]

_INT64_MAX = int(np.iinfo(np.int64).max)


def _as_coord_array(coords: np.ndarray | Sequence[Sequence[int]], d: int) -> np.ndarray:
    """Coerce ``coords`` to a 2-D ``(k, d)`` int64 array."""
    arr = np.asarray(coords, dtype=np.int64)
    if arr.ndim == 1:
        arr = arr.reshape(1, d)
    if arr.ndim != 2 or arr.shape[1] != d:
        raise ValueError(f"expected coordinates of shape (k, {d}), got {arr.shape}")
    return arr


class Mesh:
    """A ``d``-dimensional mesh (or torus) with side lengths ``sides``.

    Parameters
    ----------
    sides:
        Sequence of per-dimension side lengths ``m_1, ..., m_d`` (each >= 1).
    torus:
        If true, add wrap-around links in every dimension with ``m_i >= 3``
        (a wrap link on a side-2 ring would duplicate an existing link).

    Examples
    --------
    >>> m = Mesh((4, 4))
    >>> m.n, m.num_edges
    (16, 24)
    >>> m.flat_to_coords(5)
    array([1, 1])
    >>> int(m.distance(0, 15))
    6
    """

    def __init__(self, sides: Sequence[int], *, torus: bool = False):
        sides = tuple(int(s) for s in sides)
        if len(sides) == 0:
            raise ValueError("mesh needs at least one dimension")
        if any(s < 1 for s in sides):
            raise ValueError(f"side lengths must be >= 1, got {sides}")
        self.sides: tuple[int, ...] = sides
        self.d: int = len(sides)
        self.torus: bool = bool(torus)
        # Sizes in Python ints first: node and edge ids are int64, and numpy
        # arithmetic would wrap an oversized mesh to a wrong (even 0) size.
        self.n: int = math.prod(sides)
        # Per-dimension number of edges and block offsets for edge ids.
        edge_counts = []
        for i, m_i in enumerate(sides):
            if m_i == 1:
                per_line = 0
            elif self.torus and m_i >= 3:
                per_line = m_i
            else:
                per_line = m_i - 1
            edge_counts.append(self.n // m_i * per_line)
        if max(self.n, sum(edge_counts)) > _INT64_MAX:
            raise ValueError(
                f"mesh {sides} is too large: node and edge ids must fit in int64"
            )
        # C-order strides: strides[-1] == 1; each is at most n.
        strides = np.ones(self.d, dtype=np.int64)
        for i in range(self.d - 2, -1, -1):
            strides[i] = strides[i + 1] * sides[i + 1]
        self.strides: np.ndarray = strides
        self._sides_arr = np.asarray(sides, dtype=np.int64)
        self._edge_counts = np.asarray(edge_counts, dtype=np.int64)
        self.edge_offsets: np.ndarray = np.concatenate(
            ([0], np.cumsum(self._edge_counts)[:-1])
        )
        self.num_edges: int = int(self._edge_counts.sum())

    def __reduce__(self):
        # Ship only the defining parameters: everything else (strides, edge
        # offsets, cached tables such as ``edge_endpoints``) derives from
        # them and rebuilds faster than it pickles into every worker task.
        return (_rebuild_mesh, (self.sides, self.torus))

    # ------------------------------------------------------------------
    # Basic identity / repr
    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "Torus" if self.torus else "Mesh"
        return f"{kind}{self.sides}"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Mesh)
            and self.sides == other.sides
            and self.torus == other.torus
        )

    def __hash__(self) -> int:
        return hash((self.sides, self.torus))

    # ------------------------------------------------------------------
    # Coordinate arithmetic
    # ------------------------------------------------------------------
    def coords_to_flat(self, coords: np.ndarray | Sequence[Sequence[int]]) -> np.ndarray:
        """Convert ``(k, d)`` coordinates to ``(k,)`` flat node ids."""
        arr = _as_coord_array(coords, self.d)
        if np.any(arr < 0) or np.any(arr >= self._sides_arr):
            raise ValueError("coordinates out of mesh bounds")
        return arr @ self.strides

    def flat_to_coords(self, flat: np.ndarray | int | Sequence[int]) -> np.ndarray:
        """Convert flat node ids to coordinates.

        A scalar id yields a ``(d,)`` vector; an array of ids yields a
        ``(k, d)`` array.
        """
        scalar = np.isscalar(flat)
        ids = np.atleast_1d(np.asarray(flat, dtype=np.int64))
        if np.any(ids < 0) or np.any(ids >= self.n):
            raise ValueError("node id out of range")
        decode = self._pow2_decode
        if decode is not None:
            shift, mask = np.asarray(decode, dtype=np.int64).T
            out = (ids[:, None] >> shift) & mask
        else:
            out = (ids[:, None] // self.strides[None, :]) % self._sides_arr[None, :]
        return out[0] if scalar else out

    def node(self, *coords: int) -> int:
        """Flat id of the node at the given coordinates (scalar helper)."""
        if len(coords) != self.d:
            raise ValueError(f"expected {self.d} coordinates, got {len(coords)}")
        return int(self.coords_to_flat([list(coords)])[0])

    def contains_coords(self, coords: np.ndarray | Sequence[Sequence[int]]) -> np.ndarray:
        """Vectorised bounds check; returns a boolean mask."""
        arr = _as_coord_array(coords, self.d)
        return np.all((arr >= 0) & (arr < self._sides_arr), axis=1)

    # ------------------------------------------------------------------
    # Distances
    # ------------------------------------------------------------------
    @cached_property
    def _pow2_decode(self) -> list[tuple[int, int]] | None:
        """Per-dimension ``(shift, mask)`` pairs when every side is a power
        of two (then every stride is too), else ``None``.  Lets hot paths
        decode coordinates with shifts instead of 64-bit div/mod.
        """
        if any(s & (s - 1) for s in self.sides):
            return None
        return [
            (int(stride).bit_length() - 1, side - 1)
            for stride, side in zip(self.strides.tolist(), self.sides)
        ]

    def distance(self, u: int | np.ndarray, v: int | np.ndarray) -> np.ndarray | int:
        """Shortest-path (L1) distance ``dist(u, v)``, vectorised.

        On the torus the per-dimension distance is the shorter way around.
        """
        scalar = np.isscalar(u) and np.isscalar(v)
        decode = self._pow2_decode
        if decode is not None:
            uu = np.atleast_1d(np.asarray(u, dtype=np.int64))
            vv = np.atleast_1d(np.asarray(v, dtype=np.int64))
            for ids in (uu, vv):
                if ids.size and (int(ids.min()) < 0 or int(ids.max()) >= self.n):
                    raise ValueError("node id out of range")
            dist = np.zeros(max(uu.size, vv.size), dtype=np.int64)
            for (shift, mask), side in zip(decode, self.sides):
                term = np.abs(((uu >> shift) & mask) - ((vv >> shift) & mask))
                if self.torus:
                    np.minimum(term, side - term, out=term)
                dist += term
            return int(dist[0]) if scalar else dist
        cu = np.atleast_2d(self.flat_to_coords(u))
        cv = np.atleast_2d(self.flat_to_coords(v))
        diff = np.abs(cu - cv)
        if self.torus:
            diff = np.minimum(diff, self._sides_arr[None, :] - diff)
        dist = diff.sum(axis=1)
        return int(dist[0]) if scalar else dist

    @property
    def diameter(self) -> int:
        """Maximum shortest-path distance between any two nodes."""
        if self.torus:
            return int(sum(s // 2 for s in self.sides))
        return int(sum(s - 1 for s in self.sides))

    # ------------------------------------------------------------------
    # Neighbors / edges
    # ------------------------------------------------------------------
    def neighbors(self, u: int) -> list[int]:
        """Flat ids of the (up to ``2d``) neighbors of node ``u``."""
        c = self.flat_to_coords(u)
        out: list[int] = []
        for i, m_i in enumerate(self.sides):
            if m_i == 1:
                continue
            for delta in (-1, 1):
                ci = c[i] + delta
                if 0 <= ci < m_i:
                    out.append(int(u + delta * self.strides[i]))
                elif self.torus and m_i >= 3:
                    wrapped = ci % m_i
                    out.append(int(u + (wrapped - c[i]) * self.strides[i]))
        return sorted(set(out))

    def degree(self, u: int) -> int:
        """Number of links incident to node ``u``."""
        return len(self.neighbors(u))

    def iter_nodes(self) -> Iterator[int]:
        """Iterate over all flat node ids."""
        return iter(range(self.n))

    @cached_property
    def _edge_id_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """``(gap_row, table)``: the lookup tables behind :meth:`link_ids`.

        A pair ``(t, h)`` with ``lo = min(t, h)`` and gap ``a = |h - t|``
        is a link of at most one *slot*: a plain link of a dimension with
        ``m_i > 1`` (``a == strides[i]``) or, on a torus dimension with
        ``m_i >= 3``, its wrap link (``a == (m_i - 1) * strides[i]``).
        ``table`` holds one row of ``n`` entries per slot plus a last row
        of ``-1``; entry ``lo`` of a slot's row is that link's edge id, or
        ``-1`` when ``lo`` has no such link.

        ``gap_row`` is indexed by the *signed* gap ``g = h - t`` (``2n - 1``
        entries; a negative ``g`` wraps to the back half, numpy style) and
        holds the flat offset of gap ``|g|``'s row (the ``-1`` row for
        every gap that is no slot's) plus ``min(g, 0)``.  Since
        ``t + min(g, 0) == lo``, an edge id is ``table[gap_row[h - t] + t]``.

        Both are built once per mesh from the closed form in
        :meth:`edge_ids`, vectorised over all nodes: ``O(d * n)`` entries,
        ``int32`` when ``num_edges`` fits (``int64`` otherwise), plus the
        ``int64[2n - 1]`` gap map.
        """
        n = self.n
        lo = np.arange(n, dtype=np.int64)
        gaps: list[int] = []
        rows: list[np.ndarray] = []
        for i, (m_i, s_i) in enumerate(zip(self.sides, self.strides.tolist())):
            if m_i == 1:
                continue
            off = int(self.edge_offsets[i])
            line = (lo // s_i) % m_i  # the coordinate along dimension i
            ring = self.torus and m_i >= 3
            plain = off + lo if ring else off + lo - (lo // (s_i * m_i)) * s_i
            gaps.append(s_i)
            rows.append(np.where(line < m_i - 1, plain, -1))
            if ring:
                gaps.append((m_i - 1) * s_i)
                rows.append(np.where(line == 0, off + lo + (m_i - 1) * s_i, -1))
        rows.append(np.full(n, -1, dtype=np.int64))
        dtype = np.int32 if self.num_edges <= np.iinfo(np.int32).max else np.int64
        table = np.concatenate(rows).astype(dtype)
        no_link = len(gaps) * n  # offset of the -1 row
        gap_row = np.full(2 * n - 1, no_link, dtype=np.int64)
        gap_row[n:] += np.arange(1 - n, 0)  # a negative gap g: no_link + g
        for slot, gap in enumerate(gaps):
            gap_row[gap] = slot * n
            gap_row[-gap] = slot * n - gap
        table.setflags(write=False)
        gap_row.setflags(write=False)
        return gap_row, table

    def link_ids(self, tails: np.ndarray, heads: np.ndarray) -> np.ndarray:
        """Edge ids of node-id pairs ``(tails, heads)``, ``-1`` for a non-link.

        The one id lookup of the mesh: :meth:`edge_ids` and
        :meth:`PathSet.edge_ids <repro.core.pathset.PathSet.edge_ids>` both
        read it.  Returns a flat array in the lookup table's dtype
        (``int32`` unless ``num_edges`` needs ``int64``), in input order.
        Raises ``ValueError`` if any node id is outside ``[0, n)``.
        """
        tails = np.asarray(tails, dtype=np.int64)
        heads = np.asarray(heads, dtype=np.int64)
        if tails.shape != heads.shape:
            raise ValueError("tails and heads must have the same shape")
        gap_row, table = self._edge_id_tables
        if tails.size == 0:
            return np.empty(0, dtype=table.dtype)
        # Read as unsigned, a negative id is huge: one max checks both ends.
        n = self.n
        if max(int(tails.view(np.uint64).max()), int(heads.view(np.uint64).max())) >= n:
            raise ValueError("node id out of range")
        idx = gap_row[(heads - tails).ravel()]
        idx += tails.ravel()
        return np.take(table, idx)

    def edge_ids(self, tails: np.ndarray, heads: np.ndarray) -> np.ndarray:
        """Dense undirected edge ids for node-id pairs ``(tails, heads)``.

        Each pair must be a mesh link.  The id layout groups edges by
        dimension (block ``i`` starts at ``off_i = edge_offsets[i]``) and
        within a block enumerates the *lower* endpoint's coordinates in C
        order, with dimension ``i``'s extent shortened to ``m_i - 1`` on the
        mesh (or kept at ``m_i`` on the torus, where the wrap edge has
        lower-endpoint coordinate ``m_i - 1``).

        The ids are defined by a closed form in the flat ids alone.  With
        ``lo = min(t, h)``, ``a = |h - t|`` and ``s_i = strides[i]``, for
        each dimension with ``m_i > 1``:

        * a *plain* link has ``a == s_i`` and ``(lo // s_i) % m_i < m_i - 1``;
          its id is ``off_i + lo - (lo // (s_i * m_i)) * s_i`` when the
          extent is shortened, and ``off_i + lo`` on a torus dimension with
          ``m_i >= 3``;
        * on a torus dimension with ``m_i >= 3``, a *wrap* link has
          ``a == (m_i - 1) * s_i`` and ``(lo // s_i) % m_i == 0``; its id is
          ``off_i + lo + (m_i - 1) * s_i``.

        Strides of dimensions with ``m_i > 1`` are distinct, so a pair meets
        at most one of these conditions.  The per-mesh tables of
        :attr:`_edge_id_tables` hold this formula for every ``(a, lo)``, so
        a batch costs one :meth:`link_ids` gather.

        Returns ``int64`` ids.  Raises ``ValueError`` if any node id is
        outside ``[0, n)`` or any pair is not a link.
        """
        ids = self.link_ids(tails, heads)
        if ids.size and int(ids.min()) < 0:
            raise ValueError("some pairs are not mesh links")
        return ids.astype(np.int64, copy=False)

    def edge_id_to_endpoints(self, edge_id: int) -> tuple[int, int]:
        """Inverse of :meth:`edge_ids` for a single edge id."""
        if not (0 <= edge_id < self.num_edges):
            raise ValueError("edge id out of range")
        dim = int(np.searchsorted(self.edge_offsets, edge_id, side="right") - 1)
        rem = edge_id - int(self.edge_offsets[dim])
        extent = list(self.sides)
        m_i = self.sides[dim]
        wrap_dim = self.torus and m_i >= 3
        if not wrap_dim:
            extent[dim] = m_i - 1
        coords = []
        for j in range(self.d - 1, -1, -1):
            coords.append(rem % extent[j])
            rem //= extent[j]
        low = np.asarray(coords[::-1], dtype=np.int64)
        high = low.copy()
        high[dim] = (low[dim] + 1) % m_i
        u = int(low @ self.strides)
        v = int(high @ self.strides)
        return (u, v)

    @cached_property
    def edge_endpoints(self) -> np.ndarray:
        """Canonical endpoints of every edge: a read-only ``(E, 2)`` table.

        Row ``e`` is ``edge_id_to_endpoints(e)`` — column 0 the canonical
        *lower* endpoint, column 1 the higher (for a wrap edge, the node at
        coordinate 0).  Built with one vectorised pass per dimension block,
        so orientation lookups (``directed_edge_loads``) and CSR adjacency
        construction never loop over edge ids in Python.
        """
        out = np.empty((self.num_edges, 2), dtype=np.int64)
        for i, m_i in enumerate(self.sides):
            cnt = int(self._edge_counts[i])
            if cnt == 0:
                continue
            extent = self._sides_arr.copy()
            if not (self.torus and m_i >= 3):
                extent[i] = m_i - 1
            rem = np.arange(cnt, dtype=np.int64)
            coords = np.empty((cnt, self.d), dtype=np.int64)
            for j in range(self.d - 1, -1, -1):
                coords[:, j] = rem % extent[j]
                rem //= extent[j]
            off = int(self.edge_offsets[i])
            out[off : off + cnt, 0] = coords @ self.strides
            coords[:, i] = (coords[:, i] + 1) % m_i
            out[off : off + cnt, 1] = coords @ self.strides
        out.setflags(write=False)
        return out

    def adjacency_csr(
        self, edge_mask: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """CSR adjacency ``(indptr, heads, eids)`` over a subset of edges.

        ``edge_mask`` is a boolean ``(num_edges,)`` mask selecting the edges
        to keep (``None`` keeps all).  Node ``u``'s neighbors are
        ``heads[indptr[u]:indptr[u + 1]]`` and the connecting undirected
        edge ids are the matching slice of ``eids``.  Built in a few array
        passes — the fault-aware detour search runs BFS on this structure
        rather than calling :meth:`neighbors` per node.
        """
        ep = self.edge_endpoints
        if edge_mask is not None:
            mask = np.asarray(edge_mask, dtype=bool)
            if mask.shape != (self.num_edges,):
                raise ValueError(
                    f"edge_mask must have shape ({self.num_edges},), got {mask.shape}"
                )
            ep = ep[mask]
            kept = np.flatnonzero(mask)
        else:
            kept = np.arange(self.num_edges, dtype=np.int64)
        tails = np.concatenate((ep[:, 0], ep[:, 1]))
        heads = np.concatenate((ep[:, 1], ep[:, 0]))
        eids = np.concatenate((kept, kept))
        order = np.argsort(tails, kind="stable")
        counts = np.bincount(tails, minlength=self.n)
        indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return indptr, heads[order], eids[order]

    def all_edges(self) -> np.ndarray:
        """All edges as an ``(E, 2)`` array of endpoint node ids.

        Row ``e`` holds the endpoints of the edge with id ``e``; a writable
        copy of :attr:`edge_endpoints`.
        """
        return self.edge_endpoints.copy()

    # ------------------------------------------------------------------
    # Interop
    # ------------------------------------------------------------------
    def to_networkx(self):
        """Build a ``networkx.Graph`` view of the mesh (small meshes only)."""
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(range(self.n))
        for e in range(self.num_edges):
            u, v = self.edge_id_to_endpoints(e)
            g.add_edge(u, v, edge_id=e)
        return g

    # ------------------------------------------------------------------
    # Paper-specific helpers
    # ------------------------------------------------------------------
    @property
    def is_power_of_two_cube(self) -> bool:
        """True iff all sides are equal and a power of two (paper's setting)."""
        m = self.sides[0]
        return all(s == m for s in self.sides) and (m & (m - 1)) == 0

    @property
    def k(self) -> int:
        """``log2`` of the side length, for power-of-two cube meshes."""
        if not self.is_power_of_two_cube:
            raise ValueError("k is only defined for equal power-of-two sides")
        return int(math.log2(self.sides[0]))


def _rebuild_mesh(sides: tuple[int, ...], torus: bool) -> Mesh:
    """Unpickle a :class:`Mesh` from its defining parameters."""
    return Mesh(sides, torus=torus)


def pad_to_power_of_two(mesh: Mesh) -> Mesh:
    """Smallest equal-sided power-of-two mesh containing ``mesh``.

    The paper's hierarchical algorithm assumes equal side lengths ``2^k``.
    Problems on arbitrary meshes can be embedded: node coordinates are
    unchanged, so any (s, t) pair of the original mesh is a valid pair of the
    padded mesh.  Selected paths may leave the original mesh, which is why
    this is an embedding helper rather than a transparent fallback.
    """
    m = max(mesh.sides)
    m = 1 << (m - 1).bit_length()
    return Mesh((m,) * mesh.d, torus=mesh.torus)


__all__.append("pad_to_power_of_two")
