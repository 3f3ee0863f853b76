"""The columnar path representation: one CSR structure for every layer.

A path collection is ragged — ``P`` paths of different lengths — and the
seed implementation shipped it around as ``list[np.ndarray]``, forcing
every consumer (congestion accounting, stretch, the schedulers, the
``.npz`` persistence) to re-loop over paths in Python.  :class:`PathSet`
stores the whole collection in CSR form instead:

* ``nodes``   — ``int64[total]``: every path's nodes, concatenated;
* ``offsets`` — ``int64[P + 1]``: path ``i`` is ``nodes[offsets[i]:offsets[i+1]]``.

Everything downstream becomes an array pass over shared, lazily cached
views: the per-path edge counts (:attr:`lengths`), the flat edge endpoint
streams (:attr:`edge_tails` / :attr:`edge_heads`), the per-path slices of
the flat *edge* stream (:attr:`edge_offsets`), per-element path ids
(:attr:`node_path_ids` / :attr:`edge_path_ids`), and the dense undirected
edge ids of a mesh (:meth:`edge_ids`).  This is the same move that makes
compact/semi-oblivious routing schemes practical at scale: one shared
columnar structure, no per-path Python work.

Compatibility contract
----------------------
``PathSet`` implements the immutable ``Sequence[np.ndarray]`` protocol —
``len(ps)``, ``ps[i]`` (a read-only ``int64`` view of path ``i``),
iteration, and equality array-for-array — so call sites written against
``list[np.ndarray]`` keep working unchanged.  The arrays themselves are
frozen (``writeable=False``); build a new ``PathSet`` instead of mutating.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mesh.mesh import Mesh

__all__ = ["PathSet", "SharedCSR"]


@dataclass(frozen=True)
class SharedCSR:
    """A picklable handle to a :class:`PathSet` parked in shared memory.

    Produced by :meth:`PathSet.to_shared`, consumed by
    :meth:`PathSet.from_shared`.  The handle is tiny (a segment name plus
    two counts) and crosses process boundaries for free — the CSR payload
    itself never goes through pickle.  Whoever holds the handle owns the
    segment (:mod:`repro.core.shm` ownership protocol) and must either
    consume it or :meth:`discard` it.
    """

    name: str
    num_paths: int
    num_nodes: int

    @property
    def nbytes(self) -> int:
        return 8 * (self.num_paths + 1 + self.num_nodes)

    def discard(self) -> bool:
        """Unlink the segment unconsumed (error-path cleanup)."""
        from repro.core import shm as _shm

        return _shm.discard(self.name)


def _frozen(arr: np.ndarray) -> np.ndarray:
    """A read-only int64 array that cannot alias writable caller memory.

    When the input is already contiguous ``int64``, ``ascontiguousarray``
    hands back the caller's own buffer (or a view into it); freezing a
    *view* would leave the underlying buffer writable, so a later in-place
    write through the source array could silently corrupt the CSR and
    every cached derived view.  Copy whenever any buffer the result shares
    memory with is still writable; wrap zero-copy only when the whole
    chain is already read-only.
    """
    out = np.ascontiguousarray(arr, dtype=np.int64)
    if out is arr or out.base is not None:
        root = out
        while isinstance(root.base, np.ndarray):
            root = root.base
        # A read-only memoryview root (``np.frombuffer(mv.toreadonly())``,
        # the shared-memory wrap) cannot be written through any alias, so
        # it is safe to reference zero-copy; any other non-ndarray base is
        # treated as a writable alias and copied.
        base = root.base
        base_safe = base is None or (
            isinstance(base, memoryview) and base.readonly
        )
        writable_alias = (
            out.flags.writeable or root.flags.writeable or not base_safe
        )
        out = out.copy() if writable_alias else out.view()
    out.setflags(write=False)
    return out


def _frozen_owned(arr: np.ndarray) -> np.ndarray:
    """Freeze a freshly computed array in place (no external references)."""
    arr.setflags(write=False)
    return arr


class PathSet(Sequence):
    """An immutable CSR collection of mesh paths.

    Construct with :meth:`from_paths` (any iterable of node arrays) or
    :meth:`from_arrays` (an already-flat ``nodes`` / ``offsets`` pair, the
    zero-copy path used by the batch engine and the ``.npz`` loader).
    """

    def __init__(self, nodes: np.ndarray, offsets: np.ndarray):
        nodes = _frozen(np.atleast_1d(np.asarray(nodes)))
        offsets = _frozen(np.atleast_1d(np.asarray(offsets)))
        if nodes.ndim != 1 or offsets.ndim != 1:
            raise ValueError("nodes and offsets must be 1-D arrays")
        if offsets.size == 0 or offsets[0] != 0 or offsets[-1] != nodes.size:
            raise ValueError(
                "offsets must run from 0 to nodes.size "
                f"(got {offsets[:1]}..{offsets[-1:]} over {nodes.size} nodes)"
            )
        if np.any(np.diff(offsets) < 0):
            raise ValueError("offsets must be non-decreasing")
        self.nodes = nodes
        self.offsets = offsets
        self._edge_id_cache: dict = {}

    # -- constructors --------------------------------------------------
    @classmethod
    def from_arrays(cls, nodes: np.ndarray, offsets: np.ndarray) -> "PathSet":
        """Wrap existing CSR arrays (no copy when already ``int64``)."""
        return cls(nodes, offsets)

    @classmethod
    def from_lengths(cls, nodes: np.ndarray, lengths: np.ndarray) -> "PathSet":
        """Wrap a flat node array plus per-path *node counts*."""
        lengths = np.asarray(lengths, dtype=np.int64)
        offsets = np.zeros(lengths.size + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        offsets.setflags(write=False)  # freshly built: freeze for zero-copy wrap
        return cls(nodes, offsets)

    # -- shared-memory interchange -------------------------------------
    def to_shared(self) -> SharedCSR:
        """Park this CSR in a fresh shared-memory segment; hand off ownership.

        Layout: ``offsets`` (``num_paths + 1`` int64) then ``nodes``,
        little meta beyond the returned :class:`SharedCSR` handle.  The
        calling process gives up its claim immediately
        (:func:`repro.core.shm.handoff`), so the receiver of the handle —
        typically the other side of a process boundary — is the sole owner
        and must unlink after consuming (:meth:`from_shared` +
        :meth:`close_shared`, or :meth:`SharedCSR.discard`).
        """
        from repro.core import shm as _shm

        off, nod = self.offsets, self.nodes
        seg = _shm.create_segment(8 * (off.size + nod.size))
        buf = np.frombuffer(seg.buf, dtype=np.int64, count=off.size + nod.size)
        buf[: off.size] = off
        buf[off.size :] = nod
        desc = SharedCSR(seg.name, self.num_paths, self.total_nodes)
        del buf  # drop the buffer export before closing the mapping
        _shm.handoff(seg)
        return desc

    @classmethod
    def from_shared(cls, desc: SharedCSR, *, copy: bool = False) -> "PathSet":
        """Open a :class:`SharedCSR` handle as a PathSet.

        ``copy=False`` (the zero-copy path) wraps read-only views straight
        over the segment: no bytes move, but the PathSet now *owns* the
        segment and must be released with :meth:`close_shared` when done.
        ``copy=True`` copies out, closes the mapping immediately, and
        leaves the segment linked for other consumers (call
        :meth:`SharedCSR.discard` when the handle is retired).
        """
        from repro.core import shm as _shm

        seg = _shm.attach(desc.name)
        if min(desc.num_paths, desc.num_nodes) < 0 or desc.nbytes > seg.size:
            seg.close()
            raise ValueError(
                f"shared CSR handle {desc.name!r} claims {desc.nbytes} bytes; "
                f"its segment holds {seg.size}"
            )
        ro = seg.buf.toreadonly()
        off = np.frombuffer(ro, dtype=np.int64, count=desc.num_paths + 1)
        nod = np.frombuffer(
            ro, dtype=np.int64, count=desc.num_nodes, offset=8 * (desc.num_paths + 1)
        )
        if copy:
            ps = cls(nod.copy(), off.copy())
            del nod, off, ro
            seg.close()
            return ps
        ps = cls(nod, off)
        ps._shm = seg
        return ps

    def close_shared(self, *, unlink: bool = False) -> bool:
        """Release the shared segment backing this PathSet.

        Terminal: every array of the PathSet (and every cached derived
        view) is dropped so the mapping can actually be released — the
        object must not be used afterwards.  ``unlink=True`` additionally
        removes the segment itself, the final act of ownership.  Returns
        ``False`` (and does nothing) when this PathSet is not
        shared-memory backed, so unconditional cleanup is safe.
        """
        seg = self.__dict__.pop("_shm", None)
        if seg is None:
            return False
        self.__dict__.clear()  # nodes/offsets + caches alias the mapping
        self.nodes = _frozen_owned(np.empty(0, dtype=np.int64))
        self.offsets = _frozen_owned(np.zeros(1, dtype=np.int64))
        self._edge_id_cache = {}
        try:
            seg.close()
        except BufferError as exc:  # pragma: no cover - caller kept a view
            raise BufferError(
                "cannot release shared PathSet segment: views of its arrays "
                "escaped; copy them (or use from_shared(copy=True)) first"
            ) from exc
        if unlink:
            try:
                seg.unlink()
            except FileNotFoundError:
                # Already reclaimed — e.g. an orphan sweep unlinked the name
                # after this PathSet attached.  The mapping was still valid
                # (POSIX keeps unlinked segments alive while mapped), so
                # nothing was lost; unlink is simply done.
                pass
        return True

    @classmethod
    def from_paths(cls, paths: "PathSet" | Iterable[np.ndarray]) -> "PathSet":
        """Convert a list of per-path node arrays (idempotent on PathSet).

        Raises ``ValueError`` on a non-empty float, bool or object node
        array: casting it would route a truncated or made-up path.
        """
        if isinstance(paths, PathSet):
            return paths
        parts = []
        for p in paths:
            raw = np.asarray(p)
            if raw.size and not np.issubdtype(raw.dtype, np.integer):
                raise ValueError(
                    f"path nodes must have an integer dtype, got {raw.dtype}"
                )
            parts.append(raw.astype(np.int64, copy=False).reshape(-1))
        lengths = np.asarray([p.size for p in parts], dtype=np.int64)
        nodes = (
            np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
        )
        nodes.setflags(write=False)  # np.concatenate always copies: ours to freeze
        return cls.from_lengths(nodes, lengths)

    # -- shape ---------------------------------------------------------
    @property
    def num_paths(self) -> int:
        return self.offsets.size - 1

    @property
    def total_nodes(self) -> int:
        return self.nodes.size

    @property
    def nodes_per_path(self) -> np.ndarray:
        """``int64[P]``: node count of every path."""
        if not hasattr(self, "_nodes_per_path"):
            self._nodes_per_path = _frozen_owned(np.diff(self.offsets))
        return self._nodes_per_path

    @property
    def lengths(self) -> np.ndarray:
        """``int64[P]``: edge count ``|p_i|`` of every path (>= 0)."""
        if not hasattr(self, "_lengths"):
            self._lengths = _frozen_owned(np.maximum(self.nodes_per_path - 1, 0))
        return self._lengths

    @property
    def total_edges(self) -> int:
        return int(self.lengths.sum())

    # -- flat edge streams ---------------------------------------------
    def _in_path_pairs(self) -> np.ndarray:
        """``bool[total_nodes - 1]``: whether the consecutive node pair
        ``(nodes[i], nodes[i + 1])`` is an edge of one path, ``False`` for
        a pair across a path boundary (``nodes[i]`` ends its path)."""
        inner = np.ones(self.total_nodes, dtype=bool)
        inner[self.offsets[1:][self.nodes_per_path > 0] - 1] = False
        return inner[:-1]  # the last node always ends a path

    def _edge_streams(self) -> None:
        """Cache :attr:`edge_tails` and :attr:`edge_heads`: every node but a
        path's last is a tail, and the node after it the head."""
        inner = self._in_path_pairs()
        self._edge_tails = _frozen_owned(self.nodes[:-1][inner])
        self._edge_heads = _frozen_owned(self.nodes[1:][inner])

    @property
    def edge_tails(self) -> np.ndarray:
        """``int64[total_edges]``: tail node of every edge, path-major."""
        if not hasattr(self, "_edge_tails"):
            self._edge_streams()
        return self._edge_tails

    @property
    def edge_heads(self) -> np.ndarray:
        """``int64[total_edges]``: head node of every edge, path-major."""
        if not hasattr(self, "_edge_heads"):
            self._edge_streams()
        return self._edge_heads

    @property
    def edge_offsets(self) -> np.ndarray:
        """``int64[P + 1]``: path ``i``'s edges are the flat-edge-stream
        slice ``[edge_offsets[i], edge_offsets[i + 1])``."""
        if not hasattr(self, "_edge_offsets"):
            out = np.zeros(self.num_paths + 1, dtype=np.int64)
            np.cumsum(self.lengths, out=out[1:])
            self._edge_offsets = _frozen_owned(out)
        return self._edge_offsets

    @property
    def node_path_ids(self) -> np.ndarray:
        """``int64[total_nodes]``: owning path id of every node entry."""
        if not hasattr(self, "_node_path_ids"):
            self._node_path_ids = _frozen_owned(
                np.repeat(
                    np.arange(self.num_paths, dtype=np.int64),
                    self.nodes_per_path,
                )
            )
        return self._node_path_ids

    @property
    def edge_path_ids(self) -> np.ndarray:
        """``int64[total_edges]``: owning path id of every edge entry."""
        if not hasattr(self, "_edge_path_ids"):
            self._edge_path_ids = _frozen_owned(
                np.repeat(np.arange(self.num_paths, dtype=np.int64), self.lengths)
            )
        return self._edge_path_ids

    def edge_ids(self, mesh: "Mesh") -> np.ndarray:
        """Dense undirected ``int64`` edge ids of every edge on ``mesh``
        (cached), in :attr:`edge_tails` order.

        Raises ``ValueError`` if any consecutive node pair within a path is
        not a mesh link, or a node of such a pair is out of range — the
        same validation contract as ``mesh.edge_ids(edge_tails,
        edge_heads)``.  A pair across a path boundary is never checked.

        One ``mesh.link_ids`` lookup over the whole node stream, then the
        path-boundary pairs are dropped: the endpoint streams are never
        built.  On an error the strict lookup over the path edges raises
        the topology's own message (an out-of-range node that sits in no
        edge, e.g. a one-node path, is no error).

        Keyed by the mesh object itself (``Mesh`` hashes by shape, a
        ``GeneralGraph`` by content digest), so same-shaped topologies with
        different edge tables never collide in the cache.
        """
        key = mesh
        ids = self._edge_id_cache.get(key)
        if ids is None:
            nodes = self.nodes
            try:
                ids = mesh.link_ids(nodes[:-1], nodes[1:])[self._in_path_pairs()]
            except ValueError:  # an out-of-range node somewhere in the stream
                ids = None
            if ids is None or (ids.size and int(ids.min()) < 0):
                ids = mesh.edge_ids(self.edge_tails, self.edge_heads)
            ids = _frozen_owned(ids.astype(np.int64, copy=False))
            self._edge_id_cache[key] = ids
        return ids

    # -- Sequence protocol ---------------------------------------------
    def __len__(self) -> int:
        return self.num_paths

    def __getitem__(self, i):
        if isinstance(i, slice):
            return PathSet.from_paths([self[j] for j in range(*i.indices(len(self)))])
        i = int(i)
        if i < 0:
            i += self.num_paths
        if not 0 <= i < self.num_paths:
            raise IndexError(f"path index {i} out of range for {self.num_paths} paths")
        return self.nodes[self.offsets[i] : self.offsets[i + 1]]

    def __iter__(self) -> Iterator[np.ndarray]:
        nodes, offsets = self.nodes, self.offsets
        for i in range(self.num_paths):
            yield nodes[offsets[i] : offsets[i + 1]]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PathSet):
            return np.array_equal(self.offsets, other.offsets) and np.array_equal(
                self.nodes, other.nodes
            )
        return NotImplemented

    __hash__ = None  # mutable-adjacent semantics: equality is by content

    def to_list(self) -> list:
        """Materialise as ``list[np.ndarray]`` (fresh writable copies)."""
        return [np.array(p) for p in self]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PathSet({self.num_paths} paths, {self.total_nodes} nodes, "
            f"{self.total_edges} edges)"
        )
