"""PathSet conformance suite: CSR construction, the ``Sequence`` protocol,
derived views, metric equivalence against the pre-refactor list-of-arrays
implementations, and a hypothesis fuzz layer over construction
round-trips."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.path_selection import HierarchicalRouter
from repro.core.pathset import PathSet
from repro.mesh.graph import named_graph
from repro.mesh.mesh import Mesh
from repro.mesh.paths import path_edge_endpoints, path_length
from repro.metrics.congestion import (
    congestion,
    directed_edge_loads,
    edge_loads,
    node_loads,
)
from repro.metrics.stretch import dilation, stretch, stretches
from repro.routing.baselines import ValiantRouter
from repro.workloads.generators import random_pairs
from tests.conftest import meshes


# ---------------------------------------------------------------------------
# Pre-refactor reference implementations (the seed's list-of-arrays loops),
# kept here verbatim as the behavioural contract for the columnar versions.
# ---------------------------------------------------------------------------

def _gather_edges_ref(mesh, paths):
    tails_parts, heads_parts = [], []
    for p in paths:
        p = np.asarray(p, dtype=np.int64)
        if p.size < 2:
            continue
        t, h = path_edge_endpoints(p)
        tails_parts.append(t)
        heads_parts.append(h)
    if not tails_parts:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    return np.concatenate(tails_parts), np.concatenate(heads_parts)


def edge_loads_ref(mesh, paths):
    tails, heads = _gather_edges_ref(mesh, paths)
    if tails.size == 0:
        return np.zeros(mesh.num_edges, dtype=np.int64)
    ids = mesh.edge_ids(tails, heads)
    return np.bincount(ids, minlength=mesh.num_edges).astype(np.int64)


def node_loads_ref(mesh, paths):
    counts = np.zeros(mesh.n, dtype=np.int64)
    for p in paths:
        p = np.asarray(p, dtype=np.int64)
        if p.size:
            counts += np.bincount(np.unique(p), minlength=mesh.n)
    return counts


def directed_edge_loads_ref(mesh, paths):
    """Brute-force orientation count via the scalar endpoint decoder."""
    out = np.zeros((mesh.num_edges, 2), dtype=np.int64)
    for p in paths:
        p = np.asarray(p, dtype=np.int64)
        for a, b in zip(p[:-1].tolist(), p[1:].tolist()):
            eid = int(mesh.edge_ids(np.asarray([a]), np.asarray([b]))[0])
            low, _high = mesh.edge_id_to_endpoints(eid)
            out[eid, 0 if a == low else 1] += 1
    return out


def dilation_ref(paths):
    return max((path_length(p) for p in paths), default=0)


def stretches_ref(mesh, sources, dests, paths):
    lengths = np.asarray([path_length(p) for p in paths], dtype=np.float64)
    dists = np.asarray(
        mesh.distance(np.asarray(sources), np.asarray(dests)), dtype=np.float64
    )
    out = np.full(len(paths), np.nan)
    nonzero = dists > 0
    out[nonzero] = lengths[nonzero] / dists[nonzero]
    return out


class TestConstruction:
    def test_from_paths_round_trip(self):
        paths = [np.asarray([0, 1, 2]), np.asarray([7]), np.asarray([3, 4])]
        ps = PathSet.from_paths(paths)
        back = ps.to_list()
        assert len(back) == 3
        for a, b in zip(paths, back):
            np.testing.assert_array_equal(a, b)

    def test_from_paths_idempotent(self):
        ps = PathSet.from_paths([np.asarray([0, 1])])
        assert PathSet.from_paths(ps) is ps

    def test_from_arrays_zero_copy_layout(self):
        nodes = np.asarray([5, 6, 7, 2], dtype=np.int64)
        offsets = np.asarray([0, 3, 4], dtype=np.int64)
        ps = PathSet.from_arrays(nodes, offsets)
        assert ps[0].tolist() == [5, 6, 7]
        assert ps[1].tolist() == [2]

    def test_from_lengths(self):
        ps = PathSet.from_lengths(np.asarray([1, 2, 3]), np.asarray([2, 0, 1]))
        assert ps[0].tolist() == [1, 2]
        assert ps[1].tolist() == []
        assert ps[2].tolist() == [3]

    def test_empty_collection(self):
        ps = PathSet.from_paths([])
        assert len(ps) == 0
        assert ps.total_nodes == 0
        assert ps.total_edges == 0
        assert ps.edge_tails.size == 0

    @pytest.mark.parametrize(
        "nodes",
        [np.array([0.0, 1.0]), np.array([True, False]), np.array([0, 1], dtype=object)],
    )
    def test_non_integer_nodes_rejected(self, nodes):
        # a cast would truncate 0.9 onto node 0: refuse instead
        with pytest.raises(ValueError, match="integer dtype"):
            PathSet.from_paths([np.array([2, 3]), nodes])

    def test_empty_node_list_accepted(self):
        # ``[]`` reads as a float array, but it holds no node to truncate
        ps = PathSet.from_paths([[], [4, 5]])
        assert ps[0].tolist() == [] and ps[1].tolist() == [4, 5]
        assert ps.nodes.dtype == np.int64

    def test_bad_offsets_rejected(self):
        with pytest.raises(ValueError):
            PathSet(np.asarray([1, 2]), np.asarray([0, 1]))  # doesn't cover nodes
        with pytest.raises(ValueError):
            PathSet(np.asarray([1, 2]), np.asarray([0, 2, 1, 2]))  # decreasing

    def test_from_arrays_does_not_alias_writable_source(self):
        """Regression: when the inputs are already contiguous int64,
        ``ascontiguousarray`` hands back the caller's own buffer; freezing
        a *view* of it left the source writable, so mutating the source
        after construction silently corrupted the CSR."""
        nodes = np.asarray([0, 1, 2, 2, 3], dtype=np.int64)
        offsets = np.asarray([0, 3, 5], dtype=np.int64)
        ps = PathSet.from_arrays(nodes, offsets)
        before = [p.tolist() for p in ps]
        nodes[0] = 99
        offsets[1] = 1
        assert [p.tolist() for p in ps] == before
        assert ps.nodes.tolist() == [0, 1, 2, 2, 3]
        assert ps.offsets.tolist() == [0, 3, 5]

    def test_from_arrays_does_not_alias_writable_view(self):
        """Same failure via a view: a slice of a writable buffer must be
        copied, not frozen in place."""
        backing = np.arange(10, dtype=np.int64)
        nodes = backing[2:5]  # contiguous int64 view of writable memory
        ps = PathSet.from_arrays(nodes, np.asarray([0, 3], dtype=np.int64))
        backing[:] = -1
        assert ps.nodes.tolist() == [2, 3, 4]

    def test_from_arrays_read_only_input_wraps_zero_copy(self):
        """The flip side of the aliasing fix: genuinely immutable inputs
        (the batch engine's frozen buffers) must still wrap without a copy."""
        nodes = np.asarray([4, 5, 6], dtype=np.int64)
        offsets = np.asarray([0, 3], dtype=np.int64)
        nodes.setflags(write=False)
        offsets.setflags(write=False)
        ps = PathSet.from_arrays(nodes, offsets)
        assert np.shares_memory(ps.nodes, nodes)
        assert np.shares_memory(ps.offsets, offsets)

    def test_arrays_frozen(self):
        ps = PathSet.from_paths([np.asarray([0, 1, 2])])
        with pytest.raises(ValueError):
            ps.nodes[0] = 9
        with pytest.raises(ValueError):
            ps[0][0] = 9


class TestSequenceProtocol:
    def test_len_getitem_iter(self):
        paths = [np.asarray([0, 1]), np.asarray([4, 5, 6])]
        ps = PathSet.from_paths(paths)
        assert len(ps) == 2
        np.testing.assert_array_equal(ps[0], paths[0])
        np.testing.assert_array_equal(ps[-1], paths[1])
        for a, b in zip(ps, paths):
            np.testing.assert_array_equal(a, b)
        assert ps[0].dtype == np.int64

    def test_index_out_of_range(self):
        ps = PathSet.from_paths([np.asarray([0])])
        with pytest.raises(IndexError):
            ps[1]
        with pytest.raises(IndexError):
            ps[-2]

    def test_slice_returns_pathset(self):
        ps = PathSet.from_paths([np.asarray([i, i + 1]) for i in range(4)])
        sliced = ps[1:3]
        assert isinstance(sliced, PathSet)
        assert len(sliced) == 2
        assert sliced[0].tolist() == [1, 2]

    def test_truthiness_and_equality(self):
        a = PathSet.from_paths([np.asarray([0, 1])])
        b = PathSet.from_paths([np.asarray([0, 1])])
        c = PathSet.from_paths([np.asarray([0, 2])])
        assert a == b
        assert a != c
        assert bool(a)
        assert not PathSet.from_paths([])


class TestDerivedViews:
    def test_edge_streams_skip_path_boundaries(self):
        ps = PathSet.from_paths(
            [np.asarray([0, 1, 2]), np.asarray([9]), np.asarray([4, 5])]
        )
        assert ps.edge_tails.tolist() == [0, 1, 4]
        assert ps.edge_heads.tolist() == [1, 2, 5]
        assert ps.lengths.tolist() == [2, 0, 1]
        assert ps.edge_offsets.tolist() == [0, 2, 2, 3]
        assert ps.edge_path_ids.tolist() == [0, 0, 2]
        assert ps.node_path_ids.tolist() == [0, 0, 0, 1, 2, 2]

    def test_edge_streams_with_empty_paths(self):
        ps = PathSet.from_lengths(
            np.asarray([3, 4, 8]), np.asarray([0, 2, 0, 1, 0])
        )
        assert ps.edge_tails.tolist() == [3]
        assert ps.edge_heads.tolist() == [4]
        assert ps.lengths.tolist() == [0, 1, 0, 0, 0]

    def test_edge_ids_cached_per_mesh(self):
        mesh = Mesh((4, 4))
        ps = PathSet.from_paths([np.asarray([0, 1, 2])])
        ids1 = ps.edge_ids(mesh)
        ids2 = ps.edge_ids(Mesh((4, 4)))
        assert ids1 is ids2
        np.testing.assert_array_equal(ids1, mesh.edge_ids(ps.edge_tails, ps.edge_heads))

    def test_edge_ids_rejects_non_links(self):
        mesh = Mesh((4, 4))
        ps = PathSet.from_paths([np.asarray([0, 5])])
        with pytest.raises(ValueError):
            ps.edge_ids(mesh)


class TestEngineIntegration:
    def test_batched_route_emits_pathset(self):
        mesh = Mesh((16, 16))
        res = HierarchicalRouter().route(random_pairs(mesh, 50, seed=0), seed=1)
        assert isinstance(res.paths, PathSet)

    def test_legacy_route_coerced_to_pathset(self):
        mesh = Mesh((8, 8), torus=True)  # torus forces the per-packet loop
        res = HierarchicalRouter().route(random_pairs(mesh, 10, seed=0), seed=1)
        assert isinstance(res.paths, PathSet)
        assert res.validate()


class TestMetricEquivalence:
    """Property test: columnar metrics == the pre-refactor loops on random
    workloads (including s == t packets and decycled Valiant paths)."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize(
        "router", [HierarchicalRouter(), ValiantRouter()], ids=lambda r: r.name
    )
    def test_random_workloads(self, router, seed):
        mesh = Mesh((16, 16))
        rng = np.random.default_rng(seed)
        src = rng.integers(mesh.n, size=80)
        dst = rng.integers(mesh.n, size=80)
        dst[:5] = src[:5]  # force s == t (single-node) paths
        from repro.routing.base import RoutingProblem

        problem = RoutingProblem(mesh, src, dst)
        result = router.route(problem, seed=seed)
        ps = result.paths
        as_list = ps.to_list()

        np.testing.assert_array_equal(edge_loads(mesh, ps), edge_loads_ref(mesh, as_list))
        assert congestion(mesh, ps) == int(edge_loads_ref(mesh, as_list).max())
        np.testing.assert_array_equal(node_loads(mesh, ps), node_loads_ref(mesh, as_list))
        np.testing.assert_array_equal(
            directed_edge_loads(mesh, ps), directed_edge_loads_ref(mesh, as_list)
        )
        assert dilation(ps) == dilation_ref(as_list)
        np.testing.assert_allclose(
            stretches(mesh, src, dst, ps), stretches_ref(mesh, src, dst, as_list)
        )

    def test_list_input_still_accepted(self):
        mesh = Mesh((4, 4))
        paths = [np.asarray([0, 1, 2]), np.asarray([2, 1])]
        np.testing.assert_array_equal(
            edge_loads(mesh, paths), edge_loads_ref(mesh, paths)
        )
        assert dilation(paths) == 2
        assert stretch(mesh, np.asarray([0, 2]), np.asarray([2, 1]), paths) == 1.0


# ---------------------------------------------------------------------------
# Hypothesis fuzz layer: arbitrary path lists (empty collections, empty
# paths, single-node paths, duplicated node ids and duplicated whole paths
# all arise naturally from the strategy) round-trip through both
# constructors.
# ---------------------------------------------------------------------------

#: lists of paths over a small id space — duplicates of both kinds are common
path_lists = st.lists(
    st.lists(st.integers(0, 30), min_size=0, max_size=8),
    min_size=0,
    max_size=12,
)


class TestFuzzRoundTrips:
    @given(path_lists)
    def test_from_paths_round_trip(self, raw):
        paths = [np.asarray(p, dtype=np.int64) for p in raw]
        ps = PathSet.from_paths(paths)
        assert len(ps) == len(raw)
        assert ps.total_nodes == sum(len(p) for p in raw)
        for got, want in zip(ps.to_list(), raw):
            assert got.tolist() == want

    @given(path_lists)
    def test_from_arrays_round_trip(self, raw):
        nodes = np.asarray(
            [x for p in raw for x in p], dtype=np.int64
        )
        offsets = np.cumsum([0] + [len(p) for p in raw]).astype(np.int64)
        ps = PathSet.from_arrays(nodes, offsets)
        assert [p.tolist() for p in ps] == raw

    @given(path_lists)
    def test_constructors_agree(self, raw):
        a = PathSet.from_paths([np.asarray(p, dtype=np.int64) for p in raw])
        nodes = np.asarray([x for p in raw for x in p], dtype=np.int64)
        offsets = np.cumsum([0] + [len(p) for p in raw]).astype(np.int64)
        b = PathSet.from_arrays(nodes, offsets)
        assert a.nodes.tolist() == b.nodes.tolist()
        assert a.offsets.tolist() == b.offsets.tolist()

    @given(path_lists)
    def test_lengths_and_edge_counts(self, raw):
        ps = PathSet.from_paths([np.asarray(p, dtype=np.int64) for p in raw])
        assert ps.lengths.tolist() == [max(len(p) - 1, 0) for p in raw]
        assert ps.total_edges == sum(max(len(p) - 1, 0) for p in raw)

    def test_single_node_and_duplicate_paths_explicit(self):
        raw = [[3], [], [5, 5, 5], [3], [0, 1], [0, 1]]
        ps = PathSet.from_paths([np.asarray(p, dtype=np.int64) for p in raw])
        assert [p.tolist() for p in ps] == raw
        assert ps.lengths.tolist() == [0, 0, 2, 0, 1, 1]


class TestSharedMemory:
    """to_shared / from_shared: the ownership hand-off protocol."""

    @staticmethod
    def _sample() -> PathSet:
        return PathSet.from_paths(
            [np.asarray([0, 1, 2, 3]), np.asarray([7]), np.asarray([4, 5])]
        )

    def test_roundtrip_zero_copy_bytes(self):
        from repro.core import shm as core_shm

        ps = self._sample()
        desc = ps.to_shared()
        assert desc.name in core_shm.active_segments()
        assert desc.num_paths == 3 and desc.num_nodes == 7
        opened = PathSet.from_shared(desc)
        assert opened == ps
        # zero-copy: the arrays wrap the mapping read-only, no writable alias
        assert not opened.nodes.flags.writeable
        assert isinstance(opened.nodes.base.base, memoryview)
        assert opened.close_shared(unlink=True) is True
        assert desc.name not in core_shm.active_segments()

    def test_from_shared_copy_leaves_segment_linked(self):
        from repro.core import shm as core_shm

        ps = self._sample()
        desc = ps.to_shared()
        copied = PathSet.from_shared(desc, copy=True)
        assert copied == ps
        assert copied.close_shared() is False  # not shm-backed
        assert desc.name in core_shm.active_segments()  # other consumers may read
        assert desc.discard() is True
        assert desc.name not in core_shm.active_segments()

    def test_copy_in_another_process_leaves_segment_linked(self):
        """A consumer process that copies and exits must not take the
        segment with it: attaching registers nothing that unlinks at exit."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro
        from repro.core import shm as core_shm

        desc = self._sample().to_shared()
        code = (
            "import sys\n"
            "from repro.core.pathset import PathSet, SharedCSR\n"
            "name, k, m = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])\n"
            "ps = PathSet.from_shared(SharedCSR(name, k, m), copy=True)\n"
            "assert ps.nodes.tolist() == [0, 1, 2, 3, 7, 4, 5]\n"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        args = [str(desc.name), str(desc.num_paths), str(desc.num_nodes)]
        try:
            proc = subprocess.run(
                [sys.executable, "-c", code, *args],
                env=env, capture_output=True, text=True, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            assert "leaked" not in proc.stderr
            assert desc.name in core_shm.active_segments()
        finally:
            desc.discard()

    def test_empty_pathset_roundtrip(self):
        empty = PathSet.from_paths([])
        desc = empty.to_shared()
        opened = PathSet.from_shared(desc)
        assert len(opened) == 0
        assert opened.offsets.tolist() == [0]
        assert opened.close_shared(unlink=True) is True

    def test_close_shared_is_terminal_and_idempotent(self):
        ps = self._sample()
        opened = PathSet.from_shared(ps.to_shared())
        assert opened.close_shared(unlink=True) is True
        assert opened.close_shared(unlink=True) is False  # second call: no-op
        assert len(opened) == 0  # reset to a valid empty CSR

    def test_close_shared_with_escaped_view_raises_guidance(self):
        import gc

        from repro.core import shm as core_shm

        ps = self._sample()
        desc = ps.to_shared()
        opened = PathSet.from_shared(desc)
        view = opened.nodes[1:]  # escapes the mapping
        with pytest.raises(BufferError, match="escaped") as excinfo:
            opened.close_shared(unlink=True)
        # release the view before the mapping object is collected, then
        # reclaim the name the failed close left behind
        del view, excinfo
        gc.collect()
        assert core_shm.discard(desc.name) is True

    def test_unlink_tolerates_external_sweep(self):
        """An orphan sweep may unlink the name while a consumer still maps
        it; close_shared must treat that as already-done, not an error."""
        from repro.core import shm as core_shm

        ps = self._sample()
        desc = ps.to_shared()
        opened = PathSet.from_shared(desc)
        assert core_shm.discard(desc.name) is True  # external sweep wins
        assert opened.close_shared(unlink=True) is True  # no FileNotFoundError

    def test_survives_producer_exit(self):
        """The hand-off: a segment created in a child process stays alive
        (no resource tracker unlinks it) for the parent to consume."""
        import multiprocessing as mp

        ctx = mp.get_context(
            "fork" if "fork" in mp.get_all_start_methods() else "spawn"
        )
        queue = ctx.Queue()
        proc = ctx.Process(target=_produce_shared_pathset, args=(queue,))
        proc.start()
        desc = queue.get(timeout=30)
        proc.join(timeout=30)
        assert proc.exitcode == 0  # producer exited before we consume
        opened = PathSet.from_shared(desc)
        assert opened.nodes.tolist() == [0, 1, 2, 3, 7, 4, 5]
        assert opened.close_shared(unlink=True) is True


def _produce_shared_pathset(queue) -> None:
    ps = PathSet.from_paths(
        [np.asarray([0, 1, 2, 3]), np.asarray([7]), np.asarray([4, 5])]
    )
    queue.put(ps.to_shared())


# ---------------------------------------------------------------------------
# ``PathSet.edge_ids`` reads one id lookup over the whole node stream and
# drops the path-boundary pairs: its ids must equal the strict lookup over
# the edge streams, a pair across a boundary must never raise, and a fault
# inside a path must.
# ---------------------------------------------------------------------------


@st.composite
def walk_sets(draw):
    """A mesh (tori included) and random valid walks mixed with empty and
    one-node paths; each walk starts, where it can, at a node that is no
    link away from where the previous path ended."""
    mesh = draw(meshes(max_d=3, max_side=5, torus=None))
    paths, end = [], None
    for _ in range(draw(st.integers(0, 6))):
        size = draw(st.integers(0, 6))
        if size == 0:
            paths.append([])
            continue
        far = [
            v
            for v in range(mesh.n)
            if end is None or (v != end and v not in mesh.neighbors(end))
        ]
        walk = [draw(st.sampled_from(far or list(range(mesh.n))))]
        for _ in range(size - 1):
            steps = mesh.neighbors(walk[-1])
            if not steps:
                break
            walk.append(draw(st.sampled_from(steps)))
        paths.append(walk)
        end = walk[-1]
    return mesh, paths


class TestStreamEdgeIds:
    @given(walk_sets())
    def test_ids_equal_the_strict_lookup_on_edge_streams(self, case):
        mesh, paths = case
        ps = PathSet.from_paths([np.asarray(p, dtype=np.int64) for p in paths])
        ids = ps.edge_ids(mesh)  # first: before the streams are built
        assert ids.dtype == np.int64 and not ids.flags.writeable
        want = mesh.edge_ids(ps.edge_tails, ps.edge_heads)
        assert ids.tolist() == want.tolist()
        assert ps.edge_ids(mesh) is ids

    @given(walk_sets(), st.data())
    def test_in_path_faults_raise(self, case, data):
        mesh, paths = case
        long = [i for i, p in enumerate(paths) if len(p) >= 2]
        if not long:
            return
        i = data.draw(st.sampled_from(long))
        at = data.draw(st.integers(1, len(paths[i]) - 1))
        bad = [list(p) for p in paths]
        # a repeated node is never a link; -1 and n are out of range
        bad[i][at] = data.draw(st.sampled_from([bad[i][at - 1], -1, mesh.n]))
        ps = PathSet.from_paths([np.asarray(p, dtype=np.int64) for p in bad])
        with pytest.raises(ValueError):
            ps.edge_ids(mesh)

    def test_out_of_range_node_outside_every_edge_is_no_error(self):
        # a one-node path holds no edge, so its node is never looked up
        mesh = Mesh((4, 4))
        ps = PathSet.from_paths([np.asarray([0, 1]), np.asarray([99]), np.asarray([5, 6])])
        assert ps.edge_ids(mesh).tolist() == mesh.edge_ids([0, 5], [1, 6]).tolist()

    def test_general_graph(self):
        g = named_graph("dumbbell-16")
        ep = g.edge_endpoints
        # two edges of different cliques: the boundary pair is a non-link
        paths = [ep[0], np.asarray([7]), ep[-1][::-1], np.asarray([], dtype=np.int64)]
        ps = PathSet.from_paths(paths)
        want = g.edge_ids(np.asarray([ep[0][0], ep[-1][1]]), np.asarray([ep[0][1], ep[-1][0]]))
        assert ps.edge_ids(g).tolist() == want.tolist() == [0, g.num_edges - 1]
        with pytest.raises(ValueError, match="not mesh neighbors"):
            PathSet.from_paths([np.asarray([0, 15])]).edge_ids(g)
