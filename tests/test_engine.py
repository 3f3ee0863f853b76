"""The batched engine: byte-identity, faithfulness of the vectorised
sequence tables, fallback behaviour, and obliviousness of the protocol."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bridges import bridge_height_bound_2d
from repro.core.path_selection import HierarchicalRouter
from repro.core.tables import SequenceTables, bit_length
from repro.mesh.mesh import Mesh
from repro.mesh.paths import is_valid_path
from repro.routing.base import RoutingProblem
from repro.routing.engine import BatchSpec, resolve_orders
from repro.routing.baselines import (
    AccessTreeRouter,
    DimensionOrderRouter,
    RandomDimOrderRouter,
    ValiantRouter,
)
from repro.verify.oracles import oracle_route
from repro.workloads.generators import nearest_neighbor, random_pairs
from repro.workloads.permutations import random_permutation, transpose

HIER_CONFIGS = [
    {},
    {"dim_order": "shared"},
    {"dim_order": "fixed"},
    {"use_bridges": False},
    {"variant": "general"},
    {"variant": "general", "use_bridges": False},
    {"drop_cycles": False},
    {"scheme": "multishift"},
]


def _assert_identical(paths_a, paths_b, mesh, problem):
    assert len(paths_a) == len(paths_b)
    for pa, pb, s, t in zip(paths_a, paths_b, problem.sources, problem.dests):
        assert pa.dtype == np.int64 and pb.dtype == np.int64
        assert pa.tobytes() == pb.tobytes()
        assert is_valid_path(mesh, pa, int(s), int(t))


def _assert_matches_oracle(router, problem, seed):
    """The engine's paths equal the scalar replay of the batch protocol."""
    result = router.route(problem, seed=seed)
    reference, _ = oracle_route(router, problem, result.seed)
    _assert_identical(result.paths, reference, problem.mesh, problem)
    return result


class TestByteIdentity:
    """The acceptance contract: array assembly == the scalar oracle's
    packet-by-packet replay, byte for byte, from the same random plan."""

    @pytest.mark.parametrize("config", HIER_CONFIGS, ids=lambda c: str(c) or "default")
    def test_hierarchical(self, config):
        mesh = Mesh((16, 16))
        problem = transpose(mesh)
        router = HierarchicalRouter(**config)
        _assert_matches_oracle(router, problem, 7)

    @pytest.mark.parametrize("sides", [(8, 8), (4, 4, 4), (2, 2, 2, 2, 2)])
    def test_dimensions(self, sides):
        mesh = Mesh(sides)
        problem = random_pairs(mesh, 64, seed=5)
        router = HierarchicalRouter()
        _assert_matches_oracle(router, problem, 2)

    @pytest.mark.parametrize(
        "router",
        [
            DimensionOrderRouter(),
            DimensionOrderRouter(order=(1, 0)),
            RandomDimOrderRouter(),
            ValiantRouter(),
            ValiantRouter(drop_cycles=False),
            AccessTreeRouter(),
        ],
        ids=lambda r: r.name + ("" if getattr(r, "drop_cycles", True) else "-keepcycles"),
    )
    def test_baselines(self, router):
        mesh = Mesh((16, 16))
        problem = nearest_neighbor(mesh, seed=9)
        _assert_matches_oracle(router, problem, 3)

    def test_self_loops_and_duplicates(self):
        mesh = Mesh((8, 8))
        problem = RoutingProblem(
            mesh,
            np.array([5, 9, 9, 0]),
            np.array([5, 41, 41, 63]),
        )
        res = _assert_matches_oracle(HierarchicalRouter(), problem, 1)
        assert res.paths[0].tolist() == [5]

    def test_deterministic_router_matches_legacy_exactly(self):
        # dim-order has no randomness, so even a plain per-packet
        # select_path loop must agree with the engine.
        mesh = Mesh((16, 16))
        problem = transpose(mesh)
        router = DimensionOrderRouter()
        loop = [router.select_path(mesh, s, t, None) for s, t in problem.pairs()]
        _assert_identical(router.route(problem, seed=0).paths, loop, mesh, problem)


@st.composite
def _floor_edge_pairs(draw):
    """A power-of-two mesh (d = 1-3, side up to 64) and packets biased to
    the edges of the bridge search's floor: ``max_j |s_j - t_j|`` in
    ``{2^j - 1, 2^j, 2^j + 1}``, adjacent pairs, and ``s == t``."""
    d = draw(st.integers(1, 3))
    k = draw(st.integers(0, 6))
    m = 1 << k
    mesh = Mesh((m,) * d)
    src, dst = [], []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["floor", "adjacent", "same"]))
        if kind == "floor":
            j = draw(st.integers(0, k))
            far = draw(st.sampled_from([(1 << j) - 1, 1 << j, (1 << j) + 1]))
        else:
            far = 1 if kind == "adjacent" else 0
        far = min(far, m - 1)
        axis = draw(st.integers(0, d - 1))
        s, t = [], []
        for i in range(d):
            if i == axis:
                a = draw(st.integers(0, m - 1 - far))
                b = a + far
                if draw(st.booleans()):
                    a, b = b, a
            else:
                a = draw(st.integers(0, m - 1))
                reach = 0 if kind != "floor" else far
                b = min(max(a + draw(st.integers(-reach, reach)), 0), m - 1)
            s.append(a)
            t.append(b)
        src.append(s)
        dst.append(t)
    return mesh, np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64)


class TestSequenceTables:
    """The vectorised tables must reproduce the scalar submesh sequences."""

    @settings(max_examples=120, deadline=None)
    @given(
        _floor_edge_pairs(),
        st.sampled_from(["paper2d", "multishift"]),
        st.sampled_from(["bitonic2d", "general"]),
        st.booleans(),
    )
    def test_bounded_search_matches_scalar_referee(
        self, case, scheme, variant, use_bridges
    ):
        """Starting each packet's bridge search at its floor
        ``bit_length(max_j |s_j - t_j|)`` finds the box the scalar climb
        from height 1 finds, on pairs at the floor's edges."""
        mesh, cs, ct = case
        router = HierarchicalRouter(scheme=scheme, variant=variant, use_bridges=use_bridges)
        tables = SequenceTables.for_mesh(mesh, scheme)
        box_lo, box_len, n_inner = tables.batch_boxes(
            cs, ct, variant=variant, use_bridges=use_bridges
        )
        src, dst = mesh.coords_to_flat(cs), mesh.coords_to_flat(ct)
        for i in range(src.size):
            seq, _ = router.submesh_sequence(mesh, int(src[i]), int(dst[i]))
            inner = seq[1:-1]
            assert n_inner[i] == len(inner)
            for j, box in enumerate(inner):
                assert box_lo[i, j].tolist() == list(box.lo)
                assert box_len[i, j].tolist() == [
                    hi - lo + 1 for lo, hi in zip(box.lo, box.hi)
                ]
            if mesh.d == 2 and variant == "bitonic2d" and use_bridges and src[i] != dst[i]:
                height = (int(n_inner[i]) - 1) // 2 + 1  # the bridge sits at u + 1
                floor = int(np.abs(cs[i] - ct[i]).max()).bit_length()
                dist = int(mesh.distance(int(src[i]), int(dst[i])))
                assert floor <= height <= bridge_height_bound_2d(dist)

    @pytest.mark.parametrize("sides,scheme", [((16, 16), "paper2d"), ((16, 16), "multishift"), ((8, 8, 8), "multishift")])
    @pytest.mark.parametrize("variant", ["bitonic2d", "general"])
    @pytest.mark.parametrize("use_bridges", [True, False])
    def test_boxes_match_scalar(self, sides, scheme, variant, use_bridges):
        mesh = Mesh(sides)
        rng = np.random.default_rng(0)
        src = rng.integers(mesh.n, size=100)
        dst = rng.integers(mesh.n, size=100)
        dst[:3] = src[:3]  # include s == t packets
        router = HierarchicalRouter(scheme=scheme, variant=variant, use_bridges=use_bridges)
        tables = SequenceTables.for_mesh(mesh, scheme)
        box_lo, box_len, n_inner = tables.batch_boxes(
            mesh.flat_to_coords(src),
            mesh.flat_to_coords(dst),
            variant=variant,
            use_bridges=use_bridges,
        )
        for i in range(src.size):
            seq, _ = router.submesh_sequence(mesh, int(src[i]), int(dst[i]))
            inner = seq[1:-1]
            assert n_inner[i] == len(inner)
            for j, box in enumerate(inner):
                assert box_lo[i, j].tolist() == list(box.lo)
                assert box_len[i, j].tolist() == [
                    hi - lo + 1 for lo, hi in zip(box.lo, box.hi)
                ]
            # padded slots: the destination's single-node box
            ct = mesh.flat_to_coords(int(dst[i]))
            assert (box_lo[i, len(inner):] == ct).all()
            assert (box_len[i, len(inner):] == 1).all()

    def test_tables_are_cached_per_shape(self):
        t1 = SequenceTables.for_mesh(Mesh((8, 8)))
        t2 = SequenceTables.for_mesh(Mesh((8, 8)))
        assert t1 is t2

    def test_torus_rejected(self):
        from repro.core.decomposition import Decomposition

        with pytest.raises(ValueError, match="[Tt]orus|power"):
            SequenceTables(Decomposition(Mesh((8, 8), torus=True)))

    def test_bit_length(self):
        xs = np.array([0, 1, 2, 3, 4, 7, 8, 1023, 1024])
        assert bit_length(xs).tolist() == [int(x).bit_length() for x in xs]


class TestFallbacks:
    def test_torus_uses_legacy_loop(self):
        mesh = Mesh((8, 8), torus=True)
        for router in (HierarchicalRouter(), ValiantRouter(), DimensionOrderRouter()):
            assert router.batch_spec(transpose(mesh)) is None
            assert router.route(transpose(mesh), seed=0).validate()

    def test_bit_mode_uses_legacy_loop(self):
        mesh = Mesh((8, 8))
        router = HierarchicalRouter(bit_mode="fresh")
        problem = transpose(mesh)
        assert router.batch_spec(problem) is None
        router.route(problem, seed=0)
        assert len(router.bits_log) == problem.num_packets

    def test_non_power_of_two_uses_legacy_loop(self):
        mesh = Mesh((6, 6))
        assert HierarchicalRouter().batch_spec(transpose(mesh)) is None


class TestEmptyProblems:
    """Regression: a zero-packet problem must route on every router.  The
    array assembler's ``counts.reshape(N, -1)`` raised on N == 0, and
    ``Router.route`` papered over it by skipping the engine entirely when
    ``num_packets`` was zero — which silently changed the code path under
    test and still left ``run_batch`` broken for direct callers."""

    @pytest.fixture()
    def empty_problem(self):
        mesh = Mesh((8, 8))
        empty = np.empty(0, dtype=np.int64)
        return RoutingProblem(mesh, empty, empty, name="empty")

    def test_every_registered_router(self, empty_problem):
        from repro.routing.registry import available_routers, make_router

        for name in available_routers():
            result = make_router(name).route(empty_problem, seed=0)
            assert len(result.paths) == 0, name
            assert result.validate(), name
            assert result.congestion == 0 and result.dilation == 0

    def test_run_batch_directly_on_empty_spec(self, empty_problem):
        from repro.routing.engine import run_batch

        router = HierarchicalRouter()
        spec = router.batch_spec(empty_problem)
        assert spec is not None and spec.num_packets == 0
        result = run_batch(router, spec, empty_problem, seed=0)
        assert len(result.paths) == 0
        assert result.paths.nodes.size == 0

    def test_empty_goes_through_the_engine(self, empty_problem):
        """The num_packets guard is gone: an empty problem still
        exercises the engine, not the per-packet loop."""
        called = []
        router = HierarchicalRouter()
        orig = router.batch_spec

        def spy(problem):
            spec = orig(problem)
            called.append(spec)
            return spec

        router.batch_spec = spy
        router.route(empty_problem, seed=0)
        assert called and called[0] is not None


class TestObliviousness:
    """The batched protocol must keep paths per-packet independent: packet
    i's path is a function of (seed, i, s_i, t_i) only."""

    def test_other_packets_unchanged_when_one_changes(self):
        mesh = Mesh((16, 16))
        base = random_permutation(mesh, seed=4)
        dests = base.dests.copy()
        dests[0] = (dests[0] + 17) % mesh.n
        changed = RoutingProblem(mesh, base.sources, dests)
        router = HierarchicalRouter()
        r1 = router.route(base, seed=11)
        r2 = router.route(changed, seed=11)
        for i in range(1, base.num_packets):
            assert r1.paths[i].tobytes() == r2.paths[i].tobytes()

    def test_same_seed_reproducible(self):
        mesh = Mesh((16, 16))
        problem = transpose(mesh)
        router = HierarchicalRouter()
        a = router.route(problem, seed=5)
        b = router.route(problem, seed=5)
        assert all(x.tobytes() == y.tobytes() for x, y in zip(a.paths, b.paths))

    def test_different_seeds_differ(self):
        mesh = Mesh((16, 16))
        problem = transpose(mesh)
        router = HierarchicalRouter()
        a = router.route(problem, seed=5)
        b = router.route(problem, seed=6)
        assert any(x.tobytes() != y.tobytes() for x, y in zip(a.paths, b.paths))


class TestResolveOrders:
    """Orderings sort each row's dimensions by ``(u_k, k)``, the oracle's
    rule, so a tie always goes to the lower dimension."""

    @staticmethod
    def _spec(d, mode, N=40, S=3):
        zeros = np.zeros((N, d), dtype=np.int64)
        return BatchSpec(
            mesh=Mesh((2,) * d),
            coords_s=zeros,
            coords_t=zeros,
            box_lo=np.zeros((N, S, d), dtype=np.int64),
            box_len=np.ones((N, S, d), dtype=np.int64),
            dim_order=mode,
        )

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("mode", ["random", "shared"])
    def test_value_then_dimension_with_forced_ties(self, d, mode):
        spec = self._spec(d, mode)
        N, L = spec.num_packets, spec.num_subpaths
        rows = L if mode == "random" else 1
        rng = np.random.default_rng(10 * d + rows)
        # Three distinct values per row at most: ties are everywhere.
        U = rng.integers(0, 3, size=(N, rows, d)) / 4.0
        U[0] = 0.5  # every dimension tied
        U[1] = np.arange(d)[::-1] / 8.0  # strictly descending
        orders = resolve_orders(spec, U)
        assert orders.shape == (N, L, d)
        assert orders.dtype == np.int64
        for n in range(N):
            for j in range(L):
                vals = U[n, j if mode == "random" else 0].tolist()
                want = sorted(range(d), key=lambda k: (vals[k], k))
                assert orders[n, j].tolist() == want

    def test_matches_stable_argsort_on_uniforms(self):
        spec = self._spec(3, "random", N=500)
        U = np.random.default_rng(0).random((500, spec.num_subpaths, 3))
        U[::7, :, 2] = U[::7, :, 0]
        want = np.argsort(U, axis=2, kind="stable")
        np.testing.assert_array_equal(resolve_orders(spec, U), want)


class TestBenchmarkScale:
    """The golden cells stop at 16x16; these pin routes at the size of the
    ``route-64x64`` benchmark and past it (values recorded before the hot
    passes, and then the loop erasure, were rewritten)."""

    def test_route_64x64_bytes_and_congestion(self):
        import hashlib

        from repro.metrics.congestion import congestion

        mesh = Mesh((64, 64))
        problem = random_pairs(mesh, 16_384, seed=1)
        result = HierarchicalRouter().route(problem, seed=1)
        h = hashlib.sha256()
        h.update(result.paths.nodes.tobytes())
        h.update(result.paths.offsets.tobytes())
        assert h.hexdigest() == (
            "4f635ba52ff17fadbcde84ffc9020873ebdd4ac2d3955af5c8b7bafee2748dda"
        )
        assert congestion(mesh, result.paths) == 284

    @pytest.mark.parametrize(
        "shape, packets, digest, c",
        [
            # span > TABLE_CELLS: every last-visit chunk holds one path.
            (
                (1024, 1024),
                256,
                "5762bee0d40953a284226b980f3e7c15efbbb4ecee60b5513c69dd3c865bb09c",
                4,
            ),
            (
                (16, 16, 16),
                4096,
                "43c246bf32ab096178a830db63b1e639781ed5741505c94e548dfbad002eba46",
                36,
            ),
        ],
        ids=["1024x1024", "16x16x16"],
    )
    def test_wide_and_3d_routes_bytes_and_congestion(self, shape, packets, digest, c):
        import hashlib

        from repro.metrics.congestion import congestion

        mesh = Mesh(shape)
        result = HierarchicalRouter().route(random_pairs(mesh, packets, seed=1), seed=1)
        h = hashlib.sha256()
        h.update(result.paths.nodes.tobytes())
        h.update(result.paths.offsets.tobytes())
        assert h.hexdigest() == digest
        assert congestion(mesh, result.paths) == c
