"""Tests for compact per-node routing state (Section 5; Theorem 5.5).

The claims under test:

* a :class:`CompactNodeTable` round-trips its byte encoding exactly and
  measures a *polylog* number of bits — ``O(d log^2 n)``, never a global
  table;
* :class:`CompactHierarchicalRouter` routes byte-identically to the
  global :class:`HierarchicalRouter` from that serialized state alone,
  across schemes, variants, bit modes, torus wrap and both route lanes
  (the batched engine on plain meshes, the per-packet loop on tori and
  under bit modes — separate pinned contracts, equality is checked
  within each lane);
* its planned-bit cost model agrees with the global router's, so budget
  enforcement degrades exactly the same packets.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.compact import (
    CompactHierarchicalRouter,
    CompactNodeTable,
    build_node_table,
)
from repro.core.compact import _TableDecomposition
from repro.core.path_selection import HierarchicalRouter
from repro.mesh.mesh import Mesh
from repro.routing.registry import available_routers, make_router
from repro.workloads.generators import random_pairs
from repro.workloads.permutations import transpose

MESHES = [
    Mesh((8, 8)),
    Mesh((16, 16)),
    Mesh((8, 8), torus=True),
    Mesh((4, 4, 4)),
    Mesh((8, 8, 8)),
    Mesh((4, 4, 4), torus=True),
]


def digest(paths) -> str:
    h = hashlib.sha256()
    h.update(paths.nodes.tobytes())
    h.update(paths.offsets.tobytes())
    return h.hexdigest()


def _problem(mesh):
    return random_pairs(mesh, 40, seed=9)


# ---------------------------------------------------------------------------
# The serialized table.
# ---------------------------------------------------------------------------

class TestCompactNodeTable:
    @pytest.mark.parametrize("mesh", MESHES, ids=str)
    @pytest.mark.parametrize("scheme", ["auto", "multishift"])
    def test_round_trip(self, mesh, scheme):
        for node in (0, mesh.n // 2, mesh.n - 1):
            t = build_node_table(mesh, node, scheme)
            assert CompactNodeTable.from_bytes(t.to_bytes()) == t

    def test_table_records_the_node_itself(self, mesh8):
        t = build_node_table(mesh8, 13)
        assert t.coords == tuple(int(c) for c in mesh8.flat_to_coords(13))
        assert t.sides == (8, 8) and not t.torus
        assert t.d == 2 and t.k == 3

    def test_bad_magic_rejected(self, mesh8):
        blob = build_node_table(mesh8, 0).to_bytes()
        with pytest.raises(ValueError, match="magic"):
            CompactNodeTable.from_bytes(b"XXXX" + blob[4:])

    def test_trailing_bytes_rejected(self, mesh8):
        blob = build_node_table(mesh8, 0).to_bytes()
        with pytest.raises(ValueError, match="trailing"):
            CompactNodeTable.from_bytes(blob + b"\x00")

    def test_validation(self, mesh8):
        t = build_node_table(mesh8, 0)
        with pytest.raises(ValueError, match="unknown scheme"):
            CompactNodeTable(t.coords, t.sides, t.torus, "global", t.shifts)
        with pytest.raises(ValueError, match="equal dimension"):
            CompactNodeTable((1,), t.sides, t.torus, t.scheme, t.shifts)
        with pytest.raises(ValueError, match="shift levels"):
            CompactNodeTable(t.coords, t.sides, t.torus, t.scheme, t.shifts[:-1])

    @pytest.mark.parametrize("mesh", MESHES, ids=str)
    def test_state_is_polylog(self, mesh):
        """The Section 5 point: per-node state is O(d log^2 n) bits, and
        the constant is small — far below one row of a global table
        (num_nodes * d coordinates)."""
        t = build_node_table(mesh, 0)
        bits = t.state_bits()
        assert bits == 8 * len(t.to_bytes())
        assert bits <= 512 * (mesh.k + 1) * (mesh.d + 1) + 1024
        global_table_bits = mesh.n * mesh.d * 32
        assert bits < global_table_bits

    def test_state_grows_logarithmically_not_linearly(self):
        small = build_node_table(Mesh((8, 8)), 0).state_bits()
        big = build_node_table(Mesh((64, 64)), 0).state_bits()
        # 64x as many nodes, state grows by a factor ~ log ratio, not 64x
        assert big < 4 * small


# ---------------------------------------------------------------------------
# The table-backed decomposition.
# ---------------------------------------------------------------------------

class TestTableDecomposition:
    def test_geometry_mismatch_rejected(self, mesh8):
        table = build_node_table(mesh8, 0)
        with pytest.raises(ValueError, match="does not match"):
            _TableDecomposition(Mesh((16, 16)), table)
        with pytest.raises(ValueError, match="does not match"):
            _TableDecomposition(Mesh((8, 8), torus=True), table)

    @pytest.mark.parametrize("mesh", MESHES, ids=str)
    def test_shift_schedule_matches_reference(self, mesh):
        from repro.core.decomposition import Decomposition

        ref = Decomposition(mesh, "auto")
        table = build_node_table(mesh, 0)
        local = _TableDecomposition(mesh, table)
        for level in range(ref.k + 1):
            assert local.shifts(level) == ref.shifts(level)


# ---------------------------------------------------------------------------
# The compact router: byte-identity and state independence.
# ---------------------------------------------------------------------------

class TestCompactRouter:
    def test_registered(self):
        assert "compact-hierarchical" in available_routers()
        router = make_router("compact-hierarchical")
        assert isinstance(router, CompactHierarchicalRouter)
        assert router.name == "compact-hierarchical"
        assert router.is_oblivious

    @pytest.mark.parametrize("mesh", MESHES, ids=str)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_byte_identical_to_global_router(self, mesh, seed):
        problem = _problem(mesh)
        a = HierarchicalRouter().route(problem, seed=seed)
        b = CompactHierarchicalRouter().route(problem, seed=seed)
        assert digest(a.paths) == digest(b.paths), (mesh, seed)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"scheme": "multishift"},
            {"variant": "general"},
            {"dim_order": "shared"},
            {"dim_order": "fixed"},
            {"bit_mode": "fresh"},
            {"bit_mode": "recycled"},
            {"use_bridges": False},
        ],
        ids=lambda kw: "+".join(f"{k}={v}" for k, v in kw.items()),
    )
    def test_byte_identical_across_configs(self, mesh8, kwargs):
        problem = _problem(mesh8)
        a = HierarchicalRouter(**kwargs).route(problem, seed=3)
        b = CompactHierarchicalRouter(**kwargs).route(problem, seed=3)
        assert digest(a.paths) == digest(b.paths)

    def test_state_bits_reported(self, mesh8):
        router = CompactHierarchicalRouter()
        bits = router.state_bits_per_node(mesh8)
        assert bits == router.node_table(mesh8, 0).state_bits()

    def test_state_bits_counter(self, mesh8):
        from repro.obs import Profiler

        prof = Profiler()
        router = CompactHierarchicalRouter(profiler=prof)
        router.route(_problem(mesh8), seed=0)
        assert prof.counters["compact.state_bits"] == router.state_bits_per_node(
            mesh8
        )

    def test_no_shared_cache_warmup(self, mesh8):
        router = CompactHierarchicalRouter()
        assert router.warmup_keys(_problem(mesh8)) == ()

    def test_planned_bits_match_global_router(self):
        for mesh in MESHES:
            problem = _problem(mesh)
            a = HierarchicalRouter()
            b = CompactHierarchicalRouter()
            for mode in (None, "recycled"):
                np.testing.assert_array_equal(
                    a.planned_bits(problem, mode),
                    b.planned_bits(problem, mode),
                    err_msg=f"{mesh} mode={mode}",
                )

    def test_budget_fallback_is_compact(self):
        fallback = CompactHierarchicalRouter().budget_fallback_router()
        assert isinstance(fallback, CompactHierarchicalRouter)
        assert fallback.bit_mode == "recycled"

    def test_budget_enforcement_matches_global_router(self, mesh8):
        """Same planned costs → the same packets degrade: ledgers agree."""
        problem = transpose(mesh8)
        a = HierarchicalRouter().route(problem, seed=0, budget=16)
        b = CompactHierarchicalRouter().route(problem, seed=0, budget=16)
        assert b.budget.to_dict() == a.budget.to_dict()
        assert b.budget.fallbacks_recycled > 0

    def test_sharded_routing_matches_serial(self, mesh8):
        from repro.parallel import SerialExecutor, route_sharded

        problem = _problem(mesh8)
        router = CompactHierarchicalRouter()
        serial = router.route(problem, seed=5, workers=1)
        sharded = route_sharded(
            router, problem, seed=5, workers=3, executor=SerialExecutor()
        )
        assert digest(sharded.paths) == digest(serial.paths)

    def test_batch_spec_matches_sequence_tables_layout(self, mesh8):
        """The compact spec replicates SequenceTables.batch_boxes exactly:
        same slot count, same padding, same dtypes."""
        problem = _problem(mesh8)
        ref = HierarchicalRouter().batch_spec(problem)
        got = CompactHierarchicalRouter().batch_spec(problem)
        assert got is not None and ref is not None
        np.testing.assert_array_equal(got.box_lo, ref.box_lo)
        np.testing.assert_array_equal(got.box_len, ref.box_len)
        np.testing.assert_array_equal(got.n_inner, ref.n_inner)
        assert got.box_len.dtype == ref.box_len.dtype

    def test_batch_spec_ineligible_cases(self):
        router = CompactHierarchicalRouter()
        assert router.batch_spec(_problem(Mesh((8, 8), torus=True))) is None
        assert CompactHierarchicalRouter(bit_mode="fresh").batch_spec(
            _problem(Mesh((8, 8)))
        ) is None
