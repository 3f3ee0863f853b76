"""Tests for the first-class randomness budget (Section 5 engineering).

Covers the validated configuration (:class:`BudgetParams`), the planned
per-packet cost models, the deterministic degradation ladder, the
:class:`BitBudget` ledger arithmetic, and the end-to-end contracts the
budget layer promises:

* the default ``enforce`` ceiling never degrades any registry router —
  budgeted routes stay byte-identical to unbudgeted ones;
* ``measure`` mode is pure telemetry (bytes unchanged, ledger filled);
* degradation is a deterministic function of ``(mesh, s, t)`` — batch,
  scalar and replayed runs agree to the byte.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.budget import (
    BUDGET_ENV,
    BitBudget,
    BudgetParams,
    default_budget_bits,
    degradation_plan,
    note_budget,
    perm_bits,
    planned_fresh_bits,
    planned_recycled_bits,
    sequence_fresh_bits,
    sequence_recycled_bits,
)
from repro.core.path_selection import HierarchicalRouter
from repro.faults.model import FaultModel
from repro.faults.router import FaultAwareRouter
from repro.mesh.mesh import Mesh
from repro.routing.registry import available_routers, make_router
from repro.workloads.generators import random_pairs
from repro.workloads.permutations import transpose


class LoopHierarchicalRouter(HierarchicalRouter):
    """The hierarchical router without a batch spec: the per-packet loop."""

    def batch_spec(self, problem):
        return None


def digest(paths) -> str:
    h = hashlib.sha256()
    h.update(paths.nodes.tobytes())
    h.update(paths.offsets.tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# BudgetParams: validation, env resolution, the guard idiom.
# ---------------------------------------------------------------------------

class TestBudgetParams:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown budget mode"):
            BudgetParams(mode="strict")

    def test_bits_validation(self):
        with pytest.raises(ValueError):
            BudgetParams(mode="enforce", bits=-1)
        with pytest.raises(TypeError):
            BudgetParams(mode="enforce", bits=True)
        with pytest.raises(TypeError):
            BudgetParams(mode="enforce", bits=3.5)
        assert BudgetParams(mode="enforce", bits=np.int64(24)).bits == 24

    def test_resolve_coercions(self):
        assert BudgetParams.resolve("measure").mode == "measure"
        p = BudgetParams.resolve(24)
        assert (p.mode, p.bits) == ("enforce", 24)
        q = BudgetParams(mode="enforce", bits=7)
        assert BudgetParams.resolve(q) is q
        with pytest.raises(TypeError):
            BudgetParams.resolve(True)
        with pytest.raises(TypeError):
            BudgetParams.resolve(object())

    def test_resolve_none_reads_env(self, monkeypatch):
        monkeypatch.delenv(BUDGET_ENV, raising=False)
        assert BudgetParams.resolve(None).mode == "off"
        monkeypatch.setenv(BUDGET_ENV, "enforce")
        p = BudgetParams.resolve(None)
        assert p.mode == "enforce" and p.valid

    def test_invalid_env_value_degrades_loudly(self, monkeypatch):
        monkeypatch.setenv(BUDGET_ENV, "yes-please")
        p = BudgetParams.from_env()
        assert not p.valid
        assert p.mode == "off"
        assert "yes-please" in p.reason

    def test_invalidated_guard_disables_enforcement_only(self):
        p = BudgetParams(mode="enforce", bits=8)
        assert p.enforcing and p.active
        weak = p.invalidated("because")
        assert not weak.enforcing
        assert weak.active  # telemetry survives the tripped guard
        assert weak.reason == "because"

    def test_limit_for_defaults_to_structural_ceiling(self):
        mesh = Mesh((8, 8))
        assert BudgetParams(mode="enforce", bits=13).limit_for(mesh) == 13
        assert BudgetParams(mode="enforce").limit_for(mesh) == default_budget_bits(
            mesh
        )


# ---------------------------------------------------------------------------
# Planned costs: vectorised == scalar, and the default ceiling dominates.
# ---------------------------------------------------------------------------

class TestPlannedCosts:
    def test_perm_bits_matches_fisher_yates_widths(self):
        # sum of bits_for_range(i) for i = 2..d
        assert [perm_bits(d) for d in range(1, 6)] == [0, 1, 3, 5, 8]

    def test_padded_slots_are_structurally_free(self):
        # one real 4x2 box + one padded single-node slot
        box_len = np.array([[[4, 2], [1, 1]]])
        alive = np.array([True])
        got = planned_fresh_bits(box_len, "fixed", alive)
        assert got.tolist() == [2 + 1]  # bits_for_range(4) + bits_for_range(2)

    def test_dead_packets_cost_nothing(self):
        box_len = np.ones((3, 2, 2), dtype=np.int64) * 4
        alive = np.array([True, False, True])
        for order in ("random", "shared", "fixed"):
            got = planned_fresh_bits(box_len, order, alive)
            assert got[1] == 0 and (got[[0, 2]] > 0).all()

    def test_order_cost_ladder(self):
        box_len = np.array([[[4, 4]]])  # one inner box, d=2
        alive = np.array([True])
        fixed = planned_fresh_bits(box_len, "fixed", alive)[0]
        shared = planned_fresh_bits(box_len, "shared", alive)[0]
        rand = planned_fresh_bits(box_len, "random", alive)[0]
        assert shared == fixed + perm_bits(2)
        assert rand == fixed + 2 * perm_bits(2)  # n_inner + 1 subpaths

    def test_recycled_prices_the_bridge(self):
        box_len = np.array([[[4, 2], [2, 8]]])
        alive = np.array([True])
        got = planned_recycled_bits(box_len, alive)[0]
        # bridge sides = per-dimension max (4, 8): two masters + one ordering
        assert got == 2 * (2 + 3) + perm_bits(2)

    def test_sequence_helpers_match_vectorised(self):
        class Box:
            def __init__(self, sides):
                self.sides = sides

        boxes = [Box((4, 2)), Box((2, 8))]
        box_len = np.array([[[4, 2], [2, 8]]])
        alive = np.array([True])
        for order in ("random", "shared", "fixed"):
            assert sequence_fresh_bits(boxes, order, 2) == planned_fresh_bits(
                box_len, order, alive
            )[0]
        assert sequence_recycled_bits((4, 8), 2) == planned_recycled_bits(
            box_len, alive
        )[0]

    @pytest.mark.parametrize(
        "sides,torus",
        [((8, 8), False), ((16, 16), False), ((8, 8), True), ((8, 4), False),
         ((4, 4, 4), False)],
    )
    def test_default_ceiling_dominates_every_registry_router(self, sides, torus):
        """The promise behind ``REPRO_BUDGET=enforce`` in CI: the default
        ceiling exceeds every metered router's planned cost, so enforcing
        it degrades nothing."""
        mesh = Mesh(sides, torus=torus)
        problem = random_pairs(mesh, 40, seed=3)
        ceiling = default_budget_bits(mesh)
        for name in available_routers():
            router = make_router(name)
            try:
                cost = router.planned_bits(problem)
            except Exception:
                continue  # mesh family unsupported by this router
            if cost is None:
                continue
            assert int(np.max(cost)) <= ceiling, name


# ---------------------------------------------------------------------------
# The degradation ladder.
# ---------------------------------------------------------------------------

class TestDegradationPlan:
    def test_masks_partition_the_packets(self):
        fresh = np.array([3, 10, 25, 0])
        recycled = np.array([2, 8, 20, 0])
        ok, use_rec, use_dim = degradation_plan(fresh, recycled, limit=9)
        assert ok.tolist() == [True, False, False, True]
        assert use_rec.tolist() == [False, True, False, False]
        assert use_dim.tolist() == [False, False, True, False]
        combined = ok.astype(int) + use_rec.astype(int) + use_dim.astype(int)
        assert (combined == 1).all()

    def test_no_recycled_scheme_goes_straight_to_dimorder(self):
        fresh = np.array([3, 10])
        ok, use_rec, use_dim = degradation_plan(fresh, None, limit=5)
        assert use_rec.tolist() == [False, False]
        assert use_dim.tolist() == [False, True]


# ---------------------------------------------------------------------------
# BitBudget ledger arithmetic.
# ---------------------------------------------------------------------------

class TestBitBudget:
    def test_merge_is_additive(self):
        a = BitBudget(mode="enforce", limit=24, packets=10, metered=9,
                      unmetered=1, bits_drawn=100, max_bits=20,
                      fallbacks_recycled=2, fallbacks_dimorder=1)
        b = BitBudget(mode="enforce", limit=24, packets=5, metered=5,
                      bits_drawn=60, max_bits=23, fallbacks_recycled=1)
        a.merge(b)
        assert (a.packets, a.metered, a.unmetered) == (15, 14, 1)
        assert a.bits_drawn == 160
        assert a.max_bits == 23
        assert a.fallbacks == 4

    def test_merge_adopts_missing_limit(self):
        a = BitBudget(mode="enforce")
        a.merge(BitBudget(mode="enforce", limit=16))
        assert a.limit == 16

    def test_bits_per_packet_guards_empty(self):
        assert BitBudget().bits_per_packet == 0.0
        led = BitBudget(metered=4, bits_drawn=10)
        assert led.bits_per_packet == 2.5
        assert led.to_dict()["bits_per_packet"] == 2.5

    def test_note_budget_counters(self):
        from repro.obs import Profiler

        prof = Profiler()
        note_budget(prof, None)  # no-op safe
        note_budget(None, BitBudget(packets=3))
        led = BitBudget(packets=3, bits_drawn=30, fallbacks_dimorder=1,
                        unmetered=2)
        note_budget(prof, led)
        assert prof.counters["budget.packets"] == 3
        assert prof.counters["budget.bits_drawn"] == 30
        assert prof.counters["budget.fallbacks"] == 1
        assert prof.counters["budget.unmetered"] == 2


# ---------------------------------------------------------------------------
# End-to-end contracts through Router.route(budget=...).
# ---------------------------------------------------------------------------

class TestRouteBudget:
    def test_off_mode_has_no_ledger(self, mesh8, monkeypatch):
        monkeypatch.delenv(BUDGET_ENV, raising=False)
        res = HierarchicalRouter().route(transpose(mesh8), seed=0)
        assert res.budget is None

    def test_measure_mode_is_pure_telemetry(self, mesh8):
        problem = transpose(mesh8)
        base = HierarchicalRouter().route(problem, seed=0)
        measured = HierarchicalRouter().route(problem, seed=0, budget="measure")
        assert digest(measured.paths) == digest(base.paths)
        led = measured.budget
        assert led.mode == "measure"
        assert led.packets == problem.num_packets
        assert led.metered == problem.num_packets and led.unmetered == 0
        assert led.bits_drawn > 0 and led.fallbacks == 0

    def test_default_enforce_degrades_nothing(self, mesh8):
        problem = transpose(mesh8)
        base = HierarchicalRouter().route(problem, seed=0)
        enforced = HierarchicalRouter().route(problem, seed=0, budget="enforce")
        assert digest(enforced.paths) == digest(base.paths)
        assert enforced.budget.fallbacks == 0
        assert enforced.budget.limit == default_budget_bits(mesh8)

    def test_tight_cap_respected_and_deterministic(self, mesh8):
        problem = transpose(mesh8)
        router = HierarchicalRouter()
        a = router.route(problem, seed=0, budget=16)
        led = a.budget
        assert led.mode == "enforce" and led.limit == 16
        assert led.max_bits <= 16
        assert led.fallbacks_recycled > 0  # the cap actually bites
        # replay is deterministic per lane (engine and per-packet loop are
        # separate pinned byte contracts), and the planned-cost ledger —
        # being a pure function of (mesh, s, t) — is identical across both
        b = router.route(problem, seed=0, budget=16)
        assert digest(a.paths) == digest(b.paths)
        loop = LoopHierarchicalRouter()
        c = loop.route(problem, seed=0, budget=16)
        c2 = loop.route(problem, seed=0, budget=16)
        assert digest(c.paths) == digest(c2.paths)
        assert b.budget.to_dict() == led.to_dict() == c.budget.to_dict()

    def test_zero_cap_forces_dimension_order(self, mesh8):
        problem = transpose(mesh8)
        res = HierarchicalRouter().route(problem, seed=0, budget=0)
        led = res.budget
        alive = int((problem.sources != problem.dests).sum())
        assert led.fallbacks_dimorder == alive
        assert led.bits_drawn == 0 and led.max_bits == 0
        # zero random bits means a fully deterministic route
        other = HierarchicalRouter().route(problem, seed=999, budget=0)
        assert digest(res.paths) == digest(other.paths)

    def test_env_default_matches_explicit_mode(self, mesh8, monkeypatch):
        problem = transpose(mesh8)
        explicit = HierarchicalRouter().route(problem, seed=1, budget="enforce")
        monkeypatch.setenv(BUDGET_ENV, "enforce")
        implicit = HierarchicalRouter().route(problem, seed=1)
        assert digest(implicit.paths) == digest(explicit.paths)
        assert implicit.budget.to_dict() == explicit.budget.to_dict()

    def test_unmetered_router_never_degrades(self):
        """rect-hierarchical supplies no cost model: budget accounting
        records its packets as unmetered and enforcement steps aside."""
        mesh = Mesh((8, 4))
        router = make_router("rect-hierarchical")
        problem = random_pairs(mesh, 24, seed=7)
        if router.planned_bits(problem) is not None:
            pytest.skip("rect-hierarchical grew a cost model; update this test")
        base = router.route(problem, seed=2)
        res = router.route(problem, seed=2, budget=1)
        assert digest(res.paths) == digest(base.paths)
        led = res.budget
        assert led.unmetered == problem.num_packets and led.metered == 0
        assert led.fallbacks == 0

    @pytest.mark.parametrize("lane", ["engine", "loop", "faults"])
    def test_ladder_runs_under_one_stage_in_every_lane(self, mesh8, lane):
        from repro.obs import Profiler

        router = {
            "engine": HierarchicalRouter(),
            "loop": LoopHierarchicalRouter(),
            "faults": FaultAwareRouter(
                HierarchicalRouter(), FaultModel.static(mesh8, p=0.05, seed=1)
            ),
        }[lane]
        router.profiler = Profiler()
        res = router.route(transpose(mesh8), seed=0, budget=10)
        assert res.budget.fallbacks > 0
        assert router.profiler.stages["route.budget"].calls == 1
        assert "engine.budget" not in router.profiler.stages

    def test_faulty_route_respects_budget(self, mesh8):
        problem = random_pairs(mesh8, 48, seed=5)
        faults = FaultModel.static(mesh8, p=0.08, seed=1)
        router = FaultAwareRouter(HierarchicalRouter(), faults)
        res = router.route(problem, seed=4, budget=20)
        led = res.budget
        assert led.mode == "enforce" and led.max_bits <= 20
        assert led.metered + led.unmetered == led.packets
        # deterministic under replay, including detours and resamples
        again = FaultAwareRouter(HierarchicalRouter(), faults).route(
            problem, seed=4, budget=20
        )
        assert digest(res.paths) == digest(again.paths)
        assert again.budget.to_dict() == led.to_dict()


# ---------------------------------------------------------------------------
# The degradation ladder's ledgers on every lane, pinned as literals.
# ---------------------------------------------------------------------------

#: golden key -> (bits_drawn, max_bits, fallbacks_recycled,
#: fallbacks_dimorder) of the cap-10 ladder cells of
#: ``tests/golden/path_hashes.json`` — the engine lane (bare 8x8), the
#: per-packet loop (bare 8x8t) and the fault-aware lane (both meshes,
#: where resamples re-pay their planned cost)
LADDER_LEDGERS = {
    "hierarchical+budget-enforce10|8x8|seed=0": (218, 9, 18, 24),
    "hierarchical+budget-enforce10|8x8|seed=1": (218, 9, 18, 24),
    "hierarchical+budget-enforce10|8x8|seed=2": (218, 9, 18, 24),
    "hierarchical+static-faults+budget-enforce10|8x8|seed=0": (263, 9, 18, 24),
    "hierarchical+static-faults+budget-enforce10|8x8|seed=1": (284, 9, 18, 24),
    "hierarchical+static-faults+budget-enforce10|8x8|seed=2": (364, 9, 18, 24),
    "hierarchical+budget-enforce10|8x8t|seed=0": (280, 9, 24, 16),
    "hierarchical+budget-enforce10|8x8t|seed=1": (280, 9, 24, 16),
    "hierarchical+budget-enforce10|8x8t|seed=2": (280, 9, 24, 16),
    "hierarchical+static-faults+budget-enforce10|8x8t|seed=0": (307, 9, 24, 16),
    "hierarchical+static-faults+budget-enforce10|8x8t|seed=1": (301, 9, 24, 16),
    "hierarchical+static-faults+budget-enforce10|8x8t|seed=2": (345, 9, 24, 16),
}


@pytest.mark.parametrize("key", sorted(LADDER_LEDGERS), ids=lambda k: k.replace("|", " "))
def test_ladder_cell_ledgers(key):
    from tests.golden.regenerate_goldens import golden_cases

    route = dict(golden_cases())[key]
    led = route().budget
    assert (led.mode, led.limit, led.packets, led.metered) == ("enforce", 10, 56, 56)
    assert (
        led.bits_drawn,
        led.max_bits,
        led.fallbacks_recycled,
        led.fallbacks_dimorder,
    ) == LADDER_LEDGERS[key]
