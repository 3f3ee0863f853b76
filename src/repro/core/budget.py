"""First-class randomness budgets (the engineering of Section 5).

The paper proves two sides of a coin: oblivious routing with near-optimal
congestion *must* spend ``Ω((d / (1 + d/log n)) log(D/d))`` random bits per
packet (Theorem 5.2), and algorithm ``H`` gets away with ``O(d log(D d))``
via bit recycling (Lemma 5.4, Theorem 5.5).  :mod:`repro.core.randomness`
reproduces the *schemes*; this module makes the budget a first-class,
enforceable routing parameter:

:class:`BudgetParams`
    The validated configuration — mode ``off | measure | enforce``, an
    optional per-packet bit ceiling, and an explicit ``valid`` guard.
    Follows the ``OBDParams`` idiom: an instance whose guard failed is
    *not* an error — it carries a ``reason`` and the run proceeds in a
    documented fallback mode (telemetry only, never enforcement).

:class:`BitBudget`
    The accounting ledger of one routing run: planned bits drawn, the
    per-packet maximum, fallback and unmetered counts.  Ledgers merge
    additively, which is how sharded workers report bits identically to
    the serial engine (:mod:`repro.parallel`).

Planned cost, not the rejection tally
-------------------------------------
All budget accounting uses the *planned* (information-theoretic) cost of
a packet's draws: ``bits_for_range(side)`` per waypoint dimension and
``perm_bits(d)`` per dimension ordering.  :class:`~repro.core.randomness.
BitCounter`'s ``bits_used`` is a random variable (rejection sampling pays
for misses); enforcement decisions must be deterministic functions of
``(mesh, s, t)`` so that the engine, the scalar loop, every shard worker,
and the verify oracle all reach the *same* verdict for a packet.

The degradation ladder (mode ``"enforce"``)
-------------------------------------------
A packet whose planned cost exceeds the budget is degraded
deterministically, never rejected:

1. **recycled** — the Section 5.3 scheme (one shared ordering + two
   master nodes sized to the bridge) costs
   ``perm_bits(d) + 2 * sum_i bits_for_range(bridge_side_i)``; if that
   fits, the packet routes with a recycled-bit clone of its router.
2. **dimension-order** — zero random bits.  Always fits.

:func:`budget_ladder` is the one implementation of the ladder: every
route lane — the batched engine, the per-packet loop, the fault-aware
wrapper and each shard worker — prices its packets through the router's
:meth:`~repro.routing.base.Router.planned_bits` and takes its decisions
from it.

With no explicit ``bits``, the enforced ceiling is
:func:`default_budget_bits` — the naive Lemma 5.4 structural maximum of
the fresh scheme, so enforcement is *armed* but nothing degrades: routes
stay byte-identical to the unbudgeted ones (``REPRO_BUDGET=enforce`` in
CI relies on this).
"""

from __future__ import annotations

import os
from contextlib import nullcontext
from dataclasses import dataclass, replace

import numpy as np

from repro.core.randomness import bits_for_range

__all__ = [
    "BUDGET_ENV",
    "MODES",
    "BudgetParams",
    "BitBudget",
    "perm_bits",
    "default_budget_bits",
    "planned_fresh_bits",
    "planned_recycled_bits",
    "sequence_fresh_bits",
    "sequence_recycled_bits",
    "degradation_plan",
    "BudgetLadder",
    "budget_ladder",
    "note_budget",
]

#: environment variable supplying the default mode when ``route(budget=None)``
BUDGET_ENV = "REPRO_BUDGET"

#: accepted enforcement modes, weakest first
MODES = ("off", "measure", "enforce")


def perm_bits(d: int) -> int:
    """Information cost of one random ordering of ``d`` dimensions.

    ``sum_{i=2..d} bits_for_range(i)`` — the per-draw widths of the
    Fisher-Yates loop in :meth:`~repro.core.randomness.BitCounter.
    permutation` (the ``O(d log d)`` term of Lemma 5.4); 0 for ``d <= 1``.

    >>> perm_bits(1), perm_bits(2), perm_bits(3), perm_bits(4)
    (0, 1, 3, 5)
    """
    return sum(bits_for_range(i) for i in range(2, d + 1))


def _bit_length(x: np.ndarray) -> np.ndarray:
    """Vectorised ``int.bit_length`` for non-negative int64 arrays.

    Local replica of :func:`repro.core.tables.bit_length` (exact below
    ``2^53``), kept here so this module imports nothing heavyweight.
    """
    return np.frexp(np.asarray(x, dtype=np.float64))[1].astype(np.int64)


def default_budget_bits(mesh) -> int:
    """The default ``"enforce"`` ceiling: the naive Lemma 5.4 maximum.

    The fresh scheme draws at most ``2k - 1`` inner waypoints (the padded
    bitonic capacity, ``k = ceil(log2 max_side)``) of at most ``d * k``
    bits each, plus at most ``2k`` per-subpath orderings of
    ``perm_bits(d)`` bits; ``+ 8`` slack keeps degenerate meshes off the
    boundary.  Every registry router's planned cost fits under this
    ceiling (pinned by ``tests/test_budget.py``), so enforcing the
    default budget never degrades a packet.
    """
    d = mesh.d
    k = max(int(s - 1).bit_length() for s in mesh.sides)
    slots = max(2 * k - 1, 1)
    return slots * d * k + 2 * k * perm_bits(d) + 8


@dataclass(frozen=True)
class BudgetParams:
    """Validated randomness-budget configuration.

    Parameters
    ----------
    mode:
        ``"off"`` — no accounting; ``"measure"`` — meter planned bits,
        never degrade; ``"enforce"`` — meter and degrade packets over the
        ceiling.
    bits:
        Per-packet ceiling for ``"enforce"``; ``None`` resolves to
        :func:`default_budget_bits` of the routed mesh.
    valid:
        Guard flag (the ``OBDParams`` idiom): ``False`` means the request
        could not be honoured as stated — :attr:`reason` says why — and
        the budget runs in **fallback mode**: telemetry only, no
        enforcement, no errors.

    Examples
    --------
    >>> BudgetParams(mode="enforce", bits=64).enforcing
    True
    >>> weak = BudgetParams(mode="enforce", bits=64).invalidated("demo")
    >>> weak.enforcing, weak.active
    (False, True)
    """

    mode: str = "off"
    bits: int | None = None
    valid: bool = True
    reason: str = ""

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown budget mode {self.mode!r}; use one of {MODES}")
        if self.bits is not None:
            if isinstance(self.bits, bool) or not isinstance(
                self.bits, (int, np.integer)
            ):
                raise TypeError(f"budget bits must be an int, got {type(self.bits).__name__}")
            if self.bits < 0:
                raise ValueError("budget bits must be >= 0")
            object.__setattr__(self, "bits", int(self.bits))

    # ------------------------------------------------------------------
    @classmethod
    def from_env(cls) -> "BudgetParams":
        """The process default, from ``REPRO_BUDGET`` (off when unset).

        An unrecognised value is *not* an error: it yields an invalid
        instance (guard failed, reason recorded) so a typo in CI degrades
        to "no budget" loudly in telemetry rather than crashing runs.
        """
        raw = os.environ.get(BUDGET_ENV, "").strip().lower()
        if not raw:
            return cls()
        if raw in MODES:
            return cls(mode=raw)
        return cls(
            mode="off",
            valid=False,
            reason=f"unknown {BUDGET_ENV} value {raw!r}; budget disabled",
        )

    @classmethod
    def resolve(cls, budget) -> "BudgetParams":
        """Coerce a user-facing ``budget=`` argument to parameters.

        ``None`` → the environment default; a string → that mode; an int
        → ``enforce`` with that per-packet ceiling; params pass through.
        """
        if budget is None:
            return cls.from_env()
        if isinstance(budget, BudgetParams):
            return budget
        if isinstance(budget, str):
            return cls(mode=budget)
        if not isinstance(budget, bool) and isinstance(budget, (int, np.integer)):
            return cls(mode="enforce", bits=int(budget))
        raise TypeError(
            f"budget must be BudgetParams, a mode string, an int bit ceiling "
            f"or None, got {type(budget).__name__}"
        )

    # ------------------------------------------------------------------
    @property
    def active(self) -> bool:
        """Whether any accounting happens at all."""
        return self.mode != "off"

    @property
    def enforcing(self) -> bool:
        """Whether packets over the ceiling are degraded (guard must hold)."""
        return self.valid and self.mode == "enforce"

    def limit_for(self, mesh) -> int:
        """The concrete per-packet ceiling on ``mesh``."""
        return self.bits if self.bits is not None else default_budget_bits(mesh)

    def invalidated(self, reason: str) -> "BudgetParams":
        """A copy with the guard tripped (fallback mode), keeping the mode."""
        return replace(self, valid=False, reason=reason)

    def make_ledger(self, mesh, packets: int) -> "BitBudget":
        """A fresh ledger for one run on ``mesh``.

        Enforce-mode ledgers always record the concrete ceiling — even
        when the router is unmetered and nothing can degrade — so a
        reader of the ledger can tell what the run enforced against
        (pinned by the ``budget.respected`` invariant).
        """
        limit = self.limit_for(mesh) if self.mode == "enforce" else self.bits
        return BitBudget(mode=self.mode, limit=limit, packets=packets)


@dataclass
class BitBudget:
    """Accounting ledger of one routing run under a :class:`BudgetParams`.

    All counts are in *planned* bits (see the module docstring).  Ledgers
    are picklable plain data so shard workers can return them, and
    :meth:`merge` folds them additively — the sharded totals equal the
    serial totals for every worker count because planned costs are
    per-packet deterministic.
    """

    mode: str = "off"
    #: concrete ceiling under ``enforce`` (``None`` in measure mode with
    #: no explicit bits)
    limit: int | None = None
    packets: int = 0
    #: packets whose router supplied a planned cost
    metered: int = 0
    #: packets routed by a router with no cost model (fallback accounting)
    unmetered: int = 0
    bits_drawn: int = 0
    max_bits: int = 0
    fallbacks_recycled: int = 0
    fallbacks_dimorder: int = 0

    @property
    def fallbacks(self) -> int:
        return self.fallbacks_recycled + self.fallbacks_dimorder

    @property
    def bits_per_packet(self) -> float:
        """Mean planned bits over the metered packets."""
        return self.bits_drawn / self.metered if self.metered else 0.0

    def merge(self, other: "BitBudget") -> "BitBudget":
        """Fold another shard's ledger into this one (in place)."""
        self.packets += other.packets
        self.metered += other.metered
        self.unmetered += other.unmetered
        self.bits_drawn += other.bits_drawn
        self.max_bits = max(self.max_bits, other.max_bits)
        self.fallbacks_recycled += other.fallbacks_recycled
        self.fallbacks_dimorder += other.fallbacks_dimorder
        if self.limit is None:
            self.limit = other.limit
        return self

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "limit": self.limit,
            "packets": self.packets,
            "metered": self.metered,
            "unmetered": self.unmetered,
            "bits_drawn": self.bits_drawn,
            "max_bits": self.max_bits,
            "bits_per_packet": round(self.bits_per_packet, 3),
            "fallbacks_recycled": self.fallbacks_recycled,
            "fallbacks_dimorder": self.fallbacks_dimorder,
        }


# ---------------------------------------------------------------------------
# Planned (deterministic) per-packet costs
# ---------------------------------------------------------------------------

def planned_fresh_bits(
    box_len: np.ndarray,
    dim_order: str,
    alive: np.ndarray,
    n_inner: np.ndarray | None = None,
) -> np.ndarray:
    """Planned bits per packet of the fresh scheme, vectorised.

    ``box_len`` is the engine's ``(N, S, d)`` inner-box side array;
    padded slots are single-node boxes and cost 0 bits structurally
    (``bits_for_range(1) == 0``).  ``alive`` flags packets with
    ``s != t``; dead packets cost 0.  ``n_inner`` (when the router
    supplies it) is the real inner-box count per packet; otherwise real
    slots are recognised by having some side ``> 1``, which holds for
    every regular inner submesh above the leaves.

    Order cost: ``"random"`` pays :func:`perm_bits` per real subpath
    (``n_inner + 1`` of them), ``"shared"`` pays it once per alive
    packet, ``"fixed"`` pays nothing.
    """
    box_len = np.asarray(box_len)
    N, S, d = box_len.shape
    per_slot = _bit_length(box_len - 1).sum(axis=2)  # (N, S)
    way = per_slot.sum(axis=1) if S else np.zeros(N, dtype=np.int64)
    if n_inner is not None:
        real = np.asarray(n_inner, dtype=np.int64)
    elif S:
        real = (box_len.max(axis=2) > 1).sum(axis=1)
    else:
        real = np.zeros(N, dtype=np.int64)
    alive = np.asarray(alive, dtype=bool)
    pb = perm_bits(d)
    if dim_order == "random":
        order = np.where(alive, real + 1, 0) * pb
    elif dim_order == "shared":
        order = np.where(alive, pb, 0)
    elif dim_order == "fixed":
        order = np.zeros(N, dtype=np.int64)
    else:  # pragma: no cover - BatchSpec validates first
        raise ValueError(f"unknown dim_order {dim_order!r}")
    return np.where(alive, way + order, 0).astype(np.int64)


def planned_recycled_bits(box_len: np.ndarray, alive: np.ndarray) -> np.ndarray:
    """Planned bits per packet of the Section 5.3 recycled scheme.

    One shared ordering plus two master nodes sized to the largest box of
    the packet's sequence.  The bitonic chains nest inside the bridge, so
    the per-dimension maximum over the slots *is* the bridge's side.
    """
    box_len = np.asarray(box_len)
    N, S, d = box_len.shape
    if S == 0:
        masters = np.zeros(N, dtype=np.int64)
    else:
        masters = 2 * _bit_length(box_len.max(axis=1) - 1).sum(axis=1)
    return np.where(np.asarray(alive, dtype=bool), masters + perm_bits(d), 0).astype(
        np.int64
    )


def sequence_fresh_bits(inner_boxes, dim_order: str, d: int) -> int:
    """Scalar planned fresh cost of one alive packet's inner-box sequence.

    ``inner_boxes`` are the sequence's inner submeshes (endpoints
    excluded) — anything with a ``sides`` tuple, including wrapped
    :class:`~repro.mesh.torus_box.TorusBox` pieces.
    """
    way = sum(bits_for_range(side) for box in inner_boxes for side in box.sides)
    if dim_order == "random":
        return way + (len(inner_boxes) + 1) * perm_bits(d)
    if dim_order == "shared":
        return way + perm_bits(d)
    if dim_order == "fixed":
        return way
    raise ValueError(f"unknown dim_order {dim_order!r}")


def sequence_recycled_bits(bridge_sides, d: int) -> int:
    """Scalar planned recycled cost of one alive packet: Lemma 5.4."""
    return perm_bits(d) + 2 * sum(bits_for_range(side) for side in bridge_sides)


def note_budget(profiler, ledger: "BitBudget | None") -> None:
    """Mirror a ledger into ``budget.*`` profiler counters (no-op safe)."""
    if profiler is None or ledger is None:
        return
    profiler.count("budget.packets", ledger.packets)
    if ledger.bits_drawn:
        profiler.count("budget.bits_drawn", ledger.bits_drawn)
    if ledger.fallbacks:
        profiler.count("budget.fallbacks", ledger.fallbacks)
    if ledger.unmetered:
        profiler.count("budget.unmetered", ledger.unmetered)


def degradation_plan(
    fresh: np.ndarray,
    recycled: np.ndarray | None,
    limit: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The deterministic degradation ladder, as three disjoint masks.

    Returns ``(ok, use_recycled, use_dimorder)``: within budget, degraded
    to the recycled scheme, degraded to dimension-order.  ``recycled``
    may be ``None`` (router has no recycled fallback) in which case every
    over-budget packet goes straight to dimension-order.
    """
    fresh = np.asarray(fresh)
    ok = fresh <= limit
    over = ~ok
    if recycled is None:
        use_rec = np.zeros_like(over)
    else:
        use_rec = over & (np.asarray(recycled) <= limit)
    return ok, use_rec, over & ~use_rec


@dataclass
class BudgetLadder:
    """One run's budget decisions: the ledger and each packet's rung.

    ``ledger`` is ``None`` under mode ``off``.  ``cost`` is the planned
    bits of one selection on each packet's rung (``None`` when the run is
    unmetered); the ledger already charges every packet one selection.
    """

    ledger: BitBudget | None
    cost: np.ndarray | None
    use_rec: np.ndarray  #: (N,) degraded to the recycled scheme
    use_dim: np.ndarray  #: (N,) degraded to dimension-order
    fallback: object | None  #: the router's recycled-bit clone, if used

    @property
    def degraded(self) -> np.ndarray:
        """(N,) packets routed off their router's own scheme."""
        return self.use_rec | self.use_dim

    def selector(self, i: int, select):
        """``(select_path, deterministic)`` of packet ``i``'s rung.

        ``select`` is the router's own selector, used within budget.
        """
        if self.use_dim[i]:
            return _dimension_order_select, True
        if self.use_rec[i]:
            return self.fallback.select_path, False
        return select, False


def _dimension_order_select(mesh, s: int, t: int, rng) -> np.ndarray:
    """The ladder's last rung: zero random bits, ``rng`` untouched."""
    from repro.mesh.paths import dimension_order_path

    return dimension_order_path(mesh, s, t, tuple(range(mesh.d)))


def budget_ladder(router, problem, params: BudgetParams) -> BudgetLadder:
    """Meter ``problem`` under ``params`` and walk the degradation ladder.

    Prices every packet through ``router.planned_bits`` — a function of
    ``(mesh, s, t)`` alone, so every lane and shard reaches the same
    verdict — and, under ``enforce``, degrades the packets over the
    ceiling (recycled scheme first, then dimension-order).  Runs under
    the router's ``route.budget`` profiler stage.
    """
    n = problem.num_packets
    keep = np.zeros(n, dtype=bool)
    if not params.active:
        return BudgetLadder(None, None, keep, keep, None)
    profiler = getattr(router, "profiler", None)
    with profiler.stage("route.budget") if profiler else nullcontext():
        ledger = params.make_ledger(problem.mesh, n)
        plan = router.planned_bits(problem)
        if plan is None:
            ledger.unmetered = n
            return BudgetLadder(ledger, None, keep, keep, None)
        cost = np.asarray(plan, dtype=np.int64)
        ledger.metered = n
        use_rec = use_dim = keep
        fallback = None
        limit = params.limit_for(problem.mesh) if params.enforcing else None
        if limit is not None and bool((cost > limit).any()):
            fallback = router.budget_fallback_router()
            recycled = (
                router.planned_bits(problem, mode="recycled")
                if fallback is not None
                else None
            )
            ok, use_rec, use_dim = degradation_plan(cost, recycled, limit)
            cost = np.where(
                ok, cost, np.where(use_rec, recycled, 0) if recycled is not None else 0
            ).astype(np.int64)
            ledger.fallbacks_recycled = int(use_rec.sum())
            ledger.fallbacks_dimorder = int(use_dim.sum())
        ledger.bits_drawn = int(cost.sum())
        ledger.max_bits = int(cost.max()) if n else 0
    return BudgetLadder(ledger, cost, use_rec, use_dim, fallback)
