"""The oblivious path-selection algorithm ``H`` (Sections 3.3 and 4).

For each packet independently:

1. build a *bitonic* sequence of nested regular submeshes — the type-1
   ancestors of the source rising to a **bridge** submesh, then the type-1
   ancestors of the destination descending back to the leaf;
2. pick a uniformly random node ``v_i`` in every submesh of the sequence
   (``v_0 = s``, ``v_l = t``);
3. connect consecutive ``v_{i-1}, v_i`` by a dimension-by-dimension
   shortest path (at most one bend in 2-D) under a random ordering of the
   dimensions;
4. concatenate the subpaths (and drop any cycles — never increases
   congestion, see the remark before Theorem 3.9).

Two variants:

``"bitonic2d"`` (Section 3)
    The bitonic access-graph path climbs one level at a time to the deepest
    common ancestor.  With the ``paper2d`` decomposition this is the
    algorithm of Theorem 3.4 (stretch <= 64) and Theorem 3.9 (congestion
    ``O(C* log n)`` whp).  It works in any dimension — the paper's "direct
    generalization" — but its stretch grows like ``O(2^d)``.

``"general"`` (Section 4)
    The ``d``-dimensional algorithm: climb the type-1 chain only to height
    ``h' = ceil(log2 dist(s,t))``, then jump to a bridge at height
    ``>= h' + 1`` whose sides are at least twice the chain's (condition
    (iii) of Appendix A; the paper's "technical reason" for height
    ``h + 1``), then descend.  Stretch ``O(d^2)``, congestion
    ``O(d^2 C* log n)`` whp (Theorems 4.2, 4.3).

Randomness modes (Section 5.3): fresh bits per draw, or the recycled-bit
scheme (one shared dimension order + two master nodes) which needs only
``O(d log(D d))`` bits per packet (Lemma 5.4).
"""

from __future__ import annotations

import math

import numpy as np

from repro import cache
from repro.core.bridges import common_ancestor_2d, find_bridge
from repro.core.decomposition import Decomposition
from repro.core.randomness import BitCounter, RecycledBits
from repro.mesh.mesh import Mesh
from repro.mesh.paths import concatenate_paths, dimension_order_path, remove_cycles
from repro.mesh.submesh import Submesh
from repro.routing.base import Router, RoutingProblem, RoutingResult

__all__ = ["HierarchicalRouter", "common_type1_height"]


def common_type1_height(dec: Decomposition, s: int, t: int) -> int:
    """Smallest height at which the type-1 ancestors of ``s``, ``t`` agree.

    This is the access-*tree* meeting height (Maggs et al. [9]); the access
    graph's bridges exist precisely to beat it.
    """
    if s == t:
        return 0
    for h in range(1, dec.k + 1):
        if dec.type1_cell(s, dec.level_of_height(h)) == dec.type1_cell(
            t, dec.level_of_height(h)
        ):
            return h
    raise AssertionError("unreachable: the root is a common ancestor")


class HierarchicalRouter(Router):
    """Algorithm ``H``: oblivious routing over the hierarchical decomposition.

    Parameters
    ----------
    scheme:
        Decomposition scheme (``"auto"``, ``"paper2d"``, ``"multishift"``);
        see :class:`~repro.core.decomposition.Decomposition`.
    variant:
        ``"auto"`` (``bitonic2d`` for d <= 2, else ``general``),
        ``"bitonic2d"`` or ``"general"`` — see the module docstring.
    use_bridges:
        Disabling bridges restricts meeting points to type-1 ancestors,
        which *is* the access-tree algorithm — kept here so the ablation
        differs by exactly one switch.
    dim_order:
        ``"random"`` — a fresh random ordering per subpath (step 7 as
        written); ``"shared"`` — one random ordering reused along the whole
        path (the Section 5.3 bit saving); ``"fixed"`` — ordering
        ``0, 1, ..., d-1`` (ablation A2).
    bit_mode:
        ``None`` — plain numpy sampling, no accounting (fastest);
        ``"fresh"`` — every draw metered through :class:`BitCounter`;
        ``"recycled"`` — the Section 5.3 scheme (forces shared ordering).
    drop_cycles:
        Shortcut revisited nodes out of the final path (default, as in the
        paper's congestion analysis).
    profiler:
        Optional :class:`repro.obs.Profiler`; when set, :meth:`route`
        stages (sequence construction, draws, assembly) are timed and
        packet/edge/random-value counters accumulate on it.
    """

    is_oblivious = True

    def __init__(
        self,
        *,
        scheme: str = "auto",
        variant: str = "auto",
        use_bridges: bool = True,
        dim_order: str = "random",
        bit_mode: str | None = None,
        drop_cycles: bool = True,
        name: str | None = None,
        profiler=None,
    ):
        if variant not in ("auto", "bitonic2d", "general"):
            raise ValueError(f"unknown variant {variant!r}")
        if dim_order not in ("random", "shared", "fixed"):
            raise ValueError(f"unknown dim_order {dim_order!r}")
        if bit_mode not in (None, "fresh", "recycled"):
            raise ValueError(f"unknown bit_mode {bit_mode!r}")
        if bit_mode == "recycled" and dim_order == "random":
            dim_order = "shared"  # the recycled scheme fixes one ordering
        self.scheme = scheme
        self.variant = variant
        self.use_bridges = use_bridges
        self.dim_order = dim_order
        self.bit_mode = bit_mode
        self.drop_cycles = drop_cycles
        self.name = name or ("hierarchical" if use_bridges else "hierarchical-nobridge")
        self.profiler = profiler
        #: per-packet random bits consumed by the latest :meth:`route` call
        #: (populated only when ``bit_mode`` is set)
        self.bits_log: list[int] = []

    # ------------------------------------------------------------------
    def decomposition(self, mesh: Mesh) -> Decomposition:
        """The (process-wide shared) decomposition for ``mesh``."""
        return cache.get_decomposition(mesh, self.scheme)

    def warmup_keys(self, problem: RoutingProblem) -> tuple:
        return (cache.warmup_key(problem.mesh, self.scheme),)

    def _variant_for(self, mesh: Mesh) -> str:
        if self.variant != "auto":
            return self.variant
        return "bitonic2d" if mesh.d <= 2 else "general"

    # ------------------------------------------------------------------
    # Submesh sequence construction
    # ------------------------------------------------------------------
    def submesh_sequence(self, mesh: Mesh, s: int, t: int) -> tuple[list[Submesh], int]:
        """The bitonic submesh sequence for packet ``(s, t)``.

        Returns ``(sequence, bridge_index)``; the sequence starts with the
        leaf ``{s}`` and ends with the leaf ``{t}``, and
        ``sequence[bridge_index]`` is the topmost (largest) submesh.
        """
        dec = self.decomposition(mesh)
        if s == t:
            leaf = Submesh.single(mesh, s)
            return [leaf], 0
        variant = self._variant_for(mesh)
        if variant == "bitonic2d":
            return self._sequence_bitonic(dec, s, t)
        return self._sequence_general(dec, s, t)

    def _sequence_bitonic(
        self, dec: Decomposition, s: int, t: int
    ) -> tuple[list[Submesh], int]:
        if self.use_bridges:
            h, bridge = common_ancestor_2d(dec, s, t)
            top = bridge.box
        else:
            h = common_type1_height(dec, s, t)
            top = dec.type1_ancestor(s, h)
        up = [dec.type1_ancestor(s, i) for i in range(h)]  # heights 0..h-1
        down = [dec.type1_ancestor(t, i) for i in range(h - 1, -1, -1)]
        return up + [top] + down, h

    def _sequence_general(
        self, dec: Decomposition, s: int, t: int
    ) -> tuple[list[Submesh], int]:
        mesh = dec.mesh
        dist = int(mesh.distance(s, t))
        h_prime = min(max(math.ceil(math.log2(dist)), 0), dec.k - 1) if dec.k else 0
        m1 = dec.type1_ancestor(s, h_prime)
        m3 = dec.type1_ancestor(t, h_prime)
        if m1 == m3 or not self.use_bridges:
            # Pure type-1 meeting: use the deepest common type-1 ancestor.
            h = common_type1_height(dec, s, t)
            up = [dec.type1_ancestor(s, i) for i in range(h)]
            down = [dec.type1_ancestor(t, i) for i in range(h - 1, -1, -1)]
            return up + [dec.type1_ancestor(s, h)] + down, h
        _, bridge = find_bridge(
            dec, m1, m3, h_prime + 1, require_double_side=1 << h_prime
        )
        up = [dec.type1_ancestor(s, i) for i in range(h_prime + 1)]  # 0..h'
        down = [dec.type1_ancestor(t, i) for i in range(h_prime, -1, -1)]
        return up + [bridge.box] + down, h_prime + 1

    # ------------------------------------------------------------------
    # Path selection
    # ------------------------------------------------------------------
    def select_path(
        self, mesh: Mesh, s: int, t: int, rng: np.random.Generator
    ) -> np.ndarray:
        if s == t:
            if self.bit_mode is not None:
                self.bits_log.append(0)
            return np.asarray([s], dtype=np.int64)
        seq, bridge_idx = self.submesh_sequence(mesh, s, t)
        counter = BitCounter(rng) if self.bit_mode is not None else None
        waypoints = self._waypoints(seq, bridge_idx, s, t, rng, counter)
        pieces = []
        shared_order = None
        if self.dim_order == "shared":
            shared_order = (
                counter.permutation(mesh.d)
                if counter is not None
                else tuple(int(x) for x in rng.permutation(mesh.d))
            )
        for a, b in zip(waypoints, waypoints[1:]):
            if self.dim_order == "fixed":
                order = tuple(range(mesh.d))
            elif self.dim_order == "shared":
                order = shared_order
            else:
                order = (
                    counter.permutation(mesh.d)
                    if counter is not None
                    else tuple(int(x) for x in rng.permutation(mesh.d))
                )
            pieces.append(dimension_order_path(mesh, a, b, order))
        path = concatenate_paths(pieces)
        if self.drop_cycles:
            path = remove_cycles(path)
        if counter is not None:
            self.bits_log.append(counter.bits_used)
        return path

    def _waypoints(
        self,
        seq: list[Submesh],
        bridge_idx: int,
        s: int,
        t: int,
        rng: np.random.Generator,
        counter: BitCounter | None,
    ) -> list[int]:
        """Random node per submesh (endpoints pinned to ``s`` / ``t``)."""
        if self.bit_mode == "recycled":
            assert counter is not None
            recycler = RecycledBits(counter, seq[bridge_idx])
            inner = [
                recycler.node_for(i, box) for i, box in enumerate(seq[1:-1], start=1)
            ]
        elif counter is not None:
            inner = [counter.uniform_node(box) for box in seq[1:-1]]
        else:
            inner = [box.sample_node(rng) for box in seq[1:-1]]
        return [s, *inner, t]

    # ------------------------------------------------------------------
    # Batched engine support
    # ------------------------------------------------------------------
    def batch_spec(self, problem: RoutingProblem):
        """Batched-engine spec; ``None`` when this run needs the loop.

        Ineligible cases: bit-metered randomness (``bit_mode``), torus
        meshes (wrap-around assembly), and meshes the decomposition does
        not accept (non-power-of-two-cube) — all fall back to
        :meth:`select_path` per packet with identical behaviour.
        """
        mesh = problem.mesh
        if self.bit_mode is not None or mesh.torus or not mesh.is_power_of_two_cube:
            return None
        from repro.core.tables import SequenceTables
        from repro.routing.engine import BatchSpec

        tables = SequenceTables.for_mesh(mesh, self.scheme)
        cs = np.atleast_2d(mesh.flat_to_coords(problem.sources))
        ct = np.atleast_2d(mesh.flat_to_coords(problem.dests))
        box_lo, box_len, n_inner = tables.batch_boxes(
            cs, ct, variant=self._variant_for(mesh), use_bridges=self.use_bridges
        )
        return BatchSpec(
            mesh=mesh,
            coords_s=cs,
            coords_t=ct,
            box_lo=box_lo,
            box_len=box_len,
            dim_order=self.dim_order,
            fixed_order=tuple(range(mesh.d)) if self.dim_order == "fixed" else None,
            drop_cycles=self.drop_cycles,
            n_inner=n_inner,
        )

    # ------------------------------------------------------------------
    # Randomness-budget support (:mod:`repro.core.budget`)
    # ------------------------------------------------------------------
    def planned_bits(self, problem: RoutingProblem, mode: str | None = None):
        """Deterministic planned bits per packet of this router's draws.

        ``mode=None`` prices the router's own scheme (``bit_mode="recycled"``
        already pays recycled prices); ``mode="recycled"`` prices the budget
        ladder's degraded scheme.  Vectorised through
        :class:`~repro.core.tables.SequenceTables` when the mesh supports
        them; otherwise (torus / non-power-of-two) a scalar pass over
        :meth:`submesh_sequence`.
        """
        from repro.core.budget import (
            planned_fresh_bits,
            planned_recycled_bits,
            sequence_fresh_bits,
            sequence_recycled_bits,
        )

        mesh = problem.mesh
        eff = mode or ("recycled" if self.bit_mode == "recycled" else "fresh")
        if eff not in ("fresh", "recycled"):
            raise ValueError(f"unknown planned-bits mode {mode!r}")
        if not mesh.torus and mesh.is_power_of_two_cube:
            from repro.core.tables import SequenceTables

            tables = SequenceTables.for_mesh(mesh, self.scheme)
            _, box_len, n_inner = tables.batch_boxes(
                np.atleast_2d(mesh.flat_to_coords(problem.sources)),
                np.atleast_2d(mesh.flat_to_coords(problem.dests)),
                variant=self._variant_for(mesh),
                use_bridges=self.use_bridges,
            )
            alive = problem.sources != problem.dests
            if eff == "recycled":
                return planned_recycled_bits(box_len, alive)
            return planned_fresh_bits(
                box_len, self.dim_order, alive, n_inner=n_inner
            )
        out = np.zeros(problem.num_packets, dtype=np.int64)
        for i, (s, t) in enumerate(problem.pairs()):
            if s == t:
                continue
            seq, bridge_idx = self.submesh_sequence(mesh, s, t)
            if eff == "recycled":
                out[i] = sequence_recycled_bits(seq[bridge_idx].sides, mesh.d)
            else:
                out[i] = sequence_fresh_bits(seq[1:-1], self.dim_order, mesh.d)
        return out

    def budget_fallback_router(self) -> "HierarchicalRouter":
        """A recycled-bit clone of this router for budget degradation.

        Same decomposition, variant and cycle policy; ``bit_mode`` switched
        to ``"recycled"`` (which fixes one shared ordering), so a degraded
        packet pays exactly the Lemma 5.4 price on its own stream.
        """
        return HierarchicalRouter(
            scheme=self.scheme,
            variant=self.variant,
            use_bridges=self.use_bridges,
            dim_order="shared",
            bit_mode="recycled",
            drop_cycles=self.drop_cycles,
        )

    # ------------------------------------------------------------------
    def route(
        self, problem: RoutingProblem, seed: int | None = None, **kwargs
    ) -> RoutingResult:
        self.bits_log = []
        return super().route(problem, seed, **kwargs)
