"""Vectorised ancestor/bridge tables for batched path selection.

:class:`SequenceTables` re-derives the per-packet bitonic submesh sequence
of :class:`~repro.core.path_selection.HierarchicalRouter` — type-1 ancestor
chains plus the bridge search of Lemmas 3.3 / 4.1 — as numpy arithmetic
over *all* packets of a routing problem at once.  The scalar implementation
(:mod:`repro.core.bridges`) walks heights one packet at a time in Python;
this module walks heights once, carrying an ``(N, d)`` coordinate array,
which turns the dominant cost of ``HierarchicalRouter.route`` into a
handful of vectorised passes.

Key identities (power-of-two cube mesh, side ``m = 2^k``, non-torus):

* the type-1 cell of node coordinates ``c`` at height ``h`` is ``c >> h``
  and its box is ``[(c >> h) << h, ((c >> h) << h) + 2^h - 1]``;
* a box ``[lo, hi]`` fits in some cell of the type-``j`` grid (shift
  ``σ``) at cell side ``M`` iff ``(lo - σ) // M == (hi - σ) // M`` in every
  dimension (floor division; the extension layer is cell index ``-1``);
* under the ``paper2d`` scheme a shifted cell is discarded iff it is
  clipped by the mesh border in *every* dimension (a corner submesh);
* a fit implies ``hi - lo < M`` in every dimension, and a packet's
  bitonic target box holds both ``s`` and ``t``, so no height ``h`` with
  ``2^h <= max_j |s_j - t_j|`` holds its bridge: the search starts at the
  floor ``bit_length(max_j |s_j - t_j|)``, the lower side of the window
  whose upper side is Lemma 3.3's ``ceil(log2 dist) + 2``.  The Section 4
  search's floor is ``h' + 1`` (its target spans two distinct cells of
  side ``2^{h'}``);
* the type-1 cell at height ``k`` is the whole mesh, so the bitonic
  search gives every packet still unresolved there the root, with no
  fit test.

``tests/test_engine.py`` certifies, per packet, that the arrays produced
here equal the boxes of ``HierarchicalRouter.submesh_sequence``.

Instances are shared process-wide through :mod:`repro.cache` (the
"derived tables" the cache exists for): build once per
``(mesh shape, scheme)``, reuse across routers, benchmarks, simulators.
"""

from __future__ import annotations

import numpy as np

from repro import cache as _cache
from repro import kernels
from repro.core.decomposition import Decomposition
from repro.mesh.mesh import Mesh

__all__ = ["SequenceTables", "bit_length"]


def _across_dims(op: np.ufunc, x: np.ndarray) -> np.ndarray:
    """``op.reduce(x, axis=1)`` for an ``(N, d)`` array, one column at a
    time: numpy's reduce over a short last axis costs about 20x more than
    ``d - 1`` elementwise passes."""
    out = x[:, 0].copy()
    for j in range(1, x.shape[1]):
        op(out, x[:, j], out=out)
    return out


def bit_length(x: np.ndarray) -> np.ndarray:
    """Vectorised ``int.bit_length`` for non-negative int64 arrays.

    Exact for values below ``2^53`` (mesh coordinates are far smaller):
    ``frexp`` returns the exponent ``e`` with ``x = mant * 2^e``,
    ``0.5 <= mant < 1``, which is precisely the bit length; ``x == 0``
    yields 0.
    """
    return np.frexp(np.asarray(x, dtype=np.float64))[1].astype(np.int64)


class SequenceTables:
    """Batched bitonic-sequence construction for one decomposition.

    Produces, for packet arrays ``(sources, dests)``:

    * ``u`` — the number of *up* inner submeshes (the sequence is
      ``anc_s(1..u), bridge, anc_t(u..1)`` between the two leaves);
    * the bridge box per packet;
    * dense padded ``(N, S_max, d)`` arrays of inner-box corners/lengths
      ready for the batch engine's stage-major random draws.

    Only the mesh variant is supported (no torus): wrapped boxes make the
    bounding-arc arithmetic modular, and the engine falls back to the
    per-packet loop there.
    """

    def __init__(self, dec: Decomposition):
        if dec.mesh.torus:
            raise ValueError("SequenceTables supports mesh (non-torus) only")
        self.dec = dec
        self.mesh = dec.mesh
        self.d = dec.d
        self.k = dec.k
        self.m = dec.m
        #: shift offsets per height ``h`` (level ``k - h``), type-1 first
        self.shifts_at_height: dict[int, list[int]] = {
            h: dec.shifts(dec.level_of_height(h)) for h in range(1, self.k + 1)
        }
        #: padded inner-sequence capacity: ``2u + 1 <= 2k - 1`` slots
        self.max_inner = max(2 * self.k - 1, 1)

    @classmethod
    def for_mesh(cls, mesh: Mesh, scheme: str = "auto") -> "SequenceTables":
        """The process-wide shared instance for ``(mesh shape, scheme)``."""
        resolved = _cache.resolve_scheme(mesh, scheme)
        key = (mesh.sides, mesh.torus, resolved)
        return _cache.memo(
            "tables",
            key,
            lambda: cls(_cache.get_decomposition(mesh, resolved)),
        )

    # ------------------------------------------------------------------
    # Vectorised bridge searches
    # ------------------------------------------------------------------
    def _fit_candidates(
        self,
        h: int,
        lo: np.ndarray,
        hi: np.ndarray,
        min_side: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """First regular submesh (by type index) at height ``h`` containing
        each target box ``[lo, hi]``.

        Returns ``(found, bridge_lo, bridge_hi)`` over the input rows.
        ``min_side`` (per-row) enforces the Appendix-A side condition
        "every side at least ``2 * 2^{h'}``" on *clipped* candidates;
        type-1 candidates at height ``h > h'`` satisfy it structurally.
        """
        n = lo.shape[0]
        M = 1 << h
        found = np.zeros(n, dtype=bool)
        blo = np.zeros_like(lo)
        bhi = np.zeros_like(hi)
        # type 1: cells of the unshifted grid (always full-size, in-range)
        c_lo = lo >> h
        fit = _across_dims(np.logical_and, c_lo == (hi >> h))
        if min_side is not None:
            fit &= M >= min_side  # scalar side vs per-row requirement
        blo[fit] = c_lo[fit] << h
        bhi[fit] = blo[fit] + (M - 1)
        found |= fit
        # shifted types, in type-index order (the scalar search's ordering)
        for sigma in self.shifts_at_height[h][1:]:
            rem = ~found
            if not rem.any():
                break
            alo = (lo[rem] - sigma) // M
            fit = _across_dims(np.logical_and, alo == (hi[rem] - sigma) // M)
            start = alo * M + sigma
            end = start + M - 1
            clo = np.maximum(start, 0)
            chi = np.minimum(end, self.m - 1)
            if self.dec.scheme == "paper2d":
                clipped = (start < 0) | (end > self.m - 1)
                fit &= ~_across_dims(np.logical_and, clipped)
            if min_side is not None:
                wide = chi - clo + 1 >= min_side[rem, None]
                fit &= _across_dims(np.logical_and, wide)
            rows = np.flatnonzero(rem)[fit]
            blo[rows] = clo[fit]
            bhi[rows] = chi[fit]
            found[rows] = True
        return found, blo, bhi

    def _bridges_bitonic(
        self, cs: np.ndarray, ct: np.ndarray, alive: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorised :func:`~repro.core.bridges.common_ancestor_2d`."""
        N = cs.shape[0]
        u = np.zeros(N, dtype=np.int64)
        bridge_lo = np.zeros_like(cs)
        bridge_hi = np.zeros_like(cs)
        unresolved = alive.copy()
        # no height below a packet's floor can hold its bridge, so each
        # packet joins the climb at its own floor
        floor = bit_length(_across_dims(np.maximum, np.abs(cs - ct)))
        for h in range(int(floor[alive].min(initial=self.k)), self.k):
            idx = np.flatnonzero(unresolved & (floor <= h))
            if idx.size == 0:
                continue
            half = h - 1
            a = cs[idx] >> half
            b = ct[idx] >> half
            lo = np.minimum(a, b) << half
            hi = (np.maximum(a, b) << half) + ((1 << half) - 1)
            found, blo, bhi = self._fit_candidates(h, lo, hi)
            done = idx[found]
            u[done] = h - 1
            bridge_lo[done] = blo[found]
            bridge_hi[done] = bhi[found]
            unresolved[done] = False
        # the type-1 cell at height k is the whole mesh: it holds every box
        rest = np.flatnonzero(unresolved)
        u[rest] = self.k - 1
        bridge_lo[rest] = 0
        bridge_hi[rest] = self.m - 1
        return u, bridge_lo, bridge_hi

    def _tops_type1(
        self, cs: np.ndarray, ct: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Deepest common type-1 ancestor (vectorised
        :func:`~repro.core.path_selection.common_type1_height`): the first
        height where ``cs >> h == ct >> h`` in every dimension, i.e. the
        max per-dimension bit length of ``cs ^ ct``."""
        h = _across_dims(np.maximum, bit_length(cs ^ ct))
        lo = (cs >> h[:, None]) << h[:, None]
        side = (np.int64(1) << h)[:, None]
        return h - 1, lo, lo + side - 1

    def _bridges_general(
        self,
        cs: np.ndarray,
        ct: np.ndarray,
        alive: np.ndarray,
        use_bridges: bool,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorised Section-4 sequence tops (``find_bridge`` with the
        Appendix-A double-side condition, or the pure type-1 meeting)."""
        N = cs.shape[0]
        u = np.zeros(N, dtype=np.int64)
        bridge_lo = np.zeros_like(cs)
        bridge_hi = np.zeros_like(cs)
        dist = _across_dims(np.add, np.abs(cs - ct))
        hp = np.clip(bit_length(np.maximum(dist - 1, 0)), 0, max(self.k - 1, 0))
        same_cell = _across_dims(
            np.logical_and, (cs >> hp[:, None]) == (ct >> hp[:, None])
        )
        pure = alive & (same_cell | (not use_bridges))
        if pure.any():
            pu, plo, phi = self._tops_type1(cs[pure], ct[pure])
            u[pure] = pu
            bridge_lo[pure] = plo
            bridge_hi[pure] = phi
        bridged = alive & ~pure
        if bridged.any():
            u[bridged] = hp[bridged]
            side = (np.int64(1) << hp[:, None])
            lo1 = (cs >> hp[:, None]) << hp[:, None]
            lo3 = (ct >> hp[:, None]) << hp[:, None]
            lo = np.minimum(lo1, lo3)
            hi = np.maximum(lo1 + side - 1, lo3 + side - 1)
            min_side = np.int64(2) << hp  # 2 * 2^{h'}
            unresolved = bridged.copy()
            for h in range(int(hp[bridged].min()) + 1, self.k + 1):
                idx = np.flatnonzero(unresolved & (hp + 1 <= h))
                if idx.size == 0:
                    continue
                found, blo, bhi = self._fit_candidates(
                    h, lo[idx], hi[idx], min_side=min_side[idx]
                )
                done = idx[found]
                bridge_lo[done] = blo[found]
                bridge_hi[done] = bhi[found]
                unresolved[done] = False
            if unresolved.any():  # pragma: no cover - root qualifies
                raise AssertionError("unreachable: no general bridge found")
        return u, bridge_lo, bridge_hi

    # ------------------------------------------------------------------
    # Dense padded box arrays for the batch engine
    # ------------------------------------------------------------------
    def batch_boxes(
        self,
        cs: np.ndarray,
        ct: np.ndarray,
        *,
        variant: str,
        use_bridges: bool,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Inner-box arrays for every packet's bitonic sequence.

        ``cs`` / ``ct`` are the ``(N, d)`` source and destination
        coordinates (``mesh.flat_to_coords``), which callers keep for the
        engine spec.  Returns ``(box_lo, box_len, n_inner)`` with shapes
        ``(N, S_max, d)``, ``(N, S_max, d)``, ``(N,)``.  Slot layout per
        packet (``u`` up entries): slots ``0..u-1`` are the type-1
        ancestors of the source at heights ``1..u``, slot ``u`` is the
        bridge, slots ``u+1..2u`` are the destination's ancestors at
        heights ``u..1``.  Unused slots are the single-node box of the
        destination, so a waypoint drawn there is the destination itself
        and contributes no movement — padding keeps every packet's random
        consumption identical without changing its path.
        """
        N = cs.shape[0]
        alive = _across_dims(np.logical_or, cs != ct)
        if variant == "bitonic2d":
            if use_bridges:
                u, blo, bhi = self._bridges_bitonic(cs, ct, alive)
            else:
                u = np.zeros(N, dtype=np.int64)
                blo = np.zeros_like(cs)
                bhi = np.zeros_like(ct)
                if alive.any():
                    pu, plo, phi = self._tops_type1(cs[alive], ct[alive])
                    u[alive], blo[alive], bhi[alive] = pu, plo, phi
        elif variant == "general":
            u, blo, bhi = self._bridges_general(cs, ct, alive, use_bridges)
        else:
            raise ValueError(f"unknown variant {variant!r}")

        S = self.max_inner
        d = self.d
        box_lo = np.empty((N, S, d), dtype=np.int64)
        box_len = np.empty((N, S, d), dtype=np.int64)
        n_inner = np.where(alive, 2 * u + 1, 0)
        kernels.fill_box_chains(box_lo, box_len, cs, ct, u, blo, bhi, alive, self.k)
        return box_lo, box_len, n_inner
