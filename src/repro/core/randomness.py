"""Random-bit accounting and the recycled-bit scheme (Section 5).

The paper proves that oblivious algorithms with near-optimal congestion
*must* randomize — ``Ω((d / (1 + d/log n)) log(D/d))`` random bits per
packet — and that algorithm ``H`` needs only ``O(d log(D d))`` bits, which
is within ``O(d)`` of that lower bound (Theorem 5.5).  The saving over the
naive ``O(d log^2(D d))`` comes from two tricks (Section 5.3):

i.  pick the random dimension ordering *once* per path and reuse it in
    every step;
ii. draw two random "master" nodes ``v1``, ``v2`` in the *largest* submesh
    of the bitonic path and derive the random node of every smaller submesh
    from prefixes of their bits, alternating between ``v1`` (odd steps) and
    ``v2`` (even steps) so that consecutive subpath endpoints stay
    independent.

:class:`BitCounter` wraps a numpy generator and counts every bit drawn;
:class:`RecycledBits` implements trick (ii).  The routers accept either a
plain ``numpy.random.Generator`` or a :class:`BitCounter`, so accounting is
pay-for-use.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "BitCounter",
    "RecycledBits",
    "bits_for_range",
    "resolve_entropy",
    "packet_seed_sequence",
    "packet_stream",
    "packet_streams",
    "spawn_state",
    "packet_uniforms",
    "SIM_ARRIVALS",
    "SIM_PATHS",
    "SIM_SCHED",
    "SIM_REROUTE",
    "SIM_TRAFFIC",
]

# ---------------------------------------------------------------------------
# Global-index seed derivation (the sharding contract)
# ---------------------------------------------------------------------------
#
# Every per-packet random stream is keyed by the packet's *global* index via
# ``np.random.SeedSequence(entropy, spawn_key=(*prefix, index))``.  Keying by
# global index (never by shard-local order) is what makes sharded execution
# byte-identical to serial execution for every shard count: worker ``k``
# routing packets ``[a, b)`` derives exactly the streams the serial engine
# would have derived for those packets.
#
# Two consumers share the contract:
#
# * the per-packet fallback loop builds a real ``Generator(PCG64(child))``
#   per packet (scalar ``select_path`` cannot be vectorised anyway);
# * the batched engine needs *vectorised* per-packet uniforms, so
#   :func:`spawn_state` re-implements SeedSequence's hash pipeline with the
#   per-index spawn-key word as the only vectorised input.  The replica is
#   exact — ``tests/test_parallel_properties.py`` asserts word-for-word
#   equality against ``SeedSequence.generate_state`` — so the engine's
#   uniforms are *defined* in terms of the public numpy primitive, not a
#   private scheme.
#
# Stream-name constants keep ``simulate_online``'s independent branches
# (arrivals, per-packet path selection, scheduler tie-breaks, mid-flight
# reroutes) from colliding with each other; ``Router.route`` uses the bare
# ``(index,)`` key.

#: ``simulate_online`` spawn-key branches (see :mod:`repro.simulation.online`).
SIM_ARRIVALS = 1
SIM_PATHS = 2
SIM_SCHED = 3
SIM_REROUTE = 4
#: traffic-process arrival streams (see :mod:`repro.workloads.traffic`);
#: keyed per *step*, not per packet, so arrival generation is independent
#: of batch/chunk boundaries.
SIM_TRAFFIC = 5

# SeedSequence hash constants (numpy's bit_generator.pyx, after the C++
# randutils lineage).  Note numpy's ``mix`` *subtracts* the two products —
# it does not XOR them — which tests pin by comparing against numpy itself.
_M32 = 0xFFFFFFFF
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_L = 0xCA01F9DD
_MIX_R = 0x4973F715
_XSHIFT = 16
_POOL = 4


def resolve_entropy(seed: int | str | None) -> int:
    """Resolve a user-facing seed to the concrete root entropy integer.

    ``None`` draws fresh OS entropy *once*; sharded execution resolves the
    seed in the parent and ships the same integer to every worker, so even
    unseeded runs are internally consistent across shard counts.  The
    resolved value is stored on :class:`~repro.routing.base.RoutingResult`
    so any run can be replayed exactly.

    Decimal strings are accepted as well — the on-disk convention from
    ``repro.io``, which stores the (up to 128-bit) resolved entropy as a
    decimal string because HDF5/int64 cannot hold it.  ``"42"`` and ``42``
    resolve identically, so replaying a saved result's seed field is a
    straight round-trip.
    """
    if seed is None:
        return int(np.random.SeedSequence().entropy)
    if isinstance(seed, str):
        text = seed.strip()
        if not text.isdigit():
            raise ValueError(
                f"string seeds must be non-negative decimal integers, got {seed!r}"
            )
        return int(text)
    if isinstance(seed, (int, np.integer)):
        if seed < 0:
            raise ValueError("seed must be non-negative")
        return int(seed)
    raise TypeError(
        f"seed must be an int, a decimal string, or None, got {type(seed).__name__}"
    )


def packet_seed_sequence(
    entropy: int, index: int, prefix: tuple[int, ...] = ()
) -> np.random.SeedSequence:
    """The canonical ``SeedSequence`` of one global packet index.

    With an empty ``prefix`` this is exactly the ``index``-th child that
    ``np.random.default_rng(entropy).spawn(n)`` would produce, for any
    ``n > index`` — the scheme is the old per-packet ``spawn`` keyed by
    global position instead of spawn order.

    Indices are bounded to 32 bits, matching :func:`spawn_state`'s guard:
    ``SeedSequence`` would silently split a wider index into *two*
    spawn-key words, so the scalar loop and the vectorised engine would
    derive different streams for the same packet.  Rejecting the index in
    both keeps the contract single-worded everywhere.
    """
    index = int(index)
    if not 0 <= index <= _M32:
        raise ValueError("packet indices must fit in 32 bits and be non-negative")
    return np.random.SeedSequence(entropy, spawn_key=(*prefix, index))


def packet_stream(
    entropy: int, index: int, prefix: tuple[int, ...] = ()
) -> np.random.Generator:
    """A fresh per-packet generator for global packet ``index``."""
    return np.random.default_rng(packet_seed_sequence(entropy, index, prefix))


def packet_streams(
    entropy: int, start: int, stop: int, prefix: tuple[int, ...] = ()
) -> list[np.random.Generator]:
    """Per-packet generators for the global index range ``[start, stop)``."""
    return [packet_stream(entropy, i, prefix) for i in range(start, stop)]


def _entropy_words(value: int) -> list[int]:
    """``value`` as little-endian uint32 words (at least one word)."""
    if value < 0:
        raise ValueError("entropy words must be non-negative")
    words = []
    while value:
        words.append(value & _M32)
        value >>= 32
    return words or [0]


def _hashmix_scalar(value: int, const: int) -> tuple[int, int]:
    value = (value ^ const) & _M32
    const = (const * _MULT_A) & _M32
    value = (value * const) & _M32
    value ^= value >> _XSHIFT
    return value, const


def _mix_scalar(x: int, y: int) -> int:
    result = ((x * _MIX_L) - (y * _MIX_R)) & _M32
    return result ^ (result >> _XSHIFT)


def spawn_state(
    entropy: int,
    indices: np.ndarray,
    n_words: int,
    prefix: tuple[int, ...] = (),
) -> np.ndarray:
    """Vectorised ``SeedSequence(entropy, spawn_key=(*prefix, i)).generate_state``.

    Returns a ``(len(indices), n_words)`` uint32 array whose row ``k``
    equals ``np.random.SeedSequence(entropy, spawn_key=(*prefix,
    indices[k])).generate_state(n_words)`` word for word.  Everything up to
    the final spawn-key word is index-independent and computed once; only
    the four pool-mixing rounds of the index word and the output pass run
    over the whole index array.  ``indices`` must be a one-dimensional
    array of an integer dtype (not ``bool``) with values in ``[0, 2**32)``.
    """
    idx_in = np.asarray(indices)
    if idx_in.ndim != 1:
        raise ValueError("indices must be one-dimensional")
    # A float index would truncate onto another packet's stream, and a bool
    # or object array is no index array at all.
    if not np.issubdtype(idx_in.dtype, np.integer):
        raise ValueError(
            f"packet indices must have an integer dtype, got {idx_in.dtype}"
        )
    # Validate *before* the unsigned cast: a negative index would wrap to a
    # huge value and be rejected with a misleading width message (or, worse,
    # slip through on platforms whose cast saturates).
    if idx_in.size and (int(idx_in.min()) < 0 or int(idx_in.max()) > _M32):
        raise ValueError("packet indices must fit in 32 bits and be non-negative")
    idx = idx_in.astype(np.uint32)
    # Assembled entropy: root words padded to the pool size (spawn keys are
    # always present here), then one word per prefix element.  The per-index
    # word is appended by the vectorised rounds below.
    head = _entropy_words(entropy)
    if len(head) < _POOL:
        head = head + [0] * (_POOL - len(head))
    for part in prefix:
        if not 0 <= int(part) <= _M32:
            raise ValueError("spawn-key prefix words must fit in 32 bits")
        head.extend(_entropy_words(int(part)))

    # Scalar phase: pool fill + inter-pool mixing + prefix words.
    const = _INIT_A
    pool = []
    for i in range(_POOL):
        value, const = _hashmix_scalar(head[i] if i < len(head) else 0, const)
        pool.append(value)
    for i_src in range(_POOL):
        for i_dst in range(_POOL):
            if i_src != i_dst:
                value, const = _hashmix_scalar(pool[i_src], const)
                pool[i_dst] = _mix_scalar(pool[i_dst], value)
    for i_src in range(_POOL, len(head)):
        for i_dst in range(_POOL):
            value, const = _hashmix_scalar(head[i_src], const)
            pool[i_dst] = _mix_scalar(pool[i_dst], value)

    # Vectorised phase: mix the per-index word into each pool lane.  Every
    # array is uint32, whose arithmetic wraps mod 2^32 exactly as numpy's
    # hash does; the index-independent products are folded in Python.
    lanes = np.empty((idx.size, _POOL), dtype=np.uint32)
    for i_dst in range(_POOL):
        value = idx ^ np.uint32(const)
        const = (const * _MULT_A) & _M32
        value *= np.uint32(const)
        value ^= value >> np.uint32(_XSHIFT)
        mixed = np.uint32((pool[i_dst] * _MIX_L) & _M32) - value * np.uint32(_MIX_R)
        mixed ^= mixed >> np.uint32(_XSHIFT)
        lanes[:, i_dst] = mixed

    # Output pass (generate_state): word w hashes lane w % 4 with the w-th
    # constant of the INIT_B / MULT_B sequence; each step is one pass over
    # the (N, n_words) words, the lanes tiled out to that width first.
    xor_by = np.empty(n_words, dtype=np.uint32)
    mul_by = np.empty(n_words, dtype=np.uint32)
    const = _INIT_B
    for w in range(n_words):
        xor_by[w] = const
        const = (const * _MULT_B) & _M32
        mul_by[w] = const
    out = np.tile(lanes, (1, -(-n_words // _POOL)))[:, :n_words]
    out ^= xor_by
    out *= mul_by
    out ^= out >> np.uint32(_XSHIFT)
    return np.ascontiguousarray(out)


def packet_uniforms(
    entropy: int,
    indices: np.ndarray,
    n_doubles: int,
    prefix: tuple[int, ...] = (),
) -> np.ndarray:
    """Per-packet uniforms in ``[0, 1)``, keyed by global packet index.

    Row ``k`` holds ``n_doubles`` uniforms derived from packet
    ``indices[k]``'s seed sequence: ``generate_state(n_doubles,
    dtype=np.uint64)`` mapped through the standard 53-bit conversion
    ``(word >> 11) * 2**-53``.  Packet ``i``'s values depend only on
    ``(entropy, prefix, i)`` — never on the batch it arrives in — which is
    the whole sharding story.
    """
    # No unsigned pre-cast here: hand the raw indices to spawn_state so its
    # dtype, sign and width validation sees them before any cast.
    words = spawn_state(entropy, indices, 2 * n_doubles, prefix)
    # generate_state(dtype=uint64) pairs the uint32 words low word first:
    # the bytes of the words read as little-endian uint64, on any host.
    u64 = words.astype("<u4", copy=False).view("<u8")
    u64 >>= np.uint64(11)
    return u64 * (2.0**-53)


def bits_for_range(extent: int) -> int:
    """Bits needed to cover ``extent`` outcomes: ``ceil(log2 extent)``."""
    if extent < 1:
        raise ValueError("extent must be >= 1")
    return (extent - 1).bit_length()


class BitCounter:
    """A bit-metered source of randomness.

    All randomness is drawn bit-by-bit from the wrapped generator and
    tallied in :attr:`bits_used`.  Sampling a uniform integer below a
    non-power-of-two bound uses rejection, so the tally is itself a random
    variable slightly above the entropy — exactly what an implementation
    consuming a physical bit stream would pay.
    """

    def __init__(self, rng: np.random.Generator | int | None = None):
        if not isinstance(rng, np.random.Generator):
            rng = np.random.default_rng(rng)
        self._rng = rng
        self.bits_used = 0

    def reset(self) -> None:
        self.bits_used = 0

    def bits(self, n: int) -> int:
        """Draw ``n`` random bits, returned as an integer in ``[0, 2^n)``."""
        if n < 0:
            raise ValueError("cannot draw a negative number of bits")
        if n == 0:
            return 0
        self.bits_used += n
        out = 0
        remaining = n
        while remaining > 0:
            chunk = min(remaining, 32)
            out = (out << chunk) | int(self._rng.integers(0, 1 << chunk))
            remaining -= chunk
        return out

    def integer_below(self, bound: int) -> int:
        """Uniform integer in ``[0, bound)`` via rejection sampling."""
        if bound < 1:
            raise ValueError("bound must be >= 1")
        if bound == 1:
            return 0
        width = bits_for_range(bound)
        while True:
            x = self.bits(width)
            if x < bound:
                return x

    def permutation(self, d: int) -> tuple[int, ...]:
        """A uniformly random ordering of ``d`` dimensions (Fisher-Yates).

        Costs about ``log2(d!)`` bits — the ``O(d log d)`` term of
        Lemma 5.4.
        """
        order = list(range(d))
        for i in range(d - 1, 0, -1):
            j = self.integer_below(i + 1)
            order[i], order[j] = order[j], order[i]
        return tuple(order)

    def uniform_node(self, box) -> int:
        """A uniformly random node of ``box`` (step 5 of the algorithm).

        Works for plain and wrapped boxes via the shared ``sides`` /
        ``offset_node`` interface.
        """
        offsets = [self.integer_below(side) for side in box.sides]
        return box.offset_node(offsets)


class RecycledBits:
    """Derives all intermediate random nodes of one path from two masters.

    Parameters
    ----------
    source:
        The bit-metered randomness source.
    largest:
        The largest submesh of the bitonic path (the bridge); both master
        draws are sized to it.

    Each master stores, per dimension, a uniform ``ceil(log2 side)``-bit
    word ``W``.  The node for a smaller power-of-two-sided submesh takes the
    low bits of ``W`` — exactly uniform in its box.  The master's own
    coordinate is ``lo + (W mod side)``: exactly uniform when the bridge
    side is a power of two (every untruncated bridge), and at most a
    factor-2 biased on border-clipped bridges — the "minor technical details
    due to edge effects" the paper waves at in Lemma 3.3's proof.  Masters
    alternate by step parity, the paper's device for keeping the two
    endpoints of every subpath independent.
    """

    def __init__(self, source: BitCounter, largest):
        self.source = source
        self.largest = largest
        d = largest.mesh.d
        self._widths = [bits_for_range(side) for side in largest.sides]
        self._masters: list[list[int]] = [
            [source.bits(self._widths[i]) for i in range(d)] for _ in range(2)
        ]

    def master_node(self, which: int) -> int:
        """The flat id of master ``which`` (0 or 1) inside the largest box."""
        words = self._masters[which % 2]
        offsets = [w % side for side, w in zip(self.largest.sides, words)]
        return self.largest.offset_node(offsets)

    def node_for(self, step: int, box: Submesh) -> int:
        """Uniform node of ``box`` derived from master ``step % 2``.

        ``box`` must have power-of-two side lengths (type-1 submeshes always
        do); for the largest box itself the master node is returned.
        """
        if box == self.largest:
            return self.master_node(step)
        words = self._masters[step % 2]
        offsets = []
        for i, side in enumerate(box.sides):
            if side & (side - 1):
                raise ValueError(
                    "recycled bits require power-of-two sides for derived "
                    f"boxes, got side {side}"
                )
            need = bits_for_range(side)
            if need > self._widths[i]:
                raise ValueError("derived box is wider than the master box")
            offsets.append(words[i] & (side - 1))
        return box.offset_node(offsets)
