"""The kernels' contract: each plain numpy kernel against a referee.

Mirroring docs/KERNELS.md, every kernel in :mod:`repro.kernels` is
fuzzed against an independent reference: the scalar oracles of
:mod:`repro.verify.oracles`, the scalar primitives they restate, or a
plain Python loop written out here.  The golden hash matrix
(``tests/test_golden.py``) then pins the routed bytes end to end.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.mesh.mesh import Mesh
from repro.mesh.paths import remove_cycles
from repro.verify.oracles import oracle_alive_bfs, oracle_remove_cycles

#: every kernel the package defines
KERNEL_NAMES = tuple(name for name in kernels.__all__ if name != "backend")


# ---------------------------------------------------------------------------
# Randomized inputs, one generator per kernel.
# ---------------------------------------------------------------------------
def _csr_collection(rng, n_paths=40, max_len=30, n_ids=12):
    lens = rng.integers(1, max_len + 1, size=n_paths)
    offsets = np.zeros(n_paths + 1, dtype=np.int64)
    np.cumsum(lens, out=offsets[1:])
    nodes = rng.integers(0, n_ids, size=int(offsets[-1])).astype(np.int64)
    return nodes, offsets


def _case_assemble(rng):
    n, per = 13, 6
    counts = rng.integers(0, 5, size=n * per).astype(np.int64)
    values = rng.choice([-16, -1, 1, 16], size=n * per).astype(np.int64)
    lens = counts.reshape(n, per).sum(axis=1) + 1
    starts = np.zeros(n, dtype=np.int64)
    np.cumsum(lens[:-1], out=starts[1:])
    flat_s = rng.integers(0, 256, size=n).astype(np.int64)
    return (values, counts, flat_s, lens, starts, int(lens.sum()))


def _case_decycle(rng):
    # Empty paths, lengths with one row or two, and ids shifted negative
    # or past the int32 range.
    lens = np.concatenate(([0, 0], rng.integers(0, 91, size=58)))
    rng.shuffle(lens)
    offsets = np.zeros(lens.size + 1, dtype=np.int64)
    np.cumsum(lens, out=offsets[1:])
    nodes = rng.integers(0, 12, size=int(offsets[-1])).astype(np.int64)
    nodes += rng.choice([-6, 2**40, -(2**40)])
    return nodes, offsets


def _case_bfs(rng):
    mesh = Mesh((6, 6))
    alive = rng.random(mesh.num_edges) > 0.25
    s, t = rng.integers(0, mesh.n, size=2)
    indptr, heads, _ = mesh.adjacency_csr(alive)
    return (indptr, heads, int(s), int(t), mesh.n)


def _case_fill_box(rng):
    n, k, d = 17, 4, 2
    S = 2 * k - 1
    cs = rng.integers(0, 1 << k, size=(n, d)).astype(np.int64)
    ct = rng.integers(0, 1 << k, size=(n, d)).astype(np.int64)
    u = rng.integers(0, k, size=n).astype(np.int64)
    blo = rng.integers(0, 1 << k, size=(n, d)).astype(np.int64)
    bhi = blo + rng.integers(0, 4, size=(n, d)).astype(np.int64)
    alive = rng.random(n) > 0.2
    box_lo = np.broadcast_to(ct[:, None, :], (n, S, d)).copy()
    box_len = np.ones((n, S, d), dtype=np.int64)
    return (box_lo, box_len, cs, ct, u, blo, bhi, alive, k)


def _case_count(rng):
    return (rng.integers(0, 50, size=400).astype(np.int64), 50)


def _case_node_loads(rng):
    nodes, offsets = _csr_collection(rng, n_ids=25)
    return (nodes, offsets, 25)


def _case_stretch(rng):
    lengths = rng.integers(0, 40, size=60).astype(np.float64)
    dists = rng.integers(0, 10, size=60).astype(np.float64)  # zeros included
    return (lengths, dists)


CASE_GENERATORS = {
    "assemble_paths": _case_assemble,
    "decycle_paths": _case_decycle,
    "bfs_parents": _case_bfs,
    "fill_box_chains": _case_fill_box,
    "count_loads": _case_count,
    "node_loads_csr": _case_node_loads,
    "stretch_ratios": _case_stretch,
}

#: kernels that mutate arguments in place instead of returning arrays
INPLACE = {"fill_box_chains": (0, 1)}


def _run(name, args):
    if name in INPLACE:
        args = tuple(
            a.copy() if i in INPLACE[name] else a for i, a in enumerate(args)
        )
        getattr(kernels, name)(*args)
        return tuple(args[i] for i in INPLACE[name])
    out = getattr(kernels, name)(*args)
    return out if isinstance(out, tuple) else (out,)


def test_case_generators_cover_every_kernel():
    assert set(CASE_GENERATORS) == set(KERNEL_NAMES)


def test_backend_reporting_is_consistent():
    assert kernels.backend() == "numpy"


@pytest.mark.parametrize("name", KERNEL_NAMES)
@pytest.mark.parametrize("seed", range(3))
def test_kernels_are_deterministic_and_leave_inputs_alone(name, seed):
    rng = np.random.default_rng(1000 * seed + KERNEL_NAMES.index(name))
    args = CASE_GENERATORS[name](rng)
    before = [a.copy() if isinstance(a, np.ndarray) else a for a in args]
    first, second = _run(name, args), _run(name, args)
    for a, b in zip(args, before):
        if isinstance(a, np.ndarray):
            assert a.tobytes() == b.tobytes()
    for g, w in zip(first, second):
        if isinstance(g, np.ndarray):
            assert g.dtype == w.dtype
            assert g.tobytes() == w.tobytes()
        else:
            assert g == w


# ---------------------------------------------------------------------------
# The kernels vs the scalar referees.
# ---------------------------------------------------------------------------
def _check_decycle(raw_paths):
    """The decycle kernel against both scalar referees."""
    lens = np.asarray([len(p) for p in raw_paths], dtype=np.int64)
    offsets = np.zeros(lens.size + 1, dtype=np.int64)
    np.cumsum(lens, out=offsets[1:])
    nodes = np.asarray([v for p in raw_paths for v in p], dtype=np.int64)
    out_nodes, out_offsets, changed = kernels.decycle_paths(nodes, offsets)
    n_changed = 0
    for i, p in enumerate(raw_paths):
        got = out_nodes[out_offsets[i]:out_offsets[i + 1]].tolist()
        arr = np.asarray(p, dtype=np.int64)
        assert got == remove_cycles(arr).tolist()
        assert got == oracle_remove_cycles(p)
        n_changed += len(got) != len(p)
    assert changed == n_changed


@settings(max_examples=60)
@given(st.lists(st.lists(st.integers(0, 9), min_size=0, max_size=25),
                min_size=1, max_size=8))
def test_decycle_matches_scalar_and_oracle(raw_paths):
    _check_decycle(raw_paths)


@pytest.mark.parametrize("alphabet", [2, 3])
def test_decycle_large_equal_length_bucket(alphabet):
    # One length bucket of many long rows over a tiny alphabet: every row
    # sorts into a few long runs of equal values.
    rng = np.random.default_rng(alphabet)
    rows = rng.integers(0, alphabet, size=(64, 240)).tolist()
    rows[0] = [1] * 240  # a single run spanning the whole row
    rows[1] = list(range(alphabet)) * (240 // alphabet)
    _check_decycle(rows)


def test_decycle_large_mixed_length_batch():
    rng = np.random.default_rng(11)
    lens = np.concatenate((
        np.full(70, 200), np.full(66, 257), rng.integers(1, 300, size=60),
    ))
    paths = [rng.integers(0, 2 + i % 2, size=int(n)).tolist() for i, n in enumerate(lens)]
    paths += [list(range(200)), [5]]  # acyclic rows ride in the same batch
    rng.shuffle(paths)
    _check_decycle(paths)


@settings(max_examples=40)
@given(
    st.lists(st.tuples(st.integers(0, 80), st.integers(1, 3)), min_size=12, max_size=40),
    st.integers(1, 12),
    st.integers(0, 2**32 - 1),
)
def test_decycle_merged_length_classes(length_counts, alphabet, seed):
    # Most lengths hold one to three rows; ids start at 0.
    lens = [n for n, count in length_counts for _ in range(count)]
    rng = np.random.default_rng(seed)
    _check_decycle([rng.integers(0, alphabet, size=n).tolist() for n in lens])


@pytest.mark.parametrize("cells", [1, 5, 64])
@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(0, 12), min_size=1, max_size=14),
    st.integers(1, 12),
    st.sampled_from([1, 7, 2**40]),
    st.integers(-(2**20), 2**20),
    st.integers(0, 2**32 - 1),
)
def test_decycle_small_tables(cells, lens, alphabet, stride, shift, seed):
    # A tiny TABLE_CELLS gives several chunks, one path a chunk (K = 1),
    # a partial last chunk, span > TABLE_CELLS, and a path longer than the
    # table.  Ids spread by 2**40 span more values than there are
    # positions and take the np.unique rank; a stride of 7 leaves most
    # table cells unused.  Empty and one-node rows sit beside cyclic ones.
    rng = np.random.default_rng(seed)
    paths = [(rng.integers(0, alphabet, size=n) * stride + shift).tolist() for n in lens]
    paths += [[], [shift], [shift, shift + stride, shift]]
    paths.append((rng.integers(0, alphabet, size=80) * stride + shift).tolist())
    rng.shuffle(paths)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "TABLE_CELLS", cells)
        _check_decycle(paths)


def test_decycle_ids_across_the_whole_int64_range():
    # One batch whose id span, 2**64, does not fit in int64.
    _check_decycle([
        [2**62, 2**62 + 1, 2**62, 2**62 + 2],
        [-(2**62), 5, -(2**62), 7, 5, 9],
        [2**63 - 1, -(2**63), 2**63 - 1],
    ])


@pytest.mark.parametrize("shift", [2**40 - 7, -(2**40), -8])
def test_decycle_wide_and_negative_ids(shift):
    # Ids near +-2**40 overflow a 32-bit packed key.  Ids in [-8, 0) sit
    # where a -(col + 1) padding would put its values, and the short rows
    # land in padded classes.
    rng = np.random.default_rng(abs(shift) % 1000)
    lens = np.concatenate((
        rng.integers(0, 60, size=50), rng.integers(0, 8, size=40), np.full(40, 17),
    ))
    paths = [(rng.integers(0, 8, size=n) + shift).tolist() for n in lens]
    paths.append([shift, shift + 1, shift])
    _check_decycle(paths)


def test_decycle_empty_and_single_rows_beside_cyclic_rows():
    # 40 empty and 20 one-node rows share one padded class, and each
    # empty row shares its start with the cyclic row after it.
    cyclic = [1, 2, 1, 3] + list(range(4, 17))
    paths = []
    for i in range(40):
        paths += [[], cyclic] + ([[i % 3]] if i % 2 else [])
    _check_decycle(paths)


def test_decycle_identity_fast_path_returns_same_objects():
    nodes = np.arange(12, dtype=np.int64)
    offsets = np.asarray([0, 4, 8, 12], dtype=np.int64)
    out_nodes, out_offsets, changed = kernels.decycle_paths(nodes, offsets)
    assert changed == 0
    assert out_nodes is nodes and out_offsets is offsets


@settings(max_examples=40)
@given(st.integers(0, 10**9))
def test_bfs_kernel_matches_oracle(seed):
    rng = np.random.default_rng(seed)
    mesh = Mesh((5, 5))
    alive = rng.random(mesh.num_edges) > 0.3
    s, t = int(rng.integers(mesh.n)), int(rng.integers(mesh.n))
    from repro.faults.router import shortest_alive_path

    got = shortest_alive_path(mesh, s, t, alive)
    want = oracle_alive_bfs(mesh, s, t, alive)
    if want is None:
        assert got is None
    else:
        assert got is not None and got.tolist() == want


@settings(max_examples=40)
@given(st.integers(0, 10**9))
def test_count_and_stretch_kernels_match_direct_numpy(seed):
    rng = np.random.default_rng(seed)
    ids, minlength = _case_count(rng)
    np.testing.assert_array_equal(
        kernels.count_loads(ids, minlength),
        np.bincount(ids, minlength=minlength).astype(np.int64),
    )
    lengths, dists = _case_stretch(rng)
    got = kernels.stretch_ratios(lengths, dists)
    want = np.where(dists > 0, lengths / np.maximum(dists, 1), np.nan)
    np.testing.assert_array_equal(got, want)


@settings(max_examples=40)
@given(st.integers(0, 10**9))
def test_node_loads_kernel_matches_python_sets(seed):
    rng = np.random.default_rng(seed)
    nodes, offsets, n = _case_node_loads(rng)
    want = np.zeros(n, dtype=np.int64)
    for p in range(offsets.size - 1):
        for v in set(nodes[offsets[p]:offsets[p + 1]].tolist()):
            want[v] += 1
    np.testing.assert_array_equal(kernels.node_loads_csr(nodes, offsets, n), want)


@pytest.mark.parametrize("cells", [1, 5, 1 << 18])
@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.lists(st.integers(0, 15), max_size=20), min_size=1, max_size=10),
    st.sampled_from([1, 4099]),
)
def test_node_loads_counts_each_path_once(cells, raw_paths, stride):
    # Empty paths, revisits, and (stride 4099) ids too sparse for a
    # shifted table, which take the np.unique rank.
    paths = [[v * stride for v in p] for p in raw_paths]
    n = 16 * stride
    want = np.zeros(n, dtype=np.int64)
    for p in paths:
        for v in set(p):
            want[v] += 1
    offsets = np.zeros(len(paths) + 1, dtype=np.int64)
    np.cumsum([len(p) for p in paths], out=offsets[1:])
    nodes = np.asarray([v for p in paths for v in p], dtype=np.int64)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "TABLE_CELLS", cells)
        got = kernels.node_loads_csr(nodes, offsets, n)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, want)


@settings(max_examples=40)
@given(st.integers(0, 10**9))
def test_assemble_kernel_matches_python_integration(seed):
    rng = np.random.default_rng(seed)
    values, counts, flat_s, lens, starts, total = _case_assemble(rng)
    got = kernels.assemble_paths(values, counts, flat_s, lens, starts, total)
    per = values.size // flat_s.size
    want = []
    for p in range(flat_s.size):
        cur = int(flat_s[p])
        want.append(cur)
        for k in range(p * per, (p + 1) * per):
            for _ in range(int(counts[k])):
                cur += int(values[k])
                want.append(cur)
    np.testing.assert_array_equal(got, np.asarray(want, dtype=np.int64))


@settings(max_examples=40)
@given(st.integers(0, 10**9))
def test_fill_box_kernel_matches_python_loop(seed):
    rng = np.random.default_rng(seed)
    box_lo, box_len, cs, ct, u, blo, bhi, alive, k = _case_fill_box(rng)
    want_lo, want_len = box_lo.copy(), box_len.copy()
    for i in np.flatnonzero(alive).tolist():
        ui = int(u[i])
        for j in range(1, ui + 1):
            want_lo[i, j - 1] = (cs[i] >> j) << j
            want_len[i, j - 1] = 1 << j
            want_lo[i, 2 * ui + 1 - j] = (ct[i] >> j) << j
            want_len[i, 2 * ui + 1 - j] = 1 << j
        want_lo[i, ui] = blo[i]
        want_len[i, ui] = bhi[i] - blo[i] + 1
    kernels.fill_box_chains(box_lo, box_len, cs, ct, u, blo, bhi, alive, k)
    np.testing.assert_array_equal(box_lo, want_lo)
    np.testing.assert_array_equal(box_len, want_len)
