"""The kernel tier's contract: byte-identity across backends, always.

Three layers of assurance, mirroring docs/KERNELS.md:

1. **Pairwise equivalence** — every kernel in
   :data:`repro.kernels.KERNEL_NAMES` runs on randomized inputs under
   both tiers and the outputs must match to the last byte (skipped when
   numba is absent; CI runs it with numba installed).
2. **Referee checks** — the numpy tier (the *definition* of each kernel)
   is fuzzed against the independent scalar oracles of
   :mod:`repro.verify.oracles` and the scalar primitives they restate.
3. **End-to-end bytes** — routed results under a forced backend must
   reproduce the committed golden hash matrix, so backend selection can
   never change a path.

Plus the plumbing: backend selection (env + runtime), graceful
degradation when numba is missing, dispatch counters, and the
``kernels.backend`` profiler annotation.
"""

from __future__ import annotations

import json
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.golden.regenerate_goldens import cell_hash, golden_cases

from repro import kernels
from repro.kernels import _numpy as np_tier
from repro.mesh.mesh import Mesh
from repro.mesh.paths import remove_cycles
from repro.verify.oracles import oracle_alive_bfs, oracle_remove_cycles

HAVE_NUMBA = "numba" in kernels.available_backends()
needs_numba = pytest.mark.skipif(not HAVE_NUMBA, reason="numba not installed")
GOLDEN_PATH = Path(__file__).parent / "golden" / "path_hashes.json"


# ---------------------------------------------------------------------------
# Randomized inputs, one generator per kernel (shared by both backends).
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
    return _csr_collection(rng)


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


def _run(table, name, args):
    if name in INPLACE:
        args = tuple(
            a.copy() if i in INPLACE[name] else a for i, a in enumerate(args)
        )
        table[name](*args)
        return tuple(args[i] for i in INPLACE[name])
    out = table[name](*args)
    return out if isinstance(out, tuple) else (out,)


def test_case_generators_cover_every_kernel():
    assert set(CASE_GENERATORS) == set(kernels.KERNEL_NAMES)


@needs_numba
@pytest.mark.parametrize("name", kernels.KERNEL_NAMES)
@pytest.mark.parametrize("seed", range(5))
def test_numba_matches_numpy_bytes(name, seed):
    from repro.kernels import _numba as nb_tier

    rng = np.random.default_rng(1000 * seed + hash(name) % 1000)
    args = CASE_GENERATORS[name](rng)
    got = _run(nb_tier.IMPLS, name, args)
    want = _run(np_tier.IMPLS, name, args)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if isinstance(g, np.ndarray):
            assert g.dtype == w.dtype
            assert g.tobytes() == w.tobytes()
        else:
            assert g == w


# ---------------------------------------------------------------------------
# The numpy tier vs the scalar referees.
# ---------------------------------------------------------------------------
def _check_decycle(raw_paths):
    """The numpy decycle kernel against both scalar referees."""
    lens = np.asarray([len(p) for p in raw_paths], dtype=np.int64)
    offsets = np.zeros(lens.size + 1, dtype=np.int64)
    np.cumsum(lens, out=offsets[1:])
    nodes = np.asarray([v for p in raw_paths for v in p], dtype=np.int64)
    out_nodes, out_offsets, changed = np_tier.decycle_paths(nodes, offsets)
    n_changed = 0
    for i, p in enumerate(raw_paths):
        got = out_nodes[out_offsets[i]:out_offsets[i + 1]].tolist()
        arr = np.asarray(p, dtype=np.int64)
        assert got == remove_cycles(arr).tolist()
        assert got == oracle_remove_cycles(p)
        n_changed += len(got) != len(p)
    assert changed == n_changed


@settings(max_examples=60)
@given(st.lists(st.lists(st.integers(0, 9), min_size=1, max_size=25),
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


def test_decycle_identity_fast_path_returns_same_objects():
    nodes = np.arange(12, dtype=np.int64)
    offsets = np.asarray([0, 4, 8, 12], dtype=np.int64)
    out_nodes, out_offsets, changed = np_tier.decycle_paths(nodes, offsets)
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
        np_tier.count_loads(ids, minlength),
        np.bincount(ids, minlength=minlength).astype(np.int64),
    )
    lengths, dists = _case_stretch(rng)
    got = np_tier.stretch_ratios(lengths, dists)
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
    np.testing.assert_array_equal(np_tier.node_loads_csr(nodes, offsets, n), want)


@settings(max_examples=40)
@given(st.integers(0, 10**9))
def test_assemble_kernel_matches_python_integration(seed):
    rng = np.random.default_rng(seed)
    values, counts, flat_s, lens, starts, total = _case_assemble(rng)
    got = np_tier.assemble_paths(values, counts, flat_s, lens, starts, total)
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


# ---------------------------------------------------------------------------
# End-to-end bytes: forced backends must reproduce the committed goldens.
# ---------------------------------------------------------------------------
GOLDEN_CASES = dict(golden_cases())
#: one cell per mesh family — cheap always-on check under a forced backend
SAMPLE_KEYS = sorted(
    {key.split("|")[1]: key for key in sorted(GOLDEN_CASES)}.values()
)


@pytest.mark.parametrize("key", SAMPLE_KEYS)
def test_forced_numpy_backend_reproduces_goldens(key):
    goldens = json.loads(GOLDEN_PATH.read_text())
    with kernels.use_backend("numpy"):
        result = GOLDEN_CASES[key]()
    assert cell_hash(result) == goldens[key]


@needs_numba
@pytest.mark.parametrize(
    "key", sorted(GOLDEN_CASES), ids=lambda k: k.replace("|", " ")
)
def test_numba_backend_reproduces_golden_grid(key):
    goldens = json.loads(GOLDEN_PATH.read_text())
    with kernels.use_backend("numba"):
        result = GOLDEN_CASES[key]()
    assert cell_hash(result) == goldens[key]


# ---------------------------------------------------------------------------
# Backend selection, degradation and telemetry plumbing.
# ---------------------------------------------------------------------------
def test_backend_reporting_is_consistent():
    assert kernels.backend() in kernels.available_backends()
    assert "numpy" in kernels.available_backends()


def test_unknown_backend_raises():
    with pytest.raises(ValueError, match="unknown kernels backend"):
        kernels.set_backend("fortran")


def test_use_backend_restores_previous():
    before = kernels.backend()
    with kernels.use_backend("numpy"):
        assert kernels.backend() == "numpy"
    assert kernels.backend() == before


def test_auto_resolves_to_preferred():
    before = kernels.backend()
    try:
        assert kernels.set_backend("auto") == kernels.available_backends()[0]
    finally:
        kernels.set_backend(before)


@pytest.mark.skipif(HAVE_NUMBA, reason="degradation path needs numba absent")
def test_requesting_numba_without_numba_degrades_with_warning():
    before = kernels.backend()
    try:
        with pytest.warns(RuntimeWarning, match="numba is not installed"):
            active = kernels.set_backend("numba")
        assert active == "numpy"
        assert kernels.backend() == "numpy"
    finally:
        kernels.set_backend(before)


def test_unknown_env_value_warns_and_falls_back_to_auto(monkeypatch):
    before = kernels.backend()
    monkeypatch.setenv("REPRO_KERNELS", "cuda")
    try:
        with pytest.warns(RuntimeWarning, match="unknown REPRO_KERNELS"):
            active = kernels._resolve_from_env()
        assert active == kernels.available_backends()[0]
    finally:
        kernels.set_backend(before)


def test_env_forced_numpy_in_fresh_interpreter():
    out = subprocess.run(
        [sys.executable, "-c",
         "from repro import kernels; print(kernels.backend())"],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": "src", "REPRO_KERNELS": "numpy", "PATH": "/usr/bin:/bin"},
        cwd=Path(__file__).parent.parent,
        check=True,
    )
    assert out.stdout.strip() == "numpy"


def test_dispatch_counters_and_profiler_rollup():
    from repro.obs import Profiler
    from repro.routing.registry import make_router
    from repro.workloads.permutations import transpose

    kernels.reset_dispatch_counts()
    profiler = Profiler()
    router = make_router("hierarchical")
    router.profiler = profiler
    with kernels.use_backend("numpy"):
        router.route(transpose(Mesh((8, 8))), seed=0)
    counts = kernels.dispatch_counts()
    assert counts.get("numpy.assemble_paths", 0) >= 1
    assert counts.get("numpy.decycle_paths", 0) >= 1
    assert profiler.counters.get("kernels.numpy.assemble_paths", 0) >= 1
    assert profiler.annotations["kernels.backend"] == "numpy"
    # annotations survive the snapshot/merge wire format workers use
    clone = Profiler()
    clone.merge_snapshot(profiler.snapshot())
    assert clone.annotations["kernels.backend"] == "numpy"


def test_shard_tasks_pin_the_parent_backend():
    from repro.parallel.worker import ShardTask, _pin_kernels

    assert ShardTask.__dataclass_fields__["kernels_backend"].default is None
    before = kernels.backend()
    try:
        _pin_kernels("numpy")
        assert kernels.backend() == "numpy"
        _pin_kernels(None)  # no-op
        assert kernels.backend() == "numpy"
    finally:
        kernels.set_backend(before)


def test_sharded_route_matches_serial_under_forced_numpy():
    from repro.routing.registry import make_router
    from repro.workloads.permutations import transpose

    problem = transpose(Mesh((8, 8)))
    with kernels.use_backend("numpy"):
        serial = make_router("hierarchical").route(problem, seed=0)
        sharded = make_router("hierarchical").route(problem, seed=0, workers=3)
    assert serial.paths.nodes.tobytes() == sharded.paths.nodes.tobytes()
    assert serial.paths.offsets.tobytes() == sharded.paths.offsets.tobytes()
