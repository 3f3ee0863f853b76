"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import multiprocessing
import os
import time

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

# Derandomized by default: example choice is a pure function of the test
# body, so CI failures reproduce locally and shard-invariance hashes never
# flake.  Export HYPOTHESIS_PROFILE=thorough for a wider randomized sweep.
settings.register_profile("derandomized", derandomize=True)
settings.register_profile("thorough", max_examples=400)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "derandomized"))

from repro.core.shm import active_segments
from repro.mesh.mesh import Mesh
from repro.mesh.submesh import Submesh

#: seconds a module's exiting children and unlinks get to finish
LEAK_GRACE_S = 5.0


def _open_sockets() -> int:
    """Socket fds open in this process (0 where ``/proc`` has no fd table)."""
    count = 0
    try:
        fds = os.listdir("/proc/self/fd")
    except OSError:  # pragma: no cover - non-Linux
        return 0
    for fd in fds:
        try:
            count += os.readlink(f"/proc/self/fd/{fd}").startswith("socket:")
        except OSError:  # closed since the listing (the listdir fd itself)
            pass
    return count


def _leftovers(segments, children, sockets):
    leaked = sorted(set(active_segments()) - segments)
    # active_children() also reaps children that have already exited
    live = sorted(p.pid for p in multiprocessing.active_children() if p.pid not in children)
    return leaked, live, max(0, _open_sockets() - sockets)


@pytest.fixture(scope="module", autouse=True)
def no_leaks_per_module():
    """Fail a test module that leaves ``repro-*`` shm segments, live child
    processes or more open sockets than it found behind (anything present
    before the module is ignored)."""
    segments = set(active_segments())
    children = {p.pid for p in multiprocessing.active_children()}
    sockets = _open_sockets()
    yield
    deadline = time.monotonic() + LEAK_GRACE_S
    leaked, live, extra = _leftovers(segments, children, sockets)
    while (leaked or live or extra) and time.monotonic() < deadline:
        time.sleep(0.05)
        leaked, live, extra = _leftovers(segments, children, sockets)
    if leaked or live or extra:
        pytest.fail(
            f"module leaked shm segments {leaked}, child processes {live} "
            f"and {extra} socket fds"
        )


@pytest.fixture
def mesh8() -> Mesh:
    """The paper's running example: the 8x8 mesh of Figure 1."""
    return Mesh((8, 8))


@pytest.fixture
def mesh16() -> Mesh:
    return Mesh((16, 16))


@pytest.fixture
def mesh3d() -> Mesh:
    return Mesh((8, 8, 8))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


# ---------------------------------------------------------------------------
# Hypothesis strategies
# ---------------------------------------------------------------------------

def meshes(
    max_d: int = 3, max_side: int = 9, min_side: int = 1, torus: bool | None = False
) -> st.SearchStrategy[Mesh]:
    """Arbitrary (not necessarily power-of-two) meshes."""
    def build(sides, is_torus):
        return Mesh(sides, torus=is_torus)

    sides = st.lists(
        st.integers(min_side, max_side), min_size=1, max_size=max_d
    ).map(tuple)
    torus_st = st.booleans() if torus is None else st.just(bool(torus))
    return st.builds(build, sides, torus_st)


def pow2_cube_meshes(max_d: int = 3, max_k: int = 4) -> st.SearchStrategy[Mesh]:
    """Equal-sided power-of-two meshes (the paper's setting)."""
    return st.tuples(
        st.integers(1, max_d), st.integers(1, max_k)
    ).map(lambda dk: Mesh(((1 << dk[1]),) * dk[0]))


@st.composite
def mesh_and_node(draw, mesh_strategy=None):
    mesh = draw(meshes() if mesh_strategy is None else mesh_strategy)
    node = draw(st.integers(0, mesh.n - 1))
    return mesh, node


@st.composite
def mesh_and_pair(draw, mesh_strategy=None, distinct: bool = False):
    mesh = draw(meshes() if mesh_strategy is None else mesh_strategy)
    s = draw(st.integers(0, mesh.n - 1))
    t = draw(st.integers(0, mesh.n - 1))
    if distinct and mesh.n > 1:
        if s == t:
            t = (t + 1) % mesh.n
    return mesh, s, t


def _draw_box(draw, mesh: Mesh) -> Submesh:
    lo, hi = [], []
    for m_i in mesh.sides:
        a = draw(st.integers(0, m_i - 1))
        b = draw(st.integers(a, m_i - 1))
        lo.append(a)
        hi.append(b)
    return Submesh(mesh, lo, hi)


@st.composite
def submeshes(draw, mesh_strategy=None):
    mesh = draw(meshes() if mesh_strategy is None else mesh_strategy)
    return _draw_box(draw, mesh)


@st.composite
def submesh_pairs(draw, mesh_strategy=None):
    """Two submeshes of the *same* mesh."""
    mesh = draw(meshes() if mesh_strategy is None else mesh_strategy)
    return _draw_box(draw, mesh), _draw_box(draw, mesh)
