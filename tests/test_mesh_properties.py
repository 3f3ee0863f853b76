"""Property-based tests (hypothesis) for the mesh substrate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import mesh_and_node, mesh_and_pair, meshes

from repro.mesh.mesh import Mesh


@given(mesh_and_node())
def test_coordinate_roundtrip(case):
    mesh, node = case
    coords = mesh.flat_to_coords(node)
    assert int(mesh.coords_to_flat([coords])[0]) == node


@given(mesh_and_pair())
def test_distance_symmetry(case):
    mesh, s, t = case
    assert mesh.distance(s, t) == mesh.distance(t, s)


@given(mesh_and_pair())
def test_distance_identity(case):
    mesh, s, t = case
    assert mesh.distance(s, s) == 0
    assert (mesh.distance(s, t) == 0) == (s == t)


@given(mesh_and_pair(), st.integers(0, 10**9))
def test_triangle_inequality(case, wseed):
    mesh, s, t = case
    w = wseed % mesh.n
    assert mesh.distance(s, t) <= mesh.distance(s, w) + mesh.distance(w, t)


@given(mesh_and_pair(mesh_strategy=meshes(torus=None)))
def test_distance_bounded_by_diameter(case):
    mesh, s, t = case
    assert 0 <= mesh.distance(s, t) <= mesh.diameter


@given(mesh_and_node(mesh_strategy=meshes(torus=None)))
def test_neighbors_symmetric_and_adjacent(case):
    mesh, u = case
    for v in mesh.neighbors(u):
        assert u in mesh.neighbors(v)
        assert mesh.distance(u, v) == 1


@given(mesh_and_node(mesh_strategy=meshes(torus=None)))
def test_degree_bound(case):
    mesh, u = case
    assert 0 <= mesh.degree(u) <= 2 * mesh.d


@settings(max_examples=30)
@given(meshes(max_d=3, max_side=5, torus=None))
def test_edge_id_bijection(mesh):
    ids = set()
    for e in range(mesh.num_edges):
        u, v = mesh.edge_id_to_endpoints(e)
        back = int(mesh.edge_ids(np.asarray([u]), np.asarray([v]))[0])
        assert back == e
        ids.add(e)
    assert len(ids) == mesh.num_edges


@settings(max_examples=60)
@given(meshes(max_d=3, max_side=5, torus=None), st.data())
def test_edge_ids_rejects_exactly_the_non_links(mesh, data):
    # Pairs range over [-1, n] so out-of-range ids, equal ids, row-boundary
    # neighbours in flat order and wrap-sized gaps all get drawn.
    node = st.integers(-1, mesh.n)
    for _ in range(20):
        u, v = data.draw(node), data.draw(node)
        in_range = 0 <= u < mesh.n and 0 <= v < mesh.n
        if in_range and v in mesh.neighbors(u):
            eid = int(mesh.edge_ids(np.asarray([u]), np.asarray([v]))[0])
            assert sorted(mesh.edge_endpoints[eid].tolist()) == sorted((u, v))
        else:
            with pytest.raises(ValueError):
                mesh.edge_ids(np.asarray([u]), np.asarray([v]))


@settings(max_examples=30)
@given(meshes(max_d=3, max_side=5, torus=None))
def test_handshake_lemma(mesh):
    total_degree = sum(mesh.degree(v) for v in range(mesh.n))
    assert total_degree == 2 * mesh.num_edges


@given(mesh_and_pair(mesh_strategy=meshes(max_d=2, min_side=2, max_side=6)))
def test_mesh_distance_equals_graph_distance(case):
    import networkx as nx

    mesh, s, t = case
    g = mesh.to_networkx()
    assert mesh.distance(s, t) == nx.shortest_path_length(g, s, t)
