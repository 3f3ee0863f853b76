"""Unit tests for the d-dimensional mesh model."""

import math

import numpy as np
import pytest

from repro.mesh.mesh import Mesh, pad_to_power_of_two


class TestConstruction:
    def test_basic_2d(self):
        m = Mesh((4, 4))
        assert m.d == 2
        assert m.n == 16
        assert m.sides == (4, 4)
        assert not m.torus

    def test_strides_c_order(self):
        m = Mesh((3, 4, 5))
        assert m.strides.tolist() == [20, 5, 1]

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Mesh(())

    def test_rejects_nonpositive_side(self):
        with pytest.raises(ValueError):
            Mesh((4, 0))

    @pytest.mark.parametrize(
        "sides",
        [(16,) * 16, (2**63,), (2**62, 2), (2**20, 2**20, 2**22)],
        ids=["16^16", "2^63", "nodes-2^63", "edges-past-int64"],
    )
    def test_rejects_int64_overflow(self, sides):
        # 16^16 used to wrap to a 0-node mesh with only a RuntimeWarning
        with pytest.raises(ValueError, match="int64"):
            Mesh(sides)

    def test_largest_sizes_still_build(self):
        m = Mesh((2**31, 2**31))
        assert m.n == 2**62
        assert m.strides.tolist() == [2**31, 1]
        assert m.num_edges == 2 * 2**31 * (2**31 - 1)

    def test_single_node_mesh(self):
        m = Mesh((1,))
        assert m.n == 1
        assert m.num_edges == 0
        assert m.neighbors(0) == []

    def test_1d_mesh(self):
        m = Mesh((5,))
        assert m.num_edges == 4
        assert m.neighbors(2) == [1, 3]

    def test_equality_and_hash(self):
        assert Mesh((4, 4)) == Mesh((4, 4))
        assert Mesh((4, 4)) != Mesh((4, 4), torus=True)
        assert Mesh((4, 4)) != Mesh((4, 8))
        assert hash(Mesh((2, 2))) == hash(Mesh((2, 2)))

    def test_pickle_ships_only_sides_and_torus(self):
        import pickle

        for mesh in (Mesh((8, 8)), Mesh((3, 4, 5), torus=True)):
            mesh.edge_endpoints  # a cached table must not ride along
            data = pickle.dumps(mesh)
            back = pickle.loads(data)
            assert back == mesh and back.torus == mesh.torus
            assert back.num_edges == mesh.num_edges
            assert np.array_equal(back.edge_endpoints, mesh.edge_endpoints)
            assert len(data) < 200

    def test_edge_count_formula_mesh(self):
        # d-dim mesh edges: sum_i n/m_i * (m_i - 1)
        m = Mesh((3, 4, 5))
        expected = sum(m.n // s * (s - 1) for s in m.sides)
        assert m.num_edges == expected

    def test_edge_count_torus(self):
        t = Mesh((4, 4), torus=True)
        assert t.num_edges == 2 * 16  # every dim contributes n edges

    def test_torus_side2_no_duplicate_wrap(self):
        t = Mesh((2, 2), torus=True)
        # wrap links on side-2 rings would duplicate mesh links
        assert t.num_edges == Mesh((2, 2)).num_edges


class TestCoordinates:
    def test_roundtrip_scalar(self):
        m = Mesh((4, 6))
        for v in range(m.n):
            c = m.flat_to_coords(v)
            assert int(m.coords_to_flat([c])[0]) == v

    def test_node_helper(self):
        m = Mesh((8, 8))
        assert m.node(0, 0) == 0
        assert m.node(1, 1) == 9
        assert m.node(7, 7) == 63

    def test_node_wrong_arity(self):
        with pytest.raises(ValueError):
            Mesh((4, 4)).node(1)

    def test_out_of_bounds_coords(self):
        m = Mesh((4, 4))
        with pytest.raises(ValueError):
            m.coords_to_flat([(4, 0)])
        with pytest.raises(ValueError):
            m.coords_to_flat([(-1, 0)])

    def test_out_of_range_flat(self):
        with pytest.raises(ValueError):
            Mesh((4, 4)).flat_to_coords(16)

    def test_vectorized_conversion(self):
        m = Mesh((5, 7))
        ids = np.arange(m.n)
        coords = m.flat_to_coords(ids)
        assert coords.shape == (m.n, 2)
        np.testing.assert_array_equal(m.coords_to_flat(coords), ids)

    def test_contains_coords(self):
        m = Mesh((4, 4))
        mask = m.contains_coords([(0, 0), (3, 3), (4, 0), (-1, 2)])
        assert mask.tolist() == [True, True, False, False]


class TestDistance:
    def test_l1_distance(self):
        m = Mesh((8, 8))
        assert m.distance(m.node(0, 0), m.node(3, 4)) == 7

    def test_distance_symmetric(self):
        m = Mesh((5, 5))
        a, b = m.node(1, 2), m.node(4, 0)
        assert m.distance(a, b) == m.distance(b, a)

    def test_torus_distance_wraps(self):
        t = Mesh((8, 8), torus=True)
        assert t.distance(t.node(0, 0), t.node(7, 0)) == 1
        assert t.distance(t.node(0, 0), t.node(4, 0)) == 4

    def test_diameter(self):
        assert Mesh((8, 8)).diameter == 14
        assert Mesh((8, 8), torus=True).diameter == 8
        assert Mesh((4, 4, 4)).diameter == 9

    def test_vectorized_distance(self):
        m = Mesh((4, 4))
        u = np.asarray([0, 0, 5])
        v = np.asarray([15, 0, 10])
        np.testing.assert_array_equal(m.distance(u, v), [6, 0, 2])


class TestNeighbors:
    def test_interior_degree(self):
        m = Mesh((5, 5))
        assert m.degree(m.node(2, 2)) == 4

    def test_corner_degree(self):
        m = Mesh((5, 5))
        assert m.degree(m.node(0, 0)) == 2

    def test_torus_degree_uniform(self):
        t = Mesh((5, 5), torus=True)
        assert all(t.degree(v) == 4 for v in range(t.n))

    def test_neighbors_symmetric(self):
        m = Mesh((4, 3))
        for u in range(m.n):
            for v in m.neighbors(u):
                assert u in m.neighbors(v)

    def test_neighbors_are_distance_one(self):
        m = Mesh((4, 4, 2))
        for u in [0, 5, 17, 31]:
            for v in m.neighbors(u):
                assert m.distance(u, v) == 1

    def test_3d_interior_degree(self):
        m = Mesh((4, 4, 4))
        center = m.node(2, 2, 2)
        assert m.degree(center) == 6


class TestEdgeIds:
    def test_bijection_mesh(self):
        m = Mesh((4, 5))
        seen = set()
        for e in range(m.num_edges):
            u, v = m.edge_id_to_endpoints(e)
            eid = int(m.edge_ids(np.asarray([u]), np.asarray([v]))[0])
            assert eid == e
            seen.add((min(u, v), max(u, v)))
        assert len(seen) == m.num_edges

    def test_direction_invariant(self):
        m = Mesh((4, 4))
        u, v = 0, 1
        a = m.edge_ids(np.asarray([u]), np.asarray([v]))
        b = m.edge_ids(np.asarray([v]), np.asarray([u]))
        assert a[0] == b[0]

    def test_bijection_torus(self):
        t = Mesh((4, 4), torus=True)
        for e in range(t.num_edges):
            u, v = t.edge_id_to_endpoints(e)
            assert int(t.edge_ids(np.asarray([u]), np.asarray([v]))[0]) == e

    def test_wrap_edge_identified(self):
        t = Mesh((4,), torus=True)
        eid = t.edge_ids(np.asarray([3]), np.asarray([0]))
        assert 0 <= eid[0] < t.num_edges

    def test_non_adjacent_raises(self):
        m = Mesh((4, 4))
        with pytest.raises(ValueError):
            m.edge_ids(np.asarray([0]), np.asarray([2]))

    def test_diagonal_raises(self):
        m = Mesh((4, 4))
        with pytest.raises(ValueError):
            m.edge_ids(np.asarray([0]), np.asarray([5]))

    def test_row_boundary_pair_raises(self):
        # Flat ids 3 and 4 differ by 1 but sit on different rows.
        m = Mesh((4, 4))
        with pytest.raises(ValueError):
            m.edge_ids(np.asarray([3]), np.asarray([4]))

    def test_wrap_pair_both_orientations(self):
        # (0, 4) wraps dimension 1 and (0, 15) wraps dimension 0.
        t = Mesh((4, 5), torus=True)
        for u, v in ((4, 0), (0, 4), (15, 0), (0, 15)):
            eid = t.edge_ids(np.asarray([u]), np.asarray([v]))
            assert sorted(t.edge_endpoints[eid[0]].tolist()) == sorted((u, v))
        fwd = t.edge_ids(np.asarray([4, 15]), np.asarray([0, 0]))
        back = t.edge_ids(np.asarray([0, 0]), np.asarray([4, 15]))
        assert fwd.tolist() == back.tolist()
        # Same gaps on a mesh are not links.
        for u, v in ((4, 0), (15, 0)):
            with pytest.raises(ValueError):
                Mesh((4, 5)).edge_ids(np.asarray([u]), np.asarray([v]))

    def test_side2_torus_dimension_has_no_wrap(self):
        t = Mesh((2, 4), torus=True)
        # Dimension 0 is a side-2 ring: its only link is the plain one.
        assert t.num_edges == 4 + 2 * 4
        eid = t.edge_ids(np.asarray([4]), np.asarray([0]))
        assert sorted(t.edge_endpoints[eid[0]].tolist()) == [0, 4]
        # Dimension 1 wraps; a gap of 3 across rows does not.
        eid = t.edge_ids(np.asarray([3]), np.asarray([0]))
        assert sorted(t.edge_endpoints[eid[0]].tolist()) == [0, 3]
        with pytest.raises(ValueError):
            t.edge_ids(np.asarray([1]), np.asarray([4]))

    def test_side1_dimension(self):
        m = Mesh((3, 1, 4))
        for e in range(m.num_edges):
            u, v = m.edge_id_to_endpoints(e)
            assert int(m.edge_ids(np.asarray([v]), np.asarray([u]))[0]) == e
        # Strides are (4, 4, 1): a gap of 4 is a dimension-0 link only.
        assert int(m.edge_ids(np.asarray([0]), np.asarray([4]))[0]) == 0
        for u, v in ((3, 4), (0, 12), (0, 0)):
            with pytest.raises(ValueError):
                m.edge_ids(np.asarray([u]), np.asarray([v]))

    def test_out_of_range_node_raises(self):
        m = Mesh((4, 4))
        for u, v in ((-1, 0), (15, 16), (16, 12)):
            with pytest.raises(ValueError, match="out of range"):
                m.edge_ids(np.asarray([u]), np.asarray([v]))

    def test_empty_input(self):
        m = Mesh((4, 4))
        assert m.edge_ids(np.empty(0), np.empty(0)).size == 0

    def test_all_edges_shape(self):
        m = Mesh((3, 3))
        edges = m.all_edges()
        assert edges.shape == (m.num_edges, 2)

    def test_3d_bijection(self):
        m = Mesh((2, 3, 2))
        for e in range(m.num_edges):
            u, v = m.edge_id_to_endpoints(e)
            assert m.distance(u, v) == 1
            assert int(m.edge_ids(np.asarray([u]), np.asarray([v]))[0]) == e

    def test_edge_id_out_of_range(self):
        m = Mesh((3, 3))
        with pytest.raises(ValueError):
            m.edge_id_to_endpoints(m.num_edges)


#: meshes and tori with side-1 and side-2 dimensions, for the batch tests
TABLE_SHAPES = [
    ((1,), False),
    ((1, 4), False),
    ((2, 3), False),
    ((2, 3), True),
    ((4, 1, 3), False),
    ((4, 1, 3), True),
    ((2, 2, 2), True),
    ((3, 1, 2, 5), False),
    ((3, 1, 2, 5), True),
]


class TestEdgeIdBatches:
    """``Mesh.edge_ids`` on whole batches, against the scalar inverse."""

    @staticmethod
    def _all_pairs(m, rng):
        """Every edge once, in a shuffled order and a random orientation."""
        ends = np.asarray(
            [m.edge_id_to_endpoints(e) for e in range(m.num_edges)], dtype=np.int64
        ).reshape(-1, 2)
        order = rng.permutation(m.num_edges)
        flip = rng.random(m.num_edges) < 0.5
        tails = np.where(flip, ends[:, 1], ends[:, 0])[order]
        heads = np.where(flip, ends[:, 0], ends[:, 1])[order]
        return tails, heads, order

    @pytest.mark.parametrize("sides,torus", TABLE_SHAPES)
    def test_batch_matches_edge_id_to_endpoints(self, sides, torus):
        m = Mesh(sides, torus=torus)
        tails, heads, order = self._all_pairs(m, np.random.default_rng(len(sides)))
        ids = m.edge_ids(tails, heads)
        assert ids.dtype == np.int64
        assert ids.tolist() == order.tolist()
        # A 2-D batch keeps its order in the flattened result.
        if ids.size % 2 == 0 and ids.size:
            grid = m.edge_ids(tails.reshape(2, -1), heads.reshape(2, -1))
            assert grid.tolist() == order.tolist()

    @pytest.mark.parametrize("sides,torus", TABLE_SHAPES)
    def test_one_bad_pair_anywhere_raises(self, sides, torus):
        m = Mesh(sides, torus=torus)
        tails, heads, _ = self._all_pairs(m, np.random.default_rng(7))
        links = {tuple(sorted(p)) for p in zip(tails.tolist(), heads.tolist())}
        bad = [
            (u, v)
            for u in range(m.n)
            for v in range(m.n)
            if (min(u, v), max(u, v)) not in links
        ][:: max(1, m.n // 3)]
        for u, v in bad:
            for at in {0, tails.size // 2, tails.size}:
                t = np.insert(tails, at, u)
                h = np.insert(heads, at, v)
                with pytest.raises(ValueError, match="not mesh links"):
                    m.edge_ids(t, h)
        for u, v in ((-1, 0), (0, m.n)):
            t = np.append(tails, u)
            h = np.append(heads, v)
            with pytest.raises(ValueError, match="out of range"):
                m.edge_ids(t, h)

    def test_equal_size_meshes_never_share_tables(self):
        meshes = [
            Mesh((4, 6)),
            Mesh((6, 4)),
            Mesh((24,)),
            Mesh((4, 6), torus=True),
            Mesh((6, 4), torus=True),
            Mesh((2, 3, 4)),
            Mesh((2, 3, 4), torus=True),
        ]
        assert {m.n for m in meshes} == {24}
        rng = np.random.default_rng(3)
        # Interleave the calls, so a table left over from one mesh would
        # answer for the next.
        for _ in range(2):
            for m in meshes:
                tails, heads, order = self._all_pairs(m, rng)
                assert m.edge_ids(tails, heads).tolist() == order.tolist()
        tables = [m._edge_id_tables[1] for m in meshes]
        for i, a in enumerate(tables):
            for b in tables[i + 1 :]:
                assert not np.shares_memory(a, b)
        # Gap 5 is a wrap link of the 4x6 torus's rows and nothing else.
        for m in meshes:
            if m == Mesh((4, 6), torus=True):
                assert m.edge_ids(np.asarray([0]), np.asarray([5])).size == 1
            else:
                with pytest.raises(ValueError):
                    m.edge_ids(np.asarray([0]), np.asarray([5]))

    def test_tables_are_narrow_and_read_only(self):
        m = Mesh((8, 8), torus=True)
        gap_row, table = m._edge_id_tables
        assert table.dtype == np.int32
        assert table.size == (2 * m.d + 1) * m.n
        assert gap_row.size == 2 * m.n - 1  # one entry per signed gap h - t
        assert not table.flags.writeable and not gap_row.flags.writeable
        assert m._edge_id_tables is m._edge_id_tables


class TestNetworkx:
    def test_graph_matches_mesh(self):
        m = Mesh((4, 4))
        g = m.to_networkx()
        assert g.number_of_nodes() == m.n
        assert g.number_of_edges() == m.num_edges
        for u in range(m.n):
            assert sorted(g.neighbors(u)) == m.neighbors(u)

    def test_torus_graph(self):
        t = Mesh((4, 4), torus=True)
        g = t.to_networkx()
        assert g.number_of_edges() == t.num_edges
        assert all(d == 4 for _, d in g.degree())


class TestPaperHelpers:
    def test_is_power_of_two_cube(self):
        assert Mesh((8, 8)).is_power_of_two_cube
        assert Mesh((1, 1)).is_power_of_two_cube
        assert not Mesh((8, 4)).is_power_of_two_cube
        assert not Mesh((6, 6)).is_power_of_two_cube

    def test_k(self):
        assert Mesh((8, 8)).k == 3
        assert Mesh((16, 16, 16)).k == 4
        with pytest.raises(ValueError):
            _ = Mesh((6, 6)).k

    def test_pad_to_power_of_two(self):
        padded = pad_to_power_of_two(Mesh((5, 7)))
        assert padded.sides == (8, 8)
        assert pad_to_power_of_two(Mesh((8, 8))).sides == (8, 8)
        assert math.log2(padded.sides[0]).is_integer()
