"""Tests for result persistence and CSV export."""

import numpy as np
import pytest

from repro.core.path_selection import HierarchicalRouter
from repro.io import load_result, rows_from_csv, rows_to_csv, save_result
from repro.mesh.mesh import Mesh
from repro.workloads.generators import random_pairs


class TestResultRoundtrip:
    def test_roundtrip(self, tmp_path):
        mesh = Mesh((8, 8))
        problem = random_pairs(mesh, 20, seed=0)
        result = HierarchicalRouter().route(problem, seed=5)
        file = tmp_path / "result.npz"
        save_result(file, result)
        loaded = load_result(file)
        assert loaded.problem.mesh == mesh
        assert loaded.problem.name == problem.name
        assert loaded.router_name == result.router_name
        assert loaded.seed == 5
        np.testing.assert_array_equal(loaded.problem.sources, problem.sources)
        np.testing.assert_array_equal(loaded.problem.dests, problem.dests)
        for a, b in zip(loaded.paths, result.paths):
            np.testing.assert_array_equal(a, b)

    def test_metrics_preserved(self, tmp_path):
        mesh = Mesh((8, 8))
        result = HierarchicalRouter().route(random_pairs(mesh, 15, seed=1), seed=2)
        file = tmp_path / "r.npz"
        save_result(file, result)
        loaded = load_result(file)
        assert loaded.congestion == result.congestion
        assert loaded.dilation == result.dilation
        assert loaded.stretch == result.stretch
        assert loaded.validate()

    def test_torus_flag_roundtrip(self, tmp_path):
        mesh = Mesh((8, 8), torus=True)
        result = HierarchicalRouter().route(random_pairs(mesh, 5, seed=2), seed=0)
        file = tmp_path / "t.npz"
        save_result(file, result)
        assert load_result(file).problem.mesh.torus

    def test_none_seed_roundtrip(self, tmp_path):
        # route(seed=None) resolves fresh entropy and records it on the
        # result (a 128-bit int), so the run is replayable; a result whose
        # seed really is None still round-trips as None.
        mesh = Mesh((4, 4))
        result = HierarchicalRouter().route(random_pairs(mesh, 3, seed=3), seed=None)
        assert result.seed is not None
        file = tmp_path / "n.npz"
        save_result(file, result)
        assert load_result(file).seed == result.seed

        from repro.routing.base import RoutingResult

        bare = RoutingResult(result.problem, result.paths, "x", None)
        save_result(file, bare)
        assert load_result(file).seed is None

    def test_trivial_paths_roundtrip(self, tmp_path):
        from repro.routing.base import RoutingProblem, RoutingResult

        mesh = Mesh((4, 4))
        problem = RoutingProblem(mesh, np.asarray([7]), np.asarray([7]))
        result = RoutingResult(problem, [np.asarray([7])], "x")
        file = tmp_path / "triv.npz"
        save_result(file, result)
        loaded = load_result(file)
        assert loaded.paths[0].tolist() == [7]

    def test_zero_packet_roundtrip(self, tmp_path):
        from repro.routing.base import RoutingProblem, RoutingResult

        mesh = Mesh((4, 4))
        empty = np.asarray([], dtype=np.int64)
        problem = RoutingProblem(mesh, empty, empty, "nothing")
        result = RoutingResult(problem, [], "x", seed=3)
        file = tmp_path / "zero.npz"
        save_result(file, result)
        loaded = load_result(file)
        assert loaded.problem.num_packets == 0
        assert len(loaded.paths) == 0
        assert loaded.paths == result.paths
        assert loaded.seed == 3

    def test_self_pairs_roundtrip(self, tmp_path):
        # s == t packets mixed with real ones: single-node paths survive.
        mesh = Mesh((8, 8))
        problem = random_pairs(mesh, 12, seed=4)
        dests = problem.dests.copy()
        dests[:4] = problem.sources[:4]
        from repro.routing.base import RoutingProblem

        problem = RoutingProblem(mesh, problem.sources, dests, "self-pairs")
        result = HierarchicalRouter().route(problem, seed=0)
        file = tmp_path / "self.npz"
        save_result(file, result)
        loaded = load_result(file)
        assert loaded.paths == result.paths
        for i in range(4):
            assert loaded.paths[i].tolist() == [int(problem.sources[i])]

    def test_torus_pathset_roundtrip(self, tmp_path):
        mesh = Mesh((8, 8), torus=True)
        result = HierarchicalRouter().route(random_pairs(mesh, 10, seed=6), seed=1)
        file = tmp_path / "torus.npz"
        save_result(file, result)
        loaded = load_result(file)
        assert loaded.problem.mesh == mesh
        # array-for-array CSR equality, not just per-path value equality
        assert loaded.paths == result.paths
        np.testing.assert_array_equal(loaded.paths.nodes, result.paths.nodes)
        np.testing.assert_array_equal(loaded.paths.offsets, result.paths.offsets)
        assert loaded.validate()


class TestMalformedResult:
    @pytest.fixture
    def saved(self, tmp_path):
        mesh = Mesh((4, 4))
        file = tmp_path / "result.npz"
        result = HierarchicalRouter().route(random_pairs(mesh, 6, seed=0), seed=1)
        save_result(file, result)
        return file

    @staticmethod
    def _rewrite(file, **changes):
        with np.load(file, allow_pickle=False) as data:
            arrays = {k: data[k] for k in data.files}
        arrays.update(changes)
        arrays = {k: v for k, v in arrays.items() if v is not None}
        np.savez_compressed(file, **arrays)

    def test_truncated_archive(self, saved):
        raw = saved.read_bytes()
        for cut in (10, len(raw) // 2, len(raw) - 1):
            saved.write_bytes(raw[:cut])
            with pytest.raises(ValueError, match="result.npz"):
                load_result(saved)

    def test_not_an_archive(self, saved):
        saved.write_bytes(b"routing results, honest" * 8)
        with pytest.raises(ValueError, match="result.npz"):
            load_result(saved)

    def test_missing_key(self, saved):
        self._rewrite(saved, path_lengths=None)
        with pytest.raises(ValueError, match="result.npz.*path_lengths"):
            load_result(saved)

    @pytest.mark.parametrize("bad", [999, 16, -1])
    def test_node_id_out_of_range(self, saved, bad):
        with np.load(saved, allow_pickle=False) as data:
            nodes = data["path_data"].copy()
        nodes[0] = bad
        self._rewrite(saved, path_data=nodes)
        with pytest.raises(ValueError, match=r"result.npz.*\[0, 16\)"):
            load_result(saved)

    def test_missing_file_stays_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_result(tmp_path / "absent.npz")


class TestCsv:
    def test_roundtrip(self, tmp_path):
        rows = [
            {"router": "a", "C": 3, "stretch": 1.5},
            {"router": "b", "C": 7, "stretch": 2.0},
        ]
        file = tmp_path / "rows.csv"
        rows_to_csv(file, rows)
        back = rows_from_csv(file)
        assert back == rows

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            rows_to_csv(tmp_path / "x.csv", [])

    def test_extra_fields_ignored(self, tmp_path):
        rows = [{"a": 1, "b": 2}, {"a": 3, "b": 4, "c": 5}]
        file = tmp_path / "rows.csv"
        rows_to_csv(file, rows)
        back = rows_from_csv(file)
        assert all("c" not in r for r in back)
