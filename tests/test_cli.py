"""Tests for the command-line interface and ASCII visualisation."""

import argparse

import numpy as np
import pytest

from repro.analysis.visualize import draw_path, edge_load_heatmap, node_load_heatmap
from repro.cli import build_workload, main, parse_mesh
from repro.mesh.mesh import Mesh
from repro.mesh.paths import dimension_order_path


class TestParseMesh:
    def test_x_syntax(self):
        assert parse_mesh("16x16").sides == (16, 16)
        assert parse_mesh("8x8x8").sides == (8, 8, 8)
        assert parse_mesh("4").sides == (4,)

    def test_power_syntax(self):
        assert parse_mesh("16^2").sides == (16, 16)
        assert parse_mesh("8^3").sides == (8, 8, 8)

    def test_torus_flag(self):
        assert parse_mesh("8x8", torus=True).torus

    def test_bad_spec(self):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_mesh("8xx8")
        with pytest.raises(argparse.ArgumentTypeError):
            parse_mesh("abc")


class TestBuildWorkload:
    @pytest.mark.parametrize(
        "name",
        ["transpose", "bit-reversal", "bit-complement", "tornado",
         "random-permutation", "random-pairs", "all-to-one",
         "nearest-neighbor", "block-exchange"],
    )
    def test_all_workloads(self, name):
        mesh = Mesh((8, 8))
        prob = build_workload(name, mesh, seed=0)
        assert prob.num_packets > 0

    def test_unknown(self):
        with pytest.raises(argparse.ArgumentTypeError):
            build_workload("nope", Mesh((4, 4)), 0)


class TestCommands:
    def test_route(self, capsys):
        assert main(["route", "--mesh", "8x8", "--workload", "transpose"]) == 0
        out = capsys.readouterr().out
        assert "C* lower bound" in out

    def test_route_heatmap_and_path(self, capsys):
        rc = main(
            ["route", "--mesh", "8x8", "--heatmap", "--show-path", "0"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "scale:" in out
        assert "S" in out and "T" in out

    def test_route_heatmap_3d_skipped(self, capsys):
        assert main(["route", "--mesh", "4x4x4", "--workload", "random-permutation",
                     "--heatmap"]) == 0
        err = capsys.readouterr().err
        assert "skipped" in err

    def test_compare(self, capsys):
        rc = main(
            ["compare", "--mesh", "8x8", "--workload", "nearest-neighbor",
             "--routers", "hierarchical,valiant", "--seeds", "0,1"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "hierarchical" in out and "valiant" in out

    def test_decompose(self, capsys):
        assert main(["decompose", "--mesh", "8x8", "--render-level", "1"]) == 0
        out = capsys.readouterr().out
        assert "scheme=paper2d" in out
        assert "aaaabbbb" in out

    def test_simulate(self, capsys):
        assert main(["simulate", "--mesh", "8x8", "--policy", "fifo"]) == 0
        assert "makespan=" in capsys.readouterr().out

    def test_simulate_random_delay(self, capsys):
        assert main(["simulate", "--mesh", "4x4", "--policy", "random-delay"]) == 0
        out = capsys.readouterr().out
        assert "makespan=" in out and "random-delay" in out

    def test_online(self, capsys):
        assert main(["online", "--mesh", "8x8", "--rates", "0.02",
                     "--steps", "40"]) == 0
        assert "mean_latency" in capsys.readouterr().out

    @pytest.mark.parametrize("mode", ["static", "blocks", "dynamic"])
    def test_faults(self, mode, capsys):
        assert main(["faults", "--mesh", "8x8", "--mode", mode,
                     "--steps", "20", "--rate", "0.03"]) == 0
        out = capsys.readouterr().out
        assert "delivery_ratio" in out and "fault-free" in out

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


def _usage_error(argv, capsys) -> str:
    """Run ``argv``; assert an argparse exit (status 2, no traceback)."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return err


TRAFFIC = ["traffic", "--mesh", "4x4", "--steps", "4", "--rates", "0.05"]


class TestArgumentErrors:
    @pytest.mark.parametrize("command", ["online", "traffic"])
    @pytest.mark.parametrize("rates", ["abc", "0.1,,0.2", "nan", "inf", "0.1,-0.1"])
    def test_malformed_rates(self, command, rates, capsys):
        err = _usage_error([command, "--mesh", "4x4", "--rates", rates], capsys)
        assert f"repro {command}: error: argument --rates" in err

    @pytest.mark.parametrize(
        "flag", ["--flush-ms", "--max-batch", "--shard-threshold"]
    )
    def test_serve_has_no_batching_knobs(self, flag, capsys):
        # the service batches what is waiting and shards what the block
        # plan splits, with no window, cap or threshold to set
        err = _usage_error(["serve", flag, "1"], capsys)
        assert "unrecognized arguments" in err

    def test_online_rates_are_probabilities(self, capsys):
        err = _usage_error(["online", "--mesh", "4x4", "--rates", "0.1,1.5"], capsys)
        assert "repro online: error:" in err and "[0, 1]" in err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--max-wait", "0"], "max_wait"),
            (["--max-backlog", "0"], "max_backlog"),
            (["--admit-rate", "0"], "rate_limit"),
            (["--admit-burst", "3"], "no-op"),
            (["--admit-rate", "2", "--admit-burst", "0"], "burst"),
            (["--admit-rate", "nan"], "rate_limit"),
            (["--admit-rate", "inf"], "rate_limit"),
            (["--admit-rate", "2", "--admit-burst", "nan"], "burst"),
        ],
    )
    def test_invalid_admission_flags(self, flags, message, capsys):
        # zero used to read as "flag not given", and NaN compared false
        # against every bound: both ran without admission or an error
        err = _usage_error(TRAFFIC + flags, capsys)
        assert "repro traffic: error:" in err and message in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["online", "--mesh", "4x4"],
            TRAFFIC,
            ["faults", "--mesh", "4x4", "--steps", "4"],
        ],
    )
    def test_online_commands_refuse_non_oblivious_routers(self, argv, capsys):
        # the online simulator rejects them: offering one ended in a traceback
        err = _usage_error(argv + ["--router", "greedy-offline"], capsys)
        assert "argument --router: invalid choice: 'greedy-offline'" in err

    @pytest.mark.parametrize("spec", ["abc", "0x4", "4x-4", "16^", "", "16^16"])
    @pytest.mark.parametrize("command", ["route", "traffic"])
    def test_malformed_mesh(self, command, spec, capsys):
        # unparsable specs and sides Mesh rejects both used to end in a
        # traceback with exit 1; 16^16 overflowed int64 into a 0-node mesh
        # and exited 0
        err = _usage_error([command, "--mesh", spec], capsys)
        assert f"repro {command}: error: bad mesh spec" in err

    def test_adversarial_traffic_needs_divisible_mesh(self, capsys):
        # Pi_A needs sides divisible by 2*l: a ValueError traceback before
        err = _usage_error(TRAFFIC + ["--traffic", "adversarial"], capsys)
        assert "repro traffic: error:" in err and "divisible" in err

    def test_valid_admission_flags_enable_admission(self, capsys):
        assert main(TRAFFIC + ["--max-wait", "1"]) == 0
        assert "+admission" in capsys.readouterr().out

    def test_rates_parse_into_rows(self, capsys):
        assert main(["online", "--mesh", "4x4", "--rates", "0,0.05",
                     "--steps", "5"]) == 0
        out = capsys.readouterr().out
        assert "0.05" in out


class TestVisualize:
    def test_node_heatmap_shape(self):
        mesh = Mesh((4, 4))
        art = node_load_heatmap(mesh, np.arange(16), legend=False)
        lines = art.splitlines()
        assert len(lines) == 4 and all(len(l) == 4 for l in lines)
        assert art[0] == " "  # zero cell is blank

    def test_node_heatmap_peak_is_at(self):
        mesh = Mesh((2, 2))
        art = node_load_heatmap(mesh, np.asarray([0, 0, 0, 9]), legend=False)
        assert art.splitlines()[1][1] == "@"

    def test_edge_heatmap_dimensions(self):
        mesh = Mesh((3, 3))
        art = edge_load_heatmap(mesh, np.zeros(mesh.num_edges), legend=False)
        lines = art.splitlines()
        assert len(lines) == 5 and all(len(l) == 5 for l in lines)
        assert lines[0][0] == "o"

    def test_edge_heatmap_marks_loaded_edge(self):
        mesh = Mesh((3, 3))
        loads = np.zeros(mesh.num_edges)
        eid = int(mesh.edge_ids(np.asarray([0]), np.asarray([1]))[0])
        loads[eid] = 5.0
        art = edge_load_heatmap(mesh, loads, legend=False)
        # edge (0,0)-(0,1) sits at canvas row 0, col 1
        assert art.splitlines()[0][1] == "@"

    def test_draw_path_marks(self):
        mesh = Mesh((4, 4))
        p = dimension_order_path(mesh, 0, 15)
        art = draw_path(mesh, p)
        assert art.count("S") == 1
        assert art.count("T") == 1
        assert art.count("*") == len(p) - 2

    def test_requires_2d(self):
        m3 = Mesh((2, 2, 2))
        with pytest.raises(ValueError):
            node_load_heatmap(m3, np.zeros(8))
        with pytest.raises(ValueError):
            edge_load_heatmap(m3, np.zeros(m3.num_edges))
        with pytest.raises(ValueError):
            draw_path(m3, np.asarray([0, 1]))

    def test_value_shape_validated(self):
        mesh = Mesh((4, 4))
        with pytest.raises(ValueError):
            node_load_heatmap(mesh, np.zeros(5))
        with pytest.raises(ValueError):
            edge_load_heatmap(mesh, np.zeros(3))


class TestCertifyAndBits:
    def test_certify_exhaustive(self, capsys):
        assert main(["certify", "--mesh", "4x4"]) == 0
        out = capsys.readouterr().out
        assert "exhaustive" in out
        assert "HOLDS" in out

    def test_certify_sampled(self, capsys):
        assert main(["certify", "--mesh", "16x16", "--samples", "100"]) == 0
        out = capsys.readouterr().out
        assert "sampled" in out
        assert "witness pair" in out

    def test_certify_3d_no_2d_bound_line(self, capsys):
        assert main(["certify", "--mesh", "4x4x4", "--samples", "50"]) == 0
        out = capsys.readouterr().out
        assert "Theorem 3.4" not in out

    def test_bits(self, capsys):
        assert main(["bits", "--mesh", "8x8", "--packets", "30"]) == 0
        out = capsys.readouterr().out
        assert "fresh" in out and "recycled" in out
        assert "Lemma 5.4" in out
