import json
import math

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, strategies as st

from _oracles import random_connected_grid
from gridtopo.errors import ValidationError
from gridtopo.generate import generate_grid
from gridtopo.grid import (
    GridGraph,
    Line,
    admittance,
    apply_line_event,
    load_grid,
    reduced_laplacians,
    save_grid,
    structure_report,
)


def to_nx(grid):
    g = nx.Graph()
    g.add_nodes_from(grid.buses)
    g.add_edges_from((line.a, line.b) for line in grid.lines)
    return g


class TestAdmittance:
    def test_pure_reactance(self):
        adm = admittance(0.0, 1.0)
        assert adm.g == 0.0 and adm.beta == 1.0

    def test_pure_resistance(self):
        adm = admittance(1.0, 0.0)
        assert adm.g == 1.0 and adm.beta == 0.0

    def test_hand_value(self):
        # 1/(3 - 4i) = (3 + 4i)/25
        adm = admittance(3.0, 4.0)
        assert adm.g == pytest.approx(0.12, abs=1e-15)
        assert adm.beta == pytest.approx(0.16, abs=1e-15)

    def test_zero_impedance(self):
        with pytest.raises(ValidationError):
            admittance(0.0, 0.0)

    @given(
        r=st.floats(0.001, 100.0),
        x=st.floats(0.001, 100.0),
    )
    def test_involution(self, r, x):
        # the map (r, x) -> (g, beta) is its own inverse
        adm = admittance(r, x)
        back = admittance(adm.g, adm.beta)
        assert back.g == pytest.approx(r, rel=1e-12)
        assert back.beta == pytest.approx(x, rel=1e-12)


class TestGridValidation:
    def test_minimal_two_bus(self, two_bus):
        assert two_bus.n == 1
        assert two_bus.non_reference == ("1",)

    def test_self_loop(self):
        with pytest.raises(ValidationError, match="self-loop"):
            Line("1", "1", 0.1, 0.1)

    def test_duplicate_edge(self):
        with pytest.raises(ValidationError, match="duplicate line"):
            GridGraph(
                buses=("0", "1"),
                reference="0",
                lines=(Line("0", "1", 0.1, 0.1), Line("1", "0", 0.2, 0.2)),
            )

    def test_disconnected(self):
        with pytest.raises(ValidationError, match="not connected"):
            GridGraph(
                buses=("0", "1", "2", "3"),
                reference="0",
                lines=(Line("0", "1", 0.1, 0.1), Line("2", "3", 0.1, 0.1)),
            )

    def test_zero_impedance_line(self):
        with pytest.raises(ValidationError, match="zero impedance"):
            Line("0", "1", 0.0, 0.0)

    def test_unknown_bus(self):
        with pytest.raises(ValidationError, match="unknown bus"):
            GridGraph(buses=("0", "1"), reference="0", lines=(Line("0", "9", 0.1, 0.1),))

    def test_reference_must_exist(self):
        with pytest.raises(ValidationError, match="reference"):
            GridGraph(buses=("0", "1"), reference="x", lines=(Line("0", "1", 0.1, 0.1),))


class TestFileFormat:
    def test_roundtrip(self, tmp_path, path3):
        path = tmp_path / "grid.json"
        save_grid(path3, path)
        loaded = load_grid(path)
        assert loaded == path3

    def test_parse_failure(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ValidationError, match="cannot parse"):
            load_grid(bad)

    def test_undecodable_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"buses": ["\xff"]}')
        with pytest.raises(ValidationError, match="cannot parse"):
            load_grid(bad)

    def test_missing_keys(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"buses": ["0", "1"]}))
        with pytest.raises(ValidationError, match="malformed"):
            load_grid(bad)

    def test_bus_order_is_file_order(self, tmp_path):
        payload = {
            "buses": ["b", "a", "c"],
            "reference": "a",
            "lines": [
                {"from": "a", "to": "b", "r": 0.1, "x": 0.1},
                {"from": "b", "to": "c", "r": 0.1, "x": 0.1},
            ],
        }
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(payload))
        grid = load_grid(path)
        assert grid.non_reference == ("b", "c")

    def test_56_bus_meshed_file(self, tmp_path):
        grid = generate_grid("meshed", 56, loops=3, min_cycle=7, seed=1)
        path = tmp_path / "case56.json"
        save_grid(grid, path)
        loaded = load_grid(path)
        assert structure_report(loaded).min_cycle_length == 7


class TestLaplacians:
    def test_two_bus(self, two_bus):
        lap = reduced_laplacians(two_bus)
        assert lap.h_g == pytest.approx(np.array([[0.0]]))
        assert lap.h_beta == pytest.approx(np.array([[1.0]]))
        assert lap.composite == pytest.approx(np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_path3(self, path3):
        lap = reduced_laplacians(path3)
        assert lap.h_beta == pytest.approx(np.array([[2.0, -1.0], [-1.0, 1.0]]))
        assert not np.any(lap.h_g)

    @pytest.mark.parametrize("seed", range(5))
    def test_symmetry_and_row_sums(self, seed):
        grid = random_connected_grid(15, extra_edges=4, seed=seed)
        lap = reduced_laplacians(grid)
        assert np.abs(lap.composite - lap.composite.T).max() == 0.0
        # row sum of the reduced Laplacian equals the weight of the bus's
        # line to the reference (zero without one)
        for k, bus in enumerate(lap.bus_order):
            line = grid.adjacency[bus].get(grid.reference)
            expect_g = expect_b = 0.0
            if line is not None:
                adm = admittance(line.r, line.x)
                expect_g, expect_b = adm.g, adm.beta
            assert lap.h_g[k].sum() == pytest.approx(expect_g, abs=1e-12)
            assert lap.h_beta[k].sum() == pytest.approx(expect_b, abs=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_composite_invertible(self, seed):
        grid = random_connected_grid(20, extra_edges=3, seed=100 + seed)
        lap = reduced_laplacians(grid)
        w = np.abs(np.linalg.eigvalsh(lap.composite))
        assert w.min() > 0
        assert w.max() / w.min() < 1e12


class TestStructureReport:
    def test_triangle(self):
        grid = GridGraph(
            buses=("0", "1", "2"),
            reference="0",
            lines=(
                Line("0", "1", 0.1, 0.1),
                Line("1", "2", 0.1, 0.1),
                Line("0", "2", 0.1, 0.1),
            ),
        )
        assert structure_report(grid).min_cycle_length == 3

    def test_tree_is_radial(self):
        grid = generate_grid("tree", 12, seed=3)
        report = structure_report(grid)
        assert math.isinf(report.min_cycle_length)
        assert report.is_radial

    def test_56_bus_cycle7(self):
        grid = generate_grid("meshed", 56, loops=3, min_cycle=7, seed=1)
        assert structure_report(grid).min_cycle_length == 7

    def test_leaf_partition(self):
        grid = generate_grid("tree", 15, seed=5)
        report = structure_report(grid)
        assert report.leaves | report.non_leaves == set(grid.buses)
        assert not report.leaves & report.non_leaves
        for leaf in report.leaves:
            assert grid.degree(leaf) == 1

    @pytest.mark.parametrize("seed", range(8))
    def test_girth_against_cycle_enumeration(self, seed):
        # brute-force oracle: shortest simple cycle over full enumeration
        grid = random_connected_grid(10, extra_edges=seed % 4, seed=seed)
        g = to_nx(grid)
        cycles = [c for c in nx.simple_cycles(g)]
        expected = min((len(c) for c in cycles), default=math.inf)
        assert structure_report(grid).min_cycle_length == expected

    @pytest.mark.parametrize("seed", range(5))
    def test_two_hop_against_floyd_warshall(self, seed):
        grid = random_connected_grid(25, extra_edges=5, seed=seed)
        report = structure_report(grid)
        sub = to_nx(grid)
        sub.remove_node(grid.reference)
        dist = dict(nx.floyd_warshall(sub))
        for bus in grid.non_reference:
            expected = {
                other
                for other in grid.non_reference
                if dist[bus].get(other, math.inf) == 2
            }
            assert report.two_hop[bus] == expected


class TestLineEvents:
    def test_add_creates_loop(self):
        grid = generate_grid("tree", 33, seed=7)
        before = structure_report(grid)
        assert before.is_radial
        a, b = grid.non_reference[7], grid.non_reference[20]
        changed = apply_line_event(grid, a, b, "add", r=0.1, x=0.2)
        assert len(changed.lines) == len(grid.lines) + 1
        assert not structure_report(changed).is_radial

    def test_remove_loop_edge(self):
        grid = generate_grid("meshed", 33, loops=3, min_cycle=5, seed=2)
        # removing a cycle (non-bridge) edge keeps the grid connected
        bridges = {tuple(sorted(e)) for e in nx.bridges(to_nx(grid))}
        target = sorted(grid.scored_edges - bridges)[0]
        changed = apply_line_event(grid, target[0], target[1], "remove")
        assert len(changed.lines) == len(grid.lines) - 1

    def test_remove_bridge_disconnects(self, path3):
        with pytest.raises(ValidationError, match="invalid"):
            apply_line_event(path3, "1", "2", "remove")

    def test_duplicate_addition(self, path3):
        with pytest.raises(ValidationError, match="already present"):
            apply_line_event(path3, "1", "2", "add", r=0.1, x=0.1)

    def test_unknown_endpoint(self, path3):
        with pytest.raises(ValidationError, match="existing buses"):
            apply_line_event(path3, "1", "zz", "add", r=0.1, x=0.1)


class TestImmutability:
    def test_arrays_read_only(self, path3):
        lap = reduced_laplacians(path3)
        with pytest.raises(ValueError):
            lap.h_g[0, 0] = 5.0

    def test_sha256_stable(self, path3):
        assert path3.sha256 == path3.sha256
        other = GridGraph(buses=path3.buses, reference=path3.reference, lines=path3.lines)
        assert other.sha256 == path3.sha256
