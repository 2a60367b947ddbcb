import numpy as np
import networkx as nx
import pytest

from _oracles import addition_endpoint_deltas
from conftest import random_stats
from gridtopo.detect import (
    ADDED,
    AMBIGUOUS,
    NO_CHANGE,
    REMOVED,
    detect_change,
    diagonal_deltas,
)
from gridtopo.errors import ValidationError
from gridtopo.estimator import ConcentrationMatrix, analytic_concentration
from gridtopo.generate import generate_grid
from gridtopo.grid import apply_line_event, reduced_laplacians
from gridtopo.sampler import InjectionStatistics


def analytic(grid, stats):
    return analytic_concentration(reduced_laplacians(grid), stats)


def diag_conc(values, order):
    return ConcentrationMatrix(
        j=np.diag(np.asarray(values, dtype=float)), bus_order=order, provenance="analytic"
    )


def random_event(grid, rng):
    """A random single-line event between non-reference buses."""
    non_ref = grid.non_reference
    if rng.random() < 0.5:
        candidates = [
            (a, b)
            for a, b in __import__("itertools").combinations(sorted(non_ref), 2)
            if not grid.has_line(a, b)
        ]
        a, b = candidates[int(rng.integers(0, len(candidates)))]
        return "add", (a, b), apply_line_event(grid, a, b, "add", r=0.1, x=0.2)
    g = nx.Graph((line.a, line.b) for line in grid.lines)
    bridges = {tuple(sorted(e)) for e in nx.bridges(g)}
    removable = sorted(grid.scored_edges - bridges)
    if not removable:
        return None
    a, b = removable[int(rng.integers(0, len(removable)))]
    return "remove", (a, b), apply_line_event(grid, a, b, "remove")


class TestDiagonalDeltas:
    def test_identical_inputs(self, path3):
        stats = InjectionStatistics.uniform(2)
        conc = analytic(path3, stats)
        assert not np.any(diagonal_deltas(conc, conc))

    def test_addition_endpoints_positive(self):
        grid = generate_grid("meshed", 33, loops=3, min_cycle=4, seed=8)
        stats = InjectionStatistics.uniform(grid.n)
        a, b = grid.non_reference[8], grid.non_reference[21]
        assert not grid.has_line(a, b)
        after = apply_line_event(grid, a, b, "add", r=0.1, x=0.2)
        deltas = diagonal_deltas(analytic(grid, stats), analytic(after, stats))
        order = reduced_laplacians(grid).bus_order
        endpoint_idx = {order.index(a), order.index(b)}
        floor = 1e-10 * np.abs(deltas).max()
        for k, delta in enumerate(deltas):
            if k in endpoint_idx:
                assert delta > 0
            else:
                assert abs(delta) < floor

    def test_removal_endpoints_negative(self):
        grid = generate_grid("meshed", 33, loops=3, min_cycle=4, seed=8)
        stats = InjectionStatistics.uniform(grid.n)
        target = sorted(grid.scored_edges)[-1]
        g = nx.Graph((line.a, line.b) for line in grid.lines)
        bridges = {tuple(sorted(e)) for e in nx.bridges(g)}
        target = sorted(grid.scored_edges - bridges)[0]
        after = apply_line_event(grid, target[0], target[1], "remove")
        deltas = diagonal_deltas(analytic(grid, stats), analytic(after, stats))
        order = reduced_laplacians(grid).bus_order
        endpoint_idx = {order.index(target[0]), order.index(target[1])}
        floor = 1e-10 * np.abs(deltas).max()
        for k, delta in enumerate(deltas):
            if k in endpoint_idx:
                assert delta < 0
            else:
                assert abs(delta) < floor

    def test_dimension_mismatch(self, path3, two_bus):
        stats3 = InjectionStatistics.uniform(2)
        stats2 = InjectionStatistics.uniform(1)
        with pytest.raises(ValidationError):
            diagonal_deltas(analytic(path3, stats3), analytic(two_bus, stats2))

    @pytest.mark.parametrize("seed", range(6))
    def test_closed_form_matches(self, seed):
        grid = generate_grid("meshed", 20, loops=2, min_cycle=4, seed=seed)
        stats = random_stats(grid.n, seed=seed)
        rng = np.random.default_rng(seed)
        non_ref = sorted(grid.non_reference)
        candidates = [
            (a, b)
            for a, b in __import__("itertools").combinations(non_ref, 2)
            if not grid.has_line(a, b)
        ]
        a, b = candidates[int(rng.integers(0, len(candidates)))]
        r, x = float(rng.uniform(0.05, 0.5)), float(rng.uniform(0.05, 0.5))
        after = apply_line_event(grid, a, b, "add", r=r, x=x)
        deltas = diagonal_deltas(analytic(grid, stats), analytic(after, stats))
        order = reduced_laplacians(grid).bus_order
        measured = (deltas[order.index(a)], deltas[order.index(b)])
        closed = addition_endpoint_deltas(grid, stats, a, b, r=r, x=x)
        assert measured[0] == pytest.approx(closed[0], rel=1e-8)
        assert measured[1] == pytest.approx(closed[1], rel=1e-8)


class TestDetectChange:
    def test_no_change(self, path3):
        stats = InjectionStatistics.uniform(2)
        conc = analytic(path3, stats)
        report = detect_change(conc, conc, tau3=1e-6)
        assert report.kind == NO_CHANGE
        assert report.endpoints is None

    @pytest.mark.parametrize("seed", range(12))
    def test_random_events_analytic(self, seed):
        rng = np.random.default_rng(seed)
        grid = generate_grid(
            "meshed", int(rng.integers(10, 34)), loops=2, min_cycle=4, seed=seed
        )
        stats = random_stats(grid.n, seed=seed, correlated_pq=False)
        event = random_event(grid, rng)
        assert event is not None
        kind, edge, after = event
        j_before, j_after = analytic(grid, stats), analytic(after, stats)
        deltas = diagonal_deltas(j_before, j_after)
        order = j_before.bus_order
        tau3 = min(abs(deltas[order.index(e)]) for e in edge) / 2
        report = detect_change(j_before, j_after, tau3)
        assert report.kind == (ADDED if kind == "add" else REMOVED)
        assert report.endpoints == edge

    def test_symmetry_add_remove(self):
        grid = generate_grid("meshed", 15, loops=1, min_cycle=5, seed=4)
        stats = InjectionStatistics.uniform(grid.n)
        a, b = grid.non_reference[2], grid.non_reference[9]
        if grid.has_line(a, b):
            pytest.skip("random pair already connected")
        after = apply_line_event(grid, a, b, "add", r=0.1, x=0.3)
        jb, ja = analytic(grid, stats), analytic(after, stats)
        deltas = diagonal_deltas(jb, ja)
        order = jb.bus_order
        tau3 = min(abs(deltas[order.index(e)]) for e in (a, b)) / 2
        forward = detect_change(jb, ja, tau3)
        backward = detect_change(ja, jb, tau3)
        assert forward.kind == ADDED
        assert backward.kind == REMOVED
        assert forward.endpoints == backward.endpoints == (a, b)

    def test_single_terminal_ambiguous(self):
        order = ("a", "b", "c")
        before = diag_conc(np.zeros(6) + 1.0, order)
        values = np.ones(6)
        values[0] += 1.0  # only bus a moves
        after = diag_conc(values, order)
        report = detect_change(before, after, tau3=0.5)
        assert report.kind == AMBIGUOUS
        assert report.endpoints is None

    def test_mixed_signs_ambiguous(self):
        order = ("a", "b", "c")
        before = diag_conc(np.ones(6), order)
        values = np.ones(6)
        values[0] += 1.0
        values[1] -= 1.0
        after = diag_conc(values, order)
        report = detect_change(before, after, tau3=0.5)
        assert report.kind == AMBIGUOUS

    def test_three_terminals_ambiguous(self):
        order = ("a", "b", "c")
        before = diag_conc(np.ones(6), order)
        after = diag_conc(np.ones(6) + 1.0, order)
        report = detect_change(before, after, tau3=0.5)
        assert report.kind == AMBIGUOUS

    def test_requires_positive_tau(self, path3):
        stats = InjectionStatistics.uniform(2)
        conc = analytic(path3, stats)
        with pytest.raises(ValidationError):
            detect_change(conc, conc, tau3=0.0)

    def test_reference_endpoint_rejected_in_closed_form(self, path3):
        stats = InjectionStatistics.uniform(2)
        with pytest.raises(ValidationError, match="non-reference"):
            addition_endpoint_deltas(path3, stats, "0", "2", r=0.1, x=0.1)
