import itertools

import numpy as np
import pytest

from _oracles import hybrid_edges, leaf_edges, witness_edges
from conftest import random_stats
from gridtopo.errors import ValidationError
from gridtopo.estimator import (
    NUMERIC_ZERO_FLOOR,
    analytic_concentration,
    default_ridge,
    direct_concentration,
    gamma_thresholds,
    sample_covariance,
)
from gridtopo.generate import generate_grid
from gridtopo.grid import (
    GridGraph,
    Line,
    grid_from_dict,
    reduced_laplacians,
    structure_report,
)
from gridtopo.sampler import InjectionStatistics, draw_covariance, sample_voltages
from gridtopo.sweep import _concentration
from gridtopo.topology import (
    LEAF,
    NON_LEAF,
    UNRESOLVED,
    TopologyEstimate,
    learn_neighborhood,
    learn_sign_rule,
    score,
    threshold_by_gap,
)


def path4():
    return GridGraph(
        buses=("0", "1", "2", "3"),
        reference="0",
        lines=(
            Line("0", "1", 0.0, 1.0),
            Line("1", "2", 0.0, 1.0),
            Line("2", "3", 0.0, 1.0),
        ),
    )


def analytic_for(grid, stats=None):
    lap = reduced_laplacians(grid)
    if stats is None:
        stats = InjectionStatistics.uniform(grid.n)
    return lap, stats, analytic_concentration(lap, stats)


def assert_witness_pass(grid, seed, sizes):
    """The learner's non-leaf edges are the hybrid edges the pairwise
    oracle finds a witness for, and its other edges and leaves are those
    of the oracle's leaf pass, on the analytic concentration and on direct
    estimates from ``sizes`` samples, at three thresholds."""
    lap, stats, analytic = analytic_for(grid)
    gamma1, _ = gamma_thresholds(analytic)
    concs = [analytic]
    for n in sizes:
        samples = sample_voltages(lap, stats, n, seed)
        cov = sample_covariance(samples)
        concs.append(direct_concentration(cov, default_ridge(cov, n), lap.bus_order))
    for conc in concs:
        for tau1 in (gamma1 / 4, gamma1 / 2, gamma1):
            estimate = learn_neighborhood(conc, tau1)
            non_leaf = {b for b, klass in estimate.node_class.items() if klass == NON_LEAF}
            learned = {edge for edge in estimate.edges if set(edge) <= non_leaf}
            assert learned == witness_edges(conc, tau1), (conc.provenance, tau1)
            attached = leaf_edges(conc, tau1)
            assert estimate.edges == learned | attached, (conc.provenance, tau1)
            leaves = {b for b, klass in estimate.node_class.items() if klass == LEAF}
            assert leaves == {b for edge in attached for b in edge} - non_leaf


class TestNeighborhoodSearch:
    def test_saturating_threshold_learns_nothing(self, path3):
        _, _, conc = analytic_for(path3)
        estimate = learn_neighborhood(conc, tau1=1e9)
        assert not estimate.edges
        assert set(estimate.node_class.values()) == {UNRESOLVED}

    def test_path3_single_hybrid_edge(self, path3):
        # the one hybrid edge has no common neighbours, so no witness
        _, _, conc = analytic_for(path3, InjectionStatistics.uniform(2, 1.0))
        gamma1, _ = gamma_thresholds(conc)
        assert hybrid_edges(conc, gamma1 / 2) == {("1", "2")}
        estimate = learn_neighborhood(conc, gamma1 / 2)
        assert not estimate.edges
        assert estimate.node_class == {"1": UNRESOLVED, "2": UNRESOLVED}

    def test_cycle7_hybrid_is_grid_plus_two_hop(self):
        grid = generate_grid("meshed", 56, loops=3, min_cycle=7, seed=1)
        _, _, conc = analytic_for(grid)
        gamma1, _ = gamma_thresholds(conc)
        report = structure_report(grid)
        expected = set(grid.scored_edges())
        for bus, two_hops in report.two_hop.items():
            for other in two_hops:
                expected.add(tuple(sorted((bus, other))))
        assert hybrid_edges(conc, gamma1 / 2) == expected

    def test_requires_positive_threshold(self, path3):
        _, _, conc = analytic_for(path3)
        for tau1 in (0.0, -1.0, float("nan")):
            with pytest.raises(ValidationError, match="tau1 must be positive"):
                learn_neighborhood(conc, tau1)

    def test_cycle7_exact(self):
        grid = generate_grid("meshed", 56, loops=3, min_cycle=7, seed=1, min_non_leaves=3)
        _, _, conc = analytic_for(grid)
        gamma1, _ = gamma_thresholds(conc)
        estimate = learn_neighborhood(conc, gamma1 / 2)
        assert score(estimate, grid) == 0.0
        assert UNRESOLVED not in estimate.node_class.values()

    def test_triangle_grid_errs(self):
        # triangles break the witness separation; not every instance
        # trips it, so pin a seed where the failure shows
        grid = generate_grid("meshed", 33, loops=3, min_cycle=3, seed=6)
        _, _, conc = analytic_for(grid)
        gamma1, _ = gamma_thresholds(conc)
        estimate = learn_neighborhood(conc, gamma1 / 2)
        assert score(estimate, grid) > 0.0

    def test_single_edge_grid_unresolved(self, two_bus):
        _, _, conc = analytic_for(two_bus, InjectionStatistics.uniform(1, 1.0))
        estimate = learn_neighborhood(conc, tau1=0.5)
        assert estimate.node_class == {"1": UNRESOLVED}
        assert not estimate.edges

    def test_too_few_non_leaves_unresolved(self, path3):
        # two non-reference buses can never produce three non-leaf nodes
        _, _, conc = analytic_for(path3, InjectionStatistics.uniform(2, 1.0))
        estimate = learn_neighborhood(conc, tau1=1.5)
        assert set(estimate.node_class.values()) == {UNRESOLVED}

    @pytest.mark.parametrize("seed", range(6))
    def test_witness_matches_brute_force(self, seed):
        # analytic and sampled direct estimates; sampling noise gives the
        # hybrid graph spurious edges and so many more candidate pairs
        grid = generate_grid(
            "meshed", 20, loops=2, min_cycle=max(3, 3 + seed), seed=seed
        )
        assert_witness_pass(grid, seed, (300, 1000))

    def test_witness_matches_brute_force_at_56_buses(self):
        grid = generate_grid("meshed", 56, loops=3, min_cycle=7, seed=1, min_non_leaves=3)
        assert_witness_pass(grid, 56, (300, 1000))

    def test_node_classes(self):
        grid = generate_grid("tree", 20, seed=6, min_non_leaves=4)
        _, _, conc = analytic_for(grid)
        gamma1, _ = gamma_thresholds(conc)
        estimate = learn_neighborhood(conc, gamma1 / 2)
        assert score(estimate, grid) == 0.0
        # every non-leaf carries at least one recovered edge
        for bus, klass in estimate.node_class.items():
            if klass == NON_LEAF:
                assert any(bus in edge for edge in estimate.edges)


class TestSignRule:
    def test_path4_sign_facts(self):
        # direct-edge entries negative, the unique two-hop entry positive
        grid = path4()
        _, _, conc = analytic_for(grid, InjectionStatistics.uniform(3, 1.0))
        s = conc.sign_sum()
        order = conc.bus_order
        idx = {b: k for k, b in enumerate(order)}
        assert s[idx["1"], idx["2"]] < 0
        assert s[idx["2"], idx["3"]] < 0
        assert s[idx["1"], idx["3"]] > 0

    @pytest.mark.parametrize("seed", range(5))
    def test_triangle_free_exact(self, seed):
        min_cycle = (4, 5, 6, 7, 8)[seed]
        grid = generate_grid("meshed", 25, loops=2, min_cycle=min_cycle, seed=seed)
        _, _, conc = analytic_for(grid)
        _, gamma2 = gamma_thresholds(conc)
        estimate = learn_sign_rule(conc, gamma2 / 2)
        assert score(estimate, grid) == 0.0

    def test_triangle_grid_errs(self):
        # a triangle with two strong legs and one weak one: the positive
        # product through the common neighbor outweighs the weak edge's
        # negative direct terms and the edge is missed
        grid = GridGraph(
            buses=("0", "1", "2", "3"),
            reference="0",
            lines=(
                Line("0", "1", 0.0, 0.5),
                Line("1", "2", 0.0, 0.05),
                Line("1", "3", 0.0, 0.05),
                Line("2", "3", 0.0, 2.0),
            ),
        )
        _, _, conc = analytic_for(grid, InjectionStatistics.uniform(3, 1.0))
        s = conc.sign_sum()
        idx = {b: k for k, b in enumerate(conc.bus_order)}
        assert s[idx["2"], idx["3"]] > 0  # true edge with flipped sign
        _, gamma2 = gamma_thresholds(conc)
        estimate = learn_sign_rule(conc, gamma2 / 2)
        assert score(estimate, grid) > 0.0

    @pytest.mark.parametrize("seed", range(4))
    def test_sign_facts_on_random_triangle_free_grids(self, seed):
        grid = generate_grid("meshed", 18, loops=2, min_cycle=5 + seed, seed=40 + seed)
        lap, stats, conc = analytic_for(grid)
        s = conc.sign_sum()
        idx = {b: k for k, b in enumerate(conc.bus_order)}
        report = structure_report(grid)
        floor = NUMERIC_ZERO_FLOOR * np.abs(s).max()
        true_edges = grid.scored_edges()
        two_hop_pairs = {
            tuple(sorted((a, b)))
            for a, hops in report.two_hop.items()
            for b in hops
        }
        for a, b in itertools.combinations(conc.bus_order, 2):
            value = s[idx[a], idx[b]]
            if (a, b) in true_edges:
                assert value < 0
            elif (a, b) in two_hop_pairs:
                assert value > 0
            else:
                assert abs(value) < floor

    def test_all_nodes_unclassified(self, path3):
        _, _, conc = analytic_for(path3, InjectionStatistics.uniform(2, 1.0))
        estimate = learn_sign_rule(conc, 3.0)
        assert set(estimate.node_class.values()) == {UNRESOLVED}

    def test_cycle4_contrast(self):
        # cycle length four: the sign rule stays exact while the
        # neighborhood witness logic plateaus at a nonzero error
        grid = generate_grid(
            "meshed", 56, loops=3, min_cycle=4, seed=0,
            r_range=(0.1, 0.2), x_range=(0.1, 0.2), min_non_leaves=3,
        )
        _, _, conc = analytic_for(grid)
        gamma1, gamma2 = gamma_thresholds(conc)
        assert score(learn_sign_rule(conc, gamma2 / 2), grid) == 0.0
        assert score(learn_neighborhood(conc, gamma1 / 2), grid) > 0.0


class TestScore:
    def _estimate(self, edges, nodes):
        return TopologyEstimate(
            edges=frozenset(edges),
            node_class={b: UNRESOLVED for b in nodes},
            algorithm="sign",
            thresholds={},
        )

    def test_perfect(self):
        grid = generate_grid("tree", 12, seed=0)
        estimate = self._estimate(grid.scored_edges(), grid.non_reference)
        assert score(estimate, grid) == 0.0

    def test_one_false_one_missed(self):
        grid = generate_grid("path", 12, seed=0)  # 10 scorable edges
        true_edges = sorted(grid.scored_edges())
        assert len(true_edges) == 10
        edges = set(true_edges[:-1])  # drop one
        edges.add((grid.non_reference[0], grid.non_reference[5]))  # add one
        estimate = self._estimate(edges, grid.non_reference)
        assert score(estimate, grid) == pytest.approx(0.2)

    def test_empty_estimate(self):
        grid = generate_grid("path", 12, seed=0)
        estimate = self._estimate(set(), grid.non_reference)
        assert score(estimate, grid) == pytest.approx(1.0)

    def test_bus_mismatch(self):
        grid = generate_grid("path", 5, seed=0)
        estimate = self._estimate(set(), ("zz",))
        with pytest.raises(ValidationError, match="bus set"):
            score(estimate, grid)

    def test_no_scorable_edges(self, two_bus):
        estimate = self._estimate(set(), two_bus.non_reference)
        with pytest.raises(ValidationError, match="no scorable"):
            score(estimate, two_bus)


class TestGapThreshold:
    def test_finds_obvious_gap(self):
        values = np.array([5.0, 4.8, 5.1, 0.01, 0.008])
        tau = threshold_by_gap(values)
        assert 0.01 < tau < 4.8

    def test_needs_two_values(self):
        with pytest.raises(ValidationError):
            threshold_by_gap(np.array([1.0]))


class TestUnsortedBusOrder:
    """Bus names "1".."13" sort as strings in another order than by index
    ("10" < "9"), so every edge key must be sorted by name, not by index."""

    @pytest.fixture(scope="class")
    def grid(self):
        payload = generate_grid("meshed", 14, loops=2, min_cycle=5, seed=4).to_dict()
        name = {b: str(int(b[1:])) for b in payload["buses"]}
        payload["buses"] = [name[b] for b in payload["buses"]]
        payload["reference"] = name[payload["reference"]]
        for line in payload["lines"]:
            line["from"], line["to"] = name[line["from"]], name[line["to"]]
        return grid_from_dict(payload)

    @staticmethod
    def oracle(order, keep):
        return {
            tuple(sorted((order[i], order[j])))
            for i, j in itertools.combinations(range(len(order)), 2)
            if keep(i, j)
        }

    @staticmethod
    def has_index_reversed_key(order, keys):
        return any(order.index(a) > order.index(b) for a, b in keys)

    @pytest.mark.parametrize("n", [None, 400])
    @pytest.mark.parametrize("scale", [0.1, 0.5, 2.0])
    def test_learner_edges_match_brute_force(self, grid, n, scale):
        lap, stats, analytic = analytic_for(grid, random_stats(grid.n, seed=4))
        if n is None:
            conc = analytic
        else:
            conc = _concentration(draw_covariance(lap, stats, n, 11), n, lap.bus_order)
        order = conc.bus_order
        gamma1, gamma2 = gamma_thresholds(analytic)
        tau1, tau2 = gamma1 * scale, gamma2 * scale
        s = conc.sign_sum()
        neighborhood = learn_neighborhood(conc, tau1)
        non_leaf = {b for b, klass in neighborhood.node_class.items() if klass == NON_LEAF}
        learned = {edge for edge in neighborhood.edges if set(edge) <= non_leaf}
        assert learned == witness_edges(conc, tau1)
        sign = learn_sign_rule(conc, tau2)
        assert sign.edges == self.oracle(order, lambda i, j: s[i, j] < -tau2)
        assert self.has_index_reversed_key(order, neighborhood.edges)
        assert self.has_index_reversed_key(order, sign.edges)
