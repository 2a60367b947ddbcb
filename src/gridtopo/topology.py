"""Topology learning from the voltage concentration matrix.

Two algorithms recover the grid edge set from the estimated concentration
matrix. Both start from the "hybrid" graph over buses whose edges are the
above-threshold |J_vv| entries; by the two-hop support property this
graph is the true grid plus edges between two-hop neighbors.

Neighborhood search separates true from two-hop edges by a local witness
test (sound for minimum cycle length above six), then attaches leaves by
a neighbor-set comparison (needs at least three non-leaf nodes). Nodes
whose tests fail are reported Unresolved, never guessed.

The sign rule keeps edge (ij) iff J_vv(i,j) + J_tt(i,j) is below -tau:
on triangle-free grids that combination is strictly negative exactly on
true edges and positive on two-hop pairs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import ValidationError
from .estimator import ConcentrationMatrix
from .grid import GridGraph, _edge_key

__all__ = [
    "HybridGraph",
    "TopologyEstimate",
    "build_hybrid",
    "learn_neighborhood",
    "learn_sign_rule",
    "score",
    "threshold_by_gap",
    "export_estimate",
]

LEAF = "leaf"
NON_LEAF = "non_leaf"
UNRESOLVED = "unresolved"


@dataclass(frozen=True)
class HybridGraph:
    """Thresholded |J_vv| graph over buses: grid edges plus two-hop pairs."""

    nodes: tuple[str, ...]
    edges: frozenset  # canonical (a, b) pairs, a < b
    threshold: float

    def neighbors(self) -> dict[str, set]:
        return _adjacency(self.nodes, self.edges)


def _adjacency(nodes, edges) -> dict[str, set]:
    adj: dict[str, set] = {b: set() for b in nodes}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    return adj


def _pairs(mask: np.ndarray):
    """Index pairs (i, j), i < j, where the upper triangle of ``mask`` is set."""
    rows, cols = np.nonzero(np.triu(mask, 1))
    return zip(rows.tolist(), cols.tolist())


@dataclass(frozen=True)
class TopologyEstimate:
    edges: frozenset
    node_class: Mapping[str, str]
    algorithm: str
    thresholds: Mapping[str, float]

    def __post_init__(self):
        for a, b in self.edges:
            if a == b:
                raise ValidationError("estimate contains a self-loop")


def build_hybrid(conc: ConcentrationMatrix, tau1: float) -> HybridGraph:
    if not tau1 > 0:
        raise ValidationError("tau1 must be positive")
    order = conc.bus_order
    edges = frozenset(_edge_key(order[i], order[j]) for i, j in _pairs(np.abs(conc.j_vv) > tau1))
    return HybridGraph(nodes=order, edges=edges, threshold=float(tau1))


def learn_neighborhood(conc: ConcentrationMatrix, tau1: float) -> TopologyEstimate:
    """Neighborhood-search topology learning.

    Pass one marks a hybrid edge as a true non-leaf edge when a witness
    pair exists: two common hybrid neighbors that are themselves not
    hybrid-adjacent. Pass two attaches each remaining node j to a marked
    node i when the non-leaf neighbors of i (in the recovered skeleton)
    coincide with the non-leaf hybrid neighbors of j other than i. Nodes
    that fail both passes stay Unresolved.
    """
    hybrid = build_hybrid(conc, tau1)
    adj = hybrid.neighbors()
    edges = tuple(hybrid.edges)
    index = {b: k for k, b in enumerate(hybrid.nodes)}
    ends = np.array([(index[a], index[b]) for a, b in edges], dtype=np.intp).reshape(-1, 2)
    adjacent = np.zeros((len(index), len(index)), dtype=bool)
    adjacent[ends[:, 0], ends[:, 1]] = adjacent[ends[:, 1], ends[:, 0]] = True
    # Per edge: its common neighbours, and twice the edges among them. The
    # float32 product is exact for counts below 2**24.
    common = adjacent[ends[:, 0]] & adjacent[ends[:, 1]]
    size = common.sum(axis=1)
    weights = common.astype(np.float32)
    links = ((weights @ adjacent.astype(np.float32)) * weights).sum(axis=1)
    witnessed = (links < size * (size - 1)).tolist()
    recovered = {edge for edge, found in zip(edges, witnessed) if found}
    non_leaf = {b for edge in recovered for b in edge}

    node_class = {b: (NON_LEAF if b in non_leaf else UNRESOLVED) for b in hybrid.nodes}
    skeleton_adj = _adjacency(hybrid.nodes, recovered)

    # Leaf attachment is only sound with at least three non-leaf nodes.
    if len(non_leaf) >= 3:
        for j in sorted(set(hybrid.nodes) - non_leaf):
            hybrid_non_leaf = {k for k in adj[j] if k in non_leaf}
            for i in sorted(hybrid_non_leaf):
                if skeleton_adj[i] == hybrid_non_leaf - {i}:
                    recovered.add(_edge_key(i, j))
                    node_class[j] = LEAF
    return TopologyEstimate(
        edges=frozenset(recovered),
        node_class=node_class,
        algorithm="neighborhood",
        thresholds={"tau1": float(tau1)},
    )


def learn_sign_rule(conc: ConcentrationMatrix, tau2: float) -> TopologyEstimate:
    """Sign-rule topology learning: keep (ij) iff J_vv + J_tt < -tau2."""
    if not tau2 > 0:
        raise ValidationError("tau2 must be positive")
    order = conc.bus_order
    edges = frozenset(_edge_key(order[i], order[j]) for i, j in _pairs(conc.sign_sum() < -tau2))
    node_class = {b: UNRESOLVED for b in order}
    return TopologyEstimate(
        edges=edges,
        node_class=node_class,
        algorithm="sign",
        thresholds={"tau2": float(tau2)},
    )


def score(estimate: TopologyEstimate, truth: GridGraph) -> float:
    """Error ratio: (false edges + missed edges) / number of true edges.

    True edges are the lines between non-reference buses; reference-
    incident lines are unobservable and excluded from the denominator.
    """
    if set(estimate.node_class) != set(truth.non_reference):
        raise ValidationError("estimate and grid cover different bus sets")
    true_edges = truth.scored_edges()
    if not true_edges:
        raise ValidationError("grid has no scorable (non-reference) edges")
    predicted = set(estimate.edges)
    false_pos = len(predicted - true_edges)
    false_neg = len(true_edges - predicted)
    return (false_pos + false_neg) / len(true_edges)


def threshold_by_gap(values: np.ndarray) -> float:
    """Data-only threshold default: the largest relative gap in the sorted
    magnitude curve, returned as the geometric mean of the two magnitudes
    flanking the gap."""
    mags = np.sort(np.abs(np.asarray(values, dtype=float)))[::-1]
    mags = mags[mags > 0]
    if len(mags) < 2:
        raise ValidationError("need at least two positive magnitudes")
    ratios = mags[:-1] / mags[1:]
    k = int(np.argmax(ratios))
    return float(np.sqrt(mags[k] * mags[k + 1]))


def export_estimate(estimate: TopologyEstimate, path, error: float | None = None) -> None:
    payload = {
        "algorithm": estimate.algorithm,
        "edges": [list(edge) for edge in sorted(estimate.edges)],
        "node_class": dict(sorted(estimate.node_class.items())),
        "thresholds": dict(estimate.thresholds),
        "error": error,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
