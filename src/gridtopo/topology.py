"""Topology learning from the voltage concentration matrix.

Two algorithms recover the grid edge set from the estimated concentration
matrix. Each thresholds one N x N statistic into a boolean mask over bus
indices and reads its edges from that mask. For neighborhood search the
mask is the "hybrid" graph, the off-diagonal entries with |J_vv| above
tau1; by the two-hop support property it is the true grid plus edges
between two-hop neighbors.

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
    "TopologyEstimate",
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
class TopologyEstimate:
    edges: frozenset
    node_class: Mapping[str, str]
    algorithm: str
    thresholds: Mapping[str, float]

    def __post_init__(self):
        for a, b in self.edges:
            if a == b:
                raise ValidationError("estimate contains a self-loop")


def _edges(order, mask: np.ndarray) -> frozenset:
    """Canonical bus-name pairs (a, b), a < b, where the upper triangle of
    the N x N ``mask`` over ``order`` is set."""
    rows, cols = np.nonzero(np.triu(mask, 1))
    return frozenset(_edge_key(order[i], order[j]) for i, j in zip(rows.tolist(), cols.tolist()))


def learn_neighborhood(conc: ConcentrationMatrix, tau1: float) -> TopologyEstimate:
    """Neighborhood-search topology learning.

    Pass one marks a hybrid edge as a true non-leaf edge when a witness
    pair exists: two common hybrid neighbors that are themselves not
    hybrid-adjacent. Pass two attaches each remaining node j to a marked
    node i when the non-leaf neighbors of i (in the recovered skeleton)
    coincide with the non-leaf hybrid neighbors of j other than i. Nodes
    that fail both passes stay Unresolved.
    """
    if not tau1 > 0:
        raise ValidationError("tau1 must be positive")
    hybrid = np.abs(conc.j_vv) > tau1
    np.fill_diagonal(hybrid, False)
    # Per hybrid edge: its common neighbours, and twice the edges among
    # them. The float32 product is exact for counts below 2**24.
    rows, cols = np.nonzero(np.triu(hybrid))
    common = hybrid[rows] & hybrid[cols]
    size = common.sum(axis=1)
    weights = common.astype(np.float32)
    links = ((weights @ hybrid.astype(np.float32)) * weights).sum(axis=1)
    witnessed = links < size * (size - 1)
    skeleton = np.zeros_like(hybrid)
    skeleton[rows[witnessed], cols[witnessed]] = True
    skeleton |= skeleton.T
    non_leaf = skeleton.any(axis=1)

    # Leaf attachment is only sound with at least three non-leaf nodes.
    # Candidates are the pairs (unresolved j, non-leaf hybrid neighbour i).
    leaf = np.zeros_like(non_leaf)
    recovered = skeleton.copy()
    if non_leaf.sum() >= 3:
        candidates = hybrid & non_leaf & ~non_leaf[:, None]
        j, i = np.nonzero(candidates)
        others = candidates[j]
        others[np.arange(len(j)), i] = False
        attach = (skeleton[i] == others).all(axis=1)
        j, i = j[attach], i[attach]
        recovered[j, i] = recovered[i, j] = True
        leaf[j] = True
    labels = np.select([leaf, non_leaf], [LEAF, NON_LEAF], UNRESOLVED).tolist()
    return TopologyEstimate(
        edges=_edges(conc.bus_order, recovered),
        node_class=dict(zip(conc.bus_order, labels)),
        algorithm="neighborhood",
        thresholds={"tau1": float(tau1)},
    )


def learn_sign_rule(conc: ConcentrationMatrix, tau2: float) -> TopologyEstimate:
    """Sign-rule topology learning: keep (ij) iff J_vv + J_tt < -tau2."""
    if not tau2 > 0:
        raise ValidationError("tau2 must be positive")
    return TopologyEstimate(
        edges=_edges(conc.bus_order, conc.sign_sum() < -tau2),
        node_class=dict.fromkeys(conc.bus_order, UNRESOLVED),
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
