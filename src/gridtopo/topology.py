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

When injection statistics are additionally available, the composite
Laplacian (and with it every line's conductance and susceptance) can be
reconstructed from the voltage covariance by a symmetric square-root
sandwich; see :func:`recover_parameters` for its sign caveat.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import NumericalError, ValidationError
from .estimator import NUMERIC_ZERO_FLOOR, ConcentrationMatrix, _spd_inverse, _symmetric_check
from .grid import GridGraph, _edge_key

__all__ = [
    "HybridGraph",
    "TopologyEstimate",
    "RecoveredParameters",
    "build_hybrid",
    "learn_neighborhood",
    "learn_sign_rule",
    "recover_parameters",
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


@dataclass(frozen=True)
class RecoveredParameters:
    """Composite Laplacian reconstruction and per-line admittances.

    ``residual`` is the relative Frobenius distance of ``h_composite``
    from the structured [[H_g, H_b], [H_b, -H_g]] form. The principal
    square root used in the reconstruction discards eigenvalue signs, and
    the true composite always carries negative eigenvalues, so a large
    residual flags that the sign structure was not recoverable; per-line
    values are only meaningful when the residual is small.
    """

    h_composite: np.ndarray
    lines: Mapping[tuple, tuple]
    residual: float
    bus_order: tuple[str, ...] = ()

    def __post_init__(self):
        self.h_composite.setflags(write=False)


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


def _principal_sqrt_and_inv(matrix: np.ndarray, name: str):
    w, v = np.linalg.eigh(matrix)
    if w[0] <= 0:
        raise ValidationError(f"{name} must be positive definite")
    return v * np.sqrt(w) @ v.T, v * (1.0 / np.sqrt(w)) @ v.T


def recover_parameters(
    voltage_cov: np.ndarray,
    injection_cov: np.ndarray,
    bus_order: tuple[str, ...] | None = None,
) -> RecoveredParameters:
    """Reconstruct the composite Laplacian from voltage and injection
    covariances via the principal-square-root sandwich

        H = S^(1/2) sqrt( S^(-1/2) Sigma_vt^(-1) S^(-1/2) ) S^(1/2),

    S the injection covariance. All roots are principal (positive
    semidefinite); see the class docstring for the resulting sign caveat.
    A voltage covariance that is not positive definite is a ValidationError;
    one that breaks the conditioning rule of the sampler a NumericalError.
    """
    sigma_v = _symmetric_check(voltage_cov, "voltage covariance")
    sigma_s = _symmetric_check(injection_cov, "injection covariance")
    if sigma_v.shape != sigma_s.shape:
        raise ValidationError("covariances must share dimensions")
    w = np.linalg.eigvalsh(sigma_v)
    if w[0] <= 0:
        raise ValidationError("voltage covariance must be positive definite")
    j = _spd_inverse(sigma_v, "voltage covariance numerically singular", w)
    root, inv_root = _principal_sqrt_and_inv(sigma_s, "injection covariance")
    inner = inv_root @ j @ inv_root
    inner = (inner + inner.T) / 2
    wi, vi = np.linalg.eigh(inner)
    if wi[0] < -1e-8 * max(wi[-1], 1.0):
        raise NumericalError("inner matrix has a significantly negative eigenvalue")
    sqrt_inner = vi * np.sqrt(np.clip(wi, 0.0, None)) @ vi.T
    h = root @ sqrt_inner @ root
    h = (h + h.T) / 2

    n = h.shape[0] // 2
    p, q = h[:n, :n], h[:n, n:]
    rr, s = h[n:, :n], h[n:, n:]
    h_g = ((p + p.T) / 2 - (s + s.T) / 2) / 2
    h_b = (q + q.T + rr + rr.T) / 4
    structured = np.block([[h_g, h_b], [h_b, -h_g]])
    scale = float(np.linalg.norm(h)) or 1.0
    residual = float(np.linalg.norm(h - structured)) / scale

    if bus_order is None:
        bus_order = tuple(str(i) for i in range(n))
    floor = NUMERIC_ZERO_FLOOR * max(float(np.abs(h).max()), 1e-300)
    lines = {
        _edge_key(bus_order[i], bus_order[jx]): (float(-h_g[i, jx]), float(-h_b[i, jx]))
        for i, jx in _pairs(np.maximum(np.abs(h_g), np.abs(h_b)) > floor)
    }
    return RecoveredParameters(
        h_composite=h, lines=lines, residual=residual, bus_order=tuple(bus_order)
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
