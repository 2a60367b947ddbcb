"""Grid graph model, admittances, and reduced weighted Laplacians.

A distribution grid is an undirected connected graph of buses joined by
lines with per-unit impedance r + i*x. One bus is the reference (the
substation): voltages at the remaining N buses are measured relative to
it, and all matrices in the package are indexed by the N non-reference
buses in a fixed order.

All types here are immutable after construction and safe to share across
concurrent tasks.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Literal, Mapping

import numpy as np

from .errors import ValidationError

__all__ = [
    "Line",
    "LineAdmittance",
    "GridGraph",
    "LaplacianPair",
    "StructureReport",
    "admittance",
    "reduced_laplacians",
    "structure_report",
    "apply_line_event",
    "load_grid",
    "save_grid",
    "grid_from_dict",
]


def _edge_key(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a <= b else (b, a)


def _distances(adj: Mapping[str, Iterable], src: str, limit: float = math.inf) -> dict[str, int]:
    """Hop distances from ``src`` by breadth-first search, up to ``limit`` hops."""
    dist = {src: 0}
    queue = deque([src])
    while queue:
        u = queue.popleft()
        if dist[u] >= limit:
            continue
        for w in adj[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


@dataclass(frozen=True)
class Line:
    """Undirected line between buses ``a`` and ``b`` with impedance r + i*x."""

    a: str
    b: str
    r: float
    x: float

    def __post_init__(self):
        if self.a == self.b:
            raise ValidationError(f"self-loop on bus {self.a!r}")
        if not (math.isfinite(self.r) and math.isfinite(self.x)):
            raise ValidationError(f"line ({self.a},{self.b}): non-finite impedance")
        if self.r < 0:
            raise ValidationError(f"line ({self.a},{self.b}): negative resistance")
        if self.r * self.r + self.x * self.x <= 0:
            raise ValidationError(f"line ({self.a},{self.b}): zero impedance")

    @property
    def key(self) -> tuple[str, str]:
        return _edge_key(self.a, self.b)


@dataclass(frozen=True)
class LineAdmittance:
    """Conductance/susceptance pair with g + i*beta = 1/(r - i*x)."""

    g: float
    beta: float


def admittance(r: float, x: float) -> LineAdmittance:
    """Admittance of a line with impedance r + i*x.

    Expanding 1/(r - i*x) gives g = r/(r^2+x^2) and beta = x/(r^2+x^2).
    """
    denom = r * r + x * x
    if denom <= 0:
        raise ValidationError("zero-impedance line has no admittance")
    return LineAdmittance(g=r / denom, beta=x / denom)


@dataclass(frozen=True)
class GridGraph:
    """Validated bus/line graph with one designated reference bus.

    ``buses`` keeps the construction order; matrices produced from this
    grid use that order with the reference bus removed.
    """

    buses: tuple[str, ...]
    reference: str
    lines: tuple[Line, ...]

    def __post_init__(self):
        if len(self.buses) < 2:
            raise ValidationError("grid needs at least two buses")
        if len(set(self.buses)) != len(self.buses):
            raise ValidationError("duplicate bus identifiers")
        if self.reference not in self.buses:
            raise ValidationError(f"reference bus {self.reference!r} not in bus list")
        bus_set = set(self.buses)
        seen = set()
        for line in self.lines:
            if line.a not in bus_set or line.b not in bus_set:
                raise ValidationError(f"line ({line.a},{line.b}) references unknown bus")
            if line.key in seen:
                raise ValidationError(f"duplicate line ({line.a},{line.b})")
            seen.add(line.key)
        if len(_distances(self.adjacency, self.buses[0])) != len(self.buses):
            raise ValidationError("grid graph is not connected")

    @cached_property
    def non_reference(self) -> tuple[str, ...]:
        return tuple(b for b in self.buses if b != self.reference)

    @cached_property
    def adjacency(self) -> Mapping[str, Mapping[str, Line]]:
        adj: dict[str, dict[str, Line]] = {b: {} for b in self.buses}
        for line in self.lines:
            adj[line.a][line.b] = line
            adj[line.b][line.a] = line
        return adj

    @cached_property
    def line_map(self) -> Mapping[tuple[str, str], Line]:
        return {line.key: line for line in self.lines}

    def has_line(self, a: str, b: str) -> bool:
        return _edge_key(a, b) in self.line_map

    def degree(self, bus: str) -> int:
        return len(self.adjacency[bus])

    @property
    def n(self) -> int:
        """Number of non-reference buses."""
        return len(self.buses) - 1

    def scored_edges(self) -> frozenset[tuple[str, str]]:
        """Edges between non-reference buses: the recoverable edge set.

        Lines incident to the reference bus are unobservable in relative
        voltage data and are excluded from the error-metric denominator.
        """
        return frozenset(
            line.key
            for line in self.lines
            if self.reference not in (line.a, line.b)
        )

    def to_dict(self) -> dict:
        return {
            "buses": list(self.buses),
            "reference": self.reference,
            "lines": [
                {"from": line.a, "to": line.b, "r": line.r, "x": line.x}
                for line in self.lines
            ],
        }

    @cached_property
    def sha256(self) -> str:
        """Hash of the canonical grid description, used in sample metadata."""
        payload = self.to_dict()
        payload["lines"] = sorted(
            payload["lines"], key=lambda d: (min(d["from"], d["to"]), max(d["from"], d["to"]))
        )
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


@dataclass(frozen=True)
class LaplacianPair:
    """Reduced conductance/susceptance Laplacians and their composite.

    ``h_g`` and ``h_beta`` are the grid Laplacians weighted by line
    conductance and susceptance with the reference row/column removed.
    ``composite`` is the 2N x 2N block matrix [[H_g, H_b], [H_b, -H_g]]
    that maps stacked injections (p, q) to stacked voltages (v, theta)
    through its inverse.
    """

    h_g: np.ndarray
    h_beta: np.ndarray
    composite: np.ndarray
    bus_order: tuple[str, ...]

    def __post_init__(self):
        for arr in (self.h_g, self.h_beta, self.composite):
            arr.setflags(write=False)

    @property
    def n(self) -> int:
        return len(self.bus_order)

    @cached_property
    def abs_spectrum(self) -> np.ndarray:
        """Read-only ``|eigenvalues|`` of ``composite``. H is indefinite
        (similar to -H), so its conditioning and its largest eigenvalue are
        read from absolute values."""
        values = np.abs(np.linalg.eigvalsh(self.composite))
        values.setflags(write=False)
        return values


def reduced_laplacians(grid: GridGraph) -> LaplacianPair:
    """Build the reduced weighted Laplacians of a grid.

    Off-diagonal (i, j) is -g_ij (-beta_ij) when line (ij) exists and both
    buses are non-reference; the diagonal accumulates the weights of all
    incident lines, including a line to the reference bus.
    """
    order = grid.non_reference
    idx = {b: k for k, b in enumerate(order)}
    n = len(order)
    h_g = np.zeros((n, n))
    h_beta = np.zeros((n, n))
    for line in grid.lines:
        adm = admittance(line.r, line.x)
        ia = idx.get(line.a)
        ib = idx.get(line.b)
        if ia is not None:
            h_g[ia, ia] += adm.g
            h_beta[ia, ia] += adm.beta
        if ib is not None:
            h_g[ib, ib] += adm.g
            h_beta[ib, ib] += adm.beta
        if ia is not None and ib is not None:
            h_g[ia, ib] -= adm.g
            h_g[ib, ia] -= adm.g
            h_beta[ia, ib] -= adm.beta
            h_beta[ib, ia] -= adm.beta
    composite = np.block([[h_g, h_beta], [h_beta, -h_g]])
    return LaplacianPair(h_g=h_g, h_beta=h_beta, composite=composite, bus_order=order)


@dataclass(frozen=True)
class StructureReport:
    """Structural ground truth used by the learning guarantees.

    ``min_cycle_length`` (girth) and the leaf partition are computed on
    the full graph, reference included. ``two_hop`` maps each
    non-reference bus to the buses at shortest-path distance exactly two
    in the subgraph induced on non-reference buses; paths through the
    reference bus do not show up in relative-voltage statistics, so they
    are excluded on purpose.
    """

    min_cycle_length: float
    leaves: frozenset[str]
    non_leaves: frozenset[str]
    two_hop: Mapping[str, frozenset[str]]

    @property
    def is_radial(self) -> bool:
        return math.isinf(self.min_cycle_length)


def _girth(adj: Mapping[str, Iterable], nodes) -> float:
    """Girth by breadth-first search from every node, O(N*E)."""
    best = math.inf
    for src in nodes:
        dist = {src: 0}
        parent = {src: None}
        queue = deque([src])
        while queue:
            u = queue.popleft()
            if 2 * dist[u] >= best - 1:
                continue
            for w in adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    queue.append(w)
                elif parent[u] != w and parent[w] != u:
                    best = min(best, dist[u] + dist[w] + 1)
    return best


def structure_report(grid: GridGraph) -> StructureReport:
    leaves = frozenset(b for b in grid.buses if grid.degree(b) == 1)
    non_leaves = frozenset(grid.buses) - leaves
    adj_sub = {b: grid.adjacency[b].keys() - {grid.reference} for b in grid.non_reference}
    two_hop = {
        src: frozenset(b for b, d in _distances(adj_sub, src, limit=2).items() if d == 2)
        for src in grid.non_reference
    }
    return StructureReport(
        min_cycle_length=_girth(grid.adjacency, grid.buses),
        leaves=leaves,
        non_leaves=non_leaves,
        two_hop=two_hop,
    )


def apply_line_event(
    grid: GridGraph,
    a: str,
    b: str,
    kind: Literal["add", "remove"],
    r: float | None = None,
    x: float | None = None,
) -> GridGraph:
    """Return a new grid with a single line added or removed.

    Removal must not disconnect the grid; the GridGraph constructor
    enforces connectivity on the result.
    """
    if a not in grid.buses or b not in grid.buses:
        raise ValidationError(f"event endpoints ({a},{b}) must be existing buses")
    key = _edge_key(a, b)
    if kind == "add":
        if key in grid.line_map:
            raise ValidationError(f"line ({a},{b}) already present")
        if r is None or x is None:
            raise ValidationError("line addition requires r and x")
        lines = grid.lines + (Line(a=key[0], b=key[1], r=float(r), x=float(x)),)
    elif kind == "remove":
        if key not in grid.line_map:
            raise ValidationError(f"line ({a},{b}) not present")
        lines = tuple(line for line in grid.lines if line.key != key)
    else:
        raise ValidationError(f"unknown event kind {kind!r}")
    try:
        return GridGraph(buses=grid.buses, reference=grid.reference, lines=lines)
    except ValidationError as exc:
        raise ValidationError(f"line event ({kind} {a},{b}) invalid: {exc}") from exc


def grid_from_dict(payload: dict) -> GridGraph:
    try:
        buses = tuple(str(b) for b in payload["buses"])
        reference = str(payload["reference"])
        lines = tuple(
            Line(
                *_edge_key(str(entry["from"]), str(entry["to"])),
                r=float(entry["r"]),
                x=float(entry["x"]),
            )
            for entry in payload["lines"]
        )
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed grid description: {exc!r}") from exc
    return GridGraph(buses=buses, reference=reference, lines=lines)


def load_grid(path) -> GridGraph:
    """Load a grid from its JSON file format."""
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValidationError(f"cannot parse grid file {path}: {exc}") from exc
    return grid_from_dict(payload)


def save_grid(grid: GridGraph, path) -> None:
    with open(path, "w") as fh:
        json.dump(grid.to_dict(), fh, indent=2)
        fh.write("\n")
