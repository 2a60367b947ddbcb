"""Synthetic test grids: radial feeders and meshed variants with girth control.

The generator mimics the shape of distribution feeders: the reference
(substation) bus hangs off the network through a single feeder line, the
remainder is a random tree, and meshed variants add chords whose induced
cycle length is controlled exactly. Chords are only accepted when the two
endpoints are at tree distance ``min_cycle - 1``, so after the first chord
the girth equals ``min_cycle`` by construction and later chords can only
create cycles at least that long.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .grid import GridGraph, Line, _distances, _edge_key, structure_report

__all__ = ["generate_grid"]

_MAX_TRIES = 200


def _bus_name(i: int, width: int) -> str:
    return f"b{i:0{width}d}"


def _check_range(name: str, bounds: tuple[float, float]) -> None:
    """Reject an impedance range the generators cannot draw from: NaN,
    infinite, reversed or not positive."""
    lo, hi = bounds
    if not 0 < lo <= hi < np.inf:
        raise ValidationError(f"{name} must satisfy 0 < low <= high < inf, got ({lo}, {hi})")


def _random_tree(rng: np.random.Generator, nodes: list[str], chain_bias: float):
    """Random tree edges; chain_bias steers toward long paths over stars."""
    edges = []
    adj = {nodes[0]: set()}
    for k in range(1, len(nodes)):
        if k == 1 or rng.random() < chain_bias:
            parent = nodes[k - 1]
        else:
            parent = nodes[int(rng.integers(0, k))]
        edges.append((parent, nodes[k]))
        adj.setdefault(parent, set()).add(nodes[k])
        adj[nodes[k]] = {parent}
    return edges, adj


def _add_chords(rng, adj, nodes, loops, min_cycle):
    """Pick ``loops`` chords creating cycles of length exactly ``min_cycle``."""
    chords = []
    for _ in range(loops):
        candidates = []
        for u in nodes:
            for w, d in _distances(adj, u, limit=min_cycle - 1).items():
                if d == min_cycle - 1 and u < w:
                    candidates.append((u, w))
        if not candidates:
            return None
        # sorted, so the pick does not depend on set order (string hashing)
        candidates.sort()
        u, w = candidates[int(rng.integers(0, len(candidates)))]
        adj[u].add(w)
        adj[w].add(u)
        chords.append((u, w))
    return chords


def generate_grid(
    kind: str,
    buses: int,
    *,
    loops: int = 0,
    min_cycle: int | None = None,
    seed: int = 0,
    r_range: tuple[float, float] = (0.05, 0.3),
    x_range: tuple[float, float] = (0.05, 0.3),
    min_non_leaves: int = 0,
) -> GridGraph:
    """Generate a grid of the requested kind.

    kind:
        "path"   -- a single feeder line of ``buses`` buses;
        "tree"   -- random radial feeder;
        "meshed" -- random tree plus ``loops`` chords with girth exactly
                    ``min_cycle``.

    ``buses`` counts all buses including the reference. The structure of
    the result is verified against the request (girth, non-leaf count of
    the non-reference subgraph) with bounded retries before giving up.
    """
    if buses < 2:
        raise ValidationError("need at least two buses")
    if kind not in ("path", "tree", "meshed"):
        raise ValidationError(f"unknown grid kind {kind!r}")
    if kind == "meshed":
        if loops < 1 or min_cycle is None or min_cycle < 3:
            raise ValidationError("meshed grids need loops >= 1 and min_cycle >= 3")
        if min_cycle > buses - 1:
            raise ValidationError("min_cycle larger than the non-reference bus count")
    _check_range("r_range", r_range)
    _check_range("x_range", x_range)
    width = max(2, len(str(buses - 1)))
    names = [_bus_name(i, width) for i in range(buses)]
    reference, interior = names[0], names[1:]

    rng = np.random.default_rng(seed)
    for _ in range(_MAX_TRIES):
        if kind == "path":
            edges = list(zip(names[:-1], names[1:]))
        else:
            if len(interior) == 1:
                edges, adj = [], {interior[0]: set()}
            else:
                edges, adj = _random_tree(rng, interior, chain_bias=0.6)
            if kind == "meshed":
                chords = _add_chords(rng, adj, interior, loops, min_cycle)
                if chords is None:
                    continue
                edges += chords
            # single feeder line from the substation
            edges.insert(0, (reference, interior[0]))
        lines = tuple(
            Line(*_edge_key(u, w), r=float(rng.uniform(*r_range)), x=float(rng.uniform(*x_range)))
            for u, w in edges
        )
        grid = GridGraph(buses=tuple(names), reference=reference, lines=lines)
        report = structure_report(grid)
        if kind == "meshed" and report.min_cycle_length != min_cycle:
            continue
        if kind != "meshed" and not report.is_radial:
            continue
        if min_non_leaves and _interior_non_leaves(grid) < min_non_leaves:
            continue
        return grid
    raise ValidationError(
        f"could not generate a {kind} grid with buses={buses}, loops={loops}, "
        f"min_cycle={min_cycle} after {_MAX_TRIES} tries"
    )


def _interior_non_leaves(grid: GridGraph) -> int:
    non_ref = set(grid.non_reference)
    count = 0
    for b in grid.non_reference:
        deg = len(set(grid.adjacency[b]) & non_ref)
        if deg > 1:
            count += 1
    return count
