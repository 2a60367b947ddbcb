"""Single-line change detection from before/after concentration matrices.

The per-bus diagonal combination J_vv(i,i) + J_tt(i,i) depends only on
bus i's incident lines, so a single line addition (removal) moves that
combination strictly up (down) at the two endpoints and nowhere else.
Detection thresholds the per-bus differences: exactly two above-threshold
buses with a consistent sign name the changed edge. Any other terminal
configuration is reported Ambiguous rather than force-paired; events on
a reference-incident line expose only one terminal and therefore land in
Ambiguous by construction.

Injection statistics are assumed unchanged across the event; reports
record that assumption.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import ValidationError
from .estimator import ConcentrationMatrix

__all__ = [
    "ChangeReport",
    "diagonal_deltas",
    "detect_change",
    "export_report",
]

ADDED = "added"
REMOVED = "removed"
NO_CHANGE = "no_change"
AMBIGUOUS = "ambiguous"


@dataclass(frozen=True)
class ChangeReport:
    kind: str
    endpoints: tuple[str, str] | None
    deltas: Mapping[str, float]
    tau3: float
    assumption: str = "injection statistics unchanged across the event"

    def __post_init__(self):
        if self.kind in (ADDED, REMOVED) and self.endpoints is None:
            raise ValidationError("edge events need endpoints")


def diagonal_deltas(
    j_before: ConcentrationMatrix, j_after: ConcentrationMatrix
) -> np.ndarray:
    """Per-bus change (after minus before) of diag(J_vv) + diag(J_tt)."""
    if j_before.bus_order != j_after.bus_order:
        raise ValidationError("before/after matrices use different bus orders")
    before = np.diag(j_before.sign_sum())
    after = np.diag(j_after.sign_sum())
    return after - before


def detect_change(
    j_before: ConcentrationMatrix,
    j_after: ConcentrationMatrix,
    tau3: float,
) -> ChangeReport:
    if not tau3 > 0:
        raise ValidationError("tau3 must be positive")
    deltas = diagonal_deltas(j_before, j_after)
    order = j_before.bus_order
    marked = [b for b, d in zip(order, deltas) if abs(d) > tau3]
    delta_map = {b: float(d) for b, d in zip(order, deltas)}

    if not marked:
        kind, endpoints = NO_CHANGE, None
    elif len(marked) == 2:
        d0, d1 = delta_map[marked[0]], delta_map[marked[1]]
        if d0 > 0 and d1 > 0:
            kind, endpoints = ADDED, tuple(sorted(marked))
        elif d0 < 0 and d1 < 0:
            kind, endpoints = REMOVED, tuple(sorted(marked))
        else:
            kind, endpoints = AMBIGUOUS, None
    else:
        kind, endpoints = AMBIGUOUS, None
    return ChangeReport(kind=kind, endpoints=endpoints, deltas=delta_map, tau3=float(tau3))


def export_report(report: ChangeReport, path) -> None:
    payload = {
        "kind": report.kind,
        "endpoints": list(report.endpoints) if report.endpoints else None,
        "deltas": dict(sorted(report.deltas.items())),
        "tau3": report.tau3,
        "assumption": report.assumption,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
