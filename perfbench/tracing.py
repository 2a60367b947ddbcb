"""Spans around the calls the benchmark makes into each gridtopo module.

Nothing inside ``src/`` is instrumented. While a :class:`Tracer` is
active it rebinds the public gridtopo names that ``gridtopo.sweep``,
``gridtopo.cli`` and the benchmark's own ``workloads`` module import to
wrapped functions, so every call those modules make is timed. Calls inside
other gridtopo modules (for example the eigen-decomposition
``sample_voltages`` runs) stay inside the caller's span.

A span records its layer, the function, start and end, its parent span
and the request it belongs to. A layer's self time is its spans' CPU time minus
the CPU time of their child spans; spans nest only under the benchmark's
set-up and request spans and the ``sweep`` and ``cli`` entry points.
"""

from __future__ import annotations

import functools
import importlib
import os
import resource
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass

# Rows of the sampler's random stream are generated in whole blocks of this
# size (the reproducibility contract in gridtopo.sampler).
SAMPLER_BLOCK = 4096

# Public name -> (defining module, layer, metric). The metric names the
# request-scope per-layer figure the call's self time is added to.
FUNCTIONS = {
    "sample_voltages": ("sampler", "sampler", "busy_s"),
    "add_noise": ("sampler", "sampler", "busy_s"),
    "analytic_voltage_covariance": ("sampler", "sampler", "busy_s"),
    "make_correlated_stats": ("sampler", "sampler", "busy_s"),
    "export_samples": ("sampler", "sampler", "csv_write_s"),
    "import_samples": ("sampler", "sampler", "csv_read_s"),
    "sample_covariance": ("estimator", "estimator", "covariance_s"),
    "default_ridge": ("estimator", "estimator", "inverse_s"),
    "direct_concentration": ("estimator", "estimator", "inverse_s"),
    "analytic_concentration": ("estimator", "estimator", "analytic_request_s"),
    "gamma_thresholds": ("estimator", "estimator", "analytic_request_s"),
    "export_concentration": ("estimator", "estimator", "csv_s"),
    "import_concentration": ("estimator", "estimator", "csv_s"),
    "graphical_lasso": ("glasso", "glasso", "busy_s"),
    "default_lambda": ("glasso", "glasso", "busy_s"),
    "load_grid": ("grid", "grid", "busy_s"),
    "save_grid": ("grid", "grid", "busy_s"),
    "reduced_laplacians": ("grid", "grid", "busy_s"),
    "structure_report": ("grid", "grid", "busy_s"),
    "apply_line_event": ("grid", "grid", "busy_s"),
    "generate_grid": ("generate", "generate", "busy_s"),
    "learn_neighborhood": ("topology", "topology", "learn_s"),
    "learn_sign_rule": ("topology", "topology", "learn_s"),
    "threshold_by_gap": ("topology", "topology", "learn_s"),
    "score": ("topology", "topology", "score_s"),
    "export_estimate": ("topology", "topology", "export_s"),
    "detect_change": ("detect", "detect", "busy_s"),
    "diagonal_deltas": ("detect", "detect", "busy_s"),
    "export_report": ("detect", "detect", "busy_s"),
    "run_sweep": ("sweep", "sweep", "self_s"),
    "main": ("cli", "cli", "self_s"),
}

# Set-up work is reported per set-up under its own names, so that work moved
# between set-up and requests shows on both sides.
SETUP_METRICS = {
    "generate": "generate.busy_s",
    "grid": "grid.setup_s",
    "estimator": "estimator.analytic_s",
}

# Modules whose bound names are rebound while tracing: the two gridtopo
# harness modules and the benchmark's own workloads.
TRACED_MODULES = ("gridtopo.sweep", "gridtopo.cli", "workloads")

# Per-request self-time figures: one per (layer, metric) above, plus the
# benchmark's own glue inside the request span.
REQUEST_TIME_METRICS = tuple(
    dict.fromkeys(f"{layer}.{metric}" for _, layer, metric in FUNCTIONS.values() if layer != "generate")
) + ("bench.self_s",)

REQUEST_COUNT_METRICS = (
    "sampler.calls",
    "sampler.rows",
    "sampler.csv_bytes",
    "estimator.failed",
    "glasso.calls",
    "glasso.outer_iterations",
    "glasso.failed",
    "detect.calls",
)


def cpu_time() -> float:
    """CPU time of this process (user plus system, all threads) plus that
    of its child processes that have been waited for."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


@dataclass
class Span:
    """Start and end on two clocks: wall (perf_counter) and CPU time
    (:func:`cpu_time`), which excludes time the host withholds the CPU.
    Self time is taken on the CPU clock."""

    sid: int
    parent: int | None
    request: int | None
    scope: str
    layer: str
    name: str
    start: float
    cpu_start: float
    end: float = 0.0
    cpu_end: float = 0.0
    child_cpu: float = 0.0

    @property
    def cpu_s(self) -> float:
        return self.cpu_end - self.cpu_start

    @property
    def self_s(self) -> float:
        return self.cpu_s - self.child_cpu


class _TracedModule:
    """Stands in for the ``glasso`` module object the harness modules bind."""

    def __init__(self, module, traced: dict):
        self._module = module
        self._traced = traced

    def __getattr__(self, name):
        if name in FUNCTIONS and FUNCTIONS[name][0] == "glasso":
            return self._traced[name]
        return getattr(self._module, name)


class Tracer:
    """In-memory spans and counters; one per benchmark run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[Span] = []
        self.traced = {
            name: self._wrap(name, getattr(importlib.import_module(f"gridtopo.{module}"), name))
            for name, (module, _, _) in FUNCTIONS.items()
        }

    @contextmanager
    def span(self, scope: str, layer: str, name: str, request: int | None = None):
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            request = parent.request
        span = Span(
            sid=len(self.spans),
            parent=parent.sid if parent else None,
            request=request,
            scope=scope if parent is None else parent.scope,
            layer=layer,
            name=name,
            start=time.perf_counter(),
            cpu_start=cpu_time(),
        )
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.cpu_end = cpu_time()
            span.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                parent.child_cpu += span.cpu_s

    def _count(self, name: str, value: float) -> None:
        if self._stack and self._stack[0].scope == "request":
            self.counts[name] += value

    def _wrap(self, name, fn):
        _, layer, _ = FUNCTIONS[name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span("request", layer, name):
                try:
                    result = fn(*args, **kwargs)
                except Exception:
                    self._count(f"{layer}.failed", 1)
                    raise
            self._after(name, result, args, kwargs)
            return result

        return traced

    def _after(self, name, result, args, kwargs) -> None:
        if name == "sample_voltages":
            first = result.offset // SAMPLER_BLOCK
            last = (result.offset + result.n - 1) // SAMPLER_BLOCK
            self._count("sampler.calls", 1)
            self._count("sampler.rows", result.n)
            self._count("sampler.rows_generated", (last - first + 1) * SAMPLER_BLOCK)
        elif name == "export_samples":
            path = args[1] if len(args) > 1 else kwargs["path"]
            self._count("sampler.csv_bytes", os.path.getsize(path))
        elif name == "graphical_lasso":
            self._count("glasso.calls", 1)
            self._count("glasso.outer_iterations", result.meta["iterations"])
        elif name == "detect_change":
            self._count("detect.calls", 1)

    @contextmanager
    def active(self):
        """Rebind the traced functions in TRACED_MODULES; restore on exit."""
        saved = []
        for module_name in TRACED_MODULES:
            module = importlib.import_module(module_name)
            for name, (home, _, _) in FUNCTIONS.items():
                if hasattr(module, name) and module_name != f"gridtopo.{home}":
                    saved.append((module, name, getattr(module, name)))
                    setattr(module, name, self.traced[name])
            if hasattr(module, "glasso"):
                saved.append((module, "glasso", module.glasso))
                module.glasso = _TracedModule(module.glasso, self.traced)
        try:
            yield
        finally:
            for module, name, original in reversed(saved):
                setattr(module, name, original)

    def request_metrics(self, requests: int) -> dict[str, float]:
        """Per-request self times and counts over the traced requests."""
        totals = defaultdict(float)
        wall = cpu = 0.0
        for span in self.spans:
            if span.scope != "request":
                continue
            if span.parent is None:
                wall += span.end - span.start
                cpu += span.cpu_s
                totals["bench.self_s"] += span.self_s
            else:
                totals[f"{span.layer}.{FUNCTIONS[span.name][2]}"] += span.self_s
        per = max(requests, 1)
        metrics = {name: totals[name] / per for name in REQUEST_TIME_METRICS}
        metrics.update({name: self.counts[name] / per for name in REQUEST_COUNT_METRICS})
        generated = self.counts["sampler.rows_generated"]
        metrics["sampler.draw_efficiency"] = self.counts["sampler.rows"] / generated if generated else 0.0
        metrics["request.wall_s"] = wall / per
        metrics["request.cpu_s"] = cpu / per
        metrics["trace.accounted_frac"] = (cpu - totals["bench.self_s"]) / cpu if cpu else 0.0
        return metrics

    def setup_metrics(self, setups: int) -> dict[str, float]:
        """Per-set-up time of the layers set-up calls directly."""
        totals = dict.fromkeys(SETUP_METRICS.values(), 0.0)
        for span in self.spans:
            if span.scope == "setup" and span.layer in SETUP_METRICS:
                totals[SETUP_METRICS[span.layer]] += span.self_s
        return {name: value / max(setups, 1) for name, value in totals.items()}

    def records(self) -> list[dict]:
        return [{**asdict(s), "cpu_s": s.cpu_s, "self_cpu_s": s.self_s} for s in self.spans]
