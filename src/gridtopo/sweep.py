"""Experiment harness: sample-size, threshold, and detection sweeps.

Each sweep cell pins (repetition, sample size) to seeds derived from the
configured base seed, generates linearized-model samples, estimates the
concentration matrix, runs the selected learning algorithms, and scores
against the ground-truth grid. Failures are recorded per row in the
``status`` column instead of aborting the sweep.

Output CSV bodies are deterministic for a fixed configuration except for
the ``runtime_ms`` column, which reports wall-clock of estimation plus
learning for the row. Thresholds default to the half-gamma values from
the analytic concentration matrix of the configured grid ("testing
mode"), matching the practice of tuning thresholds once at large sample
counts and then holding them fixed.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from statistics import mean, stdev

import numpy as np

from . import glasso
from .detect import detect_change, diagonal_deltas
from .errors import GridTopoError, NumericalError, ValidationError
from .estimator import (
    ConcentrationMatrix,
    analytic_concentration,
    default_ridge,
    direct_concentration,
    gamma_thresholds,
    sample_covariance,
)
from .grid import GridGraph, load_grid, reduced_laplacians
from .sampler import (
    InjectionStatistics,
    NoiseStatistics,
    add_noise,
    analytic_voltage_covariance,
    make_correlated_stats,
    sample_voltages,
)
from .topology import learn_neighborhood, learn_sign_rule, score

__all__ = [
    "ExperimentConfig",
    "DetectConfig",
    "SweepResult",
    "run_sweep",
    "threshold_sensitivity",
    "detect_sweep",
    "replay_cell",
    "write_rows_csv",
]

ROW_FIELDS = (
    "sample_size",
    "repetition",
    "seed",
    "algorithm",
    "noise_level",
    "epsilon",
    "error_ratio",
    "runtime_ms",
    "status",
)


class _FromDict:
    """``from_dict`` shared by the sweep configs: payload keys plus the
    overrides that are not None, rejecting keys the config lacks."""

    @classmethod
    def from_dict(cls, payload: dict, **overrides):
        merged = dict(payload)
        merged.update({k: v for k, v in overrides.items() if v is not None})
        unknown = set(merged) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValidationError(f"unknown config keys: {sorted(unknown)}")
        return cls(**merged)


@dataclass
class ExperimentConfig(_FromDict):
    grid: str
    sample_sizes: tuple[int, ...] = (500, 1000, 5000, 10000, 100000)
    repetitions: int = 10
    seed: int = 0
    seeds: tuple[int, ...] | None = None
    sigma: float = 1e-2
    sigma_pq: float = 0.0
    epsilon: float = 0.0
    noise: float = 0.0
    algorithms: tuple[str, ...] = ("neighborhood", "sign")
    estimator: str = "direct"
    lam: float | None = None
    ridge: float | None = None
    tau1: float | None = None
    tau2: float | None = None
    tau_multiplier: float = 1.0
    out: str | None = None

    def __post_init__(self):
        self.sample_sizes = tuple(int(n) for n in self.sample_sizes)
        if any(b <= a for a, b in zip(self.sample_sizes, self.sample_sizes[1:])):
            raise ValidationError("sample sizes must be strictly increasing")
        if not self.sample_sizes:
            raise ValidationError("need at least one sample size")
        if self.repetitions < 1:
            raise ValidationError("repetitions must be >= 1")
        if self.seeds is not None:
            self.seeds = tuple(int(s) for s in self.seeds)
            if len(self.seeds) != self.repetitions:
                raise ValidationError("seeds list must match repetitions")
        if min(self.sigma, self.noise, self.epsilon, self.tau_multiplier) < 0:
            raise ValidationError("scales must be nonnegative")
        if self.estimator not in ("direct", "glasso"):
            raise ValidationError(f"unknown estimator {self.estimator!r}")
        for alg in self.algorithms:
            if alg not in ("neighborhood", "sign"):
                raise ValidationError(f"unknown algorithm {alg!r}")


@dataclass
class DetectConfig(_FromDict):
    before: str
    after: str
    sample_sizes: tuple[int, ...] = (1000, 10000, 100000)
    repetitions: int = 10
    seed: int = 0
    sigma: float = 1e-2
    sigma_pq: float = 0.0
    noise: float = 0.0
    tau3: float | None = None
    out: str | None = None

    def __post_init__(self):
        self.sample_sizes = tuple(int(n) for n in self.sample_sizes)
        if any(b <= a for a, b in zip(self.sample_sizes, self.sample_sizes[1:])):
            raise ValidationError("sample sizes must be strictly increasing")
        if self.repetitions < 1:
            raise ValidationError("repetitions must be >= 1")


@dataclass
class SweepResult:
    rows: list[dict]
    summary: list[dict]
    config: dict = field(default_factory=dict)
    fields: tuple = ROW_FIELDS

    def write(self, out_dir) -> None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_rows_csv(out / "rows.csv", self.fields, self.rows)
        if self.summary:
            write_rows_csv(out / "summary.csv", tuple(self.summary[0]), self.summary)
        meta = {"config": self.config, "written_at": time.strftime("%Y-%m-%dT%H:%M:%S")}
        with open(out / "meta.json", "w") as fh:
            json.dump(meta, fh, indent=2)
            fh.write("\n")


def write_rows_csv(path, fieldnames, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(fieldnames))
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _fmt(row.get(k)) for k in fieldnames})


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))
    return value


def _cell_seed(config_seed: int, rep_seed: int, n_index: int) -> int:
    """Derived sampling seed for a sweep cell. The noise stream of a cell
    always uses the sampling seed plus one, so a recorded row can be
    replayed from its ``seed`` column alone."""
    state = np.random.SeedSequence((config_seed, rep_seed, n_index)).generate_state(1)
    return int(state[0])


def _rep_seed(config: ExperimentConfig, rep: int) -> int:
    return config.seeds[rep] if config.seeds is not None else config.seed + rep


class _SweepContext:
    """Shared, deterministic per-grid quantities of a sweep."""

    def __init__(self, grid: GridGraph, config: ExperimentConfig):
        self.grid = grid
        self.lap = reduced_laplacians(grid)
        base = InjectionStatistics.uniform(
            grid.n, variance=config.sigma, sigma_pq=config.sigma_pq
        )
        self.stats = (
            make_correlated_stats(grid, base, config.epsilon) if config.epsilon else base
        )
        analytic = analytic_concentration(self.lap, base)
        gamma1, gamma2 = gamma_thresholds(analytic)
        self.tau1 = (config.tau1 if config.tau1 is not None else gamma1 / 2)
        self.tau2 = (config.tau2 if config.tau2 is not None else gamma2 / 2)
        self.tau1 *= config.tau_multiplier
        self.tau2 *= config.tau_multiplier
        self.noise_stats = None
        if config.noise > 0:
            signal_var = np.diag(analytic_voltage_covariance(self.lap, self.stats))
            self.noise_stats = NoiseStatistics.relative(signal_var, config.noise)

    def estimate(self, config: ExperimentConfig, n: int, sample_seed: int):
        samples = sample_voltages(self.lap, self.stats, n, sample_seed)
        if self.noise_stats is not None:
            samples = add_noise(samples, self.noise_stats, sample_seed + 1)
        cov = sample_covariance(samples)
        if config.estimator == "glasso":
            lam = (
                config.lam
                if config.lam is not None
                else glasso.default_lambda(n, 2 * self.grid.n)
            )
            # The penalty rate presumes standardized variables, and raw
            # voltage covariances are badly scaled for coordinate descent:
            # solve on the correlation matrix, then map the precision back.
            scale = np.sqrt(np.diag(cov))
            if np.any(scale <= 0):
                raise NumericalError("degenerate sample variance")
            corr = cov / np.outer(scale, scale)
            fit = glasso.graphical_lasso(corr, lam, bus_order=self.lap.bus_order)
            j = fit.j / np.outer(scale, scale)
            return ConcentrationMatrix(
                j=j,
                bus_order=self.lap.bus_order,
                provenance="graphical_lasso",
                meta={**fit.meta, "standardized": True},
            )
        ridge = config.ridge if config.ridge is not None else default_ridge(cov, n)
        return direct_concentration(cov, ridge, bus_order=self.lap.bus_order)

    def learn(self, algorithm: str, conc: ConcentrationMatrix):
        if algorithm == "neighborhood":
            return learn_neighborhood(conc, self.tau1)
        return learn_sign_rule(conc, self.tau2)


def run_sweep(config: ExperimentConfig) -> SweepResult:
    grid = load_grid(config.grid)
    ctx = _SweepContext(grid, config)
    rows = []
    for n_index, n in enumerate(config.sample_sizes):
        for rep in range(config.repetitions):
            rep_seed = _rep_seed(config, rep)
            sample_seed = _cell_seed(config.seed, rep_seed, n_index)
            t0 = time.perf_counter()
            conc = None
            cell_error = None
            try:
                conc = ctx.estimate(config, n, sample_seed)
            except GridTopoError as exc:
                cell_error = f"{type(exc).__name__}: {exc}"
            est_ms = 1000 * (time.perf_counter() - t0)
            for alg in config.algorithms:
                row = {
                    "sample_size": n,
                    "repetition": rep,
                    "seed": sample_seed,
                    "algorithm": alg,
                    "noise_level": config.noise,
                    "epsilon": config.epsilon,
                }
                if cell_error is not None:
                    row.update(error_ratio=None, runtime_ms=est_ms, status=cell_error)
                else:
                    t1 = time.perf_counter()
                    try:
                        estimate = ctx.learn(alg, conc)
                        err = score(estimate, grid)
                        row.update(
                            error_ratio=err,
                            runtime_ms=est_ms + 1000 * (time.perf_counter() - t1),
                            status="ok",
                        )
                    except GridTopoError as exc:
                        row.update(
                            error_ratio=None,
                            runtime_ms=est_ms + 1000 * (time.perf_counter() - t1),
                            status=f"{type(exc).__name__}: {exc}",
                        )
                rows.append(row)
    rows.sort(key=lambda r: (r["sample_size"], r["repetition"], r["algorithm"]))
    return SweepResult(rows=rows, summary=_summarize(rows), config=asdict(config))


def _summarize(rows) -> list[dict]:
    cells: dict[tuple, list[float]] = {}
    failures: dict[tuple, int] = {}
    for row in rows:
        key = (row["sample_size"], row["algorithm"], row["noise_level"], row["epsilon"])
        if row["status"] == "ok":
            cells.setdefault(key, []).append(row["error_ratio"])
        else:
            failures[key] = failures.get(key, 0) + 1
    summary = []
    for key in sorted(cells.keys() | failures.keys()):
        errors = cells.get(key, [])
        summary.append(
            {
                "sample_size": key[0],
                "algorithm": key[1],
                "noise_level": key[2],
                "epsilon": key[3],
                "mean_error": mean(errors) if errors else None,
                "stddev_error": stdev(errors) if len(errors) > 1 else 0.0,
                "ok_rows": len(errors),
                "failed_rows": failures.get(key, 0),
            }
        )
    return summary


def threshold_sensitivity(
    config: ExperimentConfig, multipliers: tuple[float, ...]
) -> SweepResult:
    """Errors at the largest configured sample size for scaled thresholds."""
    if not multipliers:
        raise ValidationError("need at least one tau multiplier")
    grid = load_grid(config.grid)
    ctx = _SweepContext(grid, config)
    n = config.sample_sizes[-1]
    base_tau1, base_tau2 = ctx.tau1, ctx.tau2
    rows = []
    fields = (
        "tau_multiplier",
        "algorithm",
        "sample_size",
        "repetition",
        "seed",
        "error_ratio",
        "runtime_ms",
        "status",
    )
    for rep in range(config.repetitions):
        rep_seed = _rep_seed(config, rep)
        sample_seed = _cell_seed(config.seed, rep_seed, len(config.sample_sizes) - 1)
        t0 = time.perf_counter()
        conc = ctx.estimate(config, n, sample_seed)
        est_ms = 1000 * (time.perf_counter() - t0)
        for mult in multipliers:
            # A zero multiplier means "keep everything numerically nonzero";
            # clamp to the smallest positive threshold the ops accept.
            ctx.tau1 = max(base_tau1 * mult, 1e-300)
            ctx.tau2 = max(base_tau2 * mult, 1e-300)
            for alg in config.algorithms:
                t1 = time.perf_counter()
                estimate = ctx.learn(alg, conc)
                err = score(estimate, grid)
                rows.append(
                    {
                        "tau_multiplier": mult,
                        "algorithm": alg,
                        "sample_size": n,
                        "repetition": rep,
                        "seed": sample_seed,
                        "error_ratio": err,
                        "runtime_ms": est_ms + 1000 * (time.perf_counter() - t1),
                        "status": "ok",
                    }
                )
    ctx.tau1, ctx.tau2 = base_tau1, base_tau2
    rows.sort(key=lambda r: (r["tau_multiplier"], r["repetition"], r["algorithm"]))
    return SweepResult(rows=rows, summary=[], config=asdict(config), fields=fields)


def _single_line_event(before: GridGraph, after: GridGraph):
    if before.buses != after.buses or before.reference != after.reference:
        raise ValidationError("before/after grids must share buses and reference")
    before_keys = set(before.line_map)
    after_keys = set(after.line_map)
    added = after_keys - before_keys
    removed = before_keys - after_keys
    if len(added) + len(removed) != 1:
        raise ValidationError(
            f"grids must differ by exactly one line (found {len(added)} added, "
            f"{len(removed)} removed)"
        )
    if added:
        return "added", next(iter(added))
    return "removed", next(iter(removed))


def detect_sweep(config: DetectConfig):
    """Detection accuracy over sample sizes, plus the analytic report.

    Per repetition the binary error is 0 only when both the event kind
    and both endpoints are identified exactly.
    """
    before = load_grid(config.before)
    after = load_grid(config.after)
    true_kind, true_edge = _single_line_event(before, after)
    lap_before = reduced_laplacians(before)
    lap_after = reduced_laplacians(after)
    stats = InjectionStatistics.uniform(
        before.n, variance=config.sigma, sigma_pq=config.sigma_pq
    )
    j_before = analytic_concentration(lap_before, stats)
    j_after = analytic_concentration(lap_after, stats)
    deltas = diagonal_deltas(j_before, j_after)
    order = lap_before.bus_order
    endpoint_deltas = [abs(deltas[order.index(b)]) for b in true_edge]
    tau3 = config.tau3 if config.tau3 is not None else min(endpoint_deltas) / 2
    analytic_report = detect_change(j_before, j_after, tau3)

    noise_stats = None
    if config.noise > 0:
        signal_var = np.diag(analytic_voltage_covariance(lap_before, stats))
        noise_stats = NoiseStatistics.relative(signal_var, config.noise)

    rows = []
    for n_index, n in enumerate(config.sample_sizes):
        for rep in range(config.repetitions):
            s_before = _cell_seed(config.seed, config.seed + rep, n_index)
            s_after = _cell_seed(config.seed + 7919, config.seed + rep, n_index)
            t0 = time.perf_counter()
            status = "ok"
            err = None
            report_kind = None
            try:
                est_b = _estimate_direct(lap_before, stats, n, s_before, noise_stats)
                est_a = _estimate_direct(lap_after, stats, n, s_after, noise_stats)
                report = detect_change(est_b, est_a, tau3)
                report_kind = report.kind
                err = int(not (report.kind == true_kind and report.endpoints == true_edge))
            except GridTopoError as exc:
                status = f"{type(exc).__name__}: {exc}"
            rows.append(
                {
                    "sample_size": n,
                    "repetition": rep,
                    "seed": s_before,
                    "algorithm": "detect",
                    "noise_level": config.noise,
                    "epsilon": 0.0,
                    "error_ratio": err,
                    "runtime_ms": 1000 * (time.perf_counter() - t0),
                    "status": status if status != "ok" else f"ok:{report_kind}",
                }
            )
    rows.sort(key=lambda r: (r["sample_size"], r["repetition"]))
    summary = []
    for n in config.sample_sizes:
        errs = [r["error_ratio"] for r in rows if r["sample_size"] == n and r["error_ratio"] is not None]
        summary.append(
            {
                "sample_size": n,
                "algorithm": "detect",
                "noise_level": config.noise,
                "epsilon": 0.0,
                "mean_error": mean(errs) if errs else None,
                "stddev_error": stdev(errs) if len(errs) > 1 else 0.0,
                "ok_rows": len(errs),
                "failed_rows": sum(1 for r in rows if r["error_ratio"] is None),
            }
        )
    result = SweepResult(rows=rows, summary=summary, config=asdict(config))
    return result, analytic_report


def _estimate_direct(lap, stats, n, sample_seed, noise_stats):
    samples = sample_voltages(lap, stats, n, sample_seed)
    if noise_stats is not None:
        samples = add_noise(samples, noise_stats, sample_seed + 1)
    cov = sample_covariance(samples)
    return direct_concentration(cov, default_ridge(cov, n), bus_order=lap.bus_order)


def replay_cell(config: ExperimentConfig, n: int, sample_seed: int, algorithm: str) -> float:
    """Re-run one sweep cell from its recorded seed; returns the error ratio."""
    grid = load_grid(config.grid)
    ctx = _SweepContext(grid, config)
    conc = ctx.estimate(config, n, sample_seed)
    return score(ctx.learn(algorithm, conc), grid)
