"""Experiment harness: sample-size, threshold, and detection sweeps.

Each sweep cell pins (repetition, sample size) to seeds derived from the
configured base seed, draws the sample covariance of its n linearized-model
samples, estimates the concentration matrix, runs the selected learning
algorithms, and scores against the ground-truth grid. Failures are
recorded per row in the ``status`` column instead of aborting the sweep.

Covariance draw: a cell reads only the sample covariance of its n rows,
so it draws that covariance from its Wishart law with
:func:`gridtopo.sampler.draw_covariance` and never draws the rows: the
Bartlett decomposition with the factor T, or [T, F] with the noise
factor F, under a Philox key that no row key shares (see the sampler's
module docstring). A row follows the law it had when rows were drawn,
not their values. The draw is a pure function of the row's ``seed``
column, so a row still replays from that column, and CSV bodies stay
byte-identical across reruns at a fixed BLAS thread count. Both windows
of a detect cell are drawn the same way. A draw costs O(p^3) at any n,
where rows cost O(n p^2) time and n x p memory.

Output CSV bodies are deterministic for a fixed configuration except for
the ``runtime_ms`` column, which reports wall-clock of estimation plus
learning for the row. Thresholds default to the half-gamma values from
the analytic concentration matrix of the configured grid ("testing
mode"), matching the practice of tuning thresholds once at large sample
counts and then holding them fixed.

Model memo: ``_grid_model`` is the one builder of a grid file's model
(``_GridModel``: the grid, its Laplacians, the injection and noise
statistics, and on demand the analytic J under uncorrelated injections
and its half-gamma thresholds). ``run_sweep``, ``threshold_sensitivity``,
``replay_cell``, ``detect_sweep`` and the cli's ``sample`` and ``learn
--truth`` read it. ``_built_model``, a ``functools.lru_cache`` of one
entry, keeps the last model built, keyed by the grid file's text and
path and ``sigma``, ``sigma_pq``, ``epsilon`` and ``noise`` (by value
and by repr); estimator options, thresholds, seeds and sample sizes stay
per call. The file is read on every call, so an edited file misses; a
failed build is not kept. A kept model is frozen with read-only arrays,
computes J and the thresholds at most once, and is a pure function of
its key, so the memo saves work and never changes a value; reusing the
statistics object also lets the sampler's transfer memo hit. It pays
only where one process calls again on the same file and settings: tests,
a notebook, a benchmark that runs one cell per call, or ``sample`` then
``learn --truth`` at their defaults, which share an entry. One
``gridtopo`` command builds its model once either way, and a detect call
builds two (before and after), so the entry never hits across detect
calls. The kept model stays resident until another file or settings
replace it, or ``_built_model.cache_clear()``: its arrays are O(N^2) for
N non-reference buses, 0.23 MB at 56 buses and 12 MB at 400, and both
are held while its replacement is built.
"""

from __future__ import annotations

import csv
import functools
import json
import os
import platform
import time
import types
import typing
from dataclasses import MISSING, asdict, dataclass, field, replace
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
)
from .grid import (
    GridGraph,
    LaplacianPair,
    grid_from_json,
    read_grid_file,
    reduced_laplacians,
)
from .sampler import (
    InjectionStatistics,
    NoiseStatistics,
    analytic_voltage_covariance,
    draw_covariance,
    make_correlated_stats,
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
# Thread-count variables of the common BLAS builds, recorded in meta.json.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# The options each estimator takes; None leaves an option at its default.
_ESTIMATOR_OPTIONS = {"direct": ("ridge",), "glasso": ("lam", "tol", "max_iter")}


def _fits(value, hint) -> bool:
    """Whether a config value has the annotated type; lists pass for tuples
    and integers for floats, booleans only for bool."""
    args = typing.get_args(hint)
    if isinstance(hint, types.UnionType):
        return any(_fits(value, h) for h in args)
    if typing.get_origin(hint) is tuple:
        return isinstance(value, (list, tuple)) and all(_fits(v, args[0]) for v in value)
    if isinstance(value, bool):
        return hint is bool
    return isinstance(value, (int, float) if hint is float else hint)


class _Config:
    """``from_dict`` and the field checks shared by the sweep configs."""

    @classmethod
    def from_dict(cls, payload: dict, **overrides):
        """Payload keys plus the overrides that are not None, rejecting keys
        the config lacks, required keys left out and values of the wrong
        type."""
        merged = dict(payload)
        merged.update({k: v for k, v in overrides.items() if v is not None})
        fields = cls.__dataclass_fields__
        unknown = set(merged) - set(fields)
        if unknown:
            raise ValidationError(f"unknown config keys: {sorted(unknown)}")
        missing = [k for k, f in fields.items() if f.default is MISSING and k not in merged]
        if missing:
            raise ValidationError(f"missing config keys: {missing}")
        hints = typing.get_type_hints(cls)
        for key, value in merged.items():
            if not _fits(value, hints[key]):
                raise ValidationError(f"config key {key!r} must be {fields[key].type}: {value!r}")
        return cls(**merged)

    def __post_init__(self):
        self.sample_sizes = tuple(int(n) for n in self.sample_sizes)
        if any(b <= a for a, b in zip(self.sample_sizes, self.sample_sizes[1:])):
            raise ValidationError("sample sizes must be strictly increasing")
        if not self.sample_sizes:
            raise ValidationError("need at least one sample size")
        if self.repetitions < 1:
            raise ValidationError("repetitions must be >= 1")
        if self.seed < 0:
            raise ValidationError("seed must be non-negative")
        scales = ("sigma", "noise", "epsilon")
        if not all(getattr(self, name) >= 0 for name in scales if hasattr(self, name)):
            raise ValidationError("scales must be nonnegative")


@dataclass
class ExperimentConfig(_Config):
    grid: str
    sample_sizes: tuple[int, ...] = (500, 1000, 5000, 10000, 100000)
    repetitions: int = 10
    seed: int = 0
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
    out: str | None = None

    def __post_init__(self):
        super().__post_init__()
        # NaN fails both comparisons, so it is out of range too.
        if not all(tau is None or tau > 0 for tau in (self.tau1, self.tau2)):
            raise ValidationError("thresholds tau1 and tau2 must be positive")
        if not all(v is None or 0 <= v < np.inf for v in (self.lam, self.ridge)):
            raise ValidationError("lam and ridge must be nonnegative and finite")
        if self.estimator not in _ESTIMATOR_OPTIONS:
            raise ValidationError(f"unknown estimator {self.estimator!r}")
        _reject_ignored(self.estimator, lam=self.lam, ridge=self.ridge)
        if self.sample_sizes[0] < 2:
            raise ValidationError("sample sizes must be >= 2: a covariance needs two rows")
        for alg in self.algorithms:
            if alg not in ("neighborhood", "sign"):
                raise ValidationError(f"unknown algorithm {alg!r}")
        if len(set(self.algorithms)) != len(self.algorithms):
            raise ValidationError(f"repeated algorithm in {list(self.algorithms)}")


@dataclass
class DetectConfig(_Config):
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
        meta = {
            "config": self.config,
            "environment": _environment(),
            "written_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        }
        with open(out / "meta.json", "w") as fh:
            json.dump(meta, fh, indent=2)
            fh.write("\n")


def _environment() -> dict:
    """Solver kernel, versions, BLAS library and BLAS thread settings.

    CSV bodies are byte-stable only at a fixed BLAS thread count, so a
    rerun needs the thread variables as well as the library."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        library = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):  # numpy < 1.26 has no mode="dicts"
        library = None
    return {
        "kernel": glasso.active_kernel(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "blas": library,
        "blas_threads": {var: os.environ.get(var) for var in _BLAS_THREAD_VARS},
    }


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
    """Derived seed of a sweep cell's covariance draw, noise included, so a
    recorded row can be replayed from its ``seed`` column alone."""
    state = np.random.SeedSequence((config_seed, rep_seed, n_index)).generate_state(1)
    return int(state[0])


def _cells(config, n_indices):
    """``(n_index, n, repetition, seed)`` of every cell at the given indices
    into ``config.sample_sizes``, by size and then repetition."""
    for n_index in n_indices:
        for rep in range(config.repetitions):
            seed = _cell_seed(config.seed, config.seed + rep, n_index)
            yield n_index, config.sample_sizes[n_index], rep, seed


def _reject_ignored(estimator, **options):
    """Raise ValidationError on a non-None option that ``estimator`` does not take."""
    taken = _ESTIMATOR_OPTIONS[estimator]
    ignored = [k for k, v in options.items() if v is not None and k not in taken]
    if ignored:
        raise ValidationError(f"the {estimator} estimator does not take {', '.join(ignored)}")


def _concentration(cov, n, bus_order, estimator="direct", lam=None, ridge=None, **fit):
    """Concentration matrix of the sample covariance ``cov`` of ``n`` rows,
    by direct inversion or by the graphical lasso on the standardized
    covariance; ``fit`` (``tol``, ``max_iter``) goes to the graphical
    lasso. Options left at None take the estimator's defaults. The one
    estimate path of the sweeps (drawn ``cov``) and ``gridtopo estimate``
    (``cov`` of imported rows)."""
    _reject_ignored(estimator, lam=lam, ridge=ridge, **fit)
    fit = {k: v for k, v in fit.items() if v is not None}
    if estimator == "glasso":
        lam = lam if lam is not None else glasso.default_lambda(n, cov.shape[0])
        # The penalty rate presumes standardized variables: solve on
        # the correlation matrix, then map the precision back.
        scale = np.sqrt(np.diag(cov))
        if np.any(scale <= 0):
            raise NumericalError("degenerate sample variance")
        corr = cov / np.outer(scale, scale)
        result = glasso.graphical_lasso(corr, lam, bus_order=bus_order, **fit)
        meta = {**result.meta, "standardized": True}
        return replace(result, j=result.j / np.outer(scale, scale), meta=meta)
    ridge = ridge if ridge is not None else default_ridge(cov, n)
    return direct_concentration(cov, ridge, bus_order=bus_order)


def _learn(conc: ConcentrationMatrix, algorithm: str, tau1, tau2):
    """Topology estimate of one learning algorithm at the given thresholds."""
    if algorithm == "neighborhood":
        return learn_neighborhood(conc, tau1)
    return learn_sign_rule(conc, tau2)


def _learn_score(conc: ConcentrationMatrix, grid: GridGraph, algorithm: str, tau1, tau2) -> float:
    """Error ratio of one learning algorithm at the given thresholds."""
    return score(_learn(conc, algorithm, tau1, tau2), grid)


def _attempt(fn, *args):
    """``(value, elapsed ms, status)`` of ``fn(*args)``; a GridTopoError
    gives value None and the error as the status."""
    t0 = time.perf_counter()
    try:
        value, status = fn(*args), "ok"
    except GridTopoError as exc:
        value, status = None, f"{type(exc).__name__}: {exc}"
    return value, 1000 * (time.perf_counter() - t0), status


@dataclass(frozen=True)
class _GridModel:
    """A grid file's model: ``stats`` add the line correlation ``epsilon`` to
    ``uncorrelated``, and ``noise`` is the noise level times each
    coordinate's analytic signal variance under ``stats`` (None at zero)."""

    grid: GridGraph
    lap: LaplacianPair
    stats: InjectionStatistics
    noise: NoiseStatistics | None
    uncorrelated: InjectionStatistics

    @functools.cached_property
    def j(self) -> ConcentrationMatrix:
        """Analytic concentration matrix under the uncorrelated injections."""
        return analytic_concentration(self.lap, self.uncorrelated)

    @functools.cached_property
    def half_gammas(self) -> tuple[float, float]:
        """Half the gamma thresholds of ``j``: the default ``(tau1, tau2)``.
        Read on demand, since detection needs none and some grids have none."""
        gamma1, gamma2 = gamma_thresholds(self.j)
        return gamma1 / 2, gamma2 / 2


def _grid_model(path, sigma, sigma_pq, epsilon, noise) -> _GridModel:
    """The model of the grid file at ``path`` under the given settings; the
    one place that builds it (module docstring, Model memo)."""
    settings = (sigma, sigma_pq, epsilon, noise)
    # repr tells 0.0 from -0.0 and 1 from 1.0, which compare equal.
    return _built_model(read_grid_file(path), path, tuple(map(repr, settings)), *settings)


@functools.lru_cache(maxsize=1)
def _built_model(text, path, _reprs, sigma, sigma_pq, epsilon, noise) -> _GridModel:
    """The model of :func:`_grid_model`, built from the file's ``text``;
    ``_reprs``, the settings' reprs, only keys the cache."""
    grid = grid_from_json(text, path)
    lap = reduced_laplacians(grid)
    uncorrelated = InjectionStatistics.uniform(grid.n, variance=sigma, sigma_pq=sigma_pq)
    stats = make_correlated_stats(grid, uncorrelated, epsilon) if epsilon else uncorrelated
    if not noise >= 0:
        raise ValidationError("noise level must be nonnegative")
    noise_stats = None
    if noise:
        signal_var = np.diag(analytic_voltage_covariance(lap, stats))
        noise_stats = NoiseStatistics.relative(signal_var, noise)
    return _GridModel(grid, lap, stats, noise_stats, uncorrelated)


class _SweepContext:
    """A sweep's model and thresholds: the configured ones, else half-gamma."""

    def __init__(self, config: ExperimentConfig):
        self.config = config
        self.model = _grid_model(
            config.grid, config.sigma, config.sigma_pq, config.epsilon, config.noise
        )
        half1, half2 = self.model.half_gammas
        self.tau1 = config.tau1 if config.tau1 is not None else half1
        self.tau2 = config.tau2 if config.tau2 is not None else half2

    def estimate(self, n: int, sample_seed: int) -> ConcentrationMatrix:
        c, m = self.config, self.model
        cov = draw_covariance(m.lap, m.stats, n, sample_seed, m.noise)
        return _concentration(cov, n, m.lap.bus_order, c.estimator, c.lam, c.ridge)


def _scored_cells(config: ExperimentConfig, n_indices, multipliers):
    """``(multiplier, row)`` for every cell at ``n_indices``, multiplier and
    algorithm. Each cell is estimated once and then scored at the context
    thresholds times each multiplier; the row holds the columns that
    ``run_sweep`` and ``threshold_sensitivity`` share. A row's time includes
    its cell's estimate, and a failed estimate fails all the cell's rows."""
    ctx = _SweepContext(config)
    for _, n, rep, seed in _cells(config, n_indices):
        conc, est_ms, est_status = _attempt(ctx.estimate, n, seed)
        for mult in multipliers:
            # A zero multiplier means "keep everything numerically nonzero";
            # clamp to the smallest positive threshold the ops accept.
            tau1 = max(ctx.tau1 * mult, 1e-300)
            tau2 = max(ctx.tau2 * mult, 1e-300)
            for alg in config.algorithms:
                err, ms, status = None, 0.0, est_status
                if conc is not None:
                    err, ms, status = _attempt(_learn_score, conc, ctx.model.grid, alg, tau1, tau2)
                yield mult, {
                    "sample_size": n,
                    "repetition": rep,
                    "seed": seed,
                    "algorithm": alg,
                    "error_ratio": err,
                    "runtime_ms": est_ms + ms,
                    "status": status,
                }


def run_sweep(config: ExperimentConfig) -> SweepResult:
    sizes = range(len(config.sample_sizes))
    rows = [
        {**row, "noise_level": config.noise, "epsilon": config.epsilon}
        for _, row in _scored_cells(config, sizes, (1.0,))
    ]
    rows.sort(key=lambda r: (r["sample_size"], r["repetition"], r["algorithm"]))
    return SweepResult(rows=rows, summary=_summarize(rows), config=asdict(config))


def _summarize(rows) -> list[dict]:
    """Mean and spread of the error per (sample size, algorithm, noise,
    epsilon); a row without an error ratio counts as failed."""
    cells: dict[tuple, list[float]] = {}
    failures: dict[tuple, int] = {}
    for row in rows:
        key = (row["sample_size"], row["algorithm"], row["noise_level"], row["epsilon"])
        if row["error_ratio"] is not None:
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
    if not all(mult >= 0 for mult in multipliers):
        raise ValidationError("tau multipliers must be nonnegative")
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
    last = (len(config.sample_sizes) - 1,)
    rows = [
        {**row, "tau_multiplier": mult}
        for mult, row in _scored_cells(config, last, multipliers)
    ]
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
    and both endpoints are identified exactly. Both windows of a cell
    carry the noise of the before grid: ``noise`` times each coordinate's
    analytic signal variance before the event. The analytic report and
    the default ``tau3`` come from the two grids' analytic J.
    """
    settings = (config.sigma, config.sigma_pq, 0.0)
    before = _grid_model(config.before, *settings, config.noise)
    # Without noise: the after window carries the before grid's.
    after = _grid_model(config.after, *settings, 0.0)
    true_kind, true_edge = _single_line_event(before.grid, after.grid)
    deltas = diagonal_deltas(before.j, after.j)
    order = before.lap.bus_order
    # A reference-bus endpoint has no row; the other endpoint sets tau3.
    endpoint_deltas = [abs(deltas[order.index(b)]) for b in true_edge if b in order]
    tau3 = config.tau3 if config.tau3 is not None else min(endpoint_deltas) / 2
    analytic_report = detect_change(before.j, after.j, tau3)

    def detect_cell(n, s_before, s_after):
        before_cov = draw_covariance(before.lap, before.stats, n, s_before, before.noise)
        after_cov = draw_covariance(after.lap, after.stats, n, s_after, before.noise)
        return detect_change(
            _concentration(before_cov, n, order), _concentration(after_cov, n, order), tau3
        )

    rows = []
    for n_index, n, rep, s_before in _cells(config, range(len(config.sample_sizes))):
        s_after = _cell_seed(config.seed + 7919, config.seed + rep, n_index)
        report, ms, status = _attempt(detect_cell, n, s_before, s_after)
        err = None
        if report is not None:
            err = int(not (report.kind == true_kind and report.endpoints == true_edge))
            status = f"ok:{report.kind}"
        rows.append(
            {
                "sample_size": n,
                "repetition": rep,
                "seed": s_before,
                "algorithm": "detect",
                "noise_level": config.noise,
                "epsilon": 0.0,
                "error_ratio": err,
                "runtime_ms": ms,
                "status": status,
            }
        )
    result = SweepResult(rows=rows, summary=_summarize(rows), config=asdict(config))
    return result, analytic_report


def replay_cell(config: ExperimentConfig, n: int, sample_seed: int, algorithm: str) -> float:
    """Re-run one sweep cell from its recorded seed; returns the error ratio."""
    ctx = _SweepContext(config)
    return _learn_score(ctx.estimate(n, sample_seed), ctx.model.grid, algorithm, ctx.tau1, ctx.tau2)
