"""Command-line harness.

Subcommands: gen-grid, sample, estimate, learn, detect, sweep,
threshold-sensitivity. Configuration comes from an optional JSON
file (--config) with command-line flags taking precedence. Exit codes:
0 success, 2 validation error or failed write, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .detect import detect_change, export_report
from .errors import NumericalError, ValidationError
from .estimator import export_concentration, import_concentration, sample_covariance
from .generate import generate_grid
from .grid import load_grid, save_grid, structure_report
from .sampler import add_noise, export_samples, import_samples, sample_voltages
from .sweep import (
    DetectConfig,
    ExperimentConfig,
    _concentration,
    _grid_model,
    _learn,
    detect_sweep,
    run_sweep,
    threshold_sensitivity,
)
from .topology import export_estimate, score, threshold_by_gap

__all__ = ["main"]


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(",") if v)


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(",") if v)


def _range(text: str) -> tuple[float, float]:
    lo, hi = (float(v) for v in text.split(","))
    return lo, hi


def _load_config(path) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValidationError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise ValidationError(f"config {path} must hold a JSON object")
    return payload


def _config(cls, args):
    """``cls`` from the ``--config`` file with the flags given on top; each
    flag's ``dest`` is the name of the config field it sets."""
    flags = {k: v for k, v in vars(args).items() if k in cls.__dataclass_fields__}
    config = cls.from_dict(_load_config(args.config), **flags)
    if config.out is None:
        raise ValidationError(f"{args.command} needs an output directory (--out)")
    return config


def cmd_gen_grid(args) -> int:
    grid = generate_grid(
        args.kind,
        args.buses,
        loops=args.loops,
        min_cycle=args.min_cycle,
        seed=args.seed,
        r_range=args.r_range,
        x_range=args.x_range,
        min_non_leaves=args.min_non_leaves,
    )
    save_grid(grid, args.out)
    report = structure_report(grid)
    print(
        f"wrote {args.out}: {len(grid.buses)} buses, {len(grid.lines)} lines, "
        f"min cycle length {report.min_cycle_length}"
    )
    return 0


def cmd_sample(args) -> int:
    model = _grid_model(args.grid, args.sigma, args.sigma_pq, args.epsilon, args.noise)
    samples = sample_voltages(model.lap, model.stats, args.n, args.seed, offset=args.offset)
    if model.noise is not None:
        samples = add_noise(samples, model.noise, args.seed + 1)
    samples = replace(samples, grid_sha256=model.grid.sha256)
    export_samples(samples, args.out)
    print(f"wrote {args.out}: {samples.n} samples x {samples.samples.shape[1]} columns")
    return 0


def cmd_estimate(args) -> int:
    bus_order = load_grid(args.grid).non_reference if args.grid else None
    samples = import_samples(args.samples, bus_order=bus_order)
    conc = _concentration(
        sample_covariance(samples),
        samples.n,
        samples.bus_order,
        args.method,
        args.lam,
        args.ridge,
        tol=args.tol,
        max_iter=args.max_iter,
    )
    export_concentration(conc, args.out)
    print(f"wrote {args.out} ({conc.provenance})")
    return 0


def cmd_learn(args) -> int:
    conc = import_concentration(args.concentration)
    neighborhood = args.alg == "neighborhood"
    tau, truth = args.tau, None
    if args.truth and tau is None:
        # epsilon and noise 0, as `sample` at its defaults: the two share a model.
        model = _grid_model(args.truth, args.sigma, args.sigma_pq, 0.0, 0.0)
        truth, tau = model.grid, model.half_gammas[0 if neighborhood else 1]
    elif args.truth:
        truth = load_grid(args.truth)
    if tau is None:
        # Cut at the largest gap of the off-diagonal statistic.
        off = ~np.eye(conc.n, dtype=bool)
        if neighborhood:
            tau = threshold_by_gap(conc.j_vv[off])
        else:
            s = conc.sign_sum()[off]
            tau = threshold_by_gap(-s[s < 0])
    estimate = _learn(conc, args.alg, tau, tau)
    error = score(estimate, truth) if truth is not None else None
    export_estimate(estimate, args.out, error=error)
    msg = f"wrote {args.out}: {len(estimate.edges)} edges"
    if error is not None:
        msg += f", error {error:.4f}"
    print(msg)
    return 0


def cmd_detect(args) -> int:
    if args.before_conc or args.after_conc:
        if not (args.before_conc and args.after_conc) or args.tau3 is None:
            raise ValidationError("matrix mode needs --before-conc, --after-conc and --tau3")
        report = detect_change(
            import_concentration(args.before_conc),
            import_concentration(args.after_conc),
            args.tau3,
        )
        export_report(report, args.out)
        print(f"wrote {args.out}: {report.kind} {report.endpoints or ''}")
        return 0
    config = _config(DetectConfig, args)
    result, analytic_report = detect_sweep(config)
    result.write(config.out)
    export_report(analytic_report, Path(config.out) / "analytic_report.json")
    print(f"wrote {config.out}: analytic verdict {analytic_report.kind}")
    return 0


def cmd_sweep(args) -> int:
    config = _config(ExperimentConfig, args)
    result = run_sweep(config)
    result.write(config.out)
    ok = sum(1 for r in result.rows if r["status"] == "ok")
    print(f"wrote {config.out}: {len(result.rows)} rows ({ok} ok)")
    return 0


def cmd_threshold_sensitivity(args) -> int:
    config = _config(ExperimentConfig, args)
    result = threshold_sensitivity(config, args.multipliers)
    result.write(config.out)
    print(f"wrote {config.out}: {len(result.rows)} rows")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gridtopo", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    # Flags of the sweep commands; each dest is the config field it sets.
    harness = argparse.ArgumentParser(add_help=False)
    harness.add_argument("--config", default=None)
    harness.add_argument(
        "--n", dest="sample_sizes", metavar="N", type=_int_list, help="comma-separated sample sizes"
    )
    harness.add_argument("--reps", dest="repetitions", metavar="REPS", type=int, default=None)
    harness.add_argument("--seed", type=int, default=None)
    harness.add_argument("--noise", type=float, default=None)
    harness.add_argument("--out", default=None)

    p = sub.add_parser("gen-grid", help="generate a synthetic grid file")
    p.add_argument("--kind", choices=("path", "tree", "meshed"), required=True)
    p.add_argument("--buses", type=int, required=True)
    p.add_argument("--loops", type=int, default=0)
    p.add_argument("--min-cycle", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--r-range", type=_range, default=(0.05, 0.3))
    p.add_argument("--x-range", type=_range, default=(0.05, 0.3))
    p.add_argument("--min-non-leaves", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_grid)

    p = sub.add_parser("sample", help="generate voltage fluctuation samples")
    p.add_argument("--grid", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--offset", type=int, default=0)
    p.add_argument("--sigma", type=float, default=1e-2)
    p.add_argument("--sigma-pq", type=float, default=0.0)
    p.add_argument("--epsilon", type=float, default=0.0)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("estimate", help="estimate the concentration matrix from samples")
    p.add_argument("--samples", required=True)
    p.add_argument("--grid", default=None, help="optional grid file to validate bus order")
    p.add_argument("--method", choices=("direct", "glasso"), default="direct")
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--ridge", type=float, default=None)
    p.add_argument("--tol", type=float, default=None, help="glasso: bound on the KKT residual")
    p.add_argument("--max-iter", type=int, default=None, help="glasso: iteration budget")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("learn", help="recover topology from a concentration matrix")
    p.add_argument("--concentration", required=True)
    p.add_argument("--alg", choices=("neighborhood", "sign"), required=True)
    p.add_argument("--tau", type=float, default=None, help="threshold of the chosen algorithm")
    p.add_argument("--truth", default=None, help="grid file for scoring and default thresholds")
    p.add_argument("--sigma", type=float, default=1e-2)
    p.add_argument("--sigma-pq", type=float, default=0.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_learn)

    p = sub.add_parser("detect", parents=[harness], help="detect a single line change")
    p.add_argument("--before", default=None, help="grid file before the event")
    p.add_argument("--after", default=None, help="grid file after the event")
    p.add_argument("--before-conc", default=None, help="concentration CSV before (matrix mode)")
    p.add_argument("--after-conc", default=None, help="concentration CSV after (matrix mode)")
    p.add_argument("--tau3", type=float, default=None)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser(
        "sweep", parents=[harness], help="sample-size sweep of the learning pipeline"
    )
    p.add_argument("--grid", default=None)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--estimator", choices=("direct", "glasso"), default=None)
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--tau1", type=float, default=None)
    p.add_argument("--tau2", type=float, default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser(
        "threshold-sensitivity", parents=[harness], help="errors under scaled thresholds"
    )
    p.add_argument("--grid", default=None)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--multipliers", type=_float_list, default=(0.8, 1.0, 1.2))
    p.set_defaults(func=cmd_threshold_sensitivity)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
