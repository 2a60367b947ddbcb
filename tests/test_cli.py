import csv
import json
from dataclasses import replace

import numpy as np
import pytest

from gridtopo.cli import build_parser, main
from gridtopo.estimator import (
    analytic_concentration,
    export_concentration,
    import_concentration,
    sample_covariance,
)
from gridtopo.generate import generate_grid
from gridtopo.glasso import default_lambda
from gridtopo.grid import apply_line_event, load_grid, reduced_laplacians, save_grid
from gridtopo.sampler import (
    InjectionStatistics,
    NoiseStatistics,
    add_noise,
    analytic_voltage_covariance,
    export_samples,
    sample_voltages,
)
from gridtopo.sweep import DetectConfig, ExperimentConfig, _concentration


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    assert main([
        "gen-grid", "--kind", "meshed", "--buses", "14", "--loops", "1",
        "--min-cycle", "7", "--seed", "2", "--min-non-leaves", "3",
        "--out", str(root / "grid.json"),
    ]) == 0
    return root


def test_gen_grid_writes_valid_file(workdir):
    grid = load_grid(workdir / "grid.json")
    assert len(grid.buses) == 14


def test_gen_grid_infeasible_exit_code(tmp_path, capsys):
    code = main([
        "gen-grid", "--kind", "meshed", "--buses", "5", "--loops", "1",
        "--min-cycle", "9", "--out", str(tmp_path / "x.json"),
    ])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_sample_estimate_learn_pipeline(workdir):
    samples = workdir / "samples.csv"
    assert main([
        "sample", "--grid", str(workdir / "grid.json"), "--n", "20000",
        "--seed", "7", "--out", str(samples),
    ]) == 0
    meta = json.loads((workdir / "samples.csv.meta.json").read_text())
    assert meta["seed"] == 7 and meta["grid_sha256"]

    conc = workdir / "conc.csv"
    assert main([
        "estimate", "--samples", str(samples), "--grid", str(workdir / "grid.json"),
        "--method", "direct", "--out", str(conc),
    ]) == 0
    assert (workdir / "conc.csv.meta.json").exists()

    out = workdir / "learned.json"
    assert main([
        "learn", "--concentration", str(conc), "--alg", "sign",
        "--truth", str(workdir / "grid.json"), "--out", str(out),
    ]) == 0
    payload = json.loads(out.read_text())
    assert payload["algorithm"] == "sign"
    assert payload["error"] == 0.0

    out2 = workdir / "learned_nbr.json"
    assert main([
        "learn", "--concentration", str(conc), "--alg", "neighborhood",
        "--truth", str(workdir / "grid.json"), "--out", str(out2),
    ]) == 0
    assert json.loads(out2.read_text())["error"] == 0.0


def test_learn_gap_threshold_without_truth(workdir, tmp_path):
    samples = tmp_path / "samples.csv"
    assert main([
        "sample", "--grid", str(workdir / "grid.json"), "--n", "20000",
        "--seed", "7", "--out", str(samples),
    ]) == 0
    conc = tmp_path / "conc.csv"
    assert main([
        "estimate", "--samples", str(samples), "--method", "direct", "--out", str(conc),
    ]) == 0
    out = tmp_path / "learned_gap.json"
    assert main([
        "learn", "--concentration", str(conc), "--alg", "sign", "--out", str(out),
    ]) == 0
    payload = json.loads(out.read_text())
    assert payload["error"] is None
    assert payload["thresholds"]["tau2"] > 0


def test_estimate_numerical_failure_exit_code(workdir, tmp_path, capsys):
    few = tmp_path / "few.csv"
    assert main([
        "sample", "--grid", str(workdir / "grid.json"), "--n", "10",
        "--seed", "1", "--out", str(few),
    ]) == 0
    code = main([
        "estimate", "--samples", str(few), "--method", "direct",
        "--ridge", "0", "--out", str(tmp_path / "c.csv"),
    ])
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


def test_sample_ill_conditioned_grid_exit_code(ill_conditioned3, tmp_path, capsys):
    save_grid(ill_conditioned3, tmp_path / "ill.json")
    code = main([
        "sample", "--grid", str(tmp_path / "ill.json"), "--n", "10",
        "--out", str(tmp_path / "s.csv"),
    ])
    assert code == 3
    assert "composite Laplacian" in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()


def test_sample_ill_conditioned_injection_precision_exit_code(tmp_path, capsys):
    # line-correlated injections whose precision has condition number 2.1e13
    grid = tmp_path / "grid.json"
    assert main([
        "gen-grid", "--kind", "meshed", "--buses", "14", "--loops", "1",
        "--min-cycle", "5", "--seed", "2", "--out", str(grid),
    ]) == 0
    code = main([
        "sample", "--grid", str(grid), "--n", "1000", "--epsilon", "0.4474424631226931",
        "--out", str(tmp_path / "s.csv"),
    ])
    assert code == 3
    err = capsys.readouterr().err
    assert "injection precision numerically singular" in err and "eigenvalue range" in err
    assert not (tmp_path / "s.csv").exists()


def test_learn_takes_one_threshold(workdir, small, tmp_path):
    learn = ["learn", "--concentration", str(small / "c.csv")]
    for alg, key in (("sign", "tau2"), ("neighborhood", "tau1")):
        out = tmp_path / f"{alg}.json"
        assert main([*learn, "--alg", alg, "--tau", "5", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["thresholds"] == {key: 5.0}
    # one run learns with one algorithm, so there is no second threshold flag
    with pytest.raises(SystemExit):
        build_parser().parse_args([*learn, "--alg", "sign", "--tau1", "5", "--out", "x"])


def test_learn_reads_sigma_only_for_default_thresholds(workdir, small, tmp_path, capsys):
    # --sigma shapes only the default threshold, so a given --tau ignores it
    learn = [
        "learn", "--concentration", str(small / "c.csv"), "--alg", "sign",
        "--truth", str(workdir / "grid.json"), "--sigma", "-1",
    ]
    assert main([*learn, "--tau", "5", "--out", str(tmp_path / "tau.json")]) == 0
    assert main([*learn, "--out", str(tmp_path / "default.json")]) == 2
    assert "per-bus variances must be positive" in capsys.readouterr().err
    assert not (tmp_path / "default.json").exists()


def test_estimate_glasso_small_penalty(tmp_path, capsys):
    # Block coordinate descent lost positive definiteness on this input
    # (exit 3); the solver's own iteration budget must apply, not a copy.
    grid, samples, conc = tmp_path / "grid.json", tmp_path / "s.csv", tmp_path / "c.csv"
    assert main([
        "gen-grid", "--kind", "meshed", "--buses", "12", "--loops", "1",
        "--min-cycle", "7", "--seed", "12", "--out", str(grid),
    ]) == 0
    assert main([
        "sample", "--grid", str(grid), "--n", "200", "--seed", "5", "--sigma", "1",
        "--out", str(samples),
    ]) == 0
    estimate = [
        "estimate", "--samples", str(samples), "--method", "glasso",
        "--lambda", repr(default_lambda(200, 22, c=0.1)), "--out", str(conc),
    ]
    assert main(estimate) == 0
    meta = json.loads((tmp_path / "c.csv.meta.json").read_text())
    assert meta["kernel"] == "admm"
    assert meta["kkt_residual"] <= meta["tol"] == 1e-6
    assert main(estimate + ["--max-iter", "5"]) == 3
    assert "did not converge in 5 iterations" in capsys.readouterr().err


def test_detect_matrix_mode(tmp_path):
    grid = generate_grid("meshed", 12, loops=1, min_cycle=4, seed=6)
    stats = InjectionStatistics.uniform(grid.n)
    a, b = grid.non_reference[2], grid.non_reference[9]
    if grid.has_line(a, b):
        a, b = grid.non_reference[1], grid.non_reference[7]
    after = apply_line_event(grid, a, b, "add", r=0.1, x=0.2)
    j_b = analytic_concentration(reduced_laplacians(grid), stats)
    j_a = analytic_concentration(reduced_laplacians(after), stats)
    export_concentration(j_b, tmp_path / "before.csv")
    export_concentration(j_a, tmp_path / "after.csv")
    from gridtopo.detect import diagonal_deltas

    deltas = diagonal_deltas(j_b, j_a)
    tau3 = np.abs(deltas).max() / 4
    out = tmp_path / "report.json"
    assert main([
        "detect", "--before-conc", str(tmp_path / "before.csv"),
        "--after-conc", str(tmp_path / "after.csv"), "--tau3", str(tau3),
        "--out", str(out),
    ]) == 0
    payload = json.loads(out.read_text())
    assert payload["kind"] == "added"
    assert payload["endpoints"] == sorted((a, b))


def test_detect_matrix_mode_zero_tau3(tmp_path, capsys):
    grid = generate_grid("tree", 6, seed=1)
    conc = tmp_path / "c.csv"
    stats = InjectionStatistics.uniform(grid.n)
    export_concentration(analytic_concentration(reduced_laplacians(grid), stats), conc)
    code = main([
        "detect", "--before-conc", str(conc), "--after-conc", str(conc), "--tau3", "0",
        "--out", str(tmp_path / "report.json"),
    ])
    assert code == 2
    assert "tau3 must be positive" in capsys.readouterr().err


def test_detect_sampled_mode(tmp_path):
    grid = generate_grid("meshed", 12, loops=1, min_cycle=4, seed=6)
    a, b = grid.non_reference[2], grid.non_reference[9]
    if grid.has_line(a, b):
        a, b = grid.non_reference[1], grid.non_reference[7]
    after = apply_line_event(grid, a, b, "add", r=0.1, x=0.2)
    save_grid(grid, tmp_path / "before.json")
    save_grid(after, tmp_path / "after.json")
    out = tmp_path / "detect_out"
    assert main([
        "detect", "--before", str(tmp_path / "before.json"),
        "--after", str(tmp_path / "after.json"), "--n", "500,5000",
        "--reps", "2", "--seed", "3", "--out", str(out),
    ]) == 0
    assert (out / "rows.csv").exists()
    report = json.loads((out / "analytic_report.json").read_text())
    assert report["kind"] == "added"


def test_detect_identical_grids_exit_code(tmp_path, capsys):
    grid = generate_grid("tree", 8, seed=1)
    save_grid(grid, tmp_path / "g.json")
    code = main([
        "detect", "--before", str(tmp_path / "g.json"),
        "--after", str(tmp_path / "g.json"), "--out", str(tmp_path / "out"),
    ])
    assert code == 2



@pytest.mark.parametrize("tau3", [None, "0.5"])
def test_detect_reference_bus_line_is_ambiguous(tmp_path, tau3):
    # A line at the reference bus moves only its other endpoint's diagonal.
    assert main([
        "gen-grid", "--kind", "meshed", "--buses", "12", "--loops", "1",
        "--min-cycle", "7", "--seed", "12", "--out", str(tmp_path / "g.json"),
    ]) == 0
    grid = load_grid(tmp_path / "g.json")
    assert grid.reference == "b00" and not grid.has_line("b00", "b02")
    save_grid(apply_line_event(grid, "b00", "b02", "add", r=0.1, x=0.2), tmp_path / "after.json")
    out = tmp_path / "o"
    args = [
        "detect", "--before", str(tmp_path / "g.json"), "--after", str(tmp_path / "after.json"),
        "--n", "1000", "--reps", "1", "--out", str(out),
    ]
    assert main(args + (["--tau3", tau3] if tau3 else [])) == 0
    with open(out / "rows.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["status"], r["error_ratio"]) for r in rows] == [("ok:ambiguous", "1")]
    assert json.loads((out / "analytic_report.json").read_text())["kind"] == "ambiguous"

def test_sweep_command_with_config(workdir, tmp_path):
    config = {
        "grid": str(workdir / "grid.json"),
        "sample_sizes": [400, 1200],
        "repetitions": 2,
        "seed": 1,
    }
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "sweep_out"
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
    with open(out / "rows.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2 * 2 * 2
    assert (out / "summary.csv").exists()

    # flags override the config file
    out2 = tmp_path / "sweep_out2"
    assert main([
        "sweep", "--config", str(cfg_path), "--n", "300", "--reps", "1",
        "--out", str(out2),
    ]) == 0
    with open(out2 / "rows.csv", newline="") as fh:
        rows2 = list(csv.DictReader(fh))
    assert len(rows2) == 2


def test_threshold_sensitivity_command(tmp_path):
    # narrow impedance spread keeps the weakest informative entries well
    # above the estimation noise at this sample count
    grid_path = tmp_path / "grid.json"
    assert main([
        "gen-grid", "--kind", "meshed", "--buses", "14", "--loops", "1",
        "--min-cycle", "7", "--seed", "2", "--min-non-leaves", "3",
        "--r-range", "0.1,0.2", "--x-range", "0.1,0.2", "--out", str(grid_path),
    ]) == 0
    out = tmp_path / "tau_out"
    assert main([
        "threshold-sensitivity", "--grid", str(grid_path),
        "--n", "20000", "--reps", "1", "--seed", "2",
        "--multipliers", "0.8,1.0,1.2", "--out", str(out),
    ]) == 0
    with open(out / "rows.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert {row["tau_multiplier"] for row in rows} == {"0.8", "1.0", "1.2"}
    assert all(row["error_ratio"] == "0.0" for row in rows)


@pytest.mark.parametrize(
    "flags",
    [["--offset", "-1"], ["--seed", "-2"]],
)
def test_negative_seed_or_offset_exit_code(workdir, tmp_path, capsys, flags):
    code = main([
        "sample", "--grid", str(workdir / "grid.json"), "--n", "5",
        "--out", str(tmp_path / "s.csv"), *flags,
    ])
    assert code == 2
    assert "non-negative" in capsys.readouterr().err


def test_sample_noise_drawn_from_next_seed(workdir, tmp_path):
    # the noise stream is seed + 1, as in the sweeps, never the signal's own
    out = tmp_path / "noisy.csv"
    assert main([
        "sample", "--grid", str(workdir / "grid.json"), "--n", "300",
        "--seed", "1", "--noise", "0.5", "--out", str(out),
    ]) == 0
    grid = load_grid(workdir / "grid.json")
    lap, stats = reduced_laplacians(grid), InjectionStatistics.uniform(grid.n)
    noise = NoiseStatistics.relative(np.diag(analytic_voltage_covariance(lap, stats)), 0.5)
    expected = add_noise(sample_voltages(lap, stats, 300, seed=1), noise, seed=2)
    export_samples(replace(expected, grid_sha256=grid.sha256), tmp_path / "expected.csv")
    for suffix in ("", ".meta.json"):
        assert (tmp_path / f"noisy.csv{suffix}").read_bytes() == (
            tmp_path / f"expected.csv{suffix}"
        ).read_bytes()


@pytest.mark.parametrize("command", ["sweep", "threshold-sensitivity", "detect"])
def test_negative_sweep_seed_exit_code(workdir, tmp_path, capsys, command):
    grid = str(workdir / "grid.json")
    grids = ["--before", grid, "--after", grid] if command == "detect" else ["--grid", grid]
    code = main([
        command, *grids, "--n", "50", "--reps", "1", "--seed", "-1",
        "--out", str(tmp_path / "out"),
    ])
    assert code == 2
    assert "non-negative" in capsys.readouterr().err


def test_detect_empty_sample_sizes_exit_code(tmp_path, capsys):
    grid = generate_grid("tree", 8, seed=1)
    a, b = grid.non_reference[0], grid.non_reference[5]
    after = apply_line_event(grid, a, b, "add", r=0.1, x=0.2)
    save_grid(grid, tmp_path / "before.json")
    save_grid(after, tmp_path / "after.json")
    code = main([
        "detect", "--before", str(tmp_path / "before.json"),
        "--after", str(tmp_path / "after.json"), "--n", "", "--out", str(tmp_path / "out"),
    ])
    assert code == 2
    assert "at least one sample size" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_missing_grid_exit_code(tmp_path, capsys):
    code = main([
        "sample", "--grid", str(tmp_path / "nope.json"), "--n", "5",
        "--out", str(tmp_path / "s.csv"),
    ])
    assert code == 2


def test_undecodable_grid_exit_code(tmp_path, capsys):
    grid = tmp_path / "bad.json"
    grid.write_bytes(b'{"buses": ["\xff"]}')
    code = main(["sweep", "--grid", str(grid), "--n", "50", "--out", str(tmp_path / "out")])
    assert code == 2
    assert "cannot parse grid file" in capsys.readouterr().err


def test_threshold_sensitivity_records_failing_cells(workdir, tmp_path):
    # A singular covariance (no ridge, fewer samples than variables) fails
    # every estimate; each failure is a row, as in the sample-size sweep.
    cfg_path = tmp_path / "ridge0.json"
    cfg_path.write_text(json.dumps({"ridge": 0.0}))
    out = tmp_path / "tau_out"
    assert main([
        "threshold-sensitivity", "--grid", str(workdir / "grid.json"), "--config", str(cfg_path),
        "--n", "20", "--reps", "2", "--out", str(out),
    ]) == 0
    with open(out / "rows.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2 * 3 * 2
    assert all(row["status"].startswith("NumericalError: ") for row in rows)
    assert all(row["error_ratio"] == "" for row in rows)


@pytest.mark.parametrize(
    "args, config, message",
    [
        (["sweep"], None, "missing config keys: ['grid']"),
        (["detect", "--before", "GRID"], None, "missing config keys: ['after']"),
        (["sweep", "--grid", "GRID"], {"repetitions": "2"}, "'repetitions' must be int"),
        (["sweep", "--grid", "GRID"], [1, 2], "must hold a JSON object"),
        (
            ["sweep", "--grid", "GRID"],
            {"ridge": float("inf")},
            "lam and ridge must be nonnegative and finite",
        ),
        (["sweep", "--grid", "GRID"], {"algorithms": ["sign", "sign"]}, "repeated algorithm"),
    ],
)
def test_config_error_exit_code(workdir, tmp_path, capsys, args, config, message):
    args = [str(workdir / "grid.json") if a == "GRID" else a for a in args]
    if config is not None:
        (tmp_path / "c.json").write_text(json.dumps(config))
        args += ["--config", str(tmp_path / "c.json")]
    code = main([*args, "--out", str(tmp_path / "out")])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_estimate_glasso_standardizes_like_the_sweep(tmp_path):
    grid_path, samples, conc = tmp_path / "grid.json", tmp_path / "s.csv", tmp_path / "c.csv"
    assert main([
        "gen-grid", "--kind", "meshed", "--buses", "12", "--loops", "1",
        "--min-cycle", "7", "--seed", "12", "--out", str(grid_path),
    ]) == 0
    assert main([
        "sample", "--grid", str(grid_path), "--n", "200", "--seed", "5", "--out", str(samples),
    ]) == 0
    assert main([
        "estimate", "--samples", str(samples), "--method", "glasso", "--out", str(conc),
    ]) == 0
    meta = json.loads((tmp_path / "c.csv.meta.json").read_text())
    assert meta["standardized"] is True
    grid = load_grid(grid_path)
    lap = reduced_laplacians(grid)
    samples = sample_voltages(lap, InjectionStatistics.uniform(grid.n), 200, 5)
    expected = _concentration(sample_covariance(samples), 200, lap.bus_order, "glasso").j
    got = import_concentration(conc).j
    off = ~np.eye(len(got), dtype=bool)
    assert np.count_nonzero(expected[off]) > 0
    np.testing.assert_array_equal(got[off] != 0, expected[off] != 0)
    # Equal up to the CSV round trip, which re-centres the samples.
    np.testing.assert_allclose(got, expected, rtol=1e-9, atol=1e-9 * np.abs(expected).max())


def test_sweep_flags_set_config_fields():
    # ``_config`` passes on only the flags named like a config field; any
    # other dest must be one the cli reads itself.
    cli_only = {"config", "multipliers", "before_conc", "after_conc", "func", "command", "help"}
    commands = next(a for a in build_parser()._actions if a.dest == "command").choices
    for name, config in [
        ("sweep", ExperimentConfig),
        ("threshold-sensitivity", ExperimentConfig),
        ("detect", DetectConfig),
    ]:
        dests = {action.dest for action in commands[name]._actions}
        assert dests - cli_only <= set(config.__dataclass_fields__), name


@pytest.mark.parametrize(
    "command, sidecar",
    [
        ("learn", {"provenance": "direct"}),
        ("learn", "{not json"),
        ("estimate", "{not json"),
        ("estimate", {"offset": -5}),
        ("estimate", {"offset": 2.5}),
        ("estimate", {"offset": "x"}),
        ("estimate", {"offset": None}),
        ("estimate", {"offset": True}),
        # one character per bus: the 13 non-reference buses of the grid
        ("learn", {"provenance": "direct", "bus_order": "abcdefghijklm"}),
        ("estimate", {"seed": "abc"}),
        ("estimate", {"seed": -1}),
        ("estimate", {"seed": 1.0}),
        ("estimate", {"seed": True}),
        ("estimate", {"grid_sha256": 5}),
        ("estimate", {"grid_sha256": ["ab"]}),
        ("estimate", {"noise": "loud"}),
        ("estimate", {"noise": [0.1]}),
        ("estimate", {"seed": "abc", "grid_sha256": 5, "noise": "loud"}),
    ],
)
def test_sidecar_error_exit_code(workdir, tmp_path, capsys, command, sidecar):
    data = tmp_path / "data.csv"
    if command == "learn":
        grid = load_grid(workdir / "grid.json")
        export_concentration(
            analytic_concentration(reduced_laplacians(grid), InjectionStatistics.uniform(grid.n)),
            data,
        )
        args = ["learn", "--concentration", str(data), "--alg", "sign"]
    else:
        data.write_text("v_b01,theta_b01\n0.1,0.2\n0.3,0.1\n")
        args = ["estimate", "--samples", str(data)]
    text = sidecar if isinstance(sidecar, str) else json.dumps(sidecar)
    (tmp_path / "data.csv.meta.json").write_text(text)
    code = main([*args, "--out", str(tmp_path / "out.json")])
    assert code == 2
    assert "malformed metadata sidecar" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


@pytest.fixture(scope="module")
def small(tmp_path_factory, workdir):
    """A 500-row sample CSV of the 14-bus grid and its direct estimate."""
    root = tmp_path_factory.mktemp("small")
    assert main([
        "sample", "--grid", str(workdir / "grid.json"), "--n", "500", "--seed", "3",
        "--out", str(root / "s.csv"),
    ]) == 0
    assert main(["estimate", "--samples", str(root / "s.csv"), "--out", str(root / "c.csv")]) == 0
    return root


@pytest.mark.parametrize(
    "args, message",
    [
        (["sample", "--sigma", "nan"], "per-bus variances must be positive"),
        (["sample", "--sigma-pq", "nan"], "per-bus injection block not positive definite"),
        (["sample", "--noise", "nan"], "noise level must be nonnegative"),
        (["estimate", "--ridge", "nan"], "ridge must be nonnegative"),
        (["estimate", "--method", "glasso", "--lambda", "nan"], "penalty must be nonnegative"),
        (["estimate", "--method", "glasso", "--tol", "0"], "tol must be positive"),
        (["estimate", "--method", "glasso", "--tol", "-1"], "tol must be positive"),
        (["estimate", "--method", "glasso", "--tol", "nan"], "tol must be positive"),
        (["learn", "--tau", "nan"], "tau2 must be positive"),
        (["detect", "--tau3", "nan"], "tau3 must be positive"),
        (["sweep", "--noise", "nan"], "scales must be nonnegative"),
        (["sweep", "--epsilon", "nan"], "scales must be nonnegative"),
        (["threshold-sensitivity", "--multipliers", "nan"], "multipliers must be nonnegative"),
        (["threshold-sensitivity", "--multipliers", "-1"], "multipliers must be nonnegative"),
        (["gen-grid", "--r-range", "0.3,0.1"], "r_range must satisfy 0 < low <= high < inf"),
        (["gen-grid", "--r-range", "nan,0.2"], "r_range must satisfy 0 < low <= high < inf"),
        (["gen-grid", "--x-range", "0,0.2"], "x_range must satisfy 0 < low <= high < inf"),
        (["sample", "--sigma", "inf"], "per-bus injection moments must be finite"),
        (["sample", "--noise", "-1"], "noise level must be nonnegative"),
        (["sweep", "--tau1", "-1"], "thresholds tau1 and tau2 must be positive"),
        (["sweep", "--lambda", "-1"], "lam and ridge must be nonnegative"),
        (["estimate", "--method", "glasso", "--max-iter", "0"], "max_iter must be >= 1"),
        (["estimate", "--ridge", "inf"], "ridge must be nonnegative and finite"),
        (
            ["estimate", "--method", "glasso", "--lambda", "inf"],
            "penalty must be nonnegative and finite",
        ),
        (["estimate", "--method", "glasso", "--tol", "inf"], "tol must be positive and finite"),
        (["sweep", "--lambda", "inf"], "lam and ridge must be nonnegative and finite"),
        (["sweep", "--n", "1"], "sample sizes must be >= 2"),
        (["threshold-sensitivity", "--n", "1"], "sample sizes must be >= 2"),
    ],
)
def test_out_of_range_value_exit_code(workdir, small, tmp_path, capsys, args, message):
    # NaN passes a check written as ``x < 0``; every range check rejects it
    grid, conc = str(workdir / "grid.json"), str(small / "c.csv")
    inputs = {
        "sample": ["--grid", grid, "--n", "50"],
        "estimate": ["--samples", str(small / "s.csv")],
        "learn": ["--concentration", conc, "--alg", "sign"],
        "detect": ["--before-conc", conc, "--after-conc", conc],
        "sweep": ["--grid", grid, "--n", "100", "--reps", "1"],
        "threshold-sensitivity": ["--grid", grid, "--n", "100", "--reps", "1"],
        "gen-grid": ["--kind", "tree", "--buses", "6"],
    }
    out = tmp_path / "out"
    code = main([args[0], *inputs[args[0]], *args[1:], "--out", str(out)])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "args, message",
    [
        (["sweep", "--lambda", "5"], "the direct estimator does not take lam"),
        (["estimate", "--lambda", "0.1"], "the direct estimator does not take lam"),
        (
            ["estimate", "--tol", "-5", "--max-iter", "0"],
            "the direct estimator does not take tol, max_iter",
        ),
        (
            ["estimate", "--method", "glasso", "--ridge", "0.1"],
            "the glasso estimator does not take ridge",
        ),
    ],
)
def test_ignored_estimator_option_exit_code(workdir, small, tmp_path, capsys, args, message):
    inputs = {
        "estimate": ["--samples", str(small / "s.csv")],
        "sweep": ["--grid", str(workdir / "grid.json"), "--n", "100", "--reps", "1"],
    }
    out = tmp_path / "out"
    code = main([args[0], *inputs[args[0]], *args[1:], "--out", str(out)])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["learn", "detect", "estimate", "sample"])
def test_non_finite_file_exit_code(workdir, small, tmp_path, capsys, command):
    conc = tmp_path / "inf.csv"
    j = np.loadtxt(small / "c.csv", delimiter=",")
    j[0, 1] = j[1, 0] = np.inf
    np.savetxt(conc, j, delimiter=",")
    (tmp_path / "inf.csv.meta.json").write_text((small / "c.csv.meta.json").read_text())
    header, first, *rest = (small / "s.csv").read_text().splitlines()
    (tmp_path / "nan.csv").write_text("\n".join([header, "nan" + first[first.index(","):], *rest]))
    payload = json.loads((workdir / "grid.json").read_text())
    payload["lines"][0]["r"] = float("nan")
    (tmp_path / "nan.json").write_text(json.dumps(payload))
    args, message = {
        "learn": (
            ["--concentration", str(conc), "--alg", "sign"],
            "concentration matrix has non-finite entries",
        ),
        "detect": (
            ["--before-conc", str(small / "c.csv"), "--after-conc", str(conc), "--tau3", "0.1"],
            "concentration matrix has non-finite entries",
        ),
        "estimate": (["--samples", str(tmp_path / "nan.csv")], "covariance has non-finite entries"),
        "sample": (["--grid", str(tmp_path / "nan.json"), "--n", "5"], "non-finite impedance"),
    }[command]
    out = tmp_path / "out.json"
    code = main([command, *args, "--out", str(out)])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "args, target",
    [
        (["gen-grid", "--kind", "tree", "--buses", "6"], "missing"),
        (["sample", "--n", "50"], "missing"),
        (["estimate"], "missing"),
        (["learn", "--alg", "sign", "--tau", "0.1"], "missing"),
        (["detect", "--tau3", "0.1"], "missing"),
        (["detect", "--n", "100", "--reps", "1"], "file"),
        (["sweep", "--n", "100", "--reps", "1"], "file"),
        (["threshold-sensitivity", "--n", "100", "--reps", "1"], "file"),
    ],
)
def test_failed_write_exit_code(workdir, small, tmp_path, capsys, args, target):
    # --out in a missing directory, or naming a file where a directory goes
    grid_path, conc = workdir / "grid.json", str(small / "c.csv")
    grid = load_grid(grid_path)
    a, b = next(
        (a, b) for a in grid.non_reference for b in grid.non_reference
        if a < b and not grid.has_line(a, b)
    )
    save_grid(apply_line_event(grid, a, b, "add", r=0.1, x=0.2), tmp_path / "after.json")
    detect_inputs = (
        ["--before-conc", conc, "--after-conc", conc] if "--tau3" in args
        else ["--before", str(grid_path), "--after", str(tmp_path / "after.json")]
    )
    inputs = {
        "gen-grid": [],
        "sample": ["--grid", str(grid_path)],
        "estimate": ["--samples", str(small / "s.csv")],
        "learn": ["--concentration", conc],
        "detect": detect_inputs,
        "sweep": ["--grid", str(grid_path)],
        "threshold-sensitivity": ["--grid", str(grid_path)],
    }
    out = tmp_path / "absent" / "out.json"
    if target == "file":
        out = tmp_path / "taken"
        out.write_text("")
    code = main([args[0], *inputs[args[0]], *args[1:], "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out) in err
