import csv
import json
import os
import platform
import subprocess
import sys
import threading
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from _oracles import glasso_kkt_residual
import gridtopo
from gridtopo import cli, glasso, sweep
from gridtopo.errors import ValidationError
from gridtopo.detect import detect_change, diagonal_deltas
from gridtopo.estimator import (
    ConcentrationMatrix,
    analytic_concentration,
    default_ridge,
    direct_concentration,
    gamma_thresholds,
)
from gridtopo.generate import generate_grid
from gridtopo.grid import (
    GridGraph,
    Line,
    apply_line_event,
    load_grid,
    reduced_laplacians,
    save_grid,
)
from gridtopo.sampler import (
    InjectionStatistics,
    NoiseStatistics,
    analytic_voltage_covariance,
    draw_covariance,
    make_correlated_stats,
)
from gridtopo.sweep import (
    DetectConfig,
    ExperimentConfig,
    detect_sweep,
    replay_cell,
    run_sweep,
    threshold_sensitivity,
)
from gridtopo.topology import learn_neighborhood, learn_sign_rule, score


@pytest.fixture(scope="module")
def small_grid_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("grids") / "grid14.json"
    grid = generate_grid("meshed", 14, loops=1, min_cycle=7, seed=2, min_non_leaves=3)
    save_grid(grid, path)
    return str(path)


@pytest.fixture(scope="module")
def other_grid_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("grids") / "grid12.json"
    save_grid(generate_grid("meshed", 12, loops=1, min_cycle=4, seed=6), path)
    return str(path)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestConfig:
    def test_sample_sizes_must_increase(self, small_grid_path):
        with pytest.raises(ValidationError, match="strictly increasing"):
            ExperimentConfig(grid=small_grid_path, sample_sizes=(100, 100))

    def test_unknown_key_rejected(self, small_grid_path):
        with pytest.raises(ValidationError, match="unknown config keys"):
            ExperimentConfig.from_dict({"grid": small_grid_path, "bogus": 1})

    @pytest.mark.parametrize("bad", [{"seed": -1}])
    def test_negative_seed_rejected(self, small_grid_path, bad):
        with pytest.raises(ValidationError, match="non-negative"):
            ExperimentConfig(grid=small_grid_path, sample_sizes=(10,), **bad)

    def test_detect_config_shares_checks(self):
        with pytest.raises(ValidationError, match="non-negative"):
            DetectConfig(before="a.json", after="b.json", seed=-1)
        with pytest.raises(ValidationError, match="at least one sample size"):
            DetectConfig(before="a.json", after="b.json", sample_sizes=())
        with pytest.raises(ValidationError, match="strictly increasing"):
            DetectConfig(before="a.json", after="b.json", sample_sizes=(100, 100))

    @pytest.mark.parametrize(
        "payload, message",
        [
            ({}, r"missing config keys: \['grid'\]"),
            ({"grid": "g.json", "repetitions": "2"}, "'repetitions' must be int"),
            ({"grid": "g.json", "sample_sizes": [10, "20"]}, "'sample_sizes' must be"),
            ({"grid": "g.json", "lam": "0.1"}, "'lam' must be float"),
            ({"grid": "g.json", "sigma": True}, "'sigma' must be float"),
        ],
    )
    def test_from_dict_rejects_missing_and_mistyped(self, payload, message):
        with pytest.raises(ValidationError, match=message):
            ExperimentConfig.from_dict(payload)

    def test_from_dict_accepts_json_types(self):
        config = ExperimentConfig.from_dict(
            {
                "grid": "g.json",
                "sample_sizes": [10, 20],
                "estimator": "glasso",
                "lam": 1,
                "tau1": None,
            }
        )
        assert config.sample_sizes == (10, 20) and config.lam == 1 and config.tau1 is None

    def test_ridge_rejected_with_glasso(self):
        # No sweep flag sets ridge; a config file can.
        with pytest.raises(ValidationError, match="the glasso estimator does not take ridge"):
            ExperimentConfig(grid="g.json", estimator="glasso", ridge=0.1)

    def test_overrides_win(self, small_grid_path):
        config = ExperimentConfig.from_dict(
            {"grid": small_grid_path, "repetitions": 4}, repetitions=2
        )
        assert config.repetitions == 2


class TestRunSweep:
    def test_rows_complete_and_deterministic(self, small_grid_path, tmp_path):
        config = dict(
            grid=small_grid_path,
            sample_sizes=(400, 2000),
            repetitions=2,
            seed=3,
        )
        first = run_sweep(ExperimentConfig(**config))
        second = run_sweep(ExperimentConfig(**config))
        # every (n, rep, algorithm) cell is present
        assert len(first.rows) == 2 * 2 * 2
        strip = lambda rows: [
            {k: v for k, v in row.items() if k != "runtime_ms"} for row in rows
        ]
        assert strip(first.rows) == strip(second.rows)

    def test_csv_bodies_deterministic(self, small_grid_path, tmp_path):
        config = ExperimentConfig(
            grid=small_grid_path, sample_sizes=(400, 2000), repetitions=2, seed=3
        )
        run_sweep(config).write(tmp_path / "a")
        run_sweep(config).write(tmp_path / "b")
        rows_a = read_rows(tmp_path / "a" / "rows.csv")
        rows_b = read_rows(tmp_path / "b" / "rows.csv")
        for ra, rb in zip(rows_a, rows_b):
            ra.pop("runtime_ms"), rb.pop("runtime_ms")
            assert ra == rb
        assert (tmp_path / "a" / "summary.csv").exists()
        assert json.loads((tmp_path / "a" / "meta.json").read_text())["config"]

    def test_meta_records_environment(self, small_grid_path, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        monkeypatch.setenv("MKL_NUM_THREADS", "2")
        config = ExperimentConfig(grid=small_grid_path, sample_sizes=(400,), seed=3)
        run_sweep(config).write(tmp_path)
        environment = json.loads((tmp_path / "meta.json").read_text())["environment"]
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert environment == {
            "kernel": "admm",
            "numpy": np.__version__,
            "python": platform.python_version(),
            "blas": {"name": blas["name"], "version": blas["version"]},
            "blas_threads": {
                "OPENBLAS_NUM_THREADS": "1",
                "OMP_NUM_THREADS": None,
                "MKL_NUM_THREADS": "2",
            },
        }
        assert glasso.active_kernel() == "admm"

    def test_error_decreases_with_samples(self, small_grid_path):
        config = ExperimentConfig(
            grid=small_grid_path,
            sample_sizes=(300, 30000),
            repetitions=3,
            seed=1,
            algorithms=("sign",),
        )
        result = run_sweep(config)
        by_n = {}
        for row in result.rows:
            by_n.setdefault(row["sample_size"], []).append(row["error_ratio"])
        assert np.mean(by_n[30000]) <= np.mean(by_n[300])

    @pytest.mark.parametrize(
        "noise, errors",
        [
            (0.0, [1333, 424, 1279, 383, 629, 1, 595, 4, 105, 0, 111, 0]),
            (1e-4, [1121, 138, 1114, 166, 107, 28, 109, 26, 44, 30, 45, 30]),
        ],
    )
    def test_case56_error_ratios_are_pinned(self, tmp_path, noise, errors):
        # The README's 56-bus grid (57 true edges), with and without noise;
        # the 150-sample cells are ridged. A rounding-level change in the
        # direct estimate must not move a learned edge.
        path = tmp_path / "case56.json"
        grid = generate_grid(
            "meshed",
            56,
            loops=3,
            min_cycle=7,
            seed=58,
            r_range=(0.1, 0.2),
            x_range=(0.1, 0.2),
            min_non_leaves=3,
        )
        save_grid(grid, path)
        config = ExperimentConfig(
            grid=str(path), sample_sizes=(150, 500, 2000), repetitions=2, noise=noise
        )
        rows = run_sweep(config).rows
        assert [row["status"] for row in rows] == ["ok"] * 12
        assert [row["error_ratio"] for row in rows] == [e / 57 for e in errors]

    def test_row_replay(self, small_grid_path):
        config = ExperimentConfig(
            grid=small_grid_path, sample_sizes=(500, 1500), repetitions=2, seed=9
        )
        result = run_sweep(config)
        for row in result.rows[:4]:
            assert row["status"] == "ok"
            again = replay_cell(config, row["sample_size"], row["seed"], row["algorithm"])
            assert again == row["error_ratio"]

    @pytest.mark.parametrize(
        "extra, sizes",
        [
            ({"noise": 0.01, "epsilon": 0.05}, (500, 1500)),
            ({"estimator": "glasso"}, (200,)),
        ],
        ids=["noise-epsilon", "glasso"],
    )
    def test_row_replay_variants(self, small_grid_path, extra, sizes):
        config = ExperimentConfig(
            grid=small_grid_path, sample_sizes=sizes, repetitions=2, seed=9, **extra
        )
        result = run_sweep(config)
        for row in result.rows[:4]:
            assert row["status"] == "ok"
            again = replay_cell(config, row["sample_size"], row["seed"], row["algorithm"])
            assert again == row["error_ratio"]

    def test_glasso_estimator_path(self, small_grid_path):
        # restricted-sample regime with the rate-default penalty on the
        # standardized covariance; the estimation pipeline must complete
        config = ExperimentConfig(
            grid=small_grid_path,
            sample_sizes=(300,),
            repetitions=1,
            seed=5,
            estimator="glasso",
            algorithms=("sign",),
        )
        result = run_sweep(config)
        assert all(row["status"] == "ok" for row in result.rows)
        assert all(row["error_ratio"] is not None for row in result.rows)

    def test_glasso_row_scores_the_stationary_fit_of_the_draw(self, small_grid_path):
        # A glasso row is the score of graphical_lasso on the standardized
        # covariance drawn at the row's seed, and that fit is stationary.
        n = 200
        config = ExperimentConfig(
            grid=small_grid_path, sample_sizes=(n,), repetitions=2, seed=9, estimator="glasso"
        )
        grid = load_grid(small_grid_path)
        lap, stats = reduced_laplacians(grid), InjectionStatistics.uniform(grid.n)
        gamma1, gamma2 = gamma_thresholds(analytic_concentration(lap, stats))
        lam = glasso.default_lambda(n, 2 * grid.n)
        rows = run_sweep(config).rows
        assert len(rows) == 4
        for row in rows:
            cov = draw_covariance(lap, stats, n, row["seed"])
            scale = np.outer(np.sqrt(np.diag(cov)), np.sqrt(np.diag(cov)))
            fit = glasso.graphical_lasso(cov / scale, lam)
            assert glasso_kkt_residual(fit.j, cov / scale, lam) <= 1e-3
            conc = ConcentrationMatrix(fit.j / scale, lap.bus_order, "graphical_lasso")
            if row["algorithm"] == "neighborhood":
                learned = learn_neighborhood(conc, gamma1 / 2)
            else:
                learned = learn_sign_rule(conc, gamma2 / 2)
            assert row["error_ratio"] == score(learned, grid)

    def test_failed_cell_recorded_not_raised(self, small_grid_path):
        # n below the dimension with a forced zero ridge: the estimation
        # fails, the row records it, and the sweep completes
        config = ExperimentConfig(
            grid=small_grid_path,
            sample_sizes=(20,),
            repetitions=1,
            seed=1,
            ridge=0.0,
        )
        result = run_sweep(config)
        assert len(result.rows) == 2
        for row in result.rows:
            assert row["status"].startswith("NumericalError")
            assert row["error_ratio"] is None
        assert result.summary[0]["failed_rows"] == 1

    def test_noise_and_epsilon_recorded(self, small_grid_path):
        config = ExperimentConfig(
            grid=small_grid_path,
            sample_sizes=(400,),
            repetitions=1,
            noise=0.01,
            epsilon=0.05,
        )
        result = run_sweep(config)
        assert result.rows[0]["noise_level"] == 0.01
        assert result.rows[0]["epsilon"] == 0.05

    @pytest.mark.parametrize("setting", [{"noise": 0.01}, {"epsilon": 0.05}])
    def test_settings_reach_the_draw(self, small_grid_path, monkeypatch, setting):
        # A row estimates the covariance drawn, at its seed, from the line-
        # correlated statistics and with noise relative to their signal.
        config = ExperimentConfig(
            grid=small_grid_path,
            sample_sizes=(400, 2000),
            repetitions=2,
            seed=3,
            algorithms=("sign",),
            **setting,
        )
        estimates = []

        def recording(conc, tau):
            estimates.append(conc)
            return learn_sign_rule(conc, tau)

        monkeypatch.setattr(sweep, "learn_sign_rule", recording)
        rows = run_sweep(config).rows
        grid = load_grid(small_grid_path)
        lap, uniform = reduced_laplacians(grid), InjectionStatistics.uniform(grid.n)
        stats = make_correlated_stats(grid, uniform, config.epsilon)
        signal_var = np.diag(analytic_voltage_covariance(lap, stats))
        noise = NoiseStatistics.relative(signal_var, config.noise) if config.noise else None
        tau2 = gamma_thresholds(analytic_concentration(lap, uniform))[1] / 2
        assert len(estimates) == len(rows) == 4
        for row, conc in zip(rows, estimates):
            n = row["sample_size"]
            cov = draw_covariance(lap, stats, n, row["seed"], noise)
            expected = direct_concentration(cov, default_ridge(cov, n), bus_order=lap.bus_order)
            np.testing.assert_array_equal(conc.j, expected.j)
            assert row["error_ratio"] == score(learn_sign_rule(expected, tau2), grid)


class TestThresholdSensitivity:
    def test_multiplier_grid(self, small_grid_path):
        config = ExperimentConfig(
            grid=small_grid_path, sample_sizes=(40000,), repetitions=2, seed=4
        )
        result = threshold_sensitivity(config, (0.8, 1.0, 1.2, 10.0))
        errors = {}
        for row in result.rows:
            errors.setdefault(row["tau_multiplier"], []).append(row["error_ratio"])
        # moderate multipliers recover exactly at this sample size
        for mult in (0.8, 1.0, 1.2):
            assert max(errors[mult]) == 0.0
        # a huge multiplier thresholds true edges away
        assert min(errors[10.0]) > 0.0

    def test_zero_multiplier_admits_spurious_edges(self, small_grid_path):
        config = ExperimentConfig(
            grid=small_grid_path, sample_sizes=(500,), repetitions=1, seed=4
        )
        result = threshold_sensitivity(config, (0.0,))
        errors = [row["error_ratio"] for row in result.rows]
        assert min(errors) > 0.0

    def test_unit_multiplier_matches_run_sweep(self, small_grid_path):
        # both sweeps score one estimate per cell at the same thresholds
        config = ExperimentConfig(
            grid=small_grid_path, sample_sizes=(400, 2000), repetitions=2, seed=3, noise=0.01
        )
        largest = [row for row in run_sweep(config).rows if row["sample_size"] == 2000]
        scaled = threshold_sensitivity(config, (0.8, 1.0)).rows
        unit = [row for row in scaled if row["tau_multiplier"] == 1.0]
        pick = lambda rows: [
            (r["repetition"], r["algorithm"], r["seed"], r["error_ratio"]) for r in rows
        ]
        assert len(unit) == 4 and pick(unit) == pick(largest)

    def test_needs_multipliers(self, small_grid_path):
        config = ExperimentConfig(grid=small_grid_path, sample_sizes=(500,))
        with pytest.raises(ValidationError):
            threshold_sensitivity(config, ())


@pytest.fixture(scope="module")
def grids(tmp_path_factory):
    root = tmp_path_factory.mktemp("detect")
    base = generate_grid("meshed", 12, loops=1, min_cycle=4, seed=6)
    a, b = base.non_reference[1], base.non_reference[8]
    if base.has_line(a, b):
        a, b = base.non_reference[2], base.non_reference[9]
    after = apply_line_event(base, a, b, "add", r=0.1, x=0.2)
    save_grid(base, root / "before.json")
    save_grid(after, root / "after.json")
    return str(root / "before.json"), str(root / "after.json"), (a, b)


class TestDetectSweep:
    def test_accuracy_and_report(self, grids):
        before, after, edge = grids
        config = DetectConfig(
            before=before, after=after, sample_sizes=(500, 20000), repetitions=4, seed=2
        )
        result, report = detect_sweep(config)
        assert report.kind == "added"
        assert report.endpoints == tuple(sorted(edge))
        accuracy = {
            row["sample_size"]: []
            for row in result.rows
        }
        for row in result.rows:
            accuracy[row["sample_size"]].append(1 - row["error_ratio"])
        assert np.mean(accuracy[20000]) >= np.mean(accuracy[500])
        assert np.mean(accuracy[20000]) == 1.0

    def test_summary_counts_failures_per_sample_size(self, grids):
        # n=1 cannot give a covariance, so only that sample size fails
        before, after, _ = grids
        config = DetectConfig(
            before=before, after=after, sample_sizes=(1, 2000), repetitions=3, seed=2
        )
        result, _ = detect_sweep(config)
        counts = {r["sample_size"]: (r["ok_rows"], r["failed_rows"]) for r in result.summary}
        assert counts == {1: (0, 3), 2000: (3, 0)}

    def test_both_windows_carry_the_before_noise(self, grids, monkeypatch):
        # Each window is the public draw at its seed, with noise relative to
        # the before grid's signal variance on the after window as well.
        before, after, edge = grids
        config = DetectConfig(
            before=before,
            after=after,
            sample_sizes=(300, 3000),
            repetitions=2,
            seed=2,
            noise=0.01,
        )
        draws = []

        def recording(lap, stats, n, seed, noise=None):
            cov = draw_covariance(lap, stats, n, seed, noise)
            draws.append((seed, cov))
            return cov

        monkeypatch.setattr(sweep, "draw_covariance", recording)
        result, report = detect_sweep(config)
        lap_b, lap_a = (reduced_laplacians(load_grid(path)) for path in (before, after))
        stats = InjectionStatistics.uniform(lap_b.n)
        noise = NoiseStatistics.relative(np.diag(analytic_voltage_covariance(lap_b, stats)), 0.01)
        j_b, j_a = analytic_concentration(lap_b, stats), analytic_concentration(lap_a, stats)
        order = lap_b.bus_order
        deltas = diagonal_deltas(j_b, j_a)
        tau3 = min(abs(deltas[order.index(b)]) for b in edge) / 2
        assert report == detect_change(j_b, j_a, tau3)

        def estimate(cov, n):
            return direct_concentration(cov, default_ridge(cov, n), bus_order=order)

        assert len(draws) == 2 * len(result.rows) == 8
        for row, (b, a) in zip(result.rows, zip(draws[::2], draws[1::2])):
            n = row["sample_size"]
            assert b[0] == row["seed"]
            cov_b = draw_covariance(lap_b, stats, n, b[0], noise)
            cov_a = draw_covariance(lap_a, stats, n, a[0], noise)
            np.testing.assert_array_equal(b[1], cov_b)
            np.testing.assert_array_equal(a[1], cov_a)
            verdict = detect_change(estimate(cov_b, n), estimate(cov_a, n), tau3)
            assert row["status"] == f"ok:{verdict.kind}"

    def test_grids_without_gammas(self, tmp_path):
        # Detection reads no thresholds, so a grid whose J_vv has no
        # informative off-diagonal entry still detects; a sweep fails on it.
        triangle = GridGraph(
            buses=("r", "a", "b"),
            reference="r",
            lines=(Line("r", "a", 0.1, 0.2), Line("r", "b", 0.2, 0.1), Line("a", "b", 0.1, 0.3)),
        )
        star = apply_line_event(triangle, "a", "b", "remove")
        save_grid(triangle, tmp_path / "before.json")
        save_grid(star, tmp_path / "after.json")
        config = DetectConfig(
            before=str(tmp_path / "before.json"),
            after=str(tmp_path / "after.json"),
            sample_sizes=(2000,),
            repetitions=1,
            noise=0.01,
        )
        _, report = detect_sweep(config)
        assert (report.kind, report.endpoints) == ("removed", ("a", "b"))
        with pytest.raises(ValidationError, match="no informative"):
            run_sweep(ExperimentConfig(grid=config.after, sample_sizes=(100,)))

    def test_identical_grids_rejected(self, grids):
        before, _, _ = grids
        config = DetectConfig(before=before, after=before, sample_sizes=(100,))
        with pytest.raises(ValidationError, match="exactly one line"):
            detect_sweep(config)

    def test_multi_line_difference_rejected(self, grids, tmp_path):
        before, _, _ = grids
        from gridtopo.grid import load_grid

        base = load_grid(before)
        twice = apply_line_event(
            apply_line_event(base, base.non_reference[0], base.non_reference[5], "add", r=0.1, x=0.4),
            base.non_reference[3],
            base.non_reference[7],
            "add",
            r=0.1,
            x=0.4,
        )
        save_grid(twice, tmp_path / "after2.json")
        config = DetectConfig(before=before, after=str(tmp_path / "after2.json"), sample_sizes=(100,))
        with pytest.raises(ValidationError, match="exactly one line"):
            detect_sweep(config)


def _strip(rows):
    """Rows without the wall-clock ``runtime_ms`` column."""
    return [{k: v for k, v in row.items() if k != "runtime_ms"} for row in rows]


def _fresh_rows(fn, *args):
    """``fn(*args)``'s rows from a model built for the call."""
    sweep._built_model.cache_clear()
    return _strip(fn(*args).rows)


def _model(config):
    """The model that sweeps of ``config`` read."""
    settings = (config.sigma, config.sigma_pq, config.epsilon, config.noise)
    return sweep._grid_model(config.grid, *settings)


class TestModelMemo:
    def test_second_sweep_rebuilds_nothing(self, small_grid_path, monkeypatch, tmp_path):
        composite = reduced_laplacians(load_grid(small_grid_path)).composite
        calls = {"reduced_laplacians": 0, "eigvalsh": 0, "solve": 0}

        def counted(name, fn, on_composite):
            def wrapper(a, *args, **kwargs):
                if not on_composite or np.array_equal(a, composite):
                    calls[name] += 1
                return fn(a, *args, **kwargs)

            return wrapper

        sweep._built_model.cache_clear()
        monkeypatch.setattr(
            sweep, "reduced_laplacians", counted("reduced_laplacians", reduced_laplacians, False)
        )
        monkeypatch.setattr(np.linalg, "eigvalsh", counted("eigvalsh", np.linalg.eigvalsh, True))
        monkeypatch.setattr(np.linalg, "solve", counted("solve", np.linalg.solve, True))
        config = ExperimentConfig(grid=small_grid_path, sample_sizes=(400, 2000), seed=3)
        first = run_sweep(config)
        assert calls == {"reduced_laplacians": 1, "eigvalsh": 1, "solve": 1}
        second = run_sweep(config)
        assert calls == {"reduced_laplacians": 1, "eigvalsh": 1, "solve": 1}
        assert _strip(second.rows) == _strip(first.rows)
        # ``sample`` then ``learn --truth`` on one grid share one model.
        sweep._built_model.cache_clear()
        samples, conc = tmp_path / "s.csv", tmp_path / "c.csv"
        sample = ["sample", "--grid", small_grid_path, "--n", "500", "--out", str(samples)]
        assert cli.main(sample) == 0
        assert cli.main(["estimate", "--samples", str(samples), "--out", str(conc)]) == 0
        learn = ["learn", "--concentration", str(conc), "--truth", small_grid_path]
        assert cli.main([*learn, "--alg", "sign", "--out", str(tmp_path / "l.json")]) == 0
        assert calls["reduced_laplacians"] == 2
        assert sweep._built_model.cache_info()[:2] == (1, 1)  # (hits, misses)

    def test_rewritten_file_gives_fresh_rows(self, small_grid_path, other_grid_path, tmp_path):
        path = tmp_path / "grid.json"
        config = ExperimentConfig(grid=str(path), sample_sizes=(400,), repetitions=2, seed=3)
        path.write_text(Path(small_grid_path).read_text())
        before = _strip(run_sweep(config).rows)
        path.write_text(Path(other_grid_path).read_text())
        after = _strip(run_sweep(config).rows)
        assert after == _fresh_rows(run_sweep, config)
        path.write_text(Path(small_grid_path).read_text())
        assert _strip(run_sweep(config).rows) == before != after

    @pytest.mark.parametrize(
        "change",
        [
            {"sigma": 2e-2},
            {"sigma_pq": 1e-3},
            {"epsilon": 0.05},
            {"noise": 0.01},
            {"sigma_pq": -0.0},
        ],
    )
    def test_each_model_setting_misses(self, small_grid_path, change):
        config = ExperimentConfig(grid=small_grid_path, sample_sizes=(400,), repetitions=2, seed=3)
        sweep._built_model.cache_clear()
        run_sweep(config)
        run_sweep(replace(config, seed=4, estimator="glasso", tau1=1e-3, algorithms=("sign",)))
        assert sweep._built_model.cache_info()[:2] == (1, 1)  # (hits, misses)
        changed = replace(config, **change)
        rows = _strip(run_sweep(changed).rows)
        assert sweep._built_model.cache_info()[:2] == (1, 2)
        assert rows == _fresh_rows(run_sweep, changed)

    @pytest.mark.parametrize("text", [None, "{not json"], ids=["missing", "bad-json"])
    def test_failed_build_raises_as_load_grid_and_keeps_nothing(self, tmp_path, text):
        path = tmp_path / "grid.json"
        if text is not None:
            path.write_text(text)
        with pytest.raises(ValidationError) as expected:
            load_grid(str(path))
        sweep._built_model.cache_clear()
        config = ExperimentConfig(grid=str(path), sample_sizes=(400,))
        for fn, args in [(run_sweep, ()), (threshold_sensitivity, ((1.0,),))]:
            with pytest.raises(ValidationError) as got:
                fn(config, *args)
            assert str(got.value) == str(expected.value)
            assert str(got.value).startswith("cannot parse grid file")
            assert sweep._built_model.cache_info().currsize == 0

    def test_one_entry(self, small_grid_path, other_grid_path):
        config = ExperimentConfig(grid=small_grid_path, sample_sizes=(400,), repetitions=1)
        run_sweep(config)
        first = weakref.ref(_model(config).lap)
        run_sweep(ExperimentConfig(grid=other_grid_path, sample_sizes=(400,), repetitions=1))
        assert first() is None

    def test_threads_on_two_grids_give_serial_rows(self, small_grid_path, other_grid_path):
        configs = [
            ExperimentConfig(
                grid=path, sample_sizes=(400, 2000), repetitions=2, seed=5, noise=0.01
            )
            for path in (small_grid_path, other_grid_path)
        ]
        serial = [_fresh_rows(run_sweep, config) for config in configs]
        # Four threads, two per grid, on a short switch interval, so that
        # calls on the two grids interleave inside the one-entry memo.
        results = [[] for _ in range(4)]

        def work(k):
            for _ in range(4):
                results[k].append(_strip(run_sweep(configs[k % 2]).rows))

        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [[serial[k % 2]] * 4 for k in range(4)]

    def test_calls_in_one_process_match_fresh_processes(self, small_grid_path):
        # Each call of the chain runs once here, with the model kept from the
        # call before, and once in its own interpreter, with a fresh model.
        fields = dict(
            grid=small_grid_path, sample_sizes=(400, 2000), repetitions=2, seed=7, noise=0.01
        )
        config = ExperimentConfig(**fields)
        rows = _strip(run_sweep(config).rows)
        scaled = _strip(threshold_sensitivity(config, (0.5, 1.0)).rows)
        cells = [(r["sample_size"], r["seed"], r["algorithm"]) for r in rows]
        replayed = [replay_cell(config, *cell) for cell in cells]
        assert replayed == [r["error_ratio"] for r in rows]
        code = (
            "import json, sys\n"
            "from gridtopo.sweep import (\n"
            "    ExperimentConfig, replay_cell, run_sweep, threshold_sensitivity\n"
            ")\n"
            "step, fields, cells = json.loads(sys.argv[1])\n"
            "config = ExperimentConfig(**fields)\n"
            "if step == 'sweep':\n"
            "    out = run_sweep(config).rows\n"
            "elif step == 'sensitivity':\n"
            "    out = threshold_sensitivity(config, (0.5, 1.0)).rows\n"
            "else:\n"
            "    out = [replay_cell(config, *cell) for cell in cells]\n"
            "print(json.dumps(out))\n"
        )
        src = str(Path(gridtopo.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        fresh = {}
        for step in ("sweep", "sensitivity", "replay"):
            arg = json.dumps([step, fields, cells])
            out = subprocess.run(
                [sys.executable, "-c", code, arg], env=env, capture_output=True, text=True
            )
            assert out.returncode == 0, out.stderr
            fresh[step] = json.loads(out.stdout)
        assert _strip(fresh["sweep"]) == rows
        assert _strip(fresh["sensitivity"]) == scaled
        assert fresh["replay"] == replayed
