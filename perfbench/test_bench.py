"""Self-test of the benchmark at tiny sizes (about half a minute).

    python3 -m pytest -q perfbench/test_bench.py

Checks that every metric named in BENCHMARK.json is emitted with its unit,
that a traced run records spans for each layer a workload touches, and
that each output check rejects a deliberately corrupted output.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import numpy as np  # noqa: E402

import run  # noqa: E402
import workloads as wl  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY8 = wl.GridSpec(8, 1, 7, 8)

# Layers each tiny workload's traced requests must reach.
REQUEST_LAYERS = {
    "sample_complexity_56": {"bench", "sweep", "grid", "sampler", "estimator", "topology"},
    "glasso_restricted_12": {"bench", "sweep", "grid", "sampler", "estimator", "glasso", "topology"},
    "monitor_stream_56": {"bench", "sampler", "estimator", "detect", "topology"},
    "cli_csv_pipeline": {"bench", "cli", "grid", "sampler", "estimator", "topology"},
}


def tiny(name: str, work: Path, seed: int = 3):
    if name == "sample_complexity_56":
        return wl.SweepCell(work, seed, name, wl.CASE12, 20000, "direct")
    if name == "glasso_restricted_12":
        return wl.SweepCell(work, seed, name, TINY8, 200, "glasso")
    if name == "monitor_stream_56":
        return wl.MonitorStream(work, seed, spec=wl.CASE12, window=500)
    return wl.CliPipeline(work, seed, spec=wl.CASE12, n=500)


@pytest.mark.parametrize("name", sorted(REQUEST_LAYERS))
@pytest.mark.parametrize("trace", [False, True])
def test_metrics_emitted_with_units(name, trace, tmp_path):
    record = run.run_workload(tiny(name, tmp_path), 0.3, trace, (0.0, 0.0))
    assert record["failed"] == 0, record["problems"]
    assert record["attempted"] >= 1
    result = json.loads(run.result_json(record, BENCH, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert np.isfinite(emitted["value"])
    if trace:
        spans = record["spans"]
        touched = {s["layer"] for s in spans if s["scope"] == "request"}
        assert REQUEST_LAYERS[name] <= touched
        assert {"generate", "grid"} <= {s["layer"] for s in spans if s["scope"] == "setup"}
        assert 0.9 < result["metrics"]["trace.accounted_frac"]["value"] <= 1.0
    else:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in expected)


def _first(workload):
    workload.setup()
    return workload.request(0)


def test_exact_recovery_check_rejects_nonzero_error(tmp_path):
    workload = tiny("sample_complexity_56", tmp_path)
    out = _first(workload)
    assert workload.check(0, out) == []
    out.payload[0]["error_ratio"] = 0.05
    assert workload.check(0, out)


def test_glasso_check_rejects_wrong_error_and_wrong_solution(tmp_path, monkeypatch):
    workload = tiny("glasso_restricted_12", tmp_path)
    out = _first(workload)
    assert workload.check(0, out) == []
    rows = [dict(r) for r in out.payload]
    rows[1]["error_ratio"] = 0.5
    assert workload.check(0, wl.Output(payload=rows))

    samples = wl.sample_voltages(workload.lap, workload.stats, 200, out.payload[0]["seed"])
    cov = wl.sample_covariance(samples)
    corr = cov / np.outer(np.sqrt(np.diag(cov)), np.sqrt(np.diag(cov)))
    lam = wl.default_lambda(200, 2 * workload.lap.n)
    fit = wl.graphical_lasso(corr, lam)
    assert wl.kkt_residual(fit.j, corr, lam) <= wl.KKT_GATE
    wrong_penalty = wl.graphical_lasso(corr, 1.1 * lam)
    assert wl.kkt_residual(wrong_penalty.j, corr, lam) > wl.KKT_GATE

    # A solver that loosens its own tolerance must not loosen the gate.
    monkeypatch.setattr(wl, "graphical_lasso", functools.partial(wl.graphical_lasso, tol=1e-4))
    assert any("KKT" in problem for _, problem in workload.check(0, out))


def test_monitor_check_rejects_swapped_windows(tmp_path):
    workload = tiny("monitor_stream_56", tmp_path)
    workload.setup()
    outs = [workload.request(k) for k in range(3)]
    for k, out in enumerate(outs):
        assert workload.check(k, out) == []
    assert workload.flush() == []
    swapped = [
        dataclasses.replace(outs[0], payload=(outs[1].payload[0], outs[0].payload[1])),
        dataclasses.replace(outs[1], payload=(outs[0].payload[0], outs[1].payload[1])),
        outs[2],
    ]
    problems = []
    for k, out in enumerate(swapped):
        problems += workload.check(k, out)
    problems += workload.flush()
    assert {k for k, _ in problems} == {0, 1}


def test_cli_check_rejects_exit_code_and_error_mismatch(tmp_path):
    workload = tiny("cli_csv_pipeline", tmp_path)
    out = _first(workload)
    assert workload.check(0, out) == []
    seed, codes, error, log = out.payload
    assert workload.check(0, wl.Output(payload=(seed, [0, 2, 0], error, log)))
    assert workload.check(0, wl.Output(payload=(seed, codes, error + 0.25, log)))


def test_tail_percentile_keeps_ten_beyond():
    times = [float(i) for i in range(1, 101)]
    value, pct = run.tail(times)
    assert value == 90.0 and pct == 90.0
    assert run.tail([3.0, 1.0, 2.0, 4.0]) == (2.5, 50.0)
    assert run.tail(times[:21]) == (11.0, 100.0 * 11 / 21)


def test_normalized_uses_the_reference_jobs_around_each_request():
    # Jobs ran before request 0, after request 1 and after request 2.
    marks = [(0, 1.0), (2, 2.0), (3, 4.0)]
    assert run.normalized([1.0, 1.0, 2.0], marks) == [1.5, 1.5, 6.0]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "monitor_stream_56", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
