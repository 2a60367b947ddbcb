#!/usr/bin/env python3
"""End-to-end benchmark of the gridtopo learning pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one closed-loop, single-client workload for S seconds of request
time, checks every output outside the timed region, prints a
human-readable report and, as the last line, one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. ``--workload all``
runs every workload in turn, each in its own child process so that its
figures (peak RSS above all) are its own, and adds a ``workload`` key to
each workload's JSON line. With ``--trace 0`` the
metrics are the end-to-end ones and no wrappers are installed; with
``--trace 1`` they are the per-layer ones from spans around each gridtopo
call, and every request runs twice, traced and untraced, to measure the
tracing overhead. Exits 1 when a request raises or fails its output check,
and 2 when the gridtopo sources are missing.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import glob
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import REQUEST_TIME_METRICS, Tracer, cpu_time

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".perfbench-work"
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
# Tail percentile: the highest one with at least this many requests beyond it.
TAIL_BEYOND = 10
# A run ends after this many multiples of --seconds of wall time even if the
# request clock has not reached --seconds (checks run outside the clock).
WALL_FACTOR = 4

# A reference job runs before the first request and again each time this
# much request CPU time has passed since the last one, and once at the end.
REFERENCE_EVERY_S = 0.25

# Mean (false + missed) / true edges per learner, and the share of requests
# whose change report misses the event. Reported, not gated: they are 0 on
# most workloads.
QUALITY_METRICS = ("error_ratio_sign", "error_ratio_neighborhood", "detect_error_rate")


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND
    requests beyond it, but not below the median. Below 21 requests no
    percentile above the median has ten beyond it, so the median stands in;
    the clamp keeps the figure continuous as the request count varies."""
    ordered = sorted(times)
    k = len(ordered) - TAIL_BEYOND - 1
    if 2 * (k + 1) <= len(ordered):
        return statistics.median(ordered), 50.0
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS reports, or None if it cannot be asked."""
    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), "..", "numpy.libs", "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy

    import gridtopo

    return {
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_reported": blas_threads(),
        "kernel": gridtopo.active_kernel(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
    }


def peak_rss_kb() -> int:
    """Peak resident set size of this process image (VmHWM). Unlike
    ``ru_maxrss``, it does not inherit the launching process's peak."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("VmHWM missing from /proc/self/status")


class Clock:
    """Wall time and CPU time (``tracing.cpu_time``: all threads, and child
    processes once waited for) of one interval.

    On a shared virtual machine the host can withhold the CPU for seconds
    at a time; wall time counts that wait and CPU time does not. The gated
    figures use CPU time normalized by a :class:`Reference`; wall figures
    are reported beside them. CPU time cannot show a gain from running
    work in parallel; such a gain must be shown on the wall figures."""

    def __init__(self):
        self.wall = time.perf_counter()
        self.cpu = cpu_time()

    def lap(self) -> tuple[float, float]:
        return time.perf_counter() - self.wall, cpu_time() - self.cpu


def _python_job() -> float:
    """Interpreter-bound reference: float arithmetic in a Python loop."""
    total = 0.0
    for i in range(80_000):
        total += (i * 0.5) % 7.3
    return total


@functools.cache
def _numpy_inputs():
    import numpy as np  # after the BLAS pin

    matrix = np.random.default_rng(0).standard_normal((150, 150))
    return np, matrix, matrix @ matrix.T + 150 * np.eye(150)


def _numpy_job() -> float:
    """Array-bound reference: the kinds of call the sampler and the
    covariance make (Philox draws, symmetric eigen-decomposition, Cholesky,
    linear solve, Gram product). Every array stays under 0.5 MB, so the
    job does not move the allocator's thresholds or the peak RSS."""
    np, matrix, spd = _numpy_inputs()
    total = 0.0
    for seed in range(3):
        draws = np.random.Generator(np.random.Philox(seed)).standard_normal((512, 110))
        values, _ = np.linalg.eigh(spd)
        lower = np.linalg.cholesky(spd)
        total += float((draws.T @ draws).sum() + np.linalg.solve(lower, matrix).sum() + values.sum())
    return total


# Reference job -> its median thread CPU time over 200 runs on the
# reference machine: the unit the normalized figures are given in.
REFERENCE_JOBS = {"python": (_python_job, 0.0140), "numpy": (_numpy_job, 0.0171)}


class Reference:
    """Host-speed gauge: a fixed job from the benchmark's own code.

    The host of a shared virtual machine slows this process down by up to
    about 45% for seconds to minutes at a time, in CPU time too. The job
    runs between requests; ``scale()`` is its reference-machine time over
    its measured thread CPU time, so a CPU time multiplied by the mean
    scale of the jobs around it reads in reference-machine seconds."""

    def __init__(self, kind: str):
        self.job, self.nominal_s = REFERENCE_JOBS[kind]
        self.times: list[float] = []
        self.job()  # untimed: builds the inputs and warms the caches

    def scale(self) -> float:
        start = time.thread_time()
        self.job()
        self.times.append(time.thread_time() - start)
        return self.nominal_s / self.times[-1]


def normalized(cpus: list[float], marks: list[tuple[int, float]]) -> list[float]:
    """Each request's CPU time times the mean scale of the reference jobs
    just before and just after it. ``marks`` holds (requests completed when
    the job ran, its scale), in order, ending with a job after the last
    request."""
    out, j = [], 0
    for i, cpu in enumerate(cpus):
        while marks[j + 1][0] <= i:
            j += 1
        out.append(cpu * (marks[j][1] + marks[j + 1][1]) / 2)
    return out


def run_workload(workload, seconds: float, trace: bool, import_times: tuple[float, float]) -> dict:
    """Set up, run the closed loop for ``seconds`` of request wall time,
    check every output; returns the result record."""
    tracer = Tracer() if trace else None
    reference = Reference(workload.reference)
    previous = reference.scale()
    import_norm = import_times[1] * previous
    setups = []
    for _ in range(SETUP_REPEATS):
        clock = Clock()
        if tracer is not None:
            with tracer.active(), tracer.span("setup", "bench", "setup"):
                workload.setup()
        else:
            workload.setup()
        workload.warm_up()
        wall, cpu = clock.lap()
        current = reference.scale()
        setups.append((wall, cpu, cpu * (previous + current) / 2))
        previous = current

    walls, cpus, traced_cpu = [], [], []
    quality: dict[str, list[float]] = {}
    problems: list[tuple[int, str]] = []
    marks = [(0, previous)]
    since_mark = 0.0
    busy = 0.0
    k = 0
    deadline = time.perf_counter() + WALL_FACTOR * seconds + 60
    while busy < seconds and time.perf_counter() < deadline:
        try:
            if tracer is None:
                clock = Clock()
                out = workload.request(k)
                wall, cpu = clock.lap()
            else:
                out, (wall, cpu), span = _paired(workload, tracer, k)
                traced_cpu.append(span.cpu_s)
                busy += span.end - span.start
        except Exception as exc:  # a failed request is counted, not fatal
            problems.append((k, f"{type(exc).__name__}: {exc}"))
        else:
            walls.append(wall)
            cpus.append(cpu)
            busy += wall
            since_mark += cpu
            if since_mark >= REFERENCE_EVERY_S:
                marks.append((len(cpus), reference.scale()))
                since_mark = 0.0
            for key, value in out.quality.items():
                quality.setdefault(key, []).append(value)
            problems += workload.check(k, out)
        k += 1
    peak_rss_mb = peak_rss_kb() / 1024
    if marks[-1][0] < len(cpus):
        marks.append((len(cpus), reference.scale()))
    problems += workload.flush()
    failed = {i for i, _ in problems}

    record = {
        "workload": workload.name,
        "attempted": k,
        "failed": len(failed),
        "problems": problems,
        "requests": len(cpus),
        "quality": {key: statistics.fmean(values) for key, values in quality.items()},
        "notes": workload.notes(),
        "end_to_end": {
            "setup_s": import_norm + statistics.median(n for _, _, n in setups),
            "setup_cpu_s": import_times[1] + statistics.median(c for _, c, _ in setups),
            "setup_wall_s": import_times[0] + statistics.median(w for w, _, _ in setups),
            "peak_rss_mb": peak_rss_mb,
            "reference_job_s": statistics.median(reference.times),
        },
    }
    for label, times in (("ref_", normalized(cpus, marks)), ("cpu_", cpus), ("", walls)):
        value, record["tail_pct"] = tail(times) if times else (float("nan"), 0.0)
        record["end_to_end"].update(
            {
                f"requests_per_{label}s": len(times) / sum(times) if times else 0.0,
                f"request_{label}p50_s": statistics.median(times) if times else float("nan"),
                f"request_{label}tail_s": value,
            }
        )
    if tracer is not None:
        layers = tracer.request_metrics(len(traced_cpu))
        layers.update(tracer.setup_metrics(SETUP_REPEATS))
        layers["trace.overhead_frac"] = sum(traced_cpu) / sum(cpus) - 1 if cpus else 0.0
        record["per_layer"] = layers
        record["spans"] = tracer.records()
    return record


def _paired(workload, tracer, k: int):
    """Run request k traced and untraced, alternating which goes first.
    Returns the untraced output, its (wall, cpu) and the traced root span."""
    for traced in (True, False) if k % 2 == 0 else (False, True):
        if traced:
            with tracer.active(), tracer.span("request", "bench", "request", request=k) as span:
                workload.request(k)
        else:
            clock = Clock()
            out = workload.request(k)
            times = clock.lap()
    return out, times, span


def report(record: dict, env: dict, seed: int, trace: bool) -> list[str]:
    lines = [
        f"workload {record['workload']} seed {seed} trace {int(trace)}",
        "env " + json.dumps(env, sort_keys=True),
    ]
    for name, value in record["end_to_end"].items():
        unit = "MB" if name == "peak_rss_mb" else "1/s" if name.startswith("requests_per") else "s"
        extra = ""
        if "tail" in name:
            extra = f"  (p{record['tail_pct']:.1f} of {record['requests']} requests)"
        lines.append(f"{name} {value:.6g} {unit}{extra}")
    failed_frac = record["failed"] / max(record["attempted"], 1)
    lines.append(f"failed_frac {failed_frac:.6g} ratio  ({record['failed']} of {record['attempted']})")
    for name in QUALITY_METRICS:
        value = record["quality"].get(name)
        lines.append(f"{name} {'n/a' if value is None else format(value, '.6g')} ratio")
    for name, value in record["notes"].items():
        lines.append(f"{name} {value:.6g}")
    for k, problem in record["problems"][:20]:
        lines.append(f"CHECK FAILED request {k}: {problem}")
    if trace:
        layers = record["per_layer"]
        for name, value in sorted(layers.items()):
            share = ""
            if name in REQUEST_TIME_METRICS and layers["request.cpu_s"]:
                share = f"  ({100 * value / layers['request.cpu_s']:.1f}% of request CPU time)"
            lines.append(f"layer {name} {value:.6g}{share}")
    return lines


def result_json(record: dict, bench: dict, trace: bool) -> str:
    if trace:
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        values = record["per_layer"]
    else:
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        values = record["end_to_end"]
    return json.dumps(
        {
            "correct": record["failed"] == 0,
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
        }
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "gridtopo" / "__init__.py").is_file():
        print(f"error: gridtopo sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    if args.workload == "all":
        return run_all([w["name"] for w in bench["workloads"]], args)
    sys.path.insert(0, str(ROOT / "src"))
    clock = Clock()
    import workloads  # imports numpy and gridtopo

    import_times = clock.lap()

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)} or all")
    WORK.mkdir(exist_ok=True)
    env = environment()
    workload = workloads.WORKLOADS[args.workload](WORK, args.seed)
    record = run_workload(workload, args.seconds, bool(args.trace), import_times)
    if args.trace:
        spans = WORK / f"spans-{args.workload}-seed{args.seed}.json"
        with open(spans, "w") as fh:
            json.dump({"env": env, "spans": record.pop("spans")}, fh)
    print("\n".join(report(record, env, args.seed, bool(args.trace))))
    print(result_json(record, bench, bool(args.trace)), flush=True)
    return 1 if record["failed"] else 0


def run_all(names: list[str], args) -> int:
    """Run each workload in its own child process; relay its report and
    tag its JSON line with the workload's name."""
    status = 0
    for name in names:
        argv = ["--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        child = subprocess.run([sys.executable, __file__, *argv], stdout=subprocess.PIPE, text=True)
        lines = child.stdout.splitlines()
        if lines and lines[-1].startswith("{"):
            lines[-1] = json.dumps({"workload": name, **json.loads(lines[-1])})
        print("\n".join(lines), flush=True)
        status = status or child.returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
