"""Acceptance suite.

Each test implements one acceptance criterion at its stated tolerance and
prints a single pass/fail line (run with ``pytest tests/test_acceptance.py
-v -s`` to see them). Shared large fixtures are module-scoped so the suite
stays inside its runtime budgets.
"""

import itertools
import math
import sys
import time

import networkx as nx
import numpy as np
import pytest

from _oracles import penalized_objective, proximal_gradient_glasso, random_connected_grid
from conftest import random_stats
from gridtopo.detect import detect_change, diagonal_deltas
from gridtopo.estimator import (
    NUMERIC_ZERO_FLOOR,
    analytic_concentration,
    gamma_thresholds,
    noise_deviation_bound,
    noisy_concentration,
)
from gridtopo.generate import generate_grid
from gridtopo.glasso import glasso_objective, graphical_lasso
from gridtopo.grid import apply_line_event, reduced_laplacians, save_grid
from gridtopo.sampler import (
    InjectionStatistics,
    NoiseStatistics,
    analytic_voltage_covariance,
)
from gridtopo.sweep import (
    DetectConfig,
    ExperimentConfig,
    detect_sweep,
    run_sweep,
    threshold_sensitivity,
)
from gridtopo.topology import learn_neighborhood, learn_sign_rule, score


def report(cid: str, ok: bool, detail: str, elapsed: float, budget: float):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    line = f"[acceptance] {cid}: {status} ({detail}; {elapsed:.1f}s of {budget:.0f}s budget)"
    print(line)
    if sys.stdout is not sys.__stdout__:  # show the line despite capture
        print(line, file=sys.__stdout__)
    assert ok, f"{cid}: {detail}"
    assert elapsed < budget, f"{cid}: runtime {elapsed:.1f}s exceeds {budget:.0f}s"


def rel_frobenius(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


@pytest.fixture(scope="module")
def lemma_suite():
    """100 random connected grids (N <= 30) with per-bus statistics in the
    stated ranges and p-q correlation keeping every block determinant
    positive."""
    suite = []
    for seed in range(100):
        rng = np.random.default_rng(10_000 + seed)
        buses = int(rng.integers(4, 32))
        grid = random_connected_grid(
            buses,
            extra_edges=int(rng.integers(0, 5)),
            seed=10_000 + seed,
            r_range=(0.01, 1.0),
            x_range=(0.01, 1.0),
        )
        suite.append((grid, reduced_laplacians(grid), random_stats(grid.n, 10_000 + seed)))
    return suite


@pytest.fixture(scope="module")
def grid56(tmp_path_factory):
    """56-bus, 3-loop, minimum-cycle-7 analog of the paper's meshed case."""
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
    path = tmp_path_factory.mktemp("accept") / "case56.json"
    save_grid(grid, path)
    return grid, str(path)


@pytest.fixture(scope="module")
def detect33(tmp_path_factory):
    """33-bus loopy analog with a removable (b06, b26) loop line and an
    addable (b08, b21) pair, mirroring the change-detection cases."""
    root = tmp_path_factory.mktemp("detect33")
    base = generate_grid("tree", 33, seed=33, r_range=(0.1, 0.2), x_range=(0.1, 0.2))
    base = apply_line_event(base, "b06", "b26", "add", r=0.15, x=0.15)
    for a, b in (("b03", "b18"), ("b11", "b29"), ("b04", "b17")):
        if len(base.lines) >= 35:
            break
        if not base.has_line(a, b):
            base = apply_line_event(base, a, b, "add", r=0.15, x=0.15)
    assert not base.has_line("b08", "b21")
    added = apply_line_event(base, "b08", "b21", "add", r=0.15, x=0.15)
    removed = apply_line_event(base, "b06", "b26", "remove")
    paths = {}
    for name, g in (("base", base), ("added", added), ("removed", removed)):
        save_grid(g, root / f"{name}.json")
        paths[name] = str(root / f"{name}.json")
    return paths


def test_c1_analytic_concentration_equals_inverse(lemma_suite):
    t0 = time.perf_counter()
    worst = 0.0
    for _, lap, stats in lemma_suite:
        j = analytic_concentration(lap, stats).j
        j_inv = np.linalg.inv(analytic_voltage_covariance(lap, stats))
        worst = max(worst, rel_frobenius(j, j_inv))
    report(
        "C1 closed-form concentration vs numeric inverse",
        worst < 1e-8,
        f"worst relative error {worst:.2e} over 100 grids (tol 1e-8)",
        time.perf_counter() - t0,
        10.0,
    )


def test_c2_two_hop_sparsity(lemma_suite):
    t0 = time.perf_counter()
    worst = 0.0
    for grid, lap, stats in lemma_suite:
        conc = analytic_concentration(lap, stats)
        g = nx.Graph()
        g.add_nodes_from(grid.buses)
        g.add_edges_from((line.a, line.b) for line in grid.lines)
        dist = dict(nx.all_pairs_shortest_path_length(g))
        floor = NUMERIC_ZERO_FLOOR * np.abs(conc.j).max()
        order = lap.bus_order
        n = len(order)
        far = np.zeros((n, n), dtype=bool)
        for i, a in enumerate(order):
            for k, b in enumerate(order):
                if dist[a].get(b, math.inf) >= 3:
                    far[i, k] = True
        for block in (conc.j_vv, conc.j[:n, n:], conc.j[n:, :n], conc.j_thetatheta):
            if far.any():
                worst = max(worst, float(np.abs(block[far]).max() / floor))
    report(
        "C2 entries vanish beyond two hops",
        worst < 1.0,
        f"worst entry {worst:.2e} of the 1e-10*max floor over 100 grids",
        time.perf_counter() - t0,
        10.0,
    )


def test_c3_sign_rule_exact_on_triangle_free_grids():
    t0 = time.perf_counter()
    exact = 0
    for k in range(50):
        kind = "tree" if k % 5 == 4 else "meshed"
        buses = 12 + (k % 24)
        if kind == "tree":
            grid = generate_grid("tree", buses, seed=300 + k)
        else:
            grid = generate_grid(
                "meshed", buses, loops=1 + k % 3, min_cycle=4 + k % 5, seed=300 + k
            )
        lap = reduced_laplacians(grid)
        conc = analytic_concentration(lap, InjectionStatistics.uniform(grid.n))
        _, gamma2 = gamma_thresholds(conc)
        exact += score(learn_sign_rule(conc, gamma2 / 2), grid) == 0.0
    report(
        "C3 sign rule exact on triangle-free grids",
        exact == 50,
        f"{exact}/50 exact recoveries",
        time.perf_counter() - t0,
        30.0,
    )


def test_c4_neighborhood_search_exact_and_triangle_failures():
    t0 = time.perf_counter()
    exact = 0
    for k in range(50):
        kind = "tree" if k % 5 == 4 else "meshed"
        buses = 16 + (k % 24)
        if kind == "tree":
            grid = generate_grid("tree", buses, seed=400 + k, min_non_leaves=3)
        else:
            grid = generate_grid(
                "meshed",
                buses,
                loops=1 + k % 2,
                min_cycle=7 + k % 2,
                seed=400 + k,
                min_non_leaves=3,
            )
        lap = reduced_laplacians(grid)
        conc = analytic_concentration(lap, InjectionStatistics.uniform(grid.n))
        gamma1, _ = gamma_thresholds(conc)
        exact += score(learn_neighborhood(conc, gamma1 / 2), grid) == 0.0

    failures = 0
    for k in range(20):
        grid = generate_grid("meshed", 25 + (k % 8), loops=3, min_cycle=3, seed=450 + k)
        lap = reduced_laplacians(grid)
        conc = analytic_concentration(lap, InjectionStatistics.uniform(grid.n))
        gamma1, _ = gamma_thresholds(conc)
        failures += score(learn_neighborhood(conc, gamma1 / 2), grid) > 0.0
    report(
        "C4 neighborhood search exact above cycle length six",
        exact == 50 and failures >= 1,
        f"{exact}/50 exact on cycle>=7 grids; {failures}/20 triangle grids err",
        time.perf_counter() - t0,
        60.0,
    )


def test_c5_sample_complexity_sweep(grid56):
    t0 = time.perf_counter()
    _, path = grid56
    config = ExperimentConfig(
        grid=path,
        sample_sizes=(500, 1000, 5000, 10000, 100000),
        repetitions=10,
        seed=1,
    )
    result = run_sweep(config)
    means = {}
    for cell in result.summary:
        means[(cell["sample_size"], cell["algorithm"])] = cell["mean_error"]
    sizes = config.sample_sizes
    sign_means = [means[(n, "sign")] for n in sizes]
    nbr_means = [means[(n, "neighborhood")] for n in sizes]
    zero_at_top = sign_means[-1] == 0.0
    inversions = [
        b - a for a, b in zip(sign_means, sign_means[1:]) if b > a + 1e-12
    ]
    trend_ok = len(inversions) == 0 or (len(inversions) == 1 and inversions[0] <= 0.02)
    dominance = all(s <= n for s, n in zip(sign_means, nbr_means))
    report(
        "C5 sample-size sweep on the 56-bus cycle-7 analog",
        zero_at_top and trend_ok and dominance,
        f"sign-rule means {['%.3f' % m for m in sign_means]}, "
        f"neighborhood means {['%.3f' % m for m in nbr_means]}",
        time.perf_counter() - t0,
        600.0,
    )


def test_c6_noise_robust_recovery():
    t0 = time.perf_counter()
    exact = 0
    for k in range(20):
        grid = generate_grid(
            "meshed",
            18 + (k % 10),
            loops=1 + k % 2,
            min_cycle=7,
            seed=600 + k,
            r_range=(0.1, 0.2),
            x_range=(0.1, 0.2),
            min_non_leaves=3,
        )
        lap = reduced_laplacians(grid)
        stats = InjectionStatistics.uniform(grid.n)
        conc = analytic_concentration(lap, stats)
        gamma1, gamma2 = gamma_thresholds(conc)
        lam_h2 = float(np.max(np.abs(np.linalg.eigvalsh(lap.composite))) ** 2)
        sigma_pq_i = stats.sigma_pp + stats.sigma_qq - np.abs(stats.sigma_pp - stats.sigma_qq)
        # noise tolerance of the threshold guarantee, taken at half margin
        limit = min(2 * gamma1, gamma2) * (sigma_pq_i.min() ** 2) / (8 * lam_h2**2)
        eta = limit / 4
        noise = NoiseStatistics.from_vectors(np.full(grid.n, eta), np.full(grid.n, eta))
        bound = noise_deviation_bound(lap, stats, noise)
        assert bound.per_bus_value < min(2 * gamma1, gamma2) / 4
        noisy = noisy_concentration(lap, stats, noise)
        e1 = score(learn_neighborhood(noisy, gamma1 / 2), grid)
        e2 = score(learn_sign_rule(noisy, gamma2 / 2), grid)
        exact += e1 == 0.0 and e2 == 0.0
    report(
        "C6 exact recovery under bounded noise",
        exact == 20,
        f"{exact}/20 grids recovered exactly from the noisy concentration",
        time.perf_counter() - t0,
        30.0,
    )


def test_c7_noise_bound_validity():
    t0 = time.perf_counter()
    held = 0
    for k in range(100):
        rng = np.random.default_rng(700 + k)
        grid = random_connected_grid(
            int(rng.integers(4, 16)), extra_edges=int(rng.integers(0, 4)), seed=700 + k
        )
        lap = reduced_laplacians(grid)
        stats = random_stats(grid.n, seed=700 + k)
        dim = 2 * grid.n
        if k < 50:
            signal = np.diag(analytic_voltage_covariance(lap, stats))
            level = float(rng.uniform(0.001, 0.05))
            noise = NoiseStatistics.relative(signal, level)
        else:
            a = rng.standard_normal((dim, dim))
            scale = float(rng.uniform(1e-6, 1e-3))
            noise = NoiseStatistics(matrix=scale * (a @ a.T) / dim)
        bound = noise_deviation_bound(lap, stats, noise)
        delta = noisy_concentration(lap, stats, noise).j - analytic_concentration(lap, stats).j
        empirical = float(np.abs(delta).max())
        ok = empirical <= bound.value * (1 + 1e-9)
        if bound.per_bus_value is not None:
            ok = ok and empirical <= bound.per_bus_value * (1 + 1e-9)
        held += ok
    report(
        "C7 eigenvalue bounds dominate the exact deviation",
        held == 100,
        f"{held}/100 instances within the bounds",
        time.perf_counter() - t0,
        30.0,
    )


def test_c8_change_detection(detect33):
    t0 = time.perf_counter()
    exact = 0
    for k in range(50):
        rng = np.random.default_rng(800 + k)
        grid = generate_grid(
            "meshed", int(rng.integers(10, 34)), loops=2, min_cycle=4, seed=800 + k
        )
        stats = random_stats(grid.n, seed=800 + k, correlated_pq=False)
        non_ref = sorted(grid.non_reference)
        if k % 2 == 0:
            candidates = [
                (a, b)
                for a, b in itertools.combinations(non_ref, 2)
                if not grid.has_line(a, b)
            ]
            a, b = candidates[int(rng.integers(0, len(candidates)))]
            after = apply_line_event(grid, a, b, "add", r=0.15, x=0.15)
            want = "added"
        else:
            g = nx.Graph((line.a, line.b) for line in grid.lines)
            bridges = {tuple(sorted(e)) for e in nx.bridges(g)}
            removable = sorted(grid.scored_edges - bridges)
            a, b = removable[int(rng.integers(0, len(removable)))]
            after = apply_line_event(grid, a, b, "remove")
            want = "removed"
        j_b = analytic_concentration(reduced_laplacians(grid), stats)
        j_a = analytic_concentration(reduced_laplacians(after), stats)
        deltas = diagonal_deltas(j_b, j_a)
        order = j_b.bus_order
        tau3 = min(abs(deltas[order.index(e)]) for e in (a, b)) / 2
        rep = detect_change(j_b, j_a, tau3)
        exact += rep.kind == want and rep.endpoints == (a, b)

    def accuracy(before, after, n, reps, noise=0.0):
        cfg = DetectConfig(
            before=before, after=after, sample_sizes=(n,), repetitions=reps,
            seed=8, noise=noise,
        )
        result, _ = detect_sweep(cfg)
        return 1 - float(np.mean([r["error_ratio"] for r in result.rows]))

    acc_large = min(
        accuracy(detect33["base"], detect33["added"], 100_000, 10),
        accuracy(detect33["base"], detect33["removed"], 100_000, 10),
    )
    acc_clean = accuracy(detect33["base"], detect33["added"], 1_000, 30)
    acc_noisy = accuracy(detect33["base"], detect33["added"], 1_000, 30, noise=0.01)
    report(
        "C8 single-line change detection",
        exact == 50 and acc_large == 1.0 and acc_noisy < acc_clean,
        f"analytic {exact}/50; accuracy at n=1e5 {acc_large:.2f}; "
        f"n=1e3 clean {acc_clean:.2f} vs 1% noise {acc_noisy:.2f}",
        time.perf_counter() - t0,
        300.0,
    )


def test_c10_graphical_lasso_oracle():
    t0 = time.perf_counter()
    worst_gap = 0.0
    for k in range(10):
        rng = np.random.default_rng(1000 + k)
        x = rng.standard_normal((32, 4))
        cov = x.T @ x / 32
        conc = graphical_lasso(cov, 0.1, tol=1e-10)
        oracle = proximal_gradient_glasso(cov, 0.1)
        gap = abs(glasso_objective(cov, conc.j, 0.1) - penalized_objective(cov, oracle, 0.1))
        worst_gap = max(worst_gap, gap)

    tol = 1e-6
    rng = np.random.default_rng(1100)
    x = rng.standard_normal((64, 8))
    cov = x.T @ x / 64
    conc0 = graphical_lasso(cov, 0.0, tol=tol)
    inv = np.linalg.inv(cov)
    unpen = rel_frobenius(conc0.j, inv)
    report(
        "C10 penalized estimator against a convex-solver oracle",
        worst_gap < 1e-6 and unpen < 10 * tol,
        f"worst objective gap {worst_gap:.2e} over ten 4x4 instances; "
        f"lam=0 relative error {unpen:.2e} (tol {10 * tol:.0e})",
        time.perf_counter() - t0,
        10.0,
    )


def test_c11_threshold_sensitivity(grid56):
    t0 = time.perf_counter()
    _, path = grid56
    config = ExperimentConfig(grid=path, sample_sizes=(100_000,), repetitions=10, seed=11)
    result = threshold_sensitivity(config, (0.8, 1.0, 1.2))
    worst = max(row["error_ratio"] for row in result.rows)
    report(
        "C11 recovery stable under 20% threshold variation",
        worst == 0.0,
        f"worst error {worst} across multipliers 0.8/1.0/1.2, both algorithms",
        time.perf_counter() - t0,
        300.0,
    )


def test_c12_injection_correlation(grid56):
    t0 = time.perf_counter()
    grid, path = grid56
    lap = reduced_laplacians(grid)
    base = InjectionStatistics.uniform(grid.n)
    conc = analytic_concentration(lap, base)
    gamma1, gamma2 = gamma_thresholds(conc)
    # thresholds tuned once in the large-sample limit (here: on the exact
    # perturbed concentration matrix), then held fixed for the sampled runs
    from gridtopo.sampler import make_correlated_stats

    stats_c = make_correlated_stats(grid, base, 0.10)
    jc = analytic_concentration(lap, stats_c)
    multipliers = (0.5, 0.75, 1.0, 1.25, 1.5, 2.0)
    tau1 = min((score(learn_neighborhood(jc, m * gamma1 / 2), grid), m) for m in multipliers)[1] * gamma1 / 2
    tau2 = min((score(learn_sign_rule(jc, m * gamma2 / 2), grid), m) for m in multipliers)[1] * gamma2 / 2
    config = ExperimentConfig(
        grid=path,
        sample_sizes=(100_000,),
        repetitions=10,
        seed=12,
        epsilon=0.10,
        tau1=tau1,
        tau2=tau2,
    )
    result = run_sweep(config)
    means = {cell["algorithm"]: cell["mean_error"] for cell in result.summary}
    report(
        "C12 ten-percent injection correlation",
        means["neighborhood"] < 0.1 and means["sign"] < 0.1,
        f"mean errors neighborhood {means['neighborhood']:.3f}, sign {means['sign']:.3f} "
        "(tuned thresholds held fixed)",
        time.perf_counter() - t0,
        300.0,
    )
