import ast
import csv
import io
import json
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_stats, traced_peak
from gridtopo import sampler
from gridtopo.errors import NumericalError, ValidationError
from gridtopo.estimator import direct_concentration, noise_deviation_bound
from gridtopo.generate import generate_grid, random_connected_grid
from gridtopo.grid import reduced_laplacians
from gridtopo.sampler import (
    InjectionStatistics,
    NoiseStatistics,
    VoltageSampleSet,
    add_noise,
    analytic_voltage_covariance,
    draw_covariance,
    export_samples,
    import_samples,
    make_correlated_stats,
    sample_voltages,
)


def rel_frobenius(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


# consecutive windows [0, 1), [1, 4096), [4096, 8193) across the block
# boundary at 8192, then 2000 rows inside the third 4096-row block
PIECES = (1, 4095, 4097, 2000, 1807)


def in_pieces(draw, sizes=PIECES):
    """Concatenate ``draw(count, offset)`` over consecutive windows."""
    offsets = np.cumsum((0,) + tuple(sizes[:-1]))
    return np.vstack([draw(count, int(offset)) for count, offset in zip(sizes, offsets)])


# windows around the 512-row chunk and the 4096-row block; read in order
# they end at 31825, gapped at 32625, inside the stream's first 8 blocks
WINDOWS = (1, 511, 512, 513, 2000, 4095, 4096, 4097, 16000)
REFERENCE_ROWS = 8 * 4096


def block_reference(factor, seed, stop=REFERENCE_ROWS):
    """Rows [0, stop) of the seed's stream, each Philox block mapped whole."""
    mapped = [
        factor
        @ np.random.Generator(np.random.Philox(seed=np.random.SeedSequence((seed, blk))))
        .standard_normal((4096, factor.shape[1]))
        .T
        for blk in range(-(-stop // 4096))
    ]
    return np.hstack(mapped).T[:stop]


def transfer(lap, stats):
    return np.linalg.solve(lap.composite, np.linalg.cholesky(stats.covariance()))


def assert_windows(draw, reference, gap=100):
    """``draw(count, offset)`` equals the reference for consecutive windows
    (the cursor resumes), gapped and backward ones, and with the cursor
    cleared before every window."""
    offsets = np.cumsum((0,) + WINDOWS[:-1]).tolist()
    consecutive = list(zip(WINDOWS, offsets))
    gapped = [(n, offset + gap * k) for k, (n, offset) in enumerate(consecutive)]
    for order, fresh in (
        (consecutive, False),
        (gapped, False),
        (consecutive[::-1], False),
        (consecutive, True),
    ):
        for n, offset in order:
            if fresh:
                sampler._cursor.clear()
            got = draw(n, offset)
            assert np.array_equal(got, reference[offset : offset + n]), (n, offset, fresh)


@pytest.fixture(scope="module")
def meshed56():
    grid = generate_grid("meshed", 56, loops=3, min_cycle=7, seed=1)
    stats = make_correlated_stats(grid, random_stats(grid.n, seed=56), 0.05)
    return reduced_laplacians(grid), stats


class TestInjectionStatistics:
    def test_uniform_defaults(self):
        stats = InjectionStatistics.uniform(4)
        assert np.all(stats.sigma_pp == 1e-2)
        assert np.all(stats.sigma_pq == 0.0)

    def test_rejects_degenerate_block(self):
        with pytest.raises(ValidationError, match="positive definite"):
            InjectionStatistics(
                sigma_pp=np.ones(2), sigma_qq=np.ones(2), sigma_pq=np.array([0.0, 1.0])
            )

    def test_rejects_non_finite_perturbation(self):
        with pytest.raises(ValidationError, match="precision perturbation has non-finite entries"):
            InjectionStatistics(
                sigma_pp=np.ones(2),
                sigma_qq=np.ones(2),
                sigma_pq=np.zeros(2),
                precision_perturbation=np.full((4, 4), np.nan),
            )

    def test_covariance_precision_inverse(self):
        stats = random_stats(5, seed=3)
        assert np.linalg.inv(stats.covariance()) == pytest.approx(
            stats.precision(), rel=1e-10
        )


class TestSampling:
    def test_two_bus_identity_covariance(self, two_bus):
        lap = reduced_laplacians(two_bus)
        stats = InjectionStatistics.uniform(1, variance=1.0)
        samples = sample_voltages(lap, stats, 100_000, seed=11)
        emp = np.cov(samples.samples, rowvar=False)
        assert np.abs(emp - np.eye(2)).max() < 0.05

    def test_deterministic(self, path3):
        lap = reduced_laplacians(path3)
        stats = InjectionStatistics.uniform(2)
        a = sample_voltages(lap, stats, 1, seed=5)
        b = sample_voltages(lap, stats, 1, seed=5)
        assert np.array_equal(a.samples, b.samples)

    def test_partition_invariance(self, path3, meshed56):
        # the stream is counter-based: generating in pieces is identical
        lap = reduced_laplacians(path3)
        stats = InjectionStatistics.uniform(2)
        whole = sample_voltages(lap, stats, 10_000, seed=5)
        parts = np.vstack(
            [
                sample_voltages(lap, stats, 3_000, seed=5).samples,
                sample_voltages(lap, stats, 4_096, seed=5, offset=3_000).samples,
                sample_voltages(lap, stats, 2_904, seed=5, offset=7_096).samples,
            ]
        )
        assert np.array_equal(whole.samples, parts)
        # full 56-bus width (110 columns), where BLAS maps few-row products
        # with other kernels than whole blocks
        lap, stats = meshed56
        whole = sample_voltages(lap, stats, sum(PIECES), seed=5)
        parts = in_pieces(lambda n, offset: sample_voltages(lap, stats, n, 5, offset).samples)
        assert whole.samples.shape[1] == 110
        assert np.array_equal(whole.samples, parts)
        # chunked mapping and the cursor against whole-block products at
        # 4, 22 and 110 columns
        tree = generate_grid("tree", 12, seed=13)
        cases = (
            (reduced_laplacians(path3), InjectionStatistics.uniform(2)),
            (reduced_laplacians(tree), random_stats(tree.n, seed=22)),
            meshed56,
        )
        for (lap, stats), width in zip(cases, (4, 22, 110)):
            reference = block_reference(transfer(lap, stats), seed=5)
            assert reference.shape[1] == width
            assert_windows(
                lambda n, offset: sample_voltages(lap, stats, n, 5, offset).samples, reference
            )

    def test_matches_reference_formula(self, meshed56):
        # the stream's first two blocks as injections, then the Laplacian solve
        lap, stats = meshed56
        samples = sample_voltages(lap, stats, 5000, seed=3)
        z = np.vstack(
            [
                np.random.Generator(
                    np.random.Philox(seed=np.random.SeedSequence((3, blk)))
                ).standard_normal((4096, 110))
                for blk in (0, 1)
            ]
        )[:5000]
        chol = np.linalg.cholesky(stats.covariance())
        reference = np.linalg.solve(lap.composite, chol @ z.T).T
        assert np.abs(samples.samples - reference).max() <= 1e-12 * np.abs(reference).max()

    def test_invalid_count(self, path3):
        lap = reduced_laplacians(path3)
        with pytest.raises(ValidationError):
            sample_voltages(lap, InjectionStatistics.uniform(2), 0, seed=1)

    def test_negative_seed_or_offset(self, path3):
        lap, stats = reduced_laplacians(path3), InjectionStatistics.uniform(2)
        with pytest.raises(ValidationError, match="non-negative"):
            sample_voltages(lap, stats, 5, seed=-2)
        with pytest.raises(ValidationError, match="non-negative"):
            sample_voltages(lap, stats, 5, seed=1, offset=-1)
        samples = sample_voltages(lap, stats, 5, seed=1)
        with pytest.raises(ValidationError, match="non-negative"):
            add_noise(samples, NoiseStatistics.from_vectors([0.1, 0.1], [0.1, 0.1]), seed=-1)

    def test_ill_conditioned_composite_raises(self, ill_conditioned3):
        # |eigenvalues| of H span 7.1e-8 .. 7.1e7; the signed spectrum is
        # symmetric about zero, so its end-to-end ratio is 1 and says nothing
        lap, stats = reduced_laplacians(ill_conditioned3), InjectionStatistics.uniform(2, 1.0)
        with pytest.raises(NumericalError, match="composite Laplacian"):
            sample_voltages(lap, stats, 10, seed=0)
        with pytest.raises(NumericalError, match="composite Laplacian"):
            analytic_voltage_covariance(lap, stats)

    def test_cond_limit_compared_in_one_function(self):
        owners = []
        for path in Path(sampler.__file__).parent.glob("*.py"):
            tree = ast.parse(path.read_text())
            for func in ast.walk(tree):
                if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                for node in ast.walk(func):
                    if isinstance(node, ast.Compare) and any(
                        isinstance(n, ast.Name) and n.id == "COND_LIMIT" for n in ast.walk(node)
                    ):
                        owners.append((path.name, func.name))
        assert owners == [("sampler.py", "_require_conditioned")]

    def test_inverse_called_only_under_the_rule_or_on_glasso_iterates(self):
        owners = []
        for path in Path(sampler.__file__).parent.glob("*.py"):
            tree = ast.parse(path.read_text())
            for func in ast.walk(tree):
                if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                for node in ast.walk(func):
                    if (
                        isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "inv"
                    ):
                        owners.append((path.name, func.name))
        assert sorted(owners) == [
            ("glasso.py", "_kkt_residual"),
            ("glasso.py", "_newton"),
            ("sampler.py", "_cholesky_inverse"),
            ("sampler.py", "_spd_inverse"),
        ]

    def test_foreign_attributes_set_in_one_function(self):
        # frozen instances keep derived values as cached properties; only
        # the transfer memo, keyed by its statistics, is set from outside
        owners = []
        for path in Path(sampler.__file__).parent.glob("*.py"):
            tree = ast.parse(path.read_text())
            for func in ast.walk(tree):
                if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                for node in ast.walk(func):
                    if (
                        isinstance(node, ast.Call)
                        and ast.unparse(node.func) == "object.__setattr__"
                        and ast.unparse(node.args[0]) != "self"
                    ):
                        owners.append((path.name, func.name))
        assert owners == [("sampler.py", "_checked_transfer")]

    def test_monte_carlo_matches_analytic(self):
        grid = generate_grid("tree", 11, seed=13)
        lap = reduced_laplacians(grid)
        stats = random_stats(grid.n, seed=13)
        analytic = analytic_voltage_covariance(lap, stats)
        total = 1_000_000
        chunk = 100_000
        dim = 2 * grid.n
        sums = np.zeros(dim)
        outer = np.zeros((dim, dim))
        for start in range(0, total, chunk):
            block = sample_voltages(lap, stats, chunk, seed=29, offset=start).samples
            sums += block.sum(axis=0)
            outer += block.T @ block
        mean = sums / total
        emp = (outer - total * np.outer(mean, mean)) / (total - 1)
        assert rel_frobenius(emp, analytic) < 0.02

    def test_monte_carlo_at_thirty_buses(self):
        # largest size the convergence contract covers
        grid = generate_grid("meshed", 31, loops=2, min_cycle=5, seed=31)
        lap = reduced_laplacians(grid)
        stats = random_stats(grid.n, seed=31)
        analytic = analytic_voltage_covariance(lap, stats)
        total, chunk = 1_000_000, 125_000
        dim = 2 * grid.n
        sums, outer = np.zeros(dim), np.zeros((dim, dim))
        for start in range(0, total, chunk):
            block = sample_voltages(lap, stats, chunk, seed=7, offset=start).samples
            sums += block.sum(axis=0)
            outer += block.T @ block
        mean = sums / total
        emp = (outer - total * np.outer(mean, mean)) / (total - 1)
        assert rel_frobenius(emp, analytic) < 0.02

    def test_no_cross_bus_correlation_without_perturbation(self):
        grid = generate_grid("tree", 9, seed=3)
        lap = reduced_laplacians(grid)
        stats = InjectionStatistics.uniform(grid.n, variance=1.0)
        samples = sample_voltages(lap, stats, 1_000_000, seed=17)
        injections = samples.samples @ lap.composite.T
        corr = np.corrcoef(injections, rowvar=False)
        n = grid.n
        off_diag = corr.copy()
        # blank the per-bus (p_i, q_i) pairs; only cross-bus entries remain
        np.fill_diagonal(off_diag, 0.0)
        off_diag[np.arange(n), np.arange(n) + n] = 0.0
        off_diag[np.arange(n) + n, np.arange(n)] = 0.0
        assert np.abs(off_diag).max() < 0.02


class TestNoise:
    def test_zero_noise_identity(self, path3):
        lap = reduced_laplacians(path3)
        samples = sample_voltages(lap, InjectionStatistics.uniform(2), 50, seed=1)
        noisy = add_noise(samples, NoiseStatistics.zero(2), seed=2)
        assert np.array_equal(noisy.samples, samples.samples)

    def test_empty_covariance_rejected(self):
        with pytest.raises(ValidationError, match="noise covariance is empty"):
            NoiseStatistics(np.zeros((0, 0)))

    def test_dimension_mismatch(self, path3):
        lap = reduced_laplacians(path3)
        samples = sample_voltages(lap, InjectionStatistics.uniform(2), 5, seed=1)
        with pytest.raises(ValidationError, match="dimension"):
            add_noise(samples, NoiseStatistics.zero(3), seed=2)

    def test_original_unmodified_and_count_kept(self, path3):
        lap = reduced_laplacians(path3)
        samples = sample_voltages(lap, InjectionStatistics.uniform(2), 64, seed=1)
        before = samples.samples.copy()
        noise = NoiseStatistics.from_vectors([0.1, 0.1], [0.1, 0.1])
        noisy = add_noise(samples, noise, seed=9)
        assert noisy.n == samples.n
        assert np.array_equal(samples.samples, before)
        assert not np.array_equal(noisy.samples, samples.samples)

    def test_partition_invariance(self, meshed56):
        lap, stats = meshed56
        noise = NoiseStatistics.relative(np.diag(analytic_voltage_covariance(lap, stats)), 0.01)
        total = sum(PIECES)
        signal = sample_voltages(lap, stats, total, seed=2)
        whole = add_noise(signal, noise, seed=6)

        def noisy(n, offset):
            return add_noise(sample_voltages(lap, stats, n, 2, offset), noise, seed=6).samples

        assert np.array_equal(whole.samples, in_pieces(noisy))

        # noise on the signal's own seed would repeat its normals
        with pytest.raises(ValidationError, match="equals the sample seed"):
            add_noise(signal, noise, seed=2)

        # two factors of one width on one seed share one cursor entry, which
        # holds only a stream position: interleaved windows stay exact
        signal_factor = transfer(lap, stats)
        noise_factor = noise.factor
        reference = block_reference(signal_factor, 2) + block_reference(noise_factor, 2)
        assert_windows(
            lambda n, offset: sampler._mapped_rows(2, offset, offset + n, signal_factor)
            + sampler._mapped_rows(2, offset, offset + n, noise_factor),
            reference,
        )

    def test_added_noise_matches_covariance(self):
        # noise at 1% of the per-coordinate signal variance
        grid = generate_grid("tree", 8, seed=21)
        lap = reduced_laplacians(grid)
        stats = InjectionStatistics.uniform(grid.n)
        samples = sample_voltages(lap, stats, 100_000, seed=3)
        signal_var = np.diag(analytic_voltage_covariance(lap, stats))
        noise = NoiseStatistics.relative(signal_var, 0.01)
        noisy = add_noise(samples, noise, seed=4)
        added = noisy.samples - samples.samples
        emp = np.cov(added, rowvar=False)
        assert rel_frobenius(emp, noise.matrix) < 0.10

    @pytest.mark.parametrize("level", [0.001, 0.005])
    def test_relative_levels_accepted(self, level):
        ref = np.linspace(0.5, 2.0, 8)
        noise = NoiseStatistics.relative(ref, level)
        assert np.diag(noise.matrix) == pytest.approx(level * ref)

    def test_rejects_indefinite(self):
        with pytest.raises(ValidationError):
            NoiseStatistics(matrix=np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_rejects_non_finite_matrix(self):
        with pytest.raises(ValidationError, match="noise covariance has non-finite entries"):
            NoiseStatistics(matrix=np.full((4, 4), np.nan))

    def test_per_bus_read_from_the_matrix(self):
        assert NoiseStatistics(matrix=np.diag([0.1, 0.2, 0.3, 0.4])).per_bus
        assert NoiseStatistics.zero(2).per_bus
        assert NoiseStatistics.from_vectors([0.1, 0.1], [0.2, 0.2], [0.05, 0.05]).per_bus
        cross_bus = np.diag([0.1, 0.1, 0.1, 0.1])
        cross_bus[0, 1] = cross_bus[1, 0] = 0.01
        assert not NoiseStatistics(matrix=cross_bus).per_bus


class TestCovarianceDraw:
    """``draw_covariance`` against the Wishart law of the sample covariance."""

    @pytest.fixture(scope="class")
    def grid(self):
        return generate_grid("meshed", 8, loops=1, min_cycle=4, seed=3)

    @pytest.fixture(scope="class")
    def model(self, grid):
        lap = reduced_laplacians(grid)
        stats = random_stats(grid.n, seed=8)
        signal = analytic_voltage_covariance(lap, stats)
        return lap, stats, NoiseStatistics.relative(np.diag(signal), 0.05)

    def test_byte_identical_for_the_same_arguments(self, grid, model):
        lap, stats, noise = model
        for extra in (None, noise):
            first = draw_covariance(lap, stats, 300, 5, extra)
            again = draw_covariance(reduced_laplacians(grid), stats, 300, 5, extra)
            assert first.tobytes() == again.tobytes()
            assert np.array_equal(first, first.T)
        assert not np.array_equal(
            draw_covariance(lap, stats, 300, 5), draw_covariance(lap, stats, 300, 6)
        )

    def test_documented_bartlett_layout(self, model):
        # Rebuilt entry by entry from the sampler docstring: chi-squares
        # for the diagonal first, then normals below it in row-major order.
        lap, stats, noise = model
        factor = np.hstack((transfer(lap, stats), noise.factor))
        for n in (5, 300):
            dof, d = n - 1, factor.shape[1]
            m = min(d, dof)
            key = np.random.SeedSequence((7, 0, 0, 0, 0))
            gen = np.random.Generator(np.random.Philox(seed=key))
            b = np.zeros((d, m))
            chi = gen.chisquare([dof - j for j in range(m)])
            normals = iter(gen.standard_normal(sum(min(i, m) for i in range(d))))
            for i in range(d):
                for j in range(min(i + 1, m)):
                    b[i, j] = np.sqrt(chi[j]) if i == j else next(normals)
            expected = (factor @ b) @ (factor @ b).T / dof
            got = draw_covariance(lap, stats, n, 7, noise)
            assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()

    @pytest.mark.parametrize("noisy", [False, True], ids=["clean", "noisy"])
    def test_moments_match_the_wishart_law(self, model, noisy):
        lap, stats, noise = model
        noise = noise if noisy else None
        sigma, n = analytic_voltage_covariance(lap, stats), 300
        if noisy:
            sigma = sigma + noise.matrix
        draws = np.array([draw_covariance(lap, stats, n, seed, noise) for seed in range(2000)])
        mean_error = np.abs(draws.mean(axis=0) - sigma).max() / np.abs(sigma).max()
        assert mean_error < 0.03
        expected = (sigma**2 + np.outer(np.diag(sigma), np.diag(sigma))) / (n - 1)
        ratio = np.median(draws.var(axis=0) / expected)
        assert abs(ratio - 1) < 0.05

    @pytest.mark.parametrize("n", [2, 5, 14])
    def test_rank_below_the_dimension(self, model, n):
        lap, stats, noise = model
        for extra in (None, noise):
            cov = draw_covariance(lap, stats, n, 3, extra)
            assert np.linalg.matrix_rank(cov) == min(n - 1, cov.shape[0])

    @pytest.mark.parametrize("n", [5, 300])
    def test_bytes_equal_the_symmetrized_product(self, model, n):
        # the draw skips (c + c.T) / 2: root @ root.T is already exactly
        # symmetric, so the pass changed no bit
        lap, stats, noise = model
        for extra in (None, noise):
            factor = transfer(lap, stats)
            if extra is not None:
                factor = np.hstack((factor, extra.factor))
            dof, d = n - 1, factor.shape[1]
            m = min(d, dof)
            for seed in range(4):
                key = np.random.SeedSequence((seed, 0, 0, 0, 0))
                gen = np.random.Generator(np.random.Philox(seed=key))
                b = np.zeros((d, m))
                b[np.diag_indices(m)] = np.sqrt(gen.chisquare(dof - np.arange(m)))
                rows, cols = np.tril_indices(d, -1, m)
                b[rows, cols] = gen.standard_normal(len(rows))
                root = factor @ b
                c = root @ root.T / dof
                expected = (c + c.T) / 2
                assert draw_covariance(lap, stats, n, seed, extra).tobytes() == expected.tobytes()

    def test_bartlett_indices_are_kept_read_only(self, model):
        lap, stats, _ = model
        draw_covariance(lap, stats, 300, 5)
        d = lap.n * 2
        rows, cols = sampler._below_diagonal(d, d)
        assert sampler._below_diagonal(d, d)[0] is rows
        assert not rows.flags.writeable and not cols.flags.writeable
        with pytest.raises(ValueError):
            rows[0] = 1

    def test_rejects_bad_arguments(self, model):
        lap, stats, _ = model
        with pytest.raises(ValidationError, match="n >= 2"):
            draw_covariance(lap, stats, 1, 3)
        with pytest.raises(ValidationError, match="non-negative"):
            draw_covariance(lap, stats, 10, -1)
        with pytest.raises(ValidationError, match="dimension"):
            draw_covariance(lap, stats, 10, 3, NoiseStatistics.from_vectors([0.1], [0.1]))


class TestCursor:
    def test_consecutive_windows_draw_only_their_rows(self, meshed56, monkeypatch):
        drawn = []
        make = sampler._block_generator

        class Counting:
            def __init__(self, seed, blk):
                self.gen = make(seed, blk)
                self.bit_generator = self.gen.bit_generator

            def standard_normal(self, out):
                drawn[-1] += out.shape[0]
                return self.gen.standard_normal(out=out)

        monkeypatch.setattr(sampler, "_block_generator", Counting)
        sampler._cursor.clear()
        lap, stats = meshed56
        for k in range(20):
            drawn.append(0)
            sample_voltages(lap, stats, 2000, 11, offset=2000 * k)
        # whole 4096-row blocks would draw about 6100 rows per window
        assert max(drawn[1:]) <= 2000 + 512, drawn

    def test_interleaved_streams_evict_and_entries_hold_no_arrays(self, meshed56):
        lap, stats = meshed56
        factor = transfer(lap, stats)
        seeds = range(sampler._CURSOR_SIZE + 2)
        references = {seed: block_reference(factor, seed, 6000) for seed in seeds}
        sampler._cursor.clear()
        for offset in range(0, 6000, 1500):
            for seed in seeds:
                got = sample_voltages(lap, stats, 1500, seed, offset).samples
                assert np.array_equal(got, references[seed][offset : offset + 1500])
        assert len(sampler._cursor) == sampler._CURSOR_SIZE
        # a full cursor of live generators keeps no window's memory: one
        # 2000-row window is 1.76 MB, the entries a few hundred bytes each
        sampler._cursor.clear()
        tracemalloc.start()
        try:
            for offset in range(0, 10000, 2000):
                for seed in range(10):
                    sample_voltages(lap, stats, 2000, seed, offset)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < 64 * 1024, held

    def test_a_live_generator_serves_one_call_at_a_time(self, meshed56, monkeypatch):
        # a second call on the key while the first draws from the saved
        # generator must not resume it; both windows stay exact
        lap, stats = meshed56
        make = sampler._block_generator
        started, go = threading.Event(), threading.Event()

        class Pausing:
            def __init__(self, seed, blk):
                self.gen = make(seed, blk)
                self.bit_generator = self.gen.bit_generator

            def standard_normal(self, out):
                if threading.current_thread() is first and not started.is_set():
                    started.set()
                    assert go.wait(timeout=30)
                return self.gen.standard_normal(out=out)

        results = {}
        first = threading.Thread(
            target=lambda: results.update(first=sample_voltages(lap, stats, 1000, 12, 1000).samples)
        )
        monkeypatch.setattr(sampler, "_block_generator", Pausing)
        sampler._cursor.clear()
        expected = sample_voltages(lap, stats, 2000, 12).samples
        sample_voltages(lap, stats, 1000, 12)
        first.start()
        try:
            assert started.wait(timeout=30)
            second = sample_voltages(lap, stats, 1000, 12, 1000).samples
        finally:
            go.set()
            first.join(timeout=30)
        assert not first.is_alive()
        assert np.array_equal(second, expected[1000:])
        assert np.array_equal(results["first"], expected[1000:])

    def test_threads_reading_windows_match_one_shot(self, meshed56):
        lap, stats = meshed56
        seeds, windows, size = (3, 4, 3, 4), 12, 1000
        expected = {seed: sample_voltages(lap, stats, windows * size, seed).samples for seed in seeds}
        results = {}

        def read(k):
            results[k] = np.vstack(
                [sample_voltages(lap, stats, size, seeds[k], w * size).samples for w in range(windows)]
            )

        threads = [threading.Thread(target=read, args=(k,)) for k in range(len(seeds))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for k, seed in enumerate(seeds):
            assert np.array_equal(results[k], expected[seed])


def fresh56():
    """The 56-bus grid's Laplacians as a new instance, with no memo yet."""
    grid = generate_grid("meshed", 56, loops=3, min_cycle=7, seed=1)
    return grid, reduced_laplacians(grid)


def count_calls(monkeypatch, name, matrix=None):
    """Count ``np.linalg.<name>`` calls whose first argument is ``matrix``,
    or all of them when ``matrix`` is None."""
    calls = []
    real = getattr(np.linalg, name)

    def counting(a, *args, **kwargs):
        if matrix is None or a is matrix:
            calls.append(name)
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counting)
    return calls


class TestTransferMemo:
    def test_windows_factor_the_grid_once(self, monkeypatch):
        grid, lap = fresh56()
        stats = random_stats(grid.n, seed=5)
        eig = count_calls(monkeypatch, "eigvalsh", lap.composite)
        solve = count_calls(monkeypatch, "solve", lap.composite)
        windows = [sample_voltages(lap, stats, 700, 9, offset=700 * k).samples for k in range(10)]
        assert (len(eig), len(solve)) == (1, 1)
        _, other = fresh56()
        assert np.array_equal(np.vstack(windows), sample_voltages(other, stats, 7000, 9).samples)
        # one spectrum serves the covariance and the noise bound too
        inv = count_calls(monkeypatch, "inv", lap.composite)
        sigma = analytic_voltage_covariance(lap, stats)
        noise = NoiseStatistics.relative(np.diag(sigma), 0.01)
        noise_deviation_bound(lap, stats, noise)
        assert (len(eig), len(solve), len(inv)) == (1, 1, 0)
        # the covariance is the draws' own transfer matrix times its transpose
        t = lap._transfer_memo[1]
        assert np.array_equal(sigma, t @ t.T)

    def test_ill_conditioned_composite_raises_every_call(self, ill_conditioned3):
        lap, stats = reduced_laplacians(ill_conditioned3), InjectionStatistics.uniform(2, 1.0)
        for _ in range(2):
            with pytest.raises(NumericalError, match="composite Laplacian"):
                sample_voltages(lap, stats, 10, seed=0)
        assert not hasattr(lap, "_transfer_memo")

    def test_alternating_stats_never_reuse_a_stale_transfer(self):
        grid, lap = fresh56()
        first, second = random_stats(grid.n, seed=1), random_stats(grid.n, seed=2)
        for k in range(4):
            for stats in (first, second, first):
                got = sample_voltages(lap, stats, 300, 4, offset=300 * k).samples
                _, other = fresh56()
                assert np.array_equal(got, sample_voltages(other, stats, 300, 4, 300 * k).samples)

    def test_threads_with_different_stats_match_serial(self):
        grid, lap = fresh56()
        stats = [random_stats(grid.n, seed=k) for k in (7, 8)]
        windows, size = 12, 500
        expected = [
            sample_voltages(fresh56()[1], s, windows * size, 3 + k).samples
            for k, s in enumerate(stats)
        ]
        results = {}

        def read(k):
            results[k] = np.vstack(
                [sample_voltages(lap, stats[k], size, 3 + k, w * size).samples for w in range(windows)]
            )

        threads = [threading.Thread(target=read, args=(k,)) for k in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for k in range(2):
            assert np.array_equal(results[k], expected[k])

    def test_noise_factor_kept_on_the_statistics(self, path3, monkeypatch):
        lap = reduced_laplacians(path3)
        noise = NoiseStatistics.from_vectors([0.1, 0.2], [0.3, 0.1], [0.05, -0.02])
        eigh = count_calls(monkeypatch, "eigh", noise.matrix)
        stats = InjectionStatistics.uniform(2)
        samples = sample_voltages(lap, stats, 50, seed=1)
        noisy = [add_noise(samples, noise, seed=2).samples for _ in range(5)]
        covariances = [draw_covariance(lap, stats, 50, 3, noise) for _ in range(2)]
        assert len(eigh) == 1
        fresh = NoiseStatistics(matrix=noise.matrix.copy())
        for got in noisy:
            assert np.array_equal(got, add_noise(samples, fresh, seed=2).samples)
        for got in covariances:
            assert np.array_equal(got, draw_covariance(lap, stats, 50, 3, fresh))

    def test_kept_values_are_read_only(self, path3):
        lap = reduced_laplacians(path3)
        noise = NoiseStatistics.from_vectors([0.1, 0.2], [0.3, 0.1])
        for owner, name in ((lap, "abs_spectrum"), (noise, "factor")):
            value = getattr(owner, name)
            assert getattr(owner, name) is value
            assert not value.flags.writeable
            with pytest.raises(AttributeError):
                setattr(owner, name, value.copy())
            with pytest.raises(AttributeError):
                delattr(owner, name)
            assert getattr(owner, name) is value


def rotated(spectrum, seed):
    """A symmetric matrix with the given eigenvalues and a random basis."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((len(spectrum), len(spectrum))))
    a = (q * np.asarray(spectrum, dtype=float)) @ q.T
    return (a + a.T) / 2


def cholesky_formula(a):
    """X^T X with X = L^-1 for the Cholesky factor L of ``a``, built block
    row by block row as the sampler docstring documents."""
    lower = np.linalg.cholesky(a)
    x = np.zeros_like(lower)
    step = sampler._INVERSE_BLOCK
    for s in range(0, len(a), step):
        d = np.linalg.inv(lower[s : s + step, s : s + step].T).T
        x[s : s + step, s : s + step] = d
        x[s : s + step, :s] = -(d @ (lower[s : s + step, :s] @ x[:s, :s]))
    return x.T @ x


def certified_inverse(a):
    """``cholesky_formula(a)`` when it and ``a`` certify the rule, else None."""
    try:
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            inv = cholesky_formula(a)
            bound = float(np.linalg.norm(a)) * float(np.linalg.norm(inv))
    except np.linalg.LinAlgError:
        return None
    return inv if bound <= sampler.COND_LIMIT / 10 else None


def symmetrized_inv(a):
    inv = np.linalg.inv(a)
    return (inv + inv.T) / 2


def eigenvalue_rule_passes(a):
    """Whether ``a`` passes the conditioning rule on its eigenvalues alone."""
    try:
        sampler._require_conditioned(np.linalg.eigvalsh(a), "rule")
    except NumericalError:
        return False
    return True


class TestConditioningCertificate:
    def test_well_conditioned_covariance_is_not_decomposed(self, monkeypatch):
        grid, lap = fresh56()
        cov = draw_covariance(lap, random_stats(grid.n, seed=5), 100_000, seed=3)
        eig = count_calls(monkeypatch, "eigvalsh")
        conc = direct_concentration(cov)
        assert eig == []
        assert conc.j.tobytes() == cholesky_formula(cov).tobytes()

    def test_cholesky_inverse_is_symmetric_and_within_the_rounding_bound(self):
        # documented bound: max|J - inv(cov)| <= kappa(cov) * eps * max|J|
        grid, lap = fresh56()
        stats = random_stats(grid.n, seed=5)
        noise = NoiseStatistics.relative(np.diag(analytic_voltage_covariance(lap, stats)), 0.01)
        for n, extra in [(100_000, None), (300, None), (100_000, noise), (300, noise)]:
            for seed in range(3):
                cov = draw_covariance(lap, stats, n, seed, extra)
                j = sampler._spd_inverse(cov, "m")
                assert np.array_equal(j, j.T)
                w = np.linalg.eigvalsh(cov)
                tol = w[-1] / w[0] * np.finfo(float).eps * np.abs(j).max()
                assert np.abs(j - symmetrized_inv(cov)).max() <= tol

    def test_ridge_goes_onto_the_diagonal_of_a_copy(self):
        cov = rotated([1.0, 2.0, 3.0, 1e-9], seed=7)
        before = cov.copy()
        conc = direct_concentration(cov, ridge=1e-3)
        assert np.array_equal(cov, before)
        ridged = cov + 1e-3 * np.eye(4)
        assert conc.j.tobytes() == sampler._spd_inverse(ridged, "m").tobytes()

    @pytest.mark.parametrize(
        "spectrum, shown",
        [
            # Cholesky fails
            ([2.0, 1.0, -1.0], r"\[-1\.000e\+00, 2\.000e\+00\]"),
            # Cholesky succeeds, but the bound does not certify and the rule fails
            ([1.0, 1e-6, 1e-13], r"\[1\.000e-13, 1\.000e\+00\]"),
        ],
    )
    def test_failing_matrices_are_decomposed_once(self, monkeypatch, spectrum, shown):
        cov = rotated(spectrum, seed=2)
        eig = count_calls(monkeypatch, "eigvalsh")
        with pytest.raises(NumericalError, match=f"covariance numerically singular.*{shown}"):
            direct_concentration(cov)
        assert len(eig) == 1

    def test_uncertified_matrix_inside_the_limit_passes(self, monkeypatch):
        # condition number 3e11: above the certified 1e11, within COND_LIMIT
        cov = rotated([3e11, 1.0, 2.0, 1.0], seed=4)
        eig = count_calls(monkeypatch, "eigvalsh")
        assert sampler._spd_inverse(cov, "m").tobytes() == symmetrized_inv(cov).tobytes()
        assert len(eig) == 1

    def test_caller_eigenvalues_skip_the_certificate(self, monkeypatch):
        cov = rotated([1.0, 2.0, 3.0], seed=5)
        chol = count_calls(monkeypatch, "cholesky")
        sampler._spd_inverse(cov, "m", np.linalg.eigvalsh(cov))
        assert chol == []

    @pytest.mark.parametrize("scale", [1e-160, 1e160])
    def test_extreme_scales_fall_back_to_the_rule(self, monkeypatch, scale):
        # the Frobenius norms under- or overflow; the eigenvalues decide
        cov = rotated(scale * np.array([1.0, 1e-13, 0.5]), seed=6)
        eig = count_calls(monkeypatch, "eigvalsh")
        with pytest.raises(NumericalError, match="eigenvalue range"):
            sampler._spd_inverse(cov, "m")
        assert len(eig) == 1

    @settings(max_examples=300, deadline=None)
    @given(
        size=st.integers(2, 40),
        log_cond=st.floats(0.0, 17.0),
        log_scale=st.floats(-8.0, 8.0),
        negative=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_raises_exactly_when_the_eigenvalue_rule_does(
        self, size, log_cond, log_scale, negative, seed
    ):
        rng = np.random.default_rng(seed)
        spectrum = 10.0 ** rng.uniform(0.0, log_cond, size)
        spectrum[:2] = 1.0, 10.0**log_cond
        if negative:
            spectrum[rng.integers(size)] *= -1
        a = rotated(10.0**log_scale * spectrum, seed)
        certified = certified_inverse(a)
        if eigenvalue_rule_passes(a):
            expected = symmetrized_inv(a) if certified is None else certified
            assert sampler._spd_inverse(a, "m").tobytes() == expected.tobytes()
        else:
            assert certified is None
            with pytest.raises(NumericalError, match="eigenvalue range"):
                sampler._spd_inverse(a, "m")


class TestSymmetricInput:
    @pytest.mark.parametrize("scale", [1.0, 1e6])
    @pytest.mark.parametrize("rel", [1e-8, 1e-12])
    def test_tolerance_is_relative_to_the_largest_entry(self, rel, scale):
        # |m - m.T| is checked against rel * max(1, max|m|) and nothing else
        def near(gap):
            return scale * np.array([[1.0, 1.0 + gap], [1.0, 1.0]])

        sampler._symmetric(near(0.5 * rel), "m", rel)
        with pytest.raises(ValidationError, match="m must be symmetric"):
            sampler._symmetric(near(2 * rel), "m", rel)

    def test_no_hidden_relative_tolerance(self):
        with pytest.raises(ValidationError, match="must be symmetric"):
            sampler._symmetric([[1.0, 1.0 + 1e-7], [1.0, 1.0]], "m", 1e-12)

    def test_finite_input_stays_finite(self):
        # (m + m.T) / 2 overflows above about 9e307; a copy or halves first do not
        exact = np.array([[1e308, 1.0], [1.0, 2.0]])
        out = sampler._symmetric(exact, "m")
        assert out.tobytes() == exact.tobytes()
        near = np.array([[1.0, 1.7e308], [1.7e308 * (1 + 1e-15), 2.0]])
        with np.errstate(over="ignore"):
            assert np.isinf((near + near.T) / 2).any()
        out = sampler._symmetric(near, "m")
        assert np.all(np.isfinite(out)) and np.array_equal(out, out.T)
        assert out[0, 1] == near[0, 1] / 2 + near[1, 0] / 2

    def test_returns_a_new_symmetrized_array(self):
        exact = np.array([[2.0, 1.0], [1.0, 3.0]])
        out = sampler._symmetric(exact, "m")
        assert not np.shares_memory(out, exact) and out.tobytes() == exact.tobytes()
        near = np.array([[2.0, 1.0 + 2e-16], [1.0, 3.0]])
        out = sampler._symmetric(near, "m")
        assert not np.shares_memory(out, near)
        assert np.array_equal(out, out.T) and out[0, 1] == (near[0, 1] + 1.0) / 2


class TestCorrelatedStats:
    def test_epsilon_zero_identity(self, path3):
        stats = InjectionStatistics.uniform(2)
        assert make_correlated_stats(path3, stats, 0.0) is stats

    def test_valid_at_ten_percent(self):
        grid = generate_grid("meshed", 56, loops=3, min_cycle=7, seed=1)
        stats = InjectionStatistics.uniform(grid.n)
        correlated = make_correlated_stats(grid, stats, 0.10)
        assert correlated.precision_perturbation is not None
        w = np.linalg.eigvalsh(correlated.precision())
        assert w[0] > 0

    def test_pattern_follows_adjacency(self, path3):
        stats = InjectionStatistics.uniform(2)
        correlated = make_correlated_stats(path3, stats, 0.05)
        delta = correlated.precision_perturbation
        # single non-reference line (1, 2): p-p and q-q entries only
        assert delta[0, 1] != 0 and delta[2, 3] != 0
        assert delta[0, 2] == 0 and delta[0, 3] == 0

    def test_definiteness_guard(self):
        grid = random_connected_grid(10, extra_edges=4, seed=2)
        stats = InjectionStatistics.uniform(grid.n)
        with pytest.raises(ValidationError, match="positive definiteness"):
            make_correlated_stats(grid, stats, 5.0)

    def test_ill_conditioned_precision_raises(self):
        # positive definite, but with condition number 2.1e13 > COND_LIMIT
        grid = generate_grid("meshed", 14, loops=1, min_cycle=5, seed=2)
        stats = make_correlated_stats(
            grid, InjectionStatistics.uniform(grid.n), 0.4474424631226931
        )
        with pytest.raises(NumericalError, match="injection precision numerically singular"):
            stats.covariance()
        with pytest.raises(NumericalError, match="injection precision"):
            sample_voltages(reduced_laplacians(grid), stats, 10, seed=0)

    def test_sampling_matches_perturbed_covariance(self, path3):
        lap = reduced_laplacians(path3)
        stats = make_correlated_stats(path3, InjectionStatistics.uniform(2, 1.0), 0.2)
        samples = sample_voltages(lap, stats, 200_000, seed=8)
        emp = np.cov(samples.samples, rowvar=False)
        assert rel_frobenius(emp, analytic_voltage_covariance(lap, stats)) < 0.02


class TestImportExport:
    def test_roundtrip_exact(self, tmp_path, path3):
        lap = reduced_laplacians(path3)
        samples = sample_voltages(lap, InjectionStatistics.uniform(2), 3, seed=1, offset=4096)
        path = tmp_path / "samples.csv"
        export_samples(samples, path)
        loaded = import_samples(path, center=False)
        assert loaded.n == 3
        assert np.array_equal(loaded.samples, samples.samples)
        assert loaded.bus_order == samples.bus_order
        assert loaded.seed == 1 and loaded.offset == 4096

    def test_centering_default(self, tmp_path, path3):
        lap = reduced_laplacians(path3)
        samples = sample_voltages(lap, InjectionStatistics.uniform(2), 10, seed=1)
        path = tmp_path / "samples.csv"
        export_samples(samples, path)
        loaded = import_samples(path)
        expected = samples.samples - samples.samples.mean(axis=0)
        assert loaded.samples == pytest.approx(expected, abs=1e-15)

    @pytest.mark.parametrize("offset", [-5, 2.5, "x", None, True])
    def test_sidecar_offset_must_be_a_non_negative_int(self, tmp_path, path3, offset):
        samples = sample_voltages(reduced_laplacians(path3), InjectionStatistics.uniform(2), 3, 1)
        path = tmp_path / "samples.csv"
        export_samples(samples, path)
        meta = path.with_suffix(".csv.meta.json")
        meta.write_text(json.dumps({**json.loads(meta.read_text()), "offset": offset}))
        with pytest.raises(ValidationError, match="malformed metadata sidecar"):
            import_samples(path)
        with pytest.raises(ValidationError, match="offset must be a non-negative int"):
            VoltageSampleSet(samples.samples, samples.bus_order, offset=offset)

    def test_missing_theta_columns(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("v_1,v_2\n0.1,0.2\n")
        with pytest.raises(ValidationError, match="header"):
            import_samples(path)

    def test_non_numeric_cell(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("v_1,theta_1\n0.1,oops\n")
        with pytest.raises(ValidationError, match="non-numeric"):
            import_samples(path)

    def test_bus_order_mismatch(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("v_1,theta_1\n0.1,0.2\n")
        with pytest.raises(ValidationError, match="bus order"):
            import_samples(path, bus_order=("9",))

    def test_export_matches_csv_writer(self, tmp_path, meshed56):
        samples = sample_voltages(*meshed56, 300, seed=4)
        special = np.array([[0.0, -0.0, 1e-300, -1.5e300, 0.1, 1 / 3, 2.0**60, -7e-5]])
        # more rows than one export pass converts at a time
        long = np.random.default_rng(5).standard_normal((2 * 4096 + 17, 6))
        path = tmp_path / "samples.csv"
        reference = io.StringIO(newline="")
        writer = csv.writer(reference)
        for rows in (samples.samples, special, long):
            case = VoltageSampleSet(rows, tuple(str(k) for k in range(rows.shape[1] // 2)))
            export_samples(case, path)
            reference.seek(0)
            reference.truncate()
            writer.writerow(case.columns)
            for row in case.samples:
                writer.writerow([repr(float(value)) for value in row])
            assert path.read_bytes() == reference.getvalue().encode()
            assert np.array_equal(import_samples(path, center=False).samples, rows)

    def test_csv_round_trip_holds_no_full_size_temporary(self, tmp_path):
        # a list of all rows would read about 4 array sizes, a centered copy
        # beside the parsed array 2
        rows = np.random.default_rng(6).standard_normal((20000, 40))
        case = VoltageSampleSet(rows, tuple(str(k) for k in range(20)))
        path = tmp_path / "samples.csv"
        assert traced_peak(export_samples, case, path) < 1.0 * rows.nbytes
        assert traced_peak(import_samples, path) < 1.5 * rows.nbytes

    def test_ragged_rows(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("v_1,theta_1\n0.1,0.2\n0.3\n")
        with pytest.raises(ValidationError):
            import_samples(path)
        path.write_text("v_1,theta_1\n0.1,0.2,0.3\n0.4,0.5,0.6\n")
        with pytest.raises(ValidationError, match="ragged"):
            import_samples(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("v_1,theta_1\r\n")
        with pytest.raises(ValidationError):
            import_samples(path)
