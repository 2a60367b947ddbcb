import csv
import io

import numpy as np
import pytest

from conftest import random_stats
from gridtopo.errors import ValidationError
from gridtopo.generate import generate_grid, random_connected_grid
from gridtopo.grid import reduced_laplacians
from gridtopo.sampler import (
    InjectionStatistics,
    NoiseStatistics,
    VoltageSampleSet,
    add_noise,
    analytic_voltage_covariance,
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

    def test_sampling_matches_perturbed_covariance(self, path3):
        lap = reduced_laplacians(path3)
        stats = make_correlated_stats(path3, InjectionStatistics.uniform(2, 1.0), 0.2)
        samples = sample_voltages(lap, stats, 200_000, seed=8)
        emp = np.cov(samples.samples, rowvar=False)
        assert rel_frobenius(emp, analytic_voltage_covariance(lap, stats)) < 0.02


class TestImportExport:
    def test_roundtrip_exact(self, tmp_path, path3):
        lap = reduced_laplacians(path3)
        samples = sample_voltages(lap, InjectionStatistics.uniform(2), 3, seed=1)
        path = tmp_path / "samples.csv"
        export_samples(samples, path)
        loaded = import_samples(path, center=False)
        assert loaded.n == 3
        assert np.array_equal(loaded.samples, samples.samples)
        assert loaded.bus_order == samples.bus_order
        assert loaded.seed == 1

    def test_centering_default(self, tmp_path, path3):
        lap = reduced_laplacians(path3)
        samples = sample_voltages(lap, InjectionStatistics.uniform(2), 10, seed=1)
        path = tmp_path / "samples.csv"
        export_samples(samples, path)
        loaded = import_samples(path)
        expected = samples.samples - samples.samples.mean(axis=0)
        assert loaded.samples == pytest.approx(expected, abs=1e-15)

    def test_differencing(self, tmp_path, path3):
        lap = reduced_laplacians(path3)
        samples = sample_voltages(lap, InjectionStatistics.uniform(2), 10, seed=1)
        path = tmp_path / "samples.csv"
        export_samples(samples, path)
        loaded = import_samples(path, difference=True)
        assert loaded.samples == pytest.approx(np.diff(samples.samples, axis=0))

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
        path = tmp_path / "samples.csv"
        reference = io.StringIO(newline="")
        writer = csv.writer(reference)
        for rows in (samples.samples, special):
            case = VoltageSampleSet(rows, tuple(str(k) for k in range(rows.shape[1] // 2)))
            export_samples(case, path)
            reference.seek(0)
            reference.truncate()
            writer.writerow(case.columns)
            for row in case.samples:
                writer.writerow([repr(float(value)) for value in row])
            assert path.read_bytes() == reference.getvalue().encode()
            assert np.array_equal(import_samples(path, center=False).samples, rows)

    def test_ragged_rows(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("v_1,theta_1\n0.1,0.2\n0.3\n")
        with pytest.raises(ValidationError):
            import_samples(path)
        path.write_text("v_1,theta_1\n0.1,0.2,0.3\n0.4,0.5,0.6\n")
        with pytest.raises(ValidationError, match="ragged"):
            import_samples(path)

    @pytest.mark.filterwarnings("error")
    def test_header_only(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("v_1,theta_1\r\n")
        with pytest.raises(ValidationError):
            import_samples(path)
