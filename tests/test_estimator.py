import csv
import io
import math

import networkx as nx
import numpy as np
import pytest

from _oracles import random_connected_grid, woodbury_deviation
from conftest import random_stats, traced_peak
from gridtopo.errors import NumericalError, ValidationError
from gridtopo.estimator import (
    NUMERIC_ZERO_FLOOR,
    ConcentrationMatrix,
    analytic_concentration,
    direct_concentration,
    default_ridge,
    export_concentration,
    gamma_thresholds,
    import_concentration,
    noise_deviation_bound,
    noisy_concentration,
    sample_covariance,
)
from gridtopo.generate import generate_grid
from gridtopo.grid import reduced_laplacians
from gridtopo.sampler import (
    InjectionStatistics,
    NoiseStatistics,
    VoltageSampleSet,
    analytic_voltage_covariance,
    make_correlated_stats,
    sample_voltages,
)


def rel_frobenius(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def make_set(matrix):
    n = matrix.shape[1] // 2
    order = tuple(str(i) for i in range(n))
    return VoltageSampleSet(samples=matrix, bus_order=order)


class TestSampleCovariance:
    def test_identical_samples_zero(self):
        samples = make_set(np.ones((2, 4)))
        assert not np.any(sample_covariance(samples))

    def test_hand_computed(self):
        # rows (sqrt2, 0) and (0, sqrt2): centered outer products sum to
        # [[1, -1], [-1, 1]] and n - 1 = 1
        s = math.sqrt(2.0)
        samples = make_set(np.array([[s, 0.0], [0.0, s]]))
        assert sample_covariance(samples) == pytest.approx(
            np.array([[1.0, -1.0], [-1.0, 1.0]])
        )

    def test_needs_two_samples(self):
        with pytest.raises(ValidationError):
            sample_covariance(make_set(np.ones((1, 2))))

    def test_exactly_symmetric(self):
        rng = np.random.default_rng(0)
        samples = make_set(rng.standard_normal((500, 8)))
        cov = sample_covariance(samples)
        assert np.array_equal(cov, cov.T)

    @staticmethod
    def one_shot(x):
        """The covariance from one centered copy of the whole array."""
        centered = x - x.mean(axis=0)
        cov = centered.T @ centered / (len(x) - 1)
        return (cov + cov.T) / 2

    @staticmethod
    def fresh_chunks(x):
        """The covariance from a new centered copy of each 4096-row chunk,
        symmetrized."""
        mean = x.mean(axis=0)
        c = x[:4096] - mean
        gram = c.T @ c
        for start in range(4096, len(x), 4096):
            c = x[start : start + 4096] - mean
            gram += c.T @ c
        cov = gram / (len(x) - 1)
        return (cov + cov.T) / 2

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_one_chunk_is_bit_identical_to_one_shot(self, order):
        x = np.asarray(np.random.default_rng(2).standard_normal((4096, 24)) + 3.0, order=order)
        cov = sample_covariance(make_set(x))
        assert cov.tobytes() == self.one_shot(x).tobytes()
        assert np.array_equal(cov, cov.T)

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("n", [2, 4095, 4096, 4097, 3 * 4096 + 5])
    def test_reused_buffer_is_bit_identical_to_fresh_chunks(self, n, order):
        # one centered buffer and no symmetrizing pass change no bit
        x = np.asarray(np.random.default_rng(n).standard_normal((n, 24)) + 3.0, order=order)
        cov = sample_covariance(make_set(x))
        assert cov.tobytes() == self.fresh_chunks(x).tobytes()
        assert np.array_equal(cov, cov.T)

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("n", [4097, 3 * 4096 + 5])
    def test_chunked_sum_agrees_at_rounding_level(self, n, order):
        x = np.asarray(np.random.default_rng(n).standard_normal((n, 24)) + 3.0, order=order)
        cov, expected = sample_covariance(make_set(x)), self.one_shot(x)
        assert np.abs(cov - expected).max() <= 1e-14 * np.abs(expected).max()
        assert np.array_equal(cov, cov.T)

    def test_holds_no_full_size_temporary(self):
        # one centered 4096-row buffer reads 1.0 (plus the 40 x 40 Grams);
        # a second chunk allocated beside it 2.0, a centered copy of the
        # whole array 4.9
        samples = make_set(np.random.default_rng(3).standard_normal((20000, 40)))
        assert traced_peak(sample_covariance, samples) < 1.25 * 4096 * 40 * 8


class TestDirectConcentration:
    def test_identity(self):
        conc = direct_concentration(np.eye(6))
        assert conc.j == pytest.approx(np.eye(6))
        assert conc.provenance == "direct_inverse"

    def test_matches_analytic_inverse(self, path3):
        lap = reduced_laplacians(path3)
        stats = random_stats(2, seed=1)
        sigma = analytic_voltage_covariance(lap, stats)
        conc = direct_concentration(sigma, bus_order=lap.bus_order)
        expected = analytic_concentration(lap, stats)
        assert rel_frobenius(conc.j, expected.j) < 1e-10

    def test_rank_deficient_errors(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((5, 10))  # n < dim
        samples = make_set(x)
        cov = sample_covariance(samples)
        with pytest.raises(NumericalError, match="singular"):
            direct_concentration(cov, ridge=0.0)

    def test_ridge_rescues(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((5, 10))
        cov = sample_covariance(make_set(x))
        conc = direct_concentration(cov, ridge=default_ridge(cov, 5))
        assert np.linalg.eigvalsh(conc.j)[0] > 0

    def test_condition_limit_is_inclusive(self):
        # the same rule as the glasso lam = 0 check and the sampler
        direct_concentration(np.diag([1e12, 1e12, 1.0, 1.0]))
        with pytest.raises(NumericalError, match="condition limit 1e\\+12"):
            direct_concentration(np.diag([1.01e12, 1e12, 1.0, 1.0]))

    def test_default_ridge_policy(self):
        cov = np.eye(8)
        assert default_ridge(cov, 100) == 0.0
        assert default_ridge(cov, 10) == pytest.approx(1e-8)


class TestAnalyticConcentration:
    @pytest.mark.parametrize("seed", range(20))
    def test_equals_numeric_inverse(self, seed):
        rng = np.random.default_rng(seed)
        buses = int(rng.integers(4, 31))
        grid = random_connected_grid(buses, extra_edges=int(rng.integers(0, 5)), seed=seed)
        lap = reduced_laplacians(grid)
        stats = random_stats(grid.n, seed=seed)
        j = analytic_concentration(lap, stats).j
        j_inv = np.linalg.inv(analytic_voltage_covariance(lap, stats))
        assert rel_frobenius(j, j_inv) < 1e-8

    def test_two_bus_identity(self, two_bus):
        lap = reduced_laplacians(two_bus)
        stats = InjectionStatistics.uniform(1, variance=1.0)
        assert analytic_concentration(lap, stats).j == pytest.approx(np.eye(2))

    @pytest.mark.parametrize("seed", range(5))
    def test_two_hop_support(self, seed):
        grid = random_connected_grid(16, extra_edges=3, seed=40 + seed)
        lap = reduced_laplacians(grid)
        stats = random_stats(grid.n, seed=seed)
        conc = analytic_concentration(lap, stats)
        g = nx.Graph()
        g.add_nodes_from(grid.buses)
        g.add_edges_from((line.a, line.b) for line in grid.lines)
        dist = dict(nx.all_pairs_shortest_path_length(g))
        floor = NUMERIC_ZERO_FLOOR * np.abs(conc.j).max()
        n = grid.n
        for i, a in enumerate(lap.bus_order):
            for k, b in enumerate(lap.bus_order):
                if dist[a].get(b, math.inf) >= 3:
                    for block in (conc.j_vv, conc.j[:n, n:], conc.j[n:, :n], conc.j_thetatheta):
                        assert abs(block[i, k]) < floor

    def test_perturbed_matches_inverse(self, path3):
        lap = reduced_laplacians(path3)
        stats = make_correlated_stats(path3, InjectionStatistics.uniform(2, 1.0), 0.2)
        j = analytic_concentration(lap, stats).j
        j_inv = np.linalg.inv(analytic_voltage_covariance(lap, stats))
        assert rel_frobenius(j, j_inv) < 1e-10

    def test_correlated_concentration_inverts_the_covariance(self):
        # J = H P H and Sigma = T T^T share no code past H: their product
        # is the identity with correlated per-bus blocks and cross-bus terms
        grid = generate_grid("meshed", 56, loops=3, min_cycle=7, seed=1)
        lap = reduced_laplacians(grid)
        stats = make_correlated_stats(grid, random_stats(grid.n, seed=3), 0.1)
        product = analytic_concentration(lap, stats).j @ analytic_voltage_covariance(lap, stats)
        np.testing.assert_allclose(product, np.eye(2 * grid.n), rtol=0, atol=1e-8)


class TestNoiseDeviation:
    def test_zero_noise_bound(self, path3):
        lap = reduced_laplacians(path3)
        stats = InjectionStatistics.uniform(2, 1.0)
        bound = noise_deviation_bound(lap, stats, NoiseStatistics.zero(2))
        assert bound.value == 0.0

    def test_two_bus_bound_is_noise_variance(self, two_bus):
        # swap-matrix grid: lambda_max(H^2) = 1; identity injections
        lap = reduced_laplacians(two_bus)
        stats = InjectionStatistics.uniform(1, variance=1.0)
        noise = NoiseStatistics.from_vectors([0.04], [0.04])
        bound = noise_deviation_bound(lap, stats, noise)
        assert bound.value == pytest.approx(0.04)
        # per-bus 2x2 eigenvalues: sigma_n = 0.08, sigma_pq = 2, so
        # 2 * 1 * 0.08 / 4 reproduces the general bound exactly
        assert bound.per_bus_value == pytest.approx(0.04)
        assert bound.uncorrelated_value == pytest.approx(0.04)

    def test_diagonal_matrix_gets_per_bus_bounds(self, two_bus):
        lap = reduced_laplacians(two_bus)
        stats = InjectionStatistics.uniform(1, variance=1.0)
        noise = NoiseStatistics(matrix=np.diag([0.04, 0.04]))
        bound = noise_deviation_bound(lap, stats, noise)
        assert bound.per_bus_value == pytest.approx(0.04)
        assert bound.uncorrelated_value == pytest.approx(0.04)

    def test_bound_reads_the_kept_spectrum_exactly(self):
        # the spectrum kept on the Laplacians gives the bound the bits a
        # fresh decomposition of H gives, before and after a draw
        grid = random_connected_grid(12, extra_edges=3, seed=4)
        lap = reduced_laplacians(grid)
        stats = random_stats(grid.n, seed=4)
        noise = NoiseStatistics.relative(np.diag(analytic_voltage_covariance(lap, stats)), 0.02)
        expected = float(np.max(np.abs(np.linalg.eigvalsh(lap.composite))) ** 2)
        first = noise_deviation_bound(lap, stats, noise)
        sample_voltages(lap, stats, 10, seed=1)
        again = noise_deviation_bound(lap, stats, noise)
        fresh = noise_deviation_bound(reduced_laplacians(grid), stats, noise)
        assert first.ingredients["lambda_max_h2"] == expected
        assert first == again == fresh

    def test_ill_conditioned_composite_raises(self, ill_conditioned3):
        lap, stats = reduced_laplacians(ill_conditioned3), InjectionStatistics.uniform(2, 1.0)
        for noise in (NoiseStatistics.zero(2), NoiseStatistics.from_vectors([0.01] * 2, [0.01] * 2)):
            with pytest.raises(NumericalError, match="composite Laplacian"):
                noisy_concentration(lap, stats, noise)

    @pytest.mark.parametrize("seed", range(10))
    def test_chain_and_empirical(self, seed):
        rng = np.random.default_rng(200 + seed)
        grid = random_connected_grid(int(rng.integers(4, 16)), extra_edges=2, seed=seed)
        lap = reduced_laplacians(grid)
        stats = random_stats(grid.n, seed=seed)
        level = float(rng.uniform(0.001, 0.05))
        signal = np.diag(analytic_voltage_covariance(lap, stats))
        noise = NoiseStatistics.relative(signal, level)
        bound = noise_deviation_bound(lap, stats, noise)
        delta = noisy_concentration(lap, stats, noise).j - analytic_concentration(lap, stats).j
        empirical = np.abs(delta).max()
        assert empirical <= bound.value * (1 + 1e-9)
        assert empirical <= bound.per_bus_value * (1 + 1e-9)
        eq13, eq14, eq15 = bound.chain
        assert empirical <= eq13 * (1 + 1e-9)
        assert eq13 <= eq14 * (1 + 1e-9)
        assert eq14 <= eq15 * (1 + 1e-9)

    @pytest.mark.parametrize("seed", range(5))
    def test_deviation_identity_and_definiteness(self, seed):
        grid = random_connected_grid(10, extra_edges=2, seed=70 + seed)
        lap = reduced_laplacians(grid)
        stats = random_stats(grid.n, seed=seed)
        signal = np.diag(analytic_voltage_covariance(lap, stats))
        noise = NoiseStatistics.relative(signal, 0.01)
        exact = noisy_concentration(lap, stats, noise).j - analytic_concentration(lap, stats).j
        wood = woodbury_deviation(analytic_concentration(lap, stats).j, noise.matrix)
        assert rel_frobenius(exact, wood) < 1e-8
        assert np.abs(exact - exact.T).max() < 1e-10 * np.abs(exact).max()
        assert np.linalg.eigvalsh(exact)[-1] < 0  # negative definite

    def test_noisy_concentration_consistent(self, path3):
        lap = reduced_laplacians(path3)
        stats = InjectionStatistics.uniform(2, 1.0)
        noise = NoiseStatistics.from_vectors([0.01, 0.01], [0.01, 0.01])
        noisy = noisy_concentration(lap, stats, noise)
        base = analytic_concentration(lap, stats)
        delta = woodbury_deviation(base.j, noise.matrix)
        assert rel_frobenius(noisy.j, base.j + delta) < 1e-10


class TestGammaThresholds:
    def test_two_bus_has_no_offdiagonals(self, two_bus):
        lap = reduced_laplacians(two_bus)
        conc = analytic_concentration(lap, InjectionStatistics.uniform(1, 1.0))
        with pytest.raises(ValidationError):
            gamma_thresholds(conc)

    def test_path3_values(self, path3):
        # J_vv = H_beta^2 = [[5, -3], [-3, 2]]; sum matrix doubles it
        lap = reduced_laplacians(path3)
        conc = analytic_concentration(lap, InjectionStatistics.uniform(2, 1.0))
        gamma1, gamma2 = gamma_thresholds(conc)
        assert gamma1 == pytest.approx(3.0)
        assert gamma2 == pytest.approx(6.0)

    def test_requires_analytic(self):
        conc = direct_concentration(np.eye(4))
        with pytest.raises(ValidationError, match="analytic"):
            gamma_thresholds(conc)

    def test_no_negative_sums_degenerate(self):
        # all off-diagonal sums positive: gamma2 is undefined
        j = np.array(
            [
                [2.0, 1.0, 0.0, 0.0],
                [1.0, 2.0, 0.0, 0.0],
                [0.0, 0.0, 2.0, 1.0],
                [0.0, 0.0, 1.0, 2.0],
            ]
        )
        conc = ConcentrationMatrix(j=j, bus_order=("a", "b"), provenance="analytic")
        with pytest.raises(ValidationError, match="negative"):
            gamma_thresholds(conc)


class TestConcentrationIO:
    def test_roundtrip(self, tmp_path, path3):
        lap = reduced_laplacians(path3)
        conc = analytic_concentration(lap, InjectionStatistics.uniform(2))
        path = tmp_path / "conc.csv"
        export_concentration(conc, path)
        loaded = import_concentration(path)
        assert np.array_equal(loaded.j, conc.j)
        assert loaded.bus_order == conc.bus_order
        assert loaded.provenance == "analytic"

    def test_export_matches_csv_writer(self, tmp_path):
        special = np.diag([0.0, -0.0, 1e-300, -1.5e300, 0.1, 1 / 3, 2.0**60, -7e-5])
        special[0, 7] = special[7, 0] = 2.5e-17
        # more rows than one export pass converts at a time
        wide = np.random.default_rng(7).standard_normal((200, 200))
        path = tmp_path / "conc.csv"
        for j in (special, wide + wide.T):
            conc = ConcentrationMatrix(j, tuple(str(k) for k in range(len(j) // 2)), "analytic")
            export_concentration(conc, path)
            reference = io.StringIO(newline="")
            writer = csv.writer(reference)
            for row in conc.j:
                writer.writerow([repr(float(v)) for v in row])
            assert path.read_bytes() == reference.getvalue().encode()
            assert import_concentration(path).j.tobytes() == conc.j.tobytes()

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValidationError, match="concentration matrix is empty"):
            ConcentrationMatrix(np.zeros((0, 0)), (), "analytic")

    def test_block_views(self):
        j = np.arange(16).reshape(4, 4).astype(float)
        j = (j + j.T) / 2
        conc = ConcentrationMatrix(j=j, bus_order=("a", "b"), provenance="analytic")
        assert np.array_equal(conc.j_vv, j[:2, :2])
        assert np.array_equal(conc.j_thetatheta, j[2:, 2:])
        assert conc.j_vv.shape == (2, 2)
