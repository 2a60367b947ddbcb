import numpy as np
import pytest

from _oracles import (
    face_hessian,
    glasso_kkt_residual,
    penalized_objective,
    proximal_gradient_glasso,
    reference_admm_glasso,
)
from gridtopo import glasso
from gridtopo.errors import ConvergenceError, NumericalError, ValidationError
from gridtopo.estimator import sample_covariance
from gridtopo.generate import generate_grid
from gridtopo.glasso import (
    _admm,
    _newton,
    active_kernel,
    default_lambda,
    glasso_objective,
    graphical_lasso,
)
from gridtopo.grid import reduced_laplacians
from gridtopo.sampler import InjectionStatistics, draw_covariance, sample_voltages


def random_spd(dim, seed, n_factor=8):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n_factor * dim, dim))
    return x.T @ x / (n_factor * dim)


def admm(cov, lam, rho, z, u, steps):
    """``_admm`` with the soft-threshold bounds that ``graphical_lasso``
    builds once per fit."""
    upper = (1.0 - np.eye(len(cov))) * (lam / rho)
    return _admm(cov, rho, upper, -upper, z, u, steps)


def admm_until(cov, lam, rho, z, u, tol, residual):
    """``admm`` in chunks of ``_CHECK_EVERY`` until ``residual(z)`` is at
    most ``tol``: the solver's stop rule without the Newton finish.
    Returns ``z``, ``u``, the iterations run and the last residual."""
    for iterations in range(glasso._CHECK_EVERY, 10_000, glasso._CHECK_EVERY):
        z, u = admm(cov, lam, rho, z, u, glasso._CHECK_EVERY)
        checked = residual(z)
        if checked <= tol:
            return z, u, iterations, checked
    raise AssertionError("ADMM did not reach tol in 10000 iterations")


class InputLeg:
    """Runs a solver test class on one form of the covariance argument.

    The solver classes below pass numpy arrays; their ``*Python``
    subclasses at the end of the module rerun every test with the
    covariance as nested Python lists, which ``graphical_lasso`` accepts.
    """

    @staticmethod
    def convert(cov):
        return cov

    def fit(self, cov, lam, **kwargs):
        return graphical_lasso(self.convert(cov), lam, **kwargs)


class TestUnpenalized(InputLeg):
    def test_matches_direct_inverse(self):
        cov = random_spd(8, seed=0)
        tol = 1e-6
        conc = self.fit(cov, 0.0, tol=tol)
        inv = np.linalg.inv(cov)
        assert np.linalg.norm(conc.j - inv) / np.linalg.norm(inv) < 10 * tol

    def test_singular_rejected(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((4, 8))
        cov = x.T @ x / 4  # rank 4 < dim 8
        with pytest.raises(NumericalError, match="nonsingular"):
            self.fit(cov, 0.0)


class TestPenalized(InputLeg):
    def test_saturation_gives_diagonal(self):
        cov = random_spd(6, seed=1)
        off = cov.copy()
        np.fill_diagonal(off, 0.0)
        lam = np.abs(off).max()
        conc = self.fit(cov, lam, tol=1e-8)
        assert np.array_equal(conc.j, np.diag(1.0 / np.diag(cov)))
        assert conc.meta["iterations"] == 0 and conc.meta["rho"] is None
        assert conc.meta["kkt_residual"] <= 1e-8
        # Just below the largest off-diagonal |cov| the solver runs.
        assert self.fit(cov, np.nextafter(lam, 0.0)).meta["iterations"] > 0

    def test_huge_penalty_closed_form(self):
        # The ADMM step once overflowed here: rho grows like lam**2.
        x = np.random.default_rng(4).standard_normal((40, 6))
        corr = np.corrcoef(x, rowvar=False)
        conc = self.fit(corr, 1e150)
        assert np.array_equal(conc.j, np.diag(1.0 / np.diag(corr)))
        assert np.isfinite(conc.meta["objective"]) and conc.meta["gap"] == 0.0

    @pytest.mark.parametrize("seed", range(3))
    def test_objective_matches_proximal_oracle(self, seed):
        cov = random_spd(4, seed=10 + seed)
        lam = 0.1
        conc = self.fit(cov, lam, tol=1e-10)
        oracle = proximal_gradient_glasso(cov, lam)
        ours = glasso_objective(cov, conc.j, lam)
        theirs = penalized_objective(cov, oracle, lam)
        assert abs(ours - theirs) < 1e-6

    def test_meta_recorded(self):
        cov = random_spd(6, seed=4)
        conc = self.fit(cov, 0.05)
        assert conc.provenance == "graphical_lasso"
        assert conc.meta["lambda"] == 0.05
        assert conc.meta["iterations"] >= 1
        assert "gap" in conc.meta and "objective" in conc.meta

    def test_inner_diagnostics(self, monkeypatch):
        eigh = np.linalg.eigh
        steps = []

        def recording(a):
            steps.append(a.shape)
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", recording)
        cov = random_spd(8, seed=9, n_factor=3)
        lam = 0.03
        for tol in (1e-6, 1e-9):
            steps.clear()
            conc = self.fit(cov, lam, tol=tol)
            assert conc.meta["iterations"] == len(steps)
            assert conc.meta["kernel"] == active_kernel() == "admm"
            assert conc.meta["rho"] > 0
            assert conc.meta["kkt_residual"] <= tol
            assert conc.meta["kkt_residual"] == pytest.approx(
                glasso_kkt_residual(conc.j, cov, lam), rel=1e-12, abs=1e-15
            )
        with pytest.raises(ConvergenceError) as excinfo:
            self.fit(cov, lam, tol=1e-9, max_iter=3)
        assert excinfo.value.iterations == 3

    def test_positive_definite_result(self):
        cov = random_spd(8, seed=5)
        conc = self.fit(cov, 0.02)
        assert np.linalg.eigvalsh(conc.j)[0] > 0

    @pytest.mark.parametrize("seed", range(10))
    def test_support_monotone_in_lambda(self, seed):
        # Shrinking active sets along a growing penalty grid is typical
        # but not guaranteed (re-entries do occur on some instances);
        # this pins ten seeded instances where the behavior holds.
        cov = random_spd(8, seed=36 + seed, n_factor=4)
        off = cov.copy()
        np.fill_diagonal(off, 0.0)
        lam_max = np.abs(off).max()
        previous = None
        for lam in np.geomspace(lam_max * 1e-3, lam_max * 1.05, 6):
            conc = self.fit(cov, float(lam), tol=1e-9)
            mask = np.abs(conc.j) > 1e-6
            np.fill_diagonal(mask, False)
            support = {tuple(idx) for idx in np.argwhere(mask)}
            if previous is not None:
                assert support <= previous
            previous = support


class TestValidationAndErrors(InputLeg):
    def test_negative_penalty(self):
        with pytest.raises(ValidationError):
            self.fit(np.eye(4), -0.1)

    def test_asymmetric_covariance(self):
        cov = np.eye(4)
        cov[0, 1] = 0.5
        with pytest.raises(ValidationError, match="symmetric"):
            self.fit(cov, 0.1)

    def test_indefinite_covariance(self):
        cov = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(ValidationError, match="semidefinite"):
            self.fit(cov, 0.1)

    def test_nonconvergence_reports_gap(self):
        cov = random_spd(6, seed=6)
        with pytest.raises(ConvergenceError) as excinfo:
            self.fit(cov, 0.01, tol=1e-14, max_iter=1)
        assert excinfo.value.gap is not None

    def test_budget_tail_runs_unchecked(self):
        # A budget of 7 is one checked chunk of 5 and an unchecked tail of 2.
        cov, lam = random_spd(6, seed=6), 0.01
        rho = self.fit(cov, lam).meta["rho"]
        with pytest.raises(ConvergenceError) as excinfo:
            self.fit(cov, lam, tol=1e-14, max_iter=7)
        start = np.diag(1.0 / np.diag(cov)), np.zeros_like(cov)
        checked, _ = admm(cov, lam, rho, *start, 5)
        z, _ = admm(cov, lam, rho, *start, 7)
        assert excinfo.value.iterations == 7
        assert excinfo.value.gap == glasso._dual_gap(cov, z, lam)
        assert f"KKT residual {glasso._kkt_residual(cov, checked, lam)[0]:.3e}," in str(excinfo.value)

    def test_zero_variance(self):
        cov = np.diag([1.0, 0.0, 2.0])
        with pytest.raises(NumericalError, match="zero variance"):
            self.fit(cov, 0.1)

    def test_objective_infinite_off_the_cone(self):
        # Positive determinant, two negative eigenvalues.
        assert glasso_objective(np.eye(3), np.diag([-1.0, -2.0, 3.0]), 0.1) == np.inf

    def test_default_lambda_rate(self):
        assert default_lambda(100, 20) == pytest.approx(0.5 * np.sqrt(np.log(20) / 100))


def standardized_covariance(grid, n, seed):
    lap = reduced_laplacians(grid)
    cov = sample_covariance(sample_voltages(lap, InjectionStatistics.uniform(grid.n), n, seed))
    scale = np.sqrt(np.diag(cov))
    return cov / np.outer(scale, scale)


class TestRestrictedRegime:
    """Inputs on which block coordinate descent lost positive definiteness."""

    def check_against_oracle(self, cov, lam):
        tol = 1e-6
        conc = graphical_lasso(cov, lam, tol=tol)
        np.linalg.cholesky(conc.j)
        assert conc.meta["kkt_residual"] <= tol
        assert glasso_kkt_residual(conc.j, cov, lam) <= tol
        oracle = proximal_gradient_glasso(cov, lam, accelerate=True)
        ours = glasso_objective(cov, conc.j, lam)
        assert abs(ours - penalized_objective(cov, oracle, lam)) < 1e-6

    def test_small_penalty_12_bus(self):
        grid = generate_grid("meshed", 12, loops=1, min_cycle=7, seed=12)
        self.check_against_oracle(
            standardized_covariance(grid, 200, seed=5), default_lambda(200, 22, c=0.1)
        )

    @pytest.mark.parametrize("seed", [1, 2])
    def test_default_penalty_20_bus(self, seed):
        grid = generate_grid("meshed", 20, loops=2, min_cycle=7, seed=20)
        self.check_against_oracle(standardized_covariance(grid, 2000, seed), default_lambda(2000, 38))


class TestNewtonFinish:
    """Newton steps on the settled ADMM support, and the fallback to ADMM."""

    grid = generate_grid("meshed", 12, loops=1, min_cycle=7, seed=12)

    def problem(self, c):
        cov = standardized_covariance(self.grid, 200, seed=5)
        return cov, default_lambda(200, 22, c=c)

    def plain_admm(self, cov, lam, rho, tol):
        start = np.diag(1.0 / np.diag(cov)), np.zeros_like(cov)
        return admm_until(cov, lam, rho, *start, tol, lambda z: glasso._kkt_residual(cov, z, lam)[0])

    @pytest.mark.parametrize("c", [0.5, 0.1])
    def test_fewer_iterations_same_optimum(self, c):
        cov, lam = self.problem(c)
        tol = 1e-6
        conc = graphical_lasso(cov, lam, tol=tol)
        _, _, admm_iterations, _ = self.plain_admm(cov, lam, conc.meta["rho"], tol)
        assert conc.meta["newton_steps"] > 0
        assert conc.meta["iterations"] < admm_iterations / 2
        assert conc.meta["kkt_residual"] <= tol
        assert glasso_kkt_residual(conc.j, cov, lam) <= tol
        np.linalg.cholesky(conc.j)
        oracle = proximal_gradient_glasso(cov, lam, accelerate=True)
        assert abs(glasso_objective(cov, conc.j, lam) - penalized_objective(cov, oracle, lam)) < 1e-6

    def test_failed_finish_falls_back_to_admm(self, monkeypatch):
        tries = []

        def failing(cov, lam, z, tol, inverse):
            tries.append(tol)
            return None, 1

        monkeypatch.setattr(glasso, "_newton", failing)
        cov, lam = self.problem(0.5)
        tol = 1e-6
        conc = graphical_lasso(cov, lam, tol=tol)
        z, _, iterations, residual = self.plain_admm(cov, lam, conc.meta["rho"], tol)
        assert tries and conc.meta["newton_steps"] == len(tries)
        assert np.array_equal(conc.j, z)
        assert conc.meta["iterations"] == iterations
        assert conc.meta["kkt_residual"] == residual

    def admm_iterate(self, c, iterations):
        """The ADMM iterate after ``iterations`` steps, without a finish."""
        cov, lam = self.problem(c)
        rho = graphical_lasso(cov, lam).meta["rho"]
        start = np.diag(1.0 / np.diag(cov)), np.zeros_like(cov)
        z, _ = admm(cov, lam, rho, *start, iterations)
        return cov, lam, z

    def test_hessian_matches_entrywise_oracle(self, monkeypatch):
        cov, lam, z = self.admm_iterate(0.5, 40)
        _, w = glasso._kkt_residual(cov, z, lam)
        solve, inv = np.linalg.solve, np.linalg.inv
        hessians, inverses = [], [w]

        def recording_solve(a, b):
            hessians.append(a.copy())
            return solve(a, b)

        def recording_inv(a):
            inverses.append(inv(a))
            return inverses[-1]

        monkeypatch.setattr(np.linalg, "solve", recording_solve)
        monkeypatch.setattr(np.linalg, "inv", recording_inv)
        estimate, steps = _newton(cov, lam, z, 1e-6, w)
        assert estimate is not None and steps == len(hessians) > 1
        # Given the check's inverse, each iterate is inverted once, by its
        # own KKT check, and the next step's Hessian comes from that inverse.
        assert len(inverses) == steps + 1
        p = len(z)
        free = [(i, j) for i in range(p) for j in range(i, p) if i == j or z[i, j] != 0]
        assert len(free) > p
        rows, cols = np.array(free).T
        for hessian, inverse in zip(hessians, inverses):
            assert np.array_equal(hessian, face_hessian(inverse, rows, cols))

    @pytest.mark.parametrize("iterations", [20, 40], ids=["sign-change", "converges"])
    def test_handed_inverse_changes_nothing(self, iterations):
        cov, lam, z = self.admm_iterate(0.5, iterations)
        before = z.copy()
        _, w = glasso._kkt_residual(cov, z, lam)
        handed, handed_steps = _newton(cov, lam, z, 1e-6, w)
        own, own_steps = _newton(cov, lam, z, 1e-6)
        assert handed_steps == own_steps
        if iterations == 20:
            assert handed is own is None
        else:
            assert handed[0].tobytes() == own[0].tobytes() and handed[1] == own[1]
        assert np.array_equal(z, before)

    def test_wrong_sign_support_fails(self):
        cov, lam = self.problem(0.5)
        conc = graphical_lasso(cov, lam, tol=1e-9)
        z = conc.j.copy()
        off = np.abs(z - np.diag(np.diag(z)))
        i, j = np.unravel_index(np.argmax(off), z.shape)
        z[i, j] = z[j, i] = -z[i, j]
        estimate, steps = _newton(cov, lam, z, 1e-6)
        assert estimate is None
        assert 1 <= steps <= glasso._NEWTON_STEPS
        # The settled support itself is accepted as it stands.
        estimate, _ = _newton(cov, lam, conc.j, 1e-6)
        assert estimate is not None and estimate[1] <= 1e-6


class TestIterationCount:
    """Summed ADMM iterations over 30 standardized 12-bus fits at n = 200
    and the default penalty, Wishart draws at seeds 0 to 29. They read
    1160 at over-relaxation 1.9 and 1440 at the 1.5 used before, at one
    and at two BLAS threads. The bound lies halfway, 140 iterations (12%)
    above the current total."""

    def test_total_iterations_bounded(self):
        grid = generate_grid("meshed", 12, loops=1, min_cycle=7, seed=12)
        lap, stats = reduced_laplacians(grid), InjectionStatistics.uniform(grid.n)
        total = 0
        for seed in range(30):
            cov = draw_covariance(lap, stats, 200, seed)
            scale = np.sqrt(np.diag(cov))
            conc = graphical_lasso(cov / np.outer(scale, scale), default_lambda(200, 22))
            assert conc.meta["kkt_residual"] <= conc.meta["tol"]
            total += conc.meta["iterations"]
        assert total < 1300


class TestOracleAgreement:
    def test_kernels_agree(self):
        cov = random_spd(10, seed=7, n_factor=3)
        lam = 0.03
        conc = graphical_lasso(cov, lam, tol=1e-9)
        oracle = proximal_gradient_glasso(cov, lam)
        assert abs(glasso_objective(cov, conc.j, lam) - penalized_objective(cov, oracle, lam)) < 1e-8
        assert np.abs(conc.j - oracle).max() < 1e-6 * np.abs(conc.j).max()

    def test_kernel_recorded(self):
        cov = random_spd(4, seed=8)
        conc = graphical_lasso(cov, 0.05)
        assert conc.meta["kernel"] == active_kernel() == "admm"


def admm_problem(seed, warm):
    """Ill-conditioned 8-variable covariance and an ADMM starting point."""
    cov = random_spd(8, seed=100 + seed, n_factor=2)
    if not warm:
        return cov, np.zeros((8, 8)), np.zeros((8, 8))
    rng = np.random.default_rng(seed)
    z, u = rng.standard_normal((2, 8, 8))
    return cov, (z + z.T) / 2, (u + u.T) / 2


def admm_rho(cov, lam):
    eigs = np.linalg.eigvalsh(cov)
    return 0.1 * (eigs[0] + lam) * (eigs[-1] + lam)


def assert_close(ours, theirs):
    assert np.abs(ours - theirs).max() <= 1e-10 * np.abs(theirs).max()


class TestPythonKernel:
    """The vectorized ADMM iteration ``_admm`` against the textbook reference.

    The reference takes the Theta-step by a matrix square root instead of
    an eigendecomposition and soft-thresholds entry by entry, so the
    clip-based threshold, the over-relaxation and the dual update are
    checked independently.
    """

    @pytest.mark.parametrize("seed", [0, 1, 5, 21, 109])
    @pytest.mark.parametrize("lam", [0.3, 1e-3], ids=["sparse", "dense"])
    @pytest.mark.parametrize("warm", [False, True], ids=["zero", "warm"])
    def test_matches_reference(self, seed, lam, warm):
        cov, z0, u0 = admm_problem(seed, warm)
        rho = admm_rho(cov, lam)
        # ADMM alone reaches tol, by the oracle's residual.
        z, u, iterations, _ = admm_until(
            cov, lam, rho, z0, u0, 1e-9, lambda z: glasso_kkt_residual(z, cov, lam)
        )
        z_ref, u_ref = reference_admm_glasso(
            cov, lam, rho, z0, u0, iterations, relax=glasso._RELAX
        )
        assert_close(z, z_ref)
        assert_close(u, u_ref)
        assert np.array_equal(z, z.T) and np.array_equal(u, u.T)

    @pytest.mark.parametrize("steps", [0, 1, 3])
    def test_matches_reference_when_capped(self, steps):
        cov, z0, u0 = admm_problem(21, warm=True)
        before = z0.copy(), u0.copy()
        rho = admm_rho(cov, 1e-3)
        z, u = admm(cov, 1e-3, rho, z0, u0, steps)
        z_ref, u_ref = reference_admm_glasso(cov, 1e-3, rho, z0, u0, steps, relax=glasso._RELAX)
        assert_close(z, z_ref)
        assert_close(u, u_ref)
        assert np.array_equal(z, z.T) and np.array_equal(u, u.T)
        assert np.array_equal(z0, before[0]) and np.array_equal(u0, before[1])

    @pytest.mark.parametrize("steps", [0, 1, 3])
    def test_returns_new_arrays(self, steps):
        # The iteration runs in place; the chunked driver relies on the
        # buffers staying inside one call.
        cov, z0, u0 = admm_problem(21, warm=True)
        z, u = admm(cov, 1e-3, admm_rho(cov, 1e-3), z0, u0, steps)
        for a, b in [(z, z0), (z, u0), (z, cov), (u, z0), (u, u0), (u, cov), (z, u)]:
            assert not np.shares_memory(a, b)

    @pytest.mark.parametrize("first, second", [(5, 5), (3, 4), (0, 7)])
    def test_chunks_compose(self, first, second):
        # The solver's chunked driver relies on this, bit for bit.
        cov, z0, u0 = admm_problem(5, warm=True)
        rho = admm_rho(cov, 1e-3)
        z, u = admm(cov, 1e-3, rho, *admm(cov, 1e-3, rho, z0, u0, first), second)
        z_once, u_once = admm(cov, 1e-3, rho, z0, u0, first + second)
        assert np.array_equal(z, z_once) and np.array_equal(u, u_once)

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_non_positive_diagonal(self, bad, monkeypatch):
        cov = random_spd(5, seed=3)
        cov[3, 3] = bad
        before = cov.copy()
        steps = []
        monkeypatch.setattr(np.linalg, "eigh", lambda a: steps.append(a))
        with pytest.raises(ValidationError, match="semidefinite"):
            graphical_lasso(cov, 0.1)
        assert steps == []
        assert np.array_equal(cov, before)


def as_lists(cov):
    return np.asarray(cov).tolist()


class TestUnpenalizedPython(TestUnpenalized):
    convert = staticmethod(as_lists)


class TestPenalizedPython(TestPenalized):
    convert = staticmethod(as_lists)


class TestValidationAndErrorsPython(TestValidationAndErrors):
    convert = staticmethod(as_lists)
