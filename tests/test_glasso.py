import numpy as np
import pytest

from _build import C_COMPILER
from _oracles import (
    glasso_kkt_residual,
    penalized_objective,
    proximal_gradient_glasso,
    reference_lasso_gram_cd,
)
from gridtopo import _cd, glasso
from gridtopo.errors import ConvergenceError, NumericalError, ValidationError
from gridtopo.glasso import (
    active_kernel,
    default_lambda,
    glasso_objective,
    graphical_lasso,
)


def random_spd(dim, seed, n_factor=8):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n_factor * dim, dim))
    return x.T @ x / (n_factor * dim)


class KernelLeg:
    """Runs a solver test class on one coordinate-descent kernel.

    The solver classes below run on the compiled kernel; their
    ``*Python`` subclasses at the end of the module rerun every test on
    the pure-Python twin.
    """

    kernel = "cython"

    @pytest.fixture(autouse=True)
    def _kernel_built(self):
        if self.kernel == "cython" and C_COMPILER is None:
            pytest.skip("no C compiler on PATH to build gridtopo._cd_fast")


class TestUnpenalized(KernelLeg):
    def test_matches_direct_inverse(self):
        cov = random_spd(8, seed=0)
        tol = 1e-6
        conc = graphical_lasso(cov, 0.0, tol=tol, kernel=self.kernel)
        inv = np.linalg.inv(cov)
        assert np.linalg.norm(conc.j - inv) / np.linalg.norm(inv) < 10 * tol

    def test_singular_rejected(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((4, 8))
        cov = x.T @ x / 4  # rank 4 < dim 8
        with pytest.raises(NumericalError, match="nonsingular"):
            graphical_lasso(cov, 0.0, kernel=self.kernel)


class TestPenalized(KernelLeg):
    def test_saturation_gives_diagonal(self):
        cov = random_spd(6, seed=1)
        off = cov.copy()
        np.fill_diagonal(off, 0.0)
        lam = np.abs(off).max()
        conc = graphical_lasso(cov, lam, tol=1e-8, kernel=self.kernel)
        assert np.allclose(conc.j, np.diag(np.diag(conc.j)), atol=1e-9)
        assert np.diag(conc.j) == pytest.approx(1.0 / np.diag(cov))

    @pytest.mark.parametrize("seed", range(3))
    def test_objective_matches_proximal_oracle(self, seed):
        cov = random_spd(4, seed=10 + seed)
        lam = 0.1
        conc = graphical_lasso(cov, lam, tol=1e-10, kernel=self.kernel)
        oracle = proximal_gradient_glasso(cov, lam)
        ours = glasso_objective(cov, conc.j, lam)
        theirs = penalized_objective(cov, oracle, lam)
        assert abs(ours - theirs) < 1e-6

    def test_meta_recorded(self):
        cov = random_spd(6, seed=4)
        conc = graphical_lasso(cov, 0.05, kernel=self.kernel)
        assert conc.provenance == "graphical_lasso"
        assert conc.meta["lambda"] == 0.05
        assert conc.meta["iterations"] >= 1
        assert "gap" in conc.meta and "objective" in conc.meta

    def test_inner_diagnostics(self, monkeypatch):
        module = glasso._cd if self.kernel == "python" else glasso._cd_fast
        kernel = module.lasso_gram_cd
        returned = []

        def recording(*args):
            sweeps = kernel(*args)
            returned.append(sweeps)
            return sweeps

        monkeypatch.setattr(module, "lasso_gram_cd", recording)
        cov = random_spd(8, seed=9, n_factor=3)
        lam = 0.03
        for cap in (2000, 3):
            returned.clear()
            conc = graphical_lasso(cov, lam, tol=1e-9, inner_max_sweeps=cap, kernel=self.kernel)
            assert len(returned) == conc.meta["iterations"] * cov.shape[0]
            assert conc.meta["inner_sweeps"] == sum(returned)
            assert conc.meta["inner_capped"] == sum(s == cap for s in returned)
            assert conc.meta["kkt_residual"] == pytest.approx(
                glasso_kkt_residual(conc.j, cov, lam), rel=1e-12, abs=1e-15
            )
        assert conc.meta["inner_capped"] > 0

    def test_positive_definite_result(self):
        cov = random_spd(8, seed=5)
        conc = graphical_lasso(cov, 0.02, kernel=self.kernel)
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
            conc = graphical_lasso(cov, float(lam), tol=1e-9, kernel=self.kernel)
            mask = np.abs(conc.j) > 1e-6
            np.fill_diagonal(mask, False)
            support = {tuple(idx) for idx in np.argwhere(mask)}
            if previous is not None:
                assert support <= previous
            previous = support


class TestValidationAndErrors(KernelLeg):
    def test_negative_penalty(self):
        with pytest.raises(ValidationError):
            graphical_lasso(np.eye(4), -0.1, kernel=self.kernel)

    def test_asymmetric_covariance(self):
        cov = np.eye(4)
        cov[0, 1] = 0.5
        with pytest.raises(ValidationError, match="symmetric"):
            graphical_lasso(cov, 0.1, kernel=self.kernel)

    def test_indefinite_covariance(self):
        cov = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(ValidationError, match="semidefinite"):
            graphical_lasso(cov, 0.1, kernel=self.kernel)

    def test_nonconvergence_reports_gap(self):
        cov = random_spd(6, seed=6)
        with pytest.raises(ConvergenceError) as excinfo:
            graphical_lasso(cov, 0.01, tol=1e-14, max_iter=0, kernel=self.kernel)
        assert excinfo.value.gap is not None

    def test_default_lambda_rate(self):
        assert default_lambda(100, 20) == pytest.approx(0.5 * np.sqrt(np.log(20) / 100))


class TestKernels:
    @pytest.mark.skipif(C_COMPILER is None, reason="no C compiler on PATH to build gridtopo._cd_fast")
    def test_kernels_agree(self):
        cov = random_spd(10, seed=7, n_factor=3)
        a = graphical_lasso(cov, 0.03, tol=1e-9, kernel="python")
        b = graphical_lasso(cov, 0.03, tol=1e-9, kernel="cython")
        scale = np.abs(b.j).max()
        assert np.abs(a.j - b.j).max() < 1e-8 * scale

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("GRIDTOPO_PURE_PYTHON", "1")
        assert active_kernel() == "python"
        monkeypatch.delenv("GRIDTOPO_PURE_PYTHON")

    def test_unknown_kernel(self):
        with pytest.raises(ValidationError):
            active_kernel("fortran")

    def test_kernel_recorded(self):
        cov = random_spd(4, seed=8)
        conc = graphical_lasso(cov, 0.05, kernel="python")
        assert conc.meta["kernel"] == "python"


def lasso_problem(m, seed):
    """Gram matrix and target of a column subproblem with a sparse truth."""
    rng = np.random.default_rng(seed)
    gram = random_spd(m, seed, n_factor=2)
    truth = np.where(rng.random(m) < 0.3, rng.standard_normal(m), 0.0)
    return gram, gram @ truth + 0.1 * rng.standard_normal(m)


class TestPythonKernel:
    """``_cd.lasso_gram_cd`` reproduces the numpy-scalar formulation bit for bit."""

    @pytest.mark.parametrize("m", [0, 1, 5, 21, 109])
    @pytest.mark.parametrize("lam", [0.3, 1e-3], ids=["sparse", "dense"])
    @pytest.mark.parametrize("warm", [False, True], ids=["zero", "warm"])
    def test_matches_reference(self, m, lam, warm):
        gram, target = lasso_problem(m, seed=100 + m)
        start = np.random.default_rng(m).standard_normal(m) if warm else np.zeros(m)
        ours, theirs = start.copy(), start.copy()
        sweeps = _cd.lasso_gram_cd(gram, target, ours, lam, 1e-9, 10_000)
        assert sweeps == reference_lasso_gram_cd(gram, target, theirs, lam, 1e-9, 10_000)
        assert sweeps < 10_000
        assert np.array_equal(ours, theirs)

    @pytest.mark.parametrize("max_sweeps", [0, 1, 3])
    def test_matches_reference_when_capped(self, max_sweeps):
        gram, target = lasso_problem(21, seed=7)
        ours, theirs = np.zeros(21), np.zeros(21)
        sweeps = _cd.lasso_gram_cd(gram, target, ours, 1e-3, 1e-12, max_sweeps)
        assert sweeps == max_sweeps
        assert sweeps == reference_lasso_gram_cd(gram, target, theirs, 1e-3, 1e-12, max_sweeps)
        assert np.array_equal(ours, theirs)

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_non_positive_diagonal(self, bad):
        gram, target = lasso_problem(5, seed=3)
        gram[3, 3] = bad
        beta = np.random.default_rng(3).standard_normal(5)
        before = beta.copy()
        with pytest.raises(ValueError, match="non-positive diagonal"):
            _cd.lasso_gram_cd(gram, target, beta, 0.1, 1e-9, 100)
        assert np.array_equal(beta, before)


class TestUnpenalizedPython(TestUnpenalized):
    kernel = "python"


class TestPenalizedPython(TestPenalized):
    kernel = "python"


class TestValidationAndErrorsPython(TestValidationAndErrors):
    kernel = "python"
