"""Graphical lasso: l1-penalized maximum-likelihood concentration estimate.

Solves

    minimize_S  -log det S + <S, cov> + lam * ||S||_1,offdiag

by ADMM on the precision matrix (Boyd et al., "Distributed optimization
and statistical learning via the alternating direction method of
multipliers", 2011, section 6.5). The problem is split as Theta = Z, with
the log-det and trace terms on Theta and the penalty on Z; U is the
scaled dual variable. One iteration is

- Theta-step: ``d, Q = eigh(rho * (Z - U) - cov)`` and
  ``Theta = Q diag((d + sqrt(d**2 + 4 rho)) / (2 rho)) Q'``. Every
  eigenvalue of Theta is positive, whatever the input;
- Z-step: the off-diagonal entries of ``Theta + U`` (over-relaxed by
  ``_RELAX``) are soft-thresholded at ``lam / rho``; the diagonal is not
  penalized, so ``lam = 0`` gives the plain inverse;
- U-step: ``U += Theta - Z`` (Theta over-relaxed as in the Z-step),
  which leaves U equal to the part that the threshold removed.

rho is fixed from the extreme eigenvalues of ``cov``:
``_RHO_SCALE * (e_min + lam) * (e_max + lam)``. The curvature of
``-log det`` at Theta spans ``[1/theta_max**2, 1/theta_min**2]``, and a
rho near the geometric mean ``1/(theta_min theta_max)`` of that range is
the classical choice for a strongly convex smooth term;
``inv(cov + lam I)``, with eigenvalues ``1/(e + lam)``, stands in for the
unknown solution. The rule scales with ``cov`` (rho ~ cov**2 when lam
scales with cov). On standardized voltage covariances at 12 and 20 buses
and penalties c = 0.02 to 1, the best fixed rho was 0.07 to 0.16 times
that mean, hence ``_RHO_SCALE = 0.1``. Residual balancing (section
3.4.1) was measured and left out: it compares ``||Theta - Z||`` with
``rho ||Z - Z_prev||``, which have different units, so it moved rho away
on small penalties (3.6 and 11 times the iterations at c = 0.1 and 0.02
on 12 buses) and never converged on unstandardized voltage covariances.
rho is internal: there is no argument or variable for it.

Stop rule: every ``_CHECK_EVERY`` iterations the KKT residual of the
sparse iterate Z (:func:`_kkt_residual`, the largest violation of
``inv(Z) - cov = lam * G`` for a subgradient G of the penalty) is
computed, and the solver stops once it is at most ``tol``. So ``tol``
bounds stationarity of the returned estimate directly. Z is returned only
after ``np.linalg.cholesky`` succeeds on it, so the estimate is positive
definite; otherwise :class:`NumericalError` is raised. Spending
``max_iter`` iterations raises :class:`ConvergenceError` with the duality
gap of the last iterate.

Every step is a fixed sequence of numpy and LAPACK calls, so a fit is
deterministic at a fixed BLAS thread count.

A fit's ``meta`` records ``lambda``, ``tol``, ``iterations`` (ADMM
iterations), ``gap`` (the duality gap ``<cov, Z> - p + lam ||Z||_1,off``),
``objective``, ``kkt_residual`` of the returned estimate, ``rho``, and
``kernel``: the solver name ``"admm"``, which :func:`active_kernel` also
returns.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConvergenceError, NumericalError, ValidationError
from .estimator import COND_LIMIT, ConcentrationMatrix, _symmetric_check

__all__ = ["graphical_lasso", "glasso_objective", "default_lambda", "active_kernel"]

_SOLVER = "admm"
_RHO_SCALE = 0.1
_RELAX = 1.5
_CHECK_EVERY = 5


def active_kernel() -> str:
    """Name of the solver that :func:`graphical_lasso` runs."""
    return _SOLVER


def default_lambda(n_samples: int, dim: int, c: float = 0.5) -> float:
    """Standard-rate penalty c * sqrt(log(dim)/n), exposed for overriding."""
    return c * math.sqrt(math.log(dim) / n_samples)


def glasso_objective(cov: np.ndarray, precision: np.ndarray, lam: float) -> float:
    """Penalized objective; infinite unless ``precision`` is positive definite."""
    try:
        chol = np.linalg.cholesky(precision)
    except np.linalg.LinAlgError:
        return np.inf
    logdet = 2.0 * float(np.log(np.diag(chol)).sum())
    penalty = lam * (np.abs(precision).sum() - np.abs(np.diag(precision)).sum())
    return float(-logdet + np.sum(cov * precision) + penalty)


def _dual_gap(cov: np.ndarray, precision: np.ndarray, lam: float) -> float:
    gap = np.sum(cov * precision) - cov.shape[0]
    gap += lam * (np.abs(precision).sum() - np.abs(np.diag(precision)).sum())
    return float(gap)


def _kkt_residual(cov: np.ndarray, precision: np.ndarray, lam: float) -> float:
    """Largest violation of the stationarity conditions inv(P) - cov = lam * G.

    G is a subgradient of the off-diagonal l1 norm: sign(P_ij) on the
    support, anything in [-1, 1] off it, and 0 on the diagonal.
    """
    grad = np.linalg.inv(precision) - cov
    violation = np.where(
        precision != 0, np.abs(grad - lam * np.sign(precision)), np.abs(grad) - lam
    )
    np.fill_diagonal(violation, np.abs(np.diag(grad)))
    return float(violation.max())


def _admm(
    cov: np.ndarray,
    lam: float,
    rho: float,
    z: np.ndarray,
    u: np.ndarray,
    tol: float,
    max_iter: int,
) -> tuple[np.ndarray, np.ndarray, int, float]:
    """Run ADMM from the iterate ``z`` and scaled dual ``u``.

    Stops at the first check where the KKT residual of ``z`` is at most
    ``tol``, or after ``max_iter`` iterations. Returns the final ``z`` and
    ``u``, the iterations run and the last residual checked (``inf`` if
    none was); a residual above ``tol`` means the budget ran out. The
    arrays passed in are not modified.
    """
    p = cov.shape[0]
    threshold = (1.0 - np.eye(p)) * (lam / rho)
    residual = np.inf
    iteration = 0
    for iteration in range(1, max_iter + 1):
        try:
            d, q = np.linalg.eigh(rho * (z - u) - cov)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"ADMM step failed: {exc}") from exc
        theta = (q * ((d + np.sqrt(d * d + 4.0 * rho)) / (2.0 * rho))) @ q.T
        theta = (theta + theta.T) / 2
        v = _RELAX * theta + (1.0 - _RELAX) * z + u
        u = np.clip(v, -threshold, threshold)
        z = v - u
        if iteration % _CHECK_EVERY == 0:
            try:
                residual = _kkt_residual(cov, z, lam)
            except np.linalg.LinAlgError:
                continue
            if residual <= tol:
                break
    return z, u, iteration, residual


def graphical_lasso(
    cov: np.ndarray,
    lam: float,
    tol: float = 1e-6,
    max_iter: int = 10_000,
    bus_order: tuple[str, ...] | None = None,
) -> ConcentrationMatrix:
    """Estimate a sparse concentration matrix from a covariance.

    Parameters
    ----------
    cov : symmetric positive-semidefinite matrix with a positive
        diagonal. Must be nonsingular when ``lam`` is zero.
    lam : nonnegative off-diagonal l1 penalty.
    tol : bound on the KKT residual of the returned estimate; iteration
        stops as soon as the residual is at most ``tol``.
    max_iter : ADMM iteration budget; spending it raises
        :class:`ConvergenceError` carrying the final duality gap.

    Returns a positive-definite :class:`ConcentrationMatrix` with
    provenance ``graphical_lasso`` and fit diagnostics in ``meta``.
    """
    cov = _symmetric_check(cov)
    if lam < 0:
        raise ValidationError("penalty must be nonnegative")
    p = cov.shape[0]
    eigs = np.linalg.eigvalsh(cov)
    scale = max(float(np.abs(cov).max()), 1e-300)
    if eigs[0] < -1e-10 * scale:
        raise ValidationError("covariance must be positive semidefinite")
    if lam == 0 and (eigs[0] <= 0 or eigs[-1] / eigs[0] > COND_LIMIT):
        raise NumericalError("lam = 0 requires a nonsingular covariance")
    variances = np.diag(cov)
    if np.any(variances <= 0):
        raise NumericalError("covariance has a zero variance; the penalized problem is unbounded")

    rho = _RHO_SCALE * float((max(eigs[0], 0.0) + lam) * (eigs[-1] + lam))
    # Z starts at the solution for a saturating penalty.
    z, _, iterations, residual = _admm(
        cov, lam, rho, np.diag(1.0 / variances), np.zeros((p, p)), tol, max_iter
    )
    if not residual <= tol:
        gap = _dual_gap(cov, z, lam)
        raise ConvergenceError(
            f"graphical lasso did not converge in {max_iter} iterations "
            f"(KKT residual {residual:.3e}, duality gap {gap:.3e})",
            gap=gap,
            iterations=max_iter,
        )

    try:
        np.linalg.cholesky(z)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("estimated concentration matrix not positive definite") from exc
    if bus_order is None:
        bus_order = tuple(str(i) for i in range(p // 2))
    return ConcentrationMatrix(
        j=z,
        bus_order=bus_order,
        provenance="graphical_lasso",
        meta={
            "lambda": float(lam),
            "tol": float(tol),
            "iterations": iterations,
            "gap": _dual_gap(cov, z, lam),
            "objective": glasso_objective(cov, z, lam),
            "kkt_residual": residual,
            "kernel": _SOLVER,
            "rho": rho,
        },
    )
