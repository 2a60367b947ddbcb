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
- Z-step: the off-diagonal entries of ``Theta + U`` are soft-thresholded
  at ``lam / rho``; the diagonal is not penalized, so ``lam = 0`` gives
  the plain inverse;
- U-step: ``U += Theta - Z``, which leaves U equal to the part that the
  threshold removed.

The Z- and U-steps read the over-relaxed ``relax * Theta + (1 - relax) *
Z`` in place of Theta (section 3.4.3); any relax in (0, 2) converges
(Eckstein and Bertsekas 1992). rho is fixed from the extreme eigenvalues
of ``cov`` as ``_RHO_SCALE * (e_min + lam) * (e_max + lam)``: a rho near
the geometric mean of the curvature range of ``-log det`` is the
classical choice, and ``inv(cov + lam I)`` stands in for the unknown
solution. rho is internal: there is no argument or variable for it.

Stop rule: :func:`graphical_lasso` runs :func:`_admm` in chunks of
``_CHECK_EVERY`` iterations and after each computes the KKT residual of
the sparse iterate Z (:func:`_kkt_residual`, the largest violation of
``inv(Z) - cov = lam * G`` for a subgradient G of the penalty). It stops
once that is at most ``tol``, so ``tol`` bounds stationarity of the
returned estimate. The estimate is returned only after
``np.linalg.cholesky`` succeeds on it, so it is positive definite;
otherwise :class:`NumericalError` is raised. Spending ``max_iter``
iterations raises :class:`ConvergenceError` with the duality gap of the
last iterate; a tail of the budget shorter than a chunk runs unchecked.

Newton finish (the active-set idea of QUIC, Hsieh et al., JMLR 2014): at
a check whose sign pattern of Z equals that of the previous check and
has not failed a finish before, :func:`_newton` takes up to
``_NEWTON_STEPS`` full Newton steps on the face of that pattern, where
the objective is smooth, and returns the first point with a KKT residual
of at most ``tol`` on which Cholesky succeeds. A sign change, a failed
factorization or running out of steps abandons it, and ADMM continues
from its own unchanged iterate, so a fit whose finishes all fail is the
plain ADMM fit. The estimate lies within ``tol`` of the ADMM-only one;
its support can differ at entries that ``tol`` does not pin.

Every step is a fixed sequence of numpy and LAPACK calls, so a fit is
deterministic at a fixed BLAS thread count.

A fit's ``meta`` records ``lambda``, ``tol``, ``iterations`` (ADMM
iterations), ``newton_steps`` (Newton steps of every finish tried, the
abandoned ones included), ``gap`` (the duality gap
``<cov, Z> - p + lam ||Z||_1,off``), ``objective``, ``kkt_residual`` of
the returned estimate, ``rho``, and ``kernel``: the solver name
``"admm"``, which :func:`active_kernel` also returns.

Saturating penalty: when ``lam`` is at or above every off-diagonal
``|cov|``, ``diag(1 / variances)`` meets the KKT conditions exactly, so
it is returned before rho is computed, with ``iterations`` 0 and ``rho``
None. So no penalty overflows rho.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConvergenceError, NumericalError, ValidationError
from .estimator import ConcentrationMatrix
from .sampler import _require_conditioned, _symmetric

__all__ = ["graphical_lasso", "glasso_objective", "default_lambda", "active_kernel"]

_SOLVER = "admm"
# Trials of a fixed rho: ROADMAP "Measured floors", ADMM iteration.
_RHO_SCALE = 0.1
# Held-out iterations at 1.5 and 1.9: CHANGES.md, "Fewer, cheaper ADMM iterations".
_RELAX = 1.9
_CHECK_EVERY = 5
_NEWTON_STEPS = 6


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


def _kkt_residual(
    cov: np.ndarray, precision: np.ndarray, lam: float
) -> tuple[float, np.ndarray]:
    """Largest violation of the stationarity conditions inv(P) - cov = lam * G.

    G is a subgradient of the off-diagonal l1 norm: sign(P_ij) on the
    support, anything in [-1, 1] off it, and 0 on the diagonal. Returns
    the residual and ``inv(P)``, which a Newton step from P reuses.
    """
    inverse = np.linalg.inv(precision)
    grad = inverse - cov
    violation = np.where(
        precision != 0, np.abs(grad - lam * np.sign(precision)), np.abs(grad) - lam
    )
    np.fill_diagonal(violation, np.abs(np.diag(grad)))
    return float(violation.max()), inverse


def _admm(
    cov: np.ndarray,
    rho: float,
    upper: np.ndarray,
    lower: np.ndarray,
    z: np.ndarray,
    u: np.ndarray,
    steps: int,
) -> tuple[np.ndarray, np.ndarray]:
    """``steps`` ADMM iterations from the iterate ``z`` and scaled dual ``u``.

    ``upper`` and ``lower`` bound the Z-step's soft threshold: ``lam / rho``
    and its negative off the diagonal, 0 on it.

    Returns the final ``z`` and ``u`` in new arrays and modifies neither
    argument; the driver, :func:`graphical_lasso`, does every check
    between calls. Each iteration runs in place in ``z``, ``u`` and one
    scratch buffer ``v``. The Theta-step yields ``relax * theta`` at once,
    as ``g g'`` with ``g = q sqrt(relax (d + sqrt(d**2 + 4 rho)) / (2 rho))``
    scaling the columns of ``q``: one ``syrk``, exactly symmetric, so
    ``z`` and ``u`` stay exactly symmetric if they start so. Then
    ``v = relax * theta + (1 - relax) * z + u`` is summed in that order.
    """
    z, u, v = z.copy(), u.copy(), np.empty_like(z)
    for _ in range(steps):
        np.subtract(z, u, out=v)
        v *= rho
        v -= cov
        try:
            d, q = np.linalg.eigh(v)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"ADMM step failed: {exc}") from exc
        g = q * np.sqrt((d + np.sqrt(d * d + 4.0 * rho)) * (_RELAX / (2.0 * rho)))
        np.matmul(g, g.T, out=v)
        z *= 1.0 - _RELAX
        v += z
        v += u
        np.minimum(np.maximum(v, lower, out=u), upper, out=u)
        np.subtract(v, u, out=z)
    return z, u


def _newton(
    cov: np.ndarray, lam: float, z: np.ndarray, tol: float, inverse: np.ndarray | None = None
) -> tuple[tuple[np.ndarray, float] | None, int]:
    """Polish ``z`` by full Newton steps on the face of its sign pattern.

    The free entries are the diagonal and the off-diagonal support of
    ``z``, each kept at its sign. On that face the objective
    ``-log det P + <cov + lam sign(z), P>`` (sign taken off the diagonal)
    is smooth; its Hessian on the free entries ``(i, j)`` and ``(k, l)``
    is built from ``W = inv(P)`` as ``W_ik W_jl + W_il W_jk``, halved in
    the columns of diagonal entries, which appear once in ``P``. The
    Hessian is gathered from the row blocks ``W[rows]`` and ``W[cols]``.
    ``inverse``, if given, is ``inv(z)``; after that, each iterate is
    inverted once, by its KKT check, and the next step reuses that
    inverse. Returns the estimate and its KKT residual once that is at
    most ``tol`` and Cholesky succeeds, or ``None`` if a free entry
    changes sign, a factorization fails or ``_NEWTON_STEPS`` steps do
    not get there; and the number of steps taken either way.
    """
    diagonal = np.eye(len(z), dtype=bool)
    rows, cols = np.nonzero(np.triu((z != 0) | diagonal))
    signs = np.sign(z[rows, cols])
    half = np.where(rows == cols, 0.5, 1.0)
    target = cov + lam * np.where(diagonal, 0.0, np.sign(z))
    theta, w = z.copy(), inverse
    for step in range(1, _NEWTON_STEPS + 1):
        try:
            if w is None:
                w = np.linalg.inv(theta)
            w_rows, w_cols = w[rows], w[cols]
            hessian = w_rows[:, rows]
            hessian *= w_cols[:, cols]
            cross = w_rows[:, cols]
            cross *= w_cols[:, rows]
            hessian += cross
            hessian *= half
            delta = np.linalg.solve(hessian, (w - target)[rows, cols])
        except np.linalg.LinAlgError:
            return None, step
        theta[rows, cols] += delta
        theta[cols, rows] = theta[rows, cols]
        if np.any(np.sign(theta[rows, cols]) != signs):
            return None, step
        try:
            np.linalg.cholesky(theta)
            residual, w = _kkt_residual(cov, theta, lam)
        except np.linalg.LinAlgError:
            return None, step
        if residual <= tol:
            return (theta, residual), step
    return None, _NEWTON_STEPS


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
    lam : nonnegative, finite off-diagonal l1 penalty.
    tol : positive, finite bound on the KKT residual of the returned estimate;
        iteration stops as soon as the residual is at most ``tol``.
    max_iter : ADMM iteration budget; spending it raises
        :class:`ConvergenceError` carrying the final duality gap.

    Returns a positive-definite :class:`ConcentrationMatrix` with
    provenance ``graphical_lasso`` and fit diagnostics in ``meta``.
    """
    cov = _symmetric(cov, "covariance")
    if not 0 <= lam < np.inf:
        raise ValidationError("penalty must be nonnegative and finite")
    if not 0 < tol < np.inf:
        raise ValidationError("tol must be positive and finite")
    if max_iter < 1:
        raise ValidationError("max_iter must be >= 1")
    p = cov.shape[0]
    eigs = np.linalg.eigvalsh(cov)
    scale = max(float(np.abs(cov).max()), 1e-300)
    if eigs[0] < -1e-10 * scale:
        raise ValidationError("covariance must be positive semidefinite")
    if lam == 0:
        _require_conditioned(eigs, "lam = 0 requires a nonsingular covariance")
    variances = np.diag(cov)
    if np.any(variances <= 0):
        raise NumericalError("covariance has a zero variance; the penalized problem is unbounded")
    if bus_order is None:
        bus_order = tuple(str(i) for i in range(p // 2))

    # Z starts at the solution for a saturating penalty (lam at or above
    # every off-diagonal |cov|), which is returned as it is.
    z, u = np.diag(1.0 / variances), np.zeros((p, p))
    if lam >= np.abs(cov - np.diag(variances)).max():
        residual, _ = _kkt_residual(cov, z, lam)
        return _estimate(
            cov, z, lam, tol, bus_order, iterations=0, newton_steps=0, residual=residual, rho=None
        )
    rho = _RHO_SCALE * float((max(eigs[0], 0.0) + lam) * (eigs[-1] + lam))
    upper = (1.0 - np.eye(p)) * (lam / rho)
    lower = -upper
    iterations = newton_steps = 0
    residual = np.inf
    previous, failed = None, set()
    while iterations < max_iter:
        chunk = min(_CHECK_EVERY, max_iter - iterations)
        z, u = _admm(cov, rho, upper, lower, z, u, chunk)
        iterations += chunk
        if chunk < _CHECK_EVERY:
            break  # the tail of the budget runs unchecked
        try:
            residual, inverse = _kkt_residual(cov, z, lam)
        except np.linalg.LinAlgError:
            inverse = None  # Z is singular: keep the last residual
        if residual <= tol:
            break
        pattern = np.sign(z).astype(np.int8).tobytes()
        if pattern == previous and pattern not in failed:
            polished, steps = _newton(cov, lam, z, tol, inverse)
            newton_steps += steps
            if polished is not None:
                z, residual = polished
                break
            failed.add(pattern)
        previous = pattern
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
    return _estimate(
        cov, z, lam, tol, bus_order, iterations=iterations, newton_steps=newton_steps,
        residual=residual, rho=rho,
    )


def _estimate(cov, z, lam, tol, bus_order, *, iterations, newton_steps, residual, rho):
    """The fit ``z`` with its diagnostics (module docstring)."""
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
            "newton_steps": newton_steps,
            "kernel": _SOLVER,
            "rho": rho,
        },
    )
