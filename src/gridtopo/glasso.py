"""Graphical lasso: l1-penalized maximum-likelihood concentration estimate.

Solves

    minimize_S  -log det S + <S, cov> + lam * ||S||_1,offdiag

by block coordinate descent over columns of the working covariance, with
each column subproblem solved by coordinate descent (the classic glasso
scheme; one full pass costs O(p^3)). The diagonal is not penalized, so
the lam = 0 solution is the plain inverse.

The inner kernel is the hot loop. A compiled extension is used when
available and the pure-Python twin otherwise; set GRIDTOPO_PURE_PYTHON=1
to force the fallback, and call active_kernel() to see which one runs.
The extension is built by ``python setup.py build_ext --inplace`` (the
test suite runs this step itself), from ``_cd_fast.pyx`` when Cython is
installed and from the committed ``_cd_fast.c`` otherwise. The Python
twin keeps its per-coordinate scalars in Python floats and only the
running product in numpy (see ``_cd``), which gives the same bits as
indexing numpy arrays at about half the cost. Column update order is
fixed, so a given kernel is deterministic.

A fit's ``meta`` records the kernel, the outer iterations, the total
inner sweeps, how many column subproblems used their whole sweep budget
(``inner_capped``) and the KKT residual of the returned estimate.
"""

from __future__ import annotations

import math
import os

import numpy as np

from . import _cd
from .errors import ConvergenceError, NumericalError, ValidationError
from .estimator import COND_LIMIT, ConcentrationMatrix, _symmetric_check

try:
    from . import _cd_fast
except ImportError:
    _cd_fast = None

__all__ = ["graphical_lasso", "glasso_objective", "default_lambda", "active_kernel"]


def active_kernel(requested: str | None = None) -> str:
    """Name of the coordinate-descent kernel that will run."""
    if requested is None:
        if os.environ.get("GRIDTOPO_PURE_PYTHON"):
            return "python"
        return "cython" if _cd_fast is not None else "python"
    if requested == "cython" and _cd_fast is None:
        raise ValidationError("compiled kernel not available in this build")
    if requested not in ("cython", "python"):
        raise ValidationError(f"unknown kernel {requested!r}")
    return requested


def default_lambda(n_samples: int, dim: int, c: float = 0.5) -> float:
    """Standard-rate penalty c * sqrt(log(dim)/n), exposed for overriding."""
    return c * math.sqrt(math.log(dim) / n_samples)


def glasso_objective(cov: np.ndarray, precision: np.ndarray, lam: float) -> float:
    sign, logdet = np.linalg.slogdet(precision)
    if sign <= 0:
        return np.inf
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


def graphical_lasso(
    cov: np.ndarray,
    lam: float,
    tol: float = 1e-6,
    max_iter: int = 500,
    bus_order: tuple[str, ...] | None = None,
    kernel: str | None = None,
    inner_max_sweeps: int = 2000,
) -> ConcentrationMatrix:
    """Estimate a sparse concentration matrix from a covariance.

    Parameters
    ----------
    cov : symmetric positive-semidefinite matrix. Must be nonsingular
        when ``lam`` is zero.
    lam : nonnegative off-diagonal l1 penalty.
    tol : convergence tolerance; iteration stops when the duality gap or
        the largest working-covariance change (relative to the covariance
        scale) drops below it.
    max_iter : outer iteration budget; exceeding it raises
        :class:`ConvergenceError` carrying the final gap.
    inner_max_sweeps : coordinate-descent sweep budget per column
        subproblem; ``meta["inner_capped"]`` counts the subproblems that
        used all of it.

    Returns a :class:`ConcentrationMatrix` with provenance
    ``graphical_lasso`` and fit diagnostics in ``meta``.
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
    kernel_name = active_kernel(kernel)
    cd = _cd.lasso_gram_cd if kernel_name == "python" else _cd_fast.lasso_gram_cd

    # Shrinking off-diagonals keeps the ill-conditioned starting points
    # invertible; the fixed point does not depend on the start.
    w = cov * 0.95
    np.fill_diagonal(w, np.diag(cov))
    precision = np.linalg.pinv(w, hermitian=True)
    eps = np.finfo(float).eps

    index = np.arange(p)
    others = [np.ascontiguousarray(index[index != col]) for col in range(p)]
    gap = np.inf
    inner_sweeps = 0
    inner_capped = 0
    for iteration in range(1, max_iter + 1):
        max_change = 0.0
        for col in range(p):
            mask = others[col]
            w11 = np.ascontiguousarray(w[np.ix_(mask, mask)])
            s12 = np.ascontiguousarray(cov[mask, col])
            beta = -precision[mask, col] / (precision[col, col] + 1000 * eps)
            beta = np.ascontiguousarray(beta)
            try:
                sweeps = cd(w11, s12, beta, lam, 0.1 * tol, inner_max_sweeps)
            except ValueError as exc:
                raise NumericalError(f"column subproblem failed: {exc}") from exc
            inner_sweeps += sweeps
            inner_capped += sweeps >= inner_max_sweeps
            w12 = w11 @ beta
            max_change = max(max_change, float(np.abs(w[mask, col] - w12).max()))
            w[mask, col] = w12
            w[col, mask] = w12
            denom = w[col, col] - float(w12 @ beta)
            if denom <= 0 or not np.isfinite(denom):
                raise NumericalError("working covariance lost positive definiteness")
            precision[col, col] = 1.0 / denom
            precision[mask, col] = -beta / denom
            precision[col, mask] = -beta / denom
        gap = _dual_gap(cov, precision, lam)
        if abs(gap) < tol or max_change < tol * scale:
            break
    else:
        raise ConvergenceError(
            f"graphical lasso did not converge in {max_iter} iterations "
            f"(duality gap {gap:.3e})",
            gap=gap,
            iterations=max_iter,
        )

    precision = (precision + precision.T) / 2
    if np.linalg.eigvalsh(precision)[0] <= 0:
        raise NumericalError("estimated concentration matrix not positive definite")
    if bus_order is None:
        bus_order = tuple(str(i) for i in range(p // 2))
    return ConcentrationMatrix(
        j=precision,
        bus_order=bus_order,
        provenance="graphical_lasso",
        meta={
            "lambda": float(lam),
            "tol": float(tol),
            "iterations": iteration,
            "gap": float(gap),
            "objective": glasso_objective(cov, precision, lam),
            "kernel": kernel_name,
            "inner_sweeps": inner_sweeps,
            "inner_capped": inner_capped,
            "kkt_residual": _kkt_residual(cov, precision, lam),
        },
    )
