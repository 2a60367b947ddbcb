"""Independent numerical oracles used by the test suite.

These deliberately avoid the code paths they check: the penalized
objective is minimized by proximal gradient descent on the precision
matrix itself (no block coordinate descent, no working covariance).
"""

import numpy as np


def penalized_objective(cov, theta, lam):
    sign, logdet = np.linalg.slogdet(theta)
    if sign <= 0:
        return np.inf
    off_l1 = np.abs(theta).sum() - np.abs(np.diag(theta)).sum()
    return float(-logdet + np.sum(cov * theta) + lam * off_l1)


def _soft_offdiag(theta, amount):
    out = np.sign(theta) * np.maximum(np.abs(theta) - amount, 0.0)
    np.fill_diagonal(out, np.diag(theta))
    return out


def proximal_gradient_glasso(cov, lam, max_iter=200_000, tol=1e-13):
    """Brute-force minimizer of the penalized log-det objective.

    Proximal gradient with backtracking on the smooth majorization;
    monotone in the full objective. Intended for small matrices.
    """
    p = cov.shape[0]
    theta = np.linalg.inv(cov + lam * np.eye(p))
    theta = (theta + theta.T) / 2
    step = 1.0
    obj = penalized_objective(cov, theta, lam)
    stale = 0
    for _ in range(max_iter):
        grad = cov - np.linalg.inv(theta)
        grad = (grad + grad.T) / 2
        smooth = obj - lam * (np.abs(theta).sum() - np.abs(np.diag(theta)).sum())
        while True:
            cand = _soft_offdiag(theta - step * grad, step * lam)
            cand = (cand + cand.T) / 2
            cand_obj = penalized_objective(cov, cand, lam)
            if np.isfinite(cand_obj):
                diff = cand - theta
                quad = smooth + np.sum(grad * diff) + np.sum(diff * diff) / (2 * step)
                if cand_obj - lam * (np.abs(cand).sum() - np.abs(np.diag(cand)).sum()) <= quad + 1e-15:
                    break
            step *= 0.5
            if step < 1e-18:
                return theta
        if obj - cand_obj < tol * max(1.0, abs(obj)):
            stale += 1
        else:
            stale = 0
        theta, obj = cand, cand_obj
        step = min(step * 1.5, 1e6)
        if stale >= 20:
            break
    return theta


def reference_lasso_gram_cd(gram, target, beta, lam, tol, max_sweeps):
    """Coordinate descent for 0.5 b'Qb - t'b + lam ||b||_1 on numpy scalars.

    The straightforward formulation of ``gridtopo._cd.lasso_gram_cd``:
    same update order, arithmetic and stopping rule, indexing the arrays
    directly. The kernel must reproduce its ``beta`` and sweep count
    bit for bit.
    """
    m = beta.shape[0]
    c = gram @ beta
    sweeps = 0
    for sweeps in range(1, max_sweeps + 1):
        d_max = 0.0
        b_max = 0.0
        for k in range(m):
            qkk = gram[k, k]
            if qkk <= 0:
                raise ValueError("non-positive diagonal in gram matrix")
            r = target[k] - c[k] + qkk * beta[k]
            if r > lam:
                new = (r - lam) / qkk
            elif r < -lam:
                new = (r + lam) / qkk
            else:
                new = 0.0
            delta = new - beta[k]
            if delta != 0.0:
                c += delta * gram[k]
                beta[k] = new
            if abs(delta) > d_max:
                d_max = abs(delta)
            if abs(new) > b_max:
                b_max = abs(new)
        if d_max <= tol * max(b_max, 1e-12):
            break
    return sweeps


def glasso_kkt_residual(precision, cov, lam):
    """Largest violation of the graphical-lasso stationarity conditions.

    At the optimum inv(P) - cov = lam * G, with G a subgradient of the
    off-diagonal l1 norm: sign(P_ij) where P_ij != 0, anything in [-1, 1]
    where P_ij == 0, and 0 on the unpenalized diagonal.
    """
    grad = np.linalg.inv(precision) - cov
    p = len(cov)
    residual = max(abs(grad[i, i]) for i in range(p))
    for i in range(p):
        for j in range(p):
            if i == j:
                continue
            if precision[i, j] != 0:
                residual = max(residual, abs(grad[i, j] - lam * np.sign(precision[i, j])))
            else:
                residual = max(residual, abs(grad[i, j]) - lam)
    return float(residual)
