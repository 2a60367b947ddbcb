"""Pure-Python coordinate descent for the penalized column subproblem.

Minimizes 0.5 * b' Q b - t' b + lam * ||b||_1 for a positive-definite
Gram matrix Q, updating coordinates in index order and maintaining the
running product Q @ b. The compiled twin in ``_cd_fast`` implements the
identical update order; results agree to rounding.

Representation: the per-coordinate scalars (target, coefficients and the
Gram diagonal) live in Python float lists, because indexing a numpy
array and operating on the numpy scalar it returns costs several times
more than the same operation on a Python float. The running product
stays a numpy array, because a coordinate move updates all of it at
once: ``step = Q[k] * delta`` into one preallocated buffer, then
``c += step``. Python floats and float64 scalars are both IEEE doubles, and
every operation is the one the numpy-scalar formulation performs, in the
same order, so the coefficients and the sweep count are bit-identical to
it (``tests/_oracles.py::reference_lasso_gram_cd``).
"""

from __future__ import annotations

import numpy as np

__all__ = ["lasso_gram_cd"]


def lasso_gram_cd(
    gram: np.ndarray,
    target: np.ndarray,
    beta: np.ndarray,
    lam: float,
    tol: float,
    max_sweeps: int,
) -> int:
    """Run coordinate-descent sweeps in place on ``beta``; returns sweeps used.

    Converged when the largest coordinate move in a sweep falls below
    ``tol`` times the largest coefficient magnitude. Raises ``ValueError``
    with ``beta`` untouched when the Gram diagonal is not positive.
    """
    m = beta.shape[0]
    lam = float(lam)
    diag = np.diagonal(gram).tolist()
    if any(qkk <= 0 for qkk in diag):
        raise ValueError("non-positive diagonal in gram matrix")
    t = target.tolist()
    b = beta.tolist()
    c = gram @ beta
    c_at = c.item
    rows = list(gram)
    step = np.empty(m)
    multiply, add = np.multiply, np.add
    sweeps = 0
    for sweeps in range(1, max_sweeps + 1):
        d_max = 0.0
        b_max = 0.0
        for k in range(m):
            qkk = diag[k]
            old = b[k]
            r = t[k] - c_at(k) + qkk * old
            if r > lam:
                new = (r - lam) / qkk
            elif r < -lam:
                new = (r + lam) / qkk
            else:
                new = 0.0
            delta = new - old
            if delta != 0.0:  # a zero move cannot raise d_max
                multiply(rows[k], delta, step)
                add(c, step, c)
                b[k] = new
                if abs(delta) > d_max:
                    d_max = abs(delta)
            if abs(new) > b_max:
                b_max = abs(new)
        if d_max <= tol * max(b_max, 1e-12):
            break
    beta[:] = b
    return sweeps
