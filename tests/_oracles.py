"""Independent numerical oracles used by the test suite.

These deliberately avoid the code paths they check: the penalized
objective is minimized by proximal gradient descent with backtracking on
the precision matrix (no operator splitting, no dual variable, no
eigendecomposition step), and the reference ADMM iteration takes its
Theta-step by a matrix square root and thresholds entry by entry, where
the solver uses an eigendecomposition and a vectorized clip. The noise
deviation of the concentration matrix is evaluated by the Woodbury update
instead of the difference of two inverses. The neighborhood search is
rebuilt from bus-name sets in Python loops: the oracle takes the
concentration matrix and threshold, tests the |J_vv| entries pair by pair
for its hybrid graph, enumerates the pairs of common neighbors for the
witness pass and compares neighbor sets bus by bus for the leaf pass,
where the learner reads one boolean mask with array products. The
endpoint deltas of a line addition come from a closed form in the
pre-event Laplacian diagonals instead of the difference of two
concentration matrices.
"""

import itertools

import numpy as np

from gridtopo.errors import ValidationError
from gridtopo.grid import admittance, reduced_laplacians


def penalized_objective(cov, theta, lam):
    # Infinite off the positive-definite cone. slogdet's sign alone would
    # let through matrices with an even number of negative eigenvalues.
    if np.linalg.eigvalsh(theta)[0] <= 0:
        return np.inf
    _, logdet = np.linalg.slogdet(theta)
    off_l1 = np.abs(theta).sum() - np.abs(np.diag(theta)).sum()
    return float(-logdet + np.sum(cov * theta) + lam * off_l1)


def _soft_offdiag(theta, amount):
    out = np.sign(theta) * np.maximum(np.abs(theta) - amount, 0.0)
    np.fill_diagonal(out, np.diag(theta))
    return out


def proximal_gradient_glasso(cov, lam, max_iter=200_000, tol=1e-13, accelerate=False):
    """Brute-force minimizer of the penalized log-det objective.

    Proximal gradient with backtracking on the smooth majorization;
    monotone in the full objective. Intended for small matrices.

    With ``accelerate``, each step starts from an extrapolated point
    (FISTA, Beck & Teboulle 2009), and the momentum restarts whenever the
    objective would rise or the point leaves the positive-definite cone
    (O'Donoghue & Candes 2015), so the iterates stay monotone. It is for
    ill-conditioned inputs: on a standardized 20-bus voltage covariance the
    plain method stopped 1.7e-3 above the optimum after 97 s of CPU, and
    the accelerated one came within 2e-8 of it in 5 s.
    """
    p = cov.shape[0]
    theta = np.linalg.inv(cov + lam * np.eye(p))
    theta = (theta + theta.T) / 2
    step = 1.0
    obj = penalized_objective(cov, theta, lam)
    point, point_obj, momentum = theta, obj, 1.0
    stale = 0
    for _ in range(max_iter):
        grad = cov - np.linalg.inv(point)
        grad = (grad + grad.T) / 2
        smooth = point_obj - lam * (np.abs(point).sum() - np.abs(np.diag(point)).sum())
        while True:
            cand = _soft_offdiag(point - step * grad, step * lam)
            cand = (cand + cand.T) / 2
            cand_obj = penalized_objective(cov, cand, lam)
            if np.isfinite(cand_obj):
                diff = cand - point
                quad = smooth + np.sum(grad * diff) + np.sum(diff * diff) / (2 * step)
                if cand_obj - lam * (np.abs(cand).sum() - np.abs(np.diag(cand)).sum()) <= quad + 1e-15:
                    break
            step *= 0.5
            if step < 1e-18:
                return theta
        if momentum > 1.0 and cand_obj > obj:
            point, point_obj, momentum = theta, obj, 1.0
            continue
        if obj - cand_obj < tol * max(1.0, abs(obj)):
            stale += 1
        else:
            stale = 0
        point, point_obj = cand, cand_obj
        if accelerate:
            following = (1 + np.sqrt(1 + 4 * momentum * momentum)) / 2
            ahead = cand + ((momentum - 1) / following) * (cand - theta)
            ahead_obj = penalized_objective(cov, ahead, lam)
            momentum = following
            if np.isfinite(ahead_obj):
                point, point_obj = ahead, ahead_obj
            else:
                momentum = 1.0
        theta, obj = cand, cand_obj
        step = min(step * 1.5, 1e6)
        if stale >= 20:
            break
    return theta


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


def _sqrtm_spd(b, sweeps=100):
    """Principal square root of a symmetric positive-definite matrix.

    Denman-Beavers iteration: only products and inverses, no
    eigendecomposition.
    """
    y, z = b.copy(), np.eye(len(b))
    for _ in range(sweeps):
        y, z = (y + np.linalg.inv(z)) / 2, (z + np.linalg.inv(y)) / 2
        if np.abs(y @ y - b).max() <= 1e-14 * np.abs(b).max():
            break
    return (y + y.T) / 2


def reference_admm_glasso(cov, lam, rho, z, u, iterations, relax=1.5):
    """``iterations`` over-relaxed ADMM steps for the graphical lasso, textbook form.

    Boyd et al. (2011), sections 3.4.3 and 6.5, written out step by step:
    Theta = argmin -log det T + <cov, T> + rho/2 ||T - Z + U||^2, which is
    (A + sqrt(A^2 + 4 rho I)) / (2 rho) with A = rho (Z - U) - cov, taken
    by a matrix square root; then Z = soft(relaxed Theta + U) off the
    diagonal, entry by entry; then U += relaxed Theta - Z. Returns new
    arrays for Z and U.
    """
    p = len(cov)
    z, u = np.array(z, dtype=float), np.array(u, dtype=float)
    for _ in range(iterations):
        a = rho * (z - u) - cov
        theta = (a + _sqrtm_spd(a @ a + 4.0 * rho * np.eye(p))) / (2.0 * rho)
        relaxed = relax * theta + (1.0 - relax) * z
        target = relaxed + u
        z = np.empty((p, p))
        for i in range(p):
            for j in range(p):
                x = target[i, j]
                if i == j:
                    z[i, j] = x
                else:
                    z[i, j] = np.sign(x) * max(abs(x) - lam / rho, 0.0)
        u = u + relaxed - z
    return z, u


def woodbury_deviation(j0, noise):
    """Concentration deviation -J (Sigma_n^{-1} + J)^{-1} J caused by
    positive-definite measurement noise; it equals
    (Sigma + Sigma_n)^{-1} - Sigma^{-1} for J = Sigma^{-1}."""
    delta = -j0 @ np.linalg.solve(np.linalg.inv(noise) + j0, j0)
    return (delta + delta.T) / 2


def hybrid_edges(conc, tau1):
    """Bus-name pairs (a, b), a < b, whose |J_vv| entry is above ``tau1``,
    tested pair by pair: the hybrid graph of the neighborhood search."""
    order, jvv = conc.bus_order, conc.j_vv
    return {
        tuple(sorted((order[i], order[j])))
        for i, j in itertools.combinations(range(len(order)), 2)
        if abs(jvv[i, j]) > tau1
    }


def _neighbors(nodes, edges):
    adj = {b: set() for b in nodes}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    return adj


def witness_edges(conc, tau1):
    """Hybrid edges (a, b) with a witness: two common hybrid neighbors of a
    and b that are not hybrid-adjacent, found pair by pair."""
    hybrid = hybrid_edges(conc, tau1)
    adj = _neighbors(conc.bus_order, hybrid)
    found = set()
    for a, b in hybrid:
        common = sorted((adj[a] & adj[b]) - {a, b})
        if any((k, l) not in hybrid for k, l in itertools.combinations(common, 2)):
            found.add((a, b))
    return found


def leaf_edges(conc, tau1):
    """Edges of the neighborhood search's leaf pass, bus by bus: with at
    least three buses on witnessed edges, each other bus j attaches to every
    such hybrid neighbor i whose witnessed neighbors are exactly j's other
    hybrid neighbors among those buses."""
    skeleton = witness_edges(conc, tau1)
    non_leaf = {b for edge in skeleton for b in edge}
    if len(non_leaf) < 3:
        return set()
    adj = _neighbors(conc.bus_order, hybrid_edges(conc, tau1))
    skeleton_adj = _neighbors(conc.bus_order, skeleton)
    found = set()
    for j in set(conc.bus_order) - non_leaf:
        near = adj[j] & non_leaf
        for i in near:
            if skeleton_adj[i] == near - {i}:
                found.add(tuple(sorted((i, j))))
    return found


def addition_endpoint_deltas(grid_before, stats, a, b, r, x):
    """Closed-form endpoint deltas for adding line (a, b) to a grid.

    Writing w_i = (sigma_pp + sigma_qq)/|det| for bus i's injection block
    and (g, beta) for the new line, the delta at endpoint a is

        w_a * (2 g H_g(a,a) + 2 beta H_b(a,a) + g^2 + beta^2)
        + w_b * (g^2 + beta^2)

    with the Laplacian diagonals taken from the pre-event grid. Removal
    deltas are the negatives evaluated on the post-removal grid. Serves
    as an independent check of ``diagonal_deltas``.
    """
    ref = grid_before.reference
    if a == ref or b == ref:
        raise ValidationError("closed form defined for non-reference endpoints")
    lap = reduced_laplacians(grid_before)
    order = {bus: k for k, bus in enumerate(lap.bus_order)}
    if a not in order or b not in order:
        raise ValidationError("endpoints must be non-reference buses of the grid")
    ia, ib = order[a], order[b]
    weight = (stats.sigma_pp + stats.sigma_qq) / np.abs(stats.determinants)
    adm = admittance(r, x)
    g2b2 = adm.g**2 + adm.beta**2

    def delta(i_self, i_other):
        own = weight[i_self] * (
            2 * adm.g * lap.h_g[i_self, i_self]
            + 2 * adm.beta * lap.h_beta[i_self, i_self]
            + g2b2
        )
        return float(own + weight[i_other] * g2b2)

    return delta(ia, ib), delta(ib, ia)
