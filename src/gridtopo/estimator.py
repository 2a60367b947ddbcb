"""Concentration (inverse covariance) matrix estimation and noise bounds.

Three routes produce a :class:`ConcentrationMatrix` over the stacked
(v, theta) vector: the closed-form analytic expression of the linearized
model, direct inversion of a sample covariance, and the l1-penalized
maximum-likelihood estimator (graphical lasso, in :mod:`gridtopo.glasso`).

The analytic form is J = H Sigma_(p,q)^{-1} H for the composite
Laplacian H, computed as that one product with the injection precision
(cross-bus perturbation included). It replaced a per-block expansion and
differs from it at rounding level (at most 3e-16 of max|J| on a 56-bus
grid). For block-diagonal injections the product reads, with diagonal
matrices A = Sigma_qq/D, B = Sigma_pp/D, C = Sigma_pq/D where
D(i,i) = sigma_pp*sigma_qq - sigma_pq^2 per bus,

    J_vv = H_g (A H_g - C H_b) - H_b (C H_g - B H_b)
    J_vt = H_g (A H_b + C H_g) - H_b (C H_b + B H_g)
    J_tv = H_b (A H_g - C H_b) + H_g (C H_g - B H_b)
    J_tt = H_b (A H_b + C H_g) + H_g (C H_b + B H_g)

Since H couples a bus only to its neighbors, entries vanish beyond two
hops: the support of the concentration matrix is the grid plus its
two-hop pairs, which is what the topology algorithms exploit.

Every inversion here goes through :func:`gridtopo.sampler._spd_inverse`
and so through the one conditioning rule of :mod:`gridtopo.sampler` (all
eigenvalues positive, max <= ``COND_LIMIT`` * min), or raises
:class:`NumericalError`; every input matrix passes the one symmetric-input
check, :func:`gridtopo.sampler._symmetric`. The direct and noisy
inverses are computed from the Cholesky factor of the covariance, which
also certifies the rule without an eigendecomposition when ||cov|| ||inv||
(Frobenius) is at most ``COND_LIMIT`` / 10 (sampler module docstring,
"Conditioning certificate"). Such an inverse is exactly symmetric and
differs from the symmetrized ``np.linalg.inv`` by at most
kappa(cov) eps max|J|, kappa the condition number. In the sweeps and
detect runs compared with the LU inverse, no learned edge, error ratio
or verdict moved. A covariance the certificate does not decide is
decided by its eigenvalues and inverted by ``np.linalg.inv``. The noise
covariance of :func:`noise_deviation_bound` comes with its eigenvalues
and keeps that exact path. :func:`direct_concentration` adds its ridge
to the diagonal of the validated copy of the covariance.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .grid import LaplacianPair
from .sampler import (
    COND_LIMIT,
    _PASS_ROWS,
    InjectionStatistics,
    NoiseStatistics,
    VoltageSampleSet,
    _spd_inverse,
    _symmetric,
    analytic_voltage_covariance,
)

__all__ = [
    "NUMERIC_ZERO_FLOOR",
    "COND_LIMIT",
    "ConcentrationMatrix",
    "NoiseDeviationBound",
    "sample_covariance",
    "direct_concentration",
    "default_ridge",
    "analytic_concentration",
    "noisy_concentration",
    "noise_deviation_bound",
    "gamma_thresholds",
    "export_concentration",
    "import_concentration",
]

# An entry counts as zero when below this fraction of the block maximum:
# the exact-sparsity statements hold only in real arithmetic.
NUMERIC_ZERO_FLOOR = 1e-10


@dataclass(frozen=True)
class ConcentrationMatrix:
    """Symmetric 2N x 2N concentration matrix with named block views."""

    j: np.ndarray
    bus_order: tuple[str, ...]
    provenance: str  # "analytic" | "direct_inverse" | "graphical_lasso"
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        j = np.asarray(self.j, dtype=float)
        n = len(self.bus_order)
        if j.shape != (2 * n, 2 * n):
            raise ValidationError("concentration matrix must be 2N x 2N")
        object.__setattr__(self, "j", _symmetric(j, "concentration matrix"))
        self.j.setflags(write=False)

    @property
    def n(self) -> int:
        return len(self.bus_order)

    @property
    def j_vv(self) -> np.ndarray:
        return self.j[: self.n, : self.n]

    @property
    def j_thetatheta(self) -> np.ndarray:
        return self.j[self.n :, self.n :]

    def sign_sum(self) -> np.ndarray:
        """J_vv + J_thetatheta, the matrix the sign rule thresholds."""
        return self.j_vv + self.j_thetatheta


def sample_covariance(samples: VoltageSampleSet) -> np.ndarray:
    """Unbiased centered sample covariance (n - 1 denominator).

    Two passes: the column mean, then the Gram matrix of the centered rows
    summed over ``_PASS_ROWS``-row chunks, so no centered copy of the whole
    array is held. Up to ``_PASS_ROWS`` rows that is one chunk and the
    result is bit for bit the one-shot ``x.T @ x / (n - 1)`` of the
    centered x; above it the chunked sum differs at rounding level (at
    most 1.7e-15 of max|cov| on a 56-bus grid at n = 100000).
    """
    if samples.n < 2:
        raise ValidationError("sample covariance needs n >= 2")
    x = samples.samples
    mean = x.mean(axis=0)
    c = x[:_PASS_ROWS] - mean
    gram = c.T @ c
    for start in range(_PASS_ROWS, samples.n, _PASS_ROWS):
        c = x[start : start + _PASS_ROWS] - mean
        gram += c.T @ c
    cov = gram / (samples.n - 1)
    return (cov + cov.T) / 2


def default_ridge(cov: np.ndarray, n_samples: int) -> float:
    """Ridge policy for direct inversion at low sample counts.

    Rank deficiency sets in below dim samples; below twice that we add
    1e-8 * trace/dim, which is negligible against large-sample entries.
    """
    dim = cov.shape[0]
    if n_samples >= 2 * dim:
        return 0.0
    return 1e-8 * float(np.trace(cov)) / dim


def direct_concentration(
    cov: np.ndarray,
    ridge: float = 0.0,
    bus_order: tuple[str, ...] | None = None,
) -> ConcentrationMatrix:
    """Invert ``cov + ridge*I`` (module docstring).

    Fails with :class:`NumericalError` when the (possibly ridged) matrix
    breaks the conditioning rule.
    """
    cov = _symmetric(cov, "covariance")
    if not 0 <= ridge < np.inf:
        raise ValidationError("ridge must be nonnegative and finite")
    # ``_symmetric`` returned a new array, so the ridge goes onto its diagonal
    cov[np.diag_indices_from(cov)] += ridge
    j = _spd_inverse(cov, "covariance numerically singular; increase ridge or the sample count")
    if bus_order is None:
        bus_order = tuple(str(i) for i in range(cov.shape[0] // 2))
    return ConcentrationMatrix(
        j=j, bus_order=bus_order, provenance="direct_inverse", meta={"ridge": float(ridge)}
    )


def analytic_concentration(
    laplacians: LaplacianPair, stats: InjectionStatistics
) -> ConcentrationMatrix:
    """Closed-form concentration matrix of the linearized model,
    H Sigma_(p,q)^{-1} H (module docstring), symmetrized."""
    if stats.n != laplacians.n:
        raise ValidationError("statistics and Laplacians disagree on bus count")
    h = laplacians.composite
    return ConcentrationMatrix(
        j=h @ stats.precision() @ h, bus_order=laplacians.bus_order, provenance="analytic"
    )


def noisy_concentration(
    laplacians: LaplacianPair,
    stats: InjectionStatistics,
    noise: NoiseStatistics,
) -> ConcentrationMatrix:
    """Exact concentration of noisy measurements: inverse of the voltage
    covariance plus the noise covariance."""
    sigma = analytic_voltage_covariance(laplacians, stats) + noise.matrix
    j = _spd_inverse(sigma, "noisy covariance numerically singular")
    return ConcentrationMatrix(
        j=j, bus_order=laplacians.bus_order, provenance="analytic", meta={"noisy": True}
    )


@dataclass(frozen=True)
class NoiseDeviationBound:
    """Upper bounds on max |Delta J(i,j)| caused by measurement noise.

    ``value`` is the general eigenvalue bound
    lambda_max(Sigma_n) * lambda_max(H^2)^2 / lambda_min(Sigma_pq)^2.
    ``chain`` holds the three successively looser bounds from the
    derivation (the tightest needs invertible noise). ``per_bus_value``
    specializes to noise uncorrelated across buses via the per-bus 2x2
    eigenvalues sigma_n^i and sigma_pq^i; ``uncorrelated_value`` further
    assumes sigma_pq = 0 and no v-theta noise correlation.
    """

    value: float
    chain: tuple[float, ...] = ()
    per_bus_value: float | None = None
    uncorrelated_value: float | None = None
    ingredients: dict = field(default_factory=dict)


def noise_deviation_bound(
    laplacians: LaplacianPair,
    stats: InjectionStatistics,
    noise: NoiseStatistics,
) -> NoiseDeviationBound:
    if stats.n != laplacians.n:
        raise ValidationError("statistics and Laplacians disagree on bus count")
    noise_eigs = np.linalg.eigvalsh(noise.matrix)
    lam_noise = float(noise_eigs[-1])
    lam_h2 = float(np.max(laplacians.abs_spectrum) ** 2)
    sigma_pq = stats.covariance()
    lam_min_pq = float(np.linalg.eigvalsh(sigma_pq)[0])
    value = lam_noise * lam_h2**2 / lam_min_pq**2

    chain: tuple[float, ...] = ()
    if noise_eigs[0] > 0:
        j0 = analytic_concentration(laplacians, stats).j
        lam_max_j = float(np.linalg.eigvalsh(j0)[-1])
        inner = _spd_inverse(noise.matrix, "noise covariance numerically singular", noise_eigs) + j0
        eq_tight = lam_max_j**2 / float(np.linalg.eigvalsh(inner)[0])
        eq_mid = (lam_h2 / lam_min_pq) ** 2 / (1.0 / lam_noise)
        chain = (eq_tight, eq_mid, value)

    per_bus_value = uncorrelated_value = None
    if noise.per_bus and stats.precision_perturbation is None:
        nvv, ntt, nvt = noise.per_bus_blocks()
        sigma_n_i = nvv + ntt + np.sqrt((nvv - ntt) ** 2 + 4 * nvt**2)
        sigma_pq_i = (
            stats.sigma_pp
            + stats.sigma_qq
            - np.sqrt((stats.sigma_pp - stats.sigma_qq) ** 2 + 4 * stats.sigma_pq**2)
        )
        per_bus_value = float(2 * lam_h2**2 * sigma_n_i.max() / (sigma_pq_i.min() ** 2))
        if not np.any(stats.sigma_pq) and not np.any(nvt):
            num = np.maximum(nvv, ntt).max()
            den = np.minimum(stats.sigma_pp, stats.sigma_qq).min() ** 2
            uncorrelated_value = float(lam_h2**2 * num / den)

    return NoiseDeviationBound(
        value=float(value),
        chain=chain,
        per_bus_value=per_bus_value,
        uncorrelated_value=uncorrelated_value,
        ingredients={
            "lambda_max_noise": lam_noise,
            "lambda_max_h2": lam_h2,
            "lambda_min_injection": lam_min_pq,
        },
    )


def gamma_thresholds(conc: ConcentrationMatrix) -> tuple[float, float]:
    """Smallest informative magnitudes of an analytic concentration matrix.

    gamma1 is the smallest nonzero off-diagonal |J_vv| (nonzero meaning
    above the numeric floor); gamma2 the smallest magnitude among strictly
    negative off-diagonal entries of J_vv + J_thetatheta. Operating
    thresholds of half these values tolerate entry deviations up to
    gamma1/2 and gamma2/4 respectively.
    """
    if conc.provenance != "analytic":
        raise ValidationError("thresholds are defined on the analytic concentration matrix")
    n = conc.n
    off = ~np.eye(n, dtype=bool)
    jvv = np.abs(conc.j_vv[off])
    if jvv.size == 0:
        raise ValidationError("no off-diagonal entries (single-bus grid)")
    floor1 = NUMERIC_ZERO_FLOOR * jvv.max()
    informative = jvv[jvv > floor1]
    if informative.size == 0:
        raise ValidationError("J_vv has no informative off-diagonal entries")
    gamma1 = float(informative.min())
    s = conc.sign_sum()
    floor2 = NUMERIC_ZERO_FLOOR * np.abs(s).max()
    negatives = -s[off][s[off] < -floor2]
    if negatives.size == 0:
        raise ValidationError("no strictly negative off-diagonal sums (degenerate grid)")
    gamma2 = float(negatives.min())
    return gamma1, gamma2


def export_concentration(conc: ConcentrationMatrix, path) -> None:
    path = Path(path)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for row in conc.j:
            writer.writerow([repr(float(v)) for v in row])
    side = {
        "provenance": conc.provenance,
        "bus_order": list(conc.bus_order),
        **{k: v for k, v in conc.meta.items() if isinstance(v, (int, float, str, bool))},
    }
    with open(path.with_suffix(path.suffix + ".meta.json"), "w") as fh:
        json.dump(side, fh, indent=2)
        fh.write("\n")


def import_concentration(path) -> ConcentrationMatrix:
    path = Path(path)
    try:
        j = np.loadtxt(path, delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        raise ValidationError(f"cannot read concentration file {path}: {exc}") from exc
    meta_path = path.with_suffix(path.suffix + ".meta.json")
    if not meta_path.exists():
        raise ValidationError(f"missing metadata sidecar {meta_path}")
    try:
        with open(meta_path) as fh:
            meta = json.load(fh)
        bus_order = meta.pop("bus_order")
        provenance = meta.pop("provenance")
        if not (isinstance(bus_order, list) and all(isinstance(b, str) for b in bus_order)):
            raise TypeError(f"bus_order must be a list of strings: {bus_order!r}")
    except (OSError, json.JSONDecodeError, KeyError, TypeError, AttributeError) as exc:
        raise ValidationError(f"malformed metadata sidecar {meta_path}: {exc!r}") from exc
    return ConcentrationMatrix(j=j, bus_order=tuple(bus_order), provenance=provenance, meta=meta)
