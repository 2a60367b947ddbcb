"""Concentration (inverse covariance) matrix estimation and noise bounds.

Three routes produce a :class:`ConcentrationMatrix` over the stacked
(v, theta) vector: the closed-form analytic expression of the linearized
model, direct inversion of a sample covariance, and the l1-penalized
maximum-likelihood estimator (graphical lasso, in :mod:`gridtopo.glasso`).

The analytic form is J = H Sigma_(p,q)^{-1} H for the composite
Laplacian H and the injection precision (cross-bus perturbation
included). For injections uncorrelated across buses, H couples a bus
only to its neighbors, so entries vanish beyond two hops: the support of
J is the grid plus its two-hop pairs, which is what the topology
algorithms exploit.

Every input matrix passes :func:`gridtopo.sampler._symmetric`, and every
inversion here goes through :func:`gridtopo.sampler._spd_inverse`: the
conditioning rule and its Cholesky certificate of :mod:`gridtopo.sampler`,
or :class:`NumericalError`. :func:`direct_concentration` adds its ridge
to the diagonal of the validated copy of the covariance.
"""

from __future__ import annotations

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
    _write_float_rows,
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
    summed over ``_PASS_ROWS``-row chunks, each centered into one reused
    buffer, so beside the n x 2N samples this holds one ``_PASS_ROWS`` x 2N
    buffer and never a centered copy of the whole array. Each ``c.T @ c``
    is one ``syrk``, so the result is exactly symmetric. Up to
    ``_PASS_ROWS`` rows it is bit for bit the one-shot
    ``x.T @ x / (n - 1)`` of the centered x; above, it differs at rounding
    level.
    """
    if samples.n < 2:
        raise ValidationError("sample covariance needs n >= 2")
    x = samples.samples
    mean = x.mean(axis=0)
    buf = x[:_PASS_ROWS] - mean
    gram = buf.T @ buf
    for start in range(_PASS_ROWS, samples.n, _PASS_ROWS):
        rows = x[start : start + _PASS_ROWS]
        c = np.subtract(rows, mean, out=buf[: len(rows)])
        gram += c.T @ c
    gram /= samples.n - 1
    return gram


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
        inner = _spd_inverse(noise.matrix, "noise covariance numerically singular") + j0
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
        _write_float_rows(fh, conc.j)
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
