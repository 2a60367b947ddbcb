"""Voltage fluctuation sampling under the linearized coupled power flow map.

Injection fluctuations at the N non-reference buses are zero-mean
Gaussians, uncorrelated across buses (active and reactive power at the
same bus may correlate). Each stacked injection draw (p, q) is mapped to
stacked voltages (v, theta) by solving the composite Laplacian system,
optionally followed by additive Gaussian measurement noise.

Reproducibility contract: the random stream for a seed is defined in
fixed blocks of ``_BLOCK`` rows of standard normals, each produced by a
Philox generator keyed by (seed, block index). A block's rows z map to
voltages as z @ T.T with the transfer matrix T = H^-1 L, where H is the
composite Laplacian and L the lower-triangular Cholesky factor of the
injection covariance; noise rows map as z @ F.T with the spectral
(eigen) factor F of the noise covariance, so that positive-semidefinite
noise covariances are accepted. Blocks are mapped whole, so any row
range yields the same values bit for bit regardless of how the work is
partitioned. The distribution does not depend on the factorization; the
seed-to-sample map does, and this is the documented one. It differs at
rounding level (at most 3e-14 relative) from the earlier map, which
multiplied by L and then solved H for every row.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import NumericalError, ValidationError
from .grid import GridGraph, LaplacianPair

__all__ = [
    "InjectionStatistics",
    "NoiseStatistics",
    "VoltageSampleSet",
    "sample_voltages",
    "add_noise",
    "analytic_voltage_covariance",
    "make_correlated_stats",
    "import_samples",
    "export_samples",
]

_BLOCK = 4096
COND_LIMIT = 1e12


@dataclass(frozen=True)
class InjectionStatistics:
    """Per-bus injection second moments, optionally with cross-bus terms.

    ``sigma_pp``, ``sigma_qq`` and ``sigma_pq`` hold the per-bus 2x2
    covariance blocks of (p_i, q_i); every block must be positive definite.
    ``precision_perturbation`` is an optional symmetric 2N x 2N matrix
    added to the block-diagonal injection precision to model cross-bus
    dependence; the perturbed precision must stay positive definite.
    """

    sigma_pp: np.ndarray
    sigma_qq: np.ndarray
    sigma_pq: np.ndarray
    precision_perturbation: np.ndarray | None = None

    def __post_init__(self):
        pp = np.asarray(self.sigma_pp, dtype=float)
        qq = np.asarray(self.sigma_qq, dtype=float)
        pq = np.asarray(self.sigma_pq, dtype=float)
        if not (pp.shape == qq.shape == pq.shape) or pp.ndim != 1:
            raise ValidationError("sigma vectors must share one length")
        if np.any(pp <= 0) or np.any(qq <= 0):
            raise ValidationError("per-bus variances must be positive")
        if np.any(pp * qq - pq**2 <= 0):
            raise ValidationError("per-bus injection block not positive definite")
        object.__setattr__(self, "sigma_pp", pp)
        object.__setattr__(self, "sigma_qq", qq)
        object.__setattr__(self, "sigma_pq", pq)
        if self.precision_perturbation is not None:
            delta = np.asarray(self.precision_perturbation, dtype=float)
            n = 2 * len(pp)
            if delta.shape != (n, n):
                raise ValidationError("precision perturbation must be 2N x 2N")
            if not np.allclose(delta, delta.T, atol=1e-12):
                raise ValidationError("precision perturbation must be symmetric")
            object.__setattr__(self, "precision_perturbation", delta)
            if np.linalg.eigvalsh(self.precision())[0] <= 0:
                raise ValidationError("perturbed injection precision not positive definite")
        for arr in (self.sigma_pp, self.sigma_qq, self.sigma_pq):
            arr.setflags(write=False)
        if self.precision_perturbation is not None:
            self.precision_perturbation.setflags(write=False)

    @classmethod
    def uniform(cls, n: int, variance: float = 1e-2, sigma_pq: float = 0.0):
        """Identical per-bus statistics; default variance 1e-2 per unit."""
        return cls(
            sigma_pp=np.full(n, variance),
            sigma_qq=np.full(n, variance),
            sigma_pq=np.full(n, sigma_pq),
        )

    @property
    def n(self) -> int:
        return len(self.sigma_pp)

    @property
    def determinants(self) -> np.ndarray:
        """Per-bus block determinants sigma_pp*sigma_qq - sigma_pq^2."""
        return self.sigma_pp * self.sigma_qq - self.sigma_pq**2

    def block_covariance(self) -> np.ndarray:
        """2N x 2N covariance of (p, q) ignoring the perturbation."""
        return np.block(
            [
                [np.diag(self.sigma_pp), np.diag(self.sigma_pq)],
                [np.diag(self.sigma_pq), np.diag(self.sigma_qq)],
            ]
        )

    def block_precision(self) -> np.ndarray:
        d = self.determinants
        return np.block(
            [
                [np.diag(self.sigma_qq / d), np.diag(-self.sigma_pq / d)],
                [np.diag(-self.sigma_pq / d), np.diag(self.sigma_pp / d)],
            ]
        )

    def precision(self) -> np.ndarray:
        prec = self.block_precision()
        if self.precision_perturbation is not None:
            prec = prec + self.precision_perturbation
        return prec

    def covariance(self) -> np.ndarray:
        if self.precision_perturbation is None:
            return self.block_covariance()
        cov = np.linalg.inv(self.precision())
        return (cov + cov.T) / 2


@dataclass(frozen=True)
class NoiseStatistics:
    """Measurement noise covariance for the stacked (v, theta) vector.

    ``matrix`` is the full 2N x 2N positive-semidefinite covariance;
    ``per_bus`` records whether it was built from per-bus vectors, i.e.
    noise uncorrelated across buses.
    """

    matrix: np.ndarray
    per_bus: bool = False

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] % 2:
            raise ValidationError("noise covariance must be square with even size")
        if not np.allclose(m, m.T, atol=1e-12):
            raise ValidationError("noise covariance must be symmetric")
        m = (m + m.T) / 2
        w = np.linalg.eigvalsh(m)
        if w[0] < -1e-12 * max(w[-1], 1.0):
            raise ValidationError("noise covariance not positive semidefinite")
        object.__setattr__(self, "matrix", m)
        m.setflags(write=False)

    @classmethod
    def zero(cls, n: int):
        return cls(matrix=np.zeros((2 * n, 2 * n)), per_bus=True)

    @classmethod
    def from_vectors(cls, sigma_vv, sigma_tt, sigma_vt=None):
        vv = np.asarray(sigma_vv, dtype=float)
        tt = np.asarray(sigma_tt, dtype=float)
        vt = np.zeros_like(vv) if sigma_vt is None else np.asarray(sigma_vt, dtype=float)
        if not (vv.shape == tt.shape == vt.shape) or vv.ndim != 1:
            raise ValidationError("noise vectors must share one length")
        if np.any(vv < 0) or np.any(tt < 0) or np.any(vv * tt - vt**2 < -1e-15):
            raise ValidationError("per-bus noise block not positive semidefinite")
        n = len(vv)
        m = np.zeros((2 * n, 2 * n))
        m[:n, :n] = np.diag(vv)
        m[n:, n:] = np.diag(tt)
        m[:n, n:] = np.diag(vt)
        m[n:, :n] = np.diag(vt)
        return cls(matrix=m, per_bus=True)

    @classmethod
    def relative(cls, reference_variances, level: float):
        """Noise variances as a fraction of per-coordinate signal variance."""
        ref = np.asarray(reference_variances, dtype=float)
        n = len(ref) // 2
        return cls.from_vectors(level * ref[:n], level * ref[n:])

    @property
    def is_zero(self) -> bool:
        return not np.any(self.matrix)

    def per_bus_blocks(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        n = self.matrix.shape[0] // 2
        return (
            np.diag(self.matrix[:n, :n]).copy(),
            np.diag(self.matrix[n:, n:]).copy(),
            np.diag(self.matrix[:n, n:]).copy(),
        )


@dataclass(frozen=True)
class VoltageSampleSet:
    """n x 2N fluctuation samples, columns [v_1..v_N, theta_1..theta_N]."""

    samples: np.ndarray
    bus_order: tuple[str, ...]
    seed: int | None = None
    offset: int = 0
    grid_sha256: str | None = None
    noise: dict | None = None

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=float)
        if s.ndim != 2 or s.shape[1] != 2 * len(self.bus_order):
            raise ValidationError("sample matrix must be n x 2N for the bus order")
        object.__setattr__(self, "samples", s)
        s.setflags(write=False)

    @property
    def n(self) -> int:
        return self.samples.shape[0]

    @property
    def columns(self) -> list[str]:
        return [f"v_{b}" for b in self.bus_order] + [f"theta_{b}" for b in self.bus_order]


def _mapped_rows(seed: int, start: int, stop: int, factor: np.ndarray) -> np.ndarray:
    """Rows [start, stop) of the seed's standard-normal stream times ``factor.T``.

    Each block (see module docstring) is mapped whole before its rows are
    cut out, because BLAS maps a few rows with other kernels and so with
    other last bits. The result is column-major, which the covariance's
    column reductions read fastest.
    """
    out = np.empty((factor.shape[0], stop - start))
    for blk in range(start // _BLOCK, (stop - 1) // _BLOCK + 1):
        gen = np.random.Generator(np.random.Philox(seed=np.random.SeedSequence((seed, blk))))
        mapped = factor @ gen.standard_normal((_BLOCK, factor.shape[1])).T
        lo = max(start, blk * _BLOCK)
        hi = min(stop, (blk + 1) * _BLOCK)
        out[:, lo - start : hi - start] = mapped[:, lo - blk * _BLOCK : hi - blk * _BLOCK]
    return out.T


def _check_composite(lap: LaplacianPair) -> None:
    w = np.abs(np.linalg.eigvalsh(lap.composite))
    if w[-1] == 0 or w[0] == 0 or w[-1] / w[0] > COND_LIMIT:
        raise NumericalError("composite Laplacian numerically singular")


def sample_voltages(
    laplacians: LaplacianPair,
    stats: InjectionStatistics,
    n: int,
    seed: int,
    offset: int = 0,
) -> VoltageSampleSet:
    """Draw ``n`` i.i.d. voltage fluctuation samples.

    ``offset`` selects rows [offset, offset + n) of the seed's stream,
    allowing partitioned generation that concatenates to the same result.
    """
    if n < 1:
        raise ValidationError("need n >= 1 samples")
    if stats.n != laplacians.n:
        raise ValidationError("statistics and Laplacians disagree on bus count")
    _check_composite(laplacians)
    cov = stats.covariance()
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"injection covariance not positive definite: {exc}") from exc
    transfer = np.linalg.solve(laplacians.composite, chol)
    return VoltageSampleSet(
        samples=_mapped_rows(seed, offset, offset + n, transfer),
        bus_order=laplacians.bus_order,
        seed=seed,
        offset=offset,
        grid_sha256=None,
        noise=None,
    )


def add_noise(samples: VoltageSampleSet, noise: NoiseStatistics, seed: int) -> VoltageSampleSet:
    """Add an independent zero-mean Gaussian draw to every sample.

    The input set is unmodified; a zero covariance returns the samples
    unchanged.
    """
    dim = samples.samples.shape[1]
    if noise.matrix.shape[0] != dim:
        raise ValidationError(
            f"noise dimension {noise.matrix.shape[0]} does not match samples ({dim})"
        )
    descriptor = {"seed": seed, "per_bus": noise.per_bus, "trace": float(np.trace(noise.matrix))}
    if noise.is_zero:
        return replace(samples, noise=descriptor)
    w, v = np.linalg.eigh(noise.matrix)
    factor = v * np.sqrt(np.clip(w, 0.0, None))
    noisy = _mapped_rows(seed, samples.offset, samples.offset + samples.n, factor)
    noisy += samples.samples
    return replace(samples, samples=noisy, noise=descriptor)


def analytic_voltage_covariance(
    laplacians: LaplacianPair, stats: InjectionStatistics
) -> np.ndarray:
    """Exact covariance of (v, theta): propagate the injection covariance
    through the inverse composite Laplacian on both sides."""
    if stats.n != laplacians.n:
        raise ValidationError("statistics and Laplacians disagree on bus count")
    _check_composite(laplacians)
    hinv = np.linalg.inv(laplacians.composite)
    cov = hinv @ stats.covariance() @ hinv
    return (cov + cov.T) / 2


def make_correlated_stats(
    grid: GridGraph, stats: InjectionStatistics, epsilon: float
) -> InjectionStatistics:
    """Perturb the injection precision with cross-bus terms of relative
    magnitude ``epsilon``.

    The perturbation pattern is deterministic: for every grid line between
    non-reference buses i and j, the (p_i, p_j) and (q_i, q_j) precision
    entries get epsilon times the geometric mean of the corresponding
    diagonal precisions. Fails if the perturbed precision loses positive
    definiteness.
    """
    if epsilon < 0:
        raise ValidationError("epsilon must be nonnegative")
    if stats.precision_perturbation is not None:
        raise ValidationError("base statistics must be block-diagonal")
    if epsilon == 0:
        return stats
    n = stats.n
    order = {b: k for k, b in enumerate(grid.non_reference)}
    if len(order) != n:
        raise ValidationError("statistics and grid disagree on bus count")
    prec = stats.block_precision()
    diag = np.diag(prec)
    delta = np.zeros_like(prec)
    for line in grid.lines:
        if line.a not in order or line.b not in order:
            continue
        i, j = order[line.a], order[line.b]
        for off in (0, n):
            value = epsilon * np.sqrt(diag[i + off] * diag[j + off])
            delta[i + off, j + off] = value
            delta[j + off, i + off] = value
    try:
        return replace(stats, precision_perturbation=delta)
    except ValidationError as exc:
        raise ValidationError(
            f"epsilon={epsilon} breaks positive definiteness of the injection precision"
        ) from exc


def export_samples(samples: VoltageSampleSet, path) -> None:
    """Write samples as CSV with a JSON metadata sidecar."""
    path = Path(path)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(samples.columns)
        fh.writelines(",".join(map(repr, row)) + "\r\n" for row in samples.samples.tolist())
    meta = {
        "seed": samples.seed,
        "offset": samples.offset,
        "grid_sha256": samples.grid_sha256,
        "noise": samples.noise,
    }
    with open(path.with_suffix(path.suffix + ".meta.json"), "w") as fh:
        json.dump(meta, fh, indent=2)
        fh.write("\n")


def import_samples(
    path,
    bus_order: tuple[str, ...] | None = None,
    center: bool = True,
    difference: bool = False,
) -> VoltageSampleSet:
    """Read a sample CSV, mean-centering values by default.

    Externally generated measurements carry an operating-point mean; the
    fluctuation convention removes it. ``difference=True`` instead takes
    consecutive differences (for drifting operating points).
    """
    path = Path(path)
    try:
        with open(path, newline="") as fh:
            header = next(csv.reader(fh), None)
            has_rows = any(line.strip() for line in fh)
    except OSError as exc:
        raise ValidationError(f"cannot read sample file {path}: {exc}") from exc
    if not header:
        raise ValidationError("sample file is empty")
    half = len(header) // 2
    if len(header) % 2 or not all(c.startswith("v_") for c in header[:half]) or not all(
        c.startswith("theta_") for c in header[half:]
    ):
        raise ValidationError("header must be v_<bus>... columns then theta_<bus>...")
    v_buses = tuple(c[2:] for c in header[:half])
    t_buses = tuple(c[6:] for c in header[half:])
    if v_buses != t_buses:
        raise ValidationError("v and theta columns name different buses")
    if bus_order is not None and tuple(bus_order) != v_buses:
        raise ValidationError("sample columns do not match the grid bus order")
    if not has_rows:
        raise ValidationError("sample file has no data rows")
    try:
        data = np.loadtxt(path, delimiter=",", quotechar='"', skiprows=1, ndmin=2, comments=None)
    except ValueError as exc:
        if "number of columns" in str(exc):
            raise ValidationError("ragged sample rows") from exc
        raise ValidationError(f"non-numeric cell in sample file: {exc}") from exc
    if data.shape[1] != len(header):
        raise ValidationError("ragged sample rows")
    if difference:
        data = np.diff(data, axis=0)
    elif center:
        data = data - data.mean(axis=0)
    meta_path = path.with_suffix(path.suffix + ".meta.json")
    seed = grid_hash = noise = None
    if meta_path.exists():
        with open(meta_path) as fh:
            meta = json.load(fh)
        seed, grid_hash, noise = meta.get("seed"), meta.get("grid_sha256"), meta.get("noise")
    return VoltageSampleSet(
        samples=data,
        bus_order=v_buses,
        seed=seed,
        grid_sha256=grid_hash,
        noise=noise,
    )
