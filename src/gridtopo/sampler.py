"""Voltage fluctuation sampling under the linearized coupled power flow map.

Injection fluctuations at the N non-reference buses are zero-mean
Gaussians, uncorrelated across buses (active and reactive power at the
same bus may correlate). Each stacked injection draw (p, q) is mapped to
stacked voltages (v, theta) by solving the composite Laplacian system,
optionally followed by additive Gaussian measurement noise.

Matrix rules: every symmetric matrix the package accepts passes
:func:`_symmetric` (square, non-empty, finite, each entry within
``rel * max(1, max|m|)`` of its transposed entry; an exactly symmetric
matrix is copied as it is and any other becomes the new array
``m/2 + m.T/2``), and every matrix it inverts goes through
:func:`_spd_inverse` and so through one conditioning rule,
:func:`_require_conditioned` (all eigenvalues positive, the largest at
most ``COND_LIMIT`` = 1e12 times the smallest), or raises
:class:`NumericalError` (cli exit 3). The glasso iterates are the only
other inversions.

Conditioning certificate: when the caller passes no eigenvalues,
:func:`_spd_inverse` factors ``a = L L^T`` by Cholesky and, if the factor
exists, inverts through it (:func:`_cholesky_inverse`): X = L^-1 is built
one block row of ``_INVERSE_BLOCK`` rows at a time, and the inverse is
X^T X, which numpy runs as one ``syrk``, so it is exactly symmetric. The
rule then passes without ``eigvalsh`` when the Frobenius product
``||a|| ||inv||`` is at most ``COND_LIMIT`` / 10, and that inverse is
returned. The decision is the rule's, by the standard error bounds
(Higham, *Accuracy and Stability of Numerical Algorithms*, ch. 10 and
14). A Cholesky factor that completes in floating point is the exact
factor of a nearby matrix, so no eigenvalue of ``a`` lies below about
-n^2 eps ||a||. The Frobenius product bounds the condition number from
above and has no sign cancellation, and the inverse of a matrix that
close to singular has a norm of order 1/(n eps ||a||) or more, far
beyond the bound. So a certified ``a`` has all eigenvalues positive and
a condition number of at most about 1e11. There ``eigvalsh`` (absolute
error about n eps ||a||) is accurate enough that the eigenvalue rule
passes too, with a tenfold margin. Every other matrix is decided by
``eigvalsh`` and, if it passes, inverted by ``np.linalg.inv`` (LU),
symmetrized: a failed factor, a product above the bound or NaN, and
every call that passes the eigenvalues it has (the noise covariance of
the deviation bound). A norm out of floating range reads inf or NaN and
never certifies. So the matrices that raise, and their messages, are the
eigenvalue rule's; a property test checks that over random matrices
with condition numbers 1 to 1e17, some indefinite, at scales 1e-8 to
1e8.

The Cholesky inverse is backward stable for a positive definite matrix,
as LU is, and differs from the symmetrized LU inverse at rounding level:
by at most kappa(a) eps max|inv|, with kappa(a) the condition number.
Over 180 draws of 56-bus covariances (n = 300 to 100000, with and
without noise) the largest difference was 0.08 kappa eps max|inv|, and
5e-12 of max|J| for a 100000-sample draw with kappa 6e5. It reaches the
direct estimate (sweeps, detect, ``gridtopo estimate``), the noisy
analytic concentration, and the injection covariance of line-correlated
injections, so draws with ``epsilon`` > 0 move too (at most 1e-14 of
max|x| on the 56-bus grid at epsilon 0.01 and 0.1). Sweep error ratios
and statuses, detect verdicts and every draw without ``epsilon`` keep
their bits. At p = 110 on one BLAS thread (two runs on a shared 2-vCPU
VM) the Cholesky factor took 0.06 to 0.09 ms, the blocked L^-1 0.13 to
0.14 ms and X^T X 0.04 to 0.06 ms, against 0.38 to 0.61 ms for
``np.linalg.inv`` and 0.42 to 0.53 ms for ``eigvalsh``. Blocks of 20 to
32 rows were about equally fast there; 8 or 64 rows were slower, and one
``np.linalg.inv`` of the whole factor took 0.47 to 0.63 ms.

Reproducibility contract: the random stream for a seed is defined in
fixed blocks of ``_BLOCK`` rows of standard normals, each produced by a
Philox generator keyed by (seed, block index). A block's rows z map to
voltages as z @ T.T with the transfer matrix T = H^-1 L, where H is the
composite Laplacian and L the lower-triangular Cholesky factor of the
injection covariance; noise rows map as z @ F.T with the spectral
(eigen) factor F of the noise covariance, so that positive-semidefinite
noise covariances are accepted. Any row range yields the same values bit
for bit regardless of how the work is partitioned. The distribution does
not depend on the factorization; the seed-to-sample map does, and this
is the documented one. It differs at rounding level (at most 3e-14
relative) from the earlier map, which multiplied by L and then solved H
for every row.

Chunking: each block is mapped in aligned ``_CHUNK``-row chunks, always
as a full-chunk product. BLAS maps a few rows (8 at 110 columns) with
other kernels and so with other last bits, but a product of
``_CHUNK`` rows gives every row the bits it has inside the whole-block
product, and each output row depends only on its own input row. So a
window that covers part of a chunk maps the whole chunk, with the rows
outside the window left as earlier draws or zeros (always finite), and
keeps its own rows.

Cursor: a standard normal uses a varying number of Philox outputs, so a
window starting inside a block must first draw the block's earlier rows.
To spare consecutive windows that work, ``_mapped_rows`` keeps a
process-local cursor of at most ``_CURSOR_SIZE`` entries, keyed by the
seed and the width (the factor's column count, the normals per row). An
entry holds the block and row at which the last call on that key stopped
and the live Philox generator there. A generator keeps its state in a
few hundred bytes and no array, so the cursor holds no arrays across
calls (arrays kept across calls stopped the heap from shrinking): the
``monitor_stream_56`` benchmark on a 2-vCPU VM read a median peak RSS of
96.5 MB, as against 96.3 MB when entries held the state as Python ints.
A call takes its key's entry out under a lock and, when it starts in
that block at or after that row, resumes from that generator instead of
redrawing from the block's first row; it puts an entry back when it is
done. So no two calls share a generator, and a call that finds no entry,
because another thread holds it, redraws from the block start. The state
after r rows of width w in block b is a function of (seed, b, r, w)
alone, because a Philox stream position depends only on its key and
counter; the factor only multiplies the normals afterwards and never
enters the stream. So two factors of one width on one seed share an
entry, and the cursor saves work and never changes a value. The least
recently written entry is dropped first.

Covariance draw: :func:`draw_covariance` returns the sample covariance S
of n rows without drawing them. For centered Gaussian rows with
covariance A A^T, (n - 1) S is Wishart W(A A^T, n - 1), and the
Bartlett decomposition (Odell & Feiveson 1966) draws it as
(A B)(A B)^T, where B is d x m lower trapezoidal with d the columns of
A and m = min(d, n - 1): B_jj = sqrt(chi^2 with n - 1 - j degrees of
freedom) for j = 0..m-1, drawn first, then B_ij standard normal for
i > j, drawn in row-major order. When n - 1 < d this is the singular
form, of rank n - 1, on the same branch. The factor A is the transfer
matrix T, or [T, F] with the noise factor F when noise is set, both
from the memo below, so the draw follows the law of
``sample_covariance`` of ``sample_voltages`` plus ``add_noise`` rows but
not their values. Its Philox generator is keyed by the
:class:`numpy.random.SeedSequence` entropy (seed, 0, 0, 0, 0): a
(seed, block) row key has fewer than five words, which SeedSequence pads
with zeros to four, or has five or more and does not end in two zero
words, so no row key yields this entropy. The draw costs O(p d m) and
holds no n x p array.

Transfer memo: the per-grid work of a draw is done once and kept on the
frozen input it belongs to. :class:`~gridtopo.grid.LaplacianPair` keeps
``abs_spectrum``, the ``|eigenvalues|`` of H that the conditioning rule
and the noise bound read, and :class:`NoiseStatistics` keeps its
spectral ``factor``, both as read-only cached properties.
:func:`_checked_transfer` keeps the transfer matrix T on the Laplacians
as ``_transfer_memo``, together with the :class:`InjectionStatistics`
object it was made for; a later call with that same object reuses T,
and a call with another object replaces it. All three values are
read-only. Both inputs are frozen and write-protect their arrays, so a
kept value is the one a fresh call would compute: the memo saves work
and never changes a value. T is stored only after every check passes,
so an ill-conditioned H raises on every call. Kept values live and die
with their instance, so the module holds no arrays across calls apart
from the read-only Bartlett index arrays of the last four draw shapes.
:func:`analytic_voltage_covariance` reads T from the same memo, so H is
solved in ``_checked_transfer`` alone.
"""

from __future__ import annotations

import csv
import json
import threading
from collections import OrderedDict
from contextlib import suppress
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache, partial
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
    "draw_covariance",
    "analytic_voltage_covariance",
    "make_correlated_stats",
    "import_samples",
    "export_samples",
]

_BLOCK = 4096
_CHUNK = 512
# Rows per pass over a bulk n x 2N array (covariance accumulation, CSV
# export): such a pass holds one slice of this many rows, never a
# full-size temporary.
_PASS_ROWS = 4096
_CURSOR_SIZE = 8
COND_LIMIT = 1e12
# Rows per diagonal block of the Cholesky inverse (module docstring).
_INVERSE_BLOCK = 24


def _ranges(eigenvalues, bound: float):
    """The (min, max) pairs that may pass the conditioning rule, cheapest
    first: (1/10, ``bound``) for a certified condition bound, then the
    eigenvalue range, computed only if asked for (``eigenvalues`` may be a
    function returning them)."""
    yield 0.1, bound
    if callable(eigenvalues):
        eigenvalues = eigenvalues()
    yield float(np.min(eigenvalues)), float(np.max(eigenvalues))


def _require_conditioned(eigenvalues, message: str, bound: float = np.nan) -> bool:
    """Raise :class:`NumericalError` with ``message`` unless all eigenvalues
    are positive and max <= ``COND_LIMIT`` * min; NaN fails too.

    ``bound``, a condition bound certified as in :func:`_spd_inverse`,
    passes the rule alone at most ``COND_LIMIT`` / 10; NaN never does.
    Only otherwise are the eigenvalues read, so ``eigenvalues`` may be a
    function that computes them. Returns whether ``bound`` alone passed."""
    for k, (lo, hi) in enumerate(_ranges(eigenvalues, bound)):
        if lo > 0 and hi <= COND_LIMIT * lo:
            return k == 0
    raise NumericalError(
        f"{message} (eigenvalue range [{lo:.3e}, {hi:.3e}], condition limit {COND_LIMIT:.0e})"
    )


def _cholesky_inverse(lower: np.ndarray) -> np.ndarray:
    """(L L^T)^-1 = X^T X for the lower Cholesky factor L, with X = L^-1
    built one block row at a time: X_ii = L_ii^-1 and X_i,<i = -X_ii L_i,<i
    X_<i,<i. A diagonal block is inverted through its transpose, which is
    upper triangular, so LU never pivots and X stays exactly lower
    triangular. numpy runs X^T X as one ``syrk``, so the result is exactly
    symmetric."""
    x = np.zeros_like(lower)
    for s in range(0, len(lower), _INVERSE_BLOCK):
        e = s + _INVERSE_BLOCK
        d = np.linalg.inv(lower[s:e, s:e].T).T
        x[s:e, s:e] = d
        x[s:e, :s] = -(d @ (lower[s:e, :s] @ x[:s, :s]))
    return x.T @ x


def _spd_inverse(a: np.ndarray, message: str, eigenvalues: np.ndarray | None = None) -> np.ndarray:
    """The inverse of ``a`` once it passes the conditioning rule.

    Without ``eigenvalues``, the Cholesky factor of ``a`` gives the inverse
    (:func:`_cholesky_inverse`), and that inverse with the Frobenius product
    ||a|| ||inv|| certifies the rule for a well-conditioned ``a`` (module
    docstring). Every other matrix, and every call that passes the
    ``eigenvalues`` it has, is decided by the eigenvalues and inverted by
    ``np.linalg.inv``, symmetrized."""
    bound, inv = np.nan, None
    if eigenvalues is None:
        eigenvalues = partial(np.linalg.eigvalsh, a)
        # an overflowing norm or inverse makes the product inf or NaN, which
        # never certifies; the norm of ``a`` underflows only where that of
        # the inverse overflows
        with suppress(np.linalg.LinAlgError), np.errstate(
            over="ignore", under="ignore", invalid="ignore"
        ):
            inv = _cholesky_inverse(np.linalg.cholesky(a))
            bound = float(np.linalg.norm(a)) * float(np.linalg.norm(inv))
    if _require_conditioned(eigenvalues, message, bound):
        return inv
    inv = np.linalg.inv(a)
    return (inv + inv.T) / 2


def _symmetric(matrix, what: str, rel: float = 1e-8) -> np.ndarray:
    """``matrix`` as a new symmetric float array once it is square,
    non-empty, finite and, entry by entry, symmetric within
    ``rel * max(1, max|matrix|)``; otherwise :class:`ValidationError`
    naming ``what``. An exactly symmetric matrix is copied as it is; any
    other becomes ``m/2 + m.T/2``, which equals ``(m + m.T)/2`` bit for bit
    except where that sum overflows or the halves are subnormal, and which
    keeps finite entries finite."""
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"{what} must be square")
    if m.size == 0:
        raise ValidationError(f"{what} is empty")
    if not np.all(np.isfinite(m)):
        raise ValidationError(f"{what} has non-finite entries")
    if np.array_equal(m, m.T):
        return m.copy()
    tol = rel * max(1.0, float(np.abs(m).max()))
    if not np.abs(m - m.T).max() <= tol:
        raise ValidationError(f"{what} must be symmetric")
    return m / 2 + m.T / 2


@dataclass(frozen=True)
class InjectionStatistics:
    """Per-bus injection second moments, optionally with cross-bus terms.

    ``sigma_pp``, ``sigma_qq`` and ``sigma_pq`` hold the per-bus 2x2
    covariance blocks of (p_i, q_i); every block must be finite and positive
    definite.
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
        if not (np.all(pp > 0) and np.all(qq > 0)):
            raise ValidationError("per-bus variances must be positive")
        if not np.all(pp * qq - pq**2 > 0):
            raise ValidationError("per-bus injection block not positive definite")
        if not np.all(np.isfinite([pp, qq, pq])):
            raise ValidationError("per-bus injection moments must be finite")
        object.__setattr__(self, "sigma_pp", pp)
        object.__setattr__(self, "sigma_qq", qq)
        object.__setattr__(self, "sigma_pq", pq)
        if self.precision_perturbation is not None:
            delta = np.asarray(self.precision_perturbation, dtype=float)
            n = 2 * len(pp)
            if delta.shape != (n, n):
                raise ValidationError("precision perturbation must be 2N x 2N")
            delta = _symmetric(delta, "precision perturbation", 1e-12)
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
        """2N x 2N covariance of (p, q): the per-bus blocks, or the inverse
        of the perturbed precision under the conditioning rule."""
        if self.precision_perturbation is None:
            pp, qq, pq = map(np.diag, (self.sigma_pp, self.sigma_qq, self.sigma_pq))
            return np.block([[pp, pq], [pq, qq]])
        return _spd_inverse(self.precision(), "injection precision numerically singular")


@dataclass(frozen=True)
class NoiseStatistics:
    """Measurement noise covariance for the stacked (v, theta) vector.

    ``matrix`` is the full 2N x 2N positive-semidefinite covariance.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = _symmetric(self.matrix, "noise covariance", 1e-12)
        if m.shape[0] % 2:
            raise ValidationError("noise covariance must be square with even size")
        w = np.linalg.eigvalsh(m)
        if w[0] < -1e-12 * max(w[-1], 1.0):
            raise ValidationError("noise covariance not positive semidefinite")
        object.__setattr__(self, "matrix", m)
        m.setflags(write=False)

    @classmethod
    def zero(cls, n: int):
        return cls(matrix=np.zeros((2 * n, 2 * n)))

    @classmethod
    def from_vectors(cls, sigma_vv, sigma_tt, sigma_vt=None):
        vv = np.asarray(sigma_vv, dtype=float)
        tt = np.asarray(sigma_tt, dtype=float)
        vt = np.zeros_like(vv) if sigma_vt is None else np.asarray(sigma_vt, dtype=float)
        if not (vv.shape == tt.shape == vt.shape) or vv.ndim != 1:
            raise ValidationError("noise vectors must share one length")
        if not (np.all(vv >= 0) and np.all(tt >= 0) and np.all(vv * tt - vt**2 >= -1e-15)):
            raise ValidationError("per-bus noise block not positive semidefinite")
        n = len(vv)
        m = np.zeros((2 * n, 2 * n))
        m[:n, :n] = np.diag(vv)
        m[n:, n:] = np.diag(tt)
        m[:n, n:] = np.diag(vt)
        m[n:, :n] = np.diag(vt)
        return cls(matrix=m)

    @classmethod
    def relative(cls, reference_variances, level: float):
        """Noise variances as a fraction of per-coordinate signal variance."""
        ref = np.asarray(reference_variances, dtype=float)
        n = len(ref) // 2
        return cls.from_vectors(level * ref[:n], level * ref[n:])

    @property
    def is_zero(self) -> bool:
        return not np.any(self.matrix)

    @cached_property
    def factor(self) -> np.ndarray:
        """Read-only spectral factor F = V sqrt(max(w, 0)) of ``matrix``,
        so F F^T = ``matrix`` for positive-semidefinite noise."""
        w, v = np.linalg.eigh(self.matrix)
        factor = v * np.sqrt(np.clip(w, 0.0, None))
        factor.setflags(write=False)
        return factor

    @property
    def per_bus(self) -> bool:
        """Noise uncorrelated across buses: all four N x N blocks diagonal."""
        n = self.matrix.shape[0] // 2
        rows, cols = np.nonzero(self.matrix)
        return bool(np.all(rows % n == cols % n))

    def per_bus_blocks(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        n = self.matrix.shape[0] // 2
        return (
            np.diag(self.matrix[:n, :n]).copy(),
            np.diag(self.matrix[n:, n:]).copy(),
            np.diag(self.matrix[:n, n:]).copy(),
        )


@dataclass(frozen=True)
class VoltageSampleSet:
    """n x 2N fluctuation samples, columns [v_1..v_N, theta_1..theta_N],
    from row ``offset`` (a non-negative int) of the seed's stream."""

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
        if type(self.offset) is not int or self.offset < 0:
            raise ValidationError(f"offset must be a non-negative int: {self.offset!r}")
        object.__setattr__(self, "samples", s)
        s.setflags(write=False)

    @property
    def n(self) -> int:
        return self.samples.shape[0]

    @property
    def columns(self) -> list[str]:
        return [f"v_{b}" for b in self.bus_order] + [f"theta_{b}" for b in self.bus_order]


_cursor: OrderedDict[tuple, tuple] = OrderedDict()
_cursor_lock = threading.Lock()


def _block_generator(seed: int, blk: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed=np.random.SeedSequence((seed, blk))))


def _mapped_rows(seed: int, start: int, stop: int, factor: np.ndarray) -> np.ndarray:
    """Rows [start, stop) of the seed's standard-normal stream times ``factor.T``.

    Chunks and the cursor are described in the module docstring. The
    result is column-major, which the covariance's column reductions read
    fastest.
    """
    key = (seed, factor.shape[1])
    with _cursor_lock:
        saved = _cursor.pop(key, None)
    out = np.empty((factor.shape[0], stop - start))
    z = np.zeros((_CHUNK, factor.shape[1]))
    mapped = None
    for blk in range(start // _BLOCK, (stop - 1) // _BLOCK + 1):
        row, lo = blk * _BLOCK, max(start, blk * _BLOCK)
        if saved is not None and saved[0] == blk and saved[1] <= lo:
            row, gen = saved[1:]
        else:
            gen = _block_generator(seed, blk)
        while row < lo:
            skip = min(lo - row, _CHUNK)
            gen.standard_normal(out=z[:skip])
            row += skip
        hi = min(stop, (blk + 1) * _BLOCK)
        while lo < hi:
            base = lo - lo % _CHUNK
            end = min(hi, base + _CHUNK)
            gen.standard_normal(out=z[lo - base : end - base])
            cols = out[:, lo - start : end - start]
            if end - lo == _CHUNK:
                np.matmul(factor, z.T, out=cols)
            else:
                if mapped is None:
                    mapped = np.empty((factor.shape[0], _CHUNK))
                np.matmul(factor, z.T, out=mapped)
                cols[...] = mapped[:, lo - base : end - base]
            lo = end
    with _cursor_lock:
        _cursor[key] = (blk, stop, gen)
        _cursor.move_to_end(key)
        if len(_cursor) > _CURSOR_SIZE:
            _cursor.popitem(last=False)
    return out.T


def _checked_transfer(lap: LaplacianPair, stats: InjectionStatistics) -> np.ndarray:
    """The checked, read-only transfer matrix T = H^-1 L, kept on ``lap``
    for the ``stats`` object it was made for (module docstring, Transfer
    memo)."""
    if stats.n != lap.n:
        raise ValidationError("statistics and Laplacians disagree on bus count")
    memo = getattr(lap, "_transfer_memo", None)
    if memo is not None and memo[0] is stats:
        return memo[1]
    _require_conditioned(lap.abs_spectrum, "composite Laplacian numerically singular")
    try:
        chol = np.linalg.cholesky(stats.covariance())
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"injection covariance not positive definite: {exc}") from exc
    transfer = np.linalg.solve(lap.composite, chol)
    transfer.setflags(write=False)
    object.__setattr__(lap, "_transfer_memo", (stats, transfer))
    return transfer


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
    if seed < 0 or offset < 0:
        raise ValidationError(f"seed ({seed}) and offset ({offset}) must be non-negative")
    return VoltageSampleSet(
        samples=_mapped_rows(seed, offset, offset + n, _checked_transfer(laplacians, stats)),
        bus_order=laplacians.bus_order,
        seed=seed,
        offset=offset,
        grid_sha256=None,
        noise=None,
    )


def add_noise(samples: VoltageSampleSet, noise: NoiseStatistics, seed: int) -> VoltageSampleSet:
    """Add an independent zero-mean Gaussian draw to every sample.

    The input set is unmodified; a zero covariance returns the samples
    unchanged. ``seed`` must differ from the samples' own seed: one seed
    draws the same standard normals for signal and noise, which makes
    the noise correlated with the signal. The command line uses the
    sampling seed plus one.
    """
    if seed < 0:
        raise ValidationError(f"noise seed ({seed}) must be non-negative")
    if seed == samples.seed:
        raise ValidationError(
            f"noise seed ({seed}) equals the sample seed; the noise would be "
            "correlated with the signal"
        )
    dim = samples.samples.shape[1]
    if noise.matrix.shape[0] != dim:
        raise ValidationError(
            f"noise dimension {noise.matrix.shape[0]} does not match samples ({dim})"
        )
    descriptor = {"seed": seed, "per_bus": noise.per_bus, "trace": float(np.trace(noise.matrix))}
    if noise.is_zero:
        return replace(samples, noise=descriptor)
    noisy = _mapped_rows(seed, samples.offset, samples.offset + samples.n, noise.factor)
    noisy += samples.samples
    return replace(samples, samples=noisy, noise=descriptor)


@lru_cache(maxsize=4)
def _below_diagonal(d: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``np.tril_indices(d, -1, m)``: the strictly lower entries
    of a d x m Bartlett factor, in row-major order."""
    indices = np.tril_indices(d, -1, m)
    for index in indices:
        index.setflags(write=False)
    return indices


def draw_covariance(
    laplacians: LaplacianPair,
    stats: InjectionStatistics,
    n: int,
    seed: int,
    noise: NoiseStatistics | None = None,
) -> np.ndarray:
    """Sample covariance of ``n`` rows drawn from its Wishart law, plus
    noise when ``noise`` is set (module docstring, Covariance draw).

    The draw matches ``sample_covariance`` of ``n`` rows in distribution,
    not in value, and is a pure function of its arguments.
    """
    if n < 2:
        raise ValidationError("a sample covariance needs n >= 2")
    if seed < 0:
        raise ValidationError(f"seed ({seed}) must be non-negative")
    factor = _checked_transfer(laplacians, stats)
    if noise is not None and noise.matrix.shape[0] != factor.shape[0]:
        raise ValidationError(
            f"noise dimension {noise.matrix.shape[0]} does not match samples ({factor.shape[0]})"
        )
    if noise is not None and not noise.is_zero:
        factor = np.hstack((factor, noise.factor))
    dof = n - 1
    d = factor.shape[1]
    m = min(d, dof)
    gen = np.random.Generator(np.random.Philox(seed=np.random.SeedSequence((seed, 0, 0, 0, 0))))
    bartlett = np.zeros((d, m))
    bartlett[np.diag_indices(m)] = np.sqrt(gen.chisquare(dof - np.arange(m)))
    rows, cols = _below_diagonal(d, m)
    bartlett[rows, cols] = gen.standard_normal(len(rows))
    root = factor @ bartlett
    # numpy runs root @ root.T as one syrk, so the covariance is exactly
    # symmetric and needs no symmetrizing pass
    cov = root @ root.T
    cov /= dof
    return cov


def analytic_voltage_covariance(
    laplacians: LaplacianPair, stats: InjectionStatistics
) -> np.ndarray:
    """Exact covariance of (v, theta), H^-1 Sigma_(p,q) H^-1 = T T^T, with
    the transfer matrix T the draws use. It differs at rounding level (at
    most 5e-14 relative on a 56-bus grid) from the earlier
    ``inv(H) @ Sigma @ inv(H)``."""
    t = _checked_transfer(laplacians, stats)
    return t @ t.T


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
    if not epsilon >= 0:
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
    """Write samples as CSV with a JSON metadata sidecar.

    Rows are converted to Python floats ``_PASS_ROWS`` at a time, so the
    writer never holds a list of the whole array."""
    path = Path(path)
    x = samples.samples
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(samples.columns)
        for start in range(0, len(x), _PASS_ROWS):
            rows = x[start : start + _PASS_ROWS]
            fh.writelines(",".join(map(repr, row)) + "\r\n" for row in rows.tolist())
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
) -> VoltageSampleSet:
    """Read a sample CSV, mean-centering values by default.

    Externally generated measurements carry an operating-point mean; the
    fluctuation convention removes it. A sidecar restores the seed, offset (0 if it has none), grid hash and noise.
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
    if center:
        data -= data.mean(axis=0)
    meta_path = path.with_suffix(path.suffix + ".meta.json")
    # The header fixed the shape, so only the sidecar's fields can fail here.
    try:
        meta = {}
        if meta_path.exists():
            with open(meta_path) as fh:
                meta = json.load(fh)
        seed = meta.get("seed")
        if seed is not None and (type(seed) is not int or seed < 0):
            raise ValidationError(f"seed must be a non-negative int: {seed!r}")
        if not isinstance(meta.get("grid_sha256"), (str, type(None))):
            raise ValidationError(f"grid_sha256 must be a string: {meta['grid_sha256']!r}")
        if not isinstance(meta.get("noise"), (dict, type(None))):
            raise ValidationError(f"noise must be an object: {meta['noise']!r}")
        return VoltageSampleSet(
            samples=data,
            bus_order=v_buses,
            seed=meta.get("seed"),
            offset=meta.get("offset", 0),
            grid_sha256=meta.get("grid_sha256"),
            noise=meta.get("noise"),
        )
    except (OSError, json.JSONDecodeError, AttributeError, ValidationError) as exc:
        raise ValidationError(f"malformed metadata sidecar {meta_path}: {exc!r}") from exc
