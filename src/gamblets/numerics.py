"""Dense symmetric linear algebra kernels.

Everything here is deterministic for fixed inputs. Matrices are plain
numpy arrays. Symmetric means finite and exactly symmetric (m == m.T),
which the kernels check rather than average in: the operators are
assembled so (see operators._scatter), and only products the package
forms (B^(k), A^(k-1)) go through symmetrize. Desk
scale is N <= DENSE_CAP = 4096, so dense factorizations and eigenvalue
solves are the norm: extreme_eigs is one LAPACK symmetric eigenvalue
call. The CSV helpers read and write the plain-text matrices users
supply (per-cell coefficients); stored systems use .npy files instead
(see transform.save_system).

Every pass that reads a matrix through its transpose (the symmetry
check, symmetrize, transpose) walks it in _TILE x _TILE tiles. Read
whole, m.T steps a full row (32 KB at N = 4096) per element and misses
the cache on each one; a pair of 64 x 64 tiles (64 KB) stays in it,
which made these passes 2.5 to 5 times faster at N = 4096. At N near
1000, where a whole matrix fits in cache, they are up to twice as
slow, a few milliseconds per transform. Each entry is still formed by
the same IEEE operations, so the results are bit-identical to the
whole-matrix forms (m + m.T) / 2 and m.T.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.special import gammainc

from .errors import (
    BadConfig,
    DimensionMismatch,
    InvalidProbability,
    NoConvergence,
    NotSPD,
)

# Pivot acceptance threshold for Cholesky, relative to max diagonal.
PIVOT_RTOL = 1e-14

DENSE_CAP = 4096

# Side of the square tiles the transposed passes walk (32 to 512 measured; 64 was fastest).
_TILE = 64


def _tile_pairs(n: int):
    """Slices (r, c) of the tiles on and above the diagonal of an n x n matrix."""
    for i in range(0, n, _TILE):
        for j in range(i, n, _TILE):
            yield slice(i, i + _TILE), slice(j, j + _TILE)


def symmetrize(m: np.ndarray) -> np.ndarray:
    """Return (m + m.T)/2, which is exactly symmetric in IEEE arithmetic.

    Formed per pair of mirror tiles: s = (m[r, c] + m[c, r].T) / 2 fills
    tile (r, c) and s.T tile (c, r). IEEE addition commutes, so this is
    bit for bit (m + m.T) / 2.
    """
    out = np.empty(m.shape, dtype=np.result_type(m, 2.0))
    for r, c in _tile_pairs(m.shape[0]):
        s = (m[r, c] + m[c, r].T) / 2.0
        out[r, c] = s
        out[c, r] = s.T
    return out


def transpose(m: np.ndarray) -> np.ndarray:
    """m.T as a C-contiguous array, copied tile by tile (a view when m is Fortran-ordered)."""
    if m.flags.f_contiguous:
        return m.T
    rows, cols = m.shape
    out = np.empty((cols, rows), dtype=m.dtype)
    for i in range(0, rows, _TILE):
        for j in range(0, cols, _TILE):
            out[j : j + _TILE, i : i + _TILE] = m[i : i + _TILE, j : j + _TILE].T
    return out


def _check_square_symmetric(m: np.ndarray, what: str = "matrix") -> None:
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"{what} must be square, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise BadConfig(f"{what} has a non-finite entry")
    if not all(np.array_equal(m[r, c], m[c, r].T) for r, c in _tile_pairs(m.shape[0])):
        raise NotSPD(f"{what} is not exactly symmetric (call numerics.symmetrize first)")


@dataclass(frozen=True)
class CholFactor:
    """Lower-triangular L with A = L L^T."""

    lower: np.ndarray

    @property
    def n(self) -> int:
        return self.lower.shape[0]


def cholesky(m: np.ndarray) -> CholFactor:
    """Cholesky factor of an SPD matrix.

    Raises NotSPD when the factorization breaks down or any pivot falls
    at or below PIVOT_RTOL times the largest diagonal entry (a
    scale-invariant positive definiteness test).
    """
    _check_square_symmetric(m)
    max_diag = float(np.max(np.diag(m), initial=0.0))
    if max_diag <= 0.0:
        raise NotSPD("no positive diagonal entry")
    try:
        lower = scipy.linalg.cholesky(m, lower=True, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise NotSPD(f"Cholesky breakdown: {exc}") from None
    pivots = np.diag(lower) ** 2
    if np.min(pivots) <= PIVOT_RTOL * max_diag:
        raise NotSPD(
            f"pivot {np.min(pivots):.3e} at or below {PIVOT_RTOL:.0e} * max diagonal {max_diag:.3e}"
        )
    return CholFactor(lower=lower)


def solve_spd(f: CholFactor, b: np.ndarray) -> np.ndarray:
    """Solve A x = b given the Cholesky factor of A. b may be a vector or matrix."""
    if b.shape[0] != f.n:
        raise DimensionMismatch(f"factor of order {f.n} cannot solve rhs of shape {b.shape}")
    return scipy.linalg.cho_solve((f.lower, True), b, check_finite=False)


def extreme_eigs(m: np.ndarray) -> tuple[float, float]:
    """Extreme eigenvalues (lambda_min, lambda_max) of a symmetric matrix.

    One dense symmetric eigenvalue solve (LAPACK via np.linalg.eigvalsh)
    at every order up to the package's desk scale DENSE_CAP; the matrix
    may be indefinite.
    """
    _check_square_symmetric(m)
    evals = np.linalg.eigvalsh(m)
    return float(evals[0]), float(evals[-1])


def chi_square_quantile(dof: int, p: float) -> float:
    """Quantile of the chi-square distribution with dof degrees of freedom.

    Solves P[chi2_dof <= x] = p by bisection on the regularized
    incomplete gamma function; the returned x matches the target
    probability well below the 1e-8 contract.
    """
    if not (0.0 < p < 1.0):
        raise InvalidProbability(f"p must lie in (0,1), got {p}")
    if dof < 1 or int(dof) != dof:
        raise InvalidProbability(f"dof must be a positive integer, got {dof}")
    half = dof / 2.0
    cdf = lambda x: gammainc(half, x / 2.0)
    lo = 0.0
    hi = dof + 10.0 * np.sqrt(2.0 * dof) + 10.0
    while cdf(hi) < p:
        hi *= 2.0
        if hi > 1e300:  # pragma: no cover - unreachable for sane p
            raise NoConvergence("chi-square bracket overflow")
    for _ in range(400):
        mid = 0.5 * (lo + hi)
        if cdf(mid) < p:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-13 * max(1.0, lo):
            break
    return 0.5 * (lo + hi)


def dump_matrix_csv(path, m: np.ndarray) -> None:
    """Write a matrix as CSV, one row per line, %.17g formatting (lossless for float64)."""
    m = np.atleast_2d(np.asarray(m, dtype=float))
    with open(path, "w") as fh:
        for row in m:
            fh.write(",".join("%.17g" % v for v in row))
            fh.write("\n")


def load_matrix_csv(path) -> np.ndarray:
    """Read a matrix written by dump_matrix_csv; a cell that is not a number raises BadConfig."""
    try:
        return np.loadtxt(path, delimiter=",", ndmin=2, dtype=float)
    except ValueError as exc:
        raise BadConfig(f"{path}: not a numeric CSV matrix ({exc})") from None
