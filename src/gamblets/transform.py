"""Operator-adapted wavelet (gamblet) transform and multilevel solve.

transform() runs the level-by-level recursion: for k = q..2 it forms
the detail Gram matrix B^(k) = W A^(k) W^T, the dual-update matrix
N^(k) = A^(k) W^T B^(k),-1, the coarsening map
R^(k-1,k) = pi^(k-1,k) (I - N^(k) W^(k)) and the coarse operator
A^(k-1) = R A^(k) R^T. Every system is then checked, to the fixed
CONSTRUCTION_TOL, against W N = I, true only if B = W A W^T, and against
A^(k-1) = R A pi^T, true only if the coarse gamblets are A-orthogonal
to the details (R A W^T = 0). Both the recursion and the check apply
W^(k) and pi^(k-1,k), which are parent-local (one parent's children per
row), as scipy.sparse matrices on the left of each product; every
A/B/R/N is a dense ndarray, and the hierarchy keeps its dense filters.
The operator must be finite, exactly symmetric and of the hierarchy's
size.
oracle_transform() computes every A^(k) independently by inverting the
measurement Gram matrix Theta^(k) = pi^(k,q) A^{-1} pi^(q,k); it exists
purely to cross-check the recursion, and like z_matrix() it is imported
from this module, not from the package root. analyze()/reconstruct()
move signals between fine coefficients and per-level wavelet
coefficients, one vector or an (N, T) block of T signals at a time,
solve() is the multilevel solver, and z_matrix() assembles the noise
covariance scaling of the dual wavelets. Each diagonal (per-level) block of Z has
lambda_min >= 1; the full Z can fall below 1 through its cross-level
blocks.

save_system()/load_system() store a system as one .npy file per
A/B/R/N matrix, the hierarchy's recipe (not its pi and W, which the
hierarchy builders recompute on load) and a manifest of sha256 digests.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_array

from .errors import BadConfig, BadLevel, DimensionMismatch, GambletError, TooLarge
from .hierarchy import Hierarchy, hierarchy_from_json
from .numerics import (
    DENSE_CAP,
    CholFactor,
    _check_square_symmetric,
    cholesky,
    solve_spd,
    spd_inverse,
    symmetrize,
)

log = logging.getLogger("gamblets")

CONSTRUCTION_TOL = 1e-10


@dataclass
class MultiresCoefficients:
    """Per-level wavelet coefficients c^(k), k = 1..q (c^(1) indexed by I^(1))."""

    levels: list[np.ndarray]

    @property
    def q(self) -> int:
        return len(self.levels)


@dataclass
class GambletSystem:
    hier: Hierarchy
    a_levels: list[np.ndarray]  # A^(k), k = 1..q
    b_levels: list[np.ndarray]  # B^(k), k = 1..q; B^(1) = A^(1)
    r_levels: list[np.ndarray]  # R^(k-1,k), k = 2..q
    n_levels: list[np.ndarray]  # N^(k), k = 2..q
    _b_factors: list[CholFactor | None] = field(default_factory=list, repr=False)

    @property
    def q(self) -> int:
        return self.hier.q

    @property
    def n_fine(self) -> int:
        return self.hier.n_fine

    def a_of(self, k: int) -> np.ndarray:
        return self.a_levels[k - 1]

    def b_of(self, k: int) -> np.ndarray:
        return self.b_levels[k - 1]

    def r_of(self, k: int) -> np.ndarray:
        """R^(k-1,k) for 2 <= k <= q."""
        return self.r_levels[k - 2]

    def n_of(self, k: int) -> np.ndarray:
        """N^(k) for 2 <= k <= q; N^(1) is the identity by convention."""
        if k == 1:
            return np.eye(self.hier.sizes[0])
        return self.n_levels[k - 2]

    def b_factor(self, k: int) -> CholFactor:
        """Cholesky factor of B^(k), computed on first use and kept for solve."""
        if not self._b_factors:
            self._b_factors = [None] * self.q
        f = self._b_factors[k - 1]
        if f is None:
            f = cholesky(self.b_of(k))
            self._b_factors[k - 1] = f
        return f

    def psi_fine(self, k: int) -> np.ndarray:
        """Rows are the fine-basis coefficients of psi^(k)_i (product of R factors)."""
        out = np.eye(self.n_fine)
        for j in range(self.q, k, -1):
            out = self.r_of(j) @ out
        return out

    def chi_fine(self, k: int) -> np.ndarray:
        """Rows are the fine-basis coefficients of chi^(k)_i (psi^(1) rows for k=1)."""
        if k == 1:
            return self.psi_fine(1)
        return self.hier.w_of(k) @ self.psi_fine(k)

    def phi_chi_fine(self, k: int) -> np.ndarray:
        """Dual wavelets phi^(k),chi expressed over the fine measurement basis."""
        if k == 1:
            return self.hier.pi_prod(1, self.q)
        return self.n_of(k).T @ self.hier.pi_prod(k, self.q)


def _filters(hier: Hierarchy, k: int) -> tuple[csr_array, csr_array]:
    """W^(k) and pi^(k-1,k) as sparse matrices; each row is nonzero on one parent's children only."""
    return csr_array(hier.w_of(k)), csr_array(hier.pi_of(k - 1))


def _level_step(hier: Hierarchy, k: int, Ak: np.ndarray):
    """B^(k) = W A^(k) W^T, N^(k) = A^(k) W^T B^(k),-1 and R^(k-1,k) = pi (I - N W).

    Every product has the sparse filter on the left and a dense result:
    B = W (W A)^T, which is W A W^T as A is symmetric, and
    (pi N) W = (W^T (pi N)^T)^T.
    """
    W, pi = _filters(hier, k)
    WA = W @ Ak
    B = symmetrize(W @ WA.T)
    Nk = solve_spd(cholesky(B), WA).T
    R = hier.pi_of(k - 1) - (W.T @ (pi @ Nk).T).T
    return B, Nk, R


def transform(op, hier: Hierarchy) -> GambletSystem:
    """Gamblet transform of a finite (else BadConfig), exactly symmetric (else NotSPD) operator.

    A^(q) is the caller's matrix itself. The result has passed
    validate_system; a recursion that drifts raises GambletError.
    """
    A = np.asarray(op.A if hasattr(op, "A") else op, dtype=float)
    _check_square_symmetric(A, "operator")
    if A.shape[0] != hier.n_fine:
        raise DimensionMismatch(f"operator has {A.shape[0]} rows, hierarchy fine level has {hier.n_fine}")
    q = hier.q

    a_levels: list[np.ndarray] = [None] * q
    b_levels: list[np.ndarray] = [None] * q
    r_levels: list[np.ndarray] = [None] * (q - 1)
    n_levels: list[np.ndarray] = [None] * (q - 1)

    a_levels[q - 1] = Ak = A
    for k in range(q, 1, -1):
        b_levels[k - 1], n_levels[k - 2], R = _level_step(hier, k, Ak)
        r_levels[k - 2] = R
        a_levels[k - 2] = Ak = symmetrize(R @ Ak @ R.T)
    b_levels[0] = a_levels[0]

    sys = GambletSystem(
        hier=hier, a_levels=a_levels, b_levels=b_levels,
        r_levels=r_levels, n_levels=n_levels,
    )
    validate_system(sys)
    return sys


def _max_abs(m: np.ndarray) -> float:
    """max |m_ij|, without the |m|-sized temporary of np.abs(m).max()."""
    return float(max(m.max(), -m.min()))


def validate_system(sys: GambletSystem) -> None:
    """Check W N = I and A^(k-1) = R A pi^T per level of a system.

    Recomputing W A W^T or R A R^T would repeat the recursion and could not fail. N was
    solved with B, so W N = I certifies B = W A W^T; R A pi^T = R A R^T only if R A W^T = 0.
    """
    for k in range(2, sys.q + 1):
        Nk, Ak = sys.n_of(k), sys.a_of(k)
        W, pi = _filters(sys.hier, k)
        WN = W @ Nk
        WN[np.diag_indices_from(WN)] -= 1.0
        wn_err = _max_abs(WN)
        if wn_err > CONSTRUCTION_TOL * max(1.0, _max_abs(Nk)):
            raise GambletError(f"W^({k}) N^({k}) != I (max dev {wn_err:.2e})")
        a_err = _max_abs(sys.r_of(k) @ (pi @ Ak).T - sys.a_of(k - 1))
        if a_err > CONSTRUCTION_TOL * _max_abs(Ak):
            raise GambletError(f"A^({k - 1}) != R A pi^T (max dev {a_err:.2e})")


def oracle_transform(op, hier: Hierarchy) -> GambletSystem:
    """Reference transform via explicit Gramian inversion (test oracle).

    Computes Theta^(k) = pi^(k,q) A^{-1} pi^(q,k) by descent and sets
    A^(k) = (Theta^(k))^{-1}; B, N, R then follow from their
    definitions rather than from the level recursion.
    """
    A = np.asarray(op.A if hasattr(op, "A") else op, dtype=float)
    if A.shape[0] != hier.n_fine:
        raise DimensionMismatch(f"operator has {A.shape[0]} rows, hierarchy fine level has {hier.n_fine}")
    if A.shape[0] > DENSE_CAP:
        raise TooLarge(f"oracle inversion capped at {DENSE_CAP}, got {A.shape[0]}")
    q = hier.q

    theta = spd_inverse(A)
    a_levels: list[np.ndarray] = [None] * q
    a_levels[q - 1] = A
    for k in range(q - 1, 0, -1):
        theta = symmetrize(hier.pi_of(k) @ theta @ hier.pi_of(k).T)
        a_levels[k - 1] = spd_inverse(theta)

    b_levels: list[np.ndarray] = [None] * q
    r_levels: list[np.ndarray] = [None] * (q - 1)
    n_levels: list[np.ndarray] = [None] * (q - 1)
    b_levels[0] = a_levels[0]
    for k in range(2, q + 1):
        b_levels[k - 1], n_levels[k - 2], r_levels[k - 2] = _level_step(hier, k, a_levels[k - 1])
    return GambletSystem(
        hier=hier, a_levels=a_levels, b_levels=b_levels,
        r_levels=r_levels, n_levels=n_levels,
    )


def _check_block(x: np.ndarray, n: int, what: str) -> None:
    """Accept an (n,) vector or an (n, T) block of T column signals."""
    if x.ndim not in (1, 2) or x.shape[0] != n:
        raise DimensionMismatch(f"{what} shape {x.shape}, expected ({n},) or ({n}, T)")


def analyze(sys: GambletSystem, y: np.ndarray) -> MultiresCoefficients:
    """Wavelet coefficients of a fine-coefficient signal.

    Fine measurements equal fine coefficients (m^(q) = y); coarser
    measurements descend through pi, and c^(k) = N^(k),T m^(k) with
    c^(1) = m^(1). y may be an (N,) vector or an (N, T) block of T
    signals, one per column; each level then has T columns.
    """
    y = np.asarray(y, dtype=float)
    _check_block(y, sys.n_fine, "signal")
    m = y
    levels: list[np.ndarray] = [None] * sys.q
    for k in range(sys.q, 1, -1):
        levels[k - 1] = sys.n_of(k).T @ m
        m = sys.hier.pi_of(k - 1) @ m
    levels[0] = m
    return MultiresCoefficients(levels)


def reconstruct(sys: GambletSystem, c: MultiresCoefficients, upto: int | None = None) -> np.ndarray:
    """Sum of the wavelet contributions of levels 1..upto, lifted to fine coefficients.

    Column blocks of coefficients (from a block analyze) give an (N, T) block.
    """
    if upto is None:
        upto = sys.q
    if not (0 <= upto <= sys.q):
        raise BadLevel(f"upto must lie in 0..{sys.q}, got {upto}")
    if c.q != sys.q:
        raise DimensionMismatch(f"coefficients have {c.q} levels, system has {sys.q}")
    if upto == 0:
        return np.zeros((sys.n_fine,) + c.levels[0].shape[1:])
    x = c.levels[0].copy()
    for k in range(2, sys.q + 1):
        x = sys.r_of(k).T @ x
        if k <= upto:
            x = x + sys.hier.w_of(k).T @ c.levels[k - 1]
    return x


def solve(sys: GambletSystem, f: np.ndarray) -> np.ndarray:
    """Multilevel solve of A x = f given the fine load vector f."""
    f = np.asarray(f, dtype=float)
    if f.shape != (sys.n_fine,):
        raise DimensionMismatch(f"load shape {f.shape}, expected ({sys.n_fine},)")
    levels: list[np.ndarray] = [None] * sys.q
    fk = f
    for k in range(sys.q, 1, -1):
        levels[k - 1] = solve_spd(sys.b_factor(k), sys.hier.w_of(k) @ fk)
        fk = sys.r_of(k) @ fk
    levels[0] = solve_spd(sys.b_factor(1), fk)
    return reconstruct(sys, MultiresCoefficients(levels))


def _quadratic_form(m: np.ndarray, x: np.ndarray):
    """x^T m x of a vector, or of every column of an (n, T) block."""
    return np.sum(x * (m @ x), axis=0)


def energy_norm(op, x: np.ndarray):
    """sqrt(x^T A x), clamping round-off negatives to zero.

    A float for an (N,) vector, a (T,) array for an (N, T) block.
    """
    A = np.asarray(op.A if hasattr(op, "A") else op, dtype=float)
    x = np.asarray(x, dtype=float)
    _check_block(x, A.shape[0], "vector")
    e = np.sqrt(np.maximum(_quadratic_form(A, x), 0.0))
    return float(e) if x.ndim == 1 else e


def coefficient_energies(sys: GambletSystem, c: MultiresCoefficients) -> np.ndarray:
    """Per-level energies c^(k),T B^(k) c^(k); their sum is the squared energy norm.

    Shape (q,), or (q, T) for column blocks of coefficients.
    """
    return np.array([_quadratic_form(sys.b_of(k), c.levels[k - 1]) for k in range(1, sys.q + 1)])


def z_matrix(sys: GambletSystem) -> np.ndarray:
    """Dual-wavelet Gram matrix Z over the concatenated detail index sets.

    Block (s, k), s <= k, is N^(s),T pi^(s,k) N^(k) with N^(1) = I, so
    white fine-coefficient noise has covariance sigma^2 Z in wavelet
    coordinates.

    Each diagonal block N^(k),T N^(k) has lambda_min >= 1: W N = I and
    W W^T = I give |x| = |W N x| <= |N x|. The bound holds per level
    only; the cross-level blocks can pull lambda_min of the full Z below
    1 (0.468 for the rough 1D q = 5 system, 0.596 for rough 2D q = 3).
    """
    j_sizes = sys.hier.j_sizes
    offs = np.concatenate(([0], np.cumsum(j_sizes)))
    total = offs[-1]
    Z = np.zeros((total, total))
    for k in range(1, sys.q + 1):
        T = sys.n_of(k)
        for s in range(k, 0, -1):
            if s < k:
                T = sys.hier.pi_of(s) @ T
            block = sys.n_of(s).T @ T
            Z[offs[s - 1] : offs[s], offs[k - 1] : offs[k]] = block
            if s < k:
                Z[offs[k - 1] : offs[k], offs[s - 1] : offs[s]] = block.T
    return symmetrize(Z)


# ---------------------------------------------------------------------------
# Persistence: a directory of .npy matrices, the hierarchy's recipe as JSON
# and a JSON manifest holding the sha256 of every file.

MANIFEST_NAME = "manifest.json"
FORMAT = "gamblet-system-3"
_MANIFEST_FIELDS = ("format", "q", "dim", "sizes", "j_sizes", "hierarchy_sha256", "sha256", "files")


def _file_sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _matrices(sys: GambletSystem) -> dict[str, np.ndarray]:
    out = {}
    for k in range(1, sys.q + 1):
        out[f"a_{k}"] = sys.a_of(k)
        out[f"b_{k}"] = sys.b_of(k)
    for k in range(2, sys.q + 1):
        out[f"r_{k}"] = sys.r_of(k)
        out[f"n_{k}"] = sys.n_of(k)
    return out


def save_system(sys: GambletSystem, dirpath) -> None:
    """Store a system as one .npy file per matrix plus hierarchy.json and a manifest.

    Matrices are written losslessly by np.save (no pickling), whose
    header is deterministic, so two saves of one system are
    byte-identical. hierarchy.json holds the hierarchy's recipe
    (Hierarchy.to_json). The manifest records the sha256 of every file.
    """
    os.makedirs(dirpath, exist_ok=True)
    files: dict[str, str] = {"hierarchy": "hierarchy.json"}
    with open(os.path.join(dirpath, files["hierarchy"]), "wb") as fh:
        fh.write(sys.hier.to_json().encode())
    for name, m in _matrices(sys).items():
        files[name] = f"{name}.npy"
        np.save(os.path.join(dirpath, files[name]), m, allow_pickle=False)
    digests = {name: _file_sha256(os.path.join(dirpath, f)) for name, f in files.items()}
    manifest = {
        "format": FORMAT,
        "q": sys.q,
        "dim": sys.hier.dim,
        "sizes": sys.hier.sizes,
        "j_sizes": sys.hier.j_sizes,
        "hierarchy_sha256": digests.pop("hierarchy"),
        "sha256": digests,
        "files": files,
    }
    with open(os.path.join(dirpath, MANIFEST_NAME), "w") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=1)
        fh.write("\n")


def read_manifest(dirpath) -> dict:
    path = os.path.join(dirpath, MANIFEST_NAME)
    try:
        with open(path) as fh:
            manifest = json.load(fh)
    except FileNotFoundError:
        raise BadConfig(f"no manifest at {path}") from None
    except json.JSONDecodeError as exc:
        raise BadConfig(f"manifest {path} is not valid JSON: {exc}") from None
    # Older stores (format "gamblet-system": dense hierarchy JSON, or CSV
    # matrices without digests; "gamblet-system-2", which could hold a
    # truncated system) all land here.
    missing = [key for key in _MANIFEST_FIELDS if key not in manifest]
    if missing or manifest["format"] != FORMAT:
        what = f"is missing field '{missing[0]}'" if missing else f"has format {manifest['format']!r}"
        raise BadConfig(
            f"manifest {path} {what}, not a {FORMAT} store; re-save the system "
            "(remove it and rerun the command that wrote it)"
        )
    return manifest


def verify_system(dirpath) -> dict:
    """Read a stored system's manifest and check every file against its sha256.

    Returns the manifest. Raises BadConfig naming the first file that is
    missing or whose bytes do not match the digest the manifest records.
    """
    manifest = read_manifest(dirpath)
    want = {"hierarchy": manifest["hierarchy_sha256"], **manifest["sha256"]}
    for name, fname in manifest["files"].items():
        field = "hierarchy_sha256" if name == "hierarchy" else f"sha256.{name}"
        if name not in want:
            raise BadConfig(f"manifest field '{field}' is missing for stored file {fname}")
        try:
            got = _file_sha256(os.path.join(dirpath, fname))
        except FileNotFoundError:
            raise BadConfig(f"stored file {fname} ({name}) is missing from {dirpath}") from None
        if got != want[name]:
            raise BadConfig(
                f"stored file {fname} ({name}) does not match manifest field '{field}'; "
                "the stored system is damaged"
            )
    return manifest


def load_system(dirpath) -> GambletSystem:
    """Load a system written by save_system, after verify_system has checked every file."""
    manifest = verify_system(dirpath)
    files = manifest["files"]
    with open(os.path.join(dirpath, files["hierarchy"]), "rb") as fh:
        hier = hierarchy_from_json(fh.read().decode())
    if hier.sizes != list(manifest["sizes"]):
        raise BadConfig("manifest field 'sizes' does not match the stored hierarchy")
    q = hier.q
    if q != manifest["q"]:
        raise BadConfig("manifest field 'q' does not match the stored hierarchy")

    def load(name, rows, cols):
        if name not in files:
            raise BadConfig(f"manifest lists no file for matrix '{name}'")
        m = np.load(os.path.join(dirpath, files[name]), allow_pickle=False)
        if m.shape != (rows, cols):
            raise BadConfig(f"matrix '{name}' has shape {m.shape}, manifest implies ({rows}, {cols})")
        return m

    a_levels = [load(f"a_{k}", hier.sizes[k - 1], hier.sizes[k - 1]) for k in range(1, q + 1)]
    b_levels = [load(f"b_{k}", hier.j_size(k), hier.j_size(k)) for k in range(1, q + 1)]
    r_levels = [load(f"r_{k}", hier.sizes[k - 2], hier.sizes[k - 1]) for k in range(2, q + 1)]
    n_levels = [load(f"n_{k}", hier.sizes[k - 1], hier.j_size(k)) for k in range(2, q + 1)]
    return GambletSystem(
        hier=hier, a_levels=a_levels, b_levels=b_levels,
        r_levels=r_levels, n_levels=n_levels,
    )
