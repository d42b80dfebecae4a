"""Operator-adapted wavelet (gamblet) transform and multilevel solve.

transform() runs the level-by-level recursion: for k = q..2 it forms
the detail Gram matrix B^(k) = W A^(k) W^T, the dual-update matrix
N^(k) = A^(k) W^T B^(k),-1, the coarsening map
R^(k-1,k) = pi^(k-1,k) (I - N^(k) W^(k)) and the coarse operator
A^(k-1) = R A^(k) R^T, all from one solve of B in the orthogonal Haar
basis [pi; W] (_level_step), and validate_system checks every system
it returns. Every product with W^(k) or pi^(k-1,k), there and in
analyze, reconstruct and solve, takes the sparse forms that
Hierarchy.filters hands out. The fine operator A^(q) is a local stencil
(0.2% of its entries are nonzero at 2D q6), so the top level step and
validate_system multiply it as a csr_array, each making that form from
the dense matrix itself; every stored A/B/R/N is a dense ndarray. The
operator must be finite, exactly symmetric and of the hierarchy's size.
analyze()/reconstruct() move signals between fine coefficients and
per-level wavelet coefficients, one vector or an (N, T) block of T
signals at a time, and solve() is the package's one solver for A u = f.
The references that check the recursion by another route (Gramian
inversion, the dual wavelets' noise Gram matrix) live with the tests.

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
from scipy.sparse import csr_array, issparse

from .errors import BadConfig, BadLevel, DimensionMismatch, GambletError
from .hierarchy import Hierarchy, hierarchy_from_json
from .numerics import (
    CholFactor,
    _TILE,
    _check_square_symmetric,
    cholesky,
    solve_spd,
    symmetrize,
    transpose,
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
        """N^(k) for 2 <= k <= q."""
        return self.n_levels[k - 2]

    def b_factor(self, k: int) -> CholFactor:
        """Cholesky factor of B^(k), made on first use and kept for solve; A itself is never factored."""
        if not self._b_factors:
            self._b_factors = [None] * self.q
        f = self._b_factors[k - 1]
        if f is None:
            f = cholesky(self.b_of(k))
            self._b_factors[k - 1] = f
        return f


def _dense(m):
    """m as an ndarray: a product with the sparse fine operator is itself sparse."""
    return m.toarray() if issparse(m) else m


def _level_step(hier: Hierarchy, k: int, Ak: np.ndarray | csr_array):
    """B^(k), N^(k), R^(k-1,k) and A^(k-1) from A^(k), eliminating the details in the Haar basis.

    [pi; W] is orthogonal (pi^T pi + W^T W = I), so with B = W A W^T,
    C = W A pi^T and X^T = B^-1 C (one solve with |I^(k-1)| right-hand
    sides) the definitions N = A W^T B^-1, R = pi (I - N W) and
    A^(k-1) = R A R^T become
        N = W^T + pi^T X,  R = pi - X W,  A^(k-1) = pi A pi^T - C^T X^T,
    the last the Schur complement of B in A written in that basis. A^(k)
    is the fine operator's csr_array at k = q and a dense Schur complement
    below; A W^T and A pi^T are the only products with it, and _dense
    makes them ndarrays. Every other product has a sparse filter on the
    left and a dense result; W^T is added into N entry by entry. Each
    entry is the same sum, in the same order, whichever form A^(k) has.
    numerics.transpose makes each transposed operand of a sparse product,
    and of R's difference, C-contiguous first; C stays a transposed view,
    which LAPACK reads as it is.
    """
    W, pi = hier.filters(k)
    AWt = _dense(Ak @ W.T)
    B = symmetrize(W @ AWt)
    C = (pi @ AWt).T
    del AWt
    Xt = solve_spd(cholesky(B), C)
    Nk = pi.T @ transpose(Xt)
    Wc = W.tocoo()
    Nk[Wc.col, Wc.row] += Wc.data
    R = hier.pi_of(k - 1) - transpose(W.T @ Xt)
    A_coarse = symmetrize(pi @ _dense(Ak @ pi.T) - C.T @ Xt)
    return B, Nk, R, A_coarse


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

    a_levels[q - 1] = A
    Ak = csr_array(A)
    for k in range(q, 1, -1):
        b_levels[k - 1], n_levels[k - 2], r_levels[k - 2], a_levels[k - 2] = _level_step(hier, k, Ak)
        Ak = a_levels[k - 2]
    b_levels[0] = a_levels[0]

    sys = GambletSystem(hier=hier, a_levels=a_levels, b_levels=b_levels, r_levels=r_levels, n_levels=n_levels)
    validate_system(sys)
    return sys


def _max_abs(m: np.ndarray) -> float:
    """max |m_ij|, without the |m|-sized temporary of np.abs(m).max()."""
    return float(max(m.max(), -m.min()))


def validate_system(sys: GambletSystem) -> None:
    """Check B^(1) = A^(1), then the five identities below per level; a failure raises GambletError.

    What each check certifies, for N, R and A^(k-1) formed from
    X^T = B^-1 C as in _level_step:
    - W N = I holds for N = W^T + pi^T X by the hierarchy's
      orthogonality alone; it certifies the stored N and the filters.
    - pi N = X = (pi - R) W^T: N and R carry one X. W N = I holds
      whatever X N carries; the other checks read R.
    - R A pi^T = pi A pi^T - X C, so A^(k-1) = R A pi^T tests the stored
      A^(k-1) against the stored R and A; on an untouched system only
      the antisymmetric part of C^T X^T is left.
    - R A W^T = C^T - X B is the residual of the B solve: the defining
      A-orthogonality of the coarse gamblets to the details. As
      R^T = pi^T - W^T X^T, it makes R A pi^T equal R A R^T.
    - B^(k) = W A W^T certifies the stored B, which solve (through
      b_factor) and coefficient_energies read and no other check does.
      B^(1) is A^(1) itself and must equal it exactly.
    The stored A^(q) is read again on every call, as a csr_array made
    here, so A W^T, A pi^T and W A W^T are sparse at k = q, as in
    _level_step. Every check runs over _TILE-row blocks of W, R or B,
    and the sparse W A W^T is densified one block at a time, so at
    k = q no dense temporary has more than _TILE rows. A NaN fails
    every comparison it enters.
    """
    if not np.array_equal(sys.b_of(1), sys.a_of(1)):
        raise GambletError("B^(1) != A^(1)")
    for k in range(2, sys.q + 1):
        Nk, R, B, A_coarse = sys.n_of(k), sys.r_of(k), sys.b_of(k), sys.a_of(k - 1)
        Ak = csr_array(sys.a_of(k)) if k == sys.q else sys.a_of(k)
        W, pi = sys.hier.filters(k)
        # np.max, unlike the builtin, keeps a NaN wherever it falls in the list.
        wn_errs = []
        for i in range(0, W.shape[0], _TILE):
            WN = W[i : i + _TILE] @ Nk
            WN[:, i : i + _TILE] -= np.eye(WN.shape[0])
            wn_errs.append(_max_abs(WN))
        wn_err = float(np.max(wn_errs, initial=0.0))
        n_tol = CONSTRUCTION_TOL * max(1.0, _max_abs(Nk))
        if not wn_err <= n_tol:
            raise GambletError(f"W^({k}) N^({k}) != I (max dev {wn_err:.2e})")
        x_err = float(np.max([
            _max_abs(pi[i : i + _TILE] @ Nk - (pi[i : i + _TILE] - R[i : i + _TILE]) @ W.T)
            for i in range(0, pi.shape[0], _TILE)
        ], initial=0.0))
        if not x_err <= n_tol:
            raise GambletError(f"pi N^({k}) != (pi - R^({k - 1},{k})) W^T (max dev {x_err:.2e})")
        a_tol = CONSTRUCTION_TOL * _max_abs(Ak)
        APt, AWt = Ak @ pi.T, Ak @ W.T
        a_errs, raw_errs = [], []
        for i in range(0, R.shape[0], _TILE):
            Ri = R[i : i + _TILE]
            a_errs.append(_max_abs(Ri @ APt - A_coarse[i : i + _TILE]))
            raw_errs.append(_max_abs(Ri @ AWt))
        a_err = float(np.max(a_errs, initial=0.0))
        if not a_err <= a_tol:
            raise GambletError(f"A^({k - 1}) != R A pi^T (max dev {a_err:.2e})")
        raw_err = float(np.max(raw_errs, initial=0.0))
        if not raw_err <= a_tol:
            raise GambletError(f"R^({k - 1},{k}) A W^T != 0 (max dev {raw_err:.2e})")
        WAWt = W @ AWt
        b_err = float(np.max([
            _max_abs(_dense(WAWt[i : i + _TILE]) - B[i : i + _TILE]) for i in range(0, B.shape[0], _TILE)
        ], initial=0.0))
        if not b_err <= a_tol:
            raise GambletError(f"B^({k}) != W A W^T (max dev {b_err:.2e})")


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
        m = sys.hier.filters(k)[1] @ m
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
            x = x + sys.hier.filters(k)[0].T @ c.levels[k - 1]
    return x


def solve(sys: GambletSystem, f: np.ndarray) -> np.ndarray:
    """Multilevel solve of A x = f for a fine load f: an (N,) vector or an (N, T) block of T loads."""
    f = np.asarray(f, dtype=float)
    _check_block(f, sys.n_fine, "load")
    levels: list[np.ndarray] = [None] * sys.q
    fk = f
    for k in range(sys.q, 1, -1):
        levels[k - 1] = solve_spd(sys.b_factor(k), sys.hier.filters(k)[0] @ fk)
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
    header is deterministic, and always in C order (a Fortran-ordered
    array, such as a caller's A^(q), would get another header and other
    bytes), so two saves of equal systems are byte-identical.
    hierarchy.json holds the hierarchy's recipe (Hierarchy.to_json).
    The manifest records the sha256 of every file.
    """
    os.makedirs(dirpath, exist_ok=True)
    files: dict[str, str] = {"hierarchy": "hierarchy.json"}
    with open(os.path.join(dirpath, files["hierarchy"]), "wb") as fh:
        fh.write(sys.hier.to_json().encode())
    for name, m in _matrices(sys).items():
        files[name] = f"{name}.npy"
        np.save(os.path.join(dirpath, files[name]), np.ascontiguousarray(m), allow_pickle=False)
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
    return GambletSystem(hier=hier, a_levels=a_levels, b_levels=b_levels, r_levels=r_levels, n_levels=n_levels)
