"""Test oracles: slow, independent references for the gamblet pipeline.

None of these is on the pipeline's path. They compute what the package
computes by a second route (Gramian inversion, explicit fine-basis
products, dense inverses), so a test can hold the recursion to them.
Tests import this module as they import conftest.
"""

import numpy as np

from gamblets.denoise import DenoiseConfig, _draw_trials, _pde_source, select_level
from gamblets.errors import DimensionMismatch, TooLarge
from gamblets.hierarchy import Hierarchy
from gamblets.numerics import DENSE_CAP, cholesky, solve_spd, symmetrize
from gamblets.transform import GambletSystem, _level_step, analyze, energy_norm, reconstruct


def spd_inverse(m: np.ndarray) -> np.ndarray:
    """Explicit inverse of an SPD matrix via Cholesky, symmetrized."""
    inv = solve_spd(cholesky(m), np.eye(m.shape[0]))
    return symmetrize(inv)


def pi_prod(hier: Hierarchy, s: int, k: int) -> np.ndarray:
    """pi^(s,k) = pi^(s,s+1) ... pi^(k-1,k) for s <= k."""
    out = np.eye(hier.sizes[k - 1])
    for j in range(k - 1, s - 1, -1):
        out = hier.pi[j - 1] @ out
    return out


def _n_of(sys: GambletSystem, k: int) -> np.ndarray:
    """N^(k), with N^(1) the identity on I^(1)."""
    if k == 1:
        return np.eye(sys.hier.sizes[0])
    return sys.n_of(k)


def psi_fine(sys: GambletSystem, k: int) -> np.ndarray:
    """Rows are the fine-basis coefficients of psi^(k)_i (product of R factors)."""
    out = np.eye(sys.n_fine)
    for j in range(sys.q, k, -1):
        out = sys.r_of(j) @ out
    return out


def chi_fine(sys: GambletSystem, k: int) -> np.ndarray:
    """Rows are the fine-basis coefficients of chi^(k)_i (psi^(1) rows for k=1)."""
    if k == 1:
        return psi_fine(sys, 1)
    return sys.hier.w_of(k) @ psi_fine(sys, k)


def phi_chi_fine(sys: GambletSystem, k: int) -> np.ndarray:
    """Dual wavelets phi^(k),chi expressed over the fine measurement basis."""
    if k == 1:
        return pi_prod(sys.hier, 1, sys.q)
    return sys.n_of(k).T @ pi_prod(sys.hier, k, sys.q)


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
        b_levels[k - 1], n_levels[k - 2], r_levels[k - 2], _ = _level_step(hier, k, a_levels[k - 1])
    return GambletSystem(hier=hier, a_levels=a_levels, b_levels=b_levels, r_levels=r_levels, n_levels=n_levels)


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
        T = _n_of(sys, k)
        for s in range(k, 0, -1):
            if s < k:
                T = sys.hier.pi_of(s) @ T
            block = _n_of(sys, s).T @ T
            Z[offs[s - 1] : offs[s], offs[k - 1] : offs[k]] = block
            if s < k:
                Z[offs[k - 1] : offs[k], offs[s - 1] : offs[s]] = block.T
    return symmetrize(Z)


def noise_trace(sys: GambletSystem, l: int) -> float:
    """tr A^(1) + sum over 2 <= k <= l of tr(B^(k) N^(k),T N^(k)).

    The expected squared energy that the level filter at l picks up
    from unit white noise on the fine coefficients: level k carries
    coefficients N^(k),T pi^(k,q) zeta of covariance N^(k),T N^(k)
    (pi pi^T = I), whose energy form is B^(k), and the levels are
    A-orthogonal. It equals tr(P_l^T A P_l) for the projection
    P_l = reconstruct(analyze(.), upto=l).
    """
    total = float(np.trace(sys.a_of(1))) if l >= 1 else 0.0
    for k in range(2, l + 1):
        Nk = sys.n_of(k)
        total += float(np.sum(sys.b_of(k) * (Nk.T @ Nk)))
    return total


def energy_growth_check(
    sys: GambletSystem,
    op,
    cfg: DenoiseConfig,
    n_trials: int,
    seed: int,
) -> np.ndarray:
    """Per-trial energies of the level filter: an (n_trials, 3) array.

    Its columns are |recovery|_A, |u|_A and the noise pickup
    |level_filter(eta - u)|_A. The first minus the second is the energy
    picked up from the noise minus the energy lost by truncating u, so
    it can be negative, and its quantiles change sign as sigma moves
    the selected level. The pickup alone bounds it by the triangle
    inequality.

    The trials are run_trials' draws; eta and eta - u are filtered
    together as one (N, 2 n_trials) block. The selected level must be
    at least 1.
    """
    l_dag = select_level(cfg)
    assert l_dag >= 1, "selected level is 0; the statistic needs at least one level"
    _, u, eta = _draw_trials(_pde_source(sys, op, cfg.signal), cfg.sigma, seed, 0, n_trials)
    rec = reconstruct(sys, analyze(sys, np.hstack([eta, eta - u])), upto=l_dag)
    return np.column_stack([
        energy_norm(op, rec[:, :n_trials]),
        energy_norm(op, u),
        energy_norm(op, rec[:, n_trials:]),
    ])
