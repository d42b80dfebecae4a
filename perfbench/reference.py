"""Reference computations the benchmark checks the program against.

Nothing here imports gamblets: every quantity is rebuilt from its
definition with numpy/scipy, so a fault in the package cannot hide in
its own reference.

* level_choice: argmin of the risk proxies beta_l (paper's level rule).
* dyadic_measurements / point_measurements: the level-l measurement
  matrix Phi (normalized cell averages, or normalized box sums over
  point coordinates), whose rows are orthonormal.
* projection: the A-orthogonal projection of a vector onto
  span(A^-1 Phi^T), which is what keeping levels 1..l of the gamblet
  decomposition returns.
* grid_laplacian: grounded Laplacian of the n x n four-neighbour grid,
  built from its edge list.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg


def level_betas(sigma: float, bound: float, h: float, s: float, d: float, q: int) -> np.ndarray:
    """beta_0 = h^2s M^2, beta_q = sigma^2 h^-(2s+d)q, and in between the sum of both terms."""
    noise = sigma**2 * h ** (-(2.0 * s + d) * np.arange(q + 1))
    bias = bound**2 * h ** (2.0 * s * (np.arange(q + 1) + 1))
    betas = noise + bias
    betas[0] = bias[0]
    betas[q] = noise[q]
    return betas


def level_choice(sigma: float, bound: float, h: float, s: float, d: float, q: int) -> int:
    """Smallest l minimizing beta_l."""
    return int(np.argmin(level_betas(sigma, bound, h, s, d, q)))


def dyadic_measurements(dim: int, q: int, l: int) -> np.ndarray:
    """Phi^(l): normalized averages over the level-l dyadic cells of 2^(q dim) fine cells.

    Fine cells are flattened x-major (flat = ix * 2^q + iy in 2D).
    Level 0 measures nothing: Phi^(0) has no rows.
    """
    m = q - l
    n = 2**q
    if l == 0:
        return np.zeros((0, n**dim))
    if dim == 1:
        parent = np.arange(n) >> m
    else:
        ix, iy = np.divmod(np.arange(n * n), n)
        parent = (ix >> m) * 2**l + (iy >> m)
    phi = np.zeros((2 ** (l * dim), n**dim))
    phi[parent, np.arange(n**dim)] = 2.0 ** (-m * dim / 2.0)
    return phi


def point_measurements(coords: np.ndarray, l: int) -> np.ndarray:
    """Phi^(l): normalized sums over the nonempty level-l dyadic boxes of points in [0,1]^2.

    Level 0 measures nothing: Phi^(0) has no rows.
    """
    if l == 0:
        return np.zeros((0, coords.shape[0]))
    n = 2**l
    idx = np.minimum(np.floor(coords * n).astype(int), n - 1)
    _, box = np.unique(idx[:, 0] * n + idx[:, 1], return_inverse=True)
    box = box.ravel()
    counts = np.bincount(box)
    phi = np.zeros((counts.size, coords.shape[0]))
    phi[box, np.arange(coords.shape[0])] = 1.0 / np.sqrt(counts[box])
    return phi


def factor(A: np.ndarray):
    """Dense Cholesky factor of an SPD matrix (scipy's cho_factor)."""
    return scipy.linalg.cho_factor(A, lower=True, check_finite=False)


def dense_solve(fac, b: np.ndarray) -> np.ndarray:
    return scipy.linalg.cho_solve(fac, b, check_finite=False)


def projection(fac, phi: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """A-orthogonal projection of eta onto span(A^-1 Phi^T): A^-1 Phi^T (Phi A^-1 Phi^T)^-1 Phi eta."""
    if phi.shape[0] == 0:
        return np.zeros_like(eta)
    v = dense_solve(fac, phi.T)
    theta = scipy.linalg.cho_factor(phi @ v, lower=True, check_finite=False)
    return v @ scipy.linalg.cho_solve(theta, phi @ eta, check_finite=False)


def energy(A: np.ndarray, x: np.ndarray) -> float:
    return float(np.sqrt(max(x @ A @ x, 0.0)))


def grid_laplacian(n: int, ground: int = 0) -> tuple[np.ndarray, np.ndarray, int]:
    """Grounded Laplacian of the n x n four-neighbour grid, from its edge list.

    Vertex v = x n + y sits at (x, y)/(n - 1). Returns the Laplacian with
    the ground vertex's row and column deleted, the free vertices'
    coordinates in vertex order, and the largest vertex degree.
    """
    v = np.arange(n * n).reshape(n, n)
    edges = np.concatenate(
        [np.column_stack((v[:, :-1].ravel(), v[:, 1:].ravel())), np.column_stack((v[:-1, :].ravel(), v[1:, :].ravel()))]
    )
    L = np.zeros((n * n, n * n))
    np.add.at(L, (edges[:, 0], edges[:, 1]), -1.0)
    np.add.at(L, (edges[:, 1], edges[:, 0]), -1.0)
    degree = np.bincount(edges.ravel(), minlength=n * n)
    L[np.diag_indices(n * n)] = degree
    keep = np.delete(np.arange(n * n), ground)
    ix, iy = np.divmod(keep, n)
    coords = np.column_stack((ix, iy)) / (n - 1)
    return L[np.ix_(keep, keep)], coords, int(degree.max())
