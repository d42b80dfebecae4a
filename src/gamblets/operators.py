"""Discrete SPD operators: FEM stiffness matrices and grounded graph Laplacians.

The PDE operator is -div(a grad u) on the unit interval/square with
zero Dirichlet boundary, discretized with piecewise (bi)linear
elements. One node is paired with each fine measurement cell, so a
q-level hierarchy with 2^q cells per axis gets 2^q interior nodes per
axis on a grid of mesh width 1/(2^q + 1); the measurement_overlap
matrix absorbs the geometric offset between cells and tents.

Every operator comes from one scatter, _scatter: the local matrices of
the elements are summed over an element-by-node table in element order.
An FEM element carries its Gauss-quadrature stiffness and mass, a graph
edge is an element with local matrix [[1, -1], [-1, 1]], and node -1
marks a node that is dropped (the Dirichlet boundary, or the grounded
vertex). The sums come out exactly symmetric, so nothing is symmetrized
afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .errors import (
    BadConfig,
    DimensionMismatch,
    Disconnected,
    EmptyGrid,
    UnsupportedDim,
)
from .hierarchy import Hierarchy

# 3-point Gauss-Legendre rule on [0,1].
_G3_X = (np.array([-np.sqrt(3.0 / 5.0), 0.0, np.sqrt(3.0 / 5.0)]) + 1.0) / 2.0
_G3_W = np.array([5.0, 8.0, 5.0]) / 18.0

# 2-point Gauss-Legendre rule on [0,1] (per axis of the 2x2 rule).
_G2_X = (np.array([-1.0, 1.0]) / np.sqrt(3.0) + 1.0) / 2.0
_G2_W = np.array([0.5, 0.5])

# Local matrix of a two-node element: a graph edge, or a 1D element per unit stiffness.
_PAIR = np.array([[1.0, -1.0], [-1.0, 1.0]])


@dataclass(frozen=True)
class CoefficientField:
    """Scalar conductivity a(x) with certified bounds 0 < lam_min <= a <= lam_max."""

    dim: int
    lam_min: float
    lam_max: float
    fn: Callable[..., np.ndarray]  # vectorized: fn(x) in 1D, fn(x, y) in 2D

    def __call__(self, *xs) -> np.ndarray:
        return self.fn(*xs)


def coeff_unit(dim: int) -> CoefficientField:
    """a == 1."""
    if dim == 1:
        return CoefficientField(1, 1.0, 1.0, lambda x: np.ones_like(np.asarray(x, dtype=float)))
    if dim == 2:
        return CoefficientField(2, 1.0, 1.0, lambda x, y: np.ones_like(np.asarray(x, dtype=float)))
    raise UnsupportedDim(f"dim must be 1 or 2, got {dim}")


def coeff_1d() -> CoefficientField:
    """Rough 1D conductivity: product over k = 1..10 of (1 + 0.25 cos(2^k x))."""

    def fn(x):
        x = np.asarray(x, dtype=float)
        out = np.ones_like(x)
        for k in range(1, 11):
            out = out * (1.0 + 0.25 * np.cos(2.0 ** k * x))
        return out

    return CoefficientField(1, 0.75 ** 10, 1.25 ** 10, fn)


def coeff_2d() -> CoefficientField:
    """Rough 2D conductivity.

    Product over k = 1..7 of the factor pair
    (1 + 0.25 cos(2^k pi (x + y))) * (1 + 0.25 cos(2^k pi (x - 3y))).
    """

    def fn(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        out = np.ones(np.broadcast(x, y).shape)
        for k in range(1, 8):
            f = 2.0 ** k * np.pi
            out = out * (1.0 + 0.25 * np.cos(f * (x + y))) * (1.0 + 0.25 * np.cos(f * (x - 3.0 * y)))
        return out

    return CoefficientField(2, 0.75 ** 14, 1.25 ** 14, fn)


def coeff_from_cells(values: np.ndarray, dim: int) -> CoefficientField:
    """Piecewise-constant coefficient given per fine-cell values.

    1D: values[j] on cell [j/n, (j+1)/n). 2D: values is n x n with
    values[ix, iy] on the cell at grid position (ix, iy).
    """
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise BadConfig("coefficient has no cell values")
    if not np.isfinite(values).all() or values.min() <= 0.0:
        raise BadConfig("coefficient cell values must be positive and finite")
    if dim == 1:
        n = values.shape[0]

        def fn(x):
            idx = np.minimum((np.asarray(x, dtype=float) * n).astype(int), n - 1)
            return values[idx]

        return CoefficientField(1, float(values.min()), float(values.max()), fn)
    if dim == 2:
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise BadConfig(f"2D coefficient file must be a square grid, got shape {values.shape}")
        n = values.shape[0]

        def fn(x, y):
            ix = np.minimum((np.asarray(x, dtype=float) * n).astype(int), n - 1)
            iy = np.minimum((np.asarray(y, dtype=float) * n).astype(int), n - 1)
            return values[ix, iy]

        return CoefficientField(2, float(values.min()), float(values.max()), fn)
    raise UnsupportedDim(f"dim must be 1 or 2, got {dim}")


@dataclass
class DiscreteOperator:
    A: np.ndarray  # stiffness (or grounded Laplacian), SPD, N x N
    mass: np.ndarray  # L2 Gram matrix of the fine basis (identity for graphs)
    dim: int
    q: int  # levels of the companion hierarchy
    mesh_width: float | None  # FEM only
    kind: str  # "pde-1d" | "pde-2d" | "graph"
    node_coords: np.ndarray  # (N, dim) node or vertex positions

    @property
    def n(self) -> int:
        return self.A.shape[0]


def _scatter(n: int, nodes: np.ndarray, local: np.ndarray) -> np.ndarray:
    """Sum local matrices over an (E, m) node table into an n x n matrix.

    local is (E, m, m), or one (m, m) matrix shared by every element.
    Entry (a, b) of element e is added at (nodes[e, a], nodes[e, b]), in
    element order; a row or column at node -1 (a dropped boundary node
    or grounded vertex) is skipped. Symmetric local matrices give an exactly symmetric sum,
    since entries (i, j) and (j, i) add the same numbers in the same order.
    """
    local = np.broadcast_to(local, nodes.shape + nodes.shape[-1:])
    rows = np.broadcast_to(nodes[:, :, None], local.shape)
    cols = np.broadcast_to(nodes[:, None, :], local.shape)
    keep = (rows >= 0) & (cols >= 0)
    out = np.zeros((n, n))
    np.add.at(out, (rows[keep], cols[keep]), local[keep])
    return out


def _fem_1d(field: CoefficientField, q: int) -> DiscreteOperator:
    n = 2 ** q
    hm = 1.0 / (n + 1)
    # Element e = [e hm, (e+1) hm] couples nodes e-1 and e (0-based); the
    # boundary nodes -1 and n are dropped.
    edges = np.arange(n + 1) * hm
    gx = edges[:, None] + hm * _G3_X[None, :]
    a_int = (field(gx) @ _G3_W) * hm  # integral of a over each element
    k_e = a_int / hm ** 2
    nodes = np.arange(n + 1)[:, None] + np.array([-1, 0])
    nodes[nodes == n] = -1
    A = _scatter(n, nodes, k_e[:, None, None] * _PAIR)
    M = _scatter(n, nodes, np.array([[hm / 3.0, hm / 6.0], [hm / 6.0, hm / 3.0]]))
    coords = ((np.arange(n) + 1) * hm).reshape(-1, 1)
    return DiscreteOperator(
        A=A, mass=M, dim=1, q=q,
        mesh_width=hm, kind="pde-1d", node_coords=coords,
    )


def _fem_2d(field: CoefficientField, q: int) -> DiscreteOperator:
    n = 2 ** q
    hm = 1.0 / (n + 1)
    N = n * n

    # Reference bilinear shape functions on [0,1]^2 at the 2x2 Gauss points.
    gp = [(sx, sy) for sx in _G2_X for sy in _G2_X]
    gw = [wx * wy for wx in _G2_W for wy in _G2_W]
    shape = np.array([[(1 - sx) * (1 - sy), (1 - sx) * sy, sx * (1 - sy), sx * sy] for sx, sy in gp])
    dshape = np.array(
        [
            [[-(1 - sy), -(1 - sx)], [-sy, (1 - sx)], [(1 - sy), -sx], [sy, sx]]
            for sx, sy in gp
        ]
    )  # (gauss, local node, xy), gradients on the reference square

    # Element e = ex (n+1) + ey has local nodes (ex-1+dx, ey-1+dy),
    # dx, dy in {0,1}, ordered (0,0), (0,1), (1,0), (1,1) to match shape
    # above; nodes on the boundary are dropped (-1).
    ex, ey = np.divmod(np.arange((n + 1) ** 2), n + 1)
    jx = ex[:, None] - 1 + np.array([0, 0, 1, 1])
    jy = ey[:, None] - 1 + np.array([0, 1, 0, 1])
    nodes = np.where((jx >= 0) & (jx < n) & (jy >= 0) & (jy < n), jx * n + jy, -1)
    gx, gy = np.array(gp).T
    a_g = field((ex[:, None] + gx) * hm, (ey[:, None] + gy) * hm)  # (element, gauss)
    ke = np.zeros((len(nodes), 4, 4))
    me = np.zeros((4, 4))
    for g in range(len(gp)):
        grads = dshape[g] / hm  # physical gradients
        ke += (gw[g] * hm ** 2 * a_g[:, g])[:, None, None] * (grads @ grads.T)
        me += gw[g] * hm ** 2 * np.outer(shape[g], shape[g])
    A = _scatter(N, nodes, ke)
    M = _scatter(N, nodes, me)
    jx, jy = np.divmod(np.arange(N), n)
    coords = np.column_stack(((jx + 1) * hm, (jy + 1) * hm))
    return DiscreteOperator(
        A=A, mass=M, dim=2, q=q,
        mesh_width=hm, kind="pde-2d", node_coords=coords,
    )


def assemble_fem(field: CoefficientField, hier: Hierarchy) -> DiscreteOperator:
    """Stiffness and consistent mass matrix on the FEM grid paired with hier."""
    if hier.kind != "dyadic":
        raise UnsupportedDim("FEM assembly needs a dyadic hierarchy")
    if field.dim != hier.dim:
        raise DimensionMismatch(f"coefficient dim {field.dim} != hierarchy dim {hier.dim}")
    if hier.dim == 1:
        return _fem_1d(field, hier.q)
    return _fem_2d(field, hier.q)


@dataclass(frozen=True)
class GeometricGraph:
    coords: np.ndarray  # (n, 2), normalized to [0,1]^2
    edges: np.ndarray  # (m, 2) int, undirected, i < j
    ground: int = 0  # grounded vertex index i0

    @property
    def n(self) -> int:
        return self.coords.shape[0]


def _normalize_coords(raw: np.ndarray) -> np.ndarray:
    out = raw.astype(float).copy()
    for ax in range(out.shape[1]):
        lo, hi = out[:, ax].min(), out[:, ax].max()
        out[:, ax] = 0.5 if hi == lo else (out[:, ax] - lo) / (hi - lo)
    return out


def make_graph(coords: np.ndarray, edges, ground: int = 0) -> GeometricGraph:
    """Validate and normalize a vertex-coordinate graph."""
    coords = np.atleast_2d(np.asarray(coords, dtype=float))
    edges = np.asarray(edges, dtype=int).reshape(-1, 2)
    n = coords.shape[0]
    if n == 0:
        raise EmptyGrid("graph has no vertices")
    if coords.shape[1] != 2:
        raise UnsupportedDim("graph vertices need (x, y) coordinates")
    if not np.isfinite(coords).all():
        raise BadConfig("graph vertex coordinates must be finite (no NaN or inf)")
    if len(edges) and (edges.min() < 0 or edges.max() >= n):
        raise BadConfig(f"edge endpoint out of range 0..{n - 1}")
    if np.any(edges[:, 0] == edges[:, 1]):
        raise BadConfig("self-loops are not allowed")
    edges = np.sort(edges, axis=1)
    keys = edges[:, 0] * n + edges[:, 1]
    if len(np.unique(keys)) != len(keys):
        raise BadConfig("duplicate edges are not allowed")
    if not (0 <= ground < n):
        raise BadConfig(f"ground index {ground} out of range 0..{n - 1}")
    order = np.argsort(keys, kind="stable")
    return GeometricGraph(coords=_normalize_coords(coords), edges=edges[order], ground=ground)


def _numbers(ln: list[str], types, what: str) -> list:
    """The fields of one graph-file line converted by `types`; a non-number raises BadConfig."""
    try:
        return [t(v) for t, v in zip(types, ln)]
    except ValueError:
        raise BadConfig(f"{what} line has a field that is not a number: {' '.join(ln)!r}") from None


def parse_graph(text: str, ground: int = 0) -> GeometricGraph:
    """Parse the plain-text graph format.

    Header `N M`, then N lines `idx x y`, then M lines `i j` (0-based).
    """
    rows = [ln.split() for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")]
    if not rows or len(rows[0]) != 2:
        raise BadConfig("graph file must start with a header line 'N M'")
    n, m = _numbers(rows[0], (int, int), "header")
    if n < 0 or m < 0:
        raise BadConfig(f"graph header counts must be >= 0, got {n} {m}")
    if len(rows) != 1 + n + m:
        raise BadConfig(f"graph file should have {1 + n + m} content lines, found {len(rows)}")
    coords = np.zeros((n, 2))
    seen = np.zeros(n, dtype=bool)
    for ln in rows[1 : 1 + n]:
        if len(ln) != 3:
            raise BadConfig(f"vertex line must be 'idx x y', got {' '.join(ln)!r}")
        idx, x, y = _numbers(ln, (int, float, float), "vertex")
        if not (0 <= idx < n) or seen[idx]:
            raise BadConfig(f"bad or repeated vertex index {idx}")
        seen[idx] = True
        coords[idx] = (x, y)
    edges = []
    for ln in rows[1 + n :]:
        if len(ln) != 2:
            raise BadConfig(f"edge line must be 'i j', got {' '.join(ln)!r}")
        edges.append(_numbers(ln, (int, int), "edge"))
    return make_graph(coords, np.array(edges, dtype=int).reshape(-1, 2), ground=ground)


def load_graph(path, ground: int = 0) -> GeometricGraph:
    with open(path) as fh:
        return parse_graph(fh.read(), ground=ground)


def synthetic_grid(n: int, ground: int = 0) -> GeometricGraph:
    """n x n four-neighbor grid graph on the unit square."""
    if n <= 0:
        raise EmptyGrid(f"grid size must be positive, got {n}")
    ix, iy = np.divmod(np.arange(n * n), n)
    denom = max(n - 1, 1)
    coords = np.column_stack((ix / denom, iy / denom))
    v = np.arange(n * n)
    edges = np.concatenate((
        np.column_stack((v, v + 1))[iy + 1 < n],
        np.column_stack((v, v + n))[ix + 1 < n],
    ))
    return make_graph(coords, edges, ground=ground)


def grounded_laplacian(g: GeometricGraph) -> DiscreteOperator:
    """Graph Laplacian with the grounded vertex's row and column deleted."""
    n = g.n
    if len(g.edges):
        data = np.ones(len(g.edges))
        adj = csr_matrix((data, (g.edges[:, 0], g.edges[:, 1])), shape=(n, n))
        adj = adj + adj.T
        n_comp, _ = connected_components(adj, directed=False)
    else:
        n_comp = n
    if n_comp != 1:
        raise Disconnected(f"graph has {n_comp} connected components; need 1")
    keep = np.delete(np.arange(n), g.ground)
    label = np.full(n, -1)  # the ground vertex is dropped like a Dirichlet node
    label[keep] = np.arange(n - 1)
    A = _scatter(n - 1, label[g.edges], _PAIR)
    return DiscreteOperator(
        A=A, mass=np.eye(n - 1), dim=2, q=0,
        mesh_width=None, kind="graph", node_coords=g.coords[keep],
    )


def _tent_antiderivative(t: np.ndarray, centers: np.ndarray, hm: float) -> np.ndarray:
    """Integral from 0 to t of the unit tent centered at each node (broadcasts)."""
    u = (t[None, :] - (centers[:, None] - hm)) / hm  # tent support is u in [0, 2]
    u = np.clip(u, 0.0, 2.0)
    rising = 0.5 * u ** 2
    falling = 0.5 + (u - 1.0) - 0.5 * (u - 1.0) ** 2
    return hm * np.where(u <= 1.0, rising, falling)


def _overlap_1d(q: int) -> np.ndarray:
    """Per-axis overlap: rows tents (2^q nodes), cols cells (2^q), including cell normalization."""
    n = 2 ** q
    hm = 1.0 / (n + 1)
    w = 1.0 / n
    centers = (np.arange(n) + 1) * hm
    edges = np.arange(n + 1) * w
    G = _tent_antiderivative(edges, centers, hm)
    return (G[:, 1:] - G[:, :-1]) / np.sqrt(w)


def measurement_overlap(hier: Hierarchy, op: DiscreteOperator) -> np.ndarray:
    """Matrix O with O_ij = integral of phi^(q)_j times tent_i.

    Maps pre-Haar coefficients of f to the FEM load vector, exactly
    (closed-form integrals of piecewise-linear times indicator).
    """
    if hier.kind != "dyadic" or op.kind == "graph":
        raise DimensionMismatch("measurement_overlap applies to dyadic FEM problems")
    if op.n != hier.n_fine or op.q != hier.q:
        raise DimensionMismatch(f"operator size {op.n} (q={op.q}) vs hierarchy fine size {hier.n_fine} (q={hier.q})")
    o1 = _overlap_1d(hier.q)
    if hier.dim == 1:
        return o1
    return np.kron(o1, o1)
