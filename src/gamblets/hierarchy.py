"""Nested measurement hierarchies.

A Hierarchy holds the label counts |I^(k)|, the aggregation matrices
pi^(k,k+1) and the detail selectors W^(k) for q levels of dyadic
subdivision of [0,1]^dim, or for a coordinate-tagged point set binned
into dyadic boxes. Measurement functions are normalized indicators
(cells) or normalized sums (points); both give pi pi^T = I and
W-rows spanning ker(pi) parent-locally. In the dyadic case one child
map, _children, lists each parent's children at every level, and
build_dyadic writes the Haar rows over it, pi and W in one indexed
assignment each, for both dimensions.

Each filter row is nonzero on one parent's children only. Besides its
dense pi and w lists, a Hierarchy makes both filters of every level as
csr_arrays once, and Hierarchy.filters hands them to every product.

The nested partition fixes pi and W, so a hierarchy is stored as its
recipe (Hierarchy.to_json: kind, dim, requested q and, for points, the
input coordinates) and hierarchy_from_json rebuilds it with the same
builder, bit for bit.

Conventions used everywhere downstream:
  - level k runs 1..q; pi[k-1] is pi^(k,k+1), w[k-2] is W^(k);
  - 2D labels are flattened x-major: flat = ix * n + iy;
  - J^(1) is identified with I^(1).
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import BadConfig, EmptyPointSet, TooLarge, UnsupportedDim
from .numerics import DENSE_CAP

# After .numerics, so scipy.linalg loads before scipy.sparse: the other order
# makes `import gamblets` about 15 ms slower.
from scipy.sparse import csr_array

log = logging.getLogger("gamblets")


@dataclass
class Hierarchy:
    dim: int
    q: int
    kind: str  # "dyadic" | "points"
    sizes: list[int]  # |I^(k)|, k = 1..q
    pi: list[np.ndarray]  # pi^(k,k+1), k = 1..q-1
    w: list[np.ndarray]  # W^(k), k = 2..q
    merged_levels: tuple[int, ...] = field(default=())  # original level indices dropped as degenerate
    point_fine_label: np.ndarray | None = None  # kind="points": fine-level label index of each input point
    coords: np.ndarray | None = None  # kind="points": the (n, dim) input points
    _sparse: list[tuple[csr_array, csr_array]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._sparse = [(csr_array(w), csr_array(pi)) for w, pi in zip(self.w, self.pi)]

    @property
    def n_fine(self) -> int:
        return self.sizes[-1]

    def j_size(self, k: int) -> int:
        """|J^(k)|, with J^(1) := I^(1)."""
        if k == 1:
            return self.sizes[0]
        return self.sizes[k - 1] - self.sizes[k - 2]

    @property
    def j_sizes(self) -> list[int]:
        return [self.j_size(k) for k in range(1, self.q + 1)]

    def pi_of(self, k: int) -> np.ndarray:
        """pi^(k,k+1) for 1 <= k <= q-1."""
        return self.pi[k - 1]

    def w_of(self, k: int) -> np.ndarray:
        """W^(k) for 2 <= k <= q."""
        return self.w[k - 2]

    def filters(self, k: int) -> tuple[csr_array, csr_array]:
        """W^(k) and pi^(k-1,k) for 2 <= k <= q, as the csr_arrays made with the hierarchy."""
        return self._sparse[k - 2]

    def to_json(self) -> str:
        """The recipe: kind, dim, the requested q and, for points, the input coordinates.

        The requested q counts the merged levels too, so that a rebuild
        merges them again rather than twice. JSON floats round-trip exactly.
        """
        doc = {"kind": self.kind, "dim": self.dim, "q": self.q + len(self.merged_levels)}
        if self.coords is not None:
            doc["coords"] = self.coords.tolist()
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def hierarchy_from_json(text: str) -> Hierarchy:
    """Rebuild a hierarchy from its recipe; the builder's input checks run again."""
    doc = json.loads(text)
    need = ("kind", "dim", "q") + (("coords",) if doc.get("kind") == "points" else ())
    missing = [key for key in need if key not in doc]
    if missing:
        raise BadConfig(f"hierarchy recipe is missing field '{missing[0]}'")
    if doc["kind"] == "dyadic":
        return build_dyadic(doc["dim"], doc["q"])
    if doc["kind"] == "points":
        return build_from_points(np.array(doc["coords"], dtype=float), doc["q"])
    raise BadConfig(f"hierarchy recipe has unknown kind {doc['kind']!r}")


def _children(dim: int, k: int) -> np.ndarray:
    """Level-k labels of the children of each level-(k-1) cell.

    One row per parent in flat label order; the columns run over the
    child offsets with the x offset fastest (SW, SE, NW, NE in 2D).
    """
    parents = np.unravel_index(np.arange(2 ** ((k - 1) * dim)), (2 ** (k - 1),) * dim)
    offsets = np.unravel_index(np.arange(2 ** dim), (2,) * dim)[::-1]
    child = tuple(2 * p[:, None] + o for p, o in zip(parents, offsets))
    return np.ravel_multi_index(child, (2 ** k,) * dim)


def build_dyadic(dim: int, q: int) -> Hierarchy:
    """Uniform dyadic hierarchy on [0,1]^dim with q levels.

    |I^(k)| = 2^(k dim). Over each parent's children (in _children
    order) the rows of the dim-fold Kronecker power of [[1, 1], [1, -1]],
    divided by sqrt(2^dim), are the Haar filters: the first is the
    parent's pi row (1/sqrt(2^dim) on every child), the other 2^dim - 1
    are its W rows.
    """
    if dim not in (1, 2):
        raise UnsupportedDim(f"dim must be 1 or 2, got {dim}")
    if q < 1:
        raise UnsupportedDim(f"q must be >= 1, got {q}")
    if 2 ** (q * dim) > DENSE_CAP:
        raise TooLarge(f"fine level would have {2 ** (q * dim)} cells (cap {DENSE_CAP})")

    sizes = [2 ** (k * dim) for k in range(1, q + 1)]
    haar = np.ones((1, 1))
    for _ in range(dim):
        haar = np.kron([[1.0, 1.0], [1.0, -1.0]], haar)
    haar = haar / np.sqrt(2.0 ** dim)
    n_det = 2 ** dim - 1
    pis = []
    ws = []
    for k in range(2, q + 1):
        ch = _children(dim, k)
        parent = np.arange(len(ch))[:, None]
        pi = np.zeros((len(ch), sizes[k - 1]))
        pi[parent, ch] = haar[0]
        w = np.zeros((n_det * len(ch), sizes[k - 1]))
        w[(n_det * parent + np.arange(n_det))[:, :, None], ch[:, None, :]] = haar[1:]
        pis.append(pi)
        ws.append(w)

    return Hierarchy(dim=dim, q=q, kind="dyadic", sizes=sizes, pi=pis, w=ws)


def _gram_schmidt_details(counts: np.ndarray) -> np.ndarray:
    """Orthonormal basis of {x : sum_j sqrt(c_j) x_j = 0} for one sibling group.

    Gram-Schmidt on the weighted difference vectors e_1/sqrt(c_1) - e_t/sqrt(c_t)
    in index order; returns an (m-1) x m array of rows.
    """
    m = len(counts)
    u = np.sqrt(counts.astype(float))
    rows: list[np.ndarray] = []
    for t in range(1, m):
        v = np.zeros(m)
        v[0] = 1.0 / u[0]
        v[t] = -1.0 / u[t]
        for r in rows:
            v -= (v @ r) * r
        nv = np.linalg.norm(v)
        assert nv > 1e-12, "sibling difference vectors must be independent"
        rows.append(v / nv)
    return np.array(rows).reshape(m - 1, m)


def build_from_points(coords: np.ndarray, q: int) -> Hierarchy:
    """Hierarchy over a point set in [0,1]^dim by dyadic box binning.

    Nonempty boxes form the label sets; measurement functions are
    normalized sums over the points of a box, so pi entries are
    sqrt(|S_child| / |S_parent|). Levels whose label count equals the
    next coarser level's are degenerate (empty J) and get merged away,
    with a warning naming them.
    """
    coords = np.atleast_2d(np.asarray(coords, dtype=float))
    if coords.shape[0] == 0:
        raise EmptyPointSet("no points given")
    if coords.ndim != 2 or coords.shape[1] not in (1, 2):
        raise UnsupportedDim(f"points must be (n,1) or (n,2), got shape {coords.shape}")
    if coords.shape[0] > DENSE_CAP:
        raise TooLarge(f"{coords.shape[0]} points exceeds cap {DENSE_CAP}")
    if not np.isfinite(coords).all():
        raise BadConfig("point coordinates must be finite (no NaN or inf)")
    if coords.min() < 0.0 or coords.max() > 1.0:
        raise EmptyPointSet("coordinates must lie in the unit box; normalize first")
    if q < 1:
        raise UnsupportedDim(f"q must be >= 1, got {q}")
    dim = coords.shape[1]

    # Per level: sorted unique box labels, membership of each point, counts.
    levels = []
    for k in range(1, q + 1):
        lab = np.minimum(np.floor(coords * 2 ** k).astype(int), 2 ** k - 1)  # per-axis box index
        flat = lab[:, 0] if dim == 1 else lab[:, 0] * (2 ** k) + lab[:, 1]
        uniq, point_box = np.unique(flat, return_inverse=True)
        counts = np.bincount(point_box, minlength=len(uniq))
        levels.append({"k": k, "flat": uniq, "point_box": point_box, "counts": counts})

    # pi between consecutive surviving levels; merge degenerate ones.
    merged: list[int] = []
    i = 0
    while i + 1 < len(levels):
        if len(levels[i]["flat"]) == len(levels[i + 1]["flat"]):
            merged.append(levels[i]["k"])
            del levels[i]
        else:
            i += 1
    if merged:
        log.warning("degenerate levels merged (empty detail sets): %s", merged)

    pis = []
    for a, b in zip(levels[:-1], levels[1:]):
        pi = np.zeros((len(a["flat"]), len(b["flat"])))
        pi[a["point_box"], b["point_box"]] = np.sqrt(
            b["counts"][b["point_box"]] / a["counts"][a["point_box"]]
        )
        pis.append(pi)

    ws = []
    for a, b in zip(levels[:-1], levels[1:]):
        n_child = len(b["flat"])
        parent_of_child = np.full(n_child, -1, dtype=int)
        parent_of_child[b["point_box"]] = a["point_box"]
        w_rows = []
        for p in range(len(a["flat"])):
            children = np.flatnonzero(parent_of_child == p)
            if len(children) < 2:
                continue
            block = _gram_schmidt_details(b["counts"][children])
            for r in block:
                row = np.zeros(n_child)
                row[children] = r
                w_rows.append(row)
        ws.append(np.array(w_rows).reshape(len(w_rows), n_child))

    return Hierarchy(
        dim=dim,
        q=len(levels),
        kind="points",
        sizes=[len(lev["flat"]) for lev in levels],
        pi=pis,
        w=ws,
        merged_levels=tuple(merged),
        point_fine_label=levels[-1]["point_box"].copy(),
        coords=coords.copy(),
    )
