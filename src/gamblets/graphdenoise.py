"""De-noising on graphs via gamblets of the grounded Laplacian.

The continuum machinery carries over once two scale parameters are
read off the transform itself: H, the per-level geometric decay of the
detail-block spectra, and d_eff, the growth dimension of the detail
index sets. estimate_H_d fits both by least squares, and
_graph_config puts them into a DenoiseConfig in place of (h^s, d), so
that select_level of denoise.py picks the level. denoise_graph is the
end-to-end pipeline: ground, build a hierarchy from vertex coordinates,
transform, fit the scales, then hand the fixed clean signal to the
trial engine of denoise.py, which adds the noise and runs the level
filter and a hard threshold that is the same on every level. The first
trial's clean signal, noisy signal and recoveries come back in
stats.first_realization, and the selected level in stats.level; the
output holds no second copy of either.

Vertices are re-indexed internally to the hierarchy's fine-box order;
everything returned to the caller is in the original vertex order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .denoise import (
    DenoiseConfig,
    TrialStats,
    _require_finite,
    _smooth_2d,
    _trial_engine,
)
from .errors import BadConfig, DimensionMismatch, GambletError, TooFewLevels
from .hierarchy import build_from_points
from .numerics import cholesky, extreme_eigs, solve_spd
from .operators import DiscreteOperator, GeometricGraph, grounded_laplacian
from .transform import GambletSystem, transform

GRAPH_METHODS = ("level-filter", "hard-threshold")


@dataclass(frozen=True)
class GraphScaleEstimate:
    """Empirical scale parameters of a transformed graph operator.

    H is the per-level spectral decay ratio (the analogue of h^s),
    d_eff the effective dimension implied by the detail-set growth.
    lambda_max/lambda_min hold the extreme eigenvalues of every B^(k)
    as diagnostics, and h_from_min is the decay ratio the lower
    spectral edge would give.
    """

    H: float
    d_eff: float
    lambda_max: list[float]
    lambda_min: list[float]
    h_from_min: float


def estimate_H_d(sys: GambletSystem) -> GraphScaleEstimate:
    """Fit H and d_eff from the level structure of a gamblet system.

    log lambda_max(B^(k)) is regressed on k over k = 2..q and
    H = exp(-slope/2); log |J^(k)| is then regressed on k log(1/H) to
    get d_eff. Needs q >= 3 for two usable level gaps.
    """
    q = sys.q
    if q < 3:
        raise TooFewLevels(f"need q >= 3 to fit level slopes, got q = {q}")
    lam_min = []
    lam_max = []
    for k in range(1, q + 1):
        lo, hi = extreme_eigs(sys.b_of(k))
        lam_min.append(float(lo))
        lam_max.append(float(hi))
    ks = np.arange(2, q + 1, dtype=float)
    slope_max = np.polyfit(ks, np.log(lam_max[1:]), 1)[0]
    slope_min = np.polyfit(ks, np.log(lam_min[1:]), 1)[0]
    H = float(np.exp(-slope_max / 2.0))
    if not 0.0 < H < 1.0:
        raise GambletError(f"estimated H = {H:.4g} lies outside (0, 1); spectra are not decaying geometrically")
    j_sizes = sys.hier.j_sizes
    xs = ks * np.log(1.0 / H)
    d_eff = float(np.polyfit(xs, np.log(np.asarray(j_sizes[1:], dtype=float)), 1)[0])
    if d_eff <= 0.0:
        raise GambletError(f"estimated d_eff = {d_eff:.4g} is not positive")
    return GraphScaleEstimate(
        H=H,
        d_eff=d_eff,
        lambda_max=lam_max,
        lambda_min=lam_min,
        h_from_min=float(np.exp(-slope_min / 2.0)),
    )


def _graph_config(est: GraphScaleEstimate, sigma: float, bound: float, q: int) -> DenoiseConfig:
    return DenoiseConfig(d=est.d_eff, q=q, sigma=sigma, bound=bound, h=est.H)


@dataclass
class GraphDenoiseOutput:
    """denoise_graph's output.

    stats.first_realization is in vertex order; its "u" is the clean
    solution and stats.level the selected level.
    """

    stats: TrialStats
    estimate: GraphScaleEstimate
    sigma: float
    bound: float  # |f|
    system: GambletSystem | None = None
    coords: np.ndarray | None = None  # free-vertex coordinates, vertex order


def denoise_graph(
    g: GeometricGraph,
    q: int,
    sigma: float | None = None,
    signal=None,
    seed: int = 0,
    trials: int = 1,
    sigma_rms: float | None = None,
) -> GraphDenoiseOutput:
    """Full graph pipeline: ground, transform, corrupt, recover.

    The source f is a function of the normalized vertex coordinates
    (`signal` may be a callable taking the (n, dim) coordinate array, a
    vector of per-vertex values, or None for the smooth-2d formula of
    denoise.py). u solves the grounded system L u = f, and each trial
    adds i.i.d. N(0, sigma^2) noise per free vertex. sigma may be given
    directly or as sigma_rms times the RMS of u, not both; the prior bound
    is |f|. Both or neither of sigma and sigma_rms, a non-finite one, a
    negative sigma, a sigma_rms <= 0 and trials < 1 raise BadConfig,
    naming the value, before any work; a signal with NaN or inf raises
    it once the signal is read. Recovery uses the level filter at the
    level chosen from the fitted (H, d_eff) among the system's levels,
    which number fewer than q when the hierarchy merged a degenerate one,
    with a hard threshold that is the same on every level as the
    comparator, its value tuned over 16 multiples of sigma on 16 pairs of
    a separate noise stream. Both run in the trial engine of denoise.py;
    its outputs are permuted back to vertex order here, and the first
    trial's level-filter recovery is
    stats.first_realization["recoveries"]["level-filter"].
    """
    if trials < 1:
        raise BadConfig(f"trials must be >= 1, got {trials}")
    if sigma is not None and sigma_rms is not None:
        raise BadConfig("sigma and sigma_rms exclude each other; give one of them")
    if sigma is None and sigma_rms is None:
        raise BadConfig("give either sigma or sigma_rms")
    _require_finite(sigma=sigma, sigma_rms=sigma_rms)
    if sigma is not None and sigma < 0:
        raise BadConfig(f"sigma must be >= 0, got {sigma}")
    if sigma_rms is not None and sigma_rms <= 0:
        raise BadConfig(f"sigma_rms must be > 0, got {sigma_rms}")

    op = grounded_laplacian(g)
    hier = build_from_points(op.node_coords, q)
    if hier.n_fine != op.n:
        raise DimensionMismatch(
            f"hierarchy has {hier.n_fine} occupied fine boxes for {op.n} free vertices; "
            f"the pipeline needs exactly one vertex per fine box (try a larger q)"
        )
    # vertex i lives in fine box p[i]; box b holds vertex inv[b]
    p = hier.point_fine_label
    inv = np.empty(op.n, dtype=int)
    inv[p] = np.arange(op.n)
    a_box = op.A[np.ix_(inv, inv)]
    coords_box = op.node_coords[inv]
    op_box = DiscreteOperator(
        A=a_box, mass=np.eye(op.n), dim=op.dim, q=hier.q,
        mesh_width=0.0, kind="graph", node_coords=coords_box,
    )

    sys = transform(op_box, hier)
    est = estimate_H_d(sys)

    if signal is None:
        f_box = _smooth_2d(coords_box[:, 0], coords_box[:, 1])  # graph vertices are (x, y)
    elif callable(signal):
        f_box = np.asarray(signal(coords_box), dtype=float)
    else:
        f_vert = np.asarray(signal, dtype=float)
        if f_vert.shape != (op.n,):
            raise DimensionMismatch(f"signal has shape {f_vert.shape}, expected ({op.n},)")
        f_box = f_vert[inv]
    _require_finite(signal=f_box)
    u_box = solve_spd(cholesky(a_box), f_box)

    if sigma is None:
        sigma = float(sigma_rms * np.sqrt(np.mean(u_box**2)))
    bound = float(np.linalg.norm(f_box))

    def source(rngs):
        t = len(rngs)
        return np.repeat(f_box[:, None], t, axis=1), np.repeat(u_box[:, None], t, axis=1)

    stats = _trial_engine(
        sys, op_box, _graph_config(est, sigma, bound, sys.q), source, np.ones(sys.q),
        trials, seed, GRAPH_METHODS, tune_size=16, t0_grid=np.geomspace(1e-2, 1e2, 16) * sigma,
    )
    real = stats.first_realization
    stats.first_realization = {
        "f": real["f"][p],
        "u": real["u"][p],
        "eta": real["eta"][p],
        "recoveries": {m: r[p] for m, r in real["recoveries"].items()},
    }
    return GraphDenoiseOutput(
        stats=stats,
        estimate=est,
        sigma=float(sigma),
        bound=bound,
        system=sys,
        coords=op.node_coords,
    )
