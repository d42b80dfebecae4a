"""Signal recovery from noisy fine-scale measurements.

Four estimators operate on a noisy fine vector eta = u + zeta:

* level_filter keeps the first l wavelet levels; select_level picks
  the level l that balances accumulated noise against truncation bias
  given the noise size sigma and the prior energy bound M.
* hard_threshold / soft_threshold shrink wavelet coefficients with a
  per-level threshold schedule t_k = h^(-2ks) t0.
* regularize solves the constrained least-squares problem
  min x^T A x subject to |x - y| <= gamma via its Lagrangian form
  x = (alpha A + I)^{-1} y, locating alpha by bisection.

Every estimator also takes an (N, T) block of T signals, one per
column, and treats it in one pass: the level filter and thresholding
are linear or entry-wise in the wavelet coefficients, and
regularization solves all columns in one eigenbasis of A.

gen_signal draws a source and solves for its signal with transform.solve;
given a sequence of generators it draws one column per generator and
solves the block at once. It is the only place that draws f.

run_trials evaluates all methods on identical signal/noise draws and
aggregates error statistics. It is the PDE front end of the one trial
engine, which draws every trial up front through gen_signal, analyzes
the noisy block once and derives the level filter and both shrinkers
from those coefficients; the graph pipeline (graphdenoise.denoise_graph)
feeds the same engine. Each front end fixes its own threshold tuning:
run_trials tunes over default_threshold_grid on 32 pairs, and neither
the pair count nor the grid is a parameter.
"""

from __future__ import annotations

import logging
import warnings
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BadConfig,
    BadLevel,
    DimensionMismatch,
    EmptyGrid,
    NoBracketWarning,
    NotSPD,
)
from .numerics import PIVOT_RTOL, _check_square_symmetric, chi_square_quantile
from .operators import _G3_W, _G3_X, measurement_overlap
from .transform import (
    GambletSystem,
    MultiresCoefficients,
    _check_block,
    analyze,
    coefficient_energies,
    energy_norm,
    reconstruct,
    solve,
)

log = logging.getLogger("gamblets")

METHODS = ("level-filter", "hard-threshold", "soft-threshold", "regularization")
SIGNAL_MODES = ("random-sphere", "smooth-1d", "smooth-2d")


def _require_finite(**values) -> None:
    """Raise BadConfig naming the first value with a NaN or inf entry (None is skipped)."""
    for name, v in values.items():
        if v is not None and not np.all(np.isfinite(v)):
            raise BadConfig(f"{name} must be finite (no NaN or inf)")


@dataclass(frozen=True)
class DenoiseConfig:
    """Problem parameters shared by the estimators.

    h is the subsampling ratio of the hierarchy (mesh width halves per
    level), s the operator order divided by two, d the spatial
    dimension, sigma the per-measurement noise level and bound the
    prior bound on the source energy |f|.
    """

    d: int
    q: int
    sigma: float
    bound: float = 1.0
    h: float = 0.5
    s: float = 1.0
    confidence: float = 0.95
    t0: float | None = None
    signal: str = "random-sphere"

    def __post_init__(self):
        _require_finite(d=self.d, sigma=self.sigma, bound=self.bound, s=self.s, t0=self.t0)
        if self.q < 1:
            raise BadConfig(f"q must be >= 1, got {self.q}")
        if self.sigma < 0:
            raise BadConfig(f"sigma must be >= 0, got {self.sigma}")
        if self.bound <= 0:
            raise BadConfig(f"bound must be > 0, got {self.bound}")
        if not 0.0 < self.h < 1.0:
            raise BadConfig(f"h must lie in (0, 1), got {self.h}")
        if self.s <= 0:
            raise BadConfig(f"s must be > 0, got {self.s}")
        if self.d <= 0:
            raise BadConfig(f"d must be > 0, got {self.d}")
        if not 0.0 < self.confidence < 1.0:
            raise BadConfig(f"confidence must lie in (0, 1), got {self.confidence}")
        if self.t0 is not None and self.t0 < 0:
            raise BadConfig(f"t0 must be >= 0, got {self.t0}")
        if self.signal not in SIGNAL_MODES:
            raise BadConfig(f"unknown signal mode {self.signal!r}; options: {SIGNAL_MODES}")


@dataclass
class DenoiseResult:
    """One estimator's output.

    For an (N,) signal, recovered is (N,), level_energies (q,) and
    energy and alpha are scalars. For an (N, T) block, recovered is
    (N, T), level_energies (q, T) and energy and alpha (T,) arrays
    (alpha NaN where regularize returns zero).
    """

    recovered: np.ndarray
    level: int | None = None
    level_energies: np.ndarray | None = None
    energy: float = 0.0
    alpha: float | None = None
    gamma: float | None = None


@dataclass(frozen=True)
class MethodStats:
    energy_avg: float
    energy_std: float
    l2_avg: float
    l2_std: float


@dataclass
class TrialStats:
    methods: list[str]
    stats: dict[str, MethodStats]
    noise_energy_avg: float
    noise_energy_std: float
    n_trials: int
    seed: int
    level: int
    tuned_t0: dict[str, float] = field(default_factory=dict)
    first_realization: dict | None = None


# ---------------------------------------------------------------------------
# Level selection.

def level_betas(cfg: DenoiseConfig) -> np.ndarray:
    """Risk proxies beta_l for l = 0..q.

    beta_0 = h^(2s) M^2, beta_q = sigma^2 h^(-(2s+d)q), and in between
    beta_l = sigma^2 h^(-(2s+d)l) + h^(2s(l+1)) M^2: accumulated noise
    plus squared truncation bias.
    """
    h, s, d, q = cfg.h, cfg.s, cfg.d, cfg.q
    m2 = cfg.bound**2
    s2 = cfg.sigma**2
    betas = np.empty(q + 1)
    betas[0] = h ** (2 * s) * m2
    for l in range(1, q):
        betas[l] = s2 * h ** (-(2 * s + d) * l) + h ** (2 * s * (l + 1)) * m2
    betas[q] = s2 * h ** (-(2 * s + d) * q)
    return betas


def select_level(cfg: DenoiseConfig) -> int:
    """Level minimizing beta_l; ties resolve toward the smaller level."""
    return int(np.argmin(level_betas(cfg)))


# ---------------------------------------------------------------------------
# Estimators. Each takes an (N,) signal or an (N, T) block of T signals,
# one per column, and works on the whole block at once; a vector is the
# T = 1 case of the same code.

def _result(sys: GambletSystem, c: MultiresCoefficients, level: int | None = None) -> DenoiseResult:
    """Recovery and per-level energies of c, keeping levels 1..level (all if None)."""
    upto = sys.q if level is None else level
    energies = coefficient_energies(sys, c)
    energies[upto:] = 0.0
    return DenoiseResult(
        recovered=reconstruct(sys, c, upto=upto), level=level, level_energies=energies,
        energy=np.sqrt(np.maximum(energies.sum(axis=0), 0.0)),
    )


def level_filter(sys: GambletSystem, y: np.ndarray, l: int) -> DenoiseResult:
    """Keep wavelet levels 1..l of y and drop the rest; l = 0 gives zero."""
    if not (0 <= l <= sys.q):
        raise BadLevel(f"level must lie in 0..{sys.q}, got {l}")
    return _result(sys, analyze(sys, y), level=l)


def threshold_schedule(cfg: DenoiseConfig, t0: float) -> np.ndarray:
    """Per-level thresholds t_k = h^(-2ks) t0 for k = 1..q."""
    return t0 * cfg.h ** (-2 * cfg.s * np.arange(1, cfg.q + 1))


def _shrink(c: MultiresCoefficients, ts: np.ndarray, rule) -> MultiresCoefficients:
    """Apply `rule` to every level k of the coefficients c with threshold ts[k]."""
    _require_finite(thresholds=ts)
    if np.any(ts < 0):
        raise BadConfig(f"thresholds must be >= 0, got {ts}")
    return MultiresCoefficients([rule(ck, ts[k]) for k, ck in enumerate(c.levels)])


def _hard(x: np.ndarray, t) -> np.ndarray:
    return np.where(np.abs(x) > t, x, 0.0)


def _soft(x: np.ndarray, t) -> np.ndarray:
    return np.sign(x) * np.maximum(np.abs(x) - t, 0.0)


_RULES = {"hard-threshold": _hard, "soft-threshold": _soft}


def hard_threshold(sys: GambletSystem, y: np.ndarray, t0: float, cfg: DenoiseConfig) -> DenoiseResult:
    """Zero every wavelet coefficient with magnitude at most its level threshold."""
    return _result(sys, _shrink(analyze(sys, y), threshold_schedule(cfg, t0), _hard))


def soft_threshold(sys: GambletSystem, y: np.ndarray, t0: float, cfg: DenoiseConfig) -> DenoiseResult:
    """Shrink every wavelet coefficient toward zero by its level threshold."""
    return _result(sys, _shrink(analyze(sys, y), threshold_schedule(cfg, t0), _soft))


def default_threshold_grid(cfg: DenoiseConfig) -> np.ndarray:
    """Sixteen candidate t0 values bracketing the noise scale of the coefficients.

    Spans [1e-2, 1e2] times sigma h^(2s) logarithmically; collapses to
    {0} when sigma = 0 (no noise means no shrinkage).
    """
    if cfg.sigma == 0.0:
        return np.array([0.0])
    return np.geomspace(1e-2, 1e2, 16) * cfg.sigma * cfg.h ** (2 * cfg.s)


def _tune(sys: GambletSystem, cu, ceta, t0_grid, scale: np.ndarray, rule) -> float:
    """t0 from the grid minimizing the mean energy error of rule(ceta) against cu.

    cu and ceta are per-level (J_k, T) coefficient blocks of T clean and
    noisy signals; level k is cut at t0 * scale[k]. Every grid point is
    evaluated at once as a (G, J_k, T) stack, with one B^(k) product per
    grid slice, so equal thresholds give bit-equal errors and ties go to
    the smallest t0.
    """
    grid = np.sort(np.asarray(t0_grid, dtype=float))
    if grid.size == 0:
        raise EmptyGrid("threshold grid is empty")
    sq = 0.0
    for k in range(sys.q):
        diff = rule(ceta[k][None], grid[:, None, None] * scale[k]) - cu[k][None]
        sq = sq + np.sum(diff * (sys.b_of(k + 1) @ diff), axis=1)
    mean_err = np.sqrt(np.maximum(sq, 0.0)).mean(axis=1)
    return float(grid[int(np.argmin(mean_err))])


def tune_threshold(
    sys: GambletSystem,
    trials: list[tuple[np.ndarray, np.ndarray]],
    t0_grid: np.ndarray,
    cfg: DenoiseConfig,
    kind: str = "hard",
) -> float:
    """t0 from the grid minimizing the mean energy error over (u, eta) pairs.

    Oracle tuning for experiments: the error of a thresholded recovery
    is evaluated against the known clean signal u via the per-level
    B-forms, which equals the energy norm of the mismatch.
    """
    rule = {"hard": _hard, "soft": _soft}.get(kind)
    if rule is None:
        raise BadConfig(f"kind must be 'hard' or 'soft', got {kind!r}")
    if not trials:
        raise EmptyGrid("no tuning trials supplied")
    cu = analyze(sys, np.column_stack([u for u, _ in trials])).levels
    ceta = analyze(sys, np.column_stack([eta for _, eta in trials])).levels
    return _tune(sys, cu, ceta, t0_grid, threshold_schedule(cfg, 1.0), rule)


def _secular_alpha(lam: np.ndarray, yhat: np.ndarray, gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """alpha per column of yhat with g(alpha) = |alpha lam / (1 + alpha lam) yhat| = gamma.

    Every column is bracketed by doubling and then bisected to
    |g(alpha) - gamma| <= 1e-10 gamma, all columns together. Returns
    (alpha, unreached): columns with no alpha below 1e30 keep the last
    bracket end, which gives their limiting recovery.
    """
    lam = lam[:, None]

    def g(alpha, cols):
        return np.linalg.norm(alpha * lam / (1.0 + alpha * lam) * yhat[:, cols], axis=0)

    t = yhat.shape[1]
    lo, hi = np.zeros(t), np.ones(t)
    unreached = np.zeros(t, dtype=bool)
    grow = np.arange(t)
    while grow.size:
        grow = grow[g(hi[grow], grow) < gamma]
        lo[grow] = hi[grow]
        hi[grow] *= 2.0
        lost = hi[grow] > 1e30
        unreached[grow[lost]] = True
        grow = grow[~lost]
    open_ = np.flatnonzero(~unreached)
    for _ in range(500):
        if not open_.size:
            break
        mid = 0.5 * (lo[open_] + hi[open_])
        val = g(mid, open_)
        hit = np.abs(val - gamma) <= 1e-10 * gamma
        below = val < gamma
        lo[open_] = np.where(hit | below, mid, lo[open_])
        hi[open_] = np.where(hit | ~below, mid, hi[open_])
        open_ = open_[~hit]
    return np.where(unreached, lo, 0.5 * (lo + hi)), unreached


def regularize(
    op,
    y: np.ndarray,
    sigma: float,
    confidence: float = 0.95,
    gamma: float | None = None,
) -> DenoiseResult:
    """Energy-minimizing recovery inside the noise ball |x - y| <= gamma.

    gamma defaults to the sqrt of sigma^2 times the `confidence`
    quantile of a chi-square with N degrees of freedom, so the true
    signal lies in the ball with that probability. If |y| <= gamma the
    zero vector is feasible and optimal; otherwise the solution is
    x = (alpha A + I)^{-1} y with alpha chosen so the constraint is
    active: g(alpha) = |y - x| = gamma. g increases continuously from
    0 toward |y|, so alpha is bracketed by doubling and then bisected
    to |g(alpha) - gamma| <= 1e-10 gamma.

    For an (N, T) block every column is solved in the one eigenbasis of
    A; alpha is then a (T,) array, NaN where the zero vector is returned.
    A must be finite (else BadConfig), exactly symmetric and, where alpha
    is solved for, semidefinite to PIVOT_RTOL max |lambda| (else NotSPD);
    a NaN or inf sigma or gamma raises BadConfig.
    """
    _require_finite(sigma=sigma, gamma=gamma)
    A = np.asarray(op.A if hasattr(op, "A") else op, dtype=float)
    _check_square_symmetric(A, "operator")
    y = np.asarray(y, dtype=float)
    n = A.shape[0]
    _check_block(y, n, "signal")
    if gamma is None:
        if sigma < 0:
            raise BadConfig(f"sigma must be >= 0, got {sigma}")
        gamma = float(sigma * np.sqrt(chi_square_quantile(n, confidence)))
    if gamma < 0:
        raise BadConfig(f"gamma must be >= 0, got {gamma}")

    ys = y.reshape(n, -1)
    x = np.zeros_like(ys)
    alpha = np.full(ys.shape[1], np.nan)
    energy = np.zeros(ys.shape[1])
    live = np.linalg.norm(ys, axis=0) > gamma  # elsewhere zero is feasible and optimal
    if gamma == 0.0:
        x[:, live] = ys[:, live]
        alpha[live] = 0.0
        energy[live] = energy_norm(A, ys[:, live])
    elif live.any():
        lam, vecs = np.linalg.eigh(A)
        if lam[0] < -PIVOT_RTOL * max(-lam[0], lam[-1]):
            raise NotSPD(f"operator is indefinite (lambda_min {lam[0]:.3e}); the recovery has no minimum")
        yhat = vecs.T @ ys[:, live]
        a, unreached = _secular_alpha(lam, yhat, gamma)
        if unreached.any():
            warnings.warn(
                f"no alpha below 1e30 reaches the constraint for {int(unreached.sum())} of "
                f"{yhat.shape[1]} signals (gamma = {gamma:.6g}); returning the limiting recovery",
                NoBracketWarning,
            )
        z = yhat / (1.0 + a * lam[:, None])
        x[:, live] = vecs @ z
        alpha[live] = a
        energy[live] = np.sqrt(np.maximum(np.sum(lam[:, None] * z**2, axis=0), 0.0))
    if y.ndim == 2:
        return DenoiseResult(recovered=x, energy=energy, alpha=alpha, gamma=gamma)
    a0 = None if np.isnan(alpha[0]) else float(alpha[0])
    return DenoiseResult(recovered=x[:, 0], energy=float(energy[0]), alpha=a0, gamma=gamma)


# ---------------------------------------------------------------------------
# Signals, noise, and error metrics.

def _smooth_1d(x: np.ndarray) -> np.ndarray:
    # sin(pi x)/x, continuously extended to pi at x = 0
    return np.pi * np.sinc(x)


def _smooth_2d(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.cos(3 * x + y) + np.sin(3 * y) + np.sin(7 * x - 5 * y)


def _cell_projection_1d(n: int, fn) -> np.ndarray:
    """Coefficients <phi_i, f> for normalized cell indicators on n cells."""
    w = 1.0 / n
    left = np.arange(n) * w
    vals = fn(left[:, None] + w * _G3_X[None, :])
    return np.sqrt(w) * (vals @ _G3_W)


def _cell_projection_2d(n: int, fn) -> np.ndarray:
    w = 1.0 / n
    left = np.arange(n) * w
    gx = left[:, None] + w * _G3_X[None, :]
    # tensor Gauss rule per cell; x-major flattening of the cell grid
    avg = np.einsum(
        "a,b,iajb->ij", _G3_W, _G3_W, fn(gx[:, :, None, None], gx[None, None, :, :])
    )
    # cell volume w^2, so <phi, f> = sqrt(w^2) * average = w * average
    return w * avg.reshape(-1)


def _source_coefficients(op, mode: str, rng: np.random.Generator) -> np.ndarray:
    """Source coefficients f over the fine cells for one draw of `mode`."""
    if mode not in SIGNAL_MODES:
        raise BadConfig(f"unknown signal mode {mode!r}; options: {SIGNAL_MODES}")
    n = op.n
    if mode == "random-sphere":
        f = rng.standard_normal(n)
        nf = np.linalg.norm(f)
        return f / nf if nf > 0 else f
    if mode == "smooth-1d":
        if op.dim != 1:
            raise BadConfig("smooth-1d signal needs a one-dimensional operator")
        return _cell_projection_1d(n, _smooth_1d)
    if op.dim != 2:
        raise BadConfig("smooth-2d signal needs a two-dimensional operator")
    return _cell_projection_2d(round(n ** 0.5), _smooth_2d)


def gen_signal(
    sys: GambletSystem,
    op,
    mode: str,
    rng: np.random.Generator | Sequence[np.random.Generator],
    overlap: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Sample a source f and the solution u = solve(sys, O f) of A u = O f.

    sys is transform of op; O defaults to measurement_overlap(sys.hier, op).
    random-sphere draws the source coefficients uniformly from the unit
    Euclidean sphere (the measurement functions are orthonormal, so
    this is the unit sphere of the source space); the smooth modes
    project a fixed formula onto the fine cells by Gauss quadrature.
    Returns (f coefficients over the fine cells, solution vector u).

    rng may also be a sequence of T generators: column k of the (N, T)
    blocks (F, U) then has its f drawn from generator k, and the block
    is solved at once, A U = O F.
    """
    if isinstance(rng, np.random.Generator):
        f = _source_coefficients(op, mode, rng)
    elif len(rng):
        f = np.column_stack([_source_coefficients(op, mode, r) for r in rng])
    else:
        raise BadConfig("gen_signal needs a generator or a non-empty sequence of them")
    if overlap is None:
        overlap = measurement_overlap(sys.hier, op)
    return f, solve(sys, overlap @ f)


def add_noise(u: np.ndarray, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """u plus i.i.d. centered Gaussian noise of standard deviation sigma.

    u must be one (N,) vector, else DimensionMismatch: the trial engine
    draws each column's noise from that trial's own generator.
    """
    _require_finite(sigma=sigma)
    if sigma < 0:
        raise BadConfig(f"sigma must be >= 0, got {sigma}")
    u = np.asarray(u, dtype=float)
    if u.ndim != 1:
        raise DimensionMismatch(f"add_noise takes one (N,) vector, got shape {u.shape}")
    if sigma == 0.0:
        return u.copy()
    return u + sigma * rng.standard_normal(u.shape[0])


def errors(op, u: np.ndarray, v: np.ndarray):
    """(energy-norm, L2-norm) of v - u under the operator's A and mass forms.

    Floats for (N,) vectors; for (N, T) blocks, (T,) arrays of the
    column errors.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape or u.ndim not in (1, 2) or u.shape[0] != op.n:
        raise DimensionMismatch(f"vector shapes {u.shape} and {v.shape} for operator order {op.n}")
    diff = v - u
    return energy_norm(op.A, diff), energy_norm(op.mass, diff)


# ---------------------------------------------------------------------------
# Trial engine.

def _trial_rng(seed: int, stream: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, stream, index]))


def _pde_source(sys: GambletSystem, op, mode: str):
    """Block source of run_trials: gen_signal on the trials' generators, one overlap O for all."""
    overlap = measurement_overlap(sys.hier, op)
    return lambda rngs: gen_signal(sys, op, mode, rngs, overlap)


def _draw_trials(source, sigma: float, seed: int, stream: int, count: int):
    """(F, U, ETA) blocks of `count` trials, trial k in column k.

    Trial k reads the generator keyed by (seed, stream, k): first the
    source draws its f, then the noise, as gen_signal and add_noise
    would on that generator.
    """
    rngs = [_trial_rng(seed, stream, k) for k in range(count)]
    f, u = source(rngs)
    return f, u, np.column_stack([add_noise(u[:, k], sigma, rng) for k, rng in enumerate(rngs)])


def _mean_std(x: np.ndarray) -> tuple[float, float]:
    """Mean and sample STDEV; the STDEV of equal entries is exactly 0."""
    avg = float(np.mean(x))
    std = float(np.std(x - x[0], ddof=1)) if x.size > 1 else 0.0
    return avg, std


def _trial_engine(
    sys: GambletSystem,
    op,
    cfg: DenoiseConfig,
    source,
    scale: np.ndarray,
    n_trials: int,
    seed: int,
    methods,
    tune_size: int,
    t0_grid,
) -> TrialStats:
    """Evaluate the estimators on n_trials draws, all trials as one block.

    source(rngs) returns the (N, T) blocks (F, U) of the clean trials,
    drawing from each generator in turn; the engine adds the noise.
    Shrinkage thresholds are t0 * scale[k] on level k, with t0 tuned over
    t0_grid on tune_size pairs unless cfg.t0 fixes it. Trials come from
    the streams (seed, 0, k) and tuning pairs from (seed, 1, i). The
    noisy block is analyzed once: the level filter reconstructs its
    levels <= l-dagger and each shrinker its rule applied to them.
    """
    if n_trials < 1:
        raise BadConfig(f"n_trials must be >= 1, got {n_trials}")
    if n_trials < 2:
        warnings.warn("statistics over a single trial: STDEV is reported as 0")
    methods = list(METHODS if methods is None else methods)
    for m in methods:
        if m not in METHODS:
            raise BadConfig(f"unknown method {m!r}; options: {METHODS}")

    l_dag = select_level(cfg)
    if l_dag == 0 and "level-filter" in methods:
        warnings.warn("selected level is 0: the level filter returns the zero vector")

    tuned: dict[str, float] = {}
    shrinkers = [m for m in _RULES if m in methods]
    if shrinkers and cfg.t0 is not None:
        tuned = {m: cfg.t0 for m in shrinkers}
    elif shrinkers:
        _, u, eta = _draw_trials(source, cfg.sigma, seed, 1, tune_size)
        cu, ceta = analyze(sys, u).levels, analyze(sys, eta).levels
        tuned = {m: _tune(sys, cu, ceta, t0_grid, scale, _RULES[m]) for m in shrinkers}
        log.info("tuned thresholds: %s", tuned)

    f, u, eta = _draw_trials(source, cfg.sigma, seed, 0, n_trials)
    recs = {}
    if "regularization" in methods:  # first: its eigensolve sets the peak memory, so hold no other block
        recs["regularization"] = regularize(op, eta, cfg.sigma, cfg.confidence).recovered
    c = analyze(sys, eta) if set(methods) - {"regularization"} else None
    for m in methods:
        if m == "level-filter":
            recs[m] = reconstruct(sys, c, upto=l_dag)
        elif m in _RULES:
            recs[m] = reconstruct(sys, _shrink(c, tuned[m] * scale, _RULES[m]))

    stats = {}
    for m in methods:
        energy, l2 = errors(op, u, recs[m])
        stats[m] = MethodStats(*_mean_std(energy), *_mean_std(l2))
    noise_avg, noise_std = _mean_std(energy_norm(op, eta - u))
    return TrialStats(
        methods=methods,
        stats=stats,
        noise_energy_avg=noise_avg,
        noise_energy_std=noise_std,
        n_trials=n_trials,
        seed=seed,
        level=l_dag,
        tuned_t0=tuned,
        first_realization={
            "f": f[:, 0].copy(),
            "u": u[:, 0].copy(),
            "eta": eta[:, 0].copy(),
            "recoveries": {m: recs[m][:, 0].copy() for m in methods},
        },
    )


def run_trials(
    sys: GambletSystem,
    op,
    cfg: DenoiseConfig,
    n_trials: int,
    seed: int,
    methods: tuple[str, ...] | list[str] | None = None,
) -> TrialStats:
    """Evaluate the estimators on n_trials independent signal/noise draws.

    Every method sees the identical (f, zeta) pair within a trial.
    Trial k draws from a child generator keyed by (seed, 0, k), and
    threshold tuning uses a disjoint stream keyed by (seed, 1, i), so
    results are reproducible. All trials are drawn up front and every
    method runs on the (N, n_trials) block at once; shrinkage follows
    threshold_schedule, with t0 tuned over default_threshold_grid on 32
    pairs unless cfg.t0 fixes it.
    """
    return _trial_engine(
        sys, op, cfg, _pde_source(sys, op, cfg.signal), threshold_schedule(cfg, 1.0),
        n_trials, seed, methods, tune_size=32, t0_grid=default_threshold_grid(cfg),
    )
