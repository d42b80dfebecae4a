"""Acceptance gate: the eleven product-level checks, one test per criterion.

Every test prints a `criterion N: PASS/FAIL - <measured values>` line
before asserting, so the run log carries the numbers either way. The
bands and tolerances are fixed here on purpose; a red criterion means
the implementation does not reach the stated target, not that the
target moved.

Criteria 4, 7b and 10 check what the method promises:

* 4 bounds lambda_min >= 1 - 1e-8 on every diagonal (per-level) block
  of the noise Gram Z, measured 1.0000-1.0076; the full Z is not
  bounded by 1 (lambda_min 0.468 in 1D, 0.596 in 2D).
* 7b requires l-dagger to be the best truncation level on the
  run_trials draws and the level filter's AVG to be within 1.1 times
  the best of the four methods (measured 1.031 in 1D, 1.045 in 2D).
* 10 compares the 95% quantile of the noise pickup at sigma and
  sigma h^((4s+d)/2), where l-dagger steps by exactly one (3 -> 4),
  and reports the ratio per halving of sigma (measured 0.725).

Criterion 11b is red: the d_eff fit assumes log lambda_max(B^(k)) is
linear in k, but on the 32x32 grid the per-level ratios are 9.47,
4.58, 2.93, 2.02 (continuum 4) because lambda_max(B^(5)) = 7.98 sits
at the Laplacian's ceiling 2 max-degree = 8. The same fit gives
d_eff = 3.54 on the 2D unit-coefficient FEM. See README.
"""

import time

import numpy as np
import pytest

import gamblets as gb
from gamblets.numerics import cholesky, extreme_eigs, solve_spd
from gamblets.transform import coefficient_energies, energy_norm
from conftest import random_spd
from oracles import chi_fine, energy_growth_check, oracle_transform, phi_chi_fine, z_matrix


def report(tag: str, ok: bool, detail: str) -> str:
    line = f"criterion {tag}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    return line


# ---------------------------------------------------------------------------
# Shared expensive systems.

@pytest.fixture(scope="module")
def pde_1d_q8():
    hier = gb.build_dyadic(1, 8)
    op = gb.assemble_fem(gb.coeff_1d(), hier)
    return op, gb.transform(op, hier)


@pytest.fixture(scope="module")
def pde_2d_q4():
    hier = gb.build_dyadic(2, 4)
    op = gb.assemble_fem(gb.coeff_2d(), hier)
    return op, gb.transform(op, hier)


@pytest.fixture(scope="module")
def table_1d():
    """300-trial estimator comparison, 1D, q = 10, sigma = 1e-3, seed 1.

    Returns (stats, elapsed seconds, (sys, op, cfg)).
    """
    start = time.monotonic()
    hier = gb.build_dyadic(1, 10)
    op = gb.assemble_fem(gb.coeff_1d(), hier)
    sys = gb.transform(op, hier)
    cfg = gb.DenoiseConfig(d=1, q=10, sigma=1e-3, bound=1.0)
    stats = gb.run_trials(sys, op, cfg, 300, seed=1)
    return stats, time.monotonic() - start, (sys, op, cfg)


@pytest.fixture(scope="module")
def table_2d():
    """300-trial estimator comparison, 2D, q = 5, sigma = 1e-3, seed 1.

    Returns (stats, (sys, op, cfg)).
    """
    hier = gb.build_dyadic(2, 5)
    op = gb.assemble_fem(gb.coeff_2d(), hier)
    sys = gb.transform(op, hier)
    cfg = gb.DenoiseConfig(d=2, q=5, sigma=1e-3, bound=1.0)
    return gb.run_trials(sys, op, cfg, 300, seed=1), (sys, op, cfg)


def level_error_avgs(sys, op, cfg, n_trials: int, seed: int) -> np.ndarray:
    """Level-filter energy-error AVG at every l = 0..q on the run_trials draws.

    Trial k redraws (u, eta) from the stream SeedSequence([seed, 0, k])
    exactly as run_trials does: one block gen_signal call, then the
    noise per trial. The wavelet levels are A-orthogonal, so the squared
    error at level l is the B-energy of levels <= l of c(eta - u) plus
    the B-energy of levels > l of c(u).
    """
    rngs = [np.random.default_rng(np.random.SeedSequence([seed, 0, k])) for k in range(n_trials)]
    _, u = gb.gen_signal(sys, op, cfg.signal, rngs)
    zeta = np.column_stack([gb.add_noise(u[:, k], cfg.sigma, rng) for k, rng in enumerate(rngs)]) - u
    picked = np.cumsum(coefficient_energies(sys, gb.analyze(sys, zeta)), axis=0)
    lost = np.cumsum(coefficient_energies(sys, gb.analyze(sys, u))[::-1], axis=0)[::-1]
    zero = np.zeros((1, n_trials))
    err = np.sqrt(np.maximum(np.vstack([zero, picked]) + np.vstack([lost, zero]), 0.0))
    return err.mean(axis=1)


@pytest.fixture(scope="module")
def grid_graph_run():
    """32x32 grid graph, q = 5, sigma at 10x the signal RMS, 20 trials.

    At that noise level the selected level is 0, and 0 is also the best
    level, so the engine's warning is expected.
    """
    with pytest.warns(UserWarning, match="selected level is 0"):
        return gb.denoise_graph(gb.synthetic_grid(32), q=5, sigma_rms=10.0, trials=20, seed=3)


# ---------------------------------------------------------------------------
# Criteria.

def test_criterion_01_transform_matches_oracle():
    start = time.monotonic()
    configs = [(1, c, q) for c in ("unit", "rough") for q in (3, 4, 5)]
    configs += [(2, c, q) for c in ("unit", "rough") for q in (2, 3)]
    worst = 0.0
    for dim, coeff, q in configs:
        hier = gb.build_dyadic(dim, q)
        if coeff == "unit":
            field = gb.coeff_unit(dim)
        else:
            field = gb.coeff_1d() if dim == 1 else gb.coeff_2d()
        op = gb.assemble_fem(field, hier)
        got = gb.transform(op, hier)
        want = oracle_transform(op, hier)
        for k in range(1, q + 1):
            worst = max(worst, float(np.linalg.norm(got.a_of(k) - want.a_of(k))))
            worst = max(worst, float(np.linalg.norm(got.b_of(k) - want.b_of(k))))
    elapsed = time.monotonic() - start
    ok = worst < 1e-8 and elapsed < 30.0
    detail = f"max Frobenius deviation {worst:.3e} (< 1e-8), {elapsed:.1f}s (< 30s)"
    assert ok, report("1", ok, detail)
    report("1", ok, detail)


def test_criterion_02_biorthogonality_and_round_trip(sys_1d_rough_q4, sys_1d_rough_q6, sys_2d_rough_q3):
    pair_dev = 0.0
    for k in range(1, 5):
        for l in range(1, 5):
            pair = phi_chi_fine(sys_1d_rough_q4, k) @ chi_fine(sys_1d_rough_q4, l).T
            target = np.eye(pair.shape[0]) if k == l else np.zeros(pair.shape)
            pair_dev = max(pair_dev, float(np.abs(pair - target).max()))
    rt_dev = 0.0
    rng = np.random.default_rng(2024)
    for sys in (sys_1d_rough_q6, sys_2d_rough_q3):
        for _ in range(100):
            y = rng.standard_normal(sys.n_fine)
            back = gb.reconstruct(sys, gb.analyze(sys, y))
            rt_dev = max(rt_dev, float(np.abs(back - y).max()))
    ok = pair_dev < 1e-8 and rt_dev < 1e-9
    detail = f"dual pairing deviation {pair_dev:.3e} (< 1e-8), round-trip deviation {rt_dev:.3e} (< 1e-9)"
    assert ok, report("2", ok, detail)
    report("2", ok, detail)


def test_criterion_03_multilevel_solve(pde_1d_q8, pde_2d_q4):
    worst = 0.0
    for op, sys in (pde_1d_q8, pde_2d_q4):
        f = np.random.default_rng(31).standard_normal(op.n)
        x = gb.solve(sys, f)
        want = solve_spd(cholesky(op.A), f)
        rel = energy_norm(op, x - want) / energy_norm(op, want)
        worst = max(worst, rel)
    ok = worst < 1e-9
    detail = f"max relative energy error {worst:.3e} (< 1e-9)"
    assert ok, report("3", ok, detail)
    report("3", ok, detail)


def test_criterion_04_noise_gram_lower_bound(sys_2d_rough_q3):
    """Within one level the dual coefficients never shrink white noise.

    W N = I and W W^T = I give |x| = |W N x| <= |N x|, so every diagonal
    block N^(k),T N^(k) of the noise Gram Z is >= I. The bound is per
    level only: the cross-level blocks pull the full Z's lambda_min below
    1 (0.468 in 1D, 0.596 in 2D; Z = I for the identity operator but not
    in general), which the detail line prints for reference.
    """
    hier = gb.build_dyadic(1, 5)
    sys_1d = gb.transform(gb.assemble_fem(gb.coeff_1d(), hier), hier)
    ok = True
    lines = []
    for label, sys in (("1D", sys_1d), ("2D", sys_2d_rough_q3)):
        z = z_matrix(sys)
        offs = np.cumsum([0] + sys.hier.j_sizes)
        block_min = [extreme_eigs(z[a:b, a:b])[0] for a, b in zip(offs, offs[1:])]
        lo, hi = extreme_eigs(z)
        ok = ok and min(block_min) >= 1.0 - 1e-8 and np.isfinite(hi)
        lines.append(
            f"{label}: per-level lambda_min " + ", ".join(f"{v:.4f}" for v in block_min)
            + f"; full Z lambda_min {lo:.4f}, lambda_max {hi:.4f}"
        )
    detail = "; ".join(lines) + " (per-level lambda_min >= 1 - 1e-8, finite lambda_max required)"
    assert ok, report("4", ok, detail)
    report("4", ok, detail)


def test_criterion_05_uniform_conditioning(pde_1d_q8):
    start = time.monotonic()
    op, sys = pde_1d_q8
    conds = []
    for k in range(1, 9):
        lo, hi = extreme_eigs(sys.b_of(k))
        conds.append(hi / lo)
    b_ratio = max(conds) / min(conds)
    lo1, hi1 = extreme_eigs(sys.a_of(1))
    loq, hiq = extreme_eigs(sys.a_of(8))
    a_ratio = (hiq / loq) / (hi1 / lo1)
    elapsed = time.monotonic() - start
    ok = b_ratio < 10.0 and a_ratio > 100.0 and elapsed < 60.0
    detail = (
        f"detail-block conditioning spread {b_ratio:.2f} (< 10), "
        f"raw conditioning growth {a_ratio:.0f} (> 100), {elapsed:.1f}s (< 60s)"
    )
    assert ok, report("5", ok, detail)
    report("5", ok, detail)


def test_criterion_06_approximation_rate(pde_1d_q8):
    op, sys = pde_1d_q8
    _, u = gb.gen_signal(sys, op, "smooth-1d", np.random.default_rng(0))
    c = gb.analyze(sys, u)
    errs = [energy_norm(op, u - gb.reconstruct(sys, c, upto=k)) for k in range(3, 8)]
    ratios = [b / a for a, b in zip(errs, errs[1:])]
    ok = all(0.125 <= r <= 2 * 0.5 for r in ratios)
    detail = "successive error ratios " + ", ".join(f"{r:.4f}" for r in ratios) + " (in [0.125, 1.0])"
    assert ok, report("6", ok, detail)
    report("6", ok, detail)


def test_criterion_07a_level_filter_error_band(table_1d):
    stats, elapsed, _ = table_1d
    avg = stats.stats["level-filter"].energy_avg
    ok = 2.9e-3 <= avg <= 4.9e-3 and elapsed < 1200.0
    detail = f"level-filter energy error AVG {avg:.4e} (in [2.9e-3, 4.9e-3]), {elapsed:.0f}s (< 1200s)"
    assert ok, report("7a", ok, detail)
    report("7a", ok, detail)


def test_criterion_07b_level_filter_is_best(table_1d, table_2d):
    """l-dagger is the best truncation level, and near-optimal among the methods.

    Near-minimax optimality holds up to a multiplicative constant, so the
    level filter need not beat oracle-tuned shrinkage: measured, soft
    thresholding wins in 1D and regularization in 2D, by 3.1% and 4.5%.
    Keeping one level more or fewer than l-dagger costs 21-58% against
    the best method, so the factor 1.1 still catches a misplaced level.
    """
    stats_1d, _, run_1d = table_1d
    stats_2d, run_2d = table_2d
    lines = []
    ok = True
    for label, stats, run in (("1D", stats_1d, run_1d), ("2D", stats_2d, run_2d)):
        per_level = level_error_avgs(*run, stats.n_trials, stats.seed)
        avgs = {m: stats.stats[m].energy_avg for m in stats.methods}
        best = min(avgs, key=avgs.get)
        ratio = avgs["level-filter"] / avgs[best]
        best_level = int(np.argmin(per_level))
        same_draws = np.isclose(per_level[stats.level], avgs["level-filter"], rtol=1e-9, atol=0.0)
        ok = ok and same_draws and best_level == stats.level and ratio <= 1.1
        lines.append(
            f"{label}: per-level AVG " + ", ".join(f"{v:.3e}" for v in per_level)
            + f" -> best level {best_level} (l-dagger {stats.level}); "
            + ", ".join(f"{m} {v:.4e}" for m, v in avgs.items())
            + f" -> level-filter / {best} {ratio:.3f} (<= 1.1)"
        )
    detail = "; ".join(lines)
    assert ok, report("7b", ok, detail)
    report("7b", ok, detail)


def test_criterion_07c_noise_level_band(table_1d):
    stats, _, _ = table_1d
    avg = stats.noise_energy_avg
    ok = 1.5 <= avg <= 1.9
    detail = f"noise energy-norm AVG {avg:.4f} (in [1.5, 1.9])"
    assert ok, report("7c", ok, detail)
    report("7c", ok, detail)


def test_criterion_08_level_choice_boundaries():
    full = gb.select_level(gb.DenoiseConfig(d=1, q=10, sigma=0.0, bound=1.0))
    none = gb.select_level(gb.DenoiseConfig(d=1, q=10, sigma=0.2, bound=1.0))
    cfg = gb.DenoiseConfig(d=1, q=10, sigma=1e-3, bound=1.0)
    chosen = gb.select_level(cfg)
    # independent direct evaluation of the balance argument
    h, s, d, m2, s2 = 0.5, 1.0, 1, 1.0, 1e-6
    direct = [h ** (2 * s) * m2]
    direct += [s2 * h ** (-(2 * s + d) * l) + h ** (2 * s * (l + 1)) * m2 for l in range(1, 10)]
    direct.append(s2 * h ** (-(2 * s + d) * 10))
    want = int(np.argmin(direct))
    ok = full == 10 and none == 0 and chosen == want == 3
    detail = f"sigma=0 -> {full} (=q), sigma=0.2 -> {none} (=0), worked example -> {chosen} (direct {want}, =3)"
    assert ok, report("8", ok, detail)
    report("8", ok, detail)


def test_criterion_09_regularizer_stationarity():
    worst_gap, worst_res = 0.0, 0.0
    for i in range(25):
        seed = 1000 + i
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 65))
        a = random_spd(n, seed)
        y = rng.standard_normal(n) * 5.0
        res = gb.regularize(a, y, sigma=0.1)
        assert res.alpha is not None
        gap = abs(np.linalg.norm(res.recovered - y) - res.gamma) / res.gamma
        resid = np.linalg.norm((res.recovered - y) + res.alpha * (a @ res.recovered))
        worst_gap = max(worst_gap, gap)
        worst_res = max(worst_res, resid)
    ok = worst_gap <= 1e-10 and worst_res <= 1e-8
    detail = f"25 systems: max |g - gamma|/gamma {worst_gap:.2e} (<= 1e-10), max stationarity residual {worst_res:.2e} (<= 1e-8)"
    assert ok, report("9", ok, detail)
    report("9", ok, detail)


def test_criterion_10_noise_scaling_exponent(pde_1d_q8):
    """The level filter's noise pickup shrinks like a power of sigma.

    The statistic is the 95% quantile of the pickup |level_filter(zeta)|_A
    (column 2 of energy_growth_check's samples), which bounds the excess
    |v|_A - |u|_A by the triangle inequality. The excess itself is the
    pickup minus the truncation loss and changes sign inside the range
    (9.0e-5 at sigma = 1e-3, -1.7e-4 at 1.77e-4), so it has no power law.
    The two noise levels are sigma and sigma' = sigma h^((4s+d)/2): then
    beta_{l+1}(sigma') = h^(2s) beta_l(sigma), so l-dagger steps by
    exactly one and the pair does not straddle part of a step (sigma and
    sigma/2 would: l-dagger goes 3 -> 4 between them). The ratio is
    reported per halving of sigma, ratio^(2/(4s+d)).

    Nothing in the repository derives the band centre 2^-0.6 (PAPER.md
    holds only the abstract). The beta balance gives the exponent
    2s/(4s+d) = 0.4, and 2^-0.4 = 0.758 also lies inside the band.
    """
    op, sys = pde_1d_q8
    h, s, d = 0.5, 1.0, 1
    sigmas = (1e-3, 1e-3 * h ** ((4 * s + d) / 2))
    levels, qv = [], []
    for sigma in sigmas:
        cfg = gb.DenoiseConfig(d=d, q=8, sigma=sigma, bound=1.0, h=h, s=s)
        samples = energy_growth_check(sys, op, cfg, 300, seed=7)
        levels.append(gb.select_level(cfg))
        qv.append(float(np.quantile(samples[:, 2], 0.95)))
    ratio = (qv[1] / qv[0]) ** (2 / (4 * s + d))
    target = 2.0 ** (-0.6)
    ok = levels[1] == levels[0] + 1 and 0.65 * target <= ratio <= 1.35 * target
    detail = (
        f"pickup quantiles {qv[0]:.3e} (sigma {sigmas[0]:.3e}, level {levels[0]}) and "
        f"{qv[1]:.3e} (sigma {sigmas[1]:.3e}, level {levels[1]}; one level up required), "
        f"per-halving ratio {ratio:.4f} (target {target:.4f} +- 35%)"
    )
    assert ok, report("10", ok, detail)
    report("10", ok, detail)


def test_criterion_11a_graph_recovery_beats_noise(grid_graph_run):
    out = grid_graph_run
    rec = out.stats.stats["level-filter"].energy_avg
    noise = out.stats.noise_energy_avg
    ok = rec < noise
    detail = f"level-filter energy error AVG {rec:.4e} < noise AVG {noise:.4e} (level {out.stats.level})"
    assert ok, report("11a", ok, detail)
    report("11a", ok, detail)


def test_criterion_11b_graph_effective_dimension(grid_graph_run):
    est = grid_graph_run.estimate
    ratios = np.divide(est.lambda_max[1:], est.lambda_max[:-1])
    ok = 1.6 <= est.d_eff <= 2.4
    detail = (
        f"d_eff {est.d_eff:.4f} (in [1.6, 2.4]), H {est.H:.4f}; per-level lambda_max(B^(k)) ratios "
        + ", ".join(f"{r:.2f}" for r in ratios) + " (continuum 4)"
    )
    assert ok, report("11b", ok, detail)
    report("11b", ok, detail)
