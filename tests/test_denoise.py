"""Level selection, shrinkage rules, regularization, trial harness."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import gamblets as gb
from gamblets import BadConfig, BadLevel, DenoiseConfig, EmptyGrid, NoBracketWarning, NotSPD
from gamblets.denoise import (
    default_threshold_grid,
    threshold_schedule,
    tune_threshold,
)
from gamblets.operators import measurement_overlap
from gamblets.transform import energy_norm
from conftest import random_spd
from oracles import energy_growth_check


def make_cfg(**kw):
    base = dict(d=1, q=4, sigma=1e-3, bound=1.0)
    base.update(kw)
    return DenoiseConfig(**base)


# ---------------------------------------------------------------------------
# Level selection.

def test_select_level_worked_example():
    cfg = make_cfg(q=10)
    betas = gb.level_betas(cfg)
    assert betas.shape == (11,)
    assert betas[0] == pytest.approx(0.25)
    assert betas[3] == pytest.approx(1e-6 * 8 ** 3 + 0.5 ** 8)
    assert gb.select_level(cfg) == 3


def test_select_level_zero_noise_keeps_everything():
    assert gb.select_level(make_cfg(q=10, sigma=0.0)) == 10


def test_select_level_heavy_noise_keeps_nothing():
    # sigma / M above h^((4s+d)/2) makes even one level unprofitable
    assert gb.select_level(make_cfg(q=10, sigma=0.2)) == 0


def test_select_level_monotone_in_sigma():
    levels = [gb.select_level(make_cfg(q=8, sigma=s)) for s in np.geomspace(1e-6, 1.0, 25)]
    assert all(a >= b for a, b in zip(levels, levels[1:]))


def test_config_validation():
    with pytest.raises(BadConfig):
        make_cfg(sigma=-0.1)
    with pytest.raises(BadConfig):
        make_cfg(q=0)
    with pytest.raises(BadConfig):
        make_cfg(h=1.5)
    with pytest.raises(BadConfig):
        make_cfg(signal="mystery")
    with pytest.raises(BadConfig):
        make_cfg(confidence=1.0)


@pytest.mark.parametrize(
    "field, value",
    [("sigma", np.nan), ("bound", np.inf), ("s", np.nan), ("d", np.nan), ("t0", np.nan)],
)
def test_config_rejects_non_finite(field, value):
    with pytest.raises(BadConfig, match=f"{field} must be finite"):
        make_cfg(**{field: value})


# ---------------------------------------------------------------------------
# Level filter.

def test_level_filter_endpoints(sys_1d_rough_q4):
    y = np.random.default_rng(0).standard_normal(16)
    full = gb.level_filter(sys_1d_rough_q4, y, 4)
    assert np.linalg.norm(full.recovered - y) < 1e-9
    assert full.level == 4
    zero = gb.level_filter(sys_1d_rough_q4, y, 0)
    assert_allclose(zero.recovered, np.zeros(16), atol=1e-14)
    assert zero.energy == 0.0


def test_level_filter_energy_nondecreasing(sys_1d_rough_q4):
    y = np.random.default_rng(1).standard_normal(16)
    energies = [gb.level_filter(sys_1d_rough_q4, y, l).energy for l in range(5)]
    assert all(b >= a - 1e-12 for a, b in zip(energies, energies[1:]))


@pytest.mark.parametrize("l", [-1, 5])
def test_level_filter_rejects_bad_level(sys_1d_rough_q4, l):
    with pytest.raises(BadLevel):
        gb.level_filter(sys_1d_rough_q4, np.zeros(16), l)


# ---------------------------------------------------------------------------
# Thresholding.

def test_threshold_schedule_power_law():
    cfg = make_cfg(q=3)
    assert_allclose(threshold_schedule(cfg, 2.0), [8.0, 32.0, 128.0])


def test_zero_threshold_is_identity(sys_1d_rough_q4):
    y = np.random.default_rng(2).standard_normal(16)
    cfg = make_cfg()
    for fn in (gb.hard_threshold, gb.soft_threshold):
        assert np.linalg.norm(fn(sys_1d_rough_q4, y, 0.0, cfg).recovered - y) < 1e-9


def test_hard_keeps_or_kills(sys_1d_rough_q4):
    """Coefficients above the per-level cut survive untouched, the rest vanish."""
    cfg = make_cfg()
    y = np.random.default_rng(3).standard_normal(16)
    c = gb.analyze(sys_1d_rough_q4, y)
    t0 = float(np.median(np.abs(np.concatenate(c.levels))))
    ts = threshold_schedule(cfg, t0)
    rec = gb.hard_threshold(sys_1d_rough_q4, y, t0, cfg)
    kept = gb.analyze(sys_1d_rough_q4, rec.recovered)
    for k, (lev_in, lev_out) in enumerate(zip(c.levels, kept.levels)):
        for a, b in zip(lev_in, lev_out):
            if abs(a) > ts[k]:
                assert b == pytest.approx(a, abs=1e-9)
            else:
                assert abs(b) < 1e-9


def test_soft_shrinks_toward_zero(sys_1d_rough_q4):
    cfg = make_cfg()
    y = np.random.default_rng(4).standard_normal(16)
    c = gb.analyze(sys_1d_rough_q4, y)
    t0 = 0.01
    ts = threshold_schedule(cfg, t0)
    rec = gb.soft_threshold(sys_1d_rough_q4, y, t0, cfg)
    out = gb.analyze(sys_1d_rough_q4, rec.recovered)
    for k, (lev_in, lev_out) in enumerate(zip(c.levels, out.levels)):
        expected = np.sign(lev_in) * np.maximum(np.abs(lev_in) - ts[k], 0.0)
        assert_allclose(lev_out, expected, atol=1e-9)


def test_default_grid_scales_with_noise():
    grid = default_threshold_grid(make_cfg(sigma=0.01))
    assert grid.shape == (16,)
    assert grid[0] == pytest.approx(1e-2 * 0.01 * 0.25)
    assert grid[-1] == pytest.approx(1e2 * 0.01 * 0.25)
    assert_allclose(default_threshold_grid(make_cfg(sigma=0.0)), [0.0])


def test_tune_threshold_picks_grid_minimizer(sys_1d_rough_q6, op_1d_rough_q6):
    cfg = make_cfg(q=6, sigma=1e-2)
    rng = np.random.default_rng(5)
    overlap = measurement_overlap(sys_1d_rough_q6.hier, op_1d_rough_q6)
    pairs = []
    for _ in range(6):
        _, u = gb.gen_signal(sys_1d_rough_q6, op_1d_rough_q6, "random-sphere", rng, overlap)
        pairs.append((u, gb.add_noise(u, cfg.sigma, rng)))
    grid = default_threshold_grid(cfg)
    t_star = tune_threshold(sys_1d_rough_q6, pairs, grid, cfg)
    assert t_star in grid

    def mean_err(t0):
        total = 0.0
        for u, eta in pairs:
            rec = gb.hard_threshold(sys_1d_rough_q6, eta, t0, cfg)
            total += energy_norm(op_1d_rough_q6, rec.recovered - u)
        return total / len(pairs)

    assert mean_err(t_star) <= mean_err(float(grid[-1])) + 1e-12


def test_tune_threshold_degenerate_cases(sys_1d_rough_q4):
    cfg = make_cfg()
    pairs = [(np.zeros(16), np.zeros(16))]
    assert tune_threshold(sys_1d_rough_q4, pairs, np.array([0.0]), cfg) == 0.0
    with pytest.raises(EmptyGrid):
        tune_threshold(sys_1d_rough_q4, pairs, np.array([]), cfg)
    with pytest.raises(EmptyGrid):
        tune_threshold(sys_1d_rough_q4, [], np.array([1.0]), cfg)
    with pytest.raises(BadConfig):
        tune_threshold(sys_1d_rough_q4, pairs, np.array([1.0]), cfg, kind="fuzzy")


# ---------------------------------------------------------------------------
# Regularization.

def test_regularize_closed_form_identity():
    y = np.array([2.0, 0.0, 0.0])
    res = gb.regularize(np.eye(3), y, sigma=1.0, gamma=1.0)
    assert res.alpha == pytest.approx(1.0, abs=1e-6)
    assert_allclose(res.recovered, y / 2, atol=1e-9)
    assert res.gamma == 1.0


def test_regularize_inside_ball_returns_zero():
    y = np.array([0.3, 0.4])
    res = gb.regularize(np.eye(2), y, sigma=1.0, gamma=2.0)
    assert_allclose(res.recovered, np.zeros(2))
    assert res.alpha is None


def test_regularize_stationarity_random_spd():
    a = random_spd(10, 12)
    y = np.random.default_rng(13).standard_normal(10) * 5
    res = gb.regularize(a, y, sigma=0.05)
    g = np.linalg.norm(res.recovered - y)
    assert abs(g - res.gamma) <= 1e-10 * res.gamma
    assert np.linalg.norm((res.recovered - y) + res.alpha * (a @ res.recovered)) <= 1e-8


def test_regularize_never_increases_energy():
    a = random_spd(8, 14)
    y = np.random.default_rng(15).standard_normal(8) * 3
    res = gb.regularize(a, y, sigma=0.1)
    assert res.recovered @ a @ res.recovered <= y @ a @ y + 1e-10


def test_regularize_zero_noise_returns_signal():
    y = np.array([1.0, -2.0])
    res = gb.regularize(np.eye(2), y, sigma=0.0)
    assert_allclose(res.recovered, y)


def test_regularize_warns_when_constraint_unreachable():
    # singular PSD matrix: the recovery can only remove the range component,
    # so gamma above that residual is unreachable
    a = np.diag([0.0, 1.0])
    y = np.array([3.0, 4.0])
    with pytest.warns(NoBracketWarning):
        res = gb.regularize(a, y, sigma=1.0, gamma=4.5)
    assert_allclose(res.recovered, [3.0, 0.0], atol=1e-4)


def test_regularize_refuses_indefinite_operator():
    """An indefinite A has no energy minimum in the ball; a singular semidefinite one does."""
    y = np.full(3, 3.0)
    with pytest.raises(NotSPD, match="indefinite"):
        gb.regularize(np.diag([2.0, -1.0, 0.5]), y, sigma=0.1)
    res = gb.regularize(np.diag([2.0, 0.0, 0.5]), y, sigma=0.1)
    assert 0.0 < res.alpha < np.inf
    assert abs(np.linalg.norm(res.recovered - y) - res.gamma) <= 1e-10 * res.gamma


# ---------------------------------------------------------------------------
# Signals and noise.

def test_random_sphere_signal_normalized(sys_1d_rough_q6, op_1d_rough_q6):
    overlap = measurement_overlap(sys_1d_rough_q6.hier, op_1d_rough_q6)
    rng = np.random.default_rng(6)
    f, u = gb.gen_signal(sys_1d_rough_q6, op_1d_rough_q6, "random-sphere", rng, overlap)
    assert np.linalg.norm(f) == pytest.approx(1.0)
    assert np.linalg.norm(op_1d_rough_q6.A @ u - overlap @ f) < 1e-10


def test_smooth_signal_first_cell(sys_1d_rough_q6, op_1d_rough_q6):
    # the 1d source formula starts at height pi at the origin
    overlap = measurement_overlap(sys_1d_rough_q6.hier, op_1d_rough_q6)
    rng = np.random.default_rng(7)
    f, _ = gb.gen_signal(sys_1d_rough_q6, op_1d_rough_q6, "smooth-1d", rng, overlap)
    assert f[0] == pytest.approx(np.sqrt(1 / 64) * np.pi, rel=1e-3)
    f2, _ = gb.gen_signal(sys_1d_rough_q6, op_1d_rough_q6, "smooth-1d", rng, overlap)
    assert_allclose(f, f2, atol=0)  # deterministic: rng unused


def test_smooth_2d_signal(sys_2d_rough_q3, op_2d_rough_q3):
    f, u = gb.gen_signal(sys_2d_rough_q3, op_2d_rough_q3, "smooth-2d", np.random.default_rng(8))
    assert f.shape == (64,)
    assert np.linalg.norm(u) > 0


def test_gen_signal_rejects_unknown_mode(sys_1d_rough_q4, op_1d_rough_q4):
    with pytest.raises(BadConfig):
        gb.gen_signal(sys_1d_rough_q4, op_1d_rough_q4, "triangle", np.random.default_rng(0))


def test_gen_signal_block_needs_a_generator(sys_1d_rough_q4, op_1d_rough_q4):
    with pytest.raises(BadConfig, match="non-empty sequence"):
        gb.gen_signal(sys_1d_rough_q4, op_1d_rough_q4, "random-sphere", [])


def test_add_noise_statistics():
    rng = np.random.default_rng(9)
    u = np.zeros(10_000)
    eta = gb.add_noise(u, 0.5, rng)
    assert np.std(eta) == pytest.approx(0.5, rel=0.05)
    assert_allclose(gb.add_noise(u, 0.0, rng), u, atol=0)


@pytest.mark.parametrize("shape", [(16, 16), (16, 3)])
def test_add_noise_refuses_blocks(shape):
    # each trial's noise comes from its own generator, so a block has no one right answer
    with pytest.raises(gb.DimensionMismatch, match="one \\(N,\\) vector"):
        gb.add_noise(np.zeros(shape), 0.1, np.random.default_rng(0))


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda sys, op, y: gb.regularize(op, y, sigma=np.nan), "sigma"),
        (lambda sys, op, y: gb.regularize(op, y, 0.1, gamma=np.nan), "gamma"),
        (lambda sys, op, y: gb.regularize(op, y, 0.1, gamma=np.inf), "gamma"),
        (lambda sys, op, y: gb.add_noise(y, np.nan, np.random.default_rng(0)), "sigma"),
        (lambda sys, op, y: gb.hard_threshold(sys, y, np.nan, make_cfg()), "thresholds"),
        (lambda sys, op, y: gb.soft_threshold(sys, y, np.nan, make_cfg()), "thresholds"),
        (lambda sys, op, y: gb.soft_threshold(sys, y, np.inf, make_cfg()), "thresholds"),
    ],
    ids=["regularize-sigma", "regularize-gamma", "regularize-gamma-inf", "add_noise",
         "hard_threshold", "soft_threshold", "soft_threshold-inf"],
)
def test_non_finite_scalars_are_refused(sys_1d_rough_q4, op_1d_rough_q4, call, name):
    y = np.random.default_rng(12).standard_normal(16)
    with pytest.raises(BadConfig, match=f"{name} must be finite"):
        call(sys_1d_rough_q4, op_1d_rough_q4, y)


def test_errors_identities(op_1d_rough_q4):
    u = np.random.default_rng(10).standard_normal(16)
    assert gb.errors(op_1d_rough_q4, u, u) == (0.0, 0.0)
    e, l2 = gb.errors(op_1d_rough_q4, u, np.zeros(16))
    assert e == pytest.approx(np.sqrt(u @ op_1d_rough_q4.A @ u))
    assert l2 == pytest.approx(np.sqrt(u @ op_1d_rough_q4.mass @ u))


# ---------------------------------------------------------------------------
# Trial harness.

def test_run_trials_deterministic(sys_1d_rough_q4, op_1d_rough_q4):
    cfg = make_cfg()
    a = gb.run_trials(sys_1d_rough_q4, op_1d_rough_q4, cfg, 4, seed=42)
    b = gb.run_trials(sys_1d_rough_q4, op_1d_rough_q4, cfg, 4, seed=42)
    assert a.stats == b.stats
    assert a.tuned_t0 == b.tuned_t0


def test_run_trials_zero_noise_recovers_exactly(sys_1d_rough_q4, op_1d_rough_q4):
    cfg = make_cfg(sigma=0.0)
    stats = gb.run_trials(sys_1d_rough_q4, op_1d_rough_q4, cfg, 3, seed=1)
    assert stats.level == 4
    for m in stats.methods:
        assert stats.stats[m].energy_avg < 1e-9
        assert stats.stats[m].l2_avg < 1e-9
    assert stats.noise_energy_avg == 0.0


def test_run_trials_single_trial_warns(sys_1d_rough_q4, op_1d_rough_q4):
    with pytest.warns(UserWarning, match="single trial"):
        stats = gb.run_trials(sys_1d_rough_q4, op_1d_rough_q4, make_cfg(), 1, seed=0)
    assert stats.stats["level-filter"].energy_std == 0.0


def test_run_trials_records_realization(sys_1d_rough_q4, op_1d_rough_q4):
    stats = gb.run_trials(sys_1d_rough_q4, op_1d_rough_q4, make_cfg(), 2, seed=3)
    first = stats.first_realization
    assert first is not None
    assert set(first) >= {"f", "u", "eta", "recoveries"}
    assert first["u"].shape == (16,)
    assert set(first["recoveries"]) == set(stats.methods)
    assert stats.n_trials == 2
    assert "level" not in first  # the level is stats.level
    assert stats.level == gb.select_level(make_cfg())


def test_run_trials_warns_when_level_filter_is_zero(sys_1d_rough_q6, op_1d_rough_q6):
    # the config test_energy_growth_needs_a_level rejects: sigma = 0.9 selects l = 0
    cfg = make_cfg(q=6, sigma=0.9)
    with pytest.warns(UserWarning, match="level filter returns the zero vector"):
        stats = gb.run_trials(sys_1d_rough_q6, op_1d_rough_q6, cfg, 3, seed=0)
    assert stats.level == 0
    first = stats.first_realization
    assert not first["recoveries"]["level-filter"].any()
    assert stats.stats["level-filter"].energy_avg > 0.0


def test_run_trials_rejects_unknown_method(sys_1d_rough_q4, op_1d_rough_q4):
    with pytest.raises(BadConfig):
        gb.run_trials(sys_1d_rough_q4, op_1d_rough_q4, make_cfg(), 2, seed=0, methods=["magic"])


def test_run_trials_method_subset(sys_1d_rough_q4, op_1d_rough_q4):
    stats = gb.run_trials(
        sys_1d_rough_q4, op_1d_rough_q4, make_cfg(), 2, seed=5, methods=["level-filter"]
    )
    assert stats.methods == ["level-filter"]
    assert set(stats.stats) == {"level-filter"}


def test_fixed_t0_skips_tuning(sys_1d_rough_q4, op_1d_rough_q4):
    cfg = make_cfg(t0=1e-4)
    stats = gb.run_trials(sys_1d_rough_q4, op_1d_rough_q4, cfg, 2, seed=6)
    assert stats.tuned_t0["hard-threshold"] == 1e-4
    assert stats.tuned_t0["soft-threshold"] == 1e-4


# ---------------------------------------------------------------------------
# Energy growth statistic.

def test_energy_growth_triangle_bound(sys_1d_rough_q6, op_1d_rough_q6):
    cfg = make_cfg(q=6, sigma=1e-4)  # selects an interior level
    samples = energy_growth_check(sys_1d_rough_q6, op_1d_rough_q6, cfg, 20, seed=2)
    assert samples.shape == (20, 3)
    # triangle inequality per trial: |filtered eta| <= |u| + |filtered zeta|
    assert np.all(samples[:, 0] <= samples[:, 1] + samples[:, 2] + 1e-10)


def test_energy_growth_zero_noise_never_positive(sys_1d_rough_q6, op_1d_rough_q6):
    # sigma = 0 keeps every level, and reconstruction is then exact
    samples = energy_growth_check(sys_1d_rough_q6, op_1d_rough_q6, make_cfg(q=6, sigma=0.0), 5, seed=0)
    assert np.quantile(samples[:, 0] - samples[:, 1], 0.95) <= 1e-12
