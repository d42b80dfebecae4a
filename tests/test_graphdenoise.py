"""Scale fitting and the end-to-end graph denoising pipeline."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import gamblets as gb
from gamblets import BadConfig, DimensionMismatch, TooFewLevels, graphdenoise
from gamblets.denoise import select_level
from gamblets.graphdenoise import GRAPH_METHODS, _graph_config, estimate_H_d
from gamblets.numerics import cholesky, solve_spd
from gamblets.operators import make_graph


@pytest.fixture(scope="module")
def est_1d_unit():
    hier = gb.build_dyadic(1, 6)
    op = gb.assemble_fem(gb.coeff_unit(1), hier)
    return estimate_H_d(gb.transform(op, hier))


def test_fitted_scales_match_second_order_1d(est_1d_unit):
    # second-order operator in d = 1: expect H near h^s = 0.5, d_eff near 1
    assert est_1d_unit.H == pytest.approx(0.5650, abs=2e-4)
    assert abs(est_1d_unit.H - 0.5) <= 0.15
    assert est_1d_unit.d_eff == pytest.approx(1.2140, abs=2e-4)
    assert abs(est_1d_unit.d_eff - 1.0) <= 0.3
    assert 0.0 < est_1d_unit.h_from_min < 1.0


def test_fitted_scales_match_second_order_2d():
    hier = gb.build_dyadic(2, 5)
    op = gb.assemble_fem(gb.coeff_2d(), hier)
    est = estimate_H_d(gb.transform(op, hier))
    assert est.d_eff == pytest.approx(2.1696, abs=2e-4)
    assert abs(est.d_eff - 2.0) <= 0.4


def test_top_spectrum_strictly_increasing(est_1d_unit):
    lam = est_1d_unit.lambda_max
    assert len(lam) == 6
    assert all(b > a for a, b in zip(lam, lam[1:]))


def test_estimate_needs_three_levels():
    hier = gb.build_dyadic(1, 2)
    op = gb.assemble_fem(gb.coeff_1d(), hier)
    with pytest.raises(TooFewLevels):
        estimate_H_d(gb.transform(op, hier))


def test_graph_level_rule_reduces_to_standard():
    est = gb.GraphScaleEstimate(
        H=0.5, d_eff=1.0, lambda_max=[], lambda_min=[], h_from_min=0.5
    )
    assert select_level(_graph_config(est, sigma=1e-3, bound=1.0, q=10)) == 3
    assert select_level(_graph_config(est, sigma=0.0, bound=1.0, q=10)) == 10


# ---------------------------------------------------------------------------
# Pipeline on a small grid graph.

def linear_field(coords):
    return coords[:, 0] + 2.0 * coords[:, 1] ** 2


def test_zero_noise_recovers_exactly():
    g = gb.synthetic_grid(8)
    with pytest.warns(UserWarning, match="single trial"):
        out = gb.denoise_graph(g, q=3, sigma=0.0, trials=1, seed=0)
    clean = out.stats.first_realization["u"]
    assert out.stats.level == 3
    assert out.sigma == 0.0
    assert_allclose(out.stats.first_realization["recoveries"]["level-filter"], clean, atol=1e-9)
    for m in GRAPH_METHODS:
        assert out.stats.stats[m].energy_avg < 1e-9
    assert out.stats.noise_energy_avg == 0.0
    assert out.stats.n_trials == 1
    assert out.stats.level == 3

    # the returned clean signal is the grounded solve in vertex order
    op = gb.grounded_laplacian(g)
    f = out.stats.first_realization["f"]
    u = solve_spd(cholesky(op.A), f)
    assert_allclose(clean, u, atol=1e-10)
    assert out.coords.shape == (63, 2)


def test_vector_and_callable_signals_agree():
    g = gb.synthetic_grid(8)
    op = gb.grounded_laplacian(g)
    values = linear_field(op.node_coords)
    with pytest.warns(UserWarning, match="single trial"):
        a = gb.denoise_graph(g, q=3, sigma=0.0, trials=1, signal=linear_field)
    with pytest.warns(UserWarning, match="single trial"):
        b = gb.denoise_graph(g, q=3, sigma=0.0, trials=1, signal=values)
    assert_allclose(a.stats.first_realization["u"], b.stats.first_realization["u"], atol=0)
    recovered = [o.stats.first_realization["recoveries"]["level-filter"] for o in (a, b)]
    assert_allclose(recovered[0], recovered[1], atol=0)


def test_estimate_invariant_under_vertex_relabeling():
    g1 = gb.synthetic_grid(8)
    rng = np.random.default_rng(17)
    perm = rng.permutation(g1.n)
    inv = np.empty(g1.n, dtype=int)
    inv[perm] = np.arange(g1.n)
    g2 = make_graph(g1.coords[perm], inv[g1.edges], ground=int(inv[g1.ground]))
    with pytest.warns(UserWarning, match="single trial"):
        e1 = gb.denoise_graph(g1, q=3, sigma=0.0, trials=1).estimate
    with pytest.warns(UserWarning, match="single trial"):
        e2 = gb.denoise_graph(g2, q=3, sigma=0.0, trials=1).estimate
    assert e1.H == pytest.approx(e2.H, abs=1e-10)
    assert e1.d_eff == pytest.approx(e2.d_eff, abs=1e-10)
    assert_allclose(e1.lambda_max, e2.lambda_max, atol=1e-10)


def test_noisy_trials_report_both_methods():
    g = gb.synthetic_grid(8)
    out = gb.denoise_graph(g, q=3, sigma_rms=0.01, trials=3, seed=1)
    assert out.stats.methods == list(GRAPH_METHODS)
    assert 1 <= out.stats.level < 3  # noisy enough to truncate, not to discard all
    assert out.sigma == pytest.approx(0.01 * np.sqrt(np.mean(out.stats.first_realization["u"] ** 2)))
    assert out.bound == pytest.approx(np.linalg.norm(out.stats.first_realization["f"]))
    assert out.stats.tuned_t0["hard-threshold"] > 0.0
    for m in GRAPH_METHODS:
        s = out.stats.stats[m]
        assert 0.0 < s.energy_avg < np.inf
        assert s.energy_std > 0.0
    rerun = gb.denoise_graph(g, q=3, sigma_rms=0.01, trials=3, seed=1)
    assert rerun.stats.stats == out.stats.stats


def test_graph_warns_when_level_filter_is_zero():
    # the warning comes from the trial engine the pipeline shares with run_trials
    with pytest.warns(UserWarning, match="level filter returns the zero vector"):
        out = gb.denoise_graph(gb.synthetic_grid(8), q=3, sigma_rms=10.0, trials=2, seed=1)
    assert out.stats.level == 0
    assert not out.stats.first_realization["recoveries"]["level-filter"].any()


def test_needs_one_vertex_per_fine_box():
    with pytest.raises(DimensionMismatch, match="larger q"):
        gb.denoise_graph(gb.synthetic_grid(8), q=2, sigma=0.0, trials=2)


def test_pipeline_config_errors():
    g = gb.synthetic_grid(8)
    with pytest.raises(BadConfig):
        gb.denoise_graph(g, q=3, sigma=0.1, trials=0)
    with pytest.raises(BadConfig):
        gb.denoise_graph(g, q=3, trials=2)  # neither sigma nor sigma_rms
    with pytest.raises(BadConfig):
        gb.denoise_graph(g, q=3, sigma=-1.0, trials=2)
    with pytest.raises(DimensionMismatch):
        gb.denoise_graph(g, q=3, sigma=0.1, trials=2, signal=np.ones(4))


@pytest.mark.parametrize(
    "kwargs, field",
    [
        (dict(sigma=np.nan), "sigma"),
        (dict(sigma_rms=np.nan), "sigma_rms"),
        (dict(sigma=0.1, signal=np.full(63, 1e200)), "bound"),  # finite, but bound = |f| overflows
        (dict(sigma=0.1, signal=np.full(63, np.nan)), "signal"),
        (dict(sigma=0.1, signal=lambda xy: xy[:, 0] / (xy[:, 1] > 0)), "signal"),  # inf at y = 0
    ],
)
def test_pipeline_rejects_non_finite_inputs(kwargs, field):
    with np.errstate(divide="ignore", over="ignore"), pytest.raises(BadConfig, match=f"{field} must be finite"):
        gb.denoise_graph(gb.synthetic_grid(8), q=3, trials=2, **kwargs)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(sigma=np.nan), dict(sigma=-1.0), dict(sigma_rms=np.nan), dict(sigma=0.1, trials=0), dict(),
        dict(sigma=0.1, sigma_rms=0.01), dict(sigma_rms=0.0),
    ],
    ids=[
        "sigma-nan", "sigma-negative", "sigma_rms-nan", "trials-0", "no-sigma", "sigma-and-sigma_rms",
        "sigma_rms-0",
    ],
)
def test_pipeline_checks_inputs_before_any_work(monkeypatch, kwargs):
    def transform(*args, **kw):
        raise AssertionError("transform ran before the inputs were checked")

    monkeypatch.setattr(graphdenoise, "transform", transform)
    with pytest.raises(BadConfig):
        gb.denoise_graph(gb.synthetic_grid(8), q=3, **{"trials": 2, **kwargs})
