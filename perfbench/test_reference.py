"""Tests of the benchmark's own references and checks, on small cases.

Run from the root of the repository:
    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import os

import numpy as np
import pytest

import gamblets as gb

import reference as ref
import run
import tracing
import workloads as wl

TOL = 1e-11  # the projection matches level_filter to <= 4.4e-13 on these cases


def _grid_system(n: int, q: int):
    """The graph pipeline's system for the n x n grid, and the vertex -> box map."""
    op = gb.grounded_laplacian(gb.synthetic_grid(n))
    hier = gb.build_from_points(op.node_coords, q)
    p = hier.point_fine_label
    inv = np.empty(op.n, dtype=int)
    inv[p] = np.arange(op.n)
    return op, gb.transform(op.A[np.ix_(inv, inv)], hier), p, inv


def _rel(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300)


@pytest.mark.parametrize("dim,q,coeff", [(1, 8, gb.coeff_1d), (2, 4, gb.coeff_2d)])
def test_projection_reproduces_level_filter_pde(dim, q, coeff):
    hier = gb.build_dyadic(dim, q)
    op = gb.assemble_fem(coeff(), hier)
    system = gb.transform(op, hier)
    fac = ref.factor(op.A)
    eta = np.random.default_rng(0).standard_normal(op.n)
    for l in range(q + 1):
        want = gb.level_filter(system, eta, l).recovered
        got = ref.projection(fac, ref.dyadic_measurements(dim, q, l), eta)
        assert _rel(got, want) <= TOL if l else not got.any() and not want.any()


def test_projection_reproduces_level_filter_grid():
    op, system, p, inv = _grid_system(32, 5)
    fac = ref.factor(op.A)
    eta = np.random.default_rng(1).standard_normal(op.n)
    for l in range(1, 6):
        want = gb.level_filter(system, eta[inv], l).recovered[p]
        got = ref.projection(fac, ref.point_measurements(op.node_coords, l), eta)
        assert _rel(got, want) <= TOL


def test_beta_argmin_matches_select_level():
    assert ref.level_choice(1e-3, 1.0, 0.5, 1.0, 1.0, 10) == 3
    for d, q, sigma, bound, h in [(1, 10, 1e-3, 1.0, 0.5), (2, 6, 1e-2, 1.0, 0.5), (2.525, 5, 648.8, 33.05, 0.5776)]:
        cfg = gb.DenoiseConfig(d=d, q=q, sigma=sigma, bound=bound, h=h, s=1.0)
        np.testing.assert_allclose(ref.level_betas(sigma, bound, h, 1.0, d, q), gb.level_betas(cfg), rtol=1e-14)
        assert ref.level_choice(sigma, bound, h, 1.0, d, q) == gb.select_level(cfg)


def test_grid_laplacian_matches_grounded_laplacian():
    A, coords, max_degree = ref.grid_laplacian(32)
    op = gb.grounded_laplacian(gb.synthetic_grid(32))
    assert np.array_equal(A, op.A)
    assert np.array_equal(coords, op.node_coords)
    assert max_degree == 4


def _failed(checks):
    return {name for name, ok, _ in checks if not ok}


def test_pde1d_checks_reject_neighbouring_levels():
    w = wl.Pde1dMonteCarlo(seed=0, run_dir="unused")
    hier = gb.build_dyadic(1, w.q)
    op = gb.assemble_fem(gb.coeff_1d(), hier)
    system = gb.transform(op, hier)
    fac = ref.factor(op.A)
    l_dag = ref.level_choice(w.sigma, w.bound, 0.5, 1.0, 1.0, w.q)
    phi = ref.dyadic_measurements(1, w.q, l_dag)
    rng = np.random.default_rng(2)
    b, y = rng.standard_normal(op.n), rng.standard_normal(op.n)
    eta = gb.solve(system, rng.standard_normal(op.n)) + 1e-3 * rng.standard_normal(op.n)
    stats = {m: {"energy_avg": 0.1} for m in gb.METHODS}
    for level in (l_dag - 1, l_dag, l_dag + 1):
        kept = {
            "manifest": {"level": level, "methods": list(gb.METHODS), "stats": stats, "noise_energy_avg": 1.0},
            "real": {"eta": eta, "recovery": gb.level_filter(system, eta, level).recovered},
            "b": b, "x": gb.solve(system, b), "y": y,
            "back": gb.reconstruct(system, gb.analyze(system, y)),
        }
        failed = _failed(w._check_one(kept, op.A, fac, l_dag, phi))
        want = set() if level == l_dag else {"level-is-beta-argmin", "recovery-is-projection"}
        assert failed == want


def test_grid_checks_reject_neighbouring_levels():
    w = wl.Grid32Graph(seed=0, run_dir="unused")
    A, coords, max_degree = ref.grid_laplacian(w.n)
    fac = ref.factor(A)
    phis = [ref.point_measurements(coords, l) for l in range(w.q + 1)]
    x, y = coords[:, 0], coords[:, 1]
    f = np.cos(3 * x + y) + np.sin(3 * y) + np.sin(7 * x - 5 * y)
    u = ref.dense_solve(fac, f)
    eta = u + 0.03 * np.sqrt(np.mean(u**2)) * np.random.default_rng(4).standard_normal(A.shape[0])
    errs = [ref.energy(A, ref.projection(fac, phi, eta) - u) for phi in phis]
    best = int(np.argmin(errs))
    assert best == 2 and min(errs[1], errs[3]) > 3 * errs[2]
    # a noise level whose beta argmin is the best level, with the manifest's other fields
    H, d_eff, bound = 0.5776, 2.525, float(np.linalg.norm(f))
    sigma = next(s for s in np.geomspace(1e-6, 1e2, 400) if ref.level_choice(s, bound, H, 1.0, d_eff, w.q) == best)
    for level in (best - 1, best, best + 1):
        kept = {
            "manifest": {"H": H, "d_eff": d_eff, "sigma": sigma, "bound": bound, "level": level, "lambda_max": [7.98]},
            "real": {"x": x, "y": y, "f": f, "u": u, "eta": eta,
                     "recovery": ref.projection(fac, phis[level], eta)},
        }
        failed = _failed(w._check_one(kept, A, fac, coords, max_degree, phis))
        want = set() if level == best else {"level-is-beta-argmin", "recovery-is-projection", "level-choice-near-best"}
        assert failed == want


def test_benchmark_json_names_every_metric_and_workload():
    with open(os.path.join(os.path.dirname(run.HERE), "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS) == list(wl.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(tracing.LAYER_METRICS)
    assert [m["name"] for m in doc["end_to_end"]] == ["run_s", "setup_s", "peak_rss_mb"]
