"""Dense kernel checks against closed forms and independent oracles."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.stats import chi2 as chi2_dist

import gamblets as gb
from gamblets import BadConfig, NotSPD, InvalidProbability
from gamblets.numerics import (
    _check_square_symmetric,
    cholesky,
    solve_spd,
    extreme_eigs,
    chi_square_quantile,
    symmetrize,
    transpose,
    dump_matrix_csv,
    load_matrix_csv,
)
from conftest import random_spd
from oracles import spd_inverse


def tridiag(n, lo, di, up):
    return np.diag(np.full(n, di)) + np.diag(np.full(n - 1, lo), -1) + np.diag(np.full(n - 1, up), 1)


# ---------------------------------------------------------------------------
# Cholesky and solves.

def test_cholesky_solves_diagonal_system():
    a = np.diag([4.0, 9.0, 16.0])
    x = solve_spd(cholesky(a), np.array([4.0, 18.0, 48.0]))
    assert_allclose(x, [1.0, 2.0, 3.0], rtol=0, atol=1e-14)


def test_cholesky_rejects_indefinite():
    with pytest.raises(NotSPD):
        cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_cholesky_rejects_nonsymmetric():
    with pytest.raises(NotSPD):
        cholesky(np.array([[2.0, 1.0], [0.0, 2.0]]))
    # Symmetric means exactly symmetric: one ulp off is refused, not averaged.
    a = random_spd(8, 0)
    a[0, 1] = np.nextafter(a[0, 1], np.inf)
    with pytest.raises(NotSPD):
        cholesky(a)
    with pytest.raises(NotSPD):
        gb.transform(a, gb.build_dyadic(1, 3))
    with pytest.raises(NotSPD):
        gb.regularize(a, np.ones(8), sigma=0.1)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("call", ["transform", "regularize"])
def test_non_finite_operator_raises(call, bad):
    hier = gb.build_dyadic(1, 3)
    a = gb.assemble_fem(gb.coeff_1d(), hier).A.copy()
    a[3, 3] = bad
    with pytest.raises(BadConfig, match="operator has a non-finite entry"):
        if call == "transform":
            gb.transform(a, hier)
        else:
            gb.regularize(a, np.ones(8), sigma=0.1)


def test_tridiagonal_inverse_first_column():
    # For tridiag(-1, 2, -1) of order 8, (T^{-1} e_1)_j = (9 - j) / 9.
    t = tridiag(8, -1.0, 2.0, -1.0)
    x = solve_spd(cholesky(t), np.eye(8)[:, 0])
    expected = (9.0 - np.arange(1, 9)) / 9.0
    assert_allclose(x, expected, rtol=0, atol=1e-13)


@pytest.mark.parametrize("n,seed", [(5, 0), (12, 1), (40, 2)])
def test_spd_inverse_round_trip(n, seed):
    a = random_spd(n, seed)
    assert_allclose(spd_inverse(a) @ a, np.eye(n), rtol=0, atol=1e-9)


def test_solve_spd_matrix_rhs():
    a = random_spd(10, 3)
    b = np.random.default_rng(4).standard_normal((10, 3))
    assert_allclose(solve_spd(cholesky(a), b), np.linalg.solve(a, b), rtol=0, atol=1e-10)


def test_symmetrize_averages_off_diagonal():
    m = np.array([[1.0, 2.0], [4.0, 5.0]])
    s = symmetrize(m)
    assert_allclose(s, [[1.0, 3.0], [3.0, 5.0]])
    assert_allclose(s, s.T)


# ---------------------------------------------------------------------------
# Tiled transposed passes. With 64 x 64 tiles, n = 1 and 63 fit in one
# tile, 64 fills it, 65 adds a ragged edge, and 130 is two full tiles
# and a ragged one.

@pytest.mark.parametrize("n", [1, 63, 64, 65, 130])
def test_symmetrize_is_bitwise_half_sum(n):
    m = np.random.default_rng(n).standard_normal((n, n))
    s = symmetrize(m)
    assert np.array_equal(s, (m + m.T) / 2.0)
    assert np.array_equal(s, s.T)


@pytest.mark.parametrize("shape", [(1, 5), (65, 130), (130, 65)])
def test_transpose_is_c_contiguous(shape):
    m = np.random.default_rng(sum(shape)).standard_normal(shape)
    for src in (m, np.asfortranarray(m), np.hstack([m, m])[:, : shape[1]]):
        t = transpose(src)
        assert np.array_equal(t, m.T)
        assert t.flags.c_contiguous


@pytest.mark.parametrize(
    "where",
    [(5, 9), (3, 100), (129, 70), (128, 129)],
    ids=["diagonal-tile", "off-diagonal-tile", "ragged-row-tile", "ragged-corner-tile"],
)
def test_symmetry_check_finds_one_flipped_entry(where):
    a = random_spd(130, 5)
    _check_square_symmetric(a)
    a[where] = np.nextafter(a[where], np.inf)
    with pytest.raises(NotSPD, match="not exactly symmetric"):
        _check_square_symmetric(a)


def test_symmetry_check_reports_nan_before_asymmetry():
    a = random_spd(130, 6)
    a[3, 100] = np.nan
    with pytest.raises(BadConfig, match="non-finite"):
        _check_square_symmetric(a)


# ---------------------------------------------------------------------------
# Extreme eigenvalues.

def test_extreme_eigs_diagonal():
    lo, hi = extreme_eigs(np.diag([1.0, 2.0, 3.0, 4.0, 5.0]))
    assert_allclose([lo, hi], [1.0, 5.0], rtol=1e-10)


def test_extreme_eigs_tridiagonal_spectrum():
    # Eigenvalues of tridiag(-1, 2, -1), order n, are 2 - 2 cos(k pi / (n+1)).
    t = tridiag(8, -1.0, 2.0, -1.0)
    lo, hi = extreme_eigs(t)
    assert_allclose(lo, 2 - 2 * math.cos(math.pi / 9), rtol=1e-9)
    assert_allclose(hi, 2 - 2 * math.cos(8 * math.pi / 9), rtol=1e-9)


def test_extreme_eigs_tridiagonal_spectrum_order_600():
    # Past 512, where the dense solve once gave way to power iteration.
    t = tridiag(600, -1.0, 2.0, -1.0)
    lo, hi = extreme_eigs(t)
    assert_allclose(lo, 2 - 2 * math.cos(math.pi / 601), rtol=1e-9)
    assert_allclose(hi, 2 - 2 * math.cos(600 * math.pi / 601), rtol=1e-9)


def test_extreme_eigs_indefinite_known_spectrum():
    n = 520
    evals = np.linspace(-3.0, 5.0, n)
    q, _ = np.linalg.qr(np.random.default_rng(12).standard_normal((n, n)))
    m = symmetrize(q @ np.diag(evals) @ q.T)
    lo, hi = extreme_eigs(m)
    assert_allclose([lo, hi], [-3.0, 5.0], rtol=1e-10)


def test_extreme_eigs_permutation_invariant():
    a = random_spd(16, 7)
    p = np.random.default_rng(8).permutation(16)
    assert_allclose(extreme_eigs(a), extreme_eigs(a[np.ix_(p, p)]), rtol=1e-9)


# ---------------------------------------------------------------------------
# Chi-square quantile.

def test_chi_square_quantile_dof_one():
    assert abs(chi_square_quantile(1, 0.95) - 3.8415) < 1e-3


def test_chi_square_quantile_dof_two_closed_form():
    # CDF of chi-square with 2 dof is 1 - exp(-x/2), so p = 1 - 1/e inverts to 2.
    assert abs(chi_square_quantile(2, 1 - math.exp(-1)) - 2.0) < 1e-10


def test_chi_square_quantile_large_dof_tail():
    got = chi_square_quantile(1024, 0.005)
    assert abs(got - chi2_dist.ppf(0.005, 1024)) < 1e-6 * got


@pytest.mark.parametrize("dof,p", [(3, 0.1), (10, 0.5), (100, 0.99)])
def test_chi_square_quantile_matches_scipy(dof, p):
    assert_allclose(chi_square_quantile(dof, p), chi2_dist.ppf(p, dof), rtol=1e-8)


@pytest.mark.parametrize("p", [0.0, 1.0, -0.2, 1.5])
def test_chi_square_quantile_rejects_bad_probability(p):
    with pytest.raises(InvalidProbability):
        chi_square_quantile(4, p)


# ---------------------------------------------------------------------------
# CSV round trip.

def test_matrix_csv_round_trip(tmp_path):
    m = np.random.default_rng(11).standard_normal((7, 3)) * np.pi
    path = tmp_path / "m.csv"
    dump_matrix_csv(path, m)
    back = load_matrix_csv(path)
    assert back.shape == m.shape
    assert np.array_equal(back, m)  # %.17g round-trips float64 exactly
