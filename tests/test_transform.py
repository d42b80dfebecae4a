"""Multilevel decomposition: recursion vs oracle, round trips, storage."""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import gamblets as gb
from conftest import random_spd
from gamblets import BadConfig, DimensionMismatch, GambletError
from gamblets.numerics import cholesky, extreme_eigs, solve_spd, symmetrize
from gamblets.transform import (
    _level_step,
    coefficient_energies,
    energy_norm,
    read_manifest,
    validate_system,
)
from oracles import chi_fine, noise_trace, oracle_transform, phi_chi_fine, psi_fine, z_matrix


def frobenius(a, b):
    return float(np.linalg.norm(a - b))


# ---------------------------------------------------------------------------
# Construction correctness.

def test_identity_operator_gives_identity_levels():
    hier = gb.build_dyadic(1, 3)
    sys = gb.transform(np.eye(8), hier)
    for k in range(1, 4):
        n = hier.sizes[k - 1]
        assert_allclose(sys.a_of(k), np.eye(n), atol=1e-12)
        assert_allclose(sys.b_of(k), np.eye(hier.j_size(k)), atol=1e-12)
    assert_allclose(z_matrix(sys), np.eye(8), atol=1e-12)


@pytest.mark.parametrize(
    "dim,q,rough",
    [(1, 3, False), (1, 4, True), (2, 2, True)],
)
def test_recursion_matches_oracle(dim, q, rough):
    hier = gb.build_dyadic(dim, q)
    if rough:
        field = gb.coeff_1d() if dim == 1 else gb.coeff_2d()
    else:
        field = gb.coeff_unit(dim)
    op = gb.assemble_fem(field, hier)
    fast = gb.transform(op, hier)
    slow = oracle_transform(op, hier)
    for k in range(1, q + 1):
        assert frobenius(fast.a_of(k), slow.a_of(k)) < 1e-8
        assert frobenius(fast.b_of(k), slow.b_of(k)) < 1e-8
    for k in range(2, q + 1):
        assert frobenius(fast.r_of(k), slow.r_of(k)) < 1e-8
        assert frobenius(fast.n_of(k), slow.n_of(k)) < 1e-8


def _uneven_points_problem():
    """A random 2D point hierarchy whose parents have 1 to 4 children, and an SPD operator on it."""
    hier = gb.build_from_points(np.random.default_rng(0).random((60, 2)), 3)
    assert all(len(np.unique(np.count_nonzero(pi, axis=1))) > 1 for pi in hier.pi)
    return hier, random_spd(hier.n_fine, 3)


@pytest.fixture(params=["dyadic-2d-q3", "uneven-points"])
def level_problem(request, hier_2d_q3, op_2d_rough_q3):
    if request.param == "dyadic-2d-q3":
        return hier_2d_q3, op_2d_rough_q3.A
    return _uneven_points_problem()


def test_level_step_matches_dense_formulas(level_problem):
    """The Schur-complement step gives W A W^T, A W^T B^-1, pi (I - N W) and R A R^T."""
    hier, A = level_problem
    sys = gb.transform(A, hier)

    def close(got, want):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    for k in range(2, hier.q + 1):
        Ak, W, pi = sys.a_of(k), hier.w_of(k), hier.pi_of(k - 1)
        B, Nk, R, A_coarse = _level_step(hier, k, Ak)
        close(B, W @ Ak @ W.T)
        close(Nk, Ak @ W.T @ np.linalg.inv(B))
        close(R, pi @ (np.eye(hier.sizes[k - 1]) - Nk @ W))
        close(A_coarse, R @ Ak @ R.T)


def test_levels_are_dense_float_arrays(level_problem):
    """No np.matrix or sparse type leaks out of the sparse-filter products.

    Every level is C-contiguous too: np.save writes an F-ordered array
    with another header and other bytes, so the stored digests rest on it.
    """
    hier, A = level_problem
    for build in (gb.transform, oracle_transform):
        sys = build(A, hier)
        for m in sys.a_levels + sys.b_levels + sys.r_levels + sys.n_levels:
            assert type(m) is np.ndarray and m.dtype == np.float64
            assert m.flags.c_contiguous


def test_detail_blocks_uniformly_conditioned(sys_1d_rough_q6):
    conds = []
    for k in range(1, 7):
        lo, hi = extreme_eigs(sys_1d_rough_q6.b_of(k))
        conds.append(hi / lo)
    assert max(conds) / min(conds) < 10


def test_validate_system_catches_tampering(op_1d_rough_q4, hier_1d_q4):
    sys = gb.transform(op_1d_rough_q4, hier_1d_q4)
    validate_system(sys)
    sys.a_levels[1] = sys.a_levels[1] + 0.1
    with pytest.raises(GambletError):
        validate_system(sys)


@pytest.mark.parametrize("scale", [1.0, 1e-9])
def test_validate_system_rejects_non_orthogonal_gamblets(op_1d_rough_q4, hier_1d_q4, scale):
    """A top level that keeps W N = I but breaks R A W^T = 0 is refused.

    Adding pi^T M to N^(4) leaves W N = I, because W pi^T = 0. R and A^(3)
    are then formed from that N as the recursion forms them, and levels
    1..3 are an exact transform of that A^(3), so only the A-orthogonality
    of the coarse gamblets to the details is broken. The tolerance scales
    with A, so an operator with entries far below 1 is held to it too.
    """
    sys = gb.transform(scale * op_1d_rough_q4.A, hier_1d_q4)
    pi, W, A4 = hier_1d_q4.pi_of(3), hier_1d_q4.w_of(4), sys.a_of(4)
    M = np.random.default_rng(0).standard_normal((pi.shape[0], W.shape[0]))
    N4 = sys.n_of(4) + 1e-3 * pi.T @ M
    R = pi - pi @ N4 @ W
    coarse = gb.transform(symmetrize(R @ A4 @ R.T), gb.build_dyadic(1, 3))
    bad = gb.GambletSystem(
        hier=hier_1d_q4,
        a_levels=coarse.a_levels + [A4],
        b_levels=coarse.b_levels + [sys.b_of(4)],
        r_levels=coarse.r_levels + [R],
        n_levels=coarse.n_levels + [N4],
    )
    with pytest.raises(GambletError, match=r"A\^\(3\) != R A pi\^T"):
        validate_system(bad)


def test_validate_system_requires_a_orthogonal_gamblets(op_1d_rough_q4, hier_1d_q4):
    """A top level that keeps W N = I and A^(3) = R A pi^T but breaks R A W^T = 0 is refused.

    With C = W A pi^T, X^T = B^-1 C + 1e-3 C (C^T C)^-1 M for a symmetric M
    moves C^T X^T by 1e-3 M, which is symmetric. N, R and A^(3) formed from
    that X^T by the Schur formulas then pass the first two checks, and levels
    1..3 are an exact transform of that A^(3). Only R A W^T = C^T - X B is off.
    """
    sys = gb.transform(op_1d_rough_q4, hier_1d_q4)
    pi, W, A4, B = hier_1d_q4.pi_of(3), hier_1d_q4.w_of(4), sys.a_of(4), sys.b_of(4)
    C = W @ A4 @ pi.T
    M = symmetrize(np.random.default_rng(0).standard_normal((pi.shape[0], pi.shape[0])))
    Xt = np.linalg.solve(B, C) + 1e-3 * C @ np.linalg.solve(C.T @ C, M)
    N4 = W.T + pi.T @ Xt.T
    R = pi - Xt.T @ W
    coarse = gb.transform(symmetrize(pi @ A4 @ pi.T - C.T @ Xt), gb.build_dyadic(1, 3))
    bad = gb.GambletSystem(
        hier=hier_1d_q4,
        a_levels=coarse.a_levels + [A4],
        b_levels=coarse.b_levels + [B],
        r_levels=coarse.r_levels + [R],
        n_levels=coarse.n_levels + [N4],
    )
    with pytest.raises(GambletError, match=r"R\^\(3,4\) A W\^T != 0"):
        validate_system(bad)


def test_validate_system_reads_b(op_1d_rough_q4, hier_1d_q4):
    """A B^(4) that no longer equals W A W^T is refused; solve would read it."""
    sys = gb.transform(op_1d_rough_q4, hier_1d_q4)
    sys.b_levels[3] = sys.b_of(4) + 0.1 * np.abs(sys.b_of(4)).max()
    with pytest.raises(GambletError, match=r"B\^\(4\) != W A W\^T"):
        validate_system(sys)


def test_validate_system_requires_b1_equal_a1(sys_1d_rough_q4, tmp_path):
    """A loaded B^(1) is its own array, no longer A^(1) itself; it must still equal it."""
    gb.save_system(sys_1d_rough_q4, tmp_path / "system")
    back = gb.load_system(tmp_path / "system")
    assert back.b_of(1) is not back.a_of(1)
    validate_system(back)
    back.b_levels[0] = 2.0 * back.b_of(1)
    with pytest.raises(GambletError, match=r"B\^\(1\) != A\^\(1\)"):
        validate_system(back)


def test_validate_system_requires_n_and_r_to_carry_one_x(op_1d_rough_q4, hier_1d_q4, tmp_path):
    """An N^(4) whose X = pi N differs from R^(3,4)'s is refused, in memory and after save/load.

    Adding 1e-2 pi^T M to N^(4) keeps W N = I, as W pi^T = 0, and leaves
    every check on R, A and B as it was; only pi N = (pi - R) W^T sees it,
    and reconstruct(analyze(y)) is then off by far more than rounding.
    """
    sys = gb.transform(op_1d_rough_q4, hier_1d_q4)
    rng = np.random.default_rng(0)
    pi = hier_1d_q4.pi_of(3)
    sys.n_levels[2] = sys.n_of(4) + 1e-2 * pi.T @ rng.standard_normal((pi.shape[0], hier_1d_q4.j_size(4)))
    y = rng.standard_normal(16)
    assert np.linalg.norm(gb.reconstruct(sys, gb.analyze(sys, y)) - y) > 1e-3 * np.linalg.norm(y)
    refused = r"pi N\^\(4\) != \(pi - R\^\(3,4\)\) W\^T"
    with pytest.raises(GambletError, match=refused):
        validate_system(sys)
    gb.save_system(sys, tmp_path / "system")
    with pytest.raises(GambletError, match=refused):
        validate_system(gb.load_system(tmp_path / "system"))


@pytest.mark.parametrize("which", ["a", "b", "n", "a_top"])
def test_validate_system_rejects_nan(op_1d_rough_q4, hier_1d_q4, which):
    """A NaN makes every residual NaN, which no tolerance may accept."""
    # A^(q) is the caller's matrix itself, so "a_top" would write into the shared fixture.
    sys = gb.transform(op_1d_rough_q4.A.copy(), hier_1d_q4)
    m = {"a": sys.a_of(3), "b": sys.b_of(3), "n": sys.n_of(3), "a_top": sys.a_of(4)}[which]
    m[1, 2] = np.nan
    with pytest.raises(GambletError):
        validate_system(sys)


def test_validate_system_reads_the_stored_top_operator(op_1d_rough_q4, hier_1d_q4):
    """The sparse A^(q) that validation multiplies is made from the stored matrix on each call, never cached."""
    sys = gb.transform(op_1d_rough_q4.A.copy(), hier_1d_q4)
    A = sys.a_of(4)
    A[1, 2] += 0.1
    A[2, 1] += 0.1
    with pytest.raises(GambletError, match=r"A\^\(3\) != R A pi\^T"):
        validate_system(sys)


def _tamper_directions(hier, name, k, m, rng):
    """Named perturbation directions for the stored matrix `name`^(k), of m's shape.

    Besides dense noise, R gets M pi and M W and N gets pi^T M and W^T M:
    M pi leaves pi N = (pi - R) W^T as it is (pi W^T = 0), and pi^T M
    leaves W N = I, so each of those is left to the other checks.
    """
    dense = rng.standard_normal(m.shape)
    if name in ("a", "b"):
        return {"dense": dense, "dense symmetric": symmetrize(dense)}
    pi, W = hier.pi_of(k - 1), hier.w_of(k)
    if name == "r":
        return {
            "dense": dense,
            "M pi": rng.standard_normal((pi.shape[0], pi.shape[0])) @ pi,
            "M W": rng.standard_normal((pi.shape[0], W.shape[0])) @ W,
        }
    return {
        "dense": dense,
        "pi^T M": pi.T @ rng.standard_normal((pi.shape[0], W.shape[0])),
        "W^T M": W.T @ rng.standard_normal((W.shape[0], W.shape[0])),
    }


def test_validate_system_refuses_every_tamper():
    """Every stored A/B/R/N on every level, tampered each way at 1e-3 and 1e-8 of its max |entry|, is refused."""
    hier = gb.build_dyadic(1, 5)
    sys = gb.transform(gb.assemble_fem(gb.coeff_1d(), hier), hier)
    rng = np.random.default_rng(0)
    lists = {"a": "a_levels", "b": "b_levels", "r": "r_levels", "n": "n_levels"}
    tried, accepted = 0, []
    for name, attr in lists.items():
        first = 1 if name in ("a", "b") else 2
        for k, m in enumerate(getattr(sys, attr), start=first):
            for how, e in _tamper_directions(hier, name, k, m, rng).items():
                for size in (1e-3, 1e-8):
                    levels = {a: list(getattr(sys, a)) for a in lists.values()}
                    levels[attr][k - first] = m + e * (size * np.abs(m).max() / np.abs(e).max())
                    tried += 1
                    try:
                        validate_system(gb.GambletSystem(hier=hier, **levels))
                    except GambletError:
                        continue
                    accepted.append(f"{name}^({k}) {how} at {size:g}")
    assert tried == 88
    assert not accepted, f"validate_system accepted {len(accepted)} of {tried} tampers: " + "; ".join(accepted)


@pytest.mark.parametrize("name", ["sys_1d_rough_q6", "sys_2d_rough_q3"])
def test_noise_trace_identity(request, name):
    """tr(P_l^T A P_l) = tr A^(1) + sum_{2<=k<=l} tr(B^(k) N^(k),T N^(k)) for the level-l projection P_l."""
    sys = request.getfixturevalue(name)
    A = sys.a_of(sys.q)
    c = gb.analyze(sys, np.eye(sys.n_fine))
    for l in range(1, sys.q + 1):
        P = gb.reconstruct(sys, c, upto=l)
        got = float(np.sum(P * (A @ P)))
        want = noise_trace(sys, l)
        # The two sides sum the same positive energies in another order;
        # the gap measured at most 6.6e-15 relative, so 1e-12 leaves room for rounding only.
        assert abs(got - want) <= 1e-12 * want, (l, got, want)


def test_transform_accepts_raw_matrix(hier_1d_q4, op_1d_rough_q4):
    direct = gb.transform(op_1d_rough_q4.A, hier_1d_q4)
    via_op = gb.transform(op_1d_rough_q4, hier_1d_q4)
    assert_allclose(direct.a_of(1), via_op.a_of(1), atol=0)


def test_transform_rejects_wrong_size(hier_1d_q4):
    with pytest.raises(DimensionMismatch):
        gb.transform(np.eye(7), hier_1d_q4)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    n=st.integers(10, 200),
    dim=st.sampled_from([1, 2]),
    q=st.integers(2, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_identities_on_random_spd_over_random_points(n, dim, q, seed):
    """The gamblet identities for A = M M^T + 0.1 n I on a random point hierarchy."""
    rng = np.random.default_rng(seed)
    hier = gb.build_from_points(rng.random((n, dim)), q)
    size = hier.n_fine
    m = rng.standard_normal((size, size))
    A = m @ m.T + 0.1 * size * np.eye(size)
    sys = gb.transform(A, hier)
    validate_system(sys)

    def rel(got, want):
        return np.linalg.norm(got - want) / np.linalg.norm(want)

    y = rng.standard_normal((size, 3))
    c = gb.analyze(sys, y)
    assert rel(gb.reconstruct(sys, c), y) <= 1e-12
    assert rel(np.sum(coefficient_energies(sys, c), axis=0), energy_norm(A, y) ** 2) <= 1e-12
    f = rng.standard_normal(size)
    assert rel(gb.solve(sys, f), solve_spd(cholesky(A), f)) <= 1e-12


# ---------------------------------------------------------------------------
# Analysis / synthesis round trips.

def _dense_filter_analyze(sys, y):
    m, levels = y, [None] * sys.q
    for k in range(sys.q, 1, -1):
        levels[k - 1] = sys.n_of(k).T @ m
        m = sys.hier.pi_of(k - 1) @ m
    levels[0] = m
    return levels


def _dense_filter_reconstruct(sys, levels):
    x = levels[0]
    for k in range(2, sys.q + 1):
        x = sys.r_of(k).T @ x + sys.hier.w_of(k).T @ levels[k - 1]
    return x


def _dense_filter_solve(sys, f):
    fk, levels = f, [None] * sys.q
    for k in range(sys.q, 1, -1):
        levels[k - 1] = solve_spd(sys.b_factor(k), sys.hier.w_of(k) @ fk)
        fk = sys.r_of(k) @ fk
    levels[0] = solve_spd(sys.b_factor(1), fk)
    return _dense_filter_reconstruct(sys, levels)


@pytest.fixture(params=["rough-1d-q6", "rough-2d-q3", "grid16"])
def any_system(request, sys_1d_rough_q6, sys_2d_rough_q3):
    if request.param == "rough-1d-q6":
        return sys_1d_rough_q6
    if request.param == "rough-2d-q3":
        return sys_2d_rough_q3
    op = gb.grounded_laplacian(gb.synthetic_grid(16))
    return gb.transform(op, gb.build_from_points(op.node_coords, 4))


def test_sparse_filter_products_match_dense_filters(any_system):
    """analyze, reconstruct and solve give what the same formulas give with the dense filters."""
    sys = any_system
    rng = np.random.default_rng(6)

    def close(got, want):
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    for y in (rng.standard_normal(sys.n_fine), rng.standard_normal((sys.n_fine, 5))):
        c = gb.analyze(sys, y)
        for got, want in zip(c.levels, _dense_filter_analyze(sys, y), strict=True):
            close(got, want)
        close(gb.reconstruct(sys, c), _dense_filter_reconstruct(sys, c.levels))
        close(gb.solve(sys, y), _dense_filter_solve(sys, y))


def test_sparse_top_step_matches_dense_step(any_system):
    """transform multiplies the csr_array form of A^(q); its top step is bit for bit the step on the dense A^(q)."""
    sys = any_system
    q = sys.q
    B, Nk, R, A_coarse = _level_step(sys.hier, q, sys.a_of(q))
    assert np.array_equal(sys.b_of(q), B)
    assert np.array_equal(sys.n_of(q), Nk)
    assert np.array_equal(sys.r_of(q), R)
    assert np.array_equal(sys.a_of(q - 1), A_coarse)


def test_round_trip_is_identity(sys_1d_rough_q4):
    rng = np.random.default_rng(2)
    for _ in range(5):
        y = rng.standard_normal(16)
        back = gb.reconstruct(sys_1d_rough_q4, gb.analyze(sys_1d_rough_q4, y))
        assert np.linalg.norm(back - y) < 1e-9


def test_round_trip_2d(sys_2d_rough_q3):
    rng = np.random.default_rng(3)
    y = rng.standard_normal(64)
    back = gb.reconstruct(sys_2d_rough_q3, gb.analyze(sys_2d_rough_q3, y))
    assert np.linalg.norm(back - y) < 1e-9


def test_partial_reconstruction_projects(sys_1d_rough_q4, op_1d_rough_q4):
    """Level cutoffs give energy-orthogonal pieces: norms accumulate."""
    rng = np.random.default_rng(4)
    y = rng.standard_normal(16)
    c = gb.analyze(sys_1d_rough_q4, y)
    energies = coefficient_energies(sys_1d_rough_q4, c)
    total = energy_norm(op_1d_rough_q4, y)
    assert_allclose(np.sqrt(np.sum(energies)), total, rtol=1e-9)
    partial = gb.reconstruct(sys_1d_rough_q4, c, upto=2)
    assert energy_norm(op_1d_rough_q4, partial) <= total + 1e-12


def test_coefficient_sizes(sys_1d_rough_q4):
    c = gb.analyze(sys_1d_rough_q4, np.zeros(16))
    assert [lev.size for lev in c.levels] == [2, 2, 4, 8]
    assert c.q == 4


def test_solve_matches_direct(sys_1d_rough_q6, op_1d_rough_q6):
    sys, op = sys_1d_rough_q6, op_1d_rough_q6
    rng = np.random.default_rng(5)
    for f in (rng.standard_normal(64), rng.standard_normal((64, 7))):  # a load, then a block of 7
        x = gb.solve(sys, f)
        assert x.shape == f.shape
        direct = np.linalg.solve(op.A, f)
        err = energy_norm(op, x - direct) / energy_norm(op, direct)
        assert np.all(err < 1e-9)
    # each column of the block solve is the solve of that column, up to rounding
    cols = np.column_stack([gb.solve(sys, f[:, j]) for j in range(f.shape[1])])
    assert np.abs(x - cols).max() <= 1e-12 * np.abs(x).max()
    for bad in (np.zeros((64, 2, 2)), np.zeros(63), np.zeros((63, 3))):
        with pytest.raises(DimensionMismatch):
            gb.solve(sys, bad)


def test_energy_norm_validates_shape(op_1d_rough_q4):
    with pytest.raises(DimensionMismatch):
        energy_norm(op_1d_rough_q4, np.zeros(5))


# ---------------------------------------------------------------------------
# Dual-basis structure.

def test_biorthogonality(sys_1d_rough_q4):
    for k in range(1, 5):
        for l in range(1, 5):
            pair = phi_chi_fine(sys_1d_rough_q4, k) @ chi_fine(sys_1d_rough_q4, l).T
            target = np.eye(pair.shape[0]) if k == l else np.zeros(pair.shape)
            assert np.abs(pair - target).max() < 1e-8


def test_noise_gram_is_dual_coefficient_gram(sys_1d_rough_q4):
    z = z_matrix(sys_1d_rough_q4)
    p = np.vstack([phi_chi_fine(sys_1d_rough_q4, k) for k in range(1, 5)])
    assert_allclose(z, p @ p.T, atol=1e-10)
    lo, hi = extreme_eigs(z)
    assert lo > 0
    assert np.isfinite(hi)
    assert_allclose(z, z.T, atol=0)


def test_noise_gram_diagonal_blocks_bounded_below(sys_1d_rough_q4):
    """Within one level the dual coefficients never shrink white noise."""
    z = z_matrix(sys_1d_rough_q4)
    sizes = [2, 2, 4, 8]
    off = 0
    for s in sizes:
        block = z[off : off + s, off : off + s]
        assert np.linalg.eigvalsh(block).min() >= 1 - 1e-8
        off += s


# ---------------------------------------------------------------------------
# Localization.

def test_interior_gamblet_decays_exponentially(sys_1d_rough_q6):
    psi3 = psi_fine(sys_1d_rough_q6, 3)
    i = psi3.shape[0] // 2
    row = psi3[i]
    centers = (np.arange(row.size) + 0.5) / row.size
    c0 = (i + 0.5) / psi3.shape[0]
    tails = [float(np.sum(row[np.abs(centers - c0) > n / 8] ** 2)) for n in range(1, 5)]
    assert all(a >= b for a, b in zip(tails, tails[1:]))
    assert tails[0] / tails[3] >= 1e3


# ---------------------------------------------------------------------------
# Persistence.

def test_save_load_round_trip(sys_1d_rough_q4, tmp_path):
    d = tmp_path / "system"
    gb.save_system(sys_1d_rough_q4, d)
    back = gb.load_system(d)
    assert back.q == 4
    for k in range(1, 5):
        assert_allclose(back.a_of(k), sys_1d_rough_q4.a_of(k), atol=0)
        assert_allclose(back.b_of(k), sys_1d_rough_q4.b_of(k), atol=0)
    for k in range(2, 5):
        assert_allclose(back.r_of(k), sys_1d_rough_q4.r_of(k), atol=0)
        assert_allclose(back.n_of(k), sys_1d_rough_q4.n_of(k), atol=0)
    y = np.arange(16.0)
    assert_allclose(
        gb.reconstruct(back, gb.analyze(back, y)), y, atol=1e-10
    )


def test_load_rejects_missing_manifest_field(sys_1d_rough_q4, tmp_path):
    d = tmp_path / "system"
    gb.save_system(sys_1d_rough_q4, d)
    manifest = json.loads((d / "manifest.json").read_text())
    del manifest["hierarchy_sha256"]
    (d / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(BadConfig, match="hierarchy_sha256"):
        gb.load_system(d)


def test_load_rejects_corrupted_matrix(sys_1d_rough_q4, tmp_path):
    d = tmp_path / "system"
    gb.save_system(sys_1d_rough_q4, d)
    m = np.load(d / "a_2.npy")
    np.save(d / "a_2.npy", m[:-1])
    with pytest.raises(GambletError, match="a_2"):
        gb.load_system(d)


def test_load_rejects_flipped_byte(sys_1d_rough_q4, tmp_path):
    d = tmp_path / "system"
    gb.save_system(sys_1d_rough_q4, d)
    path = d / "r_3.npy"
    data = bytearray(path.read_bytes())
    data[-1] ^= 0x01  # a valid float64 still; only the digest can tell
    path.write_bytes(bytes(data))
    with pytest.raises(BadConfig, match="r_3"):
        gb.load_system(d)


def test_save_is_byte_identical(sys_1d_rough_q4, tmp_path):
    one, two = tmp_path / "one", tmp_path / "two"
    gb.save_system(sys_1d_rough_q4, one)
    gb.save_system(sys_1d_rough_q4, two)
    names = sorted(p.name for p in one.iterdir())
    assert names == sorted(p.name for p in two.iterdir())
    assert "manifest.json" in names
    for name in names:
        assert (one / name).read_bytes() == (two / name).read_bytes(), name
    manifest = json.loads((one / "manifest.json").read_text())
    recipe = sys_1d_rough_q4.hier.to_json().encode()
    assert (one / "hierarchy.json").read_bytes() == recipe
    assert manifest["hierarchy_sha256"] == hashlib.sha256(recipe).hexdigest()
    assert set(manifest["sha256"]) == set(manifest["files"]) - {"hierarchy"}


def test_save_ignores_memory_order(op_1d_rough_q4, hier_1d_q4, tmp_path):
    """A Fortran-ordered operator, kept as A^(q), is stored with the same bytes as a C-ordered one."""
    A = op_1d_rough_q4.A
    for name, a in [("c", np.ascontiguousarray(A)), ("f", np.asfortranarray(A))]:
        gb.save_system(gb.transform(a, hier_1d_q4), tmp_path / name)
    # The manifest holds every file's sha256.
    assert (tmp_path / "c" / "manifest.json").read_bytes() == (tmp_path / "f" / "manifest.json").read_bytes()


def test_load_rejects_csv_store(sys_1d_rough_q4, tmp_path):
    d = tmp_path / "system"
    gb.save_system(sys_1d_rough_q4, d)
    manifest = json.loads((d / "manifest.json").read_text())
    manifest["files"] = {k: v.replace(".npy", ".csv") for k, v in manifest["files"].items()}
    del manifest["sha256"]
    (d / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(BadConfig, match="re-save"):
        gb.load_system(d)


def test_load_rejects_older_store_format(sys_1d_rough_q4, tmp_path):
    # every file still matches its digest; only the format name is old
    d = tmp_path / "system"
    gb.save_system(sys_1d_rough_q4, d)
    manifest = json.loads((d / "manifest.json").read_text())
    for old in ("gamblet-system", "gamblet-system-2"):
        manifest["format"] = old
        (d / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(BadConfig, match="re-save"):
            gb.load_system(d)


def test_hierarchy_is_stored_as_its_recipe(sys_1d_rough_q4, tmp_path):
    d = tmp_path / "system"
    gb.save_system(sys_1d_rough_q4, d)
    assert json.loads((d / "hierarchy.json").read_text()) == {"dim": 1, "kind": "dyadic", "q": 4}
    back = gb.load_system(d)
    for got, want in zip(back.hier.pi + back.hier.w, sys_1d_rough_q4.hier.pi + sys_1d_rough_q4.hier.w):
        assert got.tobytes() == want.tobytes()


def test_graph_system_save_load_round_trip(tmp_path):
    out = gb.denoise_graph(gb.synthetic_grid(8), q=3, sigma_rms=0.01, trials=3, seed=1)
    d = tmp_path / "system"
    gb.save_system(out.system, d)
    back = gb.load_system(d)
    hier, want = back.hier, out.system.hier
    assert hier.kind == "points" and hier.sizes == want.sizes
    assert np.array_equal(hier.point_fine_label, want.point_fine_label)
    for got, ref in zip(hier.pi + hier.w, want.pi + want.w, strict=True):
        assert got.tobytes() == ref.tobytes()
    def matrices(sys):
        return sys.a_levels + sys.b_levels + sys.r_levels + sys.n_levels

    for got, ref in zip(matrices(back), matrices(out.system), strict=True):
        assert got.tobytes() == ref.tobytes()
    y = np.arange(float(back.n_fine))
    assert_allclose(gb.reconstruct(back, gb.analyze(back, y)), y, atol=1e-10)


def test_read_manifest_rejects_bad_json(tmp_path):
    d = tmp_path / "system"
    d.mkdir()
    (d / "manifest.json").write_text("{not json")
    with pytest.raises(BadConfig):
        read_manifest(d)
