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
    oracle_transform,
    read_manifest,
    validate_system,
    z_matrix,
)


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
    """The sparse-filter products give W A W^T, A W^T B^-1 and pi (I - N W)."""
    hier, A = level_problem
    sys = gb.transform(A, hier)

    def close(got, want):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    for k in range(2, hier.q + 1):
        Ak, W, pi = sys.a_of(k), hier.w_of(k), hier.pi_of(k - 1)
        B, Nk, R = _level_step(hier, k, Ak)
        close(B, W @ Ak @ W.T)
        close(Nk, Ak @ W.T @ np.linalg.inv(B))
        close(R, pi @ (np.eye(hier.sizes[k - 1]) - Nk @ W))


def test_levels_are_dense_float_arrays(level_problem):
    """No np.matrix or sparse type leaks out of the sparse-filter products."""
    hier, A = level_problem
    for build in (gb.transform, oracle_transform):
        sys = build(A, hier)
        for m in sys.a_levels + sys.b_levels + sys.r_levels + sys.n_levels:
            assert type(m) is np.ndarray and m.dtype == np.float64


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
    rng = np.random.default_rng(5)
    f = rng.standard_normal(64)
    x = gb.solve(sys_1d_rough_q6, f)
    direct = np.linalg.solve(op_1d_rough_q6.A, f)
    err = energy_norm(op_1d_rough_q6, x - direct) / energy_norm(op_1d_rough_q6, direct)
    assert err < 1e-9


def test_energy_norm_validates_shape(op_1d_rough_q4):
    with pytest.raises(DimensionMismatch):
        energy_norm(op_1d_rough_q4, np.zeros(5))


# ---------------------------------------------------------------------------
# Dual-basis structure.

def test_biorthogonality(sys_1d_rough_q4):
    for k in range(1, 5):
        for l in range(1, 5):
            pair = sys_1d_rough_q4.phi_chi_fine(k) @ sys_1d_rough_q4.chi_fine(l).T
            target = np.eye(pair.shape[0]) if k == l else np.zeros(pair.shape)
            assert np.abs(pair - target).max() < 1e-8


def test_noise_gram_is_dual_coefficient_gram(sys_1d_rough_q4):
    z = z_matrix(sys_1d_rough_q4)
    p = np.vstack([sys_1d_rough_q4.phi_chi_fine(k) for k in range(1, 5)])
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
    psi3 = sys_1d_rough_q6.psi_fine(3)
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
