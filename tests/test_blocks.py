"""An (N, T) block of signals gives what its T columns give one by one.

The trial engine draws its trials with one block gen_signal call and
runs every estimator once on the block; these properties tie that path
to the single-signal calls on the same code.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import gamblets as gb
from gamblets.numerics import chi_square_quantile
from gamblets.transform import coefficient_energies, energy_norm

RTOL = 1e-12
ALPHA_RTOL = 1e-10  # the bisection stops at |g(alpha) - gamma| <= 1e-10 gamma


def close(got, want, rtol=RTOL):
    """Norm-wise relative agreement (entry-wise would fail on cancellations)."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    assert np.linalg.norm(got - want) <= rtol * max(np.linalg.norm(want), 1e-300)


def make_block(op, seed, t, noise, gamma):
    """Clean columns U and noisy columns Y = U + noise_j zeta_j.

    Two columns are appended to the random ones: a noise-free column
    (sigma = 0, Y = U) and a column with |y| = gamma / 2, for which
    regularize takes the zero branch.
    """
    rng = np.random.default_rng(seed)
    n = op.n
    u = rng.standard_normal((n, t + 2))
    y = u + rng.standard_normal((n, t + 2)) * np.append(noise[:t], [0.0, 0.0])
    y[:, -1] = 0.5 * gamma * y[:, -1] / np.linalg.norm(y[:, -1])
    return u, y


block_cases = given(
    t=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
    noise=st.lists(st.sampled_from([0.0, 1e-3, 0.1, 1.0]), min_size=5, max_size=5),
    t0=st.floats(1e-4, 1e-1),
)


@settings(max_examples=40, deadline=None, derandomize=True)
@block_cases
def test_transform_and_norms_block_equals_columns(sys_1d_rough_q4, op_1d_rough_q4, t, seed, noise, t0):
    sys, op = sys_1d_rough_q4, op_1d_rough_q4
    u, y = make_block(op, seed, t, noise, gamma=1.0)
    c = gb.analyze(sys, y)
    for upto in range(sys.q + 1):
        rec = gb.reconstruct(sys, c, upto=upto)
        assert rec.shape == y.shape
        for j in range(y.shape[1]):
            close(rec[:, j], gb.reconstruct(sys, gb.analyze(sys, y[:, j]), upto=upto))
    energy, l2 = gb.errors(op, u, y)
    norms = energy_norm(op, y)
    energies = coefficient_energies(sys, c)
    for j in range(y.shape[1]):
        cj = gb.analyze(sys, y[:, j])
        for k in range(sys.q):
            close(c.levels[k][:, j], cj.levels[k])
        close(energies[:, j], coefficient_energies(sys, cj))
        e, m = gb.errors(op, u[:, j], y[:, j])
        close(energy[j], e)
        close(l2[j], m)
        close(norms[j], energy_norm(op, y[:, j]))


@settings(max_examples=40, deadline=None, derandomize=True)
@block_cases
def test_estimators_block_equals_columns(sys_1d_rough_q4, op_1d_rough_q4, t, seed, noise, t0):
    sys, op = sys_1d_rough_q4, op_1d_rough_q4
    cfg = gb.DenoiseConfig(d=1, q=sys.q, sigma=0.1)
    gamma = 0.1 * np.sqrt(chi_square_quantile(op.n, cfg.confidence))
    _, y = make_block(op, seed, t, noise, gamma)
    results = [(gb.level_filter, (l,)) for l in range(sys.q + 1)]
    results += [(gb.hard_threshold, (t0, cfg)), (gb.soft_threshold, (t0, cfg))]
    for fn, args in results:
        block = fn(sys, y, *args)
        for j in range(y.shape[1]):
            col = fn(sys, y[:, j], *args)
            close(block.recovered[:, j], col.recovered)
            close(block.level_energies[:, j], col.level_energies)
            close(block.energy[j], col.energy)

    block = gb.regularize(op, y, sigma=0.1)
    assert block.gamma == gamma
    for j in range(y.shape[1]):
        col = gb.regularize(op, y[:, j], sigma=0.1)
        if col.alpha is None:
            assert np.isnan(block.alpha[j])
            assert not block.recovered[:, j].any()
            continue
        assert abs(block.alpha[j] - col.alpha) <= ALPHA_RTOL * col.alpha
        close(block.recovered[:, j], col.recovered, rtol=ALPHA_RTOL)
        close(block.energy[j], col.energy, rtol=ALPHA_RTOL)
    assert np.isnan(block.alpha[-1])  # |y| = gamma / 2 is inside the ball

    exact = gb.regularize(op, y, sigma=0.0)  # gamma = 0 keeps every column
    close(exact.recovered, y)
    assert np.all(exact.alpha == 0.0)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    t=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
    mode=st.sampled_from(["random-sphere", "smooth-1d"]),
)
def test_gen_signal_block_equals_columns(sys_1d_rough_q4, op_1d_rough_q4, t, seed, mode):
    sys, op = sys_1d_rough_q4, op_1d_rough_q4

    def rngs():
        return [np.random.default_rng([seed, k]) for k in range(t)]

    block_rngs = rngs()
    f, u = gb.gen_signal(sys, op, mode, block_rngs)
    assert f.shape == u.shape == (op.n, t)
    for j, rng in enumerate(rngs()):
        fj, uj = gb.gen_signal(sys, op, mode, rng)
        np.testing.assert_array_equal(f[:, j], fj)
        close(u[:, j], uj)
        # generator j is left where the column call leaves it, so the noise drawn next agrees
        assert block_rngs[j].standard_normal() == rng.standard_normal()
