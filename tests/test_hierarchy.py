"""Nested-partition structure: aggregation and detail filters."""

import logging

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.sparse import csr_array

import gamblets as gb
from gamblets import BadConfig, EmptyPointSet, TooLarge, UnsupportedDim
from gamblets.hierarchy import hierarchy_from_json
from oracles import pi_prod

S = 1 / np.sqrt(2)


def test_dyadic_1d_q2_filters_frozen():
    h = gb.build_dyadic(1, 2)
    assert h.sizes == [2, 4]
    assert h.j_sizes == [2, 2]
    assert_allclose(h.pi_of(1), [[S, S, 0, 0], [0, 0, S, S]])
    assert_allclose(h.w_of(2), [[S, -S, 0, 0], [0, 0, S, -S]])


def test_dyadic_2d_q2_filters_frozen():
    h = gb.build_dyadic(2, 2)
    # level-2 labels (flat ix * 4 + iy) of each parent's SW, SE, NW, NE child
    children = [[0, 4, 1, 5], [2, 6, 3, 7], [8, 12, 9, 13], [10, 14, 11, 15]]
    patterns = np.array([[1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]]) / 2
    pi = np.zeros((4, 16))
    w = np.zeros((12, 16))
    for p, cols in enumerate(children):
        pi[p, cols] = 0.5
        w[3 * p : 3 * p + 3, cols] = patterns
    np.testing.assert_array_equal(h.pi_of(1), pi)
    np.testing.assert_array_equal(h.w_of(2), w)


def test_dyadic_2d_q2_shapes():
    h = gb.build_dyadic(2, 2)
    assert h.sizes == [4, 16]
    assert h.pi_of(1).shape == (4, 16)
    assert h.w_of(2).shape == (12, 16)


@pytest.mark.parametrize("dim,q", [(1, 2), (1, 3), (1, 4), (2, 2), (2, 3)])
def test_dyadic_filter_orthogonality(dim, q):
    """[pi; W] stacked has orthonormal rows at every level."""
    h = gb.build_dyadic(dim, q)
    assert h.sizes == [(2 ** dim) ** k for k in range(1, q + 1)]
    for k in range(2, q + 1):
        pi = h.pi_of(k - 1)
        w = h.w_of(k)
        n = h.sizes[k - 1]
        stacked = np.vstack([pi, w])
        assert stacked.shape == (n, n)
        assert_allclose(stacked @ stacked.T, np.eye(n), rtol=0, atol=1e-12)


def test_pi_prod_composes():
    h = gb.build_dyadic(1, 4)
    assert_allclose(pi_prod(h, 1, 4), h.pi_of(1) @ h.pi_of(2) @ h.pi_of(3), atol=1e-14)
    assert_allclose(pi_prod(h, 3, 3), np.eye(h.sizes[2]), atol=0)


# ---------------------------------------------------------------------------
# Point hierarchies.

def test_points_pi_rows_unit_norm():
    rng = np.random.default_rng(0)
    pts = rng.uniform(size=(40, 2))
    h = gb.build_from_points(pts, 3)
    assert h.kind == "points"
    for k in range(1, h.q):
        pi = h.pi_of(k)
        assert_allclose(np.sum(pi ** 2, axis=1), 1.0, atol=1e-12)
    # every input point is assigned a fine box
    assert h.point_fine_label.shape == (40,)
    assert h.point_fine_label.max() < h.n_fine


def test_points_detail_rows_orthonormal():
    rng = np.random.default_rng(1)
    pts = rng.uniform(size=(64, 2))
    h = gb.build_from_points(pts, 3)
    for k in range(2, h.q + 1):
        stacked = np.vstack([h.pi_of(k - 1), h.w_of(k)])
        assert_allclose(stacked @ stacked.T, np.eye(h.sizes[k - 1]), atol=1e-12)


def test_points_degenerate_level_merged(caplog):
    # One point per quadrant: the level-2 boxes repeat the level-1 split,
    # so the coarser level carries no detail and is dropped.
    pts = np.array([[0.25, 0.25], [0.25, 0.75], [0.75, 0.25], [0.75, 0.75]])
    with caplog.at_level(logging.WARNING):
        h = gb.build_from_points(pts, 2)
    assert h.q == 1
    assert h.sizes == [4]
    assert h.merged_levels == (1,)
    assert any("degenerate" in rec.message for rec in caplog.records)


def test_points_single_point_collapses():
    h = gb.build_from_points(np.array([[0.5, 0.5]]), 3)
    assert h.q == 1
    assert h.sizes == [1]
    assert h.merged_levels == (1, 2)


def test_points_rejects_empty_and_oversized():
    with pytest.raises(EmptyPointSet):
        gb.build_from_points(np.empty((0, 2)), 2)
    with pytest.raises(TooLarge):
        gb.build_from_points(np.linspace(0, 1, 4097).reshape(-1, 1), 2)
    with pytest.raises(EmptyPointSet):
        gb.build_from_points(np.array([[1.5, 0.5]]), 2)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_points_rejects_non_finite(bad):
    with pytest.raises(BadConfig, match="finite"):
        gb.build_from_points(np.array([[0.5, 0.5], [bad, 0.25]]), 2)


def test_rejects_unsupported_dimension():
    with pytest.raises(UnsupportedDim):
        gb.build_dyadic(3, 2)
    with pytest.raises(UnsupportedDim):
        gb.build_from_points(np.zeros((4, 3)), 2)


def _grid_points_hierarchy():
    """The 8x8 grid graph's points at q = 4: level 3 already gives every point its own box."""
    h = gb.build_from_points(gb.grounded_laplacian(gb.synthetic_grid(8)).node_coords, 4)
    assert h.merged_levels
    return h


@pytest.mark.parametrize(
    "make",
    [lambda: gb.build_dyadic(1, 4), lambda: gb.build_dyadic(2, 3), _grid_points_hierarchy],
    ids=["dyadic-1d-q4", "dyadic-2d-q3", "grid8-points-merged"],
)
def test_sparse_filters_equal_dense(make):
    """filters(k) hands out csr_arrays made once, equal to w_of(k) and pi_of(k-1) entry for entry."""
    h = make()
    for k in range(2, h.q + 1):
        W, pi = h.filters(k)
        assert type(W) is csr_array and type(pi) is csr_array
        assert np.array_equal(W.toarray(), h.w_of(k)) and W.nnz == np.count_nonzero(h.w_of(k))
        assert np.array_equal(pi.toarray(), h.pi_of(k - 1)) and pi.nnz == np.count_nonzero(h.pi_of(k - 1))
        assert h.filters(k)[0] is W and h.filters(k)[1] is pi


def test_json_round_trip(hier_1d_q4):
    back = hierarchy_from_json(hier_1d_q4.to_json())
    assert back.sizes == hier_1d_q4.sizes
    assert back.dim == hier_1d_q4.dim
    for k in range(1, back.q):
        assert_allclose(back.pi_of(k), hier_1d_q4.pi_of(k), atol=0)
    assert back.to_json() == hier_1d_q4.to_json()


# ---------------------------------------------------------------------------
# The stored recipe.

def assert_same_hierarchy(back, h):
    """Every field the builders derive, compared bit for bit."""
    assert (back.kind, back.dim, back.q) == (h.kind, h.dim, h.q)
    assert back.sizes == h.sizes
    assert back.merged_levels == h.merged_levels
    for got, want in zip(back.pi + back.w, h.pi + h.w, strict=True):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    if h.kind == "points":
        assert np.array_equal(back.point_fine_label, h.point_fine_label)
        assert back.coords.tobytes() == h.coords.tobytes()
    assert back.to_json() == h.to_json()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(dim=st.integers(1, 2), q=st.integers(1, 4))
def test_dyadic_recipe_rebuilds_bit_for_bit(dim, q):
    h = gb.build_dyadic(dim, q)
    assert_same_hierarchy(hierarchy_from_json(h.to_json()), h)


# Coordinates on the quarter grid repeat boxes across levels, so those
# sets merge degenerate levels; arbitrary floats exercise the exact JSON
# round trip of the coordinates.
_coordinate = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]), st.floats(0.0, 1.0))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data(), dim=st.integers(1, 2), n=st.integers(1, 40), q=st.integers(1, 5))
def test_points_recipe_rebuilds_bit_for_bit(data, dim, n, q):
    pts = np.array(data.draw(st.lists(_coordinate, min_size=n * dim, max_size=n * dim))).reshape(n, dim)
    h = gb.build_from_points(pts, q)
    assert h.q + len(h.merged_levels) == q
    assert_same_hierarchy(hierarchy_from_json(h.to_json()), h)


@pytest.mark.parametrize(
    "doc,match",
    [
        ({"kind": "dyadic", "dim": 1}, "'q'"),
        ({"kind": "points", "dim": 1, "q": 2}, "'coords'"),
        ({"kind": "cells", "dim": 1, "q": 2}, "unknown kind"),
    ],
)
def test_recipe_rejects_malformed(doc, match):
    with pytest.raises(BadConfig, match=match):
        hierarchy_from_json(json.dumps(doc))


def test_recipe_load_reruns_builder_checks():
    doc = {"kind": "points", "dim": 2, "q": 2, "coords": [[0.5, 1.5]]}
    with pytest.raises(EmptyPointSet, match="unit box"):
        hierarchy_from_json(json.dumps(doc))
