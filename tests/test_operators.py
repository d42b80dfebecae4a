"""Coefficient fields, FEM assembly, graph Laplacians, overlap integrals."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import gamblets as gb
from gamblets import BadConfig, DimensionMismatch, Disconnected
from gamblets.operators import make_graph, measurement_overlap, parse_graph


# ---------------------------------------------------------------------------
# Coefficient fields.

def test_coeff_unit_is_one():
    x = np.linspace(0, 1, 11)
    assert_allclose(gb.coeff_unit(1)(x), np.ones(11))
    assert_allclose(gb.coeff_unit(2)(x, x), np.ones(11))


def test_coeff_1d_frozen_values():
    a = gb.coeff_1d()
    assert_allclose(a(np.array([0.0])), [9.31322574615478515625], rtol=1e-12)
    assert_allclose(a(np.array([0.5])), [0.50851467], rtol=1e-6)


def test_coeff_1d_bounded_positive():
    x = np.linspace(0, 1, 2001)
    vals = gb.coeff_1d()(x)
    assert vals.min() > 0
    assert vals.max() / vals.min() < 1e5


def test_coeff_2d_frozen_origin():
    a = gb.coeff_2d()
    assert_allclose(a(np.array([0.0]), np.array([0.0])), [1.5625 ** 7], rtol=1e-12)
    x = np.linspace(0, 1, 41)
    xx, yy = np.meshgrid(x, x)
    assert gb.coeff_2d()(xx.ravel(), yy.ravel()).min() > 0


def test_coeff_from_cells_piecewise_constant():
    field = gb.coeff_from_cells(np.array([1.0, 2.0, 3.0, 4.0]), 1)
    assert_allclose(field(np.array([0.1, 0.3, 0.6, 0.9])), [1, 2, 3, 4])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_coeff_from_cells_rejects_non_finite(bad):
    # NaN passes a bare min() <= 0 check and inf is positive
    with pytest.raises(BadConfig, match="finite"):
        gb.coeff_from_cells(np.array([1.0, bad, 3.0, 4.0]), 1)


# ---------------------------------------------------------------------------
# FEM assembly.

def test_fem_1d_unit_q2_closed_form():
    # 4 interior nodes at spacing 1/5: stiffness (1/h) tridiag(-1,2,-1),
    # mass h tridiag(1/6, 2/3, 1/6).
    op = gb.assemble_fem(gb.coeff_unit(1), gb.build_dyadic(1, 2))
    expected = 5.0 * (np.diag(np.full(4, 2.0)) + np.diag(np.full(3, -1.0), 1) + np.diag(np.full(3, -1.0), -1))
    assert_allclose(op.A, expected, atol=1e-12)
    mass = np.diag(np.full(4, 2 / 15)) + np.diag(np.full(3, 1 / 30), 1) + np.diag(np.full(3, 1 / 30), -1)
    assert_allclose(op.mass, mass, atol=1e-14)
    assert op.mesh_width == pytest.approx(1 / 5)
    assert op.kind == "pde-1d"
    assert op.node_coords.shape == (4, 1)


@pytest.mark.parametrize("q", [2, 3])
def test_fem_2d_unit_closed_form(q):
    # Bilinear elements on a uniform grid, all neighbours interior or dropped:
    # stiffness (8 on the diagonal, -1 on each of the 8 neighbours)/3,
    # mass h^2/36 (16 on the diagonal, 4 on the edge and 1 on the corner neighbours).
    op = gb.assemble_fem(gb.coeff_unit(2), gb.build_dyadic(2, q))
    n = 2 ** q
    h = 1 / (n + 1)
    assert op.mesh_width == pytest.approx(h)
    band = np.eye(n) + np.eye(n, k=1) + np.eye(n, k=-1)  # self and both 1D neighbours
    assert_allclose(op.A, (9 * np.eye(n * n) - np.kron(band, band)) / 3, rtol=1e-12, atol=1e-12)
    t = 4 * np.eye(n) + np.eye(n, k=1) + np.eye(n, k=-1)
    assert_allclose(op.mass, h ** 2 / 36 * np.kron(t, t), rtol=1e-12, atol=1e-16)


def test_fem_scales_linearly_in_coefficient():
    hier = gb.build_dyadic(1, 3)
    a1 = gb.assemble_fem(gb.coeff_from_cells(np.full(8, 1.0), 1), hier).A
    a3 = gb.assemble_fem(gb.coeff_from_cells(np.full(8, 3.0), 1), hier).A
    assert_allclose(a3, 3.0 * a1, rtol=1e-12)


@pytest.mark.parametrize("dim,q", [(1, 5), (2, 3)])
def test_fem_rough_spd(dim, q):
    field = gb.coeff_1d() if dim == 1 else gb.coeff_2d()
    op = gb.assemble_fem(field, gb.build_dyadic(dim, q))
    assert op.n == (2 ** dim) ** q
    assert_allclose(op.A, op.A.T)
    assert np.linalg.eigvalsh(op.A).min() > 0
    assert np.linalg.eigvalsh(op.mass).min() > 0


@pytest.mark.parametrize(
    "make",
    [
        lambda: gb.assemble_fem(gb.coeff_1d(), gb.build_dyadic(1, 6)),
        lambda: gb.assemble_fem(gb.coeff_2d(), gb.build_dyadic(2, 4)),
        lambda: gb.grounded_laplacian(gb.synthetic_grid(32)),
    ],
    ids=["fem-1d", "fem-2d", "grid32"],
)
def test_assembled_operators_exactly_symmetric(make):
    # symmetric local matrices scattered in element order: no symmetrize needed
    op = make()
    assert np.array_equal(op.A, op.A.T)
    assert np.array_equal(op.mass, op.mass.T)


def test_fem_rejects_mismatched_hierarchy():
    with pytest.raises(DimensionMismatch):
        gb.assemble_fem(gb.coeff_unit(2), gb.build_dyadic(1, 3))


# ---------------------------------------------------------------------------
# Graphs.

def test_path_graph_grounded_laplacian():
    g = make_graph(np.array([[0, 0], [0.5, 0], [1, 0]]), np.array([[0, 1], [1, 2]]))
    op = gb.grounded_laplacian(g)
    assert_allclose(op.A, [[2, -1], [-1, 1]])
    assert op.kind == "graph"
    assert_allclose(op.mass, np.eye(2))


def test_single_edge_grounded_laplacian():
    g = make_graph(np.array([[0, 0], [1, 1]]), np.array([[0, 1]]))
    assert_allclose(gb.grounded_laplacian(g).A, [[1.0]])


def test_grid_graph_counts_and_spd():
    g = gb.synthetic_grid(8)
    assert g.n == 64
    assert g.edges.shape == (2 * 8 * 7, 2)
    op = gb.grounded_laplacian(g)
    assert op.n == 63
    assert np.linalg.eigvalsh(op.A).min() > 0
    assert op.node_coords.min() >= 0 and op.node_coords.max() <= 1


def test_grounding_drops_named_vertex():
    g = gb.synthetic_grid(3, ground=4)
    op = gb.grounded_laplacian(g)
    # interior vertex of a 3x3 grid has degree 4
    assert op.n == 8
    assert_allclose(np.diag(op.A), [2, 3, 2, 3, 3, 2, 3, 2])


def test_make_graph_rejects_bad_ground_and_edges():
    coords = np.array([[0, 0], [1, 1]])
    with pytest.raises(BadConfig):
        make_graph(coords, np.array([[0, 1]]), ground=5)
    with pytest.raises(BadConfig):
        make_graph(coords, np.array([[0, 2]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_make_graph_rejects_non_finite_coordinates(bad):
    coords = np.array([[0.0, 0.0], [bad, 1.0], [1.0, 0.0]])
    with pytest.raises(BadConfig, match="finite"):
        make_graph(coords, np.array([[0, 1], [1, 2]]))
    # a graph file reaches the same check through parse_graph
    with pytest.raises(BadConfig, match="finite"):
        parse_graph(f"3 2\n0 0 0\n1 {bad} 1\n2 1 0\n0 1\n1 2\n")


def test_disconnected_graph_rejected():
    coords = np.array([[0, 0], [0, 1], [1, 0], [1, 1]])
    with pytest.raises(Disconnected):
        gb.grounded_laplacian(make_graph(coords, np.array([[0, 1], [2, 3]])))


def test_parse_graph_round_trip():
    text = """# a 3-vertex path
3 2
0 0.0 0.0
1 0.5 0.0
2 1.0 0.0
0 1
1 2
"""
    g = parse_graph(text)
    assert g.n == 3
    assert_allclose(gb.grounded_laplacian(g).A, [[2, -1], [-1, 1]])


@pytest.mark.parametrize(
    "text",
    [
        "nonsense",
        "3 2\n0 0 0\n1 1 1\n2 1 0\n0 1\n",  # edge count off
        "2 1\n0 0\n1 1 1\n0 1\n",  # vertex line too short
        "2 1\n0 0 0\n0 1 1\n0 1\n",  # repeated index
        "2 x\n0 0 0\n1 1 1\n0 1\n",  # header count not a number
        "2 1\n0 0 zero\n1 1 1\n0 1\n",  # vertex coordinate not a number
        "2 1\n0 0 0\n1 1 1\n0 one\n",  # edge endpoint not a number
        "-1 2\n0 1\n",  # negative vertex count
    ],
)
def test_parse_graph_rejects_malformed(text):
    with pytest.raises(BadConfig):
        parse_graph(text)


# ---------------------------------------------------------------------------
# Measurement overlap integrals.

def test_overlap_constant_function_gives_tent_integrals():
    hier = gb.build_dyadic(1, 3)
    op = gb.assemble_fem(gb.coeff_1d(), hier)
    o = measurement_overlap(hier, op)
    w = 1 / hier.n_fine
    coeffs_of_one = np.full(hier.n_fine, np.sqrt(w))
    assert_allclose(o @ coeffs_of_one, np.full(op.n, op.mesh_width), rtol=1e-12)


def test_overlap_matches_quadrature_oracle():
    hier = gb.build_dyadic(1, 4)
    op = gb.assemble_fem(gb.coeff_1d(), hier)
    o = measurement_overlap(hier, op)
    n = hier.n_fine
    w = 1 / n
    rng = np.random.default_rng(9)
    cell_values = rng.standard_normal(n)

    # brute force: composite midpoint rule for int f(x) tent_i(x) dx with
    # f piecewise constant on the cells
    xs = np.linspace(0, 1, 200001)[:-1] + 0.5 / 200000
    f = cell_values[np.minimum((xs * n).astype(int), n - 1)]
    hm = op.mesh_width
    centers = (np.arange(op.n) + 1) * hm
    expected = np.empty(op.n)
    for i, c in enumerate(centers):
        tent = np.clip(1 - np.abs(xs - c) / hm, 0, None)
        expected[i] = np.sum(f * tent) / 200000

    got = o @ (np.sqrt(w) * cell_values)
    assert_allclose(got, expected, atol=2e-7)


def test_overlap_2d_constant_function():
    hier = gb.build_dyadic(2, 2)
    op = gb.assemble_fem(gb.coeff_unit(2), hier)
    o = measurement_overlap(hier, op)
    w = 1 / 4  # cells per axis = 4, area 1/16, coeff of f=1 is sqrt(area)
    coeffs_of_one = np.full(hier.n_fine, w)
    tent_volume = op.mesh_width ** 2  # product tent integrates to hm^2
    assert_allclose(o @ coeffs_of_one, np.full(op.n, tent_volume), rtol=1e-10)
