"""Grid pairs, patches, oversampling and the partition of unity."""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cemporo.grid import (GridPair, Patch, build_grids, oversample_element,
                          oversample_neighborhood, partition_of_unity)


def test_counts_square():
    g = build_grids(10, 10, 10)
    assert g.n_coarse_cells == 100
    assert g.nfx == g.nfy == 100
    assert g.n_fine_nodes == 101 * 101
    assert g.interior_fine_nodes.size == 99 * 99
    assert g.interior_coarse_nodes.size == 81
    assert g.H == pytest.approx(0.1)
    assert g.h == pytest.approx(0.01)


def test_mesh_sizes_take_the_larger_side():
    g = build_grids(4, 2, 3)
    assert (g.Hx, g.Hy) == (0.25, 0.5)
    assert g.H == 0.5
    assert g.h == g.hy == pytest.approx(0.5 / 3)


def test_counts_rectangular():
    g = build_grids(1, 1, 4)
    assert g.n_coarse_cells == 1
    assert g.n_fine_cells == 16
    assert g.interior_coarse_nodes.size == 0

    g = build_grids(20, 20, 10)
    assert g.n_fine_cells == 200 * 200
    assert g.interior_coarse_nodes.size == 19 * 19


def test_invalid_sizes():
    with pytest.raises(ValueError):
        GridPair(0, 1, 2)
    with pytest.raises(ValueError):
        GridPair(2, 2, 0)


@pytest.mark.parametrize("counts", [(2.5, 2, 2), (True, 2, 2), (2, 2.0, 2),
                                    (2, 2, np.float64(3.0))])
def test_non_integral_counts_are_refused(counts):
    # a float or a bool would otherwise be truncated to some other mesh
    with pytest.raises(TypeError, match="integers"):
        build_grids(*counts)


def test_numpy_integer_counts_are_accepted():
    g = build_grids(np.int64(3), 2, np.int32(2))
    assert (g.ncx, g.ncy, g.refinement) == (3, 2, 2)


def test_fine_cell_nodes_order():
    # on a 1x1 coarse grid refined 4x, cell 5 sits at (i=1, j=1)
    g = build_grids(1, 1, 4)
    nodes = g.fine_cell_nodes([5])[0]
    npt.assert_array_equal(nodes, [6, 7, 11, 12])
    xy = g.fine_node_xy(nodes)
    npt.assert_allclose(xy[:, 0], [0.25, 0.5, 0.25, 0.5])
    npt.assert_allclose(xy[:, 1], [0.25, 0.25, 0.5, 0.5])


def test_coarse_of_fine_roundtrip():
    g = build_grids(3, 2, 5)
    for c in range(g.n_coarse_cells):
        fc = g.fine_cells_of_coarse_cell(c)
        assert fc.size == 25
        r = g.refinement
        parent = (fc // g.nfx) // r * g.ncx + (fc % g.nfx) // r
        npt.assert_array_equal(parent, c)


def _expand_by_touching(grid, cells, layers):
    """Reference oversampling: closure under sharing at least one node."""
    corners = {}
    for c in range(grid.n_coarse_cells):
        i, j = c % grid.ncx, c // grid.ncx
        corners[c] = {(i + di, j + dj) for di in (0, 1) for dj in (0, 1)}
    current = set(int(c) for c in cells)
    for _ in range(layers):
        touched = set()
        pts = set().union(*(corners[c] for c in current))
        for c in range(grid.n_coarse_cells):
            if corners[c] & pts:
                touched.add(c)
        current |= touched
    return np.array(sorted(current))


def _cells_touching(grid, node):
    """Coarse cells having the coarse node as a corner."""
    i, j = node % (grid.ncx + 1), node // (grid.ncx + 1)
    return [cj * grid.ncx + ci for cj in (j - 1, j) for ci in (i - 1, i)
            if 0 <= ci < grid.ncx and 0 <= cj < grid.ncy]


def _interior_by_incident_cells(grid, cells):
    """Reference interior nodes: the fine nodes whose four incident fine
    cells all exist and have their coarse parent among `cells`."""
    member = np.zeros(grid.n_coarse_cells, dtype=bool)
    member[cells] = True
    r = grid.refinement
    nodes = []
    for j in range(1, grid.nfy):
        for i in range(1, grid.nfx):
            if all(member[(j + dj) // r * grid.ncx + (i + di) // r]
                   for di in (-1, 0) for dj in (-1, 0)):
                nodes.append(j * (grid.nfx + 1) + i)
    return np.array(nodes, dtype=np.int64)


@pytest.mark.parametrize("element,layers", [(0, 1), (0, 2), (7, 1), (12, 2),
                                            (19, 3), (10, 0)])
def test_oversample_element_matches_set_expansion(element, layers):
    g = build_grids(5, 4, 2)
    patch = oversample_element(g, element, layers)
    expected = _expand_by_touching(g, [element], layers)
    npt.assert_array_equal(patch.cells, expected)


def test_oversample_neighborhood_matches_set_expansion():
    g = build_grids(5, 4, 2)
    for node in (7, 12, 0, 5):
        seed = _cells_touching(g, node)
        for layers in (0, 1, 2):
            patch = oversample_neighborhood(g, node, layers)
            expected = _expand_by_touching(g, seed, layers)
            npt.assert_array_equal(patch.cells, expected)


def test_oversample_clips_at_domain_corner():
    g = build_grids(4, 4, 2)
    patch = oversample_element(g, 0, 2)
    npt.assert_array_equal(
        patch.cells, [0, 1, 2, 4, 5, 6, 8, 9, 10])
    full = oversample_element(g, 5, 10)
    assert full.rect == (0, 3, 0, 3)
    npt.assert_array_equal(full.cells, np.arange(g.n_coarse_cells))


def test_patch_interior_nodes():
    g = build_grids(3, 3, 2)
    # single coarse cell in the domain corner: interior nodes of the patch
    # are the strictly inside fine nodes of that cell
    patch = oversample_element(g, 0, 0)
    assert patch.interior_fine_nodes.size == 1
    xy = g.fine_node_xy(patch.interior_fine_nodes)
    npt.assert_allclose(xy, [[1.0 / 6.0, 1.0 / 6.0]])
    # covering patch: interior nodes are the interior of the domain
    cover = oversample_element(g, 4, 3)
    npt.assert_array_equal(cover.cells, np.arange(g.n_coarse_cells))
    npt.assert_array_equal(cover.interior_fine_nodes, g.interior_fine_nodes)


def test_patch_rejects_bad_cells():
    g = build_grids(2, 2, 2)
    # rectangles reaching outside the 2x2 grid, then reversed bounds
    for rect in ((-1, 0, 0, 0), (0, 2, 0, 0), (0, 0, -1, 1), (0, 1, 0, 2),
                 (1, 0, 0, 0), (0, 0, 1, 0)):
        with pytest.raises(ValueError, match="outside the coarse grid"):
            Patch(g, *rect)
    with pytest.raises(ValueError):
        oversample_element(g, -1, 0)
    with pytest.raises(ValueError):
        oversample_neighborhood(g, 99, 0)
    for oversample in (oversample_element, oversample_neighborhood):
        with pytest.raises(ValueError, match="layers"):
            oversample(g, 0, -1)


def test_pou_sums_to_one_everywhere():
    g = build_grids(10, 10, 5)
    pou = partition_of_unity(g)
    nodes = np.arange(g.n_fine_nodes)
    vals = np.column_stack([pou.values(m, nodes)
                            for m in range(g.n_coarse_nodes)])
    npt.assert_allclose(vals.sum(axis=1), 1.0, atol=1e-14)
    assert vals.min() >= 0.0 and vals.max() <= 1.0


def test_pou_nodal_values():
    g = build_grids(4, 4, 3)
    pou = partition_of_unity(g)
    # every hat equals one at its own coarse node, zero at the others
    for m in range(g.n_coarse_nodes):
        v = pou.values(m, np.arange(g.n_fine_nodes))
        m_all = np.arange(g.n_coarse_nodes)
        fi = m_all % (g.ncx + 1) * g.refinement
        fj = m_all // (g.ncx + 1) * g.refinement
        at_coarse = v[fj * (g.nfx + 1) + fi]
        expected = np.zeros(g.n_coarse_nodes)
        expected[m] = 1.0
        npt.assert_allclose(at_coarse, expected, atol=1e-14)


def test_pou_grad_sq_sum_closed_form():
    g = build_grids(5, 5, 4)
    pou = partition_of_unity(g)
    # at a coarse cell center the four incident hats each have squared
    # gradient (0.5/H)^2 * 2, so the sum is 2/H^2... evaluated directly:
    val = pou.grad_sq_sum(np.array([0.1]), np.array([0.1]))
    npt.assert_allclose(val, [2.0 * 0.5 / g.Hx ** 2 + 2.0 * 0.5 / g.Hy ** 2])
    # compare against a finite-difference evaluation of the hat gradients
    x = np.array([0.033])
    y = np.array([0.147])
    eps = 1e-7
    total = 0.0
    for m in range(g.n_coarse_nodes):
        gx = (pou._hat(m, x + eps, y) - pou._hat(m, x - eps, y)) / (2 * eps)
        gy = (pou._hat(m, x, y + eps) - pou._hat(m, x, y - eps)) / (2 * eps)
        total += gx ** 2 + gy ** 2
    npt.assert_allclose(pou.grad_sq_sum(x, y), total, rtol=1e-6)


@settings(max_examples=25, deadline=None)
@given(ncx=st.integers(1, 5), ncy=st.integers(1, 5),
       refinement=st.integers(1, 4))
def test_pou_partition_property(ncx, ncy, refinement):
    g = build_grids(ncx, ncy, refinement)
    pou = partition_of_unity(g)
    nodes = np.arange(g.n_fine_nodes)
    sums = sum(pou.values(m, nodes) for m in range(g.n_coarse_nodes))
    npt.assert_allclose(sums, 1.0, atol=1e-13)


@settings(max_examples=25, deadline=None)
@given(ncx=st.integers(2, 6), ncy=st.integers(2, 6),
       element=st.integers(0, 35), layers=st.integers(0, 3))
def test_oversample_property(ncx, ncy, element, layers):
    g = build_grids(ncx, ncy, 2)
    element = element % g.n_coarse_cells
    patch = oversample_element(g, element, layers)
    expected = _expand_by_touching(g, [element], layers)
    npt.assert_array_equal(patch.cells, expected)


@settings(max_examples=25, deadline=None)
@given(ncx=st.integers(1, 6), ncy=st.integers(1, 6),
       refinement=st.integers(1, 4), layers=st.integers(0, 3))
def test_rectangle_patches_match_set_oracles(ncx, ncy, refinement, layers):
    # every element and every coarse node, boundary nodes included
    g = build_grids(ncx, ncy, refinement)
    seeds = [(oversample_element(g, e, layers), [e])
             for e in range(g.n_coarse_cells)]
    seeds += [(oversample_neighborhood(g, m, layers), _cells_touching(g, m))
              for m in range(g.n_coarse_nodes)]
    for patch, seed in seeds:
        cells = _expand_by_touching(g, seed, layers)
        npt.assert_array_equal(patch.cells, cells)
        expected = _interior_by_incident_cells(g, cells)
        assert patch.interior_fine_nodes.dtype == expected.dtype
        npt.assert_array_equal(patch.interior_fine_nodes, expected)
