"""Operator assembly against an independently written quadrature oracle."""

import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse as sp

from cemporo.assembly import (DofMap, OperatorSet, assemble_load,
                              assemble_operators, layout)
from cemporo.cembasis import PatchSolver
from cemporo.grid import build_grids, oversample_element, partition_of_unity
from cemporo.material import MaterialField, synth_channels
from cemporo.spectral import build_aux_basis

# 3-point Gauss-Legendre on [0,1]: the polynomial forms are integrated
# exactly by both this and the module's 2-point rule, so agreement across
# rules checks the implementation, not the quadrature choice
_G3 = 0.5 + 0.5 * np.array([-np.sqrt(0.6), 0.0, np.sqrt(0.6)])
_W3 = 0.5 * np.array([5.0 / 9.0, 8.0 / 9.0, 5.0 / 9.0])

# the spectral weight forms are defined through the 2-point rule (the weight
# is sampled at those points), so their oracle uses the same points
_G2 = 0.5 + 0.5 * np.array([-1.0 / np.sqrt(3.0), 1.0 / np.sqrt(3.0)])
_W2 = np.array([0.5, 0.5])


def _shapes(xi, eta):
    n = np.array([(1 - xi) * (1 - eta), xi * (1 - eta),
                  (1 - xi) * eta, xi * eta])
    dxi = np.array([-(1 - eta), (1 - eta), -eta, eta])
    deta = np.array([-(1 - xi), -xi, (1 - xi), xi])
    return n, dxi, deta


def _oracle_matrices(grid, field, pou, cells=None):
    """Loop-and-accumulate assembly of every form over the given fine cells
    (all of them by default), all nodes."""
    nn = grid.n_fine_nodes
    A_u = np.zeros((2 * nn, 2 * nn))
    A_p = np.zeros((nn, nn))
    M_p = np.zeros((nn, nn))
    S_u = np.zeros((2 * nn, 2 * nn))
    S_p = np.zeros((nn, nn))
    D = np.zeros((nn, 2 * nn))
    hx, hy = grid.hx, grid.hy
    for c in range(grid.n_fine_cells) if cells is None else cells:
        nodes = grid.fine_cell_nodes([c])[0]
        udofs = np.column_stack([2 * nodes, 2 * nodes + 1]).ravel()
        lam = field.lam[c]
        mu = field.mu[c]
        mob = field.mobility[c]
        x0 = (c % grid.nfx) * hx
        y0 = (c // grid.nfx) * hy
        for a, xi in enumerate(_G3):
            for b, eta in enumerate(_G3):
                w = _W3[a] * _W3[b] * hx * hy
                n, dxi, deta = _shapes(xi, eta)
                gx = dxi / hx
                gy = deta / hy
                # strain operator rows exx, eyy, 2exy over interleaved dofs
                Bm = np.zeros((3, 8))
                Bm[0, 0::2] = gx
                Bm[1, 1::2] = gy
                Bm[2, 0::2] = gy
                Bm[2, 1::2] = gx
                C = np.diag([2 * mu, 2 * mu, mu])
                C[0, 1] = C[1, 0] = 0.0
                eps = Bm.copy()
                A_el = eps.T @ C @ eps
                divv = np.zeros(8)
                divv[0::2] = gx
                divv[1::2] = gy
                A_el += lam * np.outer(divv, divv)
                A_u[np.ix_(udofs, udofs)] += w * A_el
                A_p[np.ix_(nodes, nodes)] += w * mob * (np.outer(gx, gx)
                                                        + np.outer(gy, gy))
                M_p[np.ix_(nodes, nodes)] += \
                    w / field.biot_modulus * np.outer(n, n)
                D[np.ix_(nodes, udofs)] += w * field.alpha * np.outer(n, divv)
        for a, xi in enumerate(_G2):
            for b, eta in enumerate(_G2):
                w = _W2[a] * _W2[b] * hx * hy
                n, _, _ = _shapes(xi, eta)
                g = float(pou.grad_sq_sum(x0 + xi * hx, y0 + eta * hy))
                sp_el = w * mob * g * np.outer(n, n)
                S_p[np.ix_(nodes, nodes)] += sp_el
                su_el = w * (lam + 2 * mu) * g * np.outer(n, n)
                S_u[np.ix_(udofs[0::2], udofs[0::2])] += su_el
                S_u[np.ix_(udofs[1::2], udofs[1::2])] += su_el
    return A_u, A_p, M_p, S_u, S_p, D


@pytest.fixture(scope="module")
def setup():
    grid = build_grids(3, 2, 2)
    rng = np.random.default_rng(5)
    E = np.exp(rng.normal(size=grid.n_fine_cells))
    kappa = np.exp(rng.normal(size=grid.n_fine_cells))
    field = MaterialField(grid, E, kappa, 0.28, 0.7, 2.0, 1.5)
    pou = partition_of_unity(grid)
    ops = assemble_operators(grid, field)
    return grid, field, pou, ops


def test_all_forms_match_oracle(setup):
    grid, field, pou, ops = setup
    A_u, A_p, M_p, S_u, S_p, D = _oracle_matrices(grid, field, pou)
    npt.assert_allclose(ops.stiff_u_full.toarray(), A_u, atol=1e-12)
    npt.assert_allclose(ops.stiff_p_full.toarray(), A_p, atol=1e-13)
    npt.assert_allclose(ops.mass_p_full.toarray(), M_p, atol=1e-14)
    d = ops.dofs
    npt.assert_allclose(ops.aux_u.toarray(), S_u[np.ix_(d.u_dofs, d.u_dofs)],
                        atol=1e-10)
    npt.assert_allclose(ops.aux_p.toarray(),
                        S_p[np.ix_(d.p_nodes, d.p_nodes)], atol=1e-10)
    npt.assert_allclose(ops.coupling.toarray(),
                        D[np.ix_(d.p_nodes, d.u_dofs)], atol=1e-13)


def test_local_forms_match_oracle(setup):
    # the Neumann forms of each coarse cell, over all of its nodes, are the
    # oracle's sums over that cell's fine cells alone
    grid, field, pou, ops = setup
    for e in range(grid.n_coarse_cells):
        cells = grid.fine_cells_of_coarse_cell(e)
        A_u, A_p, _, S_u, S_p, _ = _oracle_matrices(grid, field, pou, cells)
        nodes, mats = ops.local_matrices(cells)
        npt.assert_array_equal(nodes, np.unique(grid.fine_cell_nodes(cells)))
        ip, iu = np.ix_(nodes, nodes), np.ix_(*[layout(nodes, "u")] * 2)
        npt.assert_allclose(mats["stiff_u"], A_u[iu], atol=1e-12)
        npt.assert_allclose(mats["stiff_p"], A_p[ip], atol=1e-13)
        npt.assert_allclose(mats["aux_u"], S_u[iu], atol=1e-10)
        npt.assert_allclose(mats["aux_p"], S_p[ip], atol=1e-10)


def test_operators_keep_no_element_matrices(setup):
    # the element matrices live only through the assembly and each
    # `local_matrices` call; the hats are the grid's own
    grid, _, _, ops = setup
    per_cell = [name for name, value in vars(ops).items()
                if getattr(value, "shape", (None,))[0] == grid.n_fine_cells]
    assert not per_cell
    assert "_cell_nodes" not in vars(ops)
    assert ops.pou.grid is ops.grid


def test_interior_restriction(setup):
    grid, _, _, ops = setup
    d = ops.dofs
    full = ops.stiff_p_full.toarray()
    npt.assert_array_equal(ops.stiff_p.toarray(),
                           full[np.ix_(d.p_nodes, d.p_nodes)])
    fullu = ops.stiff_u_full.toarray()
    npt.assert_array_equal(ops.stiff_u.toarray(),
                           fullu[np.ix_(d.u_dofs, d.u_dofs)])


def test_square_forms_are_exactly_symmetric_with_assembled_pattern(setup):
    # each square form is its assembled lower triangle mirrored, stored zeros
    # included: the same pattern as the element sum, every entry equal to
    # its transpose to the bit
    grid, _, _, ops = setup
    cell_nodes = grid.fine_cell_nodes()
    d = ops.dofs
    for family, index, names in (("p", d.p_nodes, ("stiff_p", "mass_p",
                                                    "aux_p")),
                                 ("u", d.u_dofs, ("stiff_u", "aux_u"))):
        dofs = layout(cell_nodes, family)
        k = dofs.shape[1]
        pattern = sp.csr_matrix(
            (np.ones(dofs.size * k), (np.repeat(dofs, k, axis=1).ravel(),
                                      np.tile(dofs, (1, k)).ravel())),
            shape=getattr(ops, names[0] + "_full").shape)
        for name in names:
            forms = [(getattr(ops, name), pattern[index][:, index])]
            if not name.startswith("aux"):  # no weight is kept on all nodes
                forms.append((getattr(ops, name + "_full"), pattern))
            for form, raw in forms:
                assert (form != form.T).nnz == 0, name
                assert form.nnz == raw.nnz, name


def test_stiffness_kernels(setup):
    grid, field, _, ops = setup
    # constants are in the kernel of the full Laplacian, rigid motions in the
    # kernel of the full elasticity form
    ones = np.ones(grid.n_fine_nodes)
    npt.assert_allclose(ops.stiff_p_full @ ones, 0.0, atol=1e-12)
    xy = grid.fine_node_xy(np.arange(grid.n_fine_nodes))
    for ux, uy in ((np.ones_like(xy[:, 0]), np.zeros_like(xy[:, 0])),
                   (np.zeros_like(xy[:, 0]), np.ones_like(xy[:, 0])),
                   (-xy[:, 1], xy[:, 0])):
        u = np.column_stack([ux, uy]).ravel()
        npt.assert_allclose(ops.stiff_u_full @ u, 0.0, atol=1e-12)


def test_interior_blocks_positive_definite(setup):
    _, _, _, ops = setup
    for mat in (ops.stiff_u, ops.stiff_p, ops.mass_p, ops.aux_u, ops.aux_p):
        w = np.linalg.eigvalsh(mat.toarray())
        assert w.min() > 0.0


def test_coupling_divergence_identity(setup):
    grid, field, _, ops = setup
    # for u = (x, 0) the divergence is one, so D u equals alpha times the
    # load vector of the unit source; the interior coupling leaves out the
    # boundary values, so compare at nodes with no boundary neighbour
    d = ops.dofs
    xy = grid.fine_node_xy(np.arange(grid.n_fine_nodes))
    u = np.column_stack([xy[:, 0], np.zeros(grid.n_fine_nodes)]).ravel()
    unit_load = assemble_load(grid, lambda t, x, y: np.ones_like(x))
    j, i = np.divmod(d.p_nodes, grid.nfx + 1)
    deep = (i > 1) & (i < grid.nfx - 1) & (j > 1) & (j < grid.nfy - 1)
    assert deep.any()
    npt.assert_allclose((ops.coupling @ u[d.u_dofs])[deep],
                        field.alpha * unit_load[d.p_nodes][deep], atol=1e-14)


def test_mass_total(setup):
    grid, field, _, ops = setup
    ones = np.ones(grid.n_fine_nodes)
    total = ones @ (ops.mass_p_full @ ones)
    npt.assert_allclose(total, 1.0 / field.biot_modulus, rtol=1e-13)


def test_single_cell_laplacian_stencil():
    # classic bilinear quad element matrix for a unit coefficient: diagonal
    # 2/3, edge neighbours -1/6, opposite corner -1/3 (size independent)
    grid = build_grids(1, 1, 1)
    field = MaterialField(grid, [1.0], [1.0], 0.2, 0.9, 1.0, 1.0)
    ops = assemble_operators(grid, field)
    expected = np.array([[4.0, -1.0, -1.0, -2.0],
                         [-1.0, 4.0, -2.0, -1.0],
                         [-1.0, -2.0, 4.0, -1.0],
                         [-2.0, -1.0, -1.0, 4.0]]) / 6.0
    npt.assert_allclose(ops.stiff_p_full.toarray(), expected, atol=1e-14)


def test_field_of_another_grid_is_refused():
    grid = build_grids(2, 2, 2)
    # a field with more cells than the grid would fill the grid's cells
    # from its first values
    for other in (build_grids(3, 2, 2), build_grids(3, 3, 2)):
        field = synth_channels(other, 1.0, 10.0, seed=1)
        for construct in (assemble_operators, OperatorSet):
            with pytest.raises(ValueError, match="different grid"):
                construct(grid, field)


def test_load_constant_and_sine():
    grid = build_grids(4, 4, 8)
    load = assemble_load(grid, lambda t, x, y: np.ones_like(x))
    npt.assert_allclose(load.sum(), 1.0, rtol=1e-13)
    f = lambda t, x, y: 2 * np.pi ** 2 * np.sin(np.pi * x) * np.sin(np.pi * y)
    load = assemble_load(grid, f)
    npt.assert_allclose(load.sum(), 8.0, rtol=2e-3)


def test_load_time_and_cell_array():
    grid = build_grids(2, 2, 2)
    load_t = assemble_load(grid, lambda t, x, y: t * np.ones_like(x), t=3.0)
    load_1 = assemble_load(grid, lambda t, x, y: np.ones_like(x))
    npt.assert_allclose(load_t, 3.0 * load_1, rtol=1e-14)
    vals = np.arange(1.0, grid.n_fine_cells + 1.0)
    load_c = assemble_load(grid, vals)
    npt.assert_allclose(load_c.sum(), vals.sum() * grid.hx * grid.hy,
                        rtol=1e-13)
    with pytest.raises(ValueError):
        assemble_load(grid, np.ones(3))


def test_dofmap_roundtrip():
    grid = build_grids(3, 3, 2)
    d = DofMap(grid)
    assert d.n_p == grid.interior_fine_nodes.size
    assert d.n_u == 2 * d.n_p
    v = np.random.default_rng(0).normal(size=d.n_p)
    npt.assert_array_equal(d.restrict_p(d.extend_p(v)), v)
    u = np.random.default_rng(1).normal(size=d.n_u)
    npt.assert_array_equal(d.extend_u(u)[d.u_dofs], u)
    # boundary nodes carry no interior position
    assert d.node_positions([0])[0] == -1
    with pytest.raises(ValueError, match="not an interior unknown"):
        d.index([0], "u")
    with pytest.raises(ValueError, match="no interior unknowns"):
        d.index(np.array([], dtype=np.int64), "p")
    # displacement positions interleave the pressure position of each node
    nodes = grid.interior_fine_nodes[[4, 0, 7]]
    p = d.index(nodes, "p")
    npt.assert_array_equal(d.p_nodes[p], nodes)
    npt.assert_array_equal(d.index(nodes, "u"),
                           np.column_stack([2 * p, 2 * p + 1]).ravel())
    # any family but "u" and "p" is rejected, not read as pressure
    with pytest.raises(ValueError, match="family"):
        d.index(nodes, "q")


def test_patch_restriction_submatrix(setup):
    grid, _, _, ops = setup
    patch = oversample_element(grid, 0, 1)
    aux = build_aux_basis(ops, 1)
    for family, form in (("p", ops.stiff_p), ("u", ops.stiff_u)):
        index = ops.dofs.index(patch.interior_fine_nodes, family)
        sub = form[np.ix_(index, index)].toarray()
        # the patch solver's stiffness is the slice of the global form
        solver = PatchSolver(ops, aux, patch, family)
        npt.assert_array_equal(solver.index, index)
        npt.assert_array_equal(solver.A.toarray(), sub)
    with pytest.raises(ValueError, match="family"):
        PatchSolver(ops, aux, patch, "q")


def test_disjoint_patch_union_is_block_diagonal():
    grid = build_grids(4, 4, 2)
    field = synth_channels(grid, 1.0, 10.0, seed=2)
    ops = assemble_operators(grid, field)
    a = oversample_element(grid, 0, 0)
    b = oversample_element(grid, 15, 0)
    idx_a, idx_b = (ops.dofs.index(q.interior_fine_nodes, "p")
                    for q in (a, b))
    idx_u = np.concatenate([idx_a, idx_b])
    merged = sp.block_diag([ops.stiff_p[idx_a][:, idx_a],
                            ops.stiff_p[idx_b][:, idx_b]]).toarray()
    npt.assert_array_equal(ops.stiff_p[idx_u][:, idx_u].toarray(), merged)
