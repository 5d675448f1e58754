"""Multiscale basis construction: patch solves, decay, projections."""

import json
import os
import weakref

import numpy as np
import numpy.testing as npt
import pytest

from cemporo import cembasis
from cemporo.assembly import assemble_operators
from cemporo.cembasis import (MultiscaleSpace, PatchSolver,
                              build_element_basis, build_global_basis_oracle,
                              build_offline_basis, galerkin_project)
from cemporo.grid import build_grids, oversample_element, partition_of_unity
from cemporo.material import synth_channels
from cemporo.spectral import build_aux_basis


@pytest.fixture(scope="module")
def setup():
    grid = build_grids(4, 4, 2)
    field = synth_channels(grid, 1.0, 100.0, seed=6)
    pou = partition_of_unity(grid)
    ops = assemble_operators(grid, field, pou)
    aux = build_aux_basis(ops, 2)
    return grid, ops, aux


def _dense_global_solve(ops, aux, family, rhs_col):
    """Penalized global system assembled and solved densely."""
    if family == "u":
        A = ops.stiff_u.toarray()
        U = (ops.aux_u @ aux.R_u).toarray()
    else:
        A = ops.stiff_p.toarray()
        U = (ops.aux_p @ aux.R_p).toarray()
    rhs = U[:, rhs_col]
    return np.linalg.solve(A + U @ U.T, rhs), rhs


def test_global_patch_matches_dense_solve(setup):
    grid, ops, aux = setup
    space = build_global_basis_oracle(ops, aux)
    for family, basis in (("u", space.basis_u), ("p", space.basis_p)):
        for col in (0, 5, 17):
            expected, _ = _dense_global_solve(ops, aux, family, col)
            mine = np.asarray(basis[:, col].todense()).ravel()
            scale = np.linalg.norm(expected)
            npt.assert_allclose(mine, expected, atol=1e-11 * scale)


def test_offline_columns_satisfy_defining_equation(setup):
    grid, ops, aux = setup
    space = build_offline_basis(ops, aux, 1)
    for family, basis, origin in (("u", space.basis_u, space.origin_u),
                                  ("p", space.basis_p, space.origin_p)):
        solver = None
        for j, org in enumerate(origin):
            patch = oversample_element(grid, org["element"], org["layers"])
            # columns of one element are consecutive: reuse its solver
            if solver is None or not np.array_equal(solver.patch.cells,
                                                    patch.cells):
                solver = PatchSolver(ops, aux, patch, family)
            pos = int(np.searchsorted(solver.aux_cols,
                                      org["element"] * 2 + org["mode"]))
            rhs = np.asarray(solver.U[:, pos].todense()).ravel()
            psi = np.asarray(basis[:, j].todense()).ravel()[solver.index]
            res = solver.residual(psi, rhs)
            assert res <= 1e-12 * np.linalg.norm(rhs)


# on 4x4 cells, 2 layers give 3 distinct patch intervals per direction;
# the oracle's patches are all the whole domain
@pytest.mark.parametrize("layers, factorizations", [(2, 18), (None, 2)])
def test_offline_factors_one_per_rectangle_then_freed(setup, monkeypatch,
                                                      layers, factorizations):
    """One factorization per distinct (family, patch rectangle), each freed
    before the next is built, and the columns of the per-element
    construction."""
    grid, ops, aux = setup
    built = []
    alive_before = []

    class Recorded(PatchSolver):
        def __init__(self, ops, aux, patch, family):
            alive_before.append(sum(ref() is not None for _, ref in built))
            super().__init__(ops, aux, patch, family)
            built.append(((family, tuple(patch.cells)), weakref.ref(self)))

    monkeypatch.setattr(cembasis, "PatchSolver", Recorded)
    space = (build_global_basis_oracle(ops, aux) if layers is None
             else build_offline_basis(ops, aux, layers))
    keys = [key for key, _ in built]
    assert len(keys) == len(set(keys)) == factorizations
    assert alive_before == [0] * factorizations
    assert all(ref() is None for _, ref in built)
    for family, basis in (("u", space.basis_u), ("p", space.basis_p)):
        for e in (0, 5, grid.n_coarse_cells - 1):
            cols, _ = build_element_basis(ops, aux, family, e, space.layers)
            assert np.array_equal(basis[:, 2 * e:2 * e + 2].toarray(),
                                  np.column_stack(cols))


def test_basis_dimensions_and_origins(setup):
    grid, ops, aux = setup
    space = build_offline_basis(ops, aux, 2)
    assert space.n_u == 2 * grid.n_coarse_cells
    assert space.n_p == 2 * grid.n_coarse_cells
    assert [o["element"] for o in space.origin_u[:4]] == [0, 0, 1, 1]
    assert [o["mode"] for o in space.origin_u[:4]] == [0, 1, 0, 1]
    assert all(o["kind"] == "offline" for o in space.origin_p)
    # columns are supported on their patch only
    patch = oversample_element(grid, 0, 2)
    outside = np.setdiff1d(np.arange(ops.dofs.n_p),
                           ops.dofs.node_positions(patch.interior_fine_nodes))
    col = np.asarray(space.basis_p[:, 0].todense()).ravel()
    npt.assert_allclose(col[outside], 0.0, atol=0)


def test_columns_decay_with_layers():
    grid = build_grids(6, 6, 3)
    field = synth_channels(grid, 1.0, 1.0, n_channels=0, n_inclusions=0)
    ops = assemble_operators(grid, field, partition_of_unity(grid))
    aux = build_aux_basis(ops, 3)
    for family, A in (("u", ops.stiff_u), ("p", ops.stiff_p)):
        mats = {}
        for layers in (1, 2, 3):
            cols, _ = build_element_basis(ops, aux, family, 14, layers)
            mats[layers] = np.column_stack(cols)
        ratios = []
        for layers in (1, 2):
            d = mats[layers + 1] - mats[layers]
            num = np.sqrt(np.einsum("ij,ij->j", d, A @ d))
            den = np.sqrt(np.einsum("ij,ij->j", mats[layers],
                                    A @ mats[layers]))
            ratios.append(float((num / den).max()))
        assert ratios[1] < ratios[0] < 1.0


def test_build_rejects_negative_layers(setup):
    _, ops, aux = setup
    with pytest.raises(ValueError):
        build_offline_basis(ops, aux, -1)


def test_space_copy_is_independent(setup):
    _, ops, aux = setup
    space = build_offline_basis(ops, aux, 1)
    clone = space.copy()
    clone.append("p", [np.zeros(ops.dofs.n_p)], [{"kind": "online"}])
    assert clone.n_p == space.n_p + 1
    assert space.origin_p[-1]["kind"] == "offline"


def test_space_save(tmp_path, setup):
    _, ops, aux = setup
    space = build_offline_basis(ops, aux, 1)
    stem = str(tmp_path / "space")
    space.save(stem)
    data = np.load(stem + "_basis.npz")
    assert tuple(data["u_shape"]) == (ops.dofs.n_u, space.n_u)
    with open(stem + "_basis.json") as fh:
        manifest = json.load(fh)
    assert manifest["layers"] == 1
    assert len(manifest["origin_p"]) == space.n_p


def test_galerkin_projection_matrices(setup):
    _, ops, aux = setup
    space = build_offline_basis(ops, aux, 2)
    co = galerkin_project(ops, space)
    R = space.basis_p.toarray()
    npt.assert_allclose(co.stiff_p, R.T @ ops.stiff_p.toarray() @ R,
                        atol=1e-12)
    w = np.linalg.eigvalsh(co.stiff_u)
    assert w.min() > 0.0
    w = np.linalg.eigvalsh(co.mass_p)
    assert w.min() > 0.0


# element 5 of 4x4 cells has its full 3x3 one-layer patch; element 0 sits in
# a corner, so its patch is clipped to 2x2 cells
@pytest.mark.parametrize("element, cells", [(5, 9), (0, 4)])
@pytest.mark.parametrize("family", ["u", "p"])
def test_patch_solver_refinement_accuracy(setup, family, element, cells):
    grid, ops, aux = setup
    patch = oversample_element(grid, element, 1)
    assert patch.cells.size == cells
    solver = PatchSolver(ops, aux, patch, family)
    # one factor of the bordered quasi-definite matrix [[A, U], [U^T, -I]],
    # with the same symmetric permutation on rows and columns: no pivoting
    assert solver.lu.shape == (solver.n + solver.k, solver.n + solver.k)
    assert np.array_equal(solver.lu.perm_r, solver.lu.perm_c)
    rng = np.random.default_rng(3)
    rhs = rng.normal(size=solver.n)
    psi = solver.solve(rhs)
    assert solver.residual(psi, rhs) <= 1e-12 * np.linalg.norm(rhs)
    U = solver.U.toarray()
    expected = np.linalg.solve(solver.A.toarray() + U @ U.T, rhs)
    npt.assert_allclose(psi, expected, rtol=0,
                        atol=1e-10 * np.linalg.norm(expected))
