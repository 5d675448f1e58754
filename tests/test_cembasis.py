"""Multiscale basis construction: patch solves, decay, projections."""

import weakref

import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from cemporo import cembasis, spectral, timestepping
from cemporo.assembly import assemble_operators
from cemporo.cembasis import (BandedCholesky, NumericalFailure, PatchSolver,
                              build_offline_basis)
from cemporo.grid import Patch, build_grids, oversample_element
from cemporo.material import synth_channels
from cemporo.spectral import build_aux_basis, spectral_diagnostics
from cemporo.timestepping import CoarseSolver

from oracles import (build_element_basis, build_global_basis_oracle,
                     constraint_columns, patch_residual)


@pytest.fixture(scope="module")
def setup():
    grid = build_grids(4, 4, 2)
    field = synth_channels(grid, 1.0, 100.0, seed=6)
    ops = assemble_operators(grid, field)
    aux = build_aux_basis(ops, 2)
    return grid, ops, aux


def _dense_global_solve(ops, aux, family, rhs_col):
    """Penalized global system assembled and solved densely, with U the
    cell-local constraint columns of the oracle."""
    A = ops.stiffness(family).toarray()
    U = constraint_columns(ops, aux, family)
    rhs = U[:, rhs_col]
    return np.linalg.solve(A + U @ U.T, rhs), rhs


# 4 layers make every patch the whole domain, so every column is checked
@pytest.mark.parametrize("layers", [1, 4])
def test_constraint_columns_are_each_cells_own_weight(setup, layers):
    # a patch's U holds, for each eigenfunction phi of a cell K in the
    # patch, S_K phi on the patch unknowns of K's nodes and nowhere else:
    # nothing in the neighbouring cells' first fine layer
    grid, ops, aux = setup
    for family in ("u", "p"):
        expected = constraint_columns(ops, aux, family)
        for e in (0, 5):
            solver = PatchSolver(ops, aux,
                                 oversample_element(grid, e, layers), family)
            want = expected[solver.index][:, solver.aux_cols]
            got = solver.U.toarray()
            npt.assert_allclose(got, want, rtol=0,
                                atol=1e-13 * np.abs(want).max())
            assert np.array_equal(got != 0.0, want != 0.0)


def test_global_patch_matches_dense_solve(setup):
    grid, ops, aux = setup
    space = build_global_basis_oracle(ops, aux)
    for family, basis in (("u", space.basis_u), ("p", space.basis_p)):
        for col in (0, 5, 17):
            expected, _ = _dense_global_solve(ops, aux, family, col)
            mine = np.asarray(basis[:, col].todense()).ravel()
            scale = np.linalg.norm(expected)
            npt.assert_allclose(mine, expected, atol=1e-11 * scale)


def _assert_defining_equations(ops, aux, space, layers):
    """Each offline column solves the penalized problem of its own
    element's patch, seeded by the auxiliary column of the same index."""
    for family, basis in (("u", space.basis_u), ("p", space.basis_p)):
        for e in range(ops.grid.n_coarse_cells):
            patch = oversample_element(ops.grid, e, layers)
            solver = PatchSolver(ops, aux, patch, family)
            cols = aux.columns_in_cells(family, [e])
            for j, pos in zip(cols, np.searchsorted(solver.aux_cols, cols)):
                rhs = np.asarray(solver.U[:, pos].todense()).ravel()
                psi = np.asarray(basis[:, j].todense()).ravel()[solver.index]
                res = patch_residual(solver, psi, rhs)
                assert res <= 1e-12 * np.linalg.norm(rhs)


def test_offline_columns_satisfy_defining_equation(setup):
    _, ops, aux = setup
    _assert_defining_equations(ops, aux, build_offline_basis(ops, aux, 1), 1)


def test_kept_counts_may_vary_per_cell(setup, monkeypatch):
    """The eigensolve, not the requested count, says how many columns a
    cell owns: here odd cells keep at least one more pressure eigenvector."""
    grid, ops, _ = setup
    solve = spectral.solve_local_spectral
    monkeypatch.setattr(
        spectral, "solve_local_spectral",
        lambda ops, e, n_u, n_p: solve(ops, e, n_u, n_p + e % 2))
    aux = build_aux_basis(ops, 3, 2)
    kept = np.array([spec.vecs_p.shape[1] for spec in aux.spectra])
    assert np.all(kept >= 2 + np.arange(grid.n_coarse_cells) % 2)
    assert np.ptp(kept) > 0
    assert aux.columns("u").shape[1] == 3 * grid.n_coarse_cells
    assert aux.columns("p").shape[1] == kept.sum()
    # cell e owns the kept[e] columns after those of the cells before it
    first = np.concatenate([[0], np.cumsum(kept)])
    for cell_set in ([0], [1], [3, 2], [15, 0], []):
        expected = [j for e in sorted(cell_set)
                    for j in range(first[e], first[e + 1])]
        npt.assert_array_equal(aux.columns_in_cells("p", cell_set), expected)
    npt.assert_array_equal(aux.columns_in_cells("u", [1, 15]),
                           [3, 4, 5, 45, 46, 47])
    space = build_offline_basis(ops, aux, 1)
    assert space.basis_u.shape == aux.columns("u").shape
    assert space.basis_p.shape == aux.columns("p").shape
    _assert_defining_equations(ops, aux, space, 1)
    # the first excluded eigenvalue is each cell's own
    diag = spectral_diagnostics(aux)
    assert diag.min_excluded == min(
        min(spec.eigvals_u[3], spec.eigvals_p[k])
        for spec, k in zip(aux.spectra, kept))
    assert not diag.degenerate


# on 4x4 cells, 2 layers give 3 distinct patch intervals per direction;
# the oracle's patches are all the whole domain
@pytest.mark.parametrize("layers, factorizations", [(2, 18), (None, 2)])
def test_offline_factors_one_per_rectangle_then_freed(setup, monkeypatch,
                                                      layers, factorizations):
    """One factorization per distinct (family, patch rectangle), each freed
    before the next is built, and the columns of the per-element
    construction to round-off (the batch solves a group's columns together,
    the oracle one at a time)."""
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
    depth = max(grid.ncx, grid.ncy) if layers is None else layers
    for family, basis in (("u", space.basis_u), ("p", space.basis_p)):
        for e in (0, 5, grid.n_coarse_cells - 1):
            expected = build_element_basis(ops, aux, family, e,
                                           depth).toarray()
            cols = aux.columns_in_cells(family, [e])
            diff = basis[:, cols].toarray() - expected
            assert np.all(np.linalg.norm(diff, axis=0)
                          <= 1e-12 * np.linalg.norm(expected, axis=0))


def test_basis_dimensions_and_origins(setup):
    grid, ops, aux = setup
    space = build_offline_basis(ops, aux, 2)
    assert space.n_u == aux.columns("u").shape[1]
    assert space.n_p == aux.columns("p").shape[1]
    # each column belongs to the element of its auxiliary column, every
    # column to one element, and is supported on its patch only
    for family, basis in (("u", space.basis_u), ("p", space.basis_p)):
        owned = []
        for e in range(grid.n_coarse_cells):
            patch = oversample_element(grid, e, 2)
            inside = ops.dofs.index(patch.interior_fine_nodes, family)
            for j in aux.columns_in_cells(family, [e]):
                col = basis[:, j].toarray().ravel()
                npt.assert_array_equal(np.delete(col, inside), 0.0)
                owned.append(j)
        npt.assert_array_equal(owned, np.arange(basis.shape[1]))
        assert basis.has_sorted_indices


def test_columns_decay_with_layers():
    grid = build_grids(6, 6, 3)
    field = synth_channels(grid, 1.0, 1.0, n_channels=0, n_inclusions=0)
    ops = assemble_operators(grid, field)
    aux = build_aux_basis(ops, 3)
    for family, A in (("u", ops.stiff_u), ("p", ops.stiff_p)):
        mats = {}
        for layers in (1, 2, 3):
            mats[layers] = build_element_basis(ops, aux, family, 14,
                                               layers).toarray()
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
    with pytest.raises(TypeError, match="layers"):
        build_offline_basis(ops, aux, 1.5)


def test_galerkin_projection_matrices(setup):
    _, ops, aux = setup
    space = build_offline_basis(ops, aux, 2)
    co = CoarseSolver(ops, space, 0.1)
    R = space.basis_p.toarray()
    npt.assert_allclose(co.stiff_p, R.T @ ops.stiff_p.toarray() @ R,
                        atol=1e-12)
    w = np.linalg.eigvalsh(co.stiff_u)
    assert w.min() > 0.0
    w = np.linalg.eigvalsh(co.mass_p)
    assert w.min() > 0.0


def _band_factor(solver):
    """The dense lower factor L of the solver's banded Cholesky factor."""
    ab = solver.factor.ab
    L = np.zeros((ab.shape[1],) * 2)
    for d in range(ab.shape[0]):
        L += np.diag(ab[d, :ab.shape[1] - d], -d)
    return L


def _short_side_band(patch, family):
    """The half-bandwidth of a 9-point form numbered across the patch's
    shorter side first."""
    short = min(patch.shape)
    return 2 * (short + 1) + 1 if family == "u" else short + 1


# element 5 of 4x4 cells has its full 3x3 one-layer patch; element 0 sits in
# a corner, so its patch is clipped to 2x2 cells
@pytest.mark.parametrize("element, cells", [(5, 9), (0, 4)])
@pytest.mark.parametrize("family", ["u", "p"])
def test_patch_solver_refinement_accuracy(setup, family, element, cells):
    grid, ops, aux = setup
    patch = oversample_element(grid, element, 1)
    assert patch.cells.size == cells
    solver = PatchSolver(ops, aux, patch, family)
    # one banded Cholesky factor of A alone, its band set by the short side
    L = _band_factor(solver)
    A = solver.A.toarray()
    npt.assert_allclose(L @ L.T, A, rtol=0, atol=1e-13 * np.abs(A).max())
    assert solver.factor.kd == _short_side_band(patch, family)
    rng = np.random.default_rng(3)
    rhs = rng.normal(size=solver.index.size)
    psi = solver.solve(rhs)
    assert patch_residual(solver, psi, rhs) <= 1e-12 * np.linalg.norm(rhs)
    U = solver.U.toarray()
    expected = np.linalg.solve(solver.A.toarray() + U @ U.T, rhs)
    npt.assert_allclose(psi, expected, rtol=0,
                        atol=1e-10 * np.linalg.norm(expected))


@pytest.mark.parametrize("element", [5, 0])
@pytest.mark.parametrize("family", ["u", "p"])
def test_patch_solver_reuses_an_earlier_capacitance(setup, family, element):
    # a second solver on the same rectangle, handed the first one's
    # capacitance, forms no Z and applies the inverse through U instead
    grid, ops, aux = setup
    patch = oversample_element(grid, element, 1)
    fresh = PatchSolver(ops, aux, patch, family)
    reused = PatchSolver(ops, aux, Patch(grid, *patch.rect), family,
                         fresh.capacitance)
    assert fresh.Z is not None and reused.Z is None
    assert reused.capacitance is fresh.capacitance
    rng = np.random.default_rng(3)
    for rhs in (rng.normal(size=reused.index.size), reused.U.toarray()):
        psi = reused.solve(rhs)
        expected = fresh.solve(rhs)
        for x, b, want in zip(psi.reshape(psi.shape[0], -1).T,
                              rhs.reshape(rhs.shape[0], -1).T,
                              expected.reshape(expected.shape[0], -1).T):
            assert patch_residual(reused, x, b) <= 1e-12 * np.linalg.norm(b)
            assert np.linalg.norm(x - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("family", ["u", "p"])
def test_wide_patch_is_banded_across_its_short_side(setup, family):
    # element 1 of 4x4 cells with one layer is clipped to 3 cells wide and
    # 2 tall: 5 interior fine nodes across, 3 up
    grid, ops, aux = setup
    patch = oversample_element(grid, 1, 1)
    assert patch.rect == (0, 2, 0, 1) and patch.shape == (3, 5)
    solver = PatchSolver(ops, aux, patch, family)
    assert solver.factor.kd == _short_side_band(patch, family)
    # the lexicographic order would give the long side's band
    lexi = 2 * (5 + 1) + 1 if family == "u" else 5 + 1
    assert solver.factor.kd < lexi
    assert np.array_equal(np.sort(solver.index),
                          ops.dofs.index(patch.interior_fine_nodes, family))
    U = solver.U.toarray()
    dense = solver.A.toarray() + U @ U.T
    for rhs in U.T:
        col = solver.solve(rhs)
        expected = np.linalg.solve(dense, rhs)
        npt.assert_allclose(col, expected, rtol=0,
                            atol=1e-10 * np.linalg.norm(expected))


def test_solve_lower_sweeps_each_column_from_its_first_nonzero(setup):
    # columns whose leading zeros end at different rows, within one band
    # width of each other and far apart, a zero column and a vector: the
    # same bits as a full-band sweep from row 0, and a dense triangular
    # solve to round-off
    _, ops, _ = setup
    factor = BandedCholesky(ops.stiff_u)
    n, kd = ops.stiff_u.shape[0], factor.kd
    b = np.random.default_rng(3).normal(size=(n, 6))
    for j, first in enumerate((0, 3, kd, n // 2, n - 1)):
        b[:first, j] = 0.0
    b[:, 5] = 0.0
    full = sla.lapack.dtbtrs(factor.ab, b, uplo="L")[0]
    x = factor.solve_lower(b)
    assert x.tobytes() == full.tobytes()
    assert factor.solve_lower(b[:, 3]).tobytes() == full[:, 3].tobytes()
    L = np.zeros((n, n))
    for d in range(kd + 1):
        L[np.arange(d, n), np.arange(n - d)] = factor.ab[d, :n - d]
    want = sla.solve_triangular(L, b, lower=True)
    npt.assert_allclose(x, want, rtol=0, atol=1e-12 * np.abs(want).max())


def test_indefinite_matrix_raises_numerical_failure():
    # symmetric, with a negative second leading minor
    indefinite = sp.csr_matrix([[2.0, 1.0, 0.0],
                                [1.0, -1.0, 1.0],
                                [0.0, 1.0, 2.0]])
    with pytest.raises(NumericalFailure, match="positive definite"):
        BandedCholesky(indefinite)
    # LAPACK passes a NaN through without an error code
    with pytest.raises(NumericalFailure, match="finite"):
        BandedCholesky(sp.csr_matrix([[2.0, np.nan], [np.nan, 2.0]]))
    # the same class the command line turns into exit code 2
    assert NumericalFailure is timestepping.NumericalFailure
