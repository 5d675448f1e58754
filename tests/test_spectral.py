"""Local spectral problems, the auxiliary space and its projection."""

import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg as sla

from cemporo import spectral
from cemporo.assembly import assemble_operators
from cemporo.grid import build_grids
from cemporo.material import synth_channels
from cemporo.spectral import (AuxBasis, build_aux_basis,
                              solve_local_spectral, spectral_diagnostics)

from oracles import cell_weights, project_pi


@pytest.fixture(scope="module")
def setup():
    grid = build_grids(3, 3, 3)
    field = synth_channels(grid, 1.0, 1e3, seed=4)
    ops = assemble_operators(grid, field)
    return grid, ops


def test_kernel_counts(setup):
    grid, ops = setup
    for e in range(grid.n_coarse_cells):
        spec = solve_local_spectral(ops, e, 4, 2)
        wu = spec.eigvals_u
        wp = spec.eigvals_p
        # two translations and one rotation for displacement, the constant
        # for pressure
        assert np.all(np.abs(wu[:3]) <= 1e-10 * wu[3])
        assert wu[3] > 0.0
        assert abs(wp[0]) <= 1e-10 * wp[1]
        assert wp[1] > 0.0


def test_eigenvalues_match_nonsymmetric_oracle(setup):
    grid, ops = setup
    e = 4
    spec = solve_local_spectral(ops, e, 6, 6)
    nodes, mats = ops.local_matrices(grid.fine_cells_of_coarse_cell(e))
    for fam in ("u", "p"):
        A = mats["stiff_" + fam]
        S = mats["aux_" + fam]
        # generalized non-symmetric QZ route, an independent LAPACK path
        w = sla.eig(A, S, right=False)
        w = np.sort(w.real)
        mine = spec.eigvals_u if fam == "u" else spec.eigvals_p
        scale = max(abs(w[-1]), 1.0)
        npt.assert_allclose(mine, w, atol=1e-8 * scale)


# the local kernels have dimension 3 (u) and 1 (p): (2, 1) and (3, 1) keep
# no vector of the reduced problem, (4, 2) keeps one of each family
@pytest.mark.parametrize("n_u, n_p", [(2, 1), (3, 1), (4, 2)])
def test_reduced_vectors_only_when_kept(setup, monkeypatch, n_u, n_p):
    grid, ops = setup
    e = 4
    nodes, mats = ops.local_matrices(grid.fine_cells_of_coarse_cell(e))
    eigh = spectral.sla.eigh
    vectors_requested = []

    def recorded(*args, **kwargs):
        vectors_requested.append(not kwargs.get("eigvals_only", False))
        return eigh(*args, **kwargs)

    monkeypatch.setattr(spectral.sla, "eigh", recorded)
    spec = solve_local_spectral(ops, e, n_u, n_p)
    assert vectors_requested == [n_u > 3, n_p > 1]
    for fam, count, w, vecs in (("u", n_u, spec.eigvals_u, spec.vecs_u),
                                ("p", n_p, spec.eigvals_p, spec.vecs_p)):
        A, S = mats["stiff_" + fam], mats["aux_" + fam]
        # the QZ oracle of test_eigenvalues_match_nonsymmetric_oracle
        qz = np.sort(sla.eig(A, S, right=False).real)
        npt.assert_allclose(w, qz, atol=1e-8 * max(abs(qz[-1]), 1.0))
        # every vector from the full reduced solve, the leading ones kept
        _, full = spectral._deflated_eigh(A, S, ops.kernel(fam, nodes),
                                          A.shape[0])
        expected = spectral._fix_signs(full[:, :count])
        assert vecs.shape == expected.shape
        npt.assert_allclose(vecs, expected, rtol=0,
                            atol=1e-12 * np.abs(expected).max())
        npt.assert_allclose(vecs.T @ S @ vecs, np.eye(count), atol=1e-12)
    assert vectors_requested[2:] == [True, True]


def test_eigenvector_normalization_and_signs(setup):
    grid, ops = setup
    spec = solve_local_spectral(ops, 0, 3, 2)
    _, mats = ops.local_matrices(grid.fine_cells_of_coarse_cell(0))
    for fam, vecs in (("u", spec.vecs_u), ("p", spec.vecs_p)):
        S = mats["aux_" + fam]
        gram = vecs.T @ S @ vecs
        npt.assert_allclose(gram, np.eye(vecs.shape[1]), atol=1e-10)
        for j in range(vecs.shape[1]):
            col = vecs[:, j]
            assert col[np.argmax(np.abs(col))] > 0.0


def test_spectral_argument_validation(setup):
    _, ops = setup
    with pytest.raises(ValueError):
        solve_local_spectral(ops, 0, 0)
    with pytest.raises(ValueError):
        solve_local_spectral(ops, 0, 10 ** 6)


def test_aux_basis_needs_a_mode_per_family(setup):
    _, ops = setup
    with pytest.raises(ValueError, match="at least one"):
        AuxBasis(ops, 0)
    # a fractional or boolean count is no number of modes
    for counts in ((2.7,), (True,), (2, 1.5), (2, False)):
        with pytest.raises(TypeError, match="integers"):
            AuxBasis(ops, *counts)


def test_aux_basis_shapes(setup):
    grid, ops = setup
    aux = build_aux_basis(ops, 2, 3)
    assert aux.C_u.shape == (ops.dofs.n_u, 2 * grid.n_coarse_cells)
    assert aux.C_p.shape == (ops.dofs.n_p, 3 * grid.n_coarse_cells)
    cols = aux.columns_in_cells("u", [0, 4])
    npt.assert_array_equal(cols, [0, 1, 8, 9])


def test_projection_is_exact(setup):
    _, ops = setup
    aux = build_aux_basis(ops, 2)
    rng = np.random.default_rng(8)
    for fam in ("u", "p"):
        weights = cell_weights(ops, fam)

        def product(a, b):
            """s(a, b), the sum of each cell's weighted product."""
            return sum(x @ (S @ y) for x, S, y in zip(a, weights, b))

        def draw():
            return [rng.normal(size=S.shape[0]) for S in weights]

        v = draw()
        pv = project_pi(ops, aux, fam, v)
        ppv = project_pi(ops, aux, fam, pv)
        scale = np.linalg.norm(np.concatenate(pv))
        assert (np.linalg.norm(np.concatenate(ppv) - np.concatenate(pv))
                <= 1e-12 * scale)
        # self-adjoint in s
        w = draw()
        lhs = product(w, pv)
        rhs = product(project_pi(ops, aux, fam, w), v)
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)
        # reproduces members of the auxiliary space: the second
        # eigenfunction of cell 1, zero on every other cell
        vecs = [getattr(spec, "vecs_" + fam) for spec in aux.spectra]
        member = [np.zeros(S.shape[0]) for S in weights]
        member[1] = vecs[1][:, 1]
        npt.assert_allclose(
            np.concatenate(project_pi(ops, aux, fam, member)),
            np.concatenate(member), atol=1e-11)
        # annihilates the s-orthogonal complement
        v_orth = [x - V @ np.linalg.solve(V.T @ S @ V, V.T @ (S @ x))
                  for x, V, S in zip(v, vecs, weights)]
        npt.assert_allclose(
            np.concatenate(project_pi(ops, aux, fam, v_orth)), 0.0,
            atol=1e-10)


def test_projection_family_validation(setup):
    _, ops = setup
    aux = build_aux_basis(ops, 2)
    with pytest.raises(ValueError):
        project_pi(ops, aux, "q", np.zeros(ops.dofs.n_p))


def test_diagnostics_homogeneous_equal_gaps():
    grid = build_grids(4, 4, 3)
    field = synth_channels(grid, 1.0, 1.0, n_channels=0, n_inclusions=0)
    ops = assemble_operators(grid, field)
    aux = build_aux_basis(ops, 3)
    gaps_u = [spec.eigvals_u[3] for spec in aux.spectra]
    gaps_p = [spec.eigvals_p[3] for spec in aux.spectra]
    npt.assert_allclose(gaps_u, gaps_u[0], rtol=1e-10)
    npt.assert_allclose(gaps_p, gaps_p[0], rtol=1e-10)
    diag = spectral_diagnostics(aux)
    assert not diag.degenerate
    assert diag.min_excluded > 0.0


def test_degenerate_gap_flag(setup):
    _, ops = setup
    # two displacement modes leave a rigid motion excluded: the reported gap
    # is a zero eigenvalue and the decay bound degenerates
    aux2 = build_aux_basis(ops, 2)
    diag2 = spectral_diagnostics(aux2)
    assert diag2.degenerate
    assert diag2.decay_factor(3) == np.inf
    aux3 = build_aux_basis(ops, 3)
    diag3 = spectral_diagnostics(aux3)
    assert not diag3.degenerate


def test_decay_factor_monotone(setup):
    _, ops = setup
    diag = spectral_diagnostics(build_aux_basis(ops, 3))
    vals = [diag.decay_factor(l) for l in range(1, 7)]
    assert all(np.isfinite(vals))
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert vals[-1] < vals[0] * 0.5
