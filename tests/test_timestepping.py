"""Backward Euler marching on the fine grid and on multiscale spaces."""

import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from cemporo.assembly import assemble_load, assemble_operators
from cemporo import timestepping
from cemporo.cembasis import build_offline_basis
from cemporo.grid import build_grids
from cemporo.material import synth_channels
from cemporo.report import energy_errors
from cemporo.spectral import build_aux_basis
from cemporo.timestepping import (CoarseSolver, FineSolver, NumericalFailure,
                                  PivotedCholesky, State, TimeGrid,
                                  _dissection, _initial_pressure,
                                  compute_residuals, run)

from oracles import build_element_basis, build_global_basis_oracle


def _source(t, x, y):
    return np.ones_like(np.asarray(x, dtype=float))


def _p0(x, y):
    return 100.0 * x * (1.0 - x) * y * (1.0 - y)


def _fine_initial(ops, p0):
    """The fine solver's initial state, as `run` starts it."""
    return FineSolver(ops, 0.1).initial_state(_initial_pressure(ops, p0))


def _candidates(blocks):
    """Column blocks by family as `CoarseSolver.append` takes them: a list
    of (positions, values) per family, empty for a family not in `blocks`."""
    out = []
    for family in "up":
        b = sp.csc_matrix(blocks.get(family, (0, 0)))
        out.append([(b.indices[i:j], b.data[i:j])
                    for i, j in zip(b.indptr, b.indptr[1:])])
    return out


@pytest.fixture(scope="module")
def setup():
    grid = build_grids(3, 3, 3)
    field = synth_channels(grid, 1.0, 50.0, seed=9)
    ops = assemble_operators(grid, field)
    return grid, ops


def test_time_grid():
    tg = TimeGrid.from_horizon(0.05, 1.0)
    assert tg.n_steps == 20
    assert tg.t(tg.n_steps) == pytest.approx(1.0)
    assert tg.t(3) == pytest.approx(0.15)
    with pytest.raises(ValueError):
        TimeGrid.from_horizon(0.3, 1.0)
    for tau in (0.0, -0.1):  # rejected before T / tau is formed
        with pytest.raises(ValueError, match="step size"):
            TimeGrid.from_horizon(tau, 1.0)
    with pytest.raises(ValueError):
        TimeGrid(-0.1, 5)
    with pytest.raises(ValueError):
        TimeGrid(0.1, 0)
    # 2.5 would fail later, inside run's range; True would run one step
    for n_steps in (2.5, True, "3"):
        with pytest.raises(TypeError, match="step count"):
            TimeGrid(0.1, n_steps)
    assert TimeGrid(0.1, np.int64(3)).n_steps == 3


def test_coarse_run_skips_the_fine_elastic_solve(setup, monkeypatch):
    # the coarse initial state reads only the fine initial pressure, whose
    # mass projection is the one factorization of the run
    _, ops = setup
    aux = build_aux_basis(ops, 2)
    space = build_offline_basis(ops, aux, 1)
    factored = []
    factor = timestepping.BandedCholesky

    def counted(A):
        factored.append(A.shape)
        return factor(A)

    monkeypatch.setattr(timestepping, "BandedCholesky", counted)
    run(ops, TimeGrid(0.1, 2), _source, _p0,
        solver=CoarseSolver(ops, space, 0.1))
    assert factored == [(ops.dofs.n_p, ops.dofs.n_p)]


def test_initial_state_zero_pressure(setup):
    _, ops = setup
    st = _fine_initial(ops, lambda x, y: np.zeros_like(x))
    npt.assert_allclose(st.u, 0.0, atol=1e-14)
    npt.assert_allclose(st.p, 0.0, atol=1e-14)


def _check_initial_state_dense_oracle(ops):
    st = _fine_initial(ops, _p0)
    # pressure is the weighted mass projection of the initial datum
    mass = (ops.field.biot_modulus * ops.mass_p).toarray()
    load = ops.dofs.restrict_p(
        assemble_load(ops.grid, lambda t, x, y: _p0(x, y)))
    p_ref = np.linalg.solve(mass, load)
    npt.assert_allclose(st.p, p_ref, atol=1e-12 * np.abs(p_ref).max())
    # displacement balances the pressure through the coupling
    u_ref = np.linalg.solve(ops.stiff_u.toarray(),
                            np.asarray(ops.coupling.T @ st.p))
    npt.assert_allclose(st.u, u_ref, atol=1e-11 * np.abs(u_ref).max())


def test_initial_state_dense_oracle(setup):
    _check_initial_state_dense_oracle(setup[1])


def test_wide_mesh_band_solves_dense_oracle():
    # with nfx != nfy the global forms are banded in the x-fastest
    # numbering, a band as wide as a row of the mesh
    grid = build_grids(3, 2, 3)
    ops = assemble_operators(grid, synth_channels(grid, 1.0, 50.0, seed=9))
    assert grid.nfx != grid.nfy
    rng = np.random.default_rng(0)
    for form in (ops.stiff_u, ops.stiff_p, ops.mass_p):
        b = rng.standard_normal(form.shape[0])
        ref = np.linalg.solve(form.toarray(), b)
        x = timestepping.BandedCholesky(form).solve(b)
        assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)
    _check_initial_state_dense_oracle(ops)


def test_initial_state_reproduces_fe_member(setup):
    _, ops = setup
    member = np.zeros(ops.grid.n_fine_nodes)
    member[ops.dofs.p_nodes] = np.random.default_rng(2).normal(
        size=ops.dofs.n_p)
    st = _fine_initial(ops, member)
    npt.assert_allclose(st.p, member[ops.dofs.p_nodes], atol=1e-11)


def test_zero_data_zero_trajectory(setup):
    _, ops = setup
    tg = TimeGrid(0.1, 4)
    states = run(ops, tg, lambda t, x, y: np.zeros_like(x),
                 lambda x, y: np.zeros_like(x))
    for st in states:
        npt.assert_allclose(st.u, 0.0, atol=1e-13)
        npt.assert_allclose(st.p, 0.0, atol=1e-13)


def test_fine_step_dense_oracle(setup):
    _, ops = setup
    tau = 0.1
    solver = FineSolver(ops, tau)
    prev = _fine_initial(ops, _p0)
    load = ops.dofs.restrict_p(assemble_load(ops.grid, _source, tau))
    st = solver.step(prev, load, 1)
    n_u = ops.dofs.n_u
    flow = (ops.mass_p + tau * ops.stiff_p).toarray()
    block = np.vstack([
        np.hstack([ops.stiff_u.toarray(), -ops.coupling.toarray().T]),
        np.hstack([ops.coupling.toarray(), flow])])
    rhs = np.concatenate([np.zeros(n_u),
                          tau * load + ops.coupling @ prev.u
                          + ops.mass_p @ prev.p])
    sol = np.linalg.solve(block, rhs)
    npt.assert_allclose(st.u, sol[:n_u], atol=1e-11 * np.abs(sol).max())
    npt.assert_allclose(st.p, sol[n_u:], atol=1e-11 * np.abs(sol).max())


def test_fine_step_factor_keeps_diagonal_pivots(setup):
    """The fine step factors its symmetric quasi-definite block with every
    pivot on the diagonal, and with less fill than a default LU of the
    unsymmetric block."""
    _, ops = setup
    # a short step keeps the flow diagonal C + tau B small against the
    # coupling, where partial pivoting would leave the diagonal
    tau = 1e-3
    solver = FineSolver(ops, tau)
    prev = _fine_initial(ops, _p0)
    load = ops.dofs.restrict_p(assemble_load(ops.grid, _source, tau))
    solver.step(prev, load, 1)
    lu = solver._lu
    assert np.array_equal(lu.perm_r, lu.perm_c)
    assert (solver._block != solver._block.T).nnz == 0
    unsymmetric = sp.bmat(
        [[ops.stiff_u, -ops.coupling.T],
         [ops.coupling, ops.mass_p + tau * ops.stiff_p]], format="csc")
    colamd = spla.splu(unsymmetric)
    assert lu.L.nnz + lu.U.nnz < colamd.L.nnz + colamd.U.nnz


@pytest.mark.parametrize("nx, ny", [(1, 1), (1, 7), (7, 1), (2, 2), (3, 7),
                                    (9, 4), (99, 99)])
def test_dissection_is_a_permutation(nx, ny):
    order = _dissection(nx, ny)
    assert order.dtype.kind == "i"
    assert np.array_equal(np.sort(order), np.arange(nx * ny))


def test_fine_factor_fills_less_than_minimum_degree(frozen):
    """On the FROZEN mesh the dissection-ordered factor keeps at most 0.85
    of the nonzeros of SuperLU's minimum-degree factor of the same block in
    the interior numbering (0.79 measured)."""
    ops, tau = frozen.ops, frozen.time_grid.tau
    solver = FineSolver(ops, tau)
    solver._factorize()
    block = sp.bmat([[ops.stiff_u, -ops.coupling.T],
                     [-ops.coupling, -(ops.mass_p + tau * ops.stiff_p)]],
                    format="csc")
    mmd = spla.splu(block, permc_spec="MMD_AT_PLUS_A",
                    diag_pivot_thresh=0.0, options={"SymmetricMode": True})
    ours = solver._lu.L.nnz + solver._lu.U.nnz
    assert ours <= 0.85 * (mmd.L.nnz + mmd.U.nnz)


def test_full_auxiliary_space_reproduces_fine():
    grid = build_grids(2, 2, 2)
    field = synth_channels(grid, 1.0, 10.0, seed=1)
    ops = assemble_operators(grid, field)
    # every local eigenfunction of every cell: the multiscale space spans
    # the whole fine space and the trajectories must coincide
    nodes_per_cell = (grid.refinement + 1) ** 2
    aux = build_aux_basis(ops, 2 * nodes_per_cell, nodes_per_cell)
    space = build_global_basis_oracle(ops, aux)
    tg = TimeGrid(0.25, 4)
    fine = run(ops, tg, _source, _p0)
    coarse = run(ops, tg, _source, _p0,
                 solver=CoarseSolver(ops, space, tg.tau))
    for f, c in zip(fine, coarse):
        scale_u = max(np.linalg.norm(f.u), 1e-30)
        scale_p = max(np.linalg.norm(f.p), 1e-30)
        assert np.linalg.norm(c.u - f.u) <= 1e-8 * scale_u
        assert np.linalg.norm(c.p - f.p) <= 1e-8 * scale_p


def test_coarse_step_galerkin_orthogonality(setup):
    _, ops = setup
    aux = build_aux_basis(ops, 2)
    space = build_offline_basis(ops, aux, 1)
    tg = TimeGrid(0.1, 3)
    solver = CoarseSolver(ops, space, tg.tau)
    states = run(ops, tg, _source, _p0, solver=solver)
    for n in (1, 2, 3):
        load = ops.dofs.restrict_p(
            assemble_load(ops.grid, _source, tg.t(n)))
        res = compute_residuals(ops, tg.tau, states[n], states[n - 1], load)
        ru = space.basis_u.T @ res.r_u
        rp = space.basis_p.T @ res.r_p
        scale = np.linalg.norm(load)
        npt.assert_allclose(ru, 0.0, atol=1e-10 * scale)
        npt.assert_allclose(rp, 0.0, atol=1e-10 * scale)


def test_set_space_borders_appended_columns_exactly(setup, monkeypatch):
    """Growing a solver's space only borders the old blocks: `append`
    borders the mass and the coupling with their products with the appended
    columns and the stiffness from the filter, and calls `_project` not at
    all. The bordered blocks equal a projection from scratch to round-off,
    and each symmetric form's two appended rectangles are exact
    transposes."""
    _, ops = setup
    aux = build_aux_basis(ops, 2)
    space = build_offline_basis(ops, aux, 1)
    tau = 0.1
    solver = CoarseSolver(ops, space, tau)
    space = solver.space  # the solver grows a space of its own
    state = solver.initial_state(_initial_pressure(ops, _p0))
    projected = []
    project = timestepping._project

    def recording(A, R_row, R_col):
        projected.append(A)
        return project(A, R_row, R_col)

    monkeypatch.setattr(timestepping, "_project", recording)
    # a cell's 2-layer columns are new to the 1-layer offline space, save
    # the centre cell's, whose 1-layer patch is the whole 3x3 domain already
    for element, families in ((3, ("u",)), (1, ("p",)), (5, ("u", "p"))):
        old = {"u": space.n_u, "p": space.n_p}
        columns = {family: build_element_basis(ops, aux, family, element, 2)
                   for family in families}
        del projected[:]
        added = solver.append(_candidates(columns), state)
        assert [n > 0 for n in added] == [f in families for f in "up"]
        assert projected == []
        fresh = CoarseSolver(ops, space, tau)
        for name in ("stiff_u", "stiff_p", "mass_p", "coupling"):
            want = getattr(fresh, name)
            npt.assert_allclose(getattr(solver, name), want, rtol=0,
                                atol=1e-13 * np.abs(want).max(),
                                err_msg=str((families, name)))
        for name, family in (("stiff_u", "u"), ("stiff_p", "p"),
                             ("mass_p", "p")):
            block, n = getattr(solver, name), old[family]
            assert np.array_equal(block[n:, :n], block[:n, n:].T), \
                (families, name)


class _RecordingForm:
    """A sparse form that logs the column count of every right operand, a
    vector counting as one column."""

    def __init__(self, form, widths):
        self.form = form
        self.widths = widths

    @property
    def T(self):
        return _RecordingForm(self.form.T, self.widths)

    @property
    def shape(self):
        return self.form.shape

    def __matmul__(self, other):
        self.widths.append(other.shape[1] if other.ndim == 2 else 1)
        return self.form @ other


def _recording_forms(m, ops, widths):
    for name in ("stiff_u", "stiff_p", "mass_p", "coupling"):
        m.setattr(ops, name, _RecordingForm(getattr(ops, name), widths))


def test_set_space_multiplies_forms_only_by_appended_columns(setup,
                                                             monkeypatch):
    # `append` multiplies the forms only by its candidates, and `set_space`
    # multiplies no form at all: it only factors
    _, ops = setup
    aux = build_aux_basis(ops, 2)
    space = build_offline_basis(ops, aux, 1)
    solver = CoarseSolver(ops, space, 0.1)
    state = solver.initial_state(_initial_pressure(ops, _p0))
    # a cell's 2-layer columns are new to the 1-layer offline space, save
    # the centre cell's, whose 1-layer patch is the whole 3x3 domain already
    for element, families in ((3, ("u",)), (1, ("p",)), (5, ("u", "p"))):
        columns = {family: build_element_basis(ops, aux, family, element, 2)
                   for family in families}
        widths = []
        with monkeypatch.context() as m:
            _recording_forms(m, ops, widths)
            added = solver.append(_candidates(columns), state)
        assert [n > 0 for n in added] == [f in families for f in "up"]
        assert widths, families
        assert max(widths) <= max(c.shape[1] for c in columns.values()), \
            (families, widths)
    widths = []
    with monkeypatch.context() as m:
        _recording_forms(m, ops, widths)
        solver.set_space()
    assert widths == []


def test_coarse_initial_state_projection(setup):
    _, ops = setup
    aux = build_aux_basis(ops, 2)
    space = build_offline_basis(ops, aux, 1)
    p_fine = _initial_pressure(ops, _p0)
    st = CoarseSolver(ops, space, 0.1).initial_state(p_fine)
    # flow-form projection: the defect is stiffness-orthogonal to the space
    defect = ops.stiff_p @ (st.p - p_fine)
    npt.assert_allclose(space.basis_p.T @ defect, 0.0,
                        atol=1e-9 * np.linalg.norm(ops.stiff_p @ p_fine))


def test_run_hook_replaces_state(setup):
    _, ops = setup
    tg = TimeGrid(0.1, 3)
    seen = []

    def hook(n, solver, state, prev, load):
        seen.append(n)
        if n == 2:
            return State(n, np.zeros_like(state.u), np.zeros_like(state.p))
        return state

    states = run(ops, tg, _source, _p0, hook=hook)
    assert seen == [1, 2, 3]
    npt.assert_allclose(states[2].p, 0.0, atol=0)
    # step 3 must have started from the replaced state
    solver = FineSolver(ops, tg.tau)
    load = ops.dofs.restrict_p(assemble_load(ops.grid, _source, tg.t(3)))
    redo = solver.step(states[2], load, 3)
    npt.assert_allclose(states[3].p, redo.p, atol=1e-13)


def test_non_finite_matrix_raises_when_factored():
    bad = np.array([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(NumericalFailure):
        PivotedCholesky(bad)


def test_nodal_initial_pressure_of_wrong_length_is_refused(setup):
    _, ops = setup
    with pytest.raises(ValueError, match="wrong length"):
        run(ops, TimeGrid(0.1, 1), _source,
            np.zeros(ops.grid.n_fine_nodes - 1))


def test_fine_factorization_breakdown_is_a_numerical_failure(setup,
                                                             monkeypatch):
    _, ops = setup

    def broken(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(spla, "splu", broken)
    state = _fine_initial(ops, _p0)
    with pytest.raises(NumericalFailure, match="exactly singular"):
        FineSolver(ops, 0.1).step(state, np.zeros(ops.dofs.n_p), 1)


def test_coarse_block_is_factored_once_per_space(setup, monkeypatch):
    _, ops = setup
    aux = build_aux_basis(ops, 2)
    space = build_offline_basis(ops, aux, 1)
    tg = TimeGrid(0.1, 10)
    factored = []
    factor = timestepping.PivotedCholesky

    def counted(mat):
        factored.append(mat.shape)
        return factor(mat)

    monkeypatch.setattr(timestepping, "PivotedCholesky", counted)
    solver = CoarseSolver(ops, space, tg.tau)
    space = solver.space  # the solver grows a space of its own
    states = run(ops, tg, _source, _p0, solver=solver)
    # the displacement block, the Schur complement and the flow form once
    # for all ten steps and the initial state, all in set_space; growing the
    # space with `append` factors each once more
    assert factored == [(space.n_u,) * 2, (space.n_p,) * 2,
                        (space.n_p,) * 2]

    # every state against a dense solve with the assembled block
    Ru, Rp = space.basis_u, space.basis_p
    pc = np.linalg.solve(solver.stiff_p,
                         Rp.T @ (ops.stiff_p @ _initial_pressure(ops, _p0)))
    uc = np.linalg.solve(solver.stiff_u, solver.coupling.T @ pc)
    dense = [State(0, Ru @ uc, Rp @ pc)]
    for n in range(1, tg.n_steps + 1):
        load = ops.dofs.restrict_p(assemble_load(ops.grid, _source, tg.t(n)))
        prev = states[n - 1]
        rhs = np.concatenate([np.zeros(space.n_u), Rp.T @ (
            tg.tau * load + ops.coupling @ prev.u + ops.mass_p @ prev.p)])
        sol = np.linalg.solve(solver.block, rhs)
        dense.append(State(n, Ru @ sol[:space.n_u], Rp @ sol[space.n_u:]))
    for st, ref in zip(states, dense):
        for x, y in ((st.u, ref.u), (st.p, ref.p)):
            assert np.linalg.norm(x - y) <= 1e-10 * np.linalg.norm(y)

    # not the centre cell, whose 2-layer columns the 1-layer offline space
    # already holds: the filter would refuse them
    for element, family in ((3, "u"), (1, "p"), (5, "u")):
        del factored[:]
        solver.append(_candidates({family: build_element_basis(
            ops, aux, family, element, 2)}), states[-1])
        assert factored == [(space.n_u,) * 2, (space.n_p,) * 2,
                            (space.n_p,) * 2], family


def test_redundant_space_solves_at_numerical_rank():
    # the criterion-01 space holds every local mode, so its projected
    # matrices are singular: the factors stop below the dimension
    grid = build_grids(4, 4, 4)
    field = synth_channels(grid, 1.0, 1e3, n_channels=2, n_inclusions=4,
                           seed=3)
    ops = assemble_operators(grid, field)
    nodes_per_cell = (grid.refinement + 1) ** 2
    aux = build_aux_basis(ops, 2 * nodes_per_cell, nodes_per_cell)
    space = build_global_basis_oracle(ops, aux)
    tg = TimeGrid(0.25, 4)
    solver = CoarseSolver(ops, space, tg.tau)
    assert solver.factor_u.pivots.size < space.n_u
    assert PivotedCholesky(solver.stiff_p).pivots.size < space.n_p
    fine = run(ops, tg, _source, _p0)
    coarse = run(ops, tg, _source, _p0, solver=solver)
    for f, c in zip(fine, coarse):
        eu, ep = energy_errors(ops, c, f)
        assert max(eu, ep) <= 1e-8


def test_non_finite_coarse_solve_raises(setup):
    _, ops = setup
    aux = build_aux_basis(ops, 2)
    space = build_offline_basis(ops, aux, 1)
    tau = 0.1
    solver = CoarseSolver(ops, space, tau)
    prev = solver.initial_state(_initial_pressure(ops, _p0))
    load = ops.dofs.restrict_p(assemble_load(ops.grid, _source, tau))
    # a finite block, factored, and a non-finite previous state
    bad = State(0, prev.u, np.full_like(prev.p, np.nan))
    with pytest.raises(NumericalFailure):
        solver.step(bad, load, 1)
    # a block with a NaN raises when append factors it
    column = np.zeros(ops.dofs.n_u)
    column[0] = np.nan
    with pytest.raises(NumericalFailure):
        solver.append(_candidates({"u": column[:, None]}), prev)
    assert np.isnan(solver.block).any()
