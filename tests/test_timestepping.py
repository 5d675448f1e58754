"""Backward Euler marching on the fine grid and on multiscale spaces."""

import numpy as np
import numpy.testing as npt
import pytest

from cemporo.assembly import assemble_load, assemble_operators
from cemporo import cembasis
from cemporo.cembasis import (build_element_basis, build_global_basis_oracle,
                              build_offline_basis, galerkin_project)
from cemporo.grid import build_grids, partition_of_unity
from cemporo.material import MaterialField, synth_channels
from cemporo.online import compute_residuals
from cemporo.spectral import build_aux_basis
from cemporo.timestepping import (CoarseSolver, FineSolver, NumericalFailure,
                                  State, TimeGrid, fine_initial_state,
                                  initial_state, run, save_snapshots)


def _source(t, x, y):
    return np.ones_like(np.asarray(x, dtype=float))


def _p0(x, y):
    return 100.0 * x * (1.0 - x) * y * (1.0 - y)


@pytest.fixture(scope="module")
def setup():
    grid = build_grids(3, 3, 3)
    field = synth_channels(grid, 1.0, 50.0, seed=9)
    pou = partition_of_unity(grid)
    ops = assemble_operators(grid, field, pou)
    return grid, ops


def test_time_grid():
    tg = TimeGrid.from_horizon(0.05, 1.0)
    assert tg.n_steps == 20
    assert tg.final_time == pytest.approx(1.0)
    assert tg.t(3) == pytest.approx(0.15)
    with pytest.raises(ValueError):
        TimeGrid.from_horizon(0.3, 1.0)
    with pytest.raises(ValueError):
        TimeGrid(-0.1, 5)
    with pytest.raises(ValueError):
        TimeGrid(0.1, 0)


def test_initial_state_zero_pressure(setup):
    _, ops = setup
    st = fine_initial_state(ops, lambda x, y: np.zeros_like(x))
    npt.assert_allclose(st.u, 0.0, atol=1e-14)
    npt.assert_allclose(st.p, 0.0, atol=1e-14)


def test_initial_state_dense_oracle(setup):
    _, ops = setup
    st = fine_initial_state(ops, _p0)
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


def test_initial_state_reproduces_fe_member(setup):
    _, ops = setup
    member = np.zeros(ops.grid.n_fine_nodes)
    member[ops.dofs.p_nodes] = np.random.default_rng(2).normal(
        size=ops.dofs.n_p)
    st = fine_initial_state(ops, member)
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
    prev = fine_initial_state(ops, _p0)
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


def test_full_auxiliary_space_reproduces_fine():
    grid = build_grids(2, 2, 2)
    field = synth_channels(grid, 1.0, 10.0, seed=1)
    ops = assemble_operators(grid, field, partition_of_unity(grid))
    # every local eigenfunction of every cell: the multiscale space spans
    # the whole fine space and the trajectories must coincide
    nodes_per_cell = (grid.refinement + 1) ** 2
    aux = build_aux_basis(ops, 2 * nodes_per_cell, nodes_per_cell)
    space = build_global_basis_oracle(ops, aux)
    tg = TimeGrid(0.25, 4)
    fine = run(ops, tg, _source, _p0)
    coarse = run(ops, tg, _source, _p0, space=space)
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
    states = run(ops, tg, _source, _p0, space=space)
    solver = CoarseSolver(ops, space, tg.tau)
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
    """Re-projecting an appended-to space only borders the old blocks, and
    gives bit for bit what a projection from scratch gives."""
    _, ops = setup
    aux = build_aux_basis(ops, 2)
    space = build_offline_basis(ops, aux, 1)
    tau = 0.1
    solver = CoarseSolver(ops, space, tau)
    bordered = []
    project = cembasis._project

    def recording(A, R_row, R_col, old=None):
        bordered.append(old is not None)
        return project(A, R_row, R_col, old)

    monkeypatch.setattr(cembasis, "_project", recording)
    for element, families in ((3, ("u",)), (4, ("p",)), (5, ("u", "p"))):
        for family in families:
            space.append(family, *build_element_basis(ops, aux, family,
                                                      element, 2))
        del bordered[:]
        solver.set_space(space)
        assert bordered == [True] * 4
        fresh = galerkin_project(ops, space)
        for name in ("stiff_u", "stiff_p", "mass_p", "coupling"):
            assert np.array_equal(getattr(solver.co, name),
                                  getattr(fresh, name)), (families, name)
        assert np.array_equal(solver.block,
                              CoarseSolver(ops, space, tau).block), families


def test_coarse_initial_state_projection(setup):
    _, ops = setup
    aux = build_aux_basis(ops, 2)
    space = build_offline_basis(ops, aux, 1)
    p_fine = fine_initial_state(ops, _p0).p
    st = initial_state(ops, _p0, space=space, tau=0.1)
    # flow-form projection: the defect is stiffness-orthogonal to the space
    defect = ops.stiff_p @ (st.p - p_fine)
    npt.assert_allclose(space.basis_p.T @ defect, 0.0,
                        atol=1e-9 * np.linalg.norm(ops.stiff_p @ p_fine))
    assert st.space_tag.startswith("multiscale")


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


def test_lstsq_failure_raises():
    bad = np.array([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(NumericalFailure):
        CoarseSolver._lstsq(bad, np.ones(2))


def test_save_snapshots(tmp_path, setup):
    _, ops = setup
    tg = TimeGrid(0.1, 2)
    states = run(ops, tg, _source, _p0)
    stem = str(tmp_path / "traj")
    save_snapshots(states, stem)
    data = np.load(stem + "_states.npz")
    assert "p_2" in data
    npt.assert_array_equal(data["p_2"], states[2].p)
