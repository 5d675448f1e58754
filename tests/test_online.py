"""Residual computation, region selection, and online basis growth."""

import weakref

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cemporo import cli, online, timestepping
from cemporo.assembly import assemble_load, assemble_operators
from cemporo.cembasis import (BandedCholesky, MultiscaleSpace, PatchSolver,
                              build_offline_basis, patch_nodes)
from cemporo.grid import (Patch, PartitionOfUnity, build_grids,
                          oversample_element, oversample_neighborhood)
from cemporo.material import MaterialField, synth_channels
from cemporo.online import Enricher, OnlineConfig, select_regions
from cemporo.spectral import build_aux_basis
from cemporo.timestepping import (CoarseSolver, ResidualSet, State, TimeGrid,
                                  compute_residuals, run)

from conftest import FROZEN
from oracles import patch_residual


def _source(t, x, y):
    return np.ones_like(np.asarray(x, dtype=float))


def _p0(x, y):
    return 100.0 * x * (1.0 - x) * y * (1.0 - y)


@pytest.fixture(scope="module")
def setup():
    grid = build_grids(3, 3, 3)
    field = synth_channels(grid, 1.0, 1e3, seed=4)
    ops = assemble_operators(grid, field)
    aux = build_aux_basis(ops, 2)
    space = build_offline_basis(ops, aux, 1)
    tg = TimeGrid(0.1, 2)
    fine = run(ops, tg, _source, _p0)
    loads = [None] + [
        ops.dofs.restrict_p(assemble_load(ops.grid, _source, tg.t(n)))
        for n in (1, 2)]
    return ops, aux, space, tg, fine, loads


# ---- residuals -----------------------------------------------------------


def test_residual_dense_oracle(setup):
    ops, _, _, tg, fine, loads = setup
    rng = np.random.default_rng(3)
    state = fine[1]
    prev = fine[0]
    perturbed = type(state)(1, state.u + rng.normal(size=state.u.size),
                            state.p + rng.normal(size=state.p.size))
    res = compute_residuals(ops, tg.tau, perturbed, prev, loads[1])
    A = ops.stiff_u.toarray()
    B = ops.stiff_p.toarray()
    C = ops.mass_p.toarray()
    D = ops.coupling.toarray()
    ru = D.T @ perturbed.p - A @ perturbed.u
    rp = loads[1] - B @ perturbed.p - (
        C @ (perturbed.p - prev.p) + D @ (perturbed.u - prev.u)) / tg.tau
    npt.assert_allclose(res.r_u, ru, atol=1e-11 * np.abs(ru).max())
    npt.assert_allclose(res.r_p, rp, atol=1e-11 * np.abs(rp).max())


def test_fine_solution_has_zero_residual(setup):
    ops, _, _, tg, fine, loads = setup
    res = compute_residuals(ops, tg.tau, fine[2], fine[1], loads[2])
    scale = np.linalg.norm(loads[2])
    assert np.linalg.norm(res.r_u) <= 1e-10 * scale
    assert np.linalg.norm(res.r_p) <= 1e-10 * scale


def test_enrichment_is_noop_on_fine_solution(setup):
    ops, aux, space, tg, fine, loads = setup
    solver = CoarseSolver(ops, space, tg.tau)
    enr = Enricher(ops, aux, OnlineConfig(theta=0.3, gamma=0.3, layers=1))
    n_u, n_p = solver.space.n_u, solver.space.n_p
    out, added_u, added_p = enr.enrich_once(
        solver, fine[2], fine[1], loads[2], 1)
    assert (added_u, added_p) == (0, 0)
    assert out is fine[2]
    assert (solver.space.n_u, solver.space.n_p) == (n_u, n_p)


def test_enrich_once_on_zero_data_keeps_the_state(setup):
    # a zero state with zero loads leaves no residual, so no region is
    # picked and nothing reaches the filter
    ops, aux, space, tg, fine, loads = setup
    solver = CoarseSolver(ops, space, tg.tau)
    prev, zero = (State(n, np.zeros(ops.dofs.n_u), np.zeros(ops.dofs.n_p))
                  for n in (0, 1))
    out, added_u, added_p = Enricher(ops, aux, OnlineConfig()).enrich_once(
        solver, zero, prev, np.zeros(ops.dofs.n_p), 1)
    assert out is zero
    assert (added_u, added_p) == (0, 0)


# ---- region selection ------------------------------------------------------


def test_select_regions_examples():
    npt.assert_array_equal(select_regions([3.0, 2.0, 1.0], 0.3), [0, 1])
    # bulk = 1 keeps only the single largest region
    npt.assert_array_equal(select_regions([3.0, 2.0, 1.0], 1.0), [0])
    # bulk = 0 keeps every region with a nonzero indicator
    npt.assert_array_equal(select_regions([0.0, 3.0, 0.0, 1.0], 0.0), [1, 3])
    # ties resolve toward the lower index
    npt.assert_array_equal(select_regions([2.0, 2.0, 0.1], 0.6), [0])
    npt.assert_array_equal(select_regions([2.0, 2.0, 0.1], 0.4), [0, 1])
    assert select_regions(np.zeros(4), 0.3).size == 0
    with pytest.raises(ValueError):
        select_regions([1.0, -0.5], 0.3)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(0.0, 1e3, allow_nan=False), min_size=1,
                max_size=30),
       st.one_of(st.just(0.0), st.floats(1e-6, 1.0, allow_nan=False)))
def test_select_regions_bulk_property(values, bulk):
    eta = np.asarray(values)
    sel = select_regions(eta, bulk)
    total = float(np.sum(eta ** 2))
    if total == 0.0:
        assert sel.size == 0
        return
    excluded = np.setdiff1d(np.arange(eta.size), sel)
    tail = float(np.sum(eta[excluded] ** 2))
    slack = 1e-12 * total  # cumulative-sum rounding in the module
    if bulk > 0.0:
        # the excluded tail satisfies the criterion ...
        assert tail < bulk * total + slack
        # ... and no shorter selection would
        if sel.size > 1:
            longer = tail + float(eta[sel[-1]] ** 2)
            assert longer >= bulk * total - slack
    # every selected region dominates every excluded one
    if sel.size and excluded.size:
        assert eta[sel].min() >= eta[excluded].max()


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(0.0, 1e3, allow_nan=False), min_size=1,
                max_size=30),
       st.floats(0.0, 1.0, allow_nan=False),
       st.floats(0.0, 1.0, allow_nan=False))
# a tiny bulk once selected the zero indicators as well
@example([0.0, 0.0, 0.0, 0.0, 181.0, 181.0, 444.0, 2.9], 0.0,
         2.225073858507e-311)
def test_select_regions_monotone_in_bulk(values, b1, b2):
    lo, hi = min(b1, b2), max(b1, b2)
    eta = np.asarray(values)
    assert select_regions(eta, lo).size >= select_regions(eta, hi).size


# ---- indicators ------------------------------------------------------------


def test_global_norms_dense_oracle(setup):
    ops, aux, _, tg, fine, loads = setup
    coarse = run(ops, tg, _source, _p0, solver=CoarseSolver(
        ops, build_offline_basis(ops, aux, 1), tg.tau))
    res = compute_residuals(ops, tg.tau, coarse[1], coarse[0], loads[1])
    enr = Enricher(ops, aux, OnlineConfig())
    gu, gp = enr.global_norms(res)
    for mat, r, got in ((ops.stiff_u, res.r_u, gu),
                        (ops.stiff_p, res.r_p, gp)):
        w = np.linalg.solve(mat.toarray(), r)
        assert got == pytest.approx(np.sqrt(r @ w), rel=1e-10)
        # bit for bit |L^-1 r| of a freshly built whole-interior factor
        assert got == float(np.linalg.norm(
            BandedCholesky(mat).solve_lower(r)))
    assert gu > 0 and gp > 0
    assert enr.global_norms(res) == (gu, gp)


def test_indicator_regions_by_strategy(setup):
    ops, aux, space, tg, fine, loads = setup
    coarse = run(ops, tg, _source, _p0,
                 solver=CoarseSolver(ops, space, tg.tau))
    for strategy, expected in (
            ("neighborhood", ops.grid.interior_coarse_nodes),
            ("element", np.arange(ops.grid.n_coarse_cells))):
        res = compute_residuals(ops, tg.tau, coarse[1], coarse[0], loads[1])
        enr = Enricher(ops, aux, OnlineConfig(strategy=strategy))
        eta_u, eta_p = enr.compute_indicators(res)
        npt.assert_array_equal(enr.regions, expected)
        assert eta_u.shape == eta_p.shape == expected.shape
        assert np.all(eta_u >= 0) and np.all(eta_p >= 0)
        assert eta_u.max() > 0


# ---- online columns --------------------------------------------------------


def test_online_column_defining_equation(setup):
    ops, aux, space, tg, fine, loads = setup
    coarse = run(ops, tg, _source, _p0,
                 solver=CoarseSolver(ops, space, tg.tau))
    res = compute_residuals(ops, tg.tau, coarse[1], coarse[0], loads[1])
    for strategy, region in (("neighborhood",
                              int(ops.grid.interior_coarse_nodes[0])),
                             ("element", 4)):
        cfg = OnlineConfig(strategy=strategy, layers=1)
        enr = Enricher(ops, aux, cfg)
        for family, r in (("u", res.r_u), ("p", res.r_p)):
            index, col = enr.build_online_column(family, region, res)
            patch = (oversample_neighborhood(ops.grid, region, 1)
                     if strategy == "neighborhood"
                     else oversample_element(ops.grid, region, 1))
            solver = PatchSolver(ops, aux, patch, family)
            rhs = ops.dofs.spread(enr._weights(region, patch_nodes(patch)),
                                  family) * r[solver.index]
            defect = patch_residual(solver, col, rhs)
            assert defect <= 1e-10 * np.linalg.norm(rhs)
            # support confined to the oversampled patch
            npt.assert_array_equal(index, solver.index)


def test_online_column_deterministic(setup):
    ops, aux, space, tg, fine, loads = setup
    coarse = run(ops, tg, _source, _p0,
                 solver=CoarseSolver(ops, space, tg.tau))
    res = compute_residuals(ops, tg.tau, coarse[1], coarse[0], loads[1])
    cfg = OnlineConfig(layers=1)
    region = int(ops.grid.interior_coarse_nodes[1])
    a = Enricher(ops, aux, cfg).build_online_column("p", region, res)
    b = Enricher(ops, aux, cfg).build_online_column("p", region, res)
    for x, y in zip(a, b):
        npt.assert_array_equal(x, y)
    with pytest.raises(ValueError, match="family"):
        Enricher(ops, aux, cfg).build_online_column("q", region, res)


@pytest.mark.parametrize("strategy", ["neighborhood", "element"])
def test_online_column_reads_only_its_patch(setup, monkeypatch, strategy):
    # the residual weights are evaluated at the patch's interior nodes only,
    # never over the whole grid
    ops, aux, space, tg, fine, loads = setup
    counts = []

    def recorded(method):
        def wrapper(self, *args):
            counts.append(np.asarray(args[-1]).size)
            return method(self, *args)
        return wrapper

    monkeypatch.setattr(PartitionOfUnity, "values",
                        recorded(PartitionOfUnity.values))
    monkeypatch.setattr(Patch, "covers", recorded(Patch.covers))
    coarse = run(ops, tg, _source, _p0,
                 solver=CoarseSolver(ops, space, tg.tau))
    res = compute_residuals(ops, tg.tau, coarse[1], coarse[0], loads[1])
    enr = Enricher(ops, aux, OnlineConfig(strategy=strategy, layers=0))
    for region in enr.regions:
        size = enr._patch(ops.grid, int(region), 0).interior_fine_nodes.size
        assert size < ops.dofs.n_p
        for family in ("u", "p"):
            counts.clear()
            enr.build_online_column(family, region, res)
            assert counts == [size]


# ---- the adaptive loop -----------------------------------------------------


def test_enrich_once_decreases_dual_norms(setup):
    ops, aux, space, tg, fine, loads = setup
    solver = CoarseSolver(ops, space, tg.tau)
    states = run(ops, tg, _source, _p0, solver=solver)
    enr = Enricher(ops, aux,
                   OnlineConfig(theta=0.5, gamma=0.5, layers=1))
    res0 = compute_residuals(ops, tg.tau, states[1], states[0], loads[1])
    before = sum(enr.global_norms(res0))
    n_u, n_p = solver.space.n_u, solver.space.n_p
    state, added_u, added_p = enr.enrich_once(
        solver, states[1], states[0], loads[1], 1)
    assert added_u > 0 and added_p > 0
    res1 = compute_residuals(ops, tg.tau, state, states[0], loads[1])
    after = sum(enr.global_norms(res1))
    assert after < before
    # the re-solve happened in the enlarged space
    assert (solver.space.n_u, solver.space.n_p) == (n_u + added_u,
                                                    n_p + added_p)
    assert solver.stiff_u.shape[0] == n_u + added_u
    assert solver.stiff_p.shape[0] == n_p + added_p


def test_online_columns_have_unit_energy_at_any_load_scale(setup):
    # scaling the state, the previous state and the load by a power of two
    # scales every residual exactly; the appended columns must not change by
    # one bit, down to a residual 2^-40 times that of the unit load
    ops, aux, space, tg, fine, loads = setup
    states = run(ops, tg, _source, _p0,
                 solver=CoarseSolver(ops, space, tg.tau))
    appended = []
    for c in [2.0 ** k for k in range(-3, 4)] + [2.0 ** -40]:
        solver = CoarseSolver(ops, space, tg.tau)
        state, prev = (State(st.n, c * st.u, c * st.p)
                       for st in (states[1], states[0]))
        enr = Enricher(ops, aux, OnlineConfig(layers=1))
        _, added_u, added_p = enr.enrich_once(solver, state, prev,
                                              c * loads[1], 1)
        assert added_u > 0 and added_p > 0
        appended.append([solver.space.basis_u[:, space.n_u:].toarray(),
                         solver.space.basis_p[:, space.n_p:].toarray()])
    for family, *scaled in zip("up", *appended):
        unit = scaled[3]
        for new in scaled:
            assert np.array_equal(new, unit), family
        energy = np.einsum("ij,ij->j", unit, ops.stiffness(family) @ unit)
        npt.assert_allclose(energy, 1.0, rtol=1e-12)


def _dense_filter(A, R, columns, current):
    """Reference near-dependence filter by dense least squares: the decision
    on each candidate and the accepted columns at unit energy."""
    B = R.toarray()
    floor = 1e-18 * current @ (A @ current)
    decisions, accepted = [], []
    for col in columns:
        e2 = col @ (A @ col)
        keep = e2 > floor
        if keep:
            G, g = B.T @ (A @ B), B.T @ (A @ col)
            x = np.linalg.lstsq(G, g, rcond=None)[0]
            keep = e2 - g @ x > 1e-10 * e2
        decisions.append(bool(keep))
        if keep:
            accepted.append(col / np.sqrt(e2))
            B = np.column_stack([B, accepted[-1]])
    return decisions, accepted


def test_filter_matches_dense_least_squares(setup):
    ops, aux, space, tg, fine, loads = setup
    rng = np.random.default_rng(3)
    for k, family in enumerate("up"):
        A = ops.stiffness(family)
        R = space.basis(family).toarray()
        a, b = rng.standard_normal((2, R.shape[0]))
        candidates = [R[:, 3], 0.3 * R[:, 1] - 2.0 * R[:, 5],
                      np.zeros(R.shape[0]), a, b,
                      a + 1e-9 * np.linalg.norm(a) * rng.standard_normal(
                          R.shape[0])]
        current = getattr(fine[1], family)
        # the second solver's space holds a duplicated column: its Gram is
        # singular, and the filter would refuse the duplicate
        grown = MultiscaleSpace(space.basis_u, space.basis_p)
        grown.append(family, space.basis(family)[:, [2]])
        redundant = CoarseSolver(ops, grown, tg.tau)
        everywhere = np.arange(R.shape[0])
        columns = [[], []]
        columns[k] = [(everywhere, c) for c in candidates]
        for solver in (CoarseSolver(ops, space, tg.tau), redundant):
            base = solver.space.basis(family)
            added = solver.append(columns, fine[1])
            decisions, accepted = _dense_filter(A, base, candidates, current)
            assert decisions == [False, False, False, True, True, False]
            assert added[k] == len(accepted) and added[1 - k] == 0
            new = solver.space.basis(family)[:, base.shape[1]:]
            npt.assert_allclose(new.toarray(), np.column_stack(accepted),
                                rtol=1e-14, atol=0)


def test_enriching_run_leaves_the_callers_space(setup):
    # the solver grows a space of its own: it starts on the caller's basis
    # matrices, copies none of them and changes none of them
    ops, aux, space, tg, fine, loads = setup
    bases = space.basis_u, space.basis_p
    n_u, n_p = space.n_u, space.n_p
    last = space.basis_p[:, -1].toarray()
    solver = CoarseSolver(ops, space, tg.tau)
    assert solver.space.basis_u is bases[0]
    assert solver.space.basis_p is bases[1]
    enr = Enricher(ops, aux, OnlineConfig(layers=1))
    run(ops, tg, _source, _p0, solver=solver,
        hook=lambda n, s, state, prev, load: enr.adaptive_loop(
            s, state, prev, load))
    assert solver.space.n_u > n_u and solver.space.n_p > n_p
    assert (space.n_u, space.n_p) == (n_u, n_p)
    assert space.basis_u is bases[0] and space.basis_p is bases[1]
    assert np.array_equal(space.basis_p[:, -1].toarray(), last)


def test_adaptive_loop_zero_iterations(setup):
    ops, aux, space, tg, fine, loads = setup
    solver = CoarseSolver(ops, space, tg.tau)
    states = run(ops, tg, _source, _p0, solver=solver)
    enr = Enricher(ops, aux, OnlineConfig(iterations=0))
    history = []
    out = enr.adaptive_loop(solver, states[1], states[0], loads[1],
                            reference=fine[1], history=history)
    assert out is states[1]
    assert len(history) == 1
    row = history[0]
    assert row["iteration"] == 0 and row["added_u"] == 0
    assert row["eta"] > 0 and np.isfinite(row["err_u"])


def test_adaptive_loop_history_and_tolerance(setup):
    ops, aux, space, tg, fine, loads = setup
    solver = CoarseSolver(ops, space, tg.tau)
    states = run(ops, tg, _source, _p0, solver=solver)
    enr = Enricher(ops, aux,
                   OnlineConfig(theta=0.5, gamma=0.5, layers=1, iterations=2))
    history = []
    enr.adaptive_loop(solver, states[1], states[0], loads[1],
                      reference=fine[1], history=history)
    assert len(history) == 3
    etas = [row["eta"] for row in history]
    assert etas[2] < etas[0]
    errs = [row["err_u"] for row in history]
    assert errs[2] < errs[0]
    assert history[1]["added_u"] >= 1
    assert history[2]["n_u"] >= history[1]["n_u"]

    # a tolerance above the starting dual norm stops immediately
    solver2 = CoarseSolver(ops, space, tg.tau)
    states2 = run(ops, tg, _source, _p0, solver=solver2)
    lazy = Enricher(ops, aux,
                    OnlineConfig(layers=1, iterations=5, tol=10 * etas[0]))
    hist2 = []
    out = lazy.adaptive_loop(solver2, states2[1], states2[0], loads[1],
                             history=hist2)
    assert len(hist2) == 1
    assert out is states2[1]


def test_adaptive_loop_stagnation_guard_stops_fixed_loop(setup):
    ops, aux, space, tg, fine, loads = setup
    solver = CoarseSolver(ops, space, tg.tau)
    states = run(ops, tg, _source, _p0, solver=solver)
    res = compute_residuals(ops, tg.tau, states[1], states[0], loads[1])
    eta0 = sum(Enricher(ops, aux, OnlineConfig()).global_norms(res))
    # no change of eta can exceed eps, so the first iteration stagnates
    enr = Enricher(ops, aux, OnlineConfig(
        theta=0.5, gamma=0.5, layers=1, iterations=5, eps=10 * eta0))
    history = []
    enr.adaptive_loop(solver, states[1], states[0], loads[1], history=history)
    assert [row["iteration"] for row in history] == [0, 1]
    assert history[0]["eta"] == pytest.approx(eta0, rel=1e-12)
    assert history[1]["added_u"] + history[1]["added_p"] > 0


@pytest.mark.parametrize("strategy", ["neighborhood", "element"])
def test_adaptive_loop_caches_region_factors_only(setup, strategy):
    # the whole-interior factors of the history's dual norms are not kept
    ops, aux, space, tg, fine, loads = setup
    solver = CoarseSolver(ops, space, tg.tau)
    states = run(ops, tg, _source, _p0, solver=solver)
    enr = Enricher(ops, aux, OnlineConfig(strategy=strategy, layers=1,
                                          iterations=2))
    history = []
    enr.adaptive_loop(solver, states[1], states[0], loads[1], history=history)
    assert len(history) == 3
    assert enr._riesz
    regions = set(enr.regions.tolist())
    assert all(family in ("u", "p") and region in regions
               for family, region in enr._riesz)


@pytest.fixture(scope="module")
def every_step():
    """The FROZEN physics on 6x6 cells of refinement 6, without the fine
    reference."""
    return cli.Experiment(cli.resolve_config(
        dict(FROZEN, mesh={"ncx": 6, "ncy": 6, "refinement": 6},
             reference=False)))


@pytest.mark.parametrize("strategy", ["element", "neighborhood"])
def test_online_columns_form_one_capacitance_per_patch(every_step, monkeypatch,
                                                       strategy):
    # enriching after every step picks regions again; only the first solver
    # on each (family, rectangle) forms Z and the capacitance, and the
    # enricher keeps that capacitance for the later ones
    built, enrichers = [], []

    class Recorded(PatchSolver):
        def __init__(self, ops, aux, patch, family, capacitance=None):
            built.append(((family, patch.rect), capacitance is None))
            super().__init__(ops, aux, patch, family, capacitance)

    class Kept(Enricher):
        def __init__(self, *args):
            super().__init__(*args)
            enrichers.append(self)

    monkeypatch.setattr(online, "PatchSolver", Recorded)
    monkeypatch.setattr(cli, "Enricher", Kept)
    every_step.run_multiscale({"strategy": strategy, "iterations": 2,
                               "schedule": {"every": 1}})
    (enr,) = enrichers
    keys = [key for key, _ in built]
    formed = [key for key, fresh in built if fresh]
    assert len(keys) > len(set(keys))
    assert formed == list(dict.fromkeys(keys))
    assert len(formed) == len(enr._capacitance)
    assert set(enr._capacitance) == set(keys)


def test_p_candidates_are_built_after_the_u_ones_are_dropped(setup,
                                                            monkeypatch):
    # one family's candidates at a time: when the first "p" column is
    # built, the "u" columns have been filtered and released
    ops, aux, space, tg, fine, loads = setup
    solver = CoarseSolver(ops, space, tg.tau)
    states = run(ops, tg, _source, _p0, solver=solver)
    build = Enricher.build_online_column
    built = {"u": [], "p": []}
    u_alive = []

    def recorded(self, family, region, res):
        if family == "p" and not built["p"]:
            u_alive.append(sum(ref() is not None for ref in built["u"]))
        index, values = build(self, family, region, res)
        built[family].append(weakref.ref(values))
        return index, values

    monkeypatch.setattr(Enricher, "build_online_column", recorded)
    enr = Enricher(ops, aux, OnlineConfig(theta=0.5, gamma=0.5, layers=1))
    enr.enrich_once(solver, states[1], states[0], loads[1], 1)
    assert built["u"] and built["p"]
    assert u_alive == [0]


def test_append_borders_the_stiffness_from_the_filter(setup, monkeypatch):
    # the filter's energy products border the projected stiffness, and
    # `append` borders the mass and the coupling by the grown space's new
    # columns, so once the solver is built no form reaches `_project`
    ops, aux, space, tg, fine, loads = setup
    solver = CoarseSolver(ops, space, tg.tau)
    states = run(ops, tg, _source, _p0, solver=solver)
    project = timestepping._project
    projected = []

    def recording(A, R_row, R_col):
        projected.append(A)
        return project(A, R_row, R_col)

    monkeypatch.setattr(timestepping, "_project", recording)
    enr = Enricher(ops, aux, OnlineConfig(theta=0.5, gamma=0.5, layers=1))
    _, added_u, added_p = enr.enrich_once(solver, states[1], states[0],
                                          loads[1], 1)
    assert added_u > 0 and added_p > 0
    assert projected == []
    for family in "up":
        R = solver.space.basis(family)
        want = project(ops.stiffness(family), R, R)
        got = getattr(solver, "stiff_" + family)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_adaptive_loop_tolerance_loop_iterates_to_tol(setup):
    ops, aux, space, tg, fine, loads = setup

    def loop(cfg):
        solver = CoarseSolver(ops, space, tg.tau)
        states = run(ops, tg, _source, _p0, solver=solver)
        history = []
        Enricher(ops, aux, cfg).adaptive_loop(
            solver, states[1], states[0], loads[1], history=history)
        return [row["eta"] for row in history]

    fixed = loop(OnlineConfig(theta=0.5, gamma=0.5, layers=1, iterations=2))
    tol = 0.5 * (fixed[0] + min(fixed[1:]))
    eps = 1e-12 * fixed[0]
    etas = loop(OnlineConfig(theta=0.5, gamma=0.5, layers=1, iterations=5,
                             tol=tol, eps=eps))
    # the tolerance loop follows the fixed one and stops at the first
    # iterate inside tol + eps
    assert len(etas) >= 2
    assert etas == fixed[:len(etas)]
    assert etas[-1] <= tol + eps
    assert all(eta > tol + eps for eta in etas[:-1])


def test_patch_without_interior_unknowns_is_rejected():
    # with one fine cell per coarse cell, a zero-layer element patch is a
    # single fine cell and has no interior node
    grid = build_grids(2, 2, 1)
    ones = np.ones(grid.n_fine_cells)
    field = MaterialField(grid, ones, ones, 0.2, 0.9, 1.0, 1.0)
    ops = assemble_operators(grid, field)
    aux = build_aux_basis(ops, 1)
    patch = oversample_element(grid, 0, 0)
    assert patch.interior_fine_nodes.size == 0
    for family in ("u", "p"):
        with pytest.raises(ValueError, match="no interior unknowns"):
            PatchSolver(ops, aux, patch, family)
    enr = Enricher(ops, aux, OnlineConfig(strategy="element"))
    res = ResidualSet(np.ones(ops.dofs.n_u), np.ones(ops.dofs.n_p))
    with pytest.raises(ValueError, match="no interior unknowns"):
        enr.compute_indicators(res)


def test_config_validation():
    with pytest.raises(ValueError):
        OnlineConfig(theta=1.5)
    with pytest.raises(ValueError):
        OnlineConfig(gamma=-0.1)
    with pytest.raises(ValueError):
        OnlineConfig(strategy="cellwise")
    with pytest.raises(ValueError):
        OnlineConfig(layers=-1)
    with pytest.raises(ValueError):
        OnlineConfig(iterations=-2)
    with pytest.raises(TypeError):
        OnlineConfig(layers=1.5)
    with pytest.raises(TypeError):
        OnlineConfig(iterations=2.0)
    with pytest.raises(TypeError):
        OnlineConfig(theta="0.3")
    with pytest.raises(TypeError):
        OnlineConfig(tol="small")
    with pytest.raises(TypeError):
        OnlineConfig(theta=True)
    with pytest.raises(TypeError):
        OnlineConfig(iterations=True)
