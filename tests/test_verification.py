"""The fine solver against a manufactured solution of the poroelastic PDE.

Every error the program reports is measured against `FineSolver`, whose
other tests compare it with dense solves of the same discrete system. Here
it is compared with the solution of the PDE itself, so that a wrong element
matrix, quadrature, load or time discretization shows.

On the unit square with a homogeneous medium (E = kappa = 1) and the
scalars of the frozen acceptance configuration, take
psi = sin^3(pi x) sin^3(pi y), u = g(t) grad psi and
p = (lam + 2 mu) / alpha g(t) lap psi. Then -div sigma(u) + alpha grad p = 0
exactly, u and p vanish on the boundary and at t = 0, and the flow equation
holds with the source

    f = g' ((lam + 2 mu) / (alpha M) + alpha) lap psi
        - (kappa / nu) (lam + 2 mu) / alpha g lap^2 psi.

The measure is the relative energy error of u and of p at T = 0.5 against
their nodal interpolants, in the assembled stiffness norms. The bounds on
the observed rates were taken from the rates measured on 2x2 coarse cells,
the same under one and two BLAS threads.

A heterogeneous medium has no closed form, so the frozen channel medium is
checked by self-convergence instead: drawn once, then refined with each
fine cell's coefficients copied, so that every level solves the same PDE.

The multiscale space is checked against the fine solver in turn: on a fixed
fine grid, the global CEM space's energy error must fall with the coarse
cell size H, as the CEM bound O(H / sqrt(Lambda)) says it does.
"""

import numpy as np
import scipy.sparse.linalg as spla
from cemporo.assembly import assemble_load, assemble_operators
from cemporo.cembasis import build_offline_basis
from cemporo.grid import build_grids
from cemporo.material import MaterialField, synth_channels
from cemporo.report import energy_errors
from cemporo.spectral import build_aux_basis
from cemporo.timestepping import State, TimeGrid, run

from conftest import FROZEN

SCALARS = FROZEN["scalars"]
T = 0.5


def _sines(x):
    """sin^3(pi x) and its first, second and fourth derivatives."""
    s, c = np.sin(np.pi * x), np.cos(np.pi * x)
    return (s ** 3, 3.0 * np.pi * s ** 2 * c,
            3.0 * np.pi ** 2 * (2.0 * s - 3.0 * s ** 3),
            3.0 * np.pi ** 4 * (27.0 * s ** 3 - 20.0 * s))


def _errors(refinement, tau, g, dg):
    """(err_u, err_p) at T on 2x2 coarse cells, each split `refinement`
    times, for the time factor g with derivative dg."""
    grid = build_grids(2, 2, refinement)
    ones = np.ones(grid.n_fine_cells)
    field = MaterialField(grid, ones, ones, SCALARS["poisson"],
                          SCALARS["alpha"], SCALARS["biot_modulus"],
                          SCALARS["viscosity"])
    ops = assemble_operators(grid, field)
    alpha, M = field.alpha, field.biot_modulus
    modulus = float(field.p_wave_modulus[0])
    mobility = float(field.mobility[0])

    def source(t, x, y):
        X, dX, d2X, d4X = _sines(x)
        Y, dY, d2Y, d4Y = _sines(y)
        lap = d2X * Y + X * d2Y
        bilap = d4X * Y + 2.0 * d2X * d2Y + X * d4Y
        return (dg(t) * (modulus / (alpha * M) + alpha) * lap
                - mobility * modulus / alpha * g(t) * bilap)

    states = run(ops, TimeGrid.from_horizon(tau, T), source,
                 lambda x, y: np.zeros_like(x))
    x, y = grid.fine_node_xy(ops.dofs.p_nodes).T
    X, dX, d2X, _ = _sines(x)
    Y, dY, d2Y, _ = _sines(y)
    exact = State(states[-1].n,
                  g(T) * np.column_stack([dX * Y, X * dY]).ravel(),
                  modulus / alpha * g(T) * (d2X * Y + X * d2Y))
    return np.array(energy_errors(ops, states[-1], exact))


def _rates(errors):
    """The factor each error falls by from one run to the next: one row per
    halving, columns u and p."""
    errors = np.array(errors)
    return errors[:-1] / errors[1:]


def test_second_order_in_space():
    # backward Euler is exact for a solution linear in t, so with g = t the
    # error is spatial; h = 1/8, 1/16, 1/32. Measured: u 4.18, 4.04 and
    # p 3.99, 4.00 per halving of h, the nodal superconvergence of Q1 on
    # uniform squares
    rates = _rates([_errors(r, 0.1, lambda t: t, lambda t: 1.0)
                    for r in (4, 8, 16)])
    assert np.all((rates > 3.8) & (rates < 4.4)), rates


def test_first_order_in_time():
    # g = t^2 at h = 1/64, tau = 0.1 down to 0.0125. Measured: u 2.11,
    # 2.24, 2.35 per halving of tau, first order; p 1.86, 1.73, 1.53, as it
    # nears its spatial floor
    rates = _rates([_errors(32, tau, lambda t: t ** 2, lambda t: 2.0 * t)
                    for tau in (0.1, 0.05, 0.025, 0.0125)])
    u, p = rates.T
    assert np.all((u > 1.9) & (u < 2.6)), rates
    assert np.all((p > 1.4) & (p < 2.1)), rates


def test_heterogeneous_self_convergence():
    # the FROZEN medium drawn on 4x4 coarse cells at refinement 4, then
    # refined 2x, 4x and 8x with each fine cell's coefficients copied; tau
    # 0.1, 5 steps, the FROZEN loads. The 2-norm of the difference between
    # successive levels at the base grid's nodes measured u 6.09e-5,
    # 1.31e-5, 3.78e-6 (ratios 4.66, 3.45) and p 7.65e-4, 2.08e-4, 7.91e-5
    # (ratios 3.68, 2.63), the same under one and two BLAS threads. The
    # ratios fall as the coefficient jumps take over, so the bounds assume
    # no order, only a contraction near the measured one
    base = build_grids(4, 4, 4)
    field = synth_channels(base, **FROZEN["material"]["synth"], **SCALARS)
    levels = []
    for k in (1, 2, 4, 8):
        grid = build_grids(4, 4, 4 * k)
        copy = [np.kron(v.reshape(base.nfy, base.nfx), np.ones((k, k)))
                for v in (field.E, field.kappa)]
        ops = assemble_operators(grid, MaterialField(
            grid, *copy, field.poisson, field.alpha, field.biot_modulus,
            field.viscosity))
        state = run(ops, TimeGrid(0.1, 5), lambda t, x, y: np.ones_like(x),
                    lambda x, y: 100.0 * x * (1 - x) * y * (1 - y))[-1]
        shape = (grid.nfy + 1, grid.nfx + 1)
        levels.append((ops.dofs.extend_u(state.u).reshape(*shape, 2)[::k, ::k],
                       ops.dofs.extend_p(state.p).reshape(shape)[::k, ::k]))
    rates = _rates([[np.linalg.norm(a - b) for a, b in zip(coarse, fine)]
                    for coarse, fine in zip(levels, levels[1:])])
    print("self-convergence ratios, rows by refinement, columns u and p:")
    print(rates)
    u, p = rates.T
    assert np.all((u > 3.0) & (u < 5.2)), rates
    assert np.all((p > 2.3) & (p < 4.2)), rates


def _global_space_errors(ncx):
    """(err_p, err_u) of the steady solves in the global space (every patch
    the whole domain) on ncx x ncx coarse cells of a 48 x 48 fine grid,
    E = kappa = 1: the flow problem with the unit source in the space of
    one mode per cell, then elasticity driven by the fine pressure in the
    space of two."""
    grid = build_grids(ncx, ncx, 48 // ncx)
    ones = np.ones(grid.n_fine_cells)
    ops = assemble_operators(grid, MaterialField(
        grid, ones, ones, SCALARS["poisson"], SCALARS["alpha"],
        SCALARS["biot_modulus"], SCALARS["viscosity"]))
    load = ops.dofs.restrict_p(
        assemble_load(grid, lambda t, x, y: np.ones_like(x)))
    p = spla.spsolve(ops.stiff_p.tocsc(), load)
    drive = ops.coupling.T @ p
    fine = State(0, spla.spsolve(ops.stiff_u.tocsc(), drive), p)
    errors = []
    for modes, family, rhs in ((1, "p", load), (2, "u", drive)):
        space = build_offline_basis(ops, build_aux_basis(ops, modes), ncx)
        B = space.basis(family).toarray()
        A = ops.stiffness(family)
        x = B @ np.linalg.solve(B.T @ (A @ B), B.T @ rhs)
        coarse = State(0, x, p) if family == "u" else State(0, fine.u, x)
        errors.append(energy_errors(ops, coarse, fine)["up".index(family)])
    return errors


def test_multiscale_space_converges_in_H():
    # H = 1/4, 1/8, 1/16. Measured: err_p 0.0295, 0.0149, 0.0070 and err_u
    # 0.1262, 0.0422, 0.0162, so 4.25x and 7.79x from H = 1/4 to 1/16, the
    # same under one and two BLAS threads. With the constraint formed from
    # the assembled weight and nodally zero-extended eigenvectors, which
    # picks up neighbour-cell integrals, they fell 2.67x and 2.92x
    errors = np.array([_global_space_errors(n) for n in (4, 8, 16)])
    print("global-space errors, rows by H, columns p and u:")
    print(errors)
    assert np.all(errors[0] >= 3.5 * errors[-1]), errors
