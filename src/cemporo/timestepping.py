"""Implicit time stepping of the coupled flow/mechanics system.

One backward difference step solves the monolithic block system

    [[A, -D^T], [D, C + tau B]] (u, p) = (0, tau f + D u_prev + C p_prev)

on interior unknowns, either on the fine grid (sparse LU, factorized once per
step size) or projected onto a multiscale space (dense least squares, which
also covers deliberately redundant spaces where the projected matrix is
singular but consistent). Previous-step terms always enter through fine-grid
lifts, so the right-hand side stays meaningful when the space is enriched
between steps.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import assemble_load
from .cembasis import galerkin_project, spd_factor


class NumericalFailure(RuntimeError):
    """Raised when a factorization or solve breaks down."""


@dataclass
class TimeGrid:
    tau: float
    n_steps: int

    def __post_init__(self):
        if self.tau <= 0.0 or self.n_steps < 1:
            raise ValueError("need positive step size and step count")

    @property
    def final_time(self):
        return self.tau * self.n_steps

    def t(self, n):
        return n * self.tau

    @classmethod
    def from_horizon(cls, tau, T):
        n = int(round(T / tau))
        if n < 1 or abs(n * tau - T) > 1e-9 * max(T, 1.0):
            raise ValueError("final time is not a positive multiple of the step size")
        return cls(tau, n)


@dataclass
class State:
    n: int
    u: np.ndarray
    p: np.ndarray
    space_tag: str = "fine"


def _nodal_pressure_load(ops, p0):
    """Interior load vector (p0, q) for a callable or nodal initial pressure."""
    if callable(p0):
        load = assemble_load(ops.grid, lambda t, x, y: p0(x, y))
    else:
        vals = np.asarray(p0, dtype=float).ravel()
        if vals.size != ops.grid.n_fine_nodes:
            raise ValueError("nodal initial pressure has wrong length")
        load = ops.field.biot_modulus * (ops.mass_p_full @ vals)
    return ops.dofs.restrict_p(load)


def fine_initial_state(ops, p0):
    """Mass projection of the initial pressure, then the balancing elastic solve."""
    load = _nodal_pressure_load(ops, p0)
    mass = ops.field.biot_modulus * ops.mass_p
    p = spd_factor(mass).solve(load)
    elastic = spd_factor(ops.stiff_u)
    rhs = ops.coupling.T @ p
    u = elastic.solve(rhs)
    u += elastic.solve(rhs - ops.stiff_u @ u)
    return State(0, u, p)


class FineSolver:
    """Reference solver on the fine grid; the block LU is built on first use."""

    def __init__(self, ops, tau):
        self.ops = ops
        self.tau = float(tau)
        self.n_u = ops.dofs.n_u
        self._block = None
        self._lu = None

    def _factorize(self):
        if self._lu is None:
            ops = self.ops
            self._block = sp.bmat(
                [[ops.stiff_u, -ops.coupling.T],
                 [ops.coupling, ops.mass_p + self.tau * ops.stiff_p]],
                format="csc")
            try:
                self._lu = spla.splu(self._block)
            except RuntimeError as err:
                raise NumericalFailure("fine step factorization failed: %s" % err)

    def initial_state(self, p0):
        return fine_initial_state(self.ops, p0)

    def step(self, prev, load, n):
        self._factorize()
        ops = self.ops
        rhs = np.concatenate([
            np.zeros(self.n_u),
            self.tau * load + ops.coupling @ prev.u + ops.mass_p @ prev.p])
        x = self._lu.solve(rhs)
        x += self._lu.solve(rhs - self._block @ x)
        return State(n, x[:self.n_u], x[self.n_u:])


class CoarseSolver:
    """Galerkin solver on a multiscale space, rebuilt when the space changes."""

    def __init__(self, ops, space, tau):
        self.ops = ops
        self.tau = float(tau)
        self.space = None
        self.generation = 0
        self.set_space(space)

    def set_space(self, space):
        """Project onto `space`. Handed the current space again, after
        `append` grew it, only the appended rows and columns are projected."""
        previous = self.co if space is self.space else None
        self.space = space
        self.co = galerkin_project(self.ops, space, previous)
        co = self.co
        self.block = np.vstack([
            np.hstack([co.stiff_u, -co.coupling.T]),
            np.hstack([co.coupling, co.mass_p + self.tau * co.stiff_p])])
        self.n_u = space.n_u
        self.generation += 1

    def _tag(self):
        return "multiscale-%d" % self.generation

    @staticmethod
    def _lstsq(mat, rhs):
        try:
            sol, _, _, _ = np.linalg.lstsq(mat, rhs, rcond=None)
        except np.linalg.LinAlgError as err:
            raise NumericalFailure("coarse solve broke down: %s" % err)
        if not np.all(np.isfinite(sol)):
            raise NumericalFailure("coarse solve produced non-finite values")
        return sol

    def initial_state(self, p0_fine):
        """Flow-form projection of the fine initial pressure, then the elastic solve."""
        ops = self.ops
        space = self.space
        rhs_p = space.basis_p.T @ (ops.stiff_p @ p0_fine)
        pc = self._lstsq(self.co.stiff_p, rhs_p)
        p = space.basis_p @ pc
        uc = self._lstsq(self.co.stiff_u, self.co.coupling.T @ pc)
        u = space.basis_u @ uc
        return State(0, u, p, self._tag())

    def step(self, prev, load, n):
        """Advance one step; previous-step data is read from the fine lifts."""
        ops = self.ops
        space = self.space
        rhs_p = space.basis_p.T @ (
            self.tau * load + ops.coupling @ prev.u + ops.mass_p @ prev.p)
        rhs = np.concatenate([np.zeros(self.n_u), rhs_p])
        sol = self._lstsq(self.block, rhs)
        uc = sol[:self.n_u]
        pc = sol[self.n_u:]
        return State(n, space.basis_u @ uc, space.basis_p @ pc, self._tag())


def initial_state(ops, p0, space=None, tau=None):
    """Initial condition in the fine space or projected onto a multiscale space."""
    state = fine_initial_state(ops, p0)
    if space is None:
        return state
    return CoarseSolver(ops, space, tau if tau is not None else 1.0
                        ).initial_state(state.p)


def run(ops, time_grid, source, p0, space=None, hook=None, solver=None):
    """March the full trajectory.

    `hook(n, solver, state, prev, load)` may replace the state after any step
    (enrichment re-solves return the refreshed state). Returns the states
    indexed by time level, the initial one included.
    """
    if solver is None:
        solver = (FineSolver(ops, time_grid.tau) if space is None
                  else CoarseSolver(ops, space, time_grid.tau))
    if isinstance(solver, CoarseSolver):
        state = solver.initial_state(fine_initial_state(ops, p0).p)
    else:
        state = solver.initial_state(p0)
    states = [state]
    for n in range(1, time_grid.n_steps + 1):
        load = ops.dofs.restrict_p(
            assemble_load(ops.grid, source, time_grid.t(n)))
        new = solver.step(states[-1], load, n)
        if hook is not None:
            new = hook(n, solver, new, states[-1], load)
        states.append(new)
    return states


def save_snapshots(states, stem):
    """Binary trajectory dump with a small manifest."""
    import json
    arrays = {}
    manifest = []
    for k, st in enumerate(states):
        arrays["u_%d" % k] = st.u
        arrays["p_%d" % k] = st.p
        manifest.append({"level": st.n, "space": st.space_tag,
                         "n_u": int(st.u.size), "n_p": int(st.p.size)})
    np.savez(stem + "_states.npz", **arrays)
    with open(stem + "_states.json", "w") as fh:
        json.dump(manifest, fh, indent=1)
        fh.write("\n")
