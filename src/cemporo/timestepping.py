"""Implicit time stepping of the coupled flow/mechanics system.

One backward difference step solves the monolithic block system

    [[A, -D^T], [D, C + tau B]] (u, p) = (0, tau f + D u_prev + C p_prev)

on interior unknowns, either on the fine grid or projected onto a multiscale
space. The fine solver negates the flow row, which turns the block into the
symmetric quasi-definite

    [[A, -D^T], [-D, -(C + tau B)]],

and factors it once per step size with SuperLU and diagonal pivots; it is
exactly symmetric because assembly hands out A, B and C exactly symmetric.
The initial state's SPD forms factor with `cembasis.BandedCholesky`.
The coarse solver keeps its own projections of the forms and borders them
when its space grows (`_project`). It eliminates the displacement,
A u = D^T p, and solves the symmetric positive semidefinite pressure Schur
complement C + tau B + D A^- D^T (A^- a generalized inverse); A, B and the
Schur complement are factored once per space, and only there, by a Cholesky
with complete pivoting that stops at the numerical rank (`PivotedCholesky`),
so deliberately redundant spaces, whose projected matrices are singular but
consistent, take the same path.
Previous-step terms always enter through fine-grid lifts, so the right-hand
side stays meaningful when the space is enriched between steps.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import assemble_load
from .cembasis import BandedCholesky, NumericalFailure


@dataclass
class TimeGrid:
    tau: float
    n_steps: int

    def __post_init__(self):
        if self.tau <= 0.0 or self.n_steps < 1:
            raise ValueError("need positive step size and step count")

    def t(self, n):
        return n * self.tau

    @classmethod
    def from_horizon(cls, tau, T):
        if not tau > 0.0:
            raise ValueError("step size must be positive")
        n = int(round(T / tau))
        if n < 1 or abs(n * tau - T) > 1e-9 * max(T, 1.0):
            raise ValueError("final time is not a positive multiple of the step size")
        return cls(tau, n)


@dataclass
class State:
    n: int
    u: np.ndarray
    p: np.ndarray


def _initial_pressure(ops, p0):
    """Interior mass projection of a callable or nodal initial pressure."""
    if callable(p0):
        load = assemble_load(ops.grid, lambda t, x, y: p0(x, y))
    else:
        vals = np.asarray(p0, dtype=float).ravel()
        if vals.size != ops.grid.n_fine_nodes:
            raise ValueError("nodal initial pressure has wrong length")
        load = ops.field.biot_modulus * (ops.mass_p_full @ vals)
    mass = ops.field.biot_modulus * ops.mass_p
    return BandedCholesky(mass).solve(ops.dofs.restrict_p(load))


class FineSolver:
    """Reference solver on the fine grid.

    A and C + tau B are SPD and, as assembled, exactly symmetric, so the step
    matrix with its flow row negated is symmetric quasi-definite, which has a
    factorization with diagonal pivots under every symmetric ordering. Its
    SuperLU factor, built on first use, takes a symmetric fill-reducing
    ordering and no pivoting; LAPACK has no pivot-free band LDL^T.
    """

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
                 [-ops.coupling, -(ops.mass_p + self.tau * ops.stiff_p)]],
                format="csc")
            try:
                self._lu = spla.splu(self._block, permc_spec="MMD_AT_PLUS_A",
                                     diag_pivot_thresh=0.0,
                                     options={"SymmetricMode": True})
            except RuntimeError as err:
                raise NumericalFailure("fine step factorization failed: %s" % err)

    def initial_state(self, p0_fine):
        """The fine initial pressure, then the balancing elastic solve."""
        ops = self.ops
        elastic = BandedCholesky(ops.stiff_u)
        rhs = ops.coupling.T @ p0_fine
        u = elastic.solve(rhs)
        u += elastic.solve(rhs - ops.stiff_u @ u)
        return State(0, u, p0_fine)

    def step(self, prev, load, n):
        self._factorize()
        ops = self.ops
        rhs = np.concatenate([
            np.zeros(self.n_u),
            -(self.tau * load + ops.coupling @ prev.u + ops.mass_p @ prev.p)])
        x = self._lu.solve(rhs)
        x += self._lu.solve(rhs - self._block @ x)
        return State(n, x[:self.n_u], x[self.n_u:])


def _project(A, R_row, R_col, old):
    """Dense R_row^T A R_col.

    `old` is the projection onto leading columns of R_row and R_col (0 x 0
    for a new space, which is projected by one sparse product). Bordering
    multiplies the form only by the appended columns: their images are the
    new-columns rectangle's factors, and a symmetric form (`R_row is R_col`)
    takes its new-rows x old-columns rectangle as that rectangle's
    transpose, while the coupling form multiplies its transpose by the
    appended rows. The result equals the full product to round-off.
    """
    m, n = old.shape
    if not old.size:
        return (R_row.T @ (A @ R_col)).toarray()
    out = np.empty((R_row.shape[1], R_col.shape[1]))
    out[:m, :n] = old
    if out.shape[1] > n:
        out[:, n:] = R_row.T @ (A @ R_col[:, n:].toarray())
    if out.shape[0] > m:
        if R_row is R_col:
            out[m:, :n] = out[:m, n:].T
        else:
            out[m:, :n] = (R_col[:, :n].T
                           @ (A.T @ R_row[:, m:].toarray())).T
    return out


class PivotedCholesky:
    """P^T A P = L L^T of a dense symmetric positive semidefinite matrix.

    LAPACK pstrf pivots completely and stops at the numerical rank, where
    the largest remaining diagonal entry is at most n eps max diag(A). `L`
    is the rank x rank factor and `pivots` the matching leading pivots, so a
    singular matrix, such as the Gram of a redundant space, is factored like
    any other.
    """

    def __init__(self, mat):
        if not np.all(np.isfinite(mat)):
            raise NumericalFailure("coarse matrix has non-finite entries")
        factor, piv, rank, _ = sla.lapack.dpstrf(mat, lower=1)
        self.L = np.tril(factor[:rank, :rank])
        self.pivots = piv[:rank] - 1
        self.size = mat.shape[0]

    def solve(self, rhs):
        """A solution of the consistent system A x = rhs, zero off the
        leading pivots."""
        x = np.zeros((self.size,) + rhs.shape[1:])
        x[self.pivots] = sla.cho_solve((self.L, True), rhs[self.pivots],
                                       check_finite=False)
        if not np.all(np.isfinite(x)):
            raise NumericalFailure("coarse solve produced non-finite values")
        return x


class CoarseSolver:
    """Galerkin solver on a multiscale space, rebuilt when the space changes.

    `set_space` projects the forms onto the space (`stiff_u`, `stiff_p`,
    `mass_p`, `coupling`, dense) and eliminates the displacement: with
    `factor_u` the pivoted Cholesky factor of `stiff_u` and W the solution
    of stiff_u W = coupling^T it gives, the step's pressure solves the Schur
    complement S = mass_p + tau stiff_p + coupling W, factored the same way,
    and its displacement is W times the pressure. `factor_p` factors
    `stiff_p` for the initial state and, with `factor_u`, for the online
    filter. All three are factored once per space. A redundant space makes
    `stiff_u` and S singular but every system consistent; their null spaces
    are those of the bases, so the fine lifts do not depend on which
    solution the factors pick.
    """

    def __init__(self, ops, space, tau):
        self.ops = ops
        self.tau = float(tau)
        self.space = None
        self.set_space(space)

    def set_space(self, space):
        """Project onto `space` and factor the displacement block, the
        pressure Schur complement and the pressure stiffness. Handed the
        current space again, after `append` grew it, only the appended rows
        and columns are projected, and all three are factored anew."""
        if space is not self.space:
            self.stiff_u = self.stiff_p = self.mass_p = self.coupling = \
                np.empty((0, 0))
        self.space = space
        ops = self.ops
        Ru, Rp = space.basis_u, space.basis_p
        self.stiff_u = _project(ops.stiff_u, Ru, Ru, self.stiff_u)
        self.stiff_p = _project(ops.stiff_p, Rp, Rp, self.stiff_p)
        self.mass_p = _project(ops.mass_p, Rp, Rp, self.mass_p)
        self.coupling = _project(ops.coupling, Rp, Ru, self.coupling)
        self.factor_u = PivotedCholesky(self.stiff_u)
        self._W = self.factor_u.solve(self.coupling.T)
        self._factor_s = PivotedCholesky(
            self.mass_p + self.tau * self.stiff_p + self.coupling @ self._W)
        self.factor_p = PivotedCholesky(self.stiff_p)

    @property
    def block(self):
        """The step matrix [[stiff_u, -coupling^T], [coupling, mass_p +
        tau stiff_p]], assembled on demand; the solves never form it."""
        return np.block([
            [self.stiff_u, -self.coupling.T],
            [self.coupling, self.mass_p + self.tau * self.stiff_p]])

    def initial_state(self, p0_fine):
        """Flow-form projection of the fine initial pressure, then the elastic solve."""
        space = self.space
        rhs_p = space.basis_p.T @ (self.ops.stiff_p @ p0_fine)
        pc = self.factor_p.solve(rhs_p)
        return State(0, space.basis_u @ (self._W @ pc), space.basis_p @ pc)

    def step(self, prev, load, n):
        """Advance one step with the space's factors; previous-step data is
        read from the fine lifts."""
        ops = self.ops
        space = self.space
        rhs_p = space.basis_p.T @ (
            self.tau * load + ops.coupling @ prev.u + ops.mass_p @ prev.p)
        pc = self._factor_s.solve(rhs_p)
        return State(n, space.basis_u @ (self._W @ pc), space.basis_p @ pc)


def run(ops, time_grid, source, p0, hook=None, solver=None):
    """March the full trajectory with `solver`, by default a fresh
    FineSolver; a CoarseSolver marches its multiscale space. Either starts
    from its `initial_state` of the fine initial pressure.

    `hook(n, solver, state, prev, load)` may replace the state after any step
    (enrichment re-solves return the refreshed state). Returns the states
    indexed by time level, the initial one included.
    """
    if solver is None:
        solver = FineSolver(ops, time_grid.tau)
    states = [solver.initial_state(_initial_pressure(ops, p0))]
    for n in range(1, time_grid.n_steps + 1):
        load = ops.dofs.restrict_p(
            assemble_load(ops.grid, source, time_grid.t(n)))
        new = solver.step(states[-1], load, n)
        if hook is not None:
            new = hook(n, solver, new, states[-1], load)
        states.append(new)
    return states

