"""Implicit time stepping of the coupled flow/mechanics system.

This module alone states the discrete step. One backward difference step
solves the monolithic block system

    [[A, -D^T], [D, C + tau B]] (u, p) = (0, tau f + D u_prev + C p_prev)

on interior unknowns, either on the fine grid or projected onto a multiscale
space, and `compute_residuals` gives the residuals of the same two equations
for any state, which online enrichment localizes. The fine solver negates
the flow row, which turns the block into the symmetric quasi-definite

    [[A, -D^T], [-D, -(C + tau B)]],

and factors it once per step size with SuperLU and diagonal pivots; it is
exactly symmetric because assembly hands out A, B and C exactly symmetric.
The block is stored in the one order its factor takes: the interior nodes
in nested-dissection order (`_dissection`), each node's two displacement
unknowns and its pressure together, so the step permutes its right-hand
side in and its solution out.
The initial state's SPD forms factor with `cembasis.BandedCholesky`.
The coarse solver owns its space and its projections of the forms. They are
projected once, by `_project`, when the solver is built, and grow only in
`append`, each by `_border`: the filter borders the projected stiffness
with the survivors' energy products, and `append` the mass and the
coupling with their products with the appended columns. `set_space` only
factors. The solver eliminates the displacement, A u = D^T p, and solves the
symmetric positive semidefinite pressure Schur complement
C + tau B + D A^- D^T (A^- a generalized inverse); A, B and the Schur
complement are factored once per space, and only there, by a Cholesky with
complete pivoting that stops at the numerical rank (`PivotedCholesky`), so
deliberately redundant spaces, whose projected matrices are singular but
consistent, take the same path.
Previous-step terms always enter through fine-grid lifts, so the right-hand
side stays meaningful when the space is enriched between steps.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import assemble_load, layout
from .cembasis import BandedCholesky, MultiscaleSpace, NumericalFailure
from .grid import is_integer


@dataclass
class TimeGrid:
    tau: float
    n_steps: int

    def __post_init__(self):
        if not is_integer(self.n_steps):
            raise TypeError("step count must be an integer")
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


@dataclass
class ResidualSet:
    """Interior-unknown covectors of the two equations at one time level."""
    r_u: np.ndarray
    r_p: np.ndarray


def _step_load(ops, tau, load, prev):
    """The flow row's right-hand side, tau f + D u_prev + C p_prev."""
    return tau * load + ops.coupling @ prev.u + ops.mass_p @ prev.p


def compute_residuals(ops, tau, state, prev, load):
    """Residual covectors of the equilibrium and flow equations."""
    r_u = ops.coupling.T @ state.p - ops.stiff_u @ state.u
    r_p = load - ops.stiff_p @ state.p \
        - (ops.mass_p @ (state.p - prev.p)
           + ops.coupling @ (state.u - prev.u)) / tau
    return ResidualSet(r_u, r_p)


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


def _dissection(nx, ny):
    """The positions of an nx x ny grid of nodes, numbered x fastest, in
    nested-dissection order: the longer side (x on a tie) is split at its
    middle grid line, and the first half, the second half and then the
    separating line are listed, until both sides are shorter than 3 (George,
    SIAM J. Numer. Anal. 10, 1973)."""
    parts = []

    def split(block):
        rows, cols = block.shape
        if max(rows, cols) < 3:
            parts.append(block.ravel())
        elif cols >= rows:
            mid = cols // 2
            split(block[:, :mid])
            split(block[:, mid + 1:])
            parts.append(block[:, mid])
        else:
            mid = rows // 2
            split(block[:mid])
            split(block[mid + 1:])
            parts.append(block[mid])

    split(np.arange(nx * ny).reshape(ny, nx))
    return np.concatenate(parts)


class FineSolver:
    """Reference solver on the fine grid.

    A and C + tau B are SPD and, as assembled, exactly symmetric, so the step
    matrix with its flow row negated is symmetric quasi-definite, which has a
    factorization with diagonal pivots under every symmetric ordering. Its
    SuperLU factor, built on first use, takes no pivoting and the order of
    the stored block: the interior nodes in `_dissection` order, each with
    its two displacement unknowns and its pressure together. LAPACK has no
    pivot-free band LDL^T.
    """

    def __init__(self, ops, tau):
        self.ops = ops
        self.tau = float(tau)
        self.n_u = ops.dofs.n_u
        self._order = None
        self._block = None
        self._lu = None

    def _factorize(self):
        if self._lu is None:
            ops = self.ops
            grid = ops.grid
            nodes = _dissection(grid.nfx - 1, grid.nfy - 1)
            self._order = np.column_stack(
                [layout(nodes[:, None], "u"), self.n_u + nodes]).ravel()
            block = sp.bmat(
                [[ops.stiff_u, -ops.coupling.T],
                 [-ops.coupling, -(ops.mass_p + self.tau * ops.stiff_p)]],
                format="csr")
            self._block = block[self._order][:, self._order].tocsc()
            # the unpermuted copy is gone before the factor grows
            del block
            try:
                self._lu = spla.splu(self._block, permc_spec="NATURAL",
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
        """Solve the step in the block's order, with one refinement pass,
        and return the solution in the interior numbering."""
        self._factorize()
        rhs = np.concatenate([np.zeros(self.n_u),
                              -_step_load(self.ops, self.tau, load, prev)])
        rhs = rhs[self._order]
        y = self._lu.solve(rhs)
        y += self._lu.solve(rhs - self._block @ y)
        x = np.empty_like(y)
        x[self._order] = y
        return State(n, x[:self.n_u], x[self.n_u:])


def _project(A, R_row, R_col):
    """Dense R_row^T A R_col, by one sparse product: `CoarseSolver` projects
    each form once, when it is built, and `_border` grows the projections."""
    return (R_row.T @ (A @ R_col)).toarray()


def _border(old, right, bottom):
    """The dense block [[old, right[:m]], [bottom, right[m:]]], m the rows
    of `old`: a projection grown by appended columns (`right`, every row)
    and appended rows (`bottom`, the old columns). A symmetric form's
    caller passes `bottom` as the transpose of right[:m], so the two
    rectangles are exact transposes."""
    m, n = old.shape
    out = np.empty((m + bottom.shape[0], n + right.shape[1]))
    out[:m, :n] = old
    out[:, n:] = right
    out[m:, :n] = bottom
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
    """Galerkin solver on a multiscale space of its own, grown by `append`.

    Its space starts on the given bases' matrices, which `append` never
    changes, so the caller's space never grows. The forms are projected
    onto the space once, here (`stiff_u`, `stiff_p`, `mass_p`, `coupling`,
    dense), and `append` borders them with the columns it appends.
    `set_space` factors them and eliminates the displacement: with
    `factor_u` the pivoted Cholesky factor of `stiff_u` and W the solution
    of stiff_u W = coupling^T it gives, the step's pressure solves the Schur
    complement S = mass_p + tau stiff_p + coupling W, factored the same
    way, and its displacement is W times the pressure. `factor_p` factors
    `stiff_p` for the initial state and, with `factor_u`, for the filter of
    `append`. All three are factored once per space. A redundant space
    makes `stiff_u` and S singular but every system consistent; their null
    spaces are those of the bases, so the fine lifts do not depend on which
    solution the factors pick.
    """

    def __init__(self, ops, space, tau):
        self.ops = ops
        self.tau = float(tau)
        self.space = MultiscaleSpace(space.basis_u, space.basis_p)
        Ru, Rp = self.space.basis_u, self.space.basis_p
        self.stiff_u = _project(ops.stiff_u, Ru, Ru)
        self.stiff_p = _project(ops.stiff_p, Rp, Rp)
        self.mass_p = _project(ops.mass_p, Rp, Rp)
        self.coupling = _project(ops.coupling, Rp, Ru)
        self.set_space()

    def set_space(self):
        """Factor the displacement block, the pressure Schur complement and
        the pressure stiffness of the space as projected; it multiplies no
        fine form."""
        self.factor_u = PivotedCholesky(self.stiff_u)
        self._W = self.factor_u.solve(self.coupling.T)
        self._factor_s = PivotedCholesky(
            self.mass_p + self.tau * self.stiff_p + self.coupling @ self._W)
        self.factor_p = PivotedCholesky(self.stiff_p)

    def append(self, columns, state):
        """Filter the candidates of "u", then of "p", each a list of
        (positions, values) on its patch, against the state they were built
        at; append the survivors, border the projections by them and factor
        once. The filter borders the stiffness, and here `_border` takes the
        mass and the coupling times the appended columns, so no projection
        multiplies a form by an old column.
        `columns` yields the two lists in that order, and each is dropped
        once filtered, before the next is drawn: a generator holds one
        family's candidates at a time. Returns (added_u, added_p)."""
        columns = iter(columns)
        added = tuple(self._filter_and_append(family, next(columns),
                                              getattr(state, family))
                      for family in "up")
        if any(added):
            Ru, Rp = self.space.basis_u, self.space.basis_p
            mass, coupling = self.ops.mass_p, self.ops.coupling
            m, n = self.coupling.shape
            # a form without appended columns or rows multiplies an empty block
            right = Rp.T @ (mass @ Rp[:, m:].toarray())
            self.mass_p = _border(self.mass_p, right, right[:m].T)
            self.coupling = _border(
                self.coupling, Rp.T @ (coupling @ Ru[:, n:].toarray()),
                (Ru[:, :n].T @ (coupling.T @ Rp[:, m:].toarray())).T)
            self.set_space()
        return added

    def _filter_and_append(self, family, columns, current):
        """Energy near-dependence filter, then append survivors in order,
        each scaled to unit energy.

        The filter starts from the family's factor of the stiffness
        projected onto its columns, which the other family's append leaves
        current; it is not modified. Its rows stop at the numerical rank, so
        the singular Gram of a redundant space takes the same path. A
        candidate's energy left outside the span is e2 - |z|^2, z = L^-1 g,
        one forward solve with the factor; an accepted candidate appends its
        row to a copy of the factor instead of growing the Gram. A candidate
        is dependent when that energy is at most 1e-10 of e2, a cut well
        above the roundoff of the difference (up to about 4e-14 of e2 for
        candidates in the span).

        A candidate whose energy is at most 1e-18 of the energy of `current`,
        the family's part of the state the residual was taken at, is
        dropped: it corrects that state by a relative 1e-9 at most, and a
        state that solves the step leaves only such roundoff candidates. The
        floor scales with the loads, as the candidates do.

        The candidates are placed as one sparse block by `DofMap.columns`.
        The survivors' energy products with the space and with each other
        are the filter's own, scaled, so `_border` grows the family's
        projected stiffness by them here, and no column of the space is
        multiplied by it.
        """
        if not columns:
            return 0
        R = self.space.basis(family)
        factor = getattr(self, "factor_" + family)
        A = self.ops.stiffness(family)
        floor = 1e-18 * float(current @ (A @ current))
        cand = self.ops.dofs.columns(
            [(index, [j], values) for j, (index, values) in enumerate(columns)],
            family, len(columns))
        # dense: sparse-by-sparse products of wide patches' columns cost more
        images = (A @ cand).toarray()
        # energy products of the candidates with the space and each other
        with_space = R.T @ images
        with_cand = cand.T @ images
        # the filter's largest array: gone before the stiffness grows
        del images
        # the factor's rows: the space's columns in pivot order up to the
        # rank, then the accepted candidates
        keep = factor.pivots
        rank = keep.size
        L = np.zeros((rank + len(columns),) * 2)
        L[:rank, :rank] = factor.L
        accepted, scales = [], []
        for j in range(len(columns)):
            e2 = with_cand[j, j]
            if e2 <= floor:
                continue
            k = rank + len(accepted)
            g = np.concatenate([with_space[keep, j],
                                np.multiply(scales, with_cand[accepted, j])])
            z = sla.solve_triangular(L[:k, :k], g, lower=True,
                                     check_finite=False)
            resid2 = e2 - z @ z
            if resid2 <= 1e-10 * e2:
                continue
            # scale to unit energy, so that the appended columns do not carry
            # the residual's scale into the coarse block
            s = 1.0 / np.sqrt(e2)
            L[k, :k] = s * z
            L[k, k] = s * np.sqrt(resid2)
            accepted.append(j)
            scales.append(s)
        if accepted:
            self.space.append(family, cand[:, accepted] @ sp.diags(scales))
            right = np.vstack([with_space[:, accepted] * scales,
                               with_cand[np.ix_(accepted, accepted)]
                               * np.outer(scales, scales)])
            name = "stiff_" + family
            setattr(self, name, _border(getattr(self, name), right,
                                        right[:R.shape[1]].T))
        return len(accepted)

    @property
    def block(self):
        """The step matrix [[stiff_u, -coupling^T], [coupling, mass_p +
        tau stiff_p]], assembled on demand; the solves never form it."""
        return np.block([
            [self.stiff_u, -self.coupling.T],
            [self.coupling, self.mass_p + self.tau * self.stiff_p]])

    def _lift(self, n, pc):
        """The state at level n of the pressure coefficients pc, with its
        balancing displacement W pc, as fine vectors."""
        return State(n, self.space.basis_u @ (self._W @ pc),
                     self.space.basis_p @ pc)

    def initial_state(self, p0_fine):
        """Flow-form projection of the fine initial pressure, then the elastic solve."""
        rhs_p = self.space.basis_p.T @ (self.ops.stiff_p @ p0_fine)
        return self._lift(0, self.factor_p.solve(rhs_p))

    def step(self, prev, load, n):
        """Advance one step with the space's factors; previous-step data is
        read from the fine lifts."""
        rhs_p = self.space.basis_p.T @ _step_load(self.ops, self.tau, load,
                                                  prev)
        return self._lift(n, self._factor_s.solve(rhs_p))


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

