"""Multiscale basis construction by penalized local energy minimization.

Each auxiliary eigenfunction of a coarse cell seeds one basis function,
computed on the oversampled patch around the cell with zero trace on the
patch boundary. The local system couples the stiffness with a rank-k penalty
built from the weighted mass applied to every auxiliary eigenvector living on
the patch,

    (A + U U^T) psi = rhs,   U = M_patch R_patch,

and is solved through the bordered matrix

    K = [[A, U], [U^T, -I]],   K [psi; y] = [rhs; 0],

which is symmetric quasi-definite (A is SPD, -I negative definite): every
symmetric permutation of K has a factorization with diagonal pivots, so K is
factorized once with a symmetric fill-reducing ordering and no pivoting.
Each solve is followed by one step of iterative refinement on the defining
equation. The offline basis factorizes each distinct patch rectangle once,
solves every column seeded in it and frees the factorization before the next
one is built. Both families take this path, with their forms and columns
from the operators and the auxiliary basis; `PatchSolver.column` builds
offline and online columns alike.
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import check_family
from .grid import oversample_element


def spd_factor(A):
    """Sparse LU of a symmetric positive definite or quasi-definite matrix.

    A symmetric fill-reducing ordering with diagonal pivots keeps L and U on
    the pattern of a Cholesky factor of A. An SPD matrix needs no pivoting
    for stability, and a quasi-definite one [[H, G^T], [G, -F]] with H and F
    SPD has a factorization with diagonal pivots under every symmetric
    ordering. Two such matrices are factored here: the bordered patch
    matrix [[A, U], [U^T, -I]] and the fine step matrix
    [[A, -D^T], [-D, -(C + tau B)]], the step's flow row negated. Both, and
    the plain forms factored for the initial state and the Riesz solves, are
    exactly symmetric, because assembly hands out every form so.
    """
    return spla.splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A",
                     diag_pivot_thresh=0.0,
                     options={"SymmetricMode": True})


class PatchSolver:
    """Penalized local solver for one family on one patch."""

    def __init__(self, ops, aux, patch, family):
        idx = ops.dofs.index(patch.interior_fine_nodes, family)
        self.family = family
        self.index = idx
        self.size = ops.dofs.size(family)
        cols = aux.columns_in_cells(family, patch.cells)
        self.A = ops.stiffness(family)[idx][:, idx].tocsc()
        self.U = (ops.weight(family)[idx][:, idx].tocsc()
                  @ aux.columns(family)[idx][:, cols]).tocsc()
        self.aux_cols = cols
        self.n, self.k = self.U.shape
        self.lu = spd_factor(sp.bmat(
            [[self.A, self.U], [self.U.T, -sp.identity(self.k)]]))

    def _apply(self, b):
        """(A + U U^T)^-1 b, the leading block of K^-1 [b; 0]."""
        return self.lu.solve(np.concatenate([b, np.zeros(self.k)]))[:self.n]

    def solve(self, rhs):
        """Solve the penalized system for a patch-local right-hand side."""
        x = self._apply(rhs)
        # one refinement pass keeps the variational residual at round-off
        return x + self._apply(rhs - self.A @ x - self.U @ (self.U.T @ x))

    def column(self, rhs):
        """`solve`, zero-extended to every interior unknown of the family."""
        full = np.zeros(self.size)
        full[self.index] = self.solve(rhs)
        return full


class MultiscaleSpace:
    """Columns of the reduced displacement and pressure spaces.

    Basis matrices act from coarse coefficients to interior fine unknowns.
    An offline space numbers each family's columns element-major: column
    e * modes + j is seeded by auxiliary mode j of coarse cell e. `append` is
    the only change a space undergoes after construction, so a space's
    columns are always a prefix of its later columns.
    """

    def __init__(self, n_u, n_p):
        self.basis_u = sp.csc_matrix((n_u, 0))
        self.basis_p = sp.csc_matrix((n_p, 0))

    @property
    def n_u(self):
        return self.basis_u.shape[1]

    @property
    def n_p(self):
        return self.basis_p.shape[1]

    def basis(self, family):
        """The family's basis, basis_u or basis_p."""
        return getattr(self, "basis_" + check_family(family))

    def append(self, family, columns):
        cols = sp.csc_matrix(np.column_stack(columns))
        setattr(self, "basis_" + family,
                sp.hstack([self.basis(family), cols], format="csc"))

    def copy(self):
        out = MultiscaleSpace(self.basis_u.shape[0], self.basis_p.shape[0])
        out.basis_u = self.basis_u.copy()
        out.basis_p = self.basis_p.copy()
        return out


def _element_columns(aux, solver, element):
    """Solve the columns seeded by one element's auxiliary modes on the
    solver's patch: one full-length interior-dof vector per mode, in mode
    order.
    """
    count = aux.modes(solver.family)
    cols = []
    for j in range(count):
        pos = np.searchsorted(solver.aux_cols, element * count + j)
        cols.append(solver.column(
            np.asarray(solver.U[:, pos].todense()).ravel()))
    return cols


def build_offline_basis(ops, aux, layers):
    """One basis function per auxiliary eigenfunction, patches of given depth.

    Elements whose patches share a rectangle share one factorization, which
    is freed as soon as their columns are solved.
    """
    grid = ops.grid
    space = MultiscaleSpace(ops.dofs.n_u, ops.dofs.n_p)
    patches = [oversample_element(grid, e, layers)
               for e in range(grid.n_coarse_cells)]
    groups = {}
    for e, patch in enumerate(patches):
        groups.setdefault(patch.rect, []).append(e)
    for family in ("u", "p"):
        per_element = [None] * grid.n_coarse_cells
        for elements in groups.values():
            solver = PatchSolver(ops, aux, patches[elements[0]], family)
            for e in elements:
                per_element[e] = _element_columns(aux, solver, e)
            # free this factorization before the next one is built
            del solver
        space.append(family, [c for cols in per_element for c in cols])
    return space
