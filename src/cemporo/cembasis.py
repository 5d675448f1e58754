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
one is built.
"""

import json

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .grid import oversample_element
from .assembly import restrict


def spd_factor(A):
    """Sparse LU of a symmetric positive definite or quasi-definite matrix.

    A symmetric fill-reducing ordering with diagonal pivots keeps L and U on
    the pattern of a Cholesky factor of A. An SPD matrix needs no pivoting
    for stability, and a quasi-definite one has a factorization with
    diagonal pivots under every symmetric ordering.
    """
    return spla.splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A",
                     diag_pivot_thresh=0.0,
                     options={"SymmetricMode": True})


class PatchSolver:
    """Penalized local solver for one family on one patch."""

    def __init__(self, ops, aux, patch, family):
        po = restrict(ops, patch)
        self.patch = patch
        self.family = family
        cols = aux.columns_in_cells(family, patch.cells)
        if family == "u":
            self.A = po.stiff_u
            R = aux.R_u[po.u_index][:, cols]
            self.U = (po.aux_u @ R).tocsc()
            self.index = po.u_index
        else:
            self.A = po.stiff_p
            R = aux.R_p[po.p_index][:, cols]
            self.U = (po.aux_p @ R).tocsc()
            self.index = po.p_index
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

    def residual(self, psi, rhs):
        """Norm of A psi + U U^T psi - rhs, the defining equation of the solve."""
        return float(np.linalg.norm(
            self.A @ psi + self.U @ (self.U.T @ psi) - rhs))


def _rectangle(patch):
    """Key of a patch's cell rectangle; patches with equal keys are equal."""
    return patch.cells[0], patch.cells[-1], patch.cells.size


class MultiscaleSpace:
    """Columns of the reduced displacement and pressure spaces.

    Basis matrices act from coarse coefficients to interior fine unknowns.
    Provenance rows record where every column came from. `append` is the only
    change a space undergoes after construction, so a space's columns are
    always a prefix of its later columns.
    """

    def __init__(self, ops, aux, layers):
        self.ops = ops
        self.aux = aux
        self.layers = layers
        self.basis_u = sp.csc_matrix((ops.dofs.n_u, 0))
        self.basis_p = sp.csc_matrix((ops.dofs.n_p, 0))
        self.origin_u = []
        self.origin_p = []

    @property
    def n_u(self):
        return self.basis_u.shape[1]

    @property
    def n_p(self):
        return self.basis_p.shape[1]

    def append(self, family, columns, origins):
        cols = sp.csc_matrix(np.column_stack(columns))
        if family == "u":
            self.basis_u = sp.hstack([self.basis_u, cols], format="csc")
            self.origin_u.extend(origins)
        else:
            self.basis_p = sp.hstack([self.basis_p, cols], format="csc")
            self.origin_p.extend(origins)

    def copy(self):
        out = MultiscaleSpace(self.ops, self.aux, self.layers)
        out.basis_u = self.basis_u.copy()
        out.basis_p = self.basis_p.copy()
        out.origin_u = list(self.origin_u)
        out.origin_p = list(self.origin_p)
        return out

    def save(self, stem):
        """Binary dump of both basis matrices plus a provenance manifest."""
        np.savez(stem + "_basis.npz",
                 u_data=self.basis_u.data, u_indices=self.basis_u.indices,
                 u_indptr=self.basis_u.indptr, u_shape=self.basis_u.shape,
                 p_data=self.basis_p.data, p_indices=self.basis_p.indices,
                 p_indptr=self.basis_p.indptr, p_shape=self.basis_p.shape)
        with open(stem + "_basis.json", "w") as fh:
            json.dump({"layers": self.layers,
                       "origin_u": self.origin_u,
                       "origin_p": self.origin_p}, fh, indent=1)
            fh.write("\n")


def _element_columns(ops, aux, solver, element, layers):
    """Solve the columns seeded by one element's auxiliary modes on the
    solver's patch; returns (columns, origins) as `build_element_basis`."""
    family = solver.family
    count = aux.n_u if family == "u" else aux.n_p
    n_full = ops.dofs.n_u if family == "u" else ops.dofs.n_p
    base = element * count
    cols, orig = [], []
    for j in range(count):
        pos = np.searchsorted(solver.aux_cols, base + j)
        rhs = np.asarray(solver.U[:, pos].todense()).ravel()
        psi = solver.solve(rhs)
        full = np.zeros(n_full)
        full[solver.index] = psi
        cols.append(full)
        orig.append({"kind": "offline", "family": family,
                     "element": int(element), "mode": int(j),
                     "layers": int(layers)})
    return cols, orig


def build_element_basis(ops, aux, family, element, layers):
    """Zero-extended basis columns seeded by one element's auxiliary modes.

    Returns (columns, origins) with one column per auxiliary mode of the
    element, each a full-length interior-dof vector.
    """
    patch = oversample_element(ops.grid, element, layers)
    return _element_columns(ops, aux, PatchSolver(ops, aux, patch, family),
                            element, layers)


def build_offline_basis(ops, aux, layers):
    """One basis function per auxiliary eigenfunction, patches of given depth.

    Elements whose patches share a rectangle share one factorization, which
    is freed as soon as their columns are solved.
    """
    if layers < 0:
        raise ValueError("layers must be nonnegative")
    grid = ops.grid
    space = MultiscaleSpace(ops, aux, layers)
    patches = [oversample_element(grid, e, layers)
               for e in range(grid.n_coarse_cells)]
    groups = {}
    for e, patch in enumerate(patches):
        groups.setdefault(_rectangle(patch), []).append(e)
    for family in ("u", "p"):
        per_element = [None] * grid.n_coarse_cells
        for elements in groups.values():
            solver = PatchSolver(ops, aux, patches[elements[0]], family)
            for e in elements:
                per_element[e] = _element_columns(ops, aux, solver, e, layers)
            # free this factorization before the next one is built
            del solver
        space.append(family, [c for cols, _ in per_element for c in cols],
                     [o for _, orig in per_element for o in orig])
    return space


def build_global_basis_oracle(ops, aux):
    """Same construction with every patch equal to the whole domain."""
    layers = max(ops.grid.ncx, ops.grid.ncy)
    return build_offline_basis(ops, aux, layers)


def _project(A, R_row, R_col, old=None):
    """Dense R_row^T A R_col.

    `old` is the projection onto leading columns of R_row and R_col; only
    the rectangles of the appended rows and columns are then computed. Every
    entry is the same sum, in the same order, as in the full sparse product,
    so the result is bit for bit the full one. Both new rectangles are
    computed, because the full product of a symmetric form is not bit
    symmetric.
    """
    if old is None:
        return (R_row.T @ (A @ R_col)).toarray()
    m, n = old.shape
    out = np.empty((R_row.shape[1], R_col.shape[1]))
    out[:m, :n] = old
    if out.shape[1] > n:
        out[:, n:] = (R_row.T @ (A @ R_col[:, n:])).toarray()
    if out.shape[0] > m and n:
        out[m:, :n] = (R_row[:, m:].T @ (A @ R_col[:, :n])).toarray()
    return out


class CoarseOperators:
    """Dense projections of the fine forms onto a multiscale space.

    `previous`, if given, holds the projections onto an earlier state of the
    same space; its blocks are kept and bordered with the appended columns.
    """

    def __init__(self, ops, space, previous=None):
        Ru, Rp = space.basis_u, space.basis_p
        self.space = space
        self.stiff_u = _project(ops.stiff_u, Ru, Ru,
                                getattr(previous, "stiff_u", None))
        self.stiff_p = _project(ops.stiff_p, Rp, Rp,
                                getattr(previous, "stiff_p", None))
        self.mass_p = _project(ops.mass_p, Rp, Rp,
                               getattr(previous, "mass_p", None))
        self.coupling = _project(ops.coupling, Rp, Ru,
                                 getattr(previous, "coupling", None))


def galerkin_project(ops, space, previous=None):
    return CoarseOperators(ops, space, previous)
