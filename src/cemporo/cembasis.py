"""Multiscale basis construction by penalized local energy minimization.

Each auxiliary eigenfunction of a coarse cell seeds one basis function,
computed on the oversampled patch around the cell with zero trace on the
patch boundary. The local system couples the stiffness with a rank-k penalty
built from the constraint columns of every auxiliary eigenfunction living on
the patch, each its own cell's weight applied to it (`AuxBasis`),

    (A + U U^T) psi = rhs,   U = C_patch,

a slice of the auxiliary basis with no product.

A patch is a rectangle of fine nodes. Numbered across its shorter side
first, its forms are banded with a half-bandwidth set by that side, so
A = L L^T is factored in LAPACK band storage (`BandedCholesky`). With
Z = L^-1 U and the k x k capacitance C = I + Z^T Z, the Woodbury identity
gives

    (A + U U^T)^-1 = L^-T (I - Z C^-1 Z^T) L^-1,

two banded triangular sweeps around a rank-k correction. Forming Z takes k
sweeps, each from its column's first nonzero row, but C = I + U^T A^-1 U
depends on nothing but the family and the patch rectangle. A solver handed
the C of an earlier solver on the same rectangle forms no Z and applies

    (A + U U^T)^-1 b = A^-1 (b - U C^-1 U^T A^-1 b),

four band sweeps; Z exists only in the solver that formed C. Each solve is
followed by one step of iterative refinement on the defining equation.
`PatchSolver.solve` takes a vector or the columns of a matrix. The offline
basis factorizes each distinct patch rectangle once, forms Z, solves every
column seeded in it in one batch and frees the factorization before the
next one is built: through U each of its right-hand sides would pay two
more sweeps. `DofMap.columns` places the batches' patch values into the
family's basis. Both families take this path, with their forms and columns
from the operators and the auxiliary basis; an online column, seeded by a
residual, is one `PatchSolver.solve` of its own, with the capacitance the
enricher keeps for its (family, rectangle) once the first column there has
formed it.

`BandedCholesky` factors the global SPD forms too (the initial state, the
online loop's global dual norms) in the grid's x-fastest numbering, whose
band, set by the mesh's x-width, is as narrow as any on a square mesh. It
factors faster than SuperLU up to 200 x 200 fine cells at least; its storage
passes SuperLU's at about 90 x 90 fine cells for the pressure forms and
120 x 120 for the displacement stiffness.
"""

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .assembly import check_family
from .grid import oversample_element


class NumericalFailure(RuntimeError):
    """Raised when a factorization or solve breaks down."""


class BandedCholesky:
    """A = L L^T of a sparse symmetric positive definite form, of a patch or
    of the whole grid, in LAPACK lower band storage.

    The half-bandwidth kd is the largest distance of a stored entry from the
    diagonal, so the factor keeps (kd + 1) n numbers and costs about n kd^2
    flops (pbtrf). `solve_lower` and `solve_upper` apply L^-1 and L^-T
    (tbtrs), and `solve` applies A^-1. A matrix that is not finite and
    positive definite raises `NumericalFailure`.
    """

    def __init__(self, A):
        A = sp.csr_matrix(A)
        A.sum_duplicates()
        rows = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
        low = rows >= A.indices
        rows, cols = rows[low], A.indices[low]
        self.kd = int((rows - cols).max(initial=0))
        band = np.zeros((self.kd + 1, A.shape[0]), order="F")
        band[rows - cols, cols] = A.data[low]
        self.ab, info = sla.lapack.dpbtrf(band, lower=1, overwrite_ab=1)
        if info or not np.all(np.isfinite(self.ab[0])):
            raise NumericalFailure(
                "matrix is not finite and positive definite")

    def solve_lower(self, b):
        """L^-1 b for a vector or the columns of a matrix.

        The leading zeros of a column stay zero, so each column is swept
        from its own first nonzero row on, with the trailing block of L, in
        one tbtrs call of its own; a zero column is swept from row 0.
        """
        x = np.array(b, dtype=float)
        cols = x.reshape(x.shape[0], -1)
        for j, s in enumerate((cols != 0).argmax(axis=0)):
            cols[s:, j:j + 1] = sla.lapack.dtbtrs(
                self.ab[:, s:], cols[s:, j:j + 1], uplo="L")[0]
        return x

    def solve_upper(self, b):
        """L^-T b."""
        return sla.lapack.dtbtrs(self.ab, b, uplo="L", trans="T")[0]

    def solve(self, b):
        """A^-1 b = L^-T L^-1 b."""
        return self.solve_upper(self.solve_lower(b))


def patch_nodes(patch):
    """The patch's interior fine nodes, numbered across its shorter side
    first.

    A node then couples only with nodes at most short + 1 places away, so a
    patch form has half-bandwidth short + 1 for "p" and 2 (short + 1) + 1
    for the interleaved "u". A square patch keeps the grid's order.
    """
    nodes = patch.interior_fine_nodes.reshape(patch.shape)
    if nodes.shape[1] > nodes.shape[0]:
        nodes = nodes.T
    return nodes.ravel()


def patch_index(dofs, patch, family):
    """Interior positions of the family's unknowns on the patch, node by
    node in `patch_nodes` order."""
    return dofs.index(patch_nodes(patch), family)


class PatchSolver:
    """Penalized local solver for one family on one patch.

    `capacitance`, an earlier solver's `cho_factor` of C for the same
    family and patch rectangle, spares forming Z: `Z` is then None and the
    solves go through U. Without it the solver forms Z and C itself.
    """

    def __init__(self, ops, aux, patch, family, capacitance=None):
        idx = patch_index(ops.dofs, patch, family)
        self.index = idx
        cols = aux.columns_in_cells(family, patch.cells)
        self.A = ops.stiffness(family)[idx][:, idx]
        self.U = aux.columns(family)[:, cols][idx]
        self.aux_cols = cols
        self.factor = BandedCholesky(self.A)
        self.Z = None
        if capacitance is None:
            self.Z = self.factor.solve_lower(self.U.toarray())
            capacitance = sla.cho_factor(
                np.identity(self.Z.shape[1]) + self.Z.T @ self.Z, lower=True)
        self.capacitance = capacitance

    def _apply(self, b):
        """(A + U U^T)^-1 b: L^-T (w - Z C^-1 Z^T w), w = L^-1 b, with Z;
        without it A^-1 (b - U C^-1 U^T A^-1 b), four band sweeps."""
        if self.Z is None:
            y = self.factor.solve(b)
            return self.factor.solve(
                b - self.U @ sla.cho_solve(self.capacitance, self.U.T @ y,
                                           check_finite=False))
        w = self.factor.solve_lower(b)
        w -= self.Z @ sla.cho_solve(self.capacitance, self.Z.T @ w,
                                    check_finite=False)
        return self.factor.solve_upper(w)

    def solve(self, rhs):
        """Solve the penalized system for a patch-local right-hand side, a
        vector or the columns of a matrix."""
        x = self._apply(rhs)
        # one refinement pass keeps the variational residual at round-off
        return x + self._apply(rhs - self.A @ x - self.U @ (self.U.T @ x))


class MultiscaleSpace:
    """Columns of the reduced displacement and pressure spaces.

    `basis_u` and `basis_p` are CSC matrices that act from coarse
    coefficients to the interior fine unknowns of their family. An offline
    space numbers each family's columns as the auxiliary basis does: column
    j is seeded by auxiliary column j, and `AuxBasis.columns_in_cells` says
    which columns a coarse cell seeded. `append`, which only `CoarseSolver`
    calls, is the only change a space undergoes after construction, so a
    space's columns are always a prefix of its later columns.
    """

    def __init__(self, basis_u, basis_p):
        self.basis_u = basis_u
        self.basis_p = basis_p

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
        """Append the sparse block `columns` after the family's columns."""
        setattr(self, "basis_" + family,
                sp.hstack([self.basis(family), columns], format="csc"))


def build_offline_basis(ops, aux, layers):
    """One basis function per auxiliary eigenfunction, patches of given depth.

    Elements whose patches share a rectangle share one factorization: their
    columns, seeded by their columns of U, are solved in one batch, and the
    factorization is freed before the next one is built. Each family's basis
    is assembled from the columns' patch values, as wide as the auxiliary
    space, column j seeded by auxiliary column j.
    """
    grid = ops.grid
    patches = [oversample_element(grid, e, layers)
               for e in range(grid.n_coarse_cells)]
    groups = {}
    for e, patch in enumerate(patches):
        groups.setdefault(patch.rect, []).append(e)
    bases = []
    for family in ("u", "p"):
        blocks = []
        for elements in groups.values():
            solver = PatchSolver(ops, aux, patches[elements[0]], family)
            seeds = aux.columns_in_cells(family, elements)
            blocks.append((solver.index, seeds, solver.solve(
                solver.U[:, np.searchsorted(solver.aux_cols, seeds)].toarray())))
            # free this factorization before the next one is built
            del solver
        bases.append(ops.dofs.columns(blocks, family,
                                      aux.columns(family).shape[1]))
    return MultiscaleSpace(*bases)
