"""Reference constructions that only the tests use: one element's basis
columns on their own patch, the basis with every patch the whole domain, the
defect of a patch solve and the weighted-mass projection onto the auxiliary
space."""

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from cemporo import cembasis
from cemporo.grid import oversample_element


def build_element_basis(ops, aux, family, element, layers):
    """Basis columns seeded by one element's auxiliary modes, as the CSC
    block `MultiscaleSpace.append` takes: one column per mode, in mode
    order, each a refined penalized solve of its own column of U, zero off
    the patch. The offline basis solves a patch's columns in one batch
    instead."""
    patch = oversample_element(ops.grid, element, layers)
    solver = cembasis.PatchSolver(ops, aux, patch, family)
    seeds = aux.columns_in_cells(family, [element])
    cols = np.zeros((ops.dofs.size(family), seeds.size))
    for j, pos in enumerate(np.searchsorted(solver.aux_cols, seeds)):
        cols[solver.index, j] = solver.solve(
            solver.U[:, pos].toarray().ravel())
    return sp.csc_matrix(cols)


def build_global_basis_oracle(ops, aux):
    """Same construction with every patch equal to the whole domain."""
    layers = max(ops.grid.ncx, ops.grid.ncy)
    return cembasis.build_offline_basis(ops, aux, layers)


def patch_residual(solver, psi, rhs):
    """Norm of A psi + U U^T psi - rhs, the defining equation of a patch
    solve."""
    return float(np.linalg.norm(
        solver.A @ psi + solver.U @ (solver.U.T @ psi) - rhs))


def project_pi(ops, aux, family, v):
    """Orthogonal projection onto the auxiliary space in the weighted mass product.

    Input and output are interior-unknown vectors. The projection is exact
    (idempotent and self-adjoint in the weighted product) over the span of the
    zero-extended eigenvectors.
    """
    R = aux.columns(family)
    M = ops.weight(family)
    gram = (R.T @ (M @ R)).toarray()
    rhs = R.T @ (M @ v)
    try:
        coeff = sla.cho_solve(sla.cho_factor(gram), rhs)
    except np.linalg.LinAlgError:
        # redundant auxiliary sets (full local dimension) make the Gram
        # singular; the projection onto the span is still well defined
        coeff = np.linalg.pinv(gram, rcond=1e-12) @ rhs
    return R @ coeff
