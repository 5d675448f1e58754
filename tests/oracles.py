"""Reference constructions that only the tests use: one element's basis
columns on their own patch, the basis with every patch the whole domain, the
defect of a patch solve, the cell-local constraint columns and the
projection onto the auxiliary space in the cells' own weights."""

import numpy as np
import scipy.sparse as sp

from cemporo import cembasis
from cemporo.assembly import check_family, layout
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


def cell_weights(ops, family):
    """Each coarse cell's spectral weight S_K over the cell's nodes, from
    `local_matrices`, cell by cell."""
    name = "aux_" + check_family(family)
    return [ops.local_matrices(ops.grid.fine_cells_of_coarse_cell(e))[1][name]
            for e in range(ops.grid.n_coarse_cells)]


def constraint_columns(ops, aux, family):
    """The dense constraint columns over interior unknowns, cell by cell:
    column j of cell K is S_K phi_j on K's nodes, cut to the unknowns."""
    width, interior = ((2, ops.dofs.u_dofs) if family == "u"
                       else (1, ops.dofs.p_nodes))
    blocks = []
    for spec, S in zip(aux.spectra, cell_weights(ops, family)):
        V = getattr(spec, "vecs_" + family)
        full = np.zeros((width * ops.grid.n_fine_nodes, V.shape[1]))
        full[layout(spec.nodes, family)] = S @ V
        blocks.append(full[interior])
    return np.hstack(blocks)


def project_pi(ops, aux, family, v):
    """pi = sum over cells K of V_K V_K^T S_K, the projection onto the
    auxiliary space orthogonal in s = sum over K of s_K.

    s is an inner product on functions that may jump across cell edges, so
    input and output hold one vector per coarse cell, over the cell's nodes
    in `local_matrices` order. Each V_K is S_K-orthonormal.
    """
    return [V @ (V.T @ (S @ x)) for V, S, x in zip(
        (getattr(spec, "vecs_" + family) for spec in aux.spectra),
        cell_weights(ops, family), v)]
