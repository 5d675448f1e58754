"""Local spectral problems on coarse cells and the auxiliary space they span.

Each coarse cell carries two generalized eigenproblems over all of its fine
nodes (no boundary conditions): elastic stiffness against the weighted
displacement mass, and flow stiffness against the weighted pressure mass.
The lowest J eigenfunctions per cell form the auxiliary space used to pin
down the multiscale basis.
"""

import numbers

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .assembly import check_family, layout


def _fix_signs(vecs):
    """Flip columns so the entry of largest magnitude is positive."""
    idx = np.argmax(np.abs(vecs), axis=0)
    signs = np.sign(vecs[idx, np.arange(vecs.shape[1])])
    signs[signs == 0] = 1.0
    return vecs * signs


def _deflated_eigh(A, S, kernel, count):
    """Generalized eigensolve of (A, S) with an exactly known A-kernel.

    The kernel columns span functions with zero energy by construction
    (rigid motions, constants); solving on their S-orthogonal complement
    reports them as exact zero eigenvalues instead of eigensolver roundoff
    scaled by ||A||. Returns all eigenvalues ascending and the first `count`
    S-orthonormal eigenvectors, the kernel block first. When `count` is at
    most the kernel dimension those vectors are the kernel block alone, so
    the reduced problem is solved for its values only.
    """
    L = sla.cholesky(S, lower=True)
    # standard form A v = w S v  ->  (L^-1 A L^-T) y = w y with y = L^T v
    X = sla.solve_triangular(L, A, lower=True)
    At = sla.solve_triangular(L, X.T, lower=True).T
    # the two triangular solves leave At symmetric only to roundoff; the
    # forms themselves come exactly symmetric from assembly
    At = 0.5 * (At + At.T)
    Y = L.T @ kernel
    Q, _ = np.linalg.qr(Y, mode="complete")
    k = kernel.shape[1]
    Qc = Q[:, k:]
    B = Qc.T @ At @ Qc
    if count <= k:
        w_red = sla.eigh(B, eigvals_only=True)
        Y_kept = Q[:, :count]
    else:
        # a subset solve would pick a different member of a degenerate pair
        # that `count` splits (ROADMAP item 1), which changes the history
        w_red, Z = sla.eigh(B)
        Y_kept = np.hstack([Q[:, :k], Qc @ Z[:, :count - k]])
    w = np.concatenate([np.zeros(k), w_red])
    vecs = sla.solve_triangular(L, Y_kept, lower=True, trans="T")
    return w, vecs


class ElementSpectra:
    """Eigenpairs of one coarse cell: values for the whole local spectrum,
    vectors for the retained leading block."""

    def __init__(self, nodes, eigvals_u, vecs_u, eigvals_p, vecs_p):
        self.nodes = nodes
        self.eigvals_u = eigvals_u
        self.vecs_u = vecs_u
        self.eigvals_p = eigvals_p
        self.vecs_p = vecs_p


def solve_local_spectral(ops, element, n_u, n_p=None):
    """Solve both local eigenproblems on one coarse cell.

    Returns an ElementSpectra with all eigenvalues (ascending) and the first
    n_u / n_p eigenvectors, mass-orthonormal, signs fixed.
    """
    if n_p is None:
        n_p = n_u
    cells = ops.grid.fine_cells_of_coarse_cell(element)
    nodes, mats = ops.local_matrices(cells)
    if n_u < 1 or n_u > 2 * nodes.size or n_p < 1 or n_p > nodes.size:
        raise ValueError("requested eigenpair count outside the local dimension")
    out = []
    for family, count in (("u", n_u), ("p", n_p)):
        w, v = _deflated_eigh(mats["stiff_" + family], mats["aux_" + family],
                              ops.kernel(family, nodes), count)
        out += [w, _fix_signs(v)]
    return ElementSpectra(nodes, *out)


class AuxBasis:
    """Auxiliary space: the retained local eigenfunctions of every coarse cell.

    R_u / R_p hold the zero-extended eigenvectors as columns over interior
    unknowns, cell by cell, as many as each cell's eigensolve kept of the
    n_u / n_p asked for; owner_u / owner_p hold the coarse cell of each
    column. `columns(family)` and `columns_in_cells` read them by family.
    """

    def __init__(self, ops, n_u, n_p=None):
        if n_p is None:
            n_p = n_u
        if not all(isinstance(v, numbers.Integral) and not isinstance(v, bool)
                   for v in (n_u, n_p)):
            raise TypeError("mode counts must be integers")
        if n_u < 1 or n_p < 1:
            raise ValueError("need at least one eigenfunction per family")
        self.spectra = [solve_local_spectral(ops, e, n_u, n_p)
                        for e in range(ops.grid.n_coarse_cells)]
        self.R_u, self.owner_u = self._collect(ops.dofs, "u")
        self.R_p, self.owner_p = self._collect(ops.dofs, "p")

    def columns(self, family):
        """The family's auxiliary columns, R_u or R_p."""
        return getattr(self, "R_" + check_family(family))

    def _collect(self, d, family):
        rows, cols, vals, owner = [], [], [], []
        for e, spec in enumerate(self.spectra):
            pos = d.node_positions(spec.nodes)
            keep = np.flatnonzero(pos >= 0)
            dof = layout(pos[keep], family)
            vecs = getattr(spec, "vecs_" + family)[layout(keep, family)]
            count = vecs.shape[1]
            rows.append(np.tile(dof, count))
            cols.append(np.repeat(len(owner) + np.arange(count), dof.size))
            vals.append(vecs.T.ravel())
            owner += [e] * count
        R = sp.csc_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(d.size(family), len(owner)))
        return R, np.array(owner)

    def columns_in_cells(self, family, cell_set):
        """Column indices, ascending, of the eigenfunctions whose coarse cell
        lies in cell_set."""
        owner = getattr(self, "owner_" + check_family(family))
        inside = np.zeros(len(self.spectra), dtype=bool)
        inside[list(cell_set)] = True
        return np.flatnonzero(inside[owner])


def build_aux_basis(ops, n_u, n_p=None):
    return AuxBasis(ops, n_u, n_p)


class SpectralDiagnostics:
    """Smallest first excluded eigenvalue over both families and the layer
    decay factor."""

    def __init__(self, min_excluded, degenerate):
        self.min_excluded = float(min_excluded)
        self.degenerate = bool(degenerate)

    def decay_factor(self, layers):
        """Theoretical contraction bound for the given oversampling depth.

        Returns inf when the retained block does not clear the local zero
        modes (the configuration is reported, not rejected).
        """
        lam = self.min_excluded
        if self.degenerate or lam <= 0.0:
            return np.inf
        base = 1.0 / (2.0 * (1.0 + np.sqrt(lam)))
        return (1.0 + 1.0 / lam) * (1.0 + base) ** (1 - layers)


def spectral_diagnostics(aux):
    excluded = [w[v.shape[1]] if v.shape[1] < w.size else np.inf
                for spec in aux.spectra
                for w, v in ((spec.eigvals_u, spec.vecs_u),
                             (spec.eigvals_p, spec.vecs_p))]
    # the local kernels are three rigid motions and one constant; a cell
    # keeping fewer modes leaves a zero in its excluded block
    degenerate = (min(spec.vecs_u.shape[1] for spec in aux.spectra) < 3
                  or min(excluded) <= 0.0)
    return SpectralDiagnostics(min(excluded), degenerate)
