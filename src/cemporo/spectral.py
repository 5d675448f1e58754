"""Local spectral problems on coarse cells and the auxiliary space they span.

Each coarse cell carries two generalized eigenproblems over all of its fine
nodes (no boundary conditions): elastic stiffness against the weighted
displacement mass, and flow stiffness against the weighted pressure mass.
The lowest J eigenfunctions per cell form the auxiliary space used to pin
down the multiscale basis.
"""

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
    unknowns, n_u / n_p the modes kept per cell; `columns(family)` and
    `modes(family)` give them by family.
    """

    def __init__(self, ops, n_u, n_p=None):
        if n_p is None:
            n_p = n_u
        self.n_u = int(n_u)
        self.n_p = int(n_p)
        if self.n_u < 1 or self.n_p < 1:
            raise ValueError("need at least one eigenfunction per family")
        self.spectra = [solve_local_spectral(ops, e, self.n_u, self.n_p)
                        for e in range(ops.grid.n_coarse_cells)]
        self.R_u = self._collect(ops.dofs, "u")
        self.R_p = self._collect(ops.dofs, "p")

    def columns(self, family):
        """The family's auxiliary columns, R_u or R_p."""
        return getattr(self, "R_" + check_family(family))

    def modes(self, family):
        """Eigenfunctions kept per coarse cell for the family."""
        return getattr(self, "n_" + check_family(family))

    def _collect(self, d, family):
        rows, cols, vals = [], [], []
        count = self.modes(family)
        for e, spec in enumerate(self.spectra):
            pos = d.node_positions(spec.nodes)
            keep = np.flatnonzero(pos >= 0)
            dof = layout(pos[keep], family)
            vecs = getattr(spec, "vecs_" + family)[layout(keep, family)]
            rows.append(np.tile(dof, count))
            cols.append(np.repeat(e * count + np.arange(count), dof.size))
            vals.append(vecs[:, :count].T.ravel())
        total = len(self.spectra) * count
        return sp.csc_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(d.size(family), total))

    def columns_in_cells(self, family, cell_set):
        """Column indices of eigenfunctions whose coarse cell lies in cell_set."""
        count = self.modes(family)
        cells = np.asarray(sorted(cell_set))
        return (cells[:, None] * count + np.arange(count)[None, :]).ravel()


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
    ex_u = min(spec.eigvals_u[aux.n_u] if aux.n_u < spec.eigvals_u.size
               else np.inf for spec in aux.spectra)
    ex_p = min(spec.eigvals_p[aux.n_p] if aux.n_p < spec.eigvals_p.size
               else np.inf for spec in aux.spectra)
    # the local kernels are three rigid motions and one constant; keeping
    # fewer modes leaves a zero in the excluded block
    degenerate = aux.n_u < 3 or ex_u <= 0.0 or ex_p <= 0.0
    return SpectralDiagnostics(min(ex_u, ex_p), degenerate)
