"""Fine-grid operator assembly for the coupled flow/mechanics system.

Bilinear quadrilaterals, 2x2 Gauss quadrature, coefficients constant per fine
cell. Displacement unknowns are interleaved (x-component at 2*n, y-component
at 2*n+1 for fine node n). Assembled matrices are kept both over all nodes
and restricted to interior (Dirichlet-eliminated) unknowns; per-cell element
matrices are retained for local Neumann problems on coarse cells.
"""

import numpy as np
import scipy.sparse as sp

_GPTS = np.array([0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)])
_QX, _QY = [a.ravel() for a in np.meshgrid(_GPTS, _GPTS)]
_QW = np.full(4, 0.25)


def _shape_values():
    N = np.column_stack([(1 - _QX) * (1 - _QY), _QX * (1 - _QY),
                         (1 - _QX) * _QY, _QX * _QY])
    dNdX = np.column_stack([-(1 - _QY), (1 - _QY), -_QY, _QY])
    dNdY = np.column_stack([-(1 - _QX), -_QX, (1 - _QX), _QX])
    return N, dNdX, dNdY


class DofMap:
    """Interior-unknown bookkeeping for one grid."""

    def __init__(self, grid):
        self.grid = grid
        self.p_nodes = grid.interior_fine_nodes
        self.n_p = self.p_nodes.size
        self.u_dofs = np.column_stack([2 * self.p_nodes,
                                       2 * self.p_nodes + 1]).ravel()
        self.n_u = self.u_dofs.size
        self._node_pos = np.full(grid.n_fine_nodes, -1, dtype=np.int64)
        self._node_pos[self.p_nodes] = np.arange(self.n_p)

    def node_positions(self, nodes):
        """Positions of the given fine nodes in the interior ordering (-1 if absent)."""
        return self._node_pos[np.asarray(nodes)]

    def u_positions(self, nodes):
        """Interleaved interior displacement positions for the given nodes."""
        p = self.node_positions(nodes)
        if np.any(p < 0):
            raise ValueError("node is not an interior unknown")
        return np.column_stack([2 * p, 2 * p + 1]).ravel()

    def restrict_p(self, full):
        return np.asarray(full)[self.p_nodes]

    def restrict_u(self, full):
        return np.asarray(full)[self.u_dofs]

    def extend_p(self, interior):
        out = np.zeros(self.grid.n_fine_nodes)
        out[self.p_nodes] = interior
        return out

    def extend_u(self, interior):
        out = np.zeros(2 * self.grid.n_fine_nodes)
        out[self.u_dofs] = interior
        return out


class OperatorSet:
    """Assembled forms of the coupled system plus spectral weight masses.

    Attributes named *_full act on all nodes; the short names act on interior
    unknowns only. cell_* arrays hold the per-fine-cell element matrices.
    """

    def __init__(self, grid, field, pou):
        self.grid = grid
        self.field = field
        self.pou = pou
        self.dofs = DofMap(grid)

        N, dNdX, dNdY = _shape_values()
        hx, hy = grid.hx, grid.hy
        detJ = hx * hy
        dNdx = dNdX / hx
        dNdy = dNdY / hy
        wd = _QW * detJ

        # reference blocks shared by every cell
        lap = np.einsum("q,qa,qb->ab", wd, dNdx, dNdx) \
            + np.einsum("q,qa,qb->ab", wd, dNdy, dNdy)
        mass = np.einsum("q,qa,qb->ab", wd, N, N)

        B = np.zeros((4, 3, 8))
        B[:, 0, 0::2] = dNdx
        B[:, 1, 1::2] = dNdy
        B[:, 2, 0::2] = dNdy
        B[:, 2, 1::2] = dNdx
        voigt = np.diag([1.0, 1.0, 0.5])
        k_shear = np.einsum("q,qia,ij,qjb->ab", wd, B, voigt, B)
        div = np.zeros((4, 8))
        div[:, 0::2] = dNdx
        div[:, 1::2] = dNdy
        k_div = np.einsum("q,qa,qb->ab", wd, div, div)
        cpl = np.einsum("q,qa,qb->ab", wd, N, div)  # 4 x 8

        nc = grid.n_fine_cells
        lam = field.lam
        mu = field.mu
        self.cell_stiff_u = (2.0 * mu)[:, None, None] * k_shear \
            + lam[:, None, None] * k_div
        self.cell_stiff_p = field.mobility[:, None, None] * lap
        self.cell_mass_p = np.broadcast_to(
            mass / field.biot_modulus, (nc, 4, 4)).copy()
        self.cell_coupling = field.alpha * np.broadcast_to(
            cpl, (nc, 4, 8)).copy()

        # spectral weight = coefficient * sum over hats of |grad chi|^2,
        # periodic over the coarse cell, sampled at each quadrature point
        r = grid.refinement
        ci = np.arange(nc) % grid.nfx
        cj = np.arange(nc) // grid.nfx
        x0 = ci * hx
        y0 = cj * hy
        qx = x0[:, None] + _QX[None, :] * hx
        qy = y0[:, None] + _QY[None, :] * hy
        # avoid the periodic seam: quadrature points are strictly inside cells
        g = pou.grad_sq_sum(qx, qy)  # (nc, 4)
        w_aux = wd[None, :] * g
        aux_p_ref = np.einsum("cq,qa,qb->cab", w_aux, N, N)
        self.cell_aux_p = field.mobility[:, None, None] * aux_p_ref
        aux_u = np.zeros((nc, 8, 8))
        scal = field.p_wave_modulus[:, None, None] * aux_p_ref
        aux_u[:, 0::2, 0::2] = scal
        aux_u[:, 1::2, 1::2] = scal
        self.cell_aux_u = aux_u

        nodes = grid.fine_cell_nodes()
        self._cell_nodes = nodes
        nn = grid.n_fine_nodes

        self.stiff_p_full = self._scalar_csr(self.cell_stiff_p, nodes, nn)
        self.mass_p_full = self._scalar_csr(self.cell_mass_p, nodes, nn)
        self.aux_p_full = self._scalar_csr(self.cell_aux_p, nodes, nn)
        udofs = np.empty((nc, 8), dtype=np.int64)
        udofs[:, 0::2] = 2 * nodes
        udofs[:, 1::2] = 2 * nodes + 1
        self._cell_udofs = udofs
        self.stiff_u_full = self._scalar_csr(self.cell_stiff_u, udofs, 2 * nn)
        self.aux_u_full = self._scalar_csr(self.cell_aux_u, udofs, 2 * nn)
        rows = np.repeat(nodes, 8, axis=1).ravel()
        cols = np.tile(udofs, (1, 4)).ravel()
        self.coupling_full = sp.csr_matrix(
            (self.cell_coupling.ravel(), (rows, cols)), shape=(nn, 2 * nn))

        d = self.dofs
        self.stiff_u = self.stiff_u_full[d.u_dofs][:, d.u_dofs].tocsr()
        self.stiff_p = self.stiff_p_full[d.p_nodes][:, d.p_nodes].tocsr()
        self.mass_p = self.mass_p_full[d.p_nodes][:, d.p_nodes].tocsr()
        self.aux_u = self.aux_u_full[d.u_dofs][:, d.u_dofs].tocsr()
        self.aux_p = self.aux_p_full[d.p_nodes][:, d.p_nodes].tocsr()
        self.coupling = self.coupling_full[d.p_nodes][:, d.u_dofs].tocsr()

    @staticmethod
    def _scalar_csr(cell_mats, cell_dofs, n):
        k = cell_dofs.shape[1]
        rows = np.repeat(cell_dofs, k, axis=1).ravel()
        cols = np.tile(cell_dofs, (1, k)).ravel()
        return sp.csr_matrix((cell_mats.ravel(), (rows, cols)), shape=(n, n))

    def local_matrices(self, cells, names=("stiff_u", "stiff_p", "aux_u", "aux_p")):
        """Assemble the named forms over a subset of fine cells, all their nodes.

        Returns (nodes, mats) where nodes are the global fine nodes in
        ascending order and each matrix uses that local numbering (pressure
        forms size len(nodes), displacement forms twice that, coupling
        shaped pressure x displacement).
        """
        cells = np.asarray(cells)
        cell_nodes = self._cell_nodes[cells]
        nodes = np.unique(cell_nodes)
        loc = np.searchsorted(nodes, cell_nodes)
        nl = nodes.size
        uloc = np.empty((cells.size, 8), dtype=np.int64)
        uloc[:, 0::2] = 2 * loc
        uloc[:, 1::2] = 2 * loc + 1
        out = {}
        for name in names:
            mats = getattr(self, "cell_" + name)[cells]
            if name in ("stiff_p", "mass_p", "aux_p"):
                out[name] = self._scalar_csr(mats, loc, nl).toarray()
            elif name == "coupling":
                rows = np.repeat(loc, 8, axis=1).ravel()
                cols = np.tile(uloc, (1, 4)).ravel()
                out[name] = sp.csr_matrix(
                    (mats.ravel(), (rows, cols)), shape=(nl, 2 * nl)).toarray()
            else:
                out[name] = self._scalar_csr(mats, uloc, 2 * nl).toarray()
        return nodes, out


class _Restricted:
    """A global interior form, sliced to the patch's unknowns when first read.

    `rows` and `cols` name the index attributes of the patch ("u_index" or
    "p_index"). The slice is stored on the instance, which then shadows this
    descriptor.
    """

    def __init__(self, rows, cols):
        self.rows = rows
        self.cols = cols

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, po, owner=None):
        if po is None:
            return self
        rows, cols = getattr(po, self.rows), getattr(po, self.cols)
        mat = getattr(po.ops, self.name)[rows][:, cols].tocsc()
        po.__dict__[self.name] = mat
        return mat


class PatchOperators:
    """Interior-unknown restrictions of the assembled forms to one patch.

    Each form is sliced from the global one on first access only; a patch
    solver reads two of the six.
    """

    stiff_u = _Restricted("u_index", "u_index")
    stiff_p = _Restricted("p_index", "p_index")
    mass_p = _Restricted("p_index", "p_index")
    aux_u = _Restricted("u_index", "u_index")
    aux_p = _Restricted("p_index", "p_index")
    coupling = _Restricted("p_index", "u_index")

    def __init__(self, ops, patch):
        if patch.n_interior == 0:
            raise ValueError("patch has no interior unknowns")
        self.ops = ops
        self.patch = patch
        self.nodes = patch.interior_fine_nodes
        d = ops.dofs
        self.p_index = d.node_positions(self.nodes)
        if np.any(self.p_index < 0):
            raise AssertionError("patch interior node missing from global interior set")
        self.u_index = np.column_stack(
            [2 * self.p_index, 2 * self.p_index + 1]).ravel()

    @property
    def n_u(self):
        return self.u_index.size

    @property
    def n_p(self):
        return self.p_index.size


def assemble_operators(grid, field, pou):
    if field.grid is not grid and (field.grid.ncx, field.grid.ncy,
                                   field.grid.refinement) != (
                                       grid.ncx, grid.ncy, grid.refinement):
        raise ValueError("field was built for a different grid")
    return OperatorSet(grid, field, pou)


def assemble_load(grid, source, t=0.0):
    """Nodal load vector of the scalar source over all fine nodes.

    `source` is either a vectorized callable source(t, x, y) or a per-cell
    constant array.
    """
    N, _, _ = _shape_values()
    wd = _QW * grid.hx * grid.hy
    nc = grid.n_fine_cells
    ci = np.arange(nc) % grid.nfx
    cj = np.arange(nc) // grid.nfx
    if callable(source):
        qx = (ci[:, None] + _QX[None, :]) * grid.hx
        qy = (cj[:, None] + _QY[None, :]) * grid.hy
        f = np.asarray(source(t, qx, qy), dtype=float)
        f = np.broadcast_to(f, (nc, 4))
    else:
        vals = np.asarray(source, dtype=float).ravel()
        if vals.size != nc:
            raise ValueError("per-cell source needs one value per fine cell")
        f = np.broadcast_to(vals[:, None], (nc, 4))
    cellwise = np.einsum("cq,q,qa->ca", f, wd, N)
    out = np.zeros(grid.n_fine_nodes)
    np.add.at(out, grid.fine_cell_nodes(), cellwise)
    return out


def restrict(ops, patch):
    return PatchOperators(ops, patch)


def export_operator(ops, name, path):
    """Matrix Market dump of one interior-restricted operator."""
    from scipy.io import mmwrite
    if not hasattr(ops, name):
        raise ValueError("unknown operator '%s'" % name)
    mmwrite(path, sp.coo_matrix(getattr(ops, name)))
