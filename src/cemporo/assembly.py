"""Fine-grid operator assembly for the coupled flow/mechanics system.

Bilinear quadrilaterals, 2x2 Gauss quadrature, coefficients constant per fine
cell. Displacement unknowns are interleaved (x-component at 2*n, y-component
at 2*n+1 for fine node n). Assembled matrices are kept restricted to
interior (Dirichlet-eliminated) unknowns, the stiffnesses and the pressure
mass over all nodes as well; per-cell element matrices are retained for
local Neumann problems on coarse cells. Every square form leaves this module
exactly symmetric, so no later layer symmetrizes or mirrors one. The split
into the displacement ("u") and pressure ("p") families lives here alone:
`layout` places a family's unknowns, and `DofMap` and `OperatorSet` answer
for either family, rejecting any other with a ValueError.
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


_WIDTH = {"u": 2, "p": 1}  # unknowns per fine node


def check_family(family):
    """The family itself if it is "u" or "p"; otherwise a ValueError."""
    if family not in _WIDTH:
        raise ValueError("family must be 'u' or 'p'")
    return family


def layout(positions, family):
    """Positions of the family's unknowns at the given node positions, node
    by node: component c of node n sits at n * width + c, so the two
    displacement components are interleaved. Works on any trailing axis."""
    k = _WIDTH[check_family(family)]
    pos = np.asarray(positions)
    return (pos[..., None] * k + np.arange(k)).reshape(*pos.shape[:-1], -1)


class DofMap:
    """Interior-unknown bookkeeping for one grid."""

    def __init__(self, grid):
        self.grid = grid
        self.p_nodes = grid.interior_fine_nodes
        self.n_p = self.p_nodes.size
        self.u_dofs = layout(self.p_nodes, "u")
        self.n_u = self.u_dofs.size
        self._node_pos = np.full(grid.n_fine_nodes, -1, dtype=np.int64)
        self._node_pos[self.p_nodes] = np.arange(self.n_p)

    def node_positions(self, nodes):
        """Positions of the given fine nodes in the interior ordering (-1 if absent)."""
        return self._node_pos[np.asarray(nodes)]

    def index(self, nodes, family):
        """Interior positions of the family's unknowns at the given fine nodes.

        Pressure has one unknown per node ("p"), displacement the interleaved
        pair ("u"). A local solve reads its forms as `form[idx][:, idx]`.
        """
        p = self.node_positions(nodes)
        if p.size == 0:
            raise ValueError("patch has no interior unknowns")
        if np.any(p < 0):
            raise ValueError("node is not an interior unknown")
        return layout(p, family)

    def size(self, family):
        """Number of the family's interior unknowns."""
        return self.n_p * _WIDTH[check_family(family)]

    def spread(self, values, family):
        """One value per interior node, repeated on each of the family's
        unknowns at that node."""
        return np.repeat(values, _WIDTH[check_family(family)])

    def restrict_p(self, full):
        return np.asarray(full)[self.p_nodes]

    def extend_p(self, interior):
        out = np.zeros(self.grid.n_fine_nodes)
        out[self.p_nodes] = interior
        return out

    def extend_u(self, interior):
        out = np.zeros(2 * self.grid.n_fine_nodes)
        out[self.u_dofs] = interior
        return out


def _mirror_lower(mat):
    """The symmetric matrix with the lower triangle of `mat`, in CSR.

    Assembly sums duplicate entries in varying order, so a form summed from
    its element matrices is symmetric only to round-off. Stored zeros stay
    stored: a fill-reducing ordering sees the assembled pattern (dropping
    them raises the fine step factor's fill by a quarter).
    """
    low = sp.tril(mat, format="coo")
    off = low.row > low.col
    return sp.csr_matrix(
        (np.concatenate([low.data, low.data[off]]),
         (np.concatenate([low.row, low.col[off]]),
          np.concatenate([low.col, low.row[off]]))), shape=mat.shape)


class OperatorSet:
    """Assembled forms of the coupled system plus spectral weight masses.

    The short names act on interior unknowns only. Of the forms over all
    nodes, only the stiffnesses (`stiff_u_full`, `stiff_p_full`) and the
    pressure mass (`mass_p_full`, which maps a nodal initial pressure to its
    load) are kept. cell_* arrays hold the per-fine-cell element matrices,
    and `pou` is the partition of unity the spectral weights and the online
    residual weights are taken from. Each square form keeps the lower
    triangle of its assembly, mirrored (`_mirror_lower`), so it is exactly
    symmetric.
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
        cell_mass_p = np.broadcast_to(
            mass / field.biot_modulus, (nc, 4, 4)).copy()
        cell_coupling = field.alpha * np.broadcast_to(
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

        self.stiff_p_full = _mirror_lower(
            self._scalar_csr(self.cell_stiff_p, nodes, nn))
        self.mass_p_full = _mirror_lower(
            self._scalar_csr(cell_mass_p, nodes, nn))
        aux_p_full = _mirror_lower(
            self._scalar_csr(self.cell_aux_p, nodes, nn))
        udofs = layout(nodes, "u")
        self.stiff_u_full = _mirror_lower(
            self._scalar_csr(self.cell_stiff_u, udofs, 2 * nn))
        aux_u_full = _mirror_lower(
            self._scalar_csr(self.cell_aux_u, udofs, 2 * nn))
        rows = np.repeat(nodes, 8, axis=1).ravel()
        cols = np.tile(udofs, (1, 4)).ravel()
        coupling_full = sp.csr_matrix(
            (cell_coupling.ravel(), (rows, cols)), shape=(nn, 2 * nn))

        d = self.dofs
        self.stiff_u = self.stiff_u_full[d.u_dofs][:, d.u_dofs].tocsr()
        self.stiff_p = self.stiff_p_full[d.p_nodes][:, d.p_nodes].tocsr()
        self.mass_p = self.mass_p_full[d.p_nodes][:, d.p_nodes].tocsr()
        self.aux_u = aux_u_full[d.u_dofs][:, d.u_dofs].tocsr()
        self.aux_p = aux_p_full[d.p_nodes][:, d.p_nodes].tocsr()
        self.coupling = coupling_full[d.p_nodes][:, d.u_dofs].tocsr()

    def stiffness(self, family):
        """The family's stiffness form over interior unknowns."""
        return getattr(self, "stiff_" + check_family(family))

    def weight(self, family):
        """The family's spectral weight mass over interior unknowns."""
        return getattr(self, "aux_" + check_family(family))

    @staticmethod
    def _scalar_csr(cell_mats, cell_dofs, n):
        k = cell_dofs.shape[1]
        rows = np.repeat(cell_dofs, k, axis=1).ravel()
        cols = np.tile(cell_dofs, (1, k)).ravel()
        return sp.csr_matrix((cell_mats.ravel(), (rows, cols)), shape=(n, n))

    def local_matrices(self, cells):
        """Assemble the stiffness and spectral weight forms over a subset of
        fine cells, all their nodes.

        Returns (nodes, mats) where nodes are the global fine nodes in
        ascending order and each matrix uses that local numbering (pressure
        forms size len(nodes), displacement forms twice that). Each dense
        matrix is averaged with its transpose, so it is exactly symmetric.
        """
        cells = np.asarray(cells)
        cell_nodes = self._cell_nodes[cells]
        nodes = np.unique(cell_nodes)
        loc = np.searchsorted(nodes, cell_nodes)
        out = {}
        for family in ("u", "p"):
            dofs = layout(loc, family)
            for form in ("stiff", "aux"):
                name = "%s_%s" % (form, family)
                mat = self._scalar_csr(
                    getattr(self, "cell_" + name)[cells], dofs,
                    _WIDTH[family] * nodes.size).toarray()
                out[name] = 0.5 * (mat + mat.T)
        return nodes, out

    def kernel(self, family, nodes):
        """Energy kernel of the family's `local_matrices` forms on `nodes`:
        the two translations and the rotation, which bilinear elements
        reproduce exactly, or the constant pressure."""
        if check_family(family) == "p":
            return np.ones((nodes.size, 1))
        r = self.grid.fine_node_xy(nodes)
        r = r - r.mean(axis=0)
        motions = np.zeros((nodes.size, 2, 3))  # node, component, motion
        motions[:, :, :2] = np.eye(2)
        motions[:, :, 2] = r[:, ::-1] * [-1.0, 1.0]
        return motions.reshape(-1, 3)  # node by node, as `layout` orders


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

