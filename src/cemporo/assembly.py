"""Fine-grid operator assembly for the coupled flow/mechanics system.

Bilinear quadrilaterals, 2x2 Gauss quadrature, coefficients constant per fine
cell. Displacement unknowns are interleaved (x-component at 2*n, y-component
at 2*n+1 for fine node n). Assembled matrices are kept restricted to
interior (Dirichlet-eliminated) unknowns, the stiffnesses and the pressure
mass over all nodes as well. Element matrices are not kept: the local
Neumann problems of a coarse cell recompute theirs from the field and the
reference blocks, which depend only on the fine cell size. The spectral
weight is never assembled over the grid: CEM states it cell by cell,
s(u, v) = sum over coarse cells K of s_K(u, v), so only `local_matrices`
forms it, over the fine cells it is given. Every square form leaves this
module exactly symmetric, so no later layer symmetrizes or mirrors one. The
split into the displacement ("u") and pressure ("p") families lives here
alone: `layout` places a family's unknowns, and `DofMap` and `OperatorSet`
answer for either family, rejecting any other with a ValueError. `DofMap.columns` is the one place where dense patch
blocks become a family's sparse columns.
"""

import numpy as np
import scipy.sparse as sp

from .grid import partition_of_unity

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

    def columns(self, blocks, family, width):
        """The family's CSC matrix of `width` columns over interior unknowns,
        placed from dense blocks (positions, column ids, values): values[i, j]
        sits at row positions[i] of column ids[j]. A vector is the values of
        a single id."""
        rows, cols, vals = [], [], []
        for positions, ids, values in blocks:
            rows.append(np.tile(positions, len(ids)))
            cols.append(np.repeat(ids, len(positions)))
            vals.append(values.T.ravel())
        return sp.csc_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(self.size(family), width))

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
    stored, so the pattern is the assembled one. The fine step's
    nested-dissection factor hardly sees them: on the FROZEN mesh its L+U
    holds 5 154 140 nonzeros with them and 5 154 160 without. SuperLU's
    minimum-degree order moves erratically with them (6.56e6 with every
    zero kept, 5.86e6 with the square forms' dropped, 8.27e6 with the
    coupling's dropped too), and the fine step's fill test measures against
    that order with the zeros kept.
    """
    low = sp.tril(mat, format="coo")
    off = low.row > low.col
    return sp.csr_matrix(
        (np.concatenate([low.data, low.data[off]]),
         (np.concatenate([low.row, low.col[off]]),
          np.concatenate([low.col, low.row[off]]))), shape=mat.shape)


def _reference_blocks(hx, hy):
    """Unit-coefficient element forms of one hx x hy fine cell, shared by
    every cell: the Laplacian `lap`, the mass `mass`, the elasticity parts
    `k_shear` and `k_div`, the coupling `cpl` (4 x 8), and the shape values
    `N` with the quadrature weights `wd` that the spectral weights need."""
    N, dNdX, dNdY = _shape_values()
    dNdx = dNdX / hx
    dNdy = dNdY / hy
    wd = _QW * (hx * hy)
    B = np.zeros((4, 3, 8))
    B[:, 0, 0::2] = dNdx
    B[:, 1, 1::2] = dNdy
    B[:, 2, 0::2] = dNdy
    B[:, 2, 1::2] = dNdx
    voigt = np.diag([1.0, 1.0, 0.5])
    div = np.zeros((4, 8))
    div[:, 0::2] = dNdx
    div[:, 1::2] = dNdy
    return {"N": N, "wd": wd,
            "lap": np.einsum("q,qa,qb->ab", wd, dNdx, dNdx)
            + np.einsum("q,qa,qb->ab", wd, dNdy, dNdy),
            "mass": np.einsum("q,qa,qb->ab", wd, N, N),
            "k_shear": np.einsum("q,qia,ij,qjb->ab", wd, B, voigt, B),
            "k_div": np.einsum("q,qa,qb->ab", wd, div, div),
            "cpl": np.einsum("q,qa,qb->ab", wd, N, div)}


class OperatorSet:
    """Assembled forms of the coupled system.

    The short names act on interior unknowns only. Of the forms over all
    nodes, only the stiffnesses (`stiff_u_full`, `stiff_p_full`) and the
    pressure mass (`mass_p_full`, which maps a nodal initial pressure to its
    load) are kept. `pou` is the grid's partition of unity, which the
    spectral weights and the online residual weights are taken from. No
    element matrix outlives the assembly: `local_matrices` recomputes the
    stiffness and spectral weight matrices of the fine cells it is given,
    and no weight form is assembled over the grid. Each square form keeps
    the lower triangle of its assembly, mirrored (`_mirror_lower`), so it is
    exactly symmetric.
    A field built for another grid is refused with a ValueError.
    """

    def __init__(self, grid, field):
        if field.grid is not grid and (field.grid.ncx, field.grid.ncy,
                                       field.grid.refinement) != (
                                           grid.ncx, grid.ncy, grid.refinement):
            raise ValueError("field was built for a different grid")
        self.grid = grid
        self.field = field
        self.pou = partition_of_unity(grid)
        self.dofs = DofMap(grid)
        self._ref = _reference_blocks(grid.hx, grid.hy)

        nc = grid.n_fine_cells
        cell = self._stiffness_matrices(np.arange(nc))
        cell_mass_p = np.broadcast_to(
            self._ref["mass"] / field.biot_modulus, (nc, 4, 4)).copy()
        cell_coupling = field.alpha * np.broadcast_to(
            self._ref["cpl"], (nc, 4, 8)).copy()

        # each family's dofs of every fine cell, and its number of unknowns
        p = (grid.fine_cell_nodes(), grid.n_fine_nodes)
        u = (layout(p[0], "u"), 2 * grid.n_fine_nodes)

        self.stiff_p_full = _mirror_lower(
            self._scalar_csr(cell["stiff_p"], p, p))
        self.mass_p_full = _mirror_lower(self._scalar_csr(cell_mass_p, p, p))
        self.stiff_u_full = _mirror_lower(
            self._scalar_csr(cell["stiff_u"], u, u))
        coupling_full = self._scalar_csr(cell_coupling, p, u)

        d = self.dofs
        self.stiff_u = self.stiff_u_full[d.u_dofs][:, d.u_dofs].tocsr()
        self.stiff_p = self.stiff_p_full[d.p_nodes][:, d.p_nodes].tocsr()
        self.mass_p = self.mass_p_full[d.p_nodes][:, d.p_nodes].tocsr()
        self.coupling = coupling_full[d.p_nodes][:, d.u_dofs].tocsr()

    def _stiffness_matrices(self, cells):
        """Stiffness element matrices of the given fine cells, keyed
        "stiff_u" and "stiff_p"."""
        field, ref = self.field, self._ref
        mu, lam = field.mu[cells], field.lam[cells]
        return {"stiff_u": (2.0 * mu)[:, None, None] * ref["k_shear"]
                + lam[:, None, None] * ref["k_div"],
                "stiff_p": field.mobility[cells][:, None, None] * ref["lap"]}

    def _weight_matrices(self, cells):
        """Spectral weight element matrices of the given fine cells, keyed
        "aux_u" and "aux_p"."""
        grid, field, ref = self.grid, self.field, self._ref
        # spectral weight = coefficient * sum over hats of |grad chi|^2,
        # periodic over the coarse cell, sampled at each quadrature point
        hx, hy = grid.hx, grid.hy
        qx = ((cells % grid.nfx) * hx)[:, None] + _QX[None, :] * hx
        qy = ((cells // grid.nfx) * hy)[:, None] + _QY[None, :] * hy
        # avoid the periodic seam: quadrature points are strictly inside cells
        w_aux = ref["wd"][None, :] * self.pou.grad_sq_sum(qx, qy)
        scal = np.einsum("cq,qa,qb->cab", w_aux, ref["N"], ref["N"])
        # each displacement component carries the scalar weight alone
        return {"aux_u": np.kron(field.p_wave_modulus[cells][:, None, None]
                                 * scal, np.eye(2)),
                "aux_p": field.mobility[cells][:, None, None] * scal}

    def stiffness(self, family):
        """The family's stiffness form over interior unknowns."""
        return getattr(self, "stiff_" + check_family(family))

    @staticmethod
    def _scalar_csr(cell_mats, rows, cols):
        """Sum the element matrices into a CSR matrix. `rows` and `cols`
        are each (cell dofs, one row per cell; number of unknowns)."""
        (row_dofs, n_rows), (col_dofs, n_cols) = rows, cols
        i = np.repeat(row_dofs, col_dofs.shape[1], axis=1).ravel()
        j = np.tile(col_dofs, (1, row_dofs.shape[1])).ravel()
        return sp.csr_matrix((cell_mats.ravel(), (i, j)),
                             shape=(n_rows, n_cols))

    def local_matrices(self, cells):
        """Assemble the stiffness and spectral weight forms over a subset of
        fine cells, all their nodes.

        Returns (nodes, mats) where nodes are the global fine nodes in
        ascending order and each matrix uses that local numbering (pressure
        forms size len(nodes), displacement forms twice that). Each dense
        matrix is averaged with its transpose, so it is exactly symmetric.
        """
        cells = np.asarray(cells)
        cell_nodes = self.grid.fine_cell_nodes(cells)
        nodes = np.unique(cell_nodes)
        loc = np.searchsorted(nodes, cell_nodes)
        cell = {**self._stiffness_matrices(cells),
                **self._weight_matrices(cells)}
        out = {}
        for family in ("u", "p"):
            dofs = (layout(loc, family), _WIDTH[family] * nodes.size)
            for form in ("stiff", "aux"):
                name = "%s_%s" % (form, family)
                mat = self._scalar_csr(cell[name], dofs, dofs).toarray()
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


def assemble_operators(grid, field):
    return OperatorSet(grid, field)


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

