"""Structured coarse/fine grid pair on the unit square, patches and hat functions.

The fine grid refines every coarse cell by the same factor. All index maps are
lexicographic with x running fastest, matching the node order used by the
assembly routines. A patch is a rectangle of coarse cells: an element or a
node neighborhood grown by whole layers of cells stays one, clipped at the
domain boundary, so a patch is known by its four cell bounds.
"""

import numbers

import numpy as np


class GridPair:
    """Conforming coarse and fine rectangular meshes of (0,1)^2.

    Parameters
    ----------
    ncx, ncy : int
        Number of coarse cells per direction.
    refinement : int
        Fine cells per coarse cell per direction.
    """

    def __init__(self, ncx, ncy, refinement):
        if not all(isinstance(v, numbers.Integral) and not isinstance(v, bool)
                   for v in (ncx, ncy, refinement)):
            raise TypeError("ncx, ncy and refinement must be integers")
        if ncx < 1 or ncy < 1:
            raise ValueError("coarse cell counts must be positive")
        if refinement < 1:
            raise ValueError("refinement must be a positive integer")
        self.ncx = int(ncx)
        self.ncy = int(ncy)
        self.refinement = int(refinement)
        self.nfx = self.ncx * self.refinement
        self.nfy = self.ncy * self.refinement
        self.Hx = 1.0 / self.ncx
        self.Hy = 1.0 / self.ncy
        self.hx = self.Hx / self.refinement
        self.hy = self.Hy / self.refinement
        # mesh sizes: the larger cell side of each grid
        self.H = max(self.Hx, self.Hy)
        self.h = max(self.hx, self.hy)

        self.n_coarse_cells = self.ncx * self.ncy
        self.n_coarse_nodes = (self.ncx + 1) * (self.ncy + 1)
        self.n_fine_cells = self.nfx * self.nfy
        self.n_fine_nodes = (self.nfx + 1) * (self.nfy + 1)

        ii, jj = np.meshgrid(np.arange(1, self.ncx), np.arange(1, self.ncy))
        self.interior_coarse_nodes = np.sort(
            (jj * (self.ncx + 1) + ii).ravel()).astype(np.int64)

        fi, fj = np.meshgrid(np.arange(1, self.nfx), np.arange(1, self.nfy))
        self.interior_fine_nodes = np.sort(
            (fj * (self.nfx + 1) + fi).ravel()).astype(np.int64)

    # ---- index helpers -------------------------------------------------

    def fine_node_xy(self, nodes):
        """Coordinates of the given fine nodes."""
        nodes = np.asarray(nodes)
        i = nodes % (self.nfx + 1)
        j = nodes // (self.nfx + 1)
        return np.column_stack([i * self.hx, j * self.hy])

    def fine_cell_nodes(self, cells=None):
        """The four node indices of each fine cell, order (0,0),(1,0),(0,1),(1,1)."""
        if cells is None:
            cells = np.arange(self.n_fine_cells)
        cells = np.asarray(cells)
        i = cells % self.nfx
        j = cells // self.nfx
        base = j * (self.nfx + 1) + i
        return np.column_stack([base, base + 1,
                                base + self.nfx + 1, base + self.nfx + 2])

    def fine_cells_of_coarse_cell(self, c):
        """Fine cell indices inside coarse cell c, lexicographic."""
        r = self.refinement
        ci = c % self.ncx
        cj = c // self.ncx
        fi = np.arange(ci * r, (ci + 1) * r)
        fj = np.arange(cj * r, (cj + 1) * r)
        return (fj[:, None] * self.nfx + fi[None, :]).ravel()


class Patch:
    """The coarse-cell rectangle [cx0..cx1] x [cy0..cy1] with its fine node
    bookkeeping.

    Interior fine nodes lie strictly inside the rectangle, which excludes
    both the patch's own boundary and the domain boundary. They are listed
    lexicographically, x fastest, and `shape` is their (rows, columns).
    """

    def __init__(self, grid, cx0, cx1, cy0, cy1):
        if not (0 <= cx0 <= cx1 < grid.ncx and 0 <= cy0 <= cy1 < grid.ncy):
            raise ValueError("patch rectangle outside the coarse grid")
        self.grid = grid
        self.rect = (cx0, cx1, cy0, cy1)
        ci = np.arange(cx0, cx1 + 1)
        cj = np.arange(cy0, cy1 + 1)
        self.cells = (cj[:, None] * grid.ncx + ci[None, :]).ravel()
        r = grid.refinement
        fi = np.arange(cx0 * r + 1, (cx1 + 1) * r)
        fj = np.arange(cy0 * r + 1, (cy1 + 1) * r)
        self.interior_fine_nodes = (fj[:, None] * (grid.nfx + 1)
                                    + fi[None, :]).ravel()
        self.shape = (fj.size, fi.size)

    def covers(self, nodes):
        """Whether each given fine node lies in the closed rectangle."""
        r = self.grid.refinement
        j, i = np.divmod(np.asarray(nodes), self.grid.nfx + 1)
        cx0, cx1, cy0, cy1 = self.rect
        return ((cx0 * r <= i) & (i <= (cx1 + 1) * r)
                & (cy0 * r <= j) & (j <= (cy1 + 1) * r))


def _expand_rect(grid, cx0, cx1, cy0, cy1, layers):
    """The patch of the rectangle grown by `layers` rings of coarse cells,
    clipped to the grid."""
    if not isinstance(layers, numbers.Integral) or isinstance(layers, bool):
        raise TypeError("layers must be an integer")
    if layers < 0:
        raise ValueError("layers must be nonnegative")
    return Patch(grid, max(cx0 - layers, 0), min(cx1 + layers, grid.ncx - 1),
                 max(cy0 - layers, 0), min(cy1 + layers, grid.ncy - 1))


def oversample_element(grid, element, layers):
    """Coarse element plus `layers` rings of node-touching neighbours."""
    if not 0 <= element < grid.n_coarse_cells:
        raise ValueError("element index out of range")
    ci = element % grid.ncx
    cj = element // grid.ncx
    return _expand_rect(grid, ci, ci, cj, cj, layers)


def oversample_neighborhood(grid, node, layers):
    """Node neighborhood (cells sharing the coarse node) expanded by `layers` rings."""
    if not 0 <= node < grid.n_coarse_nodes:
        raise ValueError("coarse node index out of range")
    i = node % (grid.ncx + 1)
    j = node // (grid.ncx + 1)
    # the clip drops the cells a boundary node does not have
    return _expand_rect(grid, i - 1, i, j - 1, j, layers)


class PartitionOfUnity:
    """Bilinear coarse hat functions sampled at fine nodes.

    There is one hat per coarse node, boundary nodes included, so the hats
    sum to one at every fine node.
    """

    def __init__(self, grid):
        self.grid = grid

    def _hat(self, m, x, y):
        g = self.grid
        xi = (m % (g.ncx + 1)) * g.Hx
        yi = (m // (g.ncx + 1)) * g.Hy
        tx = np.clip(1.0 - np.abs(x - xi) / g.Hx, 0.0, 1.0)
        ty = np.clip(1.0 - np.abs(y - yi) / g.Hy, 0.0, 1.0)
        return tx * ty

    def values(self, m, nodes):
        """Hat m at the given fine nodes."""
        xy = self.grid.fine_node_xy(nodes)
        return self._hat(m, xy[:, 0], xy[:, 1])

    def grad_sq_sum(self, x, y):
        """Sum over all hats of |grad chi|^2 at the given points.

        Only the four hats of the enclosing coarse cell contribute, which
        gives a closed form in the coarse-local coordinates.
        """
        g = self.grid
        X = np.mod(np.asarray(x) / g.Hx, 1.0)
        Y = np.mod(np.asarray(y) / g.Hy, 1.0)
        return (2.0 * ((1.0 - Y) ** 2 + Y ** 2) / g.Hx ** 2
                + 2.0 * ((1.0 - X) ** 2 + X ** 2) / g.Hy ** 2)


def build_grids(ncx, ncy, refinement):
    return GridPair(ncx, ncy, refinement)


def partition_of_unity(grid):
    return PartitionOfUnity(grid)
