"""Structured coarse/fine grid pair on the unit square, patches and hat functions.

The fine grid refines every coarse cell by the same factor. All index maps are
lexicographic with x running fastest, matching the node order used by the
assembly routines.
"""

import numpy as np
import scipy.sparse as sp


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
        self.n_interior_coarse_nodes = self.interior_coarse_nodes.size

        fi, fj = np.meshgrid(np.arange(1, self.nfx), np.arange(1, self.nfy))
        self.interior_fine_nodes = np.sort(
            (fj * (self.nfx + 1) + fi).ravel()).astype(np.int64)

    # ---- index helpers -------------------------------------------------

    def fine_node_xy(self, nodes=None):
        """Coordinates of fine nodes (all of them by default)."""
        if nodes is None:
            nodes = np.arange(self.n_fine_nodes)
        nodes = np.asarray(nodes)
        i = nodes % (self.nfx + 1)
        j = nodes // (self.nfx + 1)
        return np.column_stack([i * self.hx, j * self.hy])

    def coarse_node_xy(self, nodes):
        nodes = np.asarray(nodes)
        i = nodes % (self.ncx + 1)
        j = nodes // (self.ncx + 1)
        return np.column_stack([i * self.Hx, j * self.Hy])

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

    def coarse_cell_of_fine_cell(self, cells=None):
        if cells is None:
            cells = np.arange(self.n_fine_cells)
        cells = np.asarray(cells)
        i = (cells % self.nfx) // self.refinement
        j = (cells // self.nfx) // self.refinement
        return j * self.ncx + i

    def fine_cells_of_coarse_cell(self, c):
        """Fine cell indices inside coarse cell c, lexicographic."""
        r = self.refinement
        ci = c % self.ncx
        cj = c // self.ncx
        fi = np.arange(ci * r, (ci + 1) * r)
        fj = np.arange(cj * r, (cj + 1) * r)
        return (fj[:, None] * self.nfx + fi[None, :]).ravel()

    def fine_nodes_of_cell_rect(self, cx0, cx1, cy0, cy1):
        """All fine nodes of the closed coarse-cell rectangle [cx0..cx1]x[cy0..cy1]."""
        r = self.refinement
        fi = np.arange(cx0 * r, (cx1 + 1) * r + 1)
        fj = np.arange(cy0 * r, (cy1 + 1) * r + 1)
        return np.sort((fj[:, None] * (self.nfx + 1) + fi[None, :]).ravel())

    def is_boundary_fine_node(self, nodes):
        nodes = np.asarray(nodes)
        i = nodes % (self.nfx + 1)
        j = nodes // (self.nfx + 1)
        return (i == 0) | (i == self.nfx) | (j == 0) | (j == self.nfy)

    def cells_touching_coarse_node(self, m):
        """Coarse cells having coarse node m as a corner (the node neighborhood)."""
        i = m % (self.ncx + 1)
        j = m // (self.ncx + 1)
        cells = []
        for cj in (j - 1, j):
            for ci in (i - 1, i):
                if 0 <= ci < self.ncx and 0 <= cj < self.ncy:
                    cells.append(cj * self.ncx + ci)
        return np.asarray(sorted(cells), dtype=np.int64)


class Patch:
    """A union of coarse cells with its fine node bookkeeping.

    Interior fine nodes are the ones with every incident fine cell inside the
    patch and none of them missing, which excludes both the patch's own
    topological boundary and the domain boundary.
    """

    def __init__(self, grid, cells, kind, seed_index, layers):
        cells = np.unique(np.asarray(cells, dtype=np.int64))
        if cells.size == 0:
            raise ValueError("patch needs at least one coarse cell")
        if cells.min() < 0 or cells.max() >= grid.n_coarse_cells:
            raise ValueError("coarse cell index out of range")
        self.grid = grid
        self.cells = cells
        self.kind = kind
        self.seed_index = int(seed_index)
        self.layers = int(layers)

        member = np.zeros(grid.n_coarse_cells, dtype=bool)
        member[cells] = True

        nodes = [grid.fine_nodes_of_cell_rect(c % grid.ncx, c % grid.ncx,
                                              c // grid.ncx, c // grid.ncx)
                 for c in cells]
        self.fine_nodes = np.unique(np.concatenate(nodes))

        # a fine node is interior when all four incident fine cells exist and
        # their coarse parents are patch members
        i = self.fine_nodes % (grid.nfx + 1)
        j = self.fine_nodes // (grid.nfx + 1)
        inside = (i > 0) & (i < grid.nfx) & (j > 0) & (j < grid.nfy)
        interior = np.zeros(self.fine_nodes.size, dtype=bool)
        idx = np.where(inside)[0]
        if idx.size:
            ii = i[idx]
            jj = j[idx]
            ok = np.ones(idx.size, dtype=bool)
            for di, dj in ((-1, -1), (0, -1), (-1, 0), (0, 0)):
                cell = (jj + dj) * grid.nfx + (ii + di)
                ok &= member[grid.coarse_cell_of_fine_cell(cell)]
            interior[idx] = ok
        self.interior_fine_nodes = self.fine_nodes[interior]

        self.fine_cells = np.sort(np.concatenate(
            [grid.fine_cells_of_coarse_cell(c) for c in cells]))

    @property
    def n_interior(self):
        return self.interior_fine_nodes.size

    def covers_domain(self):
        return self.cells.size == self.grid.n_coarse_cells


def _expand_rect(grid, cx0, cx1, cy0, cy1, layers):
    cx0 = max(cx0 - layers, 0)
    cy0 = max(cy0 - layers, 0)
    cx1 = min(cx1 + layers, grid.ncx - 1)
    cy1 = min(cy1 + layers, grid.ncy - 1)
    ci = np.arange(cx0, cx1 + 1)
    cj = np.arange(cy0, cy1 + 1)
    return (cj[:, None] * grid.ncx + ci[None, :]).ravel()


def oversample_element(grid, element, layers):
    """Coarse element plus `layers` rings of node-touching neighbours."""
    if not 0 <= element < grid.n_coarse_cells:
        raise ValueError("element index out of range")
    if layers < 0:
        raise ValueError("layers must be nonnegative")
    ci = element % grid.ncx
    cj = element // grid.ncx
    cells = _expand_rect(grid, ci, ci, cj, cj, layers)
    return Patch(grid, cells, "element", element, layers)


def oversample_neighborhood(grid, node, layers):
    """Node neighborhood (cells sharing the coarse node) expanded by `layers` rings."""
    if not 0 <= node < grid.n_coarse_nodes:
        raise ValueError("coarse node index out of range")
    if layers < 0:
        raise ValueError("layers must be nonnegative")
    seed = grid.cells_touching_coarse_node(node)
    ci = seed % grid.ncx
    cj = seed // grid.ncx
    cells = _expand_rect(grid, ci.min(), ci.max(), cj.min(), cj.max(), layers)
    return Patch(grid, cells, "neighborhood", node, layers)


class PartitionOfUnity:
    """Bilinear coarse hat functions sampled at fine nodes.

    One column per coarse node (all of them, so the columns sum to one at
    every fine node); `interior_nodes` lists the coarse nodes that seed
    enrichment regions.
    """

    def __init__(self, grid):
        self.grid = grid
        self.interior_nodes = grid.interior_coarse_nodes

        xy = grid.fine_node_xy()
        r = grid.refinement
        cols = []
        rows = []
        vals = []
        for m in range(grid.n_coarse_nodes):
            i = m % (grid.ncx + 1)
            j = m // (grid.ncx + 1)
            fi0 = max(i - 1, 0) * r
            fi1 = min(i + 1, grid.ncx) * r
            fj0 = max(j - 1, 0) * r
            fj1 = min(j + 1, grid.ncy) * r
            fi = np.arange(fi0, fi1 + 1)
            fj = np.arange(fj0, fj1 + 1)
            nodes = (fj[:, None] * (grid.nfx + 1) + fi[None, :]).ravel()
            v = self._hat(m, xy[nodes, 0], xy[nodes, 1])
            keep = v != 0.0
            rows.append(nodes[keep])
            cols.append(np.full(keep.sum(), m, dtype=np.int64))
            vals.append(v[keep])
        self.values = sp.csc_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(grid.n_fine_nodes, grid.n_coarse_nodes))

    def _hat(self, m, x, y):
        g = self.grid
        xi = (m % (g.ncx + 1)) * g.Hx
        yi = (m // (g.ncx + 1)) * g.Hy
        tx = np.clip(1.0 - np.abs(x - xi) / g.Hx, 0.0, 1.0)
        ty = np.clip(1.0 - np.abs(y - yi) / g.Hy, 0.0, 1.0)
        return tx * ty

    def vector(self, m):
        """Dense fine-nodal sample vector of hat m."""
        return np.asarray(self.values[:, m].todense()).ravel()

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
