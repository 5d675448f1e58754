"""Residual-driven online enrichment of the multiscale spaces.

After a time step the residuals of both equations, which `timestepping`
states with the step (`compute_residuals`), are localized to coarse regions
(node neighborhoods by default, single coarse cells in the element variant).
Regions are picked by a bulk criterion on local dual norms, and one
penalized patch solve per picked region turns the localized residual into a
candidate column. The coarse solver filters the candidates, appends the
survivors to the space it owns, borders its projections by them
(`CoarseSolver.append`), and the step is re-solved in the enlarged space.
This module states no equation of the step: of the forms it reads only the
stiffness, for the dual norms and the patch solves. All solves of one
iteration use the residual snapshot taken at its start. Both families run
through one loop; the operators answer for each.
"""

import math
import numbers
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .grid import is_integer, oversample_element, oversample_neighborhood
from .cembasis import (BandedCholesky, PatchSolver, patch_index,
                       patch_nodes)
from .timestepping import compute_residuals
from .report import energy_errors


@dataclass
class OnlineConfig:
    """Settings of the online stage; every rule on them is checked here.

    `schedule` says after which time steps the adaptive loop runs: "none",
    "final-step", or {"every": k} for every k-th step (`steps`)."""
    theta: float = 0.3
    gamma: float = 0.3
    layers: int = 2
    strategy: str = "neighborhood"
    iterations: int = 1
    tol: Optional[float] = None
    eps: Optional[float] = None
    schedule: Union[str, dict] = "final-step"

    def __post_init__(self):
        optional = [v for v in (self.tol, self.eps) if v is not None]
        if not all(isinstance(v, numbers.Real) and not isinstance(v, bool)
                   for v in [self.theta, self.gamma] + optional):
            raise TypeError("theta, gamma, tol and eps must be numbers")
        if not all(math.isfinite(v) and v >= 0.0 for v in optional):
            raise ValueError("tol and eps must be finite and nonnegative")
        if not 0.0 <= self.theta <= 1.0 or not 0.0 <= self.gamma <= 1.0:
            raise ValueError("bulk tolerances must lie in [0, 1]")
        if self.strategy not in ("neighborhood", "element"):
            raise ValueError("strategy must be 'neighborhood' or 'element'")
        if not all(is_integer(v) for v in (self.layers, self.iterations)):
            raise TypeError("layers and iterations must be integers")
        if self.layers < 0 or self.iterations < 0:
            raise ValueError("layers and iterations must be nonnegative")
        s = self.schedule
        if not (s in ("none", "final-step")
                or (isinstance(s, dict) and set(s) == {"every"}
                    and is_integer(s["every"]) and s["every"] > 0)):
            raise ValueError("schedule must be 'none', 'final-step' or "
                             "{'every': k} with a positive integer k")

    def steps(self, n_steps):
        """The steps, out of 1 to n_steps, after which the loop runs."""
        if isinstance(self.schedule, dict):
            every = self.schedule["every"]
            return set(range(every, n_steps + 1, every))
        return {n_steps} if self.schedule == "final-step" else set()


def select_regions(indicators, bulk):
    """Indices of the leading regions under the bulk (tail-energy) criterion.

    Regions are ordered by descending indicator with ascending-index
    tie-break; the count is the smallest m whose excluded tail satisfies
    sum_{i>m} eta_i^2 < bulk * sum_i eta_i^2. bulk = 0 selects every region
    with a nonzero indicator, and no bulk selects a region with a zero one.
    """
    eta = np.asarray(indicators, dtype=float)
    if np.any(eta < 0.0):
        raise ValueError("indicators must be nonnegative")
    order = np.argsort(-eta, kind="stable")
    sq = eta[order] ** 2
    total = sq.sum()
    if total == 0.0:
        return order[:0]
    if bulk == 0.0:
        return order[eta[order] > 0.0]
    tail = total - np.cumsum(sq)
    m = int(np.searchsorted(-tail, -bulk * total, side="right")) + 1
    # the rounded tail can stay above a tiny threshold past the last
    # nonzero indicator
    m = min(m, np.count_nonzero(eta))
    return order[:m]


class Enricher:
    """Caches and operations for adaptive enrichment on one problem.

    The strategy fixes the regions, interior coarse nodes or coarse cells,
    their patches and their residual weights: the node's hat or the cell's
    closed mask, evaluated on a column's own patch only. Two caches live as
    long as the enricher: `_riesz`, the stiffness factor of each (family,
    region) patch without oversampling, for the indicators, and
    `_capacitance`, the patch solver's capacitance factor of each (family,
    oversampled patch rectangle), formed by the first online column there
    and handed to every later one.
    """

    def __init__(self, ops, aux, config):
        self.ops = ops
        self.aux = aux
        self.config = config
        grid = ops.grid
        if config.strategy == "neighborhood":
            self.regions = grid.interior_coarse_nodes.copy()
            self._patch = oversample_neighborhood
            self._weights = ops.pou.values
        else:
            self.regions = np.arange(grid.n_coarse_cells)
            self._patch = oversample_element
            self._weights = self._cell_mask
        self._riesz = {}
        self._capacitance = {}

    # ---- plumbing ------------------------------------------------------

    def _cell_mask(self, cell, nodes):
        return self._patch(self.ops.grid, cell, 0).covers(nodes)

    def _dual_norm(self, family, r, region):
        """|L^-1 r|, the dual norm of r, with L L^T the family's stiffness
        on the region's patch without oversampling; each region's factor is
        built once and kept."""
        key = (family, region)
        if key not in self._riesz:
            index = patch_index(self.ops.dofs,
                                self._patch(self.ops.grid, region, 0), family)
            A = self.ops.stiffness(family)[index][:, index]
            self._riesz[key] = (BandedCholesky(A), index)
        factor, index = self._riesz[key]
        return np.linalg.norm(factor.solve_lower(r[index]))

    # ---- indicators ------------------------------------------------------

    def global_norms(self, res):
        """|L^-1 r| of both residuals with L L^T the family's stiffness on
        the whole interior, as `compute_indicators` takes them over regions.
        Each family's factor lives only while its norm is taken: kept, the
        two would be the online stage's largest arrays."""
        return tuple(
            float(np.linalg.norm(
                BandedCholesky(self.ops.stiffness(family)).solve_lower(r)))
            for family, r in (("u", res.r_u), ("p", res.r_p)))

    def compute_indicators(self, res):
        """Local dual norms (eta_u, eta_p) of the residuals, one per region."""
        eta_u = np.empty(self.regions.size)
        eta_p = np.empty(self.regions.size)
        for k, region in enumerate(self.regions):
            eta_u[k] = self._dual_norm("u", res.r_u, int(region))
            eta_p[k] = self._dual_norm("p", res.r_p, int(region))
        return eta_u, eta_p

    # ---- candidate columns -----------------------------------------------

    def build_online_column(self, family, region, res):
        """One penalized patch solve against the localized residual: the
        column's interior positions on the patch and its values there. The
        solver reuses the capacitance of its (family, patch rectangle) when
        an earlier column has formed it."""
        patch = self._patch(self.ops.grid, int(region), self.config.layers)
        key = (family, patch.rect)
        solver = PatchSolver(self.ops, self.aux, patch, family,
                             self._capacitance.get(key))
        self._capacitance[key] = solver.capacitance
        weights = self.ops.dofs.spread(
            self._weights(int(region), patch_nodes(patch)), family)
        r = getattr(res, "r_" + family)
        return solver.index, solver.solve(weights * r[solver.index])

    # ---- one adaptive iteration -------------------------------------------

    def enrich_once(self, solver, state, prev, load, level_k):
        """Take the residual snapshot, hand both families' candidate columns
        to `solver.append`, re-solve the step.

        Returns (new_state, added_u, added_p). The incoming state is returned
        unchanged when the solver's filter rejects every candidate.
        `level_k`, the iteration's number within its level, does not enter
        the result.
        """
        cfg = self.config
        res = compute_residuals(self.ops, solver.tau, state, prev, load)
        eta_u, eta_p = self.compute_indicators(res)
        # a generator: the "p" candidates are built only once the solver has
        # filtered and dropped the "u" ones
        columns = ([self.build_online_column(family, region, res)
                    for region in self.regions[select_regions(eta, bulk)]]
                   for family, eta, bulk in (("u", eta_u, cfg.theta),
                                             ("p", eta_p, cfg.gamma)))
        added = solver.append(columns, state)
        if any(added):
            state = solver.step(prev, load, state.n)
        return (state, *added)

    def adaptive_loop(self, solver, state, prev, load, reference=None,
                      history=None):
        """Enrich and re-solve one level until the iteration cap, the
        tolerance or stagnation of the dual norm stops the loop.

        Appends one record per iterate, the incoming state included, to the
        history (a list of dicts) and returns the final state.
        """
        cfg = self.config
        records = history if history is not None else []

        def record(k, st, added_u=0, added_p=0):
            res = compute_residuals(self.ops, solver.tau, st, prev, load)
            gu, gp = self.global_norms(res)
            row = {"level": int(st.n), "iteration": int(k),
                   "n_u": solver.space.n_u, "n_p": solver.space.n_p,
                   "eta_u": gu, "eta_p": gp, "eta": gu + gp,
                   "added_u": int(added_u), "added_p": int(added_p),
                   "err_u": np.nan, "err_p": np.nan}
            if reference is not None:
                row["err_u"], row["err_p"] = energy_errors(
                    self.ops, st, reference)
            records.append(row)
            return row

        # with tol, eps defaults to 0 and iterations 0 means a cap of 100
        eps = 0.0 if cfg.eps is None and cfg.tol is not None else cfg.eps
        cap = cfg.iterations or (100 if cfg.tol is not None else 0)
        row = record(0, state)
        k = 0
        while k < cap and (cfg.tol is None or row["eta"] > cfg.tol + eps):
            k += 1
            prev_eta = row["eta"]
            state, au, ap = self.enrich_once(solver, state, prev, load, k)
            row = record(k, state, au, ap)
            if eps is not None and abs(prev_eta - row["eta"]) <= eps:
                break
        return state
