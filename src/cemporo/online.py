"""Residual-driven online enrichment of the multiscale spaces.

After a time step the discrete residuals of both equations are localized to
coarse regions (node neighborhoods by default, single coarse cells in the
element variant). Regions are picked by a bulk criterion on local dual norms,
one penalized patch solve per picked region turns the localized residual into
a new basis function, and the step is re-solved in the enlarged space. All
solves of one iteration use the residual snapshot taken at its start. Both
families run through one loop; the operators and the space answer for each.
"""

import math
import numbers
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .grid import oversample_element, oversample_neighborhood
from .cembasis import (BandedCholesky, PatchSolver, patch_index,
                       patch_nodes)


@dataclass
class ResidualSet:
    """Interior-unknown covectors of the two equations at one time level."""
    r_u: np.ndarray
    r_p: np.ndarray


def _is_int(v):
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


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
        if not all(_is_int(v) for v in (self.layers, self.iterations)):
            raise TypeError("layers and iterations must be integers")
        if self.layers < 0 or self.iterations < 0:
            raise ValueError("layers and iterations must be nonnegative")
        s = self.schedule
        if not (s in ("none", "final-step")
                or (isinstance(s, dict) and set(s) == {"every"}
                    and _is_int(s["every"]) and s["every"] > 0)):
            raise ValueError("schedule must be 'none', 'final-step' or "
                             "{'every': k} with a positive integer k")

    def steps(self, n_steps):
        """The steps, out of 1 to n_steps, after which the loop runs."""
        if isinstance(self.schedule, dict):
            every = self.schedule["every"]
            return set(range(every, n_steps + 1, every))
        return {n_steps} if self.schedule == "final-step" else set()


def compute_residuals(ops, tau, state, prev, load):
    """Residual covectors of the equilibrium and flow equations."""
    r_u = ops.coupling.T @ state.p - ops.stiff_u @ state.u
    r_p = load - ops.stiff_p @ state.p \
        - (ops.mass_p @ (state.p - prev.p)
           + ops.coupling @ (state.u - prev.u)) / tau
    return ResidualSet(r_u, r_p)


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
    closed mask, evaluated on a column's own patch only.
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

    # ---- plumbing ------------------------------------------------------

    def _cell_mask(self, cell, nodes):
        return self._patch(self.ops.grid, cell, 0).covers(nodes)

    def _dual_norm(self, family, r, region=None):
        """|L^-1 r|, the dual norm of r, with L L^T the family's stiffness
        on the region's patch without oversampling or, for no region, on the
        whole interior; each factor is built once and kept."""
        key = (family, region)
        if key not in self._riesz:
            A, index = self.ops.stiffness(family), slice(None)
            if region is not None:  # slicing with slice(None) would copy A
                index = patch_index(self.ops.dofs,
                                    self._patch(self.ops.grid, region, 0),
                                    family)
                A = A[index][:, index]
            self._riesz[key] = (BandedCholesky(A), index)
        factor, index = self._riesz[key]
        return np.linalg.norm(factor.solve_lower(r[index]))

    # ---- indicators ------------------------------------------------------

    def global_norms(self, res):
        """Dual norms of both residuals over the whole interior space, as
        `compute_indicators` takes them over regions."""
        return (float(self._dual_norm("u", res.r_u)),
                float(self._dual_norm("p", res.r_p)))

    def compute_indicators(self, res):
        """Local dual norms (eta_u, eta_p) of the residuals, one per region."""
        eta_u = np.empty(self.regions.size)
        eta_p = np.empty(self.regions.size)
        for k, region in enumerate(self.regions):
            eta_u[k] = self._dual_norm("u", res.r_u, int(region))
            eta_p[k] = self._dual_norm("p", res.r_p, int(region))
        return eta_u, eta_p

    # ---- basis growth ----------------------------------------------------

    def build_online_column(self, family, region, res):
        """One penalized patch solve against the localized residual: the
        column's interior positions on the patch and its values there."""
        patch = self._patch(self.ops.grid, int(region), self.config.layers)
        solver = PatchSolver(self.ops, self.aux, patch, family)
        weights = self.ops.dofs.spread(
            self._weights(int(region), patch_nodes(patch)), family)
        r = getattr(res, "r_" + family)
        return solver.index, solver.solve(weights * r[solver.index])

    def _filter_and_append(self, space, family, columns, factor, current):
        """Energy near-dependence filter, then append survivors in order,
        each scaled to unit energy.

        `columns` holds each candidate's (positions, values) on its patch.
        `factor` is the coarse solver's factor of the stiffness projected
        onto the family's current columns; it is not modified. Its rows stop
        at the numerical rank, so the singular Gram of a redundant space
        takes the same path. A candidate's energy left outside the span is
        e2 - |z|^2, z = L^-1 g, one forward solve with the factor; an
        accepted candidate appends its row to a copy of the factor instead
        of growing the Gram. A candidate is dependent when that energy is at
        most 1e-10 of e2, a cut well above the roundoff of the difference (up
        to about 4e-14 of e2 for candidates in the span).

        A candidate whose energy is at most 1e-18 of the energy of `current`,
        the family's part of the state the residual was taken at, is
        dropped: it corrects that state by a relative 1e-9 at most, and a
        state that solves the step leaves only such roundoff candidates. The
        floor scales with the loads, as the candidates do.
        """
        if not columns:
            return 0
        R = space.basis(family)
        A = self.ops.stiffness(family)
        floor = 1e-18 * float(current @ (A @ current))
        index, values = zip(*columns)
        cand = sp.csc_matrix((np.concatenate(values), (np.concatenate(index),
                              np.repeat(np.arange(len(index)),
                                        [i.size for i in index]))),
                             shape=(A.shape[0], len(index)))
        # dense: sparse-by-sparse products of wide patches' columns cost more
        images = (A @ cand).toarray()
        # energy products of the candidates with the space and each other
        with_space = R.T @ images
        with_cand = cand.T @ images
        # the factor's rows: the space's columns in pivot order up to the
        # rank, then the accepted candidates
        keep = factor.pivots
        rank = keep.size
        L = np.zeros((rank + len(columns),) * 2)
        L[:rank, :rank] = factor.L
        accepted, scales = [], []
        for j in range(len(columns)):
            e2 = with_cand[j, j]
            if e2 <= floor:
                continue
            k = rank + len(accepted)
            g = np.concatenate([with_space[keep, j],
                                np.multiply(scales, with_cand[accepted, j])])
            z = sla.solve_triangular(L[:k, :k], g, lower=True,
                                     check_finite=False)
            resid2 = e2 - z @ z
            if resid2 <= 1e-10 * e2:
                continue
            # scale to unit energy, so that the appended columns do not carry
            # the residual's scale into the coarse block
            s = 1.0 / np.sqrt(e2)
            L[k, :k] = s * z
            L[k, k] = s * np.sqrt(resid2)
            accepted.append(j)
            scales.append(s)
        if accepted:
            space.append(family, cand[:, accepted] @ sp.diags(scales))
        return len(accepted)

    # ---- one adaptive iteration -------------------------------------------

    def enrich_once(self, solver, state, prev, load, level_k):
        """Take the residual snapshot, enrich both families, re-solve the step.

        Returns (new_state, added_u, added_p). The incoming state is returned
        unchanged when every candidate is filtered out. `level_k`, the
        iteration's number within its level, does not enter the result.
        """
        cfg = self.config
        res = compute_residuals(self.ops, solver.tau, state, prev, load)
        eta_u, eta_p = self.compute_indicators(res)
        space = solver.space
        added = []
        # the solver's factors stay current until set_space: each family's
        # columns change only in its own append
        for family, eta, bulk in (("u", eta_u, cfg.theta),
                                  ("p", eta_p, cfg.gamma)):
            cols = [self.build_online_column(family, region, res)
                    for region in self.regions[select_regions(eta, bulk)]]
            added.append(self._filter_and_append(
                space, family, cols, getattr(solver, "factor_" + family),
                getattr(state, family)))

        if any(added):
            solver.set_space(space)
            state = solver.step(prev, load, state.n)
        return (state, *added)

    def adaptive_loop(self, solver, state, prev, load, reference=None,
                      history=None):
        """Enrich and re-solve one level until the iteration cap, the
        tolerance or stagnation of the dual norm stops the loop.

        Appends one record per iterate, the incoming state included, to the
        history (a list of dicts) and returns the final state.
        """
        from .report import energy_errors

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
