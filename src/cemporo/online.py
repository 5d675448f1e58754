"""Residual-driven online enrichment of the multiscale spaces.

After a time step the discrete residuals of both equations are localized to
coarse regions (node neighborhoods by default, single coarse cells in the
element variant). Regions are picked by a bulk criterion on local dual norms,
one penalized patch solve per picked region turns the localized residual into
a new basis function, and the step is re-solved in the enlarged space. All
solves of one iteration use the residual snapshot taken at its start.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse.linalg as spla

from .grid import oversample_element, oversample_neighborhood
from .assembly import restrict
from .cembasis import PatchSolver


@dataclass
class ResidualSet:
    """Interior-unknown covectors of the two equations at one time level."""
    level: int
    r_u: np.ndarray
    r_p: np.ndarray


@dataclass
class IndicatorSet:
    strategy: str
    regions: np.ndarray
    eta_u: np.ndarray
    eta_p: np.ndarray


@dataclass
class OnlineConfig:
    theta: float = 0.3
    gamma: float = 0.3
    layers: int = 2
    strategy: str = "neighborhood"
    iterations: int = 1
    tol: Optional[float] = None
    eps: Optional[float] = None

    def __post_init__(self):
        if not 0.0 <= self.theta <= 1.0 or not 0.0 <= self.gamma <= 1.0:
            raise ValueError("bulk tolerances must lie in [0, 1]")
        if self.strategy not in ("neighborhood", "element"):
            raise ValueError("strategy must be 'neighborhood' or 'element'")
        if self.layers < 0 or self.iterations < 0:
            raise ValueError("layers and iterations must be nonnegative")


def compute_residuals(ops, tau, state, prev, load):
    """Residual covectors of the equilibrium and flow equations."""
    r_u = ops.coupling.T @ state.p - ops.stiff_u @ state.u
    r_p = load - ops.stiff_p @ state.p \
        - (ops.mass_p @ (state.p - prev.p)
           + ops.coupling @ (state.u - prev.u)) / tau
    return ResidualSet(state.n, r_u, r_p)


def select_regions(indicators, bulk):
    """Indices of the leading regions under the bulk (tail-energy) criterion.

    Regions are ordered by descending indicator with ascending-index
    tie-break; the count is the smallest m whose excluded tail satisfies
    sum_{i>m} eta_i^2 < bulk * sum_i eta_i^2. bulk = 0 selects every region
    with a nonzero indicator.
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
    m = min(m, eta.size)
    return order[:m]


class Enricher:
    """Caches and operations for adaptive enrichment on one problem."""

    def __init__(self, ops, aux, pou, config):
        self.ops = ops
        self.aux = aux
        self.pou = pou
        self.config = config
        grid = ops.grid
        if config.strategy == "neighborhood":
            self.regions = grid.interior_coarse_nodes.copy()
        else:
            self.regions = np.arange(grid.n_coarse_cells)
        self._riesz = {}
        self._global_riesz = {}
        self._localizers = {}

    # ---- plumbing ------------------------------------------------------

    def _region_patch(self, region, layers):
        grid = self.ops.grid
        if self.config.strategy == "neighborhood":
            return oversample_neighborhood(grid, region, layers)
        return oversample_element(grid, region, layers)

    def _riesz_solver(self, family, region):
        key = (family, region)
        if key not in self._riesz:
            po = restrict(self.ops, self._region_patch(region, 0))
            mat = po.stiff_u if family == "u" else po.stiff_p
            index = po.u_index if family == "u" else po.p_index
            self._riesz[key] = (spla.splu(mat.tocsc()), index)
        return self._riesz[key]

    def _global_riesz_solver(self, family):
        if family not in self._global_riesz:
            mat = self.ops.stiff_u if family == "u" else self.ops.stiff_p
            self._global_riesz[family] = spla.splu(mat.tocsc())
        return self._global_riesz[family]

    def _localizer(self, family, region):
        """Nodal residual weights of the region: the hat function for node
        neighborhoods, the 0/1 cell mask for elements."""
        key = (family, region)
        if key not in self._localizers:
            grid = self.ops.grid
            if self.config.strategy == "neighborhood":
                w = self.pou.vector(region)
            else:
                w = np.zeros(grid.n_fine_nodes)
                ci = region % grid.ncx
                cj = region // grid.ncx
                w[grid.fine_nodes_of_cell_rect(ci, ci, cj, cj)] = 1.0
            wi = w[self.ops.dofs.p_nodes]
            if family == "u":
                wi = np.repeat(wi, 2)
            self._localizers[key] = wi
        return self._localizers[key]

    # ---- indicators ------------------------------------------------------

    def global_norms(self, res):
        """Dual norms of both residuals over the whole interior space."""
        out = []
        for family, r in (("u", res.r_u), ("p", res.r_p)):
            w = self._global_riesz_solver(family).solve(r)
            out.append(float(np.sqrt(max(r @ w, 0.0))))
        return out[0], out[1]

    def compute_indicators(self, res):
        eta_u = np.empty(self.regions.size)
        eta_p = np.empty(self.regions.size)
        for k, region in enumerate(self.regions):
            for family, r, dest in (("u", res.r_u, eta_u),
                                    ("p", res.r_p, eta_p)):
                lu, index = self._riesz_solver(family, int(region))
                rloc = r[index]
                w = lu.solve(rloc)
                dest[k] = np.sqrt(max(rloc @ w, 0.0))
        return IndicatorSet(self.config.strategy, self.regions, eta_u, eta_p)

    # ---- basis growth ----------------------------------------------------

    def build_online_column(self, family, region, res):
        """One penalized patch solve against the localized residual."""
        patch = self._region_patch(int(region), self.config.layers)
        solver = PatchSolver(self.ops, self.aux, patch, family)
        r = res.r_u if family == "u" else res.r_p
        rhs = (self._localizer(family, int(region)) * r)[solver.index]
        psi = solver.solve(rhs)
        full = np.zeros(self.ops.dofs.n_u if family == "u"
                        else self.ops.dofs.n_p)
        full[solver.index] = psi
        return full

    def _filter_and_append(self, space, family, columns, origins, gram):
        """Energy near-dependence filter, then append survivors in order.

        `gram` is the stiffness projected onto the family's current columns;
        it is not modified.
        """
        ops = self.ops
        if family == "u":
            R = space.basis_u
            A = ops.stiff_u
        else:
            R = space.basis_p
            A = ops.stiff_p
        G = gram
        acc_cols, acc_orig = [], []
        rms2 = float(np.mean(np.diag(G))) if G.size else 1.0
        for col, orig in zip(columns, origins):
            img = A @ col
            e2 = float(col @ img)
            if e2 <= 1e-18 * rms2:
                continue
            g = np.concatenate([R.T @ img, [c @ img for c in acc_cols]])
            try:
                x = np.linalg.solve(G, g)
            except np.linalg.LinAlgError:
                x = np.linalg.lstsq(G, g, rcond=None)[0]
            resid2 = max(e2 - g @ x, 0.0)
            if resid2 < (1e-8) ** 2 * e2:
                continue
            # grow the Gram with the accepted column
            G = np.block([[G, g[:, None]], [g[None, :], np.array([[e2]])]])
            acc_cols.append(col)
            acc_orig.append(orig)
        if acc_cols:
            space.append(family, acc_cols, acc_orig)
        return len(acc_cols)

    # ---- one adaptive iteration -------------------------------------------

    def enrich_once(self, solver, state, prev, load, level_k):
        """Take the residual snapshot, enrich both families, re-solve the step.

        Returns (new_state, added_u, added_p). The incoming state is returned
        unchanged when every candidate is filtered out.
        """
        cfg = self.config
        res = compute_residuals(self.ops, solver.tau, state, prev, load)
        ind = self.compute_indicators(res)
        sel_u = select_regions(ind.eta_u, cfg.theta)
        sel_p = select_regions(ind.eta_p, cfg.gamma)

        space = solver.space
        cols_u = [self.build_online_column("u", self.regions[i], res)
                  for i in sel_u]
        orig_u = [{"kind": "online", "family": "u", "strategy": cfg.strategy,
                   "region": int(self.regions[i]), "level": int(state.n),
                   "iteration": int(level_k), "layers": cfg.layers}
                  for i in sel_u]
        cols_p = [self.build_online_column("p", self.regions[i], res)
                  for i in sel_p]
        orig_p = [{"kind": "online", "family": "p", "strategy": cfg.strategy,
                   "region": int(self.regions[i]), "level": int(state.n),
                   "iteration": int(level_k), "layers": cfg.layers}
                  for i in sel_p]
        # the solver's projections are current: each family's columns
        # change only in its own append below
        added_u = self._filter_and_append(space, "u", cols_u, orig_u,
                                          solver.co.stiff_u)
        added_p = self._filter_and_append(space, "p", cols_p, orig_p,
                                          solver.co.stiff_p)

        if added_u or added_p:
            solver.set_space(space)
            state = solver.step(prev, load, state.n)
        return state, added_u, added_p

    def adaptive_loop(self, solver, state, prev, load, reference=None,
                      history=None):
        """Run the configured iterations (or the tolerance loop) at one level.

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
                    self.ops, st, reference)[:2]
            records.append(row)
            return row

        row = record(0, state)
        if cfg.tol is not None:
            k = 0
            eps = cfg.eps if cfg.eps is not None else 0.0
            max_iter = cfg.iterations if cfg.iterations > 0 else 100
            while row["eta"] > cfg.tol + eps and k < max_iter:
                k += 1
                prev_eta = row["eta"]
                state, au, ap = self.enrich_once(solver, state, prev, load, k)
                row = record(k, state, au, ap)
                if abs(prev_eta - row["eta"]) <= eps:
                    break
        else:
            for k in range(1, cfg.iterations + 1):
                prev_eta = row["eta"]
                state, au, ap = self.enrich_once(solver, state, prev, load, k)
                row = record(k, state, au, ap)
                if cfg.eps is not None and abs(prev_eta - row["eta"]) <= cfg.eps:
                    break
        return state


def compute_indicators(ops, aux, pou, config, tau, state, prev, load):
    """Convenience wrapper for one-off indicator evaluation."""
    enr = Enricher(ops, aux, pou, config)
    res = compute_residuals(ops, tau, state, prev, load)
    return enr.compute_indicators(res)

