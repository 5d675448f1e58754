"""The paper's claims about online enrichment, as measured trade-offs.

Online columns buy more accuracy than the same number of offline modes
(ROADMAP item 6), and the adaptive selection of regions buys more error
reduction per appended column than enriching every region (item 14). Both
measure against runs of the FROZEN physics; neither changes a threshold of
the acceptance suite.
"""

import json
import math
import os

import pytest

import cemporo as cp
from cemporo import cli
from cemporo.online import Enricher, OnlineConfig
from cemporo.report import energy_errors

from conftest import FROZEN


def test_online_columns_beat_more_offline_modes(cli_runs, frozen):
    # FROZEN keeps 2 modes a cell and enriches its final step 3 times, to
    # 301 u / 250 p columns with err_u/err_p 0.0770/0.0656; 3 modes a cell
    # without enrichment hold 300/300 columns and end at 0.522/0.653. The
    # margin does not rest on roundoff: 3 modes cut no eigenvalue cluster
    run = cli_runs.by_threads[1]
    with open(os.path.join(str(run.dir), "errors.csv")) as fh:
        last = fh.read().split()[-1]
    level, online_u, online_p = map(float, last.split(","))
    with open(os.path.join(str(run.dir), "manifest.json")) as fh:
        derived = json.load(fh)["derived"]
    assert level == frozen.time_grid.n_steps

    aux = cp.build_aux_basis(frozen.ops, 3)
    space = cp.build_offline_basis(frozen.ops, aux,
                                   FROZEN["offline"]["layers"])
    states = cp.run(frozen.ops, frozen.time_grid, frozen.source, frozen.p0,
                    solver=cp.CoarseSolver(frozen.ops, space,
                                           frozen.time_grid.tau))
    offline_u, offline_p = energy_errors(frozen.ops, states[-1],
                                         frozen.fine[-1])
    assert (space.n_u + space.n_p
            > derived["final_n_u"] + derived["final_n_p"])
    assert offline_u >= 3.0 * online_u, (offline_u, online_u)
    assert offline_p >= 3.0 * online_p, (offline_p, online_p)
    print("modes=3 offline: %d columns, err_u %.4g err_p %.4g; FROZEN: %d "
          "columns, err_u %.4g err_p %.4g (%.1fx, %.1fx)"
          % (space.n_u + space.n_p, offline_u, offline_p,
             derived["final_n_u"] + derived["final_n_p"], online_u, online_p,
             offline_u / online_u, offline_p / online_p))


def _efficiency(exp, bulk):
    """Enrich step 5 of the unenriched trajectory 4 times with
    theta = gamma = `bulk`: the sum over u and p of ln(first error / last
    error) against the resolved step, divided by the columns appended."""
    ops, tg = exp.ops, exp.time_grid
    solver = cp.CoarseSolver(ops, exp.space, tg.tau)
    states = cp.run(ops, tg, exp.source, exp.p0, solver=solver)
    load = ops.dofs.restrict_p(cp.assemble_load(ops.grid, exp.source,
                                                tg.t(5)))
    resolved = cp.FineSolver(ops, tg.tau).step(states[4], load, 5)
    onl = FROZEN["online"]
    enricher = Enricher(ops, exp.aux, OnlineConfig(
        theta=bulk, gamma=bulk, layers=onl["layers"],
        strategy=onl["strategy"]))
    state, columns = states[5], 0
    first = energy_errors(ops, state, resolved)
    for k in range(1, 5):
        state, added_u, added_p = enricher.enrich_once(solver, state,
                                                       states[4], load, k)
        columns += added_u + added_p
    last = energy_errors(ops, state, resolved)
    gain = sum(math.log(a / b) for a, b in zip(first, last))
    return gain / columns, columns


@pytest.mark.parametrize("contrast", [1e2, 1e4, 1e6])
def test_adaptive_selection_pays_per_column(contrast):
    # measured efficiencies, uniform (theta 0) against theta 0.3: 0.0346
    # against 0.0521 at contrast 1e2, 0.0344 against 0.0517 at 1e4 and
    # 0.0345 against 0.0527 at 1e6, that is 1.50-1.53x; uniform enrichment
    # appends 200 columns, theta 0.3 100, 96 and 95
    cfg = dict(FROZEN, mesh={"ncx": 6, "ncy": 6, "refinement": 6},
               material={"synth": dict(FROZEN["material"]["synth"],
                                       contrast=contrast)},
               time={"tau": 0.1, "T": 0.5}, reference=False)
    exp = cli.Experiment(cli.resolve_config(cfg))
    uniform, n_uniform = _efficiency(exp, 0.0)
    adaptive, n_adaptive = _efficiency(exp, 0.3)
    assert n_adaptive < n_uniform
    assert adaptive >= 1.25 * uniform, (adaptive, uniform)
    print("contrast %.0e: uniform %d columns, %.4f a column; theta 0.3 %d "
          "columns, %.4f a column (%.2fx)" % (contrast, n_uniform, uniform,
                                             n_adaptive, adaptive,
                                             adaptive / uniform))
