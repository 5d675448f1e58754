"""Shared fixtures.

The expensive setups are session-scoped: `frozen` carries the full
contrast-1e4 experiment shared by several acceptance criteria, `cli_runs`
holds two command-line runs of the same experiment used for the decay and
determinism checks.
"""

import json
import subprocess
import sys
import time
from types import SimpleNamespace

import numpy as np
import pytest

import cemporo as cp


# The reference experiment: 10x10 coarse grid refined 10x, channel field with
# contrast 1e4, two auxiliary modes and two oversampling layers, backward
# Euler with tau=0.1 to t=1, unit source, bump initial pressure. Criteria 06
# and 07 measure the online decay against the fine solution of the enriched
# step from the same previous coarse state; under one and two BLAS threads
# the margins are ratios 0.135 (u) and 0.080 (p) against 0.2 in criterion
# 06, and 8 of the 12 iterations allowed for theta=0.7 to reach 5 % in
# criterion 07 (theta=0.3 takes 3). Criterion 08 measures against the fine
# trajectory. Keep tests and the CLI fixture in lockstep.
FROZEN = {
    "mesh": {"ncx": 10, "ncy": 10, "refinement": 10},
    "material": {"synth": {"background": 1.0, "contrast": 1e4,
                           "n_channels": 4, "n_inclusions": 8, "seed": 0}},
    "scalars": {"poisson": 0.2, "alpha": 0.9, "biot_modulus": 1.0,
                "viscosity": 1.0},
    "time": {"tau": 0.1, "T": 1.0},
    "offline": {"modes": 2, "layers": 2},
    "online": {"theta": 0.3, "gamma": 0.3, "layers": 2,
               "strategy": "neighborhood", "iterations": 3,
               "schedule": "final-step"},
    "source": {"kind": "constant", "value": 1.0},
    "initial_pressure": {"kind": "bump", "scale": 100.0},
    "reference": True,
}


def constant_source(t, x, y):
    return np.ones_like(np.asarray(x, dtype=float))


def bump_pressure(x, y):
    return 100.0 * x * (1.0 - x) * y * (1.0 - y)


@pytest.fixture(scope="session")
def frozen():
    """Library-level build of the reference experiment."""
    mesh = FROZEN["mesh"]
    grid = cp.build_grids(mesh["ncx"], mesh["ncy"], mesh["refinement"])
    syn = FROZEN["material"]["synth"]
    field = cp.synth_channels(grid, syn["background"], syn["contrast"],
                              n_channels=syn["n_channels"],
                              n_inclusions=syn["n_inclusions"],
                              seed=syn["seed"])
    ops = cp.assemble_operators(grid, field)
    aux = cp.build_aux_basis(ops, FROZEN["offline"]["modes"])
    space = cp.build_offline_basis(ops, aux, FROZEN["offline"]["layers"])
    time_grid = cp.TimeGrid.from_horizon(FROZEN["time"]["tau"],
                                         FROZEN["time"]["T"])
    fine = cp.run(ops, time_grid, constant_source, bump_pressure)
    return SimpleNamespace(grid=grid, field=field, ops=ops, aux=aux,
                           space=space, time_grid=time_grid, fine=fine,
                           source=constant_source, p0=bump_pressure)


def _cli(argv):
    t0 = time.time()
    proc = subprocess.run([sys.executable, "-m", "cemporo"] + argv,
                          capture_output=True, text=True)
    return proc, time.time() - t0


@pytest.fixture(scope="session")
def cli_runs(tmp_path_factory):
    """The reference experiment through the CLI, once per --threads value."""
    root = tmp_path_factory.mktemp("cli")
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(FROZEN, indent=1))
    out = {}
    for threads in (1, 8):
        out_dir = root / ("threads%d" % threads)
        proc, seconds = _cli(["--threads", str(threads), "run",
                              "--config", str(cfg_path),
                              "--out", str(out_dir)])
        assert proc.returncode == 0, proc.stderr
        out[threads] = SimpleNamespace(dir=out_dir, seconds=seconds,
                                       stdout=proc.stdout)
    return SimpleNamespace(by_threads=out, config_path=cfg_path)
