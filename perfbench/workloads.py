"""Benchmark workloads: cemporo configurations and their seeded inputs.

Every workload keeps the FROZEN medium (channel field of seed 0, contrast
1e4) and the FROZEN physics. The benchmark seed draws one factor c = 2^k,
k uniform in -3..3, that scales both loads: the constant source value
(FROZEN: 1) and the initial pressure bump (FROZEN: 100). The problem is
linear, so the solution scales by c and the relative errors, the
enrichment choices and the amount of work stay the same up to roundoff;
the input vectors and every intermediate value change.
"""

import copy

import numpy as np

# FROZEN from tests/conftest.py, the acceptance-test configuration.
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


def _variant(mesh, online):
    cfg = copy.deepcopy(FROZEN)
    cfg["mesh"] = mesh
    cfg["online"].update(online)
    return cfg


WORKLOADS = {
    # every acceptance test and ROADMAP figure uses this one; spectral,
    # offline basis and online enrichment each take about a third
    "frozen": FROZEN,
    # enrichment after every step with element regions: online work
    # dominates, element patches coincide with offline patches, and every
    # step re-projects the coarse operators twice
    "online-every-step": _variant(
        {"ncx": 6, "ncy": 6, "refinement": 6},
        {"strategy": "element", "iterations": 2, "schedule": {"every": 1}}),
    # many coarse cells and no enrichment: spectral and offline stages
    # dominate, the dense coarse solve is large, online code is bypassed
    "offline-large": _variant(
        {"ncx": 12, "ncy": 12, "refinement": 6},
        {"schedule": "none"}),
}


# Stages timed again after the round, as total counts: each stage shorter
# than a few seconds is repeated so that its median is steady, while a round
# stays under a minute.
REPEATS = {
    "frozen": {"reference": 3},
    "online-every-step": {"setup": 3, "reference": 21},
    "offline-large": {"reference": 3, "multiscale": 3},
}


# Workloads whose inputs do not depend on the seed. Enrichment at every step
# drives the coarse block to condition numbers of 1e16 and beyond, after which
# any change of input, even scaling both loads by a power of two, moves the
# late levels by roundoff alone (final err_u from 4e-5 to 7e-4 over four
# scalings). The workload is therefore the fixed FROZEN load.
UNSEEDED = {"online-every-step"}


def load_scale(name, seed):
    """Common factor of both loads: a power of two drawn from the seed."""
    if name in UNSEEDED:
        return 1.0
    return 2.0 ** int(np.random.default_rng(seed).integers(-3, 4))


def make_config(name, seed):
    """Raw cemporo configuration of one workload for one seed."""
    cfg = copy.deepcopy(WORKLOADS[name])
    c = load_scale(name, seed)
    cfg["source"]["value"] *= c
    cfg["initial_pressure"]["scale"] *= c
    return cfg
