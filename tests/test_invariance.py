"""Metamorphic checks: a change of the input that maps the problem onto
itself must leave the multiscale results as they were.

The unit square, the constant source and the bump initial pressure are
unchanged by mirroring in x or y and by swapping the axes, and the model is
isotropic, so a medium mirrored or transposed with them poses the same
problem. The model is linear, so scaling both loads scales every solution
and leaves the relative errors and the bulk selections as they were.

Each run is the FROZEN physics and online settings on a 6x6 mesh of
refinement 6, through `cli.Experiment`, compared at the 6 digits that
`history.csv` and `errors.csv` print. The medium is transformed in place
of `cli.build_field`. The symmetries are checked at three modes a cell:
at two, the kept modes cut through degenerate eigenvalue clusters, and
which vectors of a cluster are kept depends on roundoff (ROADMAP item 1).
"""

import numpy as np
import pytest

from cemporo import cli
from cemporo.material import MaterialField

from conftest import FROZEN

MEDIA = {"given": lambda a: a,
         "mirror-x": lambda a: a[:, ::-1],
         "mirror-y": lambda a: a[::-1, :],
         "transpose": lambda a: a.T}


def _run(modes, medium, scale):
    """History rows (n_u, n_p, err_u, err_p) and per-step errors of one
    multiscale run, each printed to 6 digits."""
    cfg = dict(FROZEN, mesh={"ncx": 6, "ncy": 6, "refinement": 6},
               offline=dict(FROZEN["offline"], modes=modes),
               source=dict(FROZEN["source"],
                           value=scale * FROZEN["source"]["value"]),
               initial_pressure=dict(
                   FROZEN["initial_pressure"],
                   scale=scale * FROZEN["initial_pressure"]["scale"]))
    build = cli.build_field

    def build_field(cfg, grid):
        field = build(cfg, grid)
        E, kappa = (MEDIA[medium](a.reshape(grid.nfy, grid.nfx)).ravel()
                    for a in (field.E, field.kappa))
        return MaterialField(grid, E, kappa, field.poisson, field.alpha,
                             field.biot_modulus, field.viscosity)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "build_field", build_field)
        exp = cli.Experiment(cli.resolve_config(cfg))
    states, rows, _ = exp.run_multiscale()
    assert rows and np.isfinite(rows[-1]["err_u"])
    return (["%d %d %.6g %.6g" % (r["n_u"], r["n_p"], r["err_u"], r["err_p"])
             for r in rows],
            ["%d %.6g %.6g" % (r["level"], r["err_u"], r["err_p"])
             for r in exp.per_step_errors(states)])


@pytest.fixture(scope="module")
def results():
    runs = {}

    def get(modes, medium="given", scale=1.0):
        key = (modes, medium, scale)
        if key not in runs:
            runs[key] = _run(*key)
        return runs[key]

    return get


@pytest.mark.parametrize("medium", ["mirror-x", "mirror-y", "transpose"])
def test_symmetric_media_give_the_same_results(results, medium):
    assert results(3, medium) == results(3)


@pytest.mark.parametrize("modes", [2, 3])
@pytest.mark.parametrize("scale", [8.0, 0.125])
def test_scaled_loads_give_the_same_results(results, modes, scale):
    assert results(modes, scale=scale) == results(modes)
