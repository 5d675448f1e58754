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
The fine trajectories of the transformed media map onto the given one node
by node, and `cemporo run` writes the same files under one and under two
BLAS threads.

Only the span of each cell's kept eigenvectors is meant: the projection
sum over K of V_K V_K^T S_K and the patch penalty sum over K of
S_K V_K V_K^T S_K do not change when an S_K-orthonormal V_K is rotated or
has columns negated. So `spectral.solve_local_spectral` is wrapped to
multiply each family's kept vectors and their constraint columns by one
seeded matrix per cell, and the run is compared with the untransformed one,
on the square mesh and on a 6x4 one, at two and three modes a cell. IEEE
arithmetic is exactly sign-symmetric, so negated columns give the same fine
states bit for bit; a rotation gives the same printed digits.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from cemporo import cli, spectral
from cemporo.assembly import assemble_operators
from cemporo.grid import build_grids
from cemporo.material import MaterialField
from cemporo.timestepping import TimeGrid, run

from conftest import FROZEN

MESH = {"ncx": 6, "ncy": 6, "refinement": 6}
MESHES = {"6x6": MESH, "6x4": {"ncx": 6, "ncy": 4, "refinement": 6}}
# each transformation acts on the leading two axes of a (y, x, ...) array
MEDIA = {"given": lambda a: a,
         "mirror-x": lambda a: a[:, ::-1],
         "mirror-y": lambda a: a[::-1, :],
         "transpose": lambda a: a.swapaxes(0, 1)}
# what each does to a displacement's (x, y) components
COMPONENTS = {"given": lambda u: u,
              "mirror-x": lambda u: u * [-1.0, 1.0],
              "mirror-y": lambda u: u * [1.0, -1.0],
              "transpose": lambda u: u[..., ::-1]}


def _transformed(field, medium, cfg):
    """The material field with its cell arrays transformed, under the
    scalars of `cfg`, which built it."""
    grid = field.grid
    E, kappa = (MEDIA[medium](a.reshape(grid.nfy, grid.nfx)).ravel()
                for a in (field.E, field.kappa))
    return MaterialField(grid, E, kappa, **cfg["scalars"])


def _transform_kept(spec, kept, rng, negated):
    """Multiply each family's kept vectors and their constraint columns by
    one matrix drawn from `rng`: a +-1 diagonal ("negated", tallying the
    negated and kept columns of each family in `negated`) or an orthogonal
    matrix ("rotated")."""
    for family in ("u", "p"):
        m = getattr(spec, "vecs_" + family).shape[1]
        if kept == "negated":
            signs = rng.choice([-1.0, 1.0], size=m)
            negated[family] += (np.sum(signs < 0), m)
            matrix = np.diag(signs)
        else:
            matrix = np.linalg.qr(rng.normal(size=(m, m)))[0]
        for name in ("vecs_", "constraint_"):
            setattr(spec, name + family, getattr(spec, name + family) @ matrix)
    return spec


def _run(modes, medium, scale, mesh, kept):
    """One multiscale run: its history rows and fine states, its history
    rows (n_u, n_p, err_u, err_p) and per-step errors printed to 6 digits,
    and the negated and kept column counts of each family."""
    cfg = dict(FROZEN, mesh=MESHES[mesh],
               offline=dict(FROZEN["offline"], modes=modes),
               source=dict(FROZEN["source"],
                           value=scale * FROZEN["source"]["value"]),
               initial_pressure=dict(
                   FROZEN["initial_pressure"],
                   scale=scale * FROZEN["initial_pressure"]["scale"]))
    build = cli.build_field
    solve = spectral.solve_local_spectral
    negated = {"u": np.zeros(2, int), "p": np.zeros(2, int)}

    def build_field(cfg, grid):
        return _transformed(build(cfg, grid), medium, cfg)

    def solve_local_spectral(ops, element, n_u, n_p=None):
        spec = solve(ops, element, n_u, n_p)
        if kept == "given":
            return spec
        return _transform_kept(spec, kept, np.random.default_rng(element),
                               negated)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "build_field", build_field)
        mp.setattr(spectral, "solve_local_spectral", solve_local_spectral)
        exp = cli.Experiment(cli.resolve_config(cfg))
    states, rows, _ = exp.run_multiscale()
    assert rows and np.isfinite(rows[-1]["err_u"])
    printed = (["%d %d %.6g %.6g" % (r["n_u"], r["n_p"], r["err_u"],
                                     r["err_p"]) for r in rows],
               ["%d %.6g %.6g" % (r["level"], r["err_u"], r["err_p"])
                for r in exp.per_step_errors(states)])
    return rows, states, printed, negated


@pytest.fixture(scope="module")
def runs():
    cache = {}

    def get(modes, medium="given", scale=1.0, mesh="6x6", kept="given"):
        key = (modes, medium, scale, mesh, kept)
        if key not in cache:
            cache[key] = _run(*key)
        return cache[key]

    return get


@pytest.fixture(scope="module")
def results(runs):
    """The printed history rows and per-step errors of a run."""
    return lambda *args, **kwargs: runs(*args, **kwargs)[2]


@pytest.mark.parametrize("medium", ["mirror-x", "mirror-y", "transpose"])
def test_symmetric_media_give_the_same_results(results, medium):
    assert results(3, medium) == results(3)


@pytest.mark.parametrize("modes", [2, 3])
@pytest.mark.parametrize("scale", [8.0, 0.125])
def test_scaled_loads_give_the_same_results(results, modes, scale):
    assert results(modes, scale=scale) == results(modes)


@pytest.mark.parametrize("mesh", list(MESHES))
@pytest.mark.parametrize("modes", [2, 3])
def test_negated_kept_vectors_give_the_same_states(runs, modes, mesh):
    """Every fine state and every history row of the run whose kept columns
    were negated at random equals the given run's exactly."""
    rows, states, _, _ = runs(modes, mesh=mesh)
    rows_t, states_t, _, negated = runs(modes, mesh=mesh, kept="negated")
    # the relation is not vacuous: each family negated some columns and
    # kept the sign of others
    assert all(0 < n < total for n, total in negated.values())
    assert rows_t == rows
    assert len(states_t) == len(states)
    for st, st_t in zip(states, states_t):
        assert np.array_equal(st_t.u, st.u)
        assert np.array_equal(st_t.p, st.p)


@pytest.mark.parametrize("mesh", list(MESHES))
@pytest.mark.parametrize("modes", [2, 3])
def test_rotated_kept_vectors_give_the_same_results(results, modes, mesh):
    assert (results(modes, mesh=mesh, kept="rotated")
            == results(modes, mesh=mesh))


def _fine(medium):
    """The fine trajectory of the transformed medium, each state as a
    displacement array (y, x, component) and a pressure array (y, x) over
    the interior nodes."""
    cfg = cli.resolve_config(dict(FROZEN, mesh=MESH))
    grid = build_grids(MESH["ncx"], MESH["ncy"], MESH["refinement"])
    ops = assemble_operators(grid, _transformed(cli.build_field(cfg, grid),
                                                medium, cfg))
    states = run(ops, TimeGrid.from_horizon(cfg["time"]["tau"],
                                            cfg["time"]["T"]),
                 cli.make_source(cfg), cli.make_initial_pressure(cfg))
    shape = (grid.nfy - 1, grid.nfx - 1)
    return [(st.u.reshape(shape + (2,)), st.p.reshape(shape))
            for st in states]


@pytest.mark.parametrize("medium", ["mirror-x", "mirror-y", "transpose"])
def test_symmetric_media_map_the_fine_states(medium):
    """The nodes permuted, the mirrored displacement component negated (the
    components swapped for the transpose) and the pressure permuted, every
    fine state of the transformed medium is the given one's, within 1e-10
    of the largest entry (about 1e-12 measured)."""
    given = _fine("given")
    other = _fine(medium)
    assert len(other) == len(given)
    for (u, p), (u_t, p_t) in zip(given, other):
        mapped_u = COMPONENTS[medium](MEDIA[medium](u_t))
        mapped_p = MEDIA[medium](p_t)
        assert np.abs(mapped_u - u).max() <= 1e-10 * np.abs(u).max()
        assert np.abs(mapped_p - p).max() <= 1e-10 * np.abs(p).max()


def test_blas_threads_write_the_same_files(tmp_path):
    """`cemporo run` at three modes a cell writes byte-identical
    history.csv and errors.csv under one and under two BLAS threads."""
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(dict(
        FROZEN, mesh=MESH, offline=dict(FROZEN["offline"], modes=3))))
    files = {}
    for threads in (1, 2):
        out = tmp_path / ("blas%d" % threads)
        proc = subprocess.run(
            [sys.executable, "-m", "cemporo", "run", "--config",
             str(cfg_path), "--out", str(out)],
            capture_output=True, text=True,
            env=dict(os.environ, OPENBLAS_NUM_THREADS=str(threads)))
        assert proc.returncode == 0, proc.stderr
        files[threads] = [(out / name).read_bytes()
                          for name in ("history.csv", "errors.csv")]
    assert files[1] == files[2]
