"""Each correctness check passes on a real round and fails on a perturbed one.

    python3 -m pytest perfbench -q

A 3x3-cell problem at refinement 4 with enrichment at every step keeps the
round to a second or two.
"""

import copy
import os
import sys
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
from pipeline import observed_round  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import FROZEN  # noqa: E402

TINY = dict(copy.deepcopy(FROZEN),
            mesh={"ncx": 3, "ncy": 3, "refinement": 4},
            time={"tau": 0.1, "T": 0.3},
            online=dict(FROZEN["online"], strategy="element", iterations=2,
                        schedule={"every": 1}))


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    result, calls = observed_round(TINY, str(tmp_path_factory.mktemp("tiny")))
    exp = result.exp
    return SimpleNamespace(
        result=result, calls=calls, exp=exp, ops=exp.ops,
        tau=exp.time_grid.tau,
        load=checks.interior_load(exp.ops.grid, TINY["source"]["value"]),
        offline=(exp.space.n_u, exp.space.n_p))


def _one(fn, *args):
    report = checks.CheckReport()
    fn(report, *args)
    return report


def test_all_checks_pass(tiny):
    report = checks.run_checks(tiny.result, tiny.calls,
                               TINY["source"]["value"])
    assert report.correct, report.text()
    assert report.iterations == 6
    assert report.failed_iterations == []


def test_load_matches_program(tiny):
    from cemporo.assembly import assemble_load
    full = assemble_load(tiny.ops.grid, tiny.exp.source, 0.1)
    np.testing.assert_allclose(tiny.ops.dofs.restrict_p(full), tiny.load,
                               rtol=1e-13)


def test_kernels_fail_on_perturbed_form(tiny):
    ops = tiny.ops
    bad = SimpleNamespace(grid=ops.grid, stiff_p_full=ops.stiff_p_full,
                          stiff_u_full=ops.stiff_u_full
                          + 1e-6 * ops.stiff_u_full.diagonal().max()
                          * sp.identity(ops.stiff_u_full.shape[0]))
    assert _one(checks.check_kernels, ops).correct
    assert not _one(checks.check_kernels, bad).correct


def test_spectra_fail_without_gap_or_zero(tiny):
    spectra = copy.deepcopy(tiny.exp.aux.spectra)
    spectra[4].eigvals_u[3] = 0.0
    assert _one(checks.check_spectra,
                SimpleNamespace(spectra=spectra)).failed("spectra.gap")
    spectra = copy.deepcopy(tiny.exp.aux.spectra)
    spectra[2].eigvals_p[0] = 1e-3 * spectra[2].eigvals_p.max()
    assert _one(checks.check_spectra,
                SimpleNamespace(spectra=spectra)).failed("spectra.zero")


def test_fine_steps_fail_on_perturbed_state(tiny):
    ref = list(tiny.exp.reference)
    st = ref[2]
    ref[2] = SimpleNamespace(n=st.n, u=st.u, p=st.p * (1.0 + 1e-6))
    assert not _one(checks.check_fine_steps, tiny.ops, tiny.tau, tiny.load,
                    ref).correct


def test_galerkin_fails_off_the_space(tiny):
    r = tiny.result
    sizes = checks.space_sizes(r.rows, tiny.offline, len(r.states) - 1)
    args = (tiny.ops, tiny.tau, tiny.load)
    assert _one(checks.check_coarse_steps, *args, r.states, r.space,
                sizes).correct
    states = list(r.states)
    st = states[2]
    bump = np.random.default_rng(0).standard_normal(st.u.size)
    states[2] = SimpleNamespace(n=st.n, u=st.u + 1e-6 * np.linalg.norm(st.u)
                                * bump, p=st.p)
    assert not _one(checks.check_coarse_steps, *args, states, r.space,
                    sizes).correct


def test_dof_growth_fails_on_miscounted_row(tiny):
    rows = copy.deepcopy(tiny.result.rows)
    final = (tiny.result.space.n_u, tiny.result.space.n_p)
    assert _one(checks.check_dof_growth, rows, tiny.offline, final).correct
    rows[1]["added_u"] += 1
    assert not _one(checks.check_dof_growth, rows, tiny.offline,
                    final).correct


def test_final_errors_fail_on_wrong_value(tiny):
    r = tiny.result
    last = r.err_rows[-1]
    args = (tiny.ops, r.states[-1], tiny.exp.reference[-1])
    assert _one(checks.check_final_errors, *args,
                (last["err_u"], last["err_p"])).correct
    assert not _one(checks.check_final_errors, *args,
                    (last["err_u"] * 1.0001, last["err_p"])).correct


def test_resolved_decay_marks_worse_iterate(tiny):
    r = tiny.result
    args = (tiny.ops, tiny.tau, tiny.load, r.states)
    assert _one(checks.check_resolved_decay, *args,
                tiny.calls).failed_iterations == []
    # the second iterate of level 1 replaced by the unenriched step
    calls = list(tiny.calls)
    calls[1] = (calls[1][0], calls[0][0])
    report = _one(checks.check_resolved_decay, *args, calls)
    assert report.failed_iterations == [(1, 2)]


def test_tracing_changes_no_result(tiny, tmp_path):
    tracer = Tracer()
    result, calls = observed_round(TINY, str(tmp_path), tracer)
    assert result.err_rows == tiny.result.err_rows
    assert result.rows == tiny.result.rows
    m = layer_metrics(tracer, result)
    assert m["online.iterations"][0] == len(calls) == 6
    assert m["timestepping.fine_steps"][0] == 3
    assert m["spectral.cell_solves"][0] == 9
    assert m["cembasis.factorizations"][0] > 0
    # every span closed inside its parent
    dur = tracer.span_times()[0]
    assert np.all(dur >= 0.0)
    for idx, par in enumerate(tracer.parent):
        if par >= 0:
            assert tracer.start[par] <= tracer.start[idx]
            assert tracer.end[idx] <= tracer.end[par]
