"""Configuration handling and the command line entry point."""

import csv
import importlib.util
import json
import math
import os

import numpy as np
import pytest

from cemporo import cli
from cemporo.assembly import OperatorSet
from cemporo.cli import (ConfigError, load_config, main, make_initial_pressure,
                         make_source, resolve_config)
from cemporo.online import OnlineConfig
from cemporo.report import EnrichmentHistory

from conftest import FROZEN

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

TINY = {
    "mesh": {"ncx": 2, "ncy": 2, "refinement": 2},
    "material": {"synth": {"background": 1.0, "contrast": 100.0,
                           "n_channels": 1, "n_inclusions": 2, "seed": 5}},
    "time": {"tau": 0.5, "T": 1.0},
    "offline": {"modes": 2, "layers": 1},
    "online": {"layers": 1, "iterations": 1},
    "snapshots": True,
}


def _write(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


# ---- configuration ---------------------------------------------------------


def test_resolve_config_fills_defaults():
    cfg = resolve_config({})
    assert cfg["mesh"] == {"ncx": 10, "ncy": 10, "refinement": 10}
    assert cfg["online"]["strategy"] == "neighborhood"
    assert cfg["reference"] is True


def test_resolve_config_deep_merge():
    cfg = resolve_config({"online": {"theta": 0.7}})
    assert cfg["online"]["theta"] == 0.7
    assert cfg["online"]["gamma"] == 0.3  # untouched sibling keeps default
    assert cfg["mesh"]["ncx"] == 10


def test_resolve_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        resolve_config({"mesch": {}})


@pytest.mark.parametrize("patch", [
    {"mesh": {"ncx": 0}},
    {"mesh": {"refinement": "ten"}},
    {"time": {"tau": -0.1}},
    {"time": {"T": 0.0}},
    {"offline": {"modes": 0}},
    {"offline": {"layers": -1}},
    {"online": {"strategy": "everywhere"}},
    {"online": {"theta": 1.2}},
    {"online": {"iterations": -1}},
    {"online": {"schedule": "sometimes"}},
    {"online": {"schedule": {"every": 0}}},
    {"online": {"schedule": {"every": 2, "evrey": 1}}},
    {"online": {"tol": "small"}},
    {"mesh": 4},
    {"time": {"tau": 0.0}},
    # a 2x2 refinement-2 mesh has 9 pressure unknowns per coarse cell
    {"mesh": {"ncx": 2, "ncy": 2, "refinement": 2}, "offline": {"modes": 200}},
    {"variants": {"name": "solo"}},
    {"variants": [{"theta": 0.5}]},
    {"source": {"kind": "impulse"}},
    {"initial_pressure": {"kind": "spike"}},
    {"material": {"synth": 3}},
])
def test_resolve_config_validation(patch):
    with pytest.raises(ConfigError):
        resolve_config(patch)


# each must fail when the configuration is loaded: not in a traceback after
# the set-up, and not by being accepted
BAD_INPUTS = {
    "online-layers-negative": {"online": {"layers": -1}},
    "online-theta-string": {"online": {"theta": "0.3"}},
    "time-not-a-multiple": {"time": {"tau": 0.3, "T": 1.0}},
    "variant-theta-out-of-range": {"variants": [{"name": "bad",
                                                 "theta": 1.5}]},
    "online-layers-fraction": {"online": {"layers": 1.5}},
    "variant-unknown-key": {"variants": [{"name": "typo", "thetta": 0.5}]},
    # compare could not tell such variants' rows apart
    "variant-name-repeated": {"variants": [{"name": "a"},
                                           {"name": "a", "theta": 0.9}]},
    "variant-name-not-string": {"variants": [{"name": ["x", 1]}]},
    "mesh-unknown-key": {"mesh": {"nxc": 4}},
    "online-unknown-key": {"online": {"thetta": 0.5}},
    "material-unknown-key": {"material": {"fiel": "fields/channels"}},
    # a typo must not silently draw the field from the default seed
    "material-synth-unknown-key": {"material": {"synth": {"seedd": 3}}},
    # data sections: a string, a list or a boolean is not a number, a typo
    # must not fall back to the default, and a table must fit the mesh
    "source-value-string": {"source": {"value": "abc"}},
    "source-value-list": {"source": {"value": [1, 2]}},
    "source-value-bool": {"source": {"value": True}},
    "source-unknown-key": {"source": {"valu": 2.0}},
    "source-table-too-short": {"source": {"kind": "table", "values": [1.0]}},
    "source-table-string": {"source": {"kind": "table",
                                       "values": ["abc"] * 16}},
    "initial-pressure-scale-string": {"initial_pressure": {"scale": "abc"}},
    "initial-pressure-scale-list": {"initial_pressure": {"scale": [1, 2]}},
    "initial-pressure-scale-bool": {"initial_pressure": {"scale": True}},
    "initial-pressure-unknown-key": {"initial_pressure": {"scael": 2.0}},
    # 16 values fit the 4x4 fine cells, not the 25 fine nodes
    "initial-pressure-table-wrong-length": {
        "initial_pressure": {"kind": "table", "values": [1.0] * 16}},
    # a JSON boolean is neither an integer nor a number, and a flag is a
    # boolean
    "mesh-ncx-bool": {"mesh": {"ncx": True}},
    "offline-modes-bool": {"offline": {"modes": True}},
    "time-tau-bool": {"time": {"tau": True}},
    "schedule-every-bool": {"online": {"schedule": {"every": True}}},
    "online-theta-bool": {"online": {"theta": True}},
    "online-iterations-bool": {"online": {"iterations": True}},
    "reference-string": {"reference": "no"},
    "snapshots-int": {"snapshots": 1},
    "synth-channels-bool": {"material": {"synth": {"n_channels": True}}},
    "synth-contrast-bool": {"material": {"synth": {"contrast": True}}},
    "scalars-poisson-string": {"scalars": {"poisson": "0.2"}},
    "scalars-alpha-bool": {"scalars": {"alpha": True}},
    # a kind that is no string is an unknown kind, not a traceback
    "source-kind-list": {"source": {"kind": ["table"]}},
    "initial-pressure-kind-object": {"initial_pressure": {"kind": {}}},
    # nothing read the top-level seed; manifests written with it are refused
    "top-level-seed": {"seed": 0},
    # JSON's NaN and Infinity are numbers to Python, not to the model: they
    # would end in a traceback or a numerical failure
    "synth-background-nan": {"material": {"synth": {"background": math.nan}}},
    "synth-contrast-infinity": {"material": {"synth": {"contrast": math.inf}}},
    "source-value-nan": {"source": {"value": math.nan}},
    "source-table-infinity": {"source": {"kind": "table",
                                         "values": [-math.inf] * 16}},
    "initial-pressure-scale-infinity": {
        "initial_pressure": {"scale": math.inf}},
    "time-tau-nan": {"time": {"tau": math.nan}},
    "online-tol-nan": {"online": {"tol": math.nan}},
    "online-eps-infinity": {"online": {"tol": 1e-3, "eps": math.inf}},
    # a negative tol is never met and a negative eps never stops the loop
    "online-tol-negative": {"online": {"tol": -1.0}},
    "online-eps-negative": {"online": {"tol": 1e-3, "eps": -5.0}},
}


@pytest.mark.parametrize("name", sorted(BAD_INPUTS))
def test_bad_inputs_are_configuration_errors(name, tmp_path, capsys,
                                             monkeypatch):
    patch = BAD_INPUTS[name]
    with pytest.raises(ConfigError):
        resolve_config(dict(TINY, **patch))

    def no_experiment(*args, **kwargs):
        raise AssertionError("operators assembled for a bad configuration")

    monkeypatch.setattr(cli, "Experiment", no_experiment)
    command = "compare" if "variants" in patch else "run"
    rc = main([command, "--config", _write(tmp_path, dict(TINY, **patch)),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("configuration error: ")


def _load_by_path(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_resolve_config_accepts_benchmark_inputs():
    # a stricter rule must not reject the acceptance or benchmark configs
    resolve_config(FROZEN)
    workloads = _load_by_path("perfbench_workloads",
                              os.path.join(ROOT, "perfbench", "workloads.py"))
    for name in workloads.WORKLOADS:
        resolve_config(workloads.make_config(name, 1))


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]")
    with pytest.raises(ConfigError):
        load_config(str(bad))


def test_schedule_steps():
    assert OnlineConfig(schedule="none").steps(10) == set()
    assert OnlineConfig(schedule="final-step").steps(10) == {10}
    assert OnlineConfig(schedule={"every": 2}).steps(5) == {2, 4}
    assert OnlineConfig(schedule={"every": 1}).steps(3) == {1, 2, 3}


@pytest.mark.parametrize("schedule", [
    "sometimes", {"every": 0}, {"every": 2.0}, {"every": True},
    {"every": 2, "x": 1}, ["final-step"]])
def test_online_config_rejects_bad_schedules(schedule):
    with pytest.raises((TypeError, ValueError)):
        OnlineConfig(schedule=schedule)


def test_make_source_kinds():
    from cemporo.grid import build_grids
    grid = build_grids(2, 2, 2)
    x = np.array([0.25, 0.5])
    y = np.array([0.5, 0.5])
    cfg = resolve_config({"source": {"kind": "constant", "value": 2.5}})
    np.testing.assert_array_equal(make_source(cfg)(0.3, x, y), 2.5)
    cfg = resolve_config({"source": {"kind": "separable-sine"}})
    got = make_source(cfg)(0.0, x, y)
    want = 2 * math.pi ** 2 * np.sin(math.pi * x) * np.sin(math.pi * y)
    np.testing.assert_allclose(got, want, rtol=1e-12)
    cfg = resolve_config({"source": {"kind": "time-scaled-sine"}})
    np.testing.assert_allclose(make_source(cfg)(0.5, x, y), 0.5 * want,
                               rtol=1e-12)
    tiny_mesh = {"ncx": 2, "ncy": 2, "refinement": 2}
    cfg = resolve_config({"mesh": tiny_mesh, "source": {
        "kind": "table", "values": list(range(grid.n_fine_cells))}})
    np.testing.assert_array_equal(make_source(cfg),
                                  np.arange(grid.n_fine_cells))
    with pytest.raises(ConfigError):
        resolve_config({"mesh": tiny_mesh,
                        "source": {"kind": "table", "values": [1.0]}})


def test_make_initial_pressure_kinds():
    from cemporo.grid import build_grids
    grid = build_grids(2, 2, 2)
    cfg = resolve_config({"initial_pressure": {"kind": "bump", "scale": 16.0}})
    assert make_initial_pressure(cfg)(0.5, 0.5) == pytest.approx(1.0)
    cfg = resolve_config({"initial_pressure": {"kind": "zero"}})
    np.testing.assert_array_equal(
        make_initial_pressure(cfg)(np.array([0.3]), np.array([0.7])),
        0.0)
    tiny_mesh = {"ncx": 2, "ncy": 2, "refinement": 2}
    cfg = resolve_config({"mesh": tiny_mesh, "initial_pressure": {
        "kind": "table", "values": [0.5] * grid.n_fine_nodes}})
    np.testing.assert_array_equal(make_initial_pressure(cfg), 0.5)
    with pytest.raises(ConfigError):
        resolve_config({"mesh": tiny_mesh, "initial_pressure": {
            "kind": "table", "values": [1.0, 2.0]}})


def test_make_initial_pressure_skew_bump():
    # x^2 (1 - x) y^2 (1 - y) peaks at (2/3, 2/3), off the centre
    cfg = resolve_config({"initial_pressure": {"kind": "skew-bump",
                                               "scale": 729.0}})
    p0 = make_initial_pressure(cfg)
    assert p0(2.0 / 3.0, 2.0 / 3.0) == pytest.approx(16.0)
    assert p0(0.5, 0.5) == pytest.approx(729.0 / 64.0)
    assert p0(1.0, 0.5) == 0.0


# ---- exit codes --------------------------------------------------------------


def test_exit_code_bad_config(tmp_path, capsys):
    rc = main(["run", "--config", str(tmp_path / "nope.json"),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "configuration error" in capsys.readouterr().err


def test_exit_code_bad_threads(tmp_path):
    cfg_path = _write(tmp_path, TINY)
    rc = main(["--threads", "0", "run", "--config", cfg_path,
               "--out", str(tmp_path / "out")])
    assert rc == 1


def test_exit_code_grid_too_small_for_field(tmp_path, capsys):
    cfg = {"mesh": {"ncx": 2, "ncy": 2, "refinement": 1}}
    resolve_config(cfg)  # the mesh itself is valid
    for command in ("run", "make-field"):
        rc = main([command, "--config", _write(tmp_path, cfg),
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "configuration error" in err and "2 x 2" in err


@pytest.mark.parametrize("patch", [
    {"material": {"file": "nope"}}, {"scalars": {"alpha": "0.9"}},
    {"scalars": {"poisson": "0.2"}},
    {"scalars": {"alpha": True, "viscosity": True}},
    {"scalars": {"alpha": math.nan}}, {"scalars": {"viscosity": math.inf}}])
def test_exit_code_bad_material(tmp_path, capsys, patch):
    # a missing field file or a non-numeric or boolean scalar fails when the
    # field is built, as a configuration error instead of a traceback
    cfg_path = _write(tmp_path, dict(TINY, **patch))
    for command in ("run", "make-field"):
        rc = main([command, "--config", cfg_path,
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("configuration error: ")


def test_exit_code_numerical_failure(tmp_path, capsys):
    cfg = dict(TINY, snapshots=False, reference=False)
    cfg["online"] = {"layers": 1, "iterations": 0, "schedule": "none"}
    # finite data whose coarse solve overflows; a NaN is refused as a
    # configuration error before any solve
    cfg["initial_pressure"] = {"kind": "bump", "scale": 1e308}
    rc = main(["run", "--config", _write(tmp_path, cfg),
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "numerical failure" in capsys.readouterr().err


def test_exit_code_indefinite_patch_form(tmp_path, capsys, monkeypatch):
    # a patch form that is not positive definite stops the offline basis
    # with a numerical failure, not a traceback
    monkeypatch.setattr(OperatorSet, "stiffness",
                        lambda self, family: -getattr(self, "stiff_" + family))
    cfg = dict(TINY, snapshots=False, reference=False)
    rc = main(["run", "--config", _write(tmp_path, cfg),
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "positive definite" in capsys.readouterr().err


# ---- commands ----------------------------------------------------------------


def test_make_field_artifacts_and_seed_override(tmp_path, capsys):
    cfg_path = _write(tmp_path, TINY)
    stem_a = str(tmp_path / "fields" / "a")
    stem_b = str(tmp_path / "fields" / "b")
    assert main(["make-field", "--config", cfg_path, "--out", stem_a]) == 0
    assert main(["make-field", "--config", cfg_path, "--out", stem_b,
                 "--seed", "11"]) == 0
    for stem in (stem_a, stem_b):
        for suffix in ("_E.csv", "_kappa.csv", ".json"):
            assert os.path.exists(stem + suffix)
    a = np.loadtxt(stem_a + "_E.csv", delimiter=",")
    b = np.loadtxt(stem_b + "_E.csv", delimiter=",")
    assert a.shape == (4, 4)
    assert not np.array_equal(a, b)
    # same seed reproduces the stored field exactly
    stem_c = str(tmp_path / "fields" / "c")
    assert main(["make-field", "--config", cfg_path, "--out", stem_c]) == 0
    np.testing.assert_array_equal(a, np.loadtxt(stem_c + "_E.csv",
                                                delimiter=","))


def test_seed_run_manifest_replays_the_same_history(tmp_path, capsys):
    # --seed draws the field, so the manifest must record it
    cfg = dict(TINY, mesh={"ncx": 3, "ncy": 3, "refinement": 4},
               snapshots=False)
    out1, out2 = tmp_path / "seeded", tmp_path / "replay"
    assert main(["run", "--config", _write(tmp_path, cfg), "--out", str(out1),
                 "--seed", "6"]) == 0
    with open(out1 / "manifest.json") as fh:
        assert json.load(fh)["config"]["material"]["synth"]["seed"] == 6
    assert main(["run", "--config", str(out1 / "manifest.json"),
                 "--out", str(out2)]) == 0
    assert ((out1 / "history.csv").read_bytes()
            == (out2 / "history.csv").read_bytes())


def test_run_artifacts_and_manifest_roundtrip(tmp_path, capsys):
    cfg_path = _write(tmp_path, TINY)
    out1 = tmp_path / "run1"
    assert main(["run", "--config", cfg_path, "--out", str(out1)]) == 0
    stdout = capsys.readouterr().out
    assert "level" in stdout and "%" in stdout

    history = EnrichmentHistory.from_csv(str(out1 / "history.csv"))
    assert len(history.rows) == 2  # final-step schedule, one iteration
    assert history.rows[0]["level"] == 2 and history.rows[0]["iteration"] == 0
    assert np.isfinite(history.rows[0]["err_u"])

    errors = (out1 / "errors.csv").read_text().strip().split("\n")
    assert errors[0] == "level,err_u,err_p"
    assert len(errors) == 4  # levels 0..2

    with open(out1 / "manifest.json") as fh:
        manifest = json.load(fh)
    assert manifest["config"]["mesh"]["ncx"] == 2
    derived = manifest["derived"]
    assert derived["n_steps"] == 2
    assert derived["final_n_u"] >= derived["offline_n_u"]

    for name in ("final_u1", "final_u2", "final_p",
                 "final_fine_u1", "final_fine_u2", "final_fine_p"):
        assert os.path.exists(out1 / (name + ".csv"))

    # the manifest feeds back as the configuration of an identical run
    out2 = tmp_path / "run2"
    assert main(["run", "--config", str(out1 / "manifest.json"),
                 "--out", str(out2)]) == 0
    assert (out2 / "history.csv").read_bytes() == \
        (out1 / "history.csv").read_bytes()
    assert (out2 / "errors.csv").read_bytes() == \
        (out1 / "errors.csv").read_bytes()


def test_run_without_reference(tmp_path, capsys):
    # no fine trajectory: errors.csv keeps its header only, the history's
    # errors are nan, and report prints them as "-"
    cfg = dict(TINY, reference=False, snapshots=False)
    out = tmp_path / "run"
    assert main(["run", "--config", _write(tmp_path, cfg),
                 "--out", str(out)]) == 0
    assert (out / "errors.csv").read_text() == "level,err_u,err_p\n"
    with open(out / "history.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert all(r["err_u"] == r["err_p"] == "nan" for r in rows)
    capsys.readouterr()
    assert main(["report", "--history", str(out / "history.csv")]) == 0
    lines = capsys.readouterr().out.strip().split("\n")[1:]
    assert len(lines) == 2
    assert all(line.split()[4:6] == ["-", "-"] for line in lines)


def test_compare_command(tmp_path, capsys):
    cfg = dict(TINY, snapshots=False)
    cfg["variants"] = [{"name": "eager", "theta": 0.1, "gamma": 0.1},
                       {"name": "picky", "theta": 0.9, "gamma": 0.9}]
    out = tmp_path / "cmp"
    assert main(["compare", "--config", _write(tmp_path, cfg),
                 "--out", str(out)]) == 0
    lines = (out / "compare.csv").read_text().strip().split("\n")
    assert lines[0].startswith("variant,level,iteration")
    assert len(lines) == 5  # two variants, two rows each
    assert sum(1 for ln in lines if ln.startswith("eager,")) == 2
    assert sum(1 for ln in lines if ln.startswith("picky,")) == 2
    # report reads what compare writes
    capsys.readouterr()
    assert main(["report", "--history", str(out / "compare.csv")]) == 0
    text = capsys.readouterr().out
    assert "variant eager" in text and "variant picky" in text
    assert len(text.strip().split("\n")) == 7  # header, 2 names, 4 rows


def test_compare_rejects_missing_variants(tmp_path):
    rc = main(["compare", "--config", _write(tmp_path, TINY),
               "--out", str(tmp_path / "cmp")])
    assert rc == 1


def test_report_command(tmp_path, capsys):
    rows = [{"level": 2, "iteration": 0, "n_u": 8, "n_p": 4,
             "err_u": 0.25, "err_p": 0.125, "eta_u": 1.0, "eta_p": 1.0,
             "eta": 2.0, "added_u": 0, "added_p": 0}]
    path = str(tmp_path / "h.csv")
    EnrichmentHistory(rows).to_csv(path)
    assert main(["report", "--history", path]) == 0
    out = capsys.readouterr().out
    assert "25.00%" in out and "12.50%" in out
    assert main(["report", "--history", str(tmp_path / "nope.csv")]) == 1
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    assert main(["report", "--history", str(empty)]) == 1
    assert "configuration error: cannot read history: empty history" \
        in capsys.readouterr().err
    short = tmp_path / "short.csv"
    short.write_text(open(path).read() + "10,1,431\n")
    assert main(["report", "--history", str(short)]) == 1
    assert "configuration error: cannot read history" \
        in capsys.readouterr().err


def test_cli_runs_artifacts(cli_runs):
    run1 = cli_runs.by_threads[1]
    for name in ("history.csv", "errors.csv", "manifest.json"):
        assert os.path.exists(os.path.join(run1.dir, name))
    history = EnrichmentHistory.from_csv(os.path.join(run1.dir,
                                                      "history.csv"))
    assert len(history.rows) == 4  # iterations 0..3 at the final level
    levels = {r["level"] for r in history.rows}
    assert levels == {10}


def test_cli_run_manifest_is_strict_json(cli_runs):
    # FROZEN keeps two modes a cell, inside the u kernel, so its spectral
    # gap is degenerate and the decay bound infinite: JSON has no Infinity
    def no_constants(name):
        raise ValueError("non-standard JSON constant %s" % name)

    path = os.path.join(cli_runs.by_threads[1].dir, "manifest.json")
    with open(path) as fh:
        derived = json.load(fh, parse_constant=no_constants)["derived"]
    assert derived["degenerate_spectral_gap"] is True
    assert derived["decay_factor"] is None
