"""Command line front end for the multiscale poroelasticity experiments.

Subcommands: run (one experiment), make-field (synthesize and store a test
field), compare (variant sweep sharing one reference), report (pretty-print
a history file). Configuration is a JSON document; a run emits a manifest
that can be fed back as the configuration of an identical run.

Exit codes: 0 success, 1 configuration error, 2 numerical failure.
"""

import argparse
import copy
import json
import math
import numbers
import os
import sys
from dataclasses import fields

import numpy as np

from .grid import build_grids
from .material import load_field, save_field, synth_channels
from .assembly import assemble_operators
from .spectral import build_aux_basis, spectral_diagnostics
from .cembasis import build_offline_basis
from .timestepping import CoarseSolver, TimeGrid, NumericalFailure, run
from .online import Enricher, OnlineConfig
from .report import (EnrichmentHistory, energy_errors,
                     export_field_snapshots)


class ConfigError(ValueError):
    pass


# ---- configuration -------------------------------------------------------

# the configuration's schema: every key with its default value, whose type
# a given value must have (see `_merge`)
_DEFAULTS = {
    "mesh": {"ncx": 10, "ncy": 10, "refinement": 10},
    "material": {"synth": {"background": 1.0, "contrast": 1e4,
                           "n_channels": 4, "n_inclusions": 8, "seed": 0}},
    "scalars": {"poisson": 0.2, "alpha": 0.9, "biot_modulus": 1.0,
                "viscosity": 1.0},
    "time": {"tau": 0.05, "T": 1.0},
    "offline": {"modes": 2, "layers": 2},
    "online": {f.name: f.default for f in fields(OnlineConfig)},
    "source": {"kind": "constant", "value": 1.0},
    "initial_pressure": {"kind": "bump", "scale": 100.0},
    "reference": True,
    "snapshots": False,
}
# keys without a default, each checked where it is read
_OPTIONAL = {"variants", "material.file", "source.values",
             "initial_pressure.values"}


def _is_real(v):
    """A finite number; JSON's NaN and Infinity are not accepted."""
    return (isinstance(v, numbers.Real) and not isinstance(v, bool)
            and math.isfinite(v))


def _is_int(v):
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


# the rule on a value, by the type of its default; a key whose default is a
# string or None is checked by its owner
_VALUE_RULES = {bool: (lambda v: isinstance(v, bool), "true or false"),
                int: (_is_int, "an integer"),
                float: (_is_real, "a finite number")}


def _merge(defaults, given, where=""):
    """`defaults` with the values of `given` in place, checked on the way:
    `given` must be an object with no key outside `defaults` and
    `_OPTIONAL`, an object where the default is one, and a value of its
    default's kind (`_VALUE_RULES`) elsewhere."""
    if not isinstance(given, dict):
        raise ConfigError("%s must be an object" % (where or "configuration"))
    out = copy.deepcopy(defaults)
    for key, val in given.items():
        path = where + "." + key if where else key
        if key not in defaults and path not in _OPTIONAL:
            raise ConfigError("unknown configuration key %s" % path)
        default = defaults.get(key)
        if isinstance(default, dict):
            out[key] = _merge(default, val, path)
            continue
        rule = _VALUE_RULES.get(type(default))
        if rule and not rule[0](val):
            raise ConfigError("%s must be %s" % (path, rule[1]))
        out[key] = copy.deepcopy(val)
    return out


def _online_config(section, where="online"):
    """The OnlineConfig of a merged online section; its complaints are
    configuration errors."""
    try:
        return OnlineConfig(**section)
    except (TypeError, ValueError) as err:
        raise ConfigError("%s: %s" % (where, err))


def load_config(path):
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        raise ConfigError("cannot read configuration: %s" % err)
    if isinstance(raw, dict) and "config" in raw and "derived" in raw:
        raw = raw["config"]  # a manifest round-trips as a config
    return resolve_config(raw)


def resolve_config(raw):
    """The configuration `raw` with the defaults filled in; each key is
    checked by `_merge`, and here the rules that relate values."""
    cfg = _merge(_DEFAULTS, raw)
    mesh = cfg["mesh"]
    if min(mesh.values()) < 1:
        raise ConfigError("mesh.ncx, ncy and refinement must be positive")
    try:
        TimeGrid.from_horizon(cfg["time"]["tau"], cfg["time"]["T"])
    except ValueError as err:
        raise ConfigError("time: %s" % err)
    off = cfg["offline"]
    n_p = (mesh["refinement"] + 1) ** 2
    if not 1 <= off["modes"] <= n_p:
        raise ConfigError("offline.modes must lie between 1 and the %d "
                          "pressure unknowns of a coarse cell" % n_p)
    if off["layers"] < 0:
        raise ConfigError("offline.layers must be nonnegative")
    _online_config(cfg["online"])
    variants = cfg.get("variants", [])
    if not isinstance(variants, list):
        raise ConfigError("variants must be a list")
    names = set()
    for k, variant in enumerate(variants):
        if not isinstance(variant, dict) or "name" not in variant:
            raise ConfigError("each variant needs at least a 'name'")
        if not isinstance(variant["name"], str) or variant["name"] in names:
            raise ConfigError("variants[%d]: the name must be a string no "
                              "other variant has" % k)
        names.add(variant["name"])
        overrides = {key: v for key, v in variant.items() if key != "name"}
        _online_config(dict(cfg["online"], **overrides), "variants[%d]" % k)
    nfx = mesh["ncx"] * mesh["refinement"]
    nfy = mesh["ncy"] * mesh["refinement"]
    for where, kinds, size, entity in (
            ("source", _SOURCES, nfx * nfy, "fine cell"),
            ("initial_pressure", _INITIAL_PRESSURES, (nfx + 1) * (nfy + 1),
             "fine node")):
        kind, vals = cfg[where]["kind"], cfg[where].get("values")
        if not isinstance(kind, str) or kind not in kinds:
            raise ConfigError("unknown %s.kind %r" % (where, kind))
        if kinds[kind] is _table and not (isinstance(vals, list)
                                          and len(vals) == size
                                          and all(_is_real(v) for v in vals)):
            raise ConfigError("%s.values must list one number per %s (%d)"
                              % (where, entity, size))
    return cfg


def _table(section):
    return np.asarray(section["values"], dtype=float)


# each kind of data section, and the builder of its function, or of a
# table's values, from the section
_SOURCES = {
    "constant": lambda src: lambda t, x, y:
        np.full_like(np.asarray(x, dtype=float), float(src["value"])),
    "separable-sine": lambda src: lambda t, x, y:
        2.0 * np.pi ** 2 * np.sin(np.pi * x) * np.sin(np.pi * y),
    "time-scaled-sine": lambda src: lambda t, x, y:
        2.0 * np.pi ** 2 * t * np.sin(np.pi * x) * np.sin(np.pi * y),
    "table": _table,
}
_INITIAL_PRESSURES = {
    "bump": lambda ip: lambda x, y:
        float(ip["scale"]) * x * (1 - x) * y * (1 - y),
    "skew-bump": lambda ip: lambda x, y:
        float(ip["scale"]) * x ** 2 * (1 - x) * y ** 2 * (1 - y),
    "zero": lambda ip: lambda x, y: np.zeros_like(np.asarray(x, dtype=float)),
    "table": _table,
}


def make_source(cfg):
    return _SOURCES[cfg["source"]["kind"]](cfg["source"])


def make_initial_pressure(cfg):
    ip = cfg["initial_pressure"]
    return _INITIAL_PRESSURES[ip["kind"]](ip)


def build_field(cfg, grid):
    mat = cfg["material"]
    sc = cfg["scalars"]
    syn = mat["synth"]
    try:
        if "file" in mat:
            return load_field(mat["file"], grid)
        return synth_channels(
            grid, syn["background"], syn["contrast"],
            n_channels=syn["n_channels"], n_inclusions=syn["n_inclusions"],
            seed=syn["seed"],
            poisson=sc["poisson"], alpha=sc["alpha"],
            biot_modulus=sc["biot_modulus"], viscosity=sc["viscosity"])
    except (OSError, TypeError, ValueError) as err:
        raise ConfigError("material: %s" % err)


# ---- experiment driver -----------------------------------------------------

class Experiment:
    """Everything assembled for one configuration."""

    def __init__(self, cfg):
        mesh = cfg["mesh"]
        self.cfg = cfg
        self.grid = build_grids(mesh["ncx"], mesh["ncy"], mesh["refinement"])
        self.field = build_field(cfg, self.grid)
        self.ops = assemble_operators(self.grid, self.field)
        self.time_grid = TimeGrid.from_horizon(cfg["time"]["tau"],
                                               cfg["time"]["T"])
        self.source = make_source(cfg)
        self.p0 = make_initial_pressure(cfg)
        self.aux = build_aux_basis(self.ops, cfg["offline"]["modes"])
        self.diag = spectral_diagnostics(self.aux)
        self.space = build_offline_basis(self.ops, self.aux,
                                         cfg["offline"]["layers"])
        self.reference = None
        if cfg["reference"]:
            self.reference = run(self.ops, self.time_grid, self.source,
                                 self.p0)

    def run_multiscale(self, overrides=None):
        """Multiscale trajectory on a copy of the offline space.

        `overrides` replace entries of the online configuration. Returns
        (states, history rows, final space)."""
        ocfg = _online_config(dict(self.cfg["online"], **(overrides or {})))
        steps = ocfg.steps(self.time_grid.n_steps)
        space = self.space.copy()
        enricher = Enricher(self.ops, self.aux, ocfg)
        rows = []

        def hook(n, solver, state, prev, load):
            if n in steps:
                ref = self.reference[n] if self.reference else None
                return enricher.adaptive_loop(solver, state, prev, load,
                                              reference=ref, history=rows)
            return state

        solver = CoarseSolver(self.ops, space, self.time_grid.tau)
        states = run(self.ops, self.time_grid, self.source, self.p0,
                     hook=hook, solver=solver)
        return states, rows, space

    def per_step_errors(self, states):
        rows = []
        if not self.reference:
            return rows
        for st, ref in zip(states, self.reference):
            eu, ep = energy_errors(self.ops, st, ref)
            rows.append({"level": st.n, "err_u": eu, "err_p": ep})
        return rows


def _derived_info(exp, space):
    """Derived quantities of a run, each non-finite number as None, so that
    the manifest is strict JSON (an infinite decay factor is written null)."""
    info = {
        "n_steps": exp.time_grid.n_steps,
        "coarse_h": exp.grid.H,
        "fine_h": exp.grid.h,
        "fine_nodes": exp.grid.n_fine_nodes,
        "contrast": exp.field.contrast(),
        "offline_n_u": exp.space.n_u,
        "offline_n_p": exp.space.n_p,
        "final_n_u": space.n_u,
        "final_n_p": space.n_p,
        "min_excluded_eigenvalue": exp.diag.min_excluded,
        "decay_factor": exp.diag.decay_factor(exp.cfg["offline"]["layers"]),
        "degenerate_spectral_gap": exp.diag.degenerate,
    }
    return {k: None if isinstance(v, float) and not math.isfinite(v) else v
            for k, v in info.items()}


def cmd_run(cfg, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    exp = Experiment(cfg)
    states, rows, space = exp.run_multiscale()
    history = EnrichmentHistory(rows)
    history.to_csv(os.path.join(out_dir, "history.csv"))
    err_rows = exp.per_step_errors(states)
    with open(os.path.join(out_dir, "errors.csv"), "w", newline="") as fh:
        fh.write("level,err_u,err_p\n")
        for r in err_rows:
            fh.write("%d,%.6g,%.6g\n" % (r["level"], r["err_u"], r["err_p"]))
    manifest = {"config": cfg, "derived": _derived_info(exp, space)}
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=1)
        fh.write("\n")
    if cfg["snapshots"]:
        export_field_snapshots(exp.ops, states[-1],
                               os.path.join(out_dir, "final"))
        if exp.reference:
            export_field_snapshots(exp.ops, exp.reference[-1],
                                   os.path.join(out_dir, "final_fine"))
    sys.stdout.write(history.to_text())
    return 0


def cmd_make_field(cfg, out_stem):
    mesh = cfg["mesh"]
    grid = build_grids(mesh["ncx"], mesh["ncy"], mesh["refinement"])
    field = build_field(cfg, grid)
    os.makedirs(os.path.dirname(out_stem) or ".", exist_ok=True)
    save_field(field, out_stem)
    sys.stdout.write("wrote %s_{E,kappa}.csv (contrast %.3g)\n"
                     % (out_stem, field.contrast()))
    return 0


def cmd_compare(cfg, out_dir):
    if not cfg.get("variants"):
        raise ConfigError("compare needs a nonempty 'variants' list")
    os.makedirs(out_dir, exist_ok=True)
    exp = Experiment(cfg)
    merged = []
    for variant in cfg["variants"]:
        overrides = {k: v for k, v in variant.items() if k != "name"}
        _, rows, _ = exp.run_multiscale(overrides)
        merged += [dict(row, variant=variant["name"]) for row in rows]
    path = os.path.join(out_dir, "compare.csv")
    EnrichmentHistory(merged).to_csv(path)
    sys.stdout.write("wrote %s (%d rows)\n" % (path, len(merged)))
    return 0


def cmd_report(history_path):
    try:
        history = EnrichmentHistory.from_csv(history_path)
    except (OSError, ValueError) as err:
        raise ConfigError("cannot read history: %s" % err)
    sys.stdout.write(history.to_text())
    return 0


def make_parser():
    parser = argparse.ArgumentParser(
        prog="cemporo",
        description="Multiscale solver experiments for heterogeneous "
                    "poroelasticity")
    parser.add_argument("--threads", type=int, default=1,
                        help="worker count accepted for interface "
                             "compatibility; execution order is always "
                             "deterministic")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", required=True)
    p_run.add_argument("--seed", type=int, default=None)

    p_field = sub.add_parser("make-field", help="synthesize a material field")
    p_field.add_argument("--config", required=True)
    p_field.add_argument("--out", required=True,
                         help="output stem for the CSV pair and header")
    p_field.add_argument("--seed", type=int, default=None)

    p_cmp = sub.add_parser("compare", help="run online variants side by side")
    p_cmp.add_argument("--config", required=True)
    p_cmp.add_argument("--out", required=True)
    p_cmp.add_argument("--seed", type=int, default=None)

    p_rep = sub.add_parser("report", help="pretty-print a history file")
    p_rep.add_argument("--history", required=True)
    return parser


def main(argv=None):
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        if args.threads < 1:
            raise ConfigError("--threads must be at least 1")
        if args.command == "report":
            return cmd_report(args.history)
        cfg = load_config(args.config)
        if args.seed is not None:
            # in the config, so that the manifest replays the same field
            cfg["material"]["synth"]["seed"] = args.seed
        if args.command == "run":
            return cmd_run(cfg, args.out)
        if args.command == "make-field":
            return cmd_make_field(cfg, args.out)
        return cmd_compare(cfg, args.out)
    except ConfigError as err:
        sys.stderr.write("configuration error: %s\n" % err)
        return 1
    except (NumericalFailure,) as err:
        sys.stderr.write("numerical failure: %s\n" % err)
        return 2


if __name__ == "__main__":
    sys.exit(main())
