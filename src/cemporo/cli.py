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
import os
import sys

import numpy as np

from .grid import build_grids, partition_of_unity
from .material import MaterialField, load_field, save_field, synth_channels
from .assembly import assemble_operators
from .spectral import build_aux_basis, spectral_diagnostics
from .cembasis import build_offline_basis
from .timestepping import (TimeGrid, NumericalFailure, run, FineSolver,
                           CoarseSolver, fine_initial_state)
from .online import Enricher, OnlineConfig
from .report import (EnrichmentHistory, energy_errors,
                     export_field_snapshots)


class ConfigError(ValueError):
    pass


# ---- configuration -------------------------------------------------------

_DEFAULTS = {
    "mesh": {"ncx": 10, "ncy": 10, "refinement": 10},
    "material": {"synth": {"background": 1.0, "contrast": 1e4,
                           "n_channels": 4, "n_inclusions": 8, "seed": 0}},
    "scalars": {"poisson": 0.2, "alpha": 0.9, "biot_modulus": 1.0,
                "viscosity": 1.0},
    "time": {"tau": 0.05, "T": 1.0},
    "offline": {"modes": 2, "layers": 2},
    "online": {"theta": 0.3, "gamma": 0.3, "layers": 2,
               "strategy": "neighborhood", "iterations": 1,
               "schedule": "final-step", "tol": None, "eps": None},
    "source": {"kind": "constant", "value": 1.0},
    "initial_pressure": {"kind": "bump", "scale": 100.0},
    "reference": True,
    "snapshots": False,
    "seed": 0,
}


def _merge(defaults, given):
    out = copy.deepcopy(defaults)
    for key, val in given.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], val)
        else:
            out[key] = copy.deepcopy(val)
    return out


def load_config(path):
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        raise ConfigError("cannot read configuration: %s" % err)
    if not isinstance(raw, dict):
        raise ConfigError("configuration must be a JSON object")
    if "config" in raw and "derived" in raw:
        raw = raw["config"]  # a manifest round-trips as a config
    return resolve_config(raw)


def resolve_config(raw):
    known = set(_DEFAULTS) | {"variants"}
    unknown = set(raw) - known
    if unknown:
        raise ConfigError("unknown configuration keys: %s"
                          % ", ".join(sorted(unknown)))
    cfg = _merge(_DEFAULTS, raw)
    mesh = cfg["mesh"]
    for key in ("ncx", "ncy", "refinement"):
        if not isinstance(mesh.get(key), int) or mesh[key] < 1:
            raise ConfigError("mesh.%s must be a positive integer" % key)
    if cfg["time"]["tau"] <= 0 or cfg["time"]["T"] <= 0:
        raise ConfigError("time.tau and time.T must be positive")
    off = cfg["offline"]
    if not isinstance(off["modes"], int) or off["modes"] < 1:
        raise ConfigError("offline.modes must be a positive integer")
    if not isinstance(off["layers"], int) or off["layers"] < 0:
        raise ConfigError("offline.layers must be a nonnegative integer")
    onl = cfg["online"]
    if onl["strategy"] not in ("neighborhood", "element"):
        raise ConfigError("online.strategy must be neighborhood or element")
    if not 0.0 <= onl["theta"] <= 1.0 or not 0.0 <= onl["gamma"] <= 1.0:
        raise ConfigError("online.theta and online.gamma must lie in [0, 1]")
    if not isinstance(onl["iterations"], int) or onl["iterations"] < 0:
        raise ConfigError("online.iterations must be a nonnegative integer")
    sched = onl["schedule"]
    if not (sched in ("none", "final-step")
            or (isinstance(sched, dict) and isinstance(sched.get("every"), int)
                and sched["every"] > 0)):
        raise ConfigError("online.schedule must be 'none', 'final-step' or "
                          "{'every': k}")
    if cfg["source"]["kind"] not in ("constant", "separable-sine",
                                     "time-scaled-sine", "table"):
        raise ConfigError("unknown source.kind %r" % cfg["source"]["kind"])
    if cfg["initial_pressure"]["kind"] not in ("bump", "skew-bump", "zero",
                                               "table"):
        raise ConfigError("unknown initial_pressure.kind %r"
                          % cfg["initial_pressure"]["kind"])
    return cfg


def make_source(cfg, grid):
    src = cfg["source"]
    kind = src["kind"]
    if kind == "constant":
        value = float(src.get("value", 1.0))
        return lambda t, x, y: np.full_like(np.asarray(x, dtype=float), value)
    if kind == "separable-sine":
        return lambda t, x, y: \
            2.0 * np.pi ** 2 * np.sin(np.pi * x) * np.sin(np.pi * y)
    if kind == "time-scaled-sine":
        return lambda t, x, y: \
            2.0 * np.pi ** 2 * t * np.sin(np.pi * x) * np.sin(np.pi * y)
    vals = np.asarray(src.get("values", ()), dtype=float).ravel()
    if vals.size != grid.n_fine_cells:
        raise ConfigError("source.values must list one value per fine cell")
    return vals


def make_initial_pressure(cfg, grid):
    ip = cfg["initial_pressure"]
    kind = ip["kind"]
    scale = float(ip.get("scale", 100.0))
    if kind == "bump":
        return lambda x, y: scale * x * (1 - x) * y * (1 - y)
    if kind == "skew-bump":
        return lambda x, y: scale * x ** 2 * (1 - x) * y ** 2 * (1 - y)
    if kind == "zero":
        return lambda x, y: np.zeros_like(np.asarray(x, dtype=float))
    vals = np.asarray(ip.get("values", ()), dtype=float).ravel()
    if vals.size != grid.n_fine_nodes:
        raise ConfigError("initial_pressure.values must list one value per "
                          "fine node")
    return vals


def build_field(cfg, grid, seed_override=None):
    mat = cfg["material"]
    sc = cfg["scalars"]
    if "file" in mat:
        field = load_field(mat["file"], grid)
    else:
        syn = mat["synth"]
        seed = syn["seed"] if seed_override is None else seed_override
        field = synth_channels(
            grid, syn["background"], syn["contrast"],
            n_channels=syn["n_channels"], n_inclusions=syn["n_inclusions"],
            seed=seed, poisson=sc["poisson"], alpha=sc["alpha"],
            biot_modulus=sc["biot_modulus"], viscosity=sc["viscosity"])
    return field


def schedule_steps(sched, n_steps):
    if sched == "none":
        return set()
    if sched == "final-step":
        return {n_steps}
    every = sched["every"]
    return set(range(every, n_steps + 1, every))


# ---- experiment driver -----------------------------------------------------

class Experiment:
    """Everything assembled for one configuration."""

    def __init__(self, cfg, seed_override=None):
        mesh = cfg["mesh"]
        self.cfg = cfg
        self.grid = build_grids(mesh["ncx"], mesh["ncy"], mesh["refinement"])
        self.field = build_field(cfg, self.grid, seed_override)
        self.pou = partition_of_unity(self.grid)
        self.ops = assemble_operators(self.grid, self.field, self.pou)
        self.time_grid = TimeGrid.from_horizon(cfg["time"]["tau"],
                                               cfg["time"]["T"])
        self.source = make_source(cfg, self.grid)
        self.p0 = make_initial_pressure(cfg, self.grid)
        self.aux = build_aux_basis(self.ops, cfg["offline"]["modes"])
        self.diag = spectral_diagnostics(self.aux)
        self.space = build_offline_basis(self.ops, self.aux,
                                         cfg["offline"]["layers"])
        self.reference = None
        if cfg["reference"]:
            self.reference = run(self.ops, self.time_grid, self.source,
                                 self.p0)

    def online_config(self, overrides=None):
        onl = dict(self.cfg["online"])
        if overrides:
            onl.update(overrides)
        return OnlineConfig(theta=onl["theta"], gamma=onl["gamma"],
                            layers=onl["layers"], strategy=onl["strategy"],
                            iterations=onl["iterations"], tol=onl["tol"],
                            eps=onl["eps"])

    def run_multiscale(self, overrides=None):
        """Multiscale trajectory on a copy of the offline space.

        Returns (states, history rows, final space size tuple)."""
        cfg = self.cfg
        onl = dict(cfg["online"])
        if overrides:
            onl.update(overrides)
        ocfg = self.online_config(overrides)
        steps = schedule_steps(onl["schedule"], self.time_grid.n_steps)
        space = self.space.copy()
        enricher = Enricher(self.ops, self.aux, self.pou, ocfg)
        rows = []

        def hook(n, solver, state, prev, load):
            if n in steps:
                ref = self.reference[n] if self.reference else None
                return enricher.adaptive_loop(solver, state, prev, load,
                                              reference=ref, history=rows)
            return state

        states = run(self.ops, self.time_grid, self.source, self.p0,
                     space=space, hook=hook)
        return states, rows, space

    def per_step_errors(self, states):
        rows = []
        if not self.reference:
            return rows
        for st, ref in zip(states, self.reference):
            eu, ep, _ = energy_errors(self.ops, st, ref)
            rows.append({"level": st.n, "err_u": eu, "err_p": ep})
        return rows


def _derived_info(exp, space):
    return {
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


def cmd_run(cfg, out_dir, seed_override=None):
    os.makedirs(out_dir, exist_ok=True)
    exp = Experiment(cfg, seed_override)
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


def cmd_make_field(cfg, out_stem, seed_override=None):
    mesh = cfg["mesh"]
    grid = build_grids(mesh["ncx"], mesh["ncy"], mesh["refinement"])
    field = build_field(cfg, grid, seed_override)
    os.makedirs(os.path.dirname(out_stem) or ".", exist_ok=True)
    save_field(field, out_stem)
    sys.stdout.write("wrote %s_{E,kappa}.csv (contrast %.3g)\n"
                     % (out_stem, field.contrast()))
    return 0


def cmd_compare(cfg, out_dir, seed_override=None):
    variants = cfg.get("variants")
    if not variants or not isinstance(variants, list):
        raise ConfigError("compare needs a nonempty 'variants' list")
    for v in variants:
        if not isinstance(v, dict) or "name" not in v:
            raise ConfigError("each variant needs at least a 'name'")
    os.makedirs(out_dir, exist_ok=True)
    exp = Experiment(cfg, seed_override)
    merged = []
    for variant in variants:
        overrides = {k: v for k, v in variant.items() if k != "name"}
        _, rows, _ = exp.run_multiscale(overrides)
        for row in rows:
            row = dict(row)
            row["variant"] = variant["name"]
            merged.append(row)
    path = os.path.join(out_dir, "compare.csv")
    with open(path, "w", newline="") as fh:
        import csv as _csv
        from .report import HISTORY_COLUMNS, _format_value
        writer = _csv.writer(fh, lineterminator="\n")
        writer.writerow(["variant"] + HISTORY_COLUMNS)
        for row in merged:
            writer.writerow([row["variant"]] +
                            [_format_value(c, row.get(c, np.nan))
                             for c in HISTORY_COLUMNS])
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
        if args.command == "run":
            return cmd_run(cfg, args.out, args.seed)
        if args.command == "make-field":
            return cmd_make_field(cfg, args.out, args.seed)
        return cmd_compare(cfg, args.out, args.seed)
    except ConfigError as err:
        sys.stderr.write("configuration error: %s\n" % err)
        return 1
    except (NumericalFailure,) as err:
        sys.stderr.write("numerical failure: %s\n" % err)
        return 2


if __name__ == "__main__":
    sys.exit(main())
