"""Spans around the calls into each cemporo module, recorded from outside.

`Tracer.install()` replaces every public function and every public method
(and `__init__`) of the layer modules with a wrapper that records a span:
name `<module>.<qualname>`, start, end and the enclosing span. Names bound by
`from ... import` in other modules are replaced too. A few wrappers also run
a probe after the call (factor fill, coarse condition number, accepted
columns); probe time is taken out of every enclosing span, so spans measure
the program alone. `uninstall()` restores the originals.
"""

import importlib
import inspect
import sys
from collections import defaultdict

import numpy as np

from pipeline import CLOCK

LAYERS = ("grid", "material", "assembly", "spectral", "cembasis",
          "timestepping", "online", "report", "cli")


class Tracer:
    def __init__(self):
        self.names = []
        self.start = []
        self.end = []
        self.parent = []
        self.paused = []
        self.stack = []
        self.counters = defaultdict(float)
        self.probe_s = 0.0
        self.enrichers = []
        self._saved = []
        self._seen_lu = set()

    # ---- spans -----------------------------------------------------------

    def open(self, name):
        idx = len(self.names)
        self.names.append(name)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.paused.append(0.0)
        self.end.append(None)
        self.stack.append(idx)
        self.start.append(CLOCK())
        return idx

    def close(self, idx):
        self.end[idx] = CLOCK()
        self.stack.pop()

    def span(self, name):
        return _Span(self, name)

    def _probe(self, probe, obj, args, out):
        t = CLOCK()
        probe(self, obj, args, out)
        d = CLOCK() - t
        self.probe_s += d
        for idx in self.stack:
            self.paused[idx] += d

    def wrap(self, name, fn, probe=None):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if probe is not None:
                tracer._probe(probe, args[0] if args else None, args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    # ---- installation ----------------------------------------------------

    def install(self):
        mods = [importlib.import_module("cemporo." + m) for m in LAYERS]
        funcs = {}
        for mod in mods:
            short = mod.__name__.split(".")[-1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__",
                                                   None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    funcs[obj] = self.wrap(short + "." + attr, obj,
                                           PROBES.get(short + "." + attr))
                elif inspect.isclass(obj):
                    self._wrap_class(short, obj)
        for mod in [m for n, m in list(sys.modules.items())
                    if n == "cemporo" or n.startswith("cemporo.")]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in funcs:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, funcs[obj])

    def _wrap_class(self, short, cls):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            name = "%s.%s.%s" % (short, cls.__name__, attr)
            probe = PROBES.get(name)
            if inspect.isfunction(raw):
                new = self.wrap(name, raw, probe)
            elif isinstance(raw, staticmethod):
                new = staticmethod(self.wrap(name, raw.__func__, probe))
            elif isinstance(raw, classmethod):
                new = classmethod(self.wrap(name, raw.__func__, probe))
            else:
                continue
            self._saved.append((cls, attr, raw))
            setattr(cls, attr, new)

    def uninstall(self):
        for owner, attr, obj in reversed(self._saved):
            setattr(owner, attr, obj)
        self._saved = []

    # ---- aggregation -----------------------------------------------------

    def span_times(self):
        """Duration and self time of every span, probe time excluded."""
        dur = (np.asarray(self.end, dtype=float) - np.asarray(self.start)
               - np.asarray(self.paused))
        child = np.zeros(dur.size)
        for idx, par in enumerate(self.parent):
            if par >= 0:
                child[par] += dur[idx]
        return dur, dur - child

    def summary(self):
        """Per span name: count, total and self seconds."""
        dur, own = self.span_times()
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for idx, name in enumerate(self.names):
            rec = out[name]
            rec[0] += 1
            rec[1] += dur[idx]
            rec[2] += own[idx]
        return out

    def stage_table(self):
        """CPU time of each top-level (stage) span, the part of it outside
        every call into the program, and the self time of each layer
        module's spans under it."""
        dur, own = self.span_times()
        stage_of = []
        table = {}
        for idx, name in enumerate(self.names):
            par = self.parent[idx]
            stage = name if par < 0 else stage_of[par]
            stage_of.append(stage)
            if par < 0:
                table[stage] = {"cpu_s": dur[idx], "uncovered_s": own[idx],
                                "layers": {}}
                continue
            layers = table[stage]["layers"]
            module = name.split(".")[0]
            layers[module] = layers.get(module, 0.0) + own[idx]
        return table


class _Span:
    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.idx = self.tracer.open(self.name)
        return self

    def __exit__(self, *exc):
        self.tracer.close(self.idx)
        return False


# ---- probes: counters read after a call, outside every span --------------

# Probes read attributes the program keeps today (`PatchSolver.lu`,
# `FineSolver._lu`, `CoarseSolver.block`, `Enricher._riesz`); where one is
# gone the counter stays 0 rather than the traced run failing.

def _lu_nnz(lu):
    return int(lu.L.nnz + lu.U.nnz) if hasattr(lu, "L") else 0


def _probe_patch_solver(tracer, solver, args, out):
    tracer.counters["factor_nnz"] += _lu_nnz(getattr(solver, "lu", None))


def _probe_fine_step(tracer, solver, args, out):
    lu = getattr(solver, "_lu", None)
    if id(lu) not in tracer._seen_lu:
        tracer._seen_lu.add(id(lu))
        tracer.counters["fine_factor_nnz"] = max(
            tracer.counters["fine_factor_nnz"], _lu_nnz(lu))


def _probe_set_space(tracer, solver, args, out):
    block = getattr(solver, "block", None)
    if block is not None:
        tracer.counters["coarse_cond_max"] = max(
            tracer.counters["coarse_cond_max"], float(np.linalg.cond(block)))


def _probe_enricher(tracer, enricher, args, out):
    tracer.enrichers.append(enricher)


def _probe_enrich_once(tracer, enricher, args, out):
    tracer.counters["columns_accepted"] += out[1] + out[2]


PROBES = {
    "cembasis.PatchSolver.__init__": _probe_patch_solver,
    "timestepping.FineSolver.step": _probe_fine_step,
    "timestepping.CoarseSolver.set_space": _probe_set_space,
    "online.Enricher.__init__": _probe_enricher,
    "online.Enricher.enrich_once": _probe_enrich_once,
}


def layer_metrics(tracer, result):
    """The per-layer metrics of one traced round."""
    s = tracer.summary()  # a name with no span reads as zeros

    def count(name):
        return s[name][0]

    def total(name):
        return s[name][1]

    def self_s(name):
        return s[name][2]

    c = tracer.counters
    cells = count("spectral.solve_local_spectral")
    built = count("online.Enricher.build_online_column")
    riesz = sum(len(getattr(e, "_riesz", ()))
                + len(getattr(e, "_global_riesz", ()))
                for e in tracer.enrichers)
    m = {
        "grid.pou_s": (total("grid.partition_of_unity"), "s"),
        "material.field_s": (total("material.synth_channels"), "s"),
        "assembly.operators_s": (total("assembly.assemble_operators"), "s"),
        "assembly.restrict_calls": (count("assembly.restrict"), "count"),
        "assembly.restrict_s": (total("assembly.restrict"), "s"),
        "assembly.load_s": (total("assembly.assemble_load"), "s"),
        "spectral.aux_s": (total("spectral.build_aux_basis"), "s"),
        "spectral.cell_solves": (cells, "count"),
        "spectral.cell_solve_ms": (
            1e3 * total("spectral.solve_local_spectral") / max(cells, 1),
            "ms"),
        "cembasis.offline_s": (total("cembasis.build_offline_basis"), "s"),
        "cembasis.factorizations": (count("cembasis.PatchSolver.__init__"),
                                    "count"),
        "cembasis.factor_s": (self_s("cembasis.PatchSolver.__init__"), "s"),
        "cembasis.factor_nnz": (int(c["factor_nnz"]), "count"),
        "cembasis.patch_solves": (count("cembasis.PatchSolver.solve"),
                                  "count"),
        "cembasis.solve_s": (total("cembasis.PatchSolver.solve"), "s"),
        "timestepping.fine_steps": (count("timestepping.FineSolver.step"),
                                    "count"),
        "timestepping.fine_step_s": (total("timestepping.FineSolver.step"),
                                     "s"),
        "timestepping.fine_factor_nnz": (int(c["fine_factor_nnz"]), "count"),
        "timestepping.coarse_steps": (
            count("timestepping.CoarseSolver.step"), "count"),
        "timestepping.coarse_step_s": (
            total("timestepping.CoarseSolver.step"), "s"),
        "timestepping.set_space_calls": (
            count("timestepping.CoarseSolver.set_space"), "count"),
        "timestepping.set_space_s": (
            total("timestepping.CoarseSolver.set_space"), "s"),
        "timestepping.coarse_dofs": (result.space.n_u + result.space.n_p,
                                     "count"),
        "timestepping.coarse_cond_max": (c["coarse_cond_max"], "1"),
        "online.loop_s": (total("online.Enricher.adaptive_loop"), "s"),
        "online.iterations": (count("online.Enricher.enrich_once"), "count"),
        "online.indicator_s": (total("online.Enricher.compute_indicators"),
                               "s"),
        "online.riesz_factorizations": (riesz, "count"),
        "online.columns_built": (built, "count"),
        "online.column_s": (total("online.Enricher.build_online_column"),
                            "s"),
        "online.columns_accepted": (int(c["columns_accepted"]), "count"),
        "online.accept_ratio": (c["columns_accepted"] / built if built
                                else 0.0, "1"),
        "online.global_norms_s": (total("online.Enricher.global_norms"), "s"),
        "report.errors_s": (total("report.energy_errors"), "s"),
        "report.write_s": (total("stage.write"), "s"),
        "trace.spans": (len(tracer.names), "count"),
        "trace.probe_s": (tracer.probe_s, "s"),
    }
    return m
