"""One round of `cemporo run`, split into timed stages.

The calls are the public ones `cli.cmd_run` makes, in the same order. Two
things differ: the fine reference, which `Experiment.__init__` computes last,
is timed as a stage of its own, and the history table that `cemporo run`
prints goes to `history.txt`.
"""

import contextlib
import json
import os
import statistics
import time
from types import SimpleNamespace

import numpy as np

from cemporo import cli, online, report, timestepping

STAGES = ("setup", "reference", "multiscale", "write")

# Every time the benchmark reports is CPU time of the round's process. With
# one BLAS thread the program runs on one core, so on a quiet machine this is
# its wall time. Under a hypervisor the wall clock also counts the time the
# host runs other guests ("steal"), which moved single stages by up to 20 %
# here while their CPU time stayed within 1 %.
CLOCK = time.process_time


class IterateLog:
    """Records the in- and outgoing state of every `Enricher.enrich_once`.

    The wrapper only keeps references; the checks use them after the round.
    """

    def __init__(self):
        self.calls = []
        self._orig = None

    def install(self):
        orig = online.Enricher.enrich_once
        log = self.calls

        def enrich_once(enricher, solver, state, prev, load, level_k):
            out = orig(enricher, solver, state, prev, load, level_k)
            log.append((state, out[0]))
            return out

        self._orig = orig
        online.Enricher.enrich_once = enrich_once

    def uninstall(self):
        online.Enricher.enrich_once = self._orig


def run_round(raw_cfg, out_dir, span=None, between=None):
    """Run the workload once; returns stage times and every output.

    `span(name)` returns a context manager placed around each stage, so a
    tracer can nest the program's calls under it. `between(exp)`, if given,
    runs after the reference stage and before the multiscale one.
    """
    span = span or (lambda name: contextlib.nullcontext())
    os.makedirs(out_dir, exist_ok=True)
    times = {}
    clock = CLOCK

    t = clock()
    with span("stage.setup"):
        cfg = cli.resolve_config(raw_cfg)
        exp = cli.Experiment(dict(cfg, reference=False))
        exp.cfg = cfg  # the reference follows as its own stage
    times["setup"] = clock() - t

    t = clock()
    with span("stage.reference"):
        exp.reference = timestepping.run(exp.ops, exp.time_grid,
                                         exp.source, exp.p0)
    times["reference"] = clock() - t
    if between is not None:
        between(exp)

    t = clock()
    with span("stage.multiscale"):
        states, rows, space = exp.run_multiscale()
    times["multiscale"] = clock() - t

    t = clock()
    with span("stage.write"):
        history = report.EnrichmentHistory(rows)
        history.to_csv(os.path.join(out_dir, "history.csv"))
        err_rows = exp.per_step_errors(states)
        with open(os.path.join(out_dir, "errors.csv"), "w",
                  newline="") as fh:
            fh.write("level,err_u,err_p\n")
            for r in err_rows:
                fh.write("%d,%.6g,%.6g\n"
                         % (r["level"], r["err_u"], r["err_p"]))
        manifest = {"config": cfg, "derived": cli._derived_info(exp, space)}
        with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
            json.dump(manifest, fh, indent=1)
            fh.write("\n")
        with open(os.path.join(out_dir, "history.txt"), "w") as fh:
            fh.write(history.to_text())
    times["write"] = clock() - t

    times["total"] = sum(times[s] for s in STAGES)
    return SimpleNamespace(times=times, exp=exp, states=states, rows=rows,
                           space=space, err_rows=err_rows)


def _same_state(a, b):
    return np.array_equal(a.u, b.u) and np.array_equal(a.p, b.p)


class StageSamples:
    """More timings of the short stages, taken on the round's own objects.

    `repeats` maps a stage to its total number of samples, the pass
    included. Half of the extra reference samples are taken between the
    reference and multiscale stages (`early`), the rest with the setup and
    multiscale samples after the round (`late`); samples of different stages
    are interleaved. Samples spread over the round this way follow this
    machine's speed drift less than samples taken back to back. Each
    repeated trajectory must reproduce the pass bit for bit.
    """

    def __init__(self, repeats):
        self.extra = {s: n - 1 for s, n in repeats.items()}
        self.samples = {s: [] for s in repeats}
        self.mismatches = 0

    def early(self, exp):
        n = self.extra.get("reference", 0) // 2
        self._take(exp, {"reference": n})
        self.extra["reference"] = self.extra.get("reference", 0) - n

    def late(self, result):
        """Take the remaining samples; stage times become medians over all
        samples, while `total` stays the time of the one pass."""
        self._take(result.exp, self.extra, result)
        for stage, extra in self.samples.items():
            result.times[stage] = statistics.median(
                [result.times[stage]] + extra)

    def _take(self, exp, counts, result=None):
        clock = CLOCK
        for k in range(max(counts.values(), default=0)):
            if k < counts.get("setup", 0):
                t = clock()
                cli.Experiment(dict(exp.cfg, reference=False))
                self.samples["setup"].append(clock() - t)
            if k < counts.get("reference", 0):
                t = clock()
                states = timestepping.run(exp.ops, exp.time_grid,
                                          exp.source, exp.p0)
                self.samples["reference"].append(clock() - t)
                self.mismatches += not _same_state(states[-1],
                                                   exp.reference[-1])
            if k < counts.get("multiscale", 0):
                t = clock()
                states, rows, _ = exp.run_multiscale()
                self.samples["multiscale"].append(clock() - t)
                self.mismatches += not (
                    _same_state(states[-1], result.states[-1])
                    and rows == result.rows)


def observed_round(raw_cfg, out_dir, tracer=None, between=None):
    """`run_round` with every enrichment iterate logged and, when a tracer
    is given, spans around every call into the program.

    Returns (result, [(state before, state after)] per enrich_once)."""
    log = IterateLog()
    if tracer is not None:
        tracer.install()
    log.install()
    try:
        result = run_round(raw_cfg, out_dir,
                           tracer.span if tracer is not None else None,
                           between)
    finally:
        log.uninstall()
        if tracer is not None:
            tracer.uninstall()
    return result, log.calls
