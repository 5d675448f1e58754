"""One round of a workload in a fresh process, as `cemporo run` would have.

    python3 perfbench/oneround.py --workload W --seed N --trace 0|1 --out DIR
        [--samples 0|1]

Prints one JSON object: stage times, the peak resident memory of this
process up to the end of the round, the final errors, the check report and,
when traced, the per-layer metrics and the stage table. `run.py` starts one
of these per round, so no round inherits another's heap or caches.
"""

import argparse
import json
import os
import resource
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--samples", type=int, choices=(0, 1), default=1,
                        help="time the short stages again (see README.md)")
    args = parser.parse_args(argv)

    sys.path.insert(0, SRC)
    import cemporo
    if not os.path.abspath(cemporo.__file__).startswith(SRC + os.sep):
        raise SystemExit("cemporo imported from %s, not from %s"
                         % (cemporo.__file__, SRC))
    from checks import run_checks
    from pipeline import STAGES, StageSamples, observed_round
    from tracing import Tracer, layer_metrics
    from workloads import REPEATS, make_config

    cfg = make_config(args.workload, args.seed)
    tracer = Tracer() if args.trace else None
    # a traced round is the one pass alone, so its counts are per pass
    sampler = StageSamples(REPEATS[args.workload]
                           if args.samples and not args.trace else {})
    result, calls = observed_round(cfg, args.out, tracer, sampler.early)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    sampler.late(result)
    times = dict(result.times)
    out = {}
    if tracer is not None:
        # stage spans exclude probe time, the plain stage clocks do not
        out["stages"] = tracer.stage_table()
        for stage, row in out["stages"].items():
            times[stage.split(".", 1)[1]] = row["cpu_s"]
        times["total"] = sum(times[s] for s in STAGES)
        out["layer"] = {k: list(v) for k, v in
                        layer_metrics(tracer, result).items()}

    report = run_checks(result, calls, cfg["source"]["value"])
    last = result.err_rows[-1]
    # the operations of the one pass; repeats are timing samples that
    # must reproduce it bit for bit
    out.update({
        "times": times,
        "peak_rss_mb": peak_mb,
        "final_err": [last["err_u"], last["err_p"]],
        "attempted": 2 * result.exp.time_grid.n_steps + report.iterations,
        "failed": len(report.failed_iterations),
        "correct": report.correct and sampler.mismatches == 0,
        "checks": report.text()
        + ("\nrepeated stages that differ from the first pass: %d"
           % sampler.mismatches),
    })
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
