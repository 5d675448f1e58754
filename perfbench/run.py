"""cemporo benchmark: one workload, one seed, timed rounds of `cemporo run`.

    python3 perfbench/run.py --workload frozen --seed 1 --seconds 10 --trace 0

Runs whole rounds of the workload, each in a fresh process
(`oneround.py`), until `--seconds` have passed (at least one round), and
checks the outputs of every round. The last line of standard output is one
JSON object with `correct`, `attempted`, `failed` and `metrics`. With
`--trace 0` the metrics are the end-to-end ones, medians over the rounds.
With `--trace 1` each round is a pair, one untraced process and one with
spans around every call into the program's modules, both without the extra
stage samples; the metrics are the per-layer ones, medians over the traced
rounds, and `trace.overhead_s` is traced minus untraced `total_s`. An operation is one time step of the fine
reference, one step of the coarse trajectory or one enrichment iteration.

The program is imported from `src/` beside this directory; without it the
benchmark exits with code 2. BLAS runs one thread unless
OPENBLAS_NUM_THREADS is set (README.md says why).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
STAGE_COLUMNS = ("grid", "material", "assembly", "spectral", "cembasis",
                 "timestepping", "online", "report", "cli")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def one_round(args, traced, env):
    out_dir = os.path.join(OUT, args.workload, "seed%d" % args.seed,
                           "traced" if traced else "plain")
    # a traced run reads only `total_s` of its untraced rounds
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "oneround.py"),
         "--workload", args.workload, "--seed", str(args.seed),
         "--trace", str(int(traced)), "--out", out_dir,
         "--samples", str(int(not args.trace))],
        stdout=subprocess.PIPE, env=env, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def median(rounds, key):
    return statistics.median(r["times"][key] for r in rounds)


def stage_table(stages):
    """Self seconds per layer module under each stage of one traced round."""
    lines = ["%-17s %7s %8s  " % ("stage", "cpu_s", "covered")
             + " ".join("%8s" % m[:8] for m in STAGE_COLUMNS)]
    for stage, row in stages.items():
        covered = 1.0 - row["uncovered_s"] / row["cpu_s"]
        lines.append("%-17s %7.2f %7.1f%%  " % (stage, row["cpu_s"],
                                                100.0 * covered)
                     + " ".join("%8.3f" % row["layers"].get(m, 0.0)
                                for m in STAGE_COLUMNS))
    return "\n".join(lines)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "cemporo", "__init__.py")):
        sys.stderr.write("perfbench: no program source at %s\n" % SRC)
        return 2
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        sys.stderr.write("perfbench: unknown workload %r (known: %s)\n"
                         % (args.workload, ", ".join(sorted(WORKLOADS))))
        return 2
    env = dict(os.environ)
    env.setdefault("OPENBLAS_NUM_THREADS", "1")

    plain, traced = [], []
    start = time.perf_counter()
    while not plain or time.perf_counter() - start < args.seconds:
        plain.append(one_round(args, False, env))
        if args.trace:
            traced.append(one_round(args, True, env))

    rounds = plain + traced
    for r in rounds:
        sys.stderr.write(r["checks"] + "\n")
    correct = all(r["correct"] for r in rounds)
    finals = {tuple(r["final_err"]) for r in rounds}
    if len(finals) != 1:
        # every round of one seed must give the same answer, traced or not
        sys.stderr.write("perfbench: rounds disagree: %s\n" % sorted(finals))
        correct = False
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)

    if args.trace:
        metrics = {name: {"value": statistics.median(
                              r["layer"][name][0] for r in traced),
                          "unit": unit}
                   for name, (_, unit) in traced[0]["layer"].items()}
        metrics["trace.overhead_s"] = {
            "value": median(traced, "total") - median(plain, "total"),
            "unit": "s"}
        sys.stderr.write(stage_table(traced[-1]["stages"]) + "\n")
    else:
        err_u, err_p = plain[0]["final_err"]
        metrics = {
            "setup_s": {"value": median(plain, "setup"), "unit": "s"},
            "reference_s": {"value": median(plain, "reference"),
                            "unit": "s"},
            "multiscale_s": {"value": median(plain, "multiscale"),
                             "unit": "s"},
            "total_s": {"value": median(plain, "total"), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(
                r["peak_rss_mb"] for r in plain), "unit": "MB"},
            "final_err_u": {"value": err_u, "unit": "1"},
            "final_err_p": {"value": err_p, "unit": "1"},
        }
    sys.stderr.write("perfbench: %s seed %d, %d round(s), "
                     "OPENBLAS_NUM_THREADS=%s\n"
                     % (args.workload, args.seed, len(plain),
                        env["OPENBLAS_NUM_THREADS"]))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
