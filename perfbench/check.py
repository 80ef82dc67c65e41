#!/usr/bin/env python3
"""Checks on the benchmark itself, run from the repository root.

  python3 perfbench/check.py spread --workload serve-spike --seeds 1-10
      Runs the workload once per seed and prints, per end-to-end metric, the
      median and the spread (interquartile range over median, as
      statistics.quantiles(n=4) gives it) against the metric's bound from
      BENCHMARK.json. Exits 1 if any spread exceeds its bound.

  python3 perfbench/check.py fault --seeds 1-5
      The regression self-check: runs serve-spike clean, then with the fault
      point from spec.json armed through MS_FAULTS, and exits 0 only if the
      faulted median reads worse than the clean median by more than the
      bound on ontime_frac or latency_p99_ms. No code changes are involved.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds, env=None):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                         env=dict(os.environ, **(env or {})))
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if out.returncode != 0 or not result["correct"]:
        sys.exit("run failed: workload %s seed %d (exit %d)" % (workload, seed, out.returncode))
    values = {k: v["value"] for k, v in result["metrics"].items()}
    print("  seed %-3d %s" % (seed, " ".join("%s=%.4g" % kv for kv in sorted(values.items()))),
          flush=True)
    return values


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)
    with open(os.path.join(BENCH_DIR, "spec.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m for m in declared["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("check", choices=("spread", "fault"))
    parser.add_argument("--workload", default=spec["self_check"]["workload"])
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--seconds", type=float, default=declared["run_seconds"])
    args = parser.parse_args()

    if args.check == "spread":
        runs = [run(args.workload, s, args.seconds) for s in args.seeds]
        ok = True
        print("%-22s %12s %8s %7s" % ("metric", "median", "spread", "bound"))
        for name, m in bounds.items():
            vals = [r[name] for r in runs]
            s = spread(vals)
            flag = ""
            if s > m["bound"]:
                flag, ok = "  OVER BOUND", False
            elif s > m["bound"] / 3:
                flag = "  over a third of the bound"
            print("%-22s %12.5g %8.3f %7.2f%s" % (name, statistics.median(vals), s,
                                                    m["bound"], flag))
        return 0 if ok else 1

    fault = spec["self_check"]["fault"]
    print("clean runs:")
    clean = [run(args.workload, s, args.seconds) for s in args.seeds]
    print("runs with MS_FAULTS=%s:" % fault)
    faulted = [run(args.workload, s, args.seconds, {"MS_FAULTS": fault}) for s in args.seeds]
    detected = False
    for name in ("ontime_frac", "latency_p99_ms"):
        m = bounds[name]
        c = statistics.median(r[name] for r in clean)
        f = statistics.median(r[name] for r in faulted)
        worse = (c - f) / c if m["better"] == "higher" else (f - c) / c
        hit = worse > m["bound"]
        detected |= hit
        print("%-16s clean %.4g  faulted %.4g  worse by %.1f%% (bound %.0f%%)%s" % (
            name, c, f, 100 * worse, 100 * m["bound"], "  DETECTED" if hit else ""))
    print("regression %s" % ("detected" if detected else "NOT detected"))
    return 0 if detected else 1


if __name__ == "__main__":
    sys.exit(main())
