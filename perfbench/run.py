#!/usr/bin/env python3
"""The repo's benchmark: one command, two workloads, one JSON result line.

    python3 perfbench/run.py --workload offline-vgg13 --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run builds the library, mscli,
msrouter and the phase runner from source into .bench_build/ (CMake,
Release). A workload is composed of phases run by perfbench_phase
(perfbench/src/): `offline` (Module::Forward closed loop), `spike`
(in-process SliceServer open loop) and, in traced runs only, `wire` (client
-> msrouter -> mscli shards, which this script spawns and stops).
perfbench/spec.json holds every workload parameter; BENCHMARK.json names the
workloads, the metrics and their bounds.

With --trace 0 the result carries every end-to-end metric; with --trace 1
every per-layer metric (all three phases run, each half untraced and half
traced). A human-readable table with sample counts goes to stdout before the
last line, which is the JSON result. The exit code is 0 only when every
output and accounting check held.
"""

import argparse
import json
import math
import os
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
PHASE_BIN = os.path.join(BUILD_DIR, "perfbench_phase")
MSCLI = os.path.join(BUILD_DIR, "repo", "examples", "example_mscli")
MSROUTER = os.path.join(BUILD_DIR, "repo", "examples", "example_msrouter")
SERVING_METRICS = ("ontime_frac", "latency_p50_ms", "latency_p99_ms", "mean_rate")
SETUP_QUANTILE = 0.10  # nearest rank; a low quantile, as fwd_us is
PHASE_TIMEOUT_S = 150
SPAWN_TIMEOUT_S = 60


class BenchError(Exception):
    """A failure that must end the run without a result line."""


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build():
    """Configures once, then builds the three targets (a no-op when fresh)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("no repository sources next to perfbench/ (src/CMakeLists.txt missing)")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    if os.path.isfile(cache):
        with open(cache) as f:
            if "CMAKE_HOME_DIRECTORY:INTERNAL=%s\n" % BENCH_DIR not in f.read():
                shutil.rmtree(BUILD_DIR)  # configured for another checkout
    if not os.path.isfile(cache):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            raise BenchError("cmake configure failed")
    cmd = ["cmake", "--build", BUILD_DIR, "--parallel", jobs, "--target",
           "perfbench_phase", "example_mscli", "example_msrouter"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        raise BenchError("build failed")


def flag_args(args):
    return ["--%s=%s" % (k, v) for k, v in sorted(args.items())]


def run_phase(name, args):
    """Runs one perfbench_phase invocation and returns its report dict."""
    cmd = [PHASE_BIN, name] + flag_args(args)
    try:
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                             timeout=PHASE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("phase %s timed out" % name)
    lines = out.stdout.strip().splitlines()
    if not lines:
        raise BenchError("phase %s printed no report (exit %d)" % (name, out.returncode))
    report = json.loads(lines[-1])
    if out.returncode != 0 and not report["errors"]:
        report["errors"].append("phase %s exited %d" % (name, out.returncode))
    return report


# ---- wire: the multi-process cluster -------------------------------------

def read_port(proc, pattern, deadline):
    """Reads the child's stdout until `pattern` names its listening port."""
    buf = b""
    fd = proc.stdout.fileno()
    while time.monotonic() < deadline:
        ready, _, _ = select.select([fd], [], [], 0.05)
        if ready:
            chunk = os.read(fd, 4096)
            if not chunk:
                break
            buf += chunk
            m = re.search(pattern, buf.decode(errors="replace"))
            if m:
                return int(m.group(1))
        elif proc.poll() is not None:
            break
    raise BenchError("child %s never reported its port" % proc.args[0])


class Cluster:
    """Two mscli shards and one msrouter, spawned on free ports."""

    def __init__(self, spec):
        self.procs = []
        env = dict(os.environ, **spec["shard_env"])
        deadline = time.monotonic() + SPAWN_TIMEOUT_S
        try:
            shards = [self._spawn([MSCLI] + spec["shard_args"], env)
                      for _ in range(spec["args"]["shards"])]
            ports = [read_port(p, r"listening on port (\d+)", deadline) for p in shards]
            addrs = ",".join("127.0.0.1:%d" % p for p in ports)
            router = self._spawn([MSROUTER] + spec["router_args"] + ["--shards=" + addrs],
                                 dict(os.environ))
            self.port = read_port(router, r"on port (\d+)", deadline)
        except BaseException:
            self.stop()
            raise

    def _spawn(self, cmd, env):
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, env=env)
        self.procs.append(proc)
        return proc

    def stop(self):
        """SIGTERMs router then shards; returns the children's exit codes."""
        codes = []
        for proc in reversed(self.procs):
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
            try:
                proc.communicate(timeout=20)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
            codes.append(proc.returncode)
        self.procs = []
        return codes


def run_wire(spec, seed, seconds):
    """Runs the wire phase (traced runs only) against a fresh cluster."""
    cluster = Cluster(spec)
    try:
        report = run_phase("wire", dict(spec["args"], port=cluster.port, seed=seed,
                                        seconds=seconds))
    finally:
        codes = cluster.stop()
    if any(code != 0 for code in codes):
        report["errors"].append("router or shard exited %s (accounting ledger)" % codes)
    return report


# ---- composition -----------------------------------------------------------

def phase_report(name, spec, seed, seconds, trace, primary):
    pspec = spec["phases"][name]
    if name == "wire":
        return run_wire(pspec, seed, seconds)
    args = dict(pspec["args"], seed=seed, seconds=seconds, trace=int(trace))
    if name == "offline":
        # Set-up is repeated only where it is the run's setup_s.
        args["setup_repeats"] = pspec["setup_repeats"] if primary and not trace else 1
    return run_phase(name, args)


def compose(workload, spec, seed, seconds, trace):
    """Returns (metrics {name: (value, samples)}, reports) for one run."""
    primary = spec["workloads"][workload]["primary"]
    if trace:
        plan = ["offline", "spike", "wire"]
    else:
        # A result must carry every end-to-end metric, so each workload runs
        # its primary phase and then the other one (spec.json "composition").
        plan = [primary] + [p for p in ("offline", "spike") if p != primary]
    # A traced phase splits its time between untraced and traced halves.
    phase_seconds = seconds / 2 if trace else seconds
    reports = {}
    for name in plan:
        log("%s: %s phase, %.0f s%s" % (workload, name, seconds, " (traced)" if trace else ""))
        reports[name] = phase_report(name, spec, seed, phase_seconds, trace, name == primary)

    def take(report, names):
        return {n: (report["metrics"][n]["value"], report["metrics"][n]["samples"])
                for n in names if n in report["metrics"]}

    metrics = {}
    if trace:
        for name in ("offline", "spike", "wire"):
            metrics.update(take(reports[name], reports[name]["metrics"]))
        # Steady-state counters: offline closed loop plus the serving windows.
        for stat in ("tensor.packs", "tensor.arena_slab_allocs"):
            vals = [reports[p]["metrics"][stat] for p in ("offline", "spike")]
            metrics[stat] = (sum(v["value"] for v in vals), sum(v["samples"] for v in vals))
        for stat in ("loadgen.lag_ms.p99", "loadgen.lag_ms.max"):
            vals = [reports[p]["metrics"][stat] for p in ("spike", "wire")
                    if stat in reports[p]["metrics"]]
            worst = max(vals, key=lambda v: v["value"] or 0.0)
            metrics[stat] = (worst["value"], sum(v["samples"] for v in vals))
    else:
        # setup_s is a low quantile of the run's set-ups, for the reason
        # fwd_us is (spec.json "setup"); the median is printed as context.
        setups = sorted(reports[primary]["setup_s"])
        low = setups[max(0, math.ceil(SETUP_QUANTILE * len(setups)) - 1)] if setups else None
        metrics["setup_s"] = (low, len(setups))
        if setups:
            metrics["setup_s.median"] = (statistics.median(setups), len(setups))
        metrics.update(take(reports["offline"], [n for n in reports["offline"]["metrics"]
                                                 if n.startswith("fwd_us")]))
        metrics.update(take(reports["spike"], SERVING_METRICS))
        # Context for reading the gated numbers (printed, not in the result).
        metrics.update(take(reports["spike"], (
            "serving.calibrated_t_us", "loadgen.lag_ms.p99", "loadgen.lag_ms.max")
            + tuple(n + ".pass_median" for n in SERVING_METRICS if n != "mean_rate")))
    return metrics, reports


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        with open(os.path.join(BENCH_DIR, "spec.json")) as f:
            spec = json.load(f)
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            declared = json.load(f)
        if args.workload not in spec["workloads"]:
            raise BenchError("unknown workload %r (have %s)" % (args.workload,
                                                                 ", ".join(spec["workloads"])))
        build()
        metrics, reports = compose(args.workload, spec, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError, ValueError, KeyError) as e:
        log("error: %s" % e)
        return 2

    wanted = declared["per_layer" if args.trace else "end_to_end"]
    errors = [e for r in reports.values() for e in r["errors"]]
    result = {}
    print("%-36s %14s  %-8s %s" % ("metric", "value", "unit", "samples"))
    for m in wanted:
        value, samples = metrics.get(m["name"], (None, 0))
        if value is None or not math.isfinite(value):
            errors.append("metric %s was not measured" % m["name"])
            continue
        result[m["name"]] = {"value": value, "unit": m["unit"]}
        print("%-36s %14.6g  %-8s %d" % (m["name"], value, m["unit"], samples))
    # Context rows: measured but not part of this result (in a traced run,
    # the phases' end-to-end values are left out: they come from untraced runs).
    hidden = {m["name"] for m in declared["end_to_end"] + declared["per_layer"]}
    for name in sorted(set(metrics) - hidden):
        value, samples = metrics[name]
        print("%-36s %14.6g  %-8s %d  (context, not gated)" % (name, value, "", samples))
    for e in errors:
        print("CHECK FAILED: " + e)
    attempted = sum(r["attempted"] for r in reports.values())
    failed = sum(r["failed"] for r in reports.values())
    print("operations attempted %d, failed %d" % (attempted, failed))
    correct = not errors
    print(json.dumps({"correct": correct, "attempted": max(1, attempted),
                      "failed": failed, "metrics": result}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
