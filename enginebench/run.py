#!/usr/bin/env python3
"""Build the engine benchmark from source and run one workload.

    python3 enginebench/run.py --workload offline_batch --seed 1 \
        --seconds 10 --trace 0
    python3 enginebench/run.py --test      # the benchmark's own tests

Run from the repository root. The build lives in $CARGO_TARGET_DIR (default
.bench_build) under the root; the first call configures and compiles it.
The last line of standard output is the run's result JSON, each metric
with the unit BENCHMARK.json declares for it. Build output and progress
go to standard error.
"""
import argparse
import fcntl
import json
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "enginebench")
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "enginebench")


def build(targets):
    """Configure (once) and build `targets`; False when either step fails."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            configure = ["cmake", "-S", BENCH_DIR, "-B", out,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if subprocess.call(configure, stdout=sys.stderr) != 0:
                # A failed configure must not look like a finished one.
                cache = os.path.join(out, "CMakeCache.txt")
                if os.path.exists(cache):
                    os.remove(cache)
                return False
        cmd = ["cmake", "--build", out, "-j", str(os.cpu_count() or 1),
               "--target"] + targets
        return subprocess.call(cmd, stdout=sys.stderr) == 0


def git_rev():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        return subprocess.check_output(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            stderr=subprocess.DEVNULL, text=True).strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def declared_metrics(trace):
    """{name: unit} of the metrics BENCHMARK.json declares for this run
    mode: the one list of the benchmark's metric names and units."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def with_units(values, trace):
    """The result's metrics as {name: {value, unit}}, or None (with the
    reason on standard error) when the names differ from BENCHMARK.json.
    A per-layer metric the workload does not have reads 0."""
    declared = declared_metrics(trace)
    extra = sorted(set(values) - set(declared))
    missing = [] if trace else sorted(set(declared) - set(values))
    if extra or missing:
        print("enginebench: metrics differ from BENCHMARK.json: extra %s, "
              "missing %s" % (extra, missing), file=sys.stderr)
        return None
    return {name: {"value": values.get(name, 0), "unit": unit}
            for name, unit in declared.items()}


def run(args):
    binary = os.path.join(build_dir(), "engine_bench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.join(build_dir(), "run")]
    env = dict(os.environ, ENGINEBENCH_GIT_REV=git_rev())
    # Own process group: a timeout takes down the node processes too.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                            cwd=ROOT, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("enginebench: run timed out", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        sys.stderr.write(out)
        return proc.returncode
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(out)
        print("enginebench: no result line", file=sys.stderr)
        return 1
    result["metrics"] = with_units(result["metrics"], args.trace != 0)
    if result["metrics"] is None:
        return 1
    print("\n".join(lines[:-1] + [json.dumps(result)]))
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--test", action="store_true",
                   help="build and run the benchmark's own tests")
    args = p.parse_args()
    if args.test:
        if not build(["enginebench_test"]):
            return 1
        return subprocess.call([os.path.join(build_dir(), "enginebench_test")])
    if not args.workload:
        p.error("--workload is required")
    if not build(["engine_bench"]):
        print("enginebench: build failed", file=sys.stderr)
        return 1
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
