#!/usr/bin/env python3
"""One run of the voltcache benchmark.

    python3 perfbench/run.py --workload fig10_sweep|serve_overlap \
        --seed N --seconds S --trace 0|1

Run it from the root of a source checkout. It builds the harness
(perfbench/CMakeLists.txt) from the checkout's sources into $CARGO_TARGET_DIR
or .bench_build, runs one workload for about S seconds, checks every
operation's output, and prints as its last stdout line one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics are
the end-to-end ones, with --trace 1 the per-layer ones (see README.md).

The full result, stamped with a host fingerprint and the workload's
simulated-statistics digest, is written to <build dir>/results/; compare two
sets of such results with perfbench/compare.py.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import benchlib  # noqa: E402

WORKLOADS = ("fig10_sweep", "serve_overlap")
HARNESS_TIMEOUT_S = 170


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def cmake_dir(out_dir):
    """The CMake build directory of this source tree. Each perfbench/ path
    gets its own, so two checkouts that share a build directory never build
    or measure each other's sources."""
    tag = hashlib.sha256(HERE.encode("utf-8")).hexdigest()[:12]
    return os.path.join(out_dir, "cmake-" + tag)


def build_harness(out_dir):
    """Configure and build the vcbench binary; returns its path.

    CMake is configured on every run: it is cheap on a warm build directory,
    it refuses a cache made from another source tree, and it re-reads the
    build identity (git describe) that the harness stamps into its results.
    """
    repo = os.path.dirname(HERE)
    if not os.path.isfile(os.path.join(repo, "src", "core", "sweep.h")):
        raise RuntimeError("voltcache sources not found beside perfbench/ in " + repo)
    build = cmake_dir(out_dir)
    subprocess.run(["cmake", "-S", HERE, "-B", build, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                   check=True, stdout=sys.stderr)
    jobs = max(1, min(os.cpu_count() or 1, 4))
    subprocess.run(["cmake", "--build", build, "--target", "vcbench", "-j", str(jobs)],
                   check=True, stdout=sys.stderr)
    return harness_path(out_dir)


def harness_path(out_dir):
    return os.path.join(cmake_dir(out_dir), "vcbench")


def harness_command(args, binary, scratch, record_path):
    return [binary, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", repr(args.seconds), "--trace", str(args.trace),
            "--scratch", scratch, "--out", record_path]


def summarize(args, record):
    """The full result of one run, and the final line's object."""
    attempted, failed = benchlib.count_errors(record)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "fingerprint": benchlib.fingerprint(record),
        "sim_digest": record["sim_digest"],
        "attempted": attempted,
        "failed": failed,
        "errors": record["errors"],
        "setup_samples_s": record["setup_s"],
    }
    correct = failed == 0
    if args.trace:
        metrics = benchlib.per_layer(record)
        units = dict(benchlib.PER_LAYER_METRICS)
        coverage = benchlib.thread_coverage(record["spans"])
        result["thread_coverage"] = coverage
        result["tracing"] = benchlib.tracing_overhead(record)
        result["spans"] = len(record["spans"])
        if any(c > 1.0 + 1e-9 for c in coverage.values()):
            correct = False
            result["errors"].append("self-time coverage above 100% on a thread")
    else:
        metrics, timing = benchlib.end_to_end(record)
        units = dict(benchlib.E2E_METRICS)
        result["timing"] = timing
    result["metrics"] = metrics
    result["correct"] = correct
    line = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    return result, line


def main(argv):
    args = parse_args(argv)
    out_dir = build_dir()
    try:
        binary = build_harness(out_dir)
    except (RuntimeError, OSError, subprocess.CalledProcessError) as error:
        print("perfbench: build failed: %s" % error, file=sys.stderr)
        return 1
    results = os.path.join(out_dir, "results")
    scratch = os.path.join(out_dir, "tmp")
    os.makedirs(results, exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    record_path = os.path.join(results, stem + ".record.json")
    command = harness_command(args, binary, scratch, record_path)
    try:
        subprocess.run(command, check=True, stdout=sys.stderr, timeout=HARNESS_TIMEOUT_S)
    except (OSError, subprocess.CalledProcessError, subprocess.TimeoutExpired) as error:
        print("perfbench: harness failed: %s" % error, file=sys.stderr)
        return 1
    with open(record_path, encoding="utf-8") as f:
        record = json.load(f)
    result, line = summarize(args, record)
    with open(os.path.join(results, stem + ".json"), "w", encoding="utf-8") as f:
        json.dump(result, f, indent=1, sort_keys=True)
    for error in result["errors"]:
        print("perfbench: check failed: %s" % error, file=sys.stderr)
    if args.trace:
        print("perfbench: tracing overhead %s" % json.dumps(result["tracing"]), file=sys.stderr)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
