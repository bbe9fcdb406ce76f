#!/usr/bin/env python3
"""Build the perfbench harness from source, run one workload, check its
output, and print the result as the last line of stdout.

    python3 perfbench/run.py --workload pinned-fig12 --seed 7 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --trace 1   # every metric, every workload
    python3 perfbench/run.py --selftest                 # seconds-long harness check

The result line is one JSON object: correct, attempted and failed (jobs)
and metrics {name: {value, unit}}.  --trace 0 reports BENCHMARK.json's
end_to_end metrics, --trace 1 its per_layer metrics.  perfbench/NOTES.md
describes the workloads and metrics.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ["pinned-fig12", "gigascale-mcf", "designs-lbm"]
DEFAULT_SEED = 0x5EED  # the runner's default workload seed
BUILD_TIMEOUT_S = 840


class BenchError(Exception):
    pass


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the harness; output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError(f"simulator sources not found under {ROOT}/src")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD])
    steps.append(["cmake", "--build", BUILD, "-j", "4"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            raise BenchError(f"build step failed: {' '.join(cmd)}")


def expected_metrics(trace):
    """{name: unit} that a run in this mode must report."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(result, trace):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise BenchError(f"unexpected result keys {sorted(result)}")
    if not isinstance(result["correct"], bool):
        raise BenchError("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            raise BenchError(f"{key} is not a whole number")
    if result["attempted"] < 1:
        raise BenchError("no job attempted")
    want = expected_metrics(trace)
    got = result["metrics"]
    if set(got) != set(want):
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        raise BenchError(f"metric set differs: missing {missing}, "
                         f"unexpected {extra}")
    for name, metric in got.items():
        if metric.get("unit") != want[name]:
            raise BenchError(f"{name}: unit {metric.get('unit')!r}, "
                             f"expected {want[name]!r}")
        value = metric.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise BenchError(f"{name}: value {value!r} is not a number")


def run(workload, seed, seconds, trace, extra=()):
    """Run the harness once; echo its table and return the checked result."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), *extra]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=seconds + 120, check=False)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(f"{' '.join(cmd)} exited {done.returncode}")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as err:
        raise BenchError(f"last line is not JSON: {err}") from err
    check_result(result, trace)
    return result


def selftest():
    """Every workload's job shape at tiny size, in both modes: all metric
    names and units are printed, every job passes its identity checks and
    the traced copy matches; a perturbed traced copy must be caught."""
    for workload in WORKLOADS:
        for trace in (0, 1):
            result = run(workload, DEFAULT_SEED, 1, trace, ["--tiny"])
            if not result["correct"] or result["failed"] != 0:
                raise BenchError(f"{workload} trace={trace}: "
                                 f"{result['failed']} job(s) failed")
            if trace and result["metrics"]["sim.jobs_failed"]["value"]:
                raise BenchError(f"{workload}: sim.jobs_failed is not 0")
        log(f"selftest {workload}: ok")
    result = run(WORKLOADS[0], DEFAULT_SEED, 1, 1, ["--tiny", "--perturb"])
    if result["correct"] or result["failed"] == 0:
        raise BenchError("a perturbed traced copy was not caught")
    log("selftest perturbed traced copy: caught")
    print("perfbench selftest: ok")


def seed_arg(text):
    """A decimal seed (leading zeros allowed), or 0x-prefixed hex."""
    try:
        return int(text, 10)
    except ValueError:
        return int(text, 16 if text.lower().startswith("0x") else 10)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=seed_arg, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    try:
        build()
        if args.selftest:
            selftest()
            return 0
        names = WORKLOADS if args.workload == "all" else [args.workload]
        for name in names:
            result = run(name, args.seed, args.seconds, args.trace)
            print(json.dumps(result), flush=True)
    except (BenchError, OSError, subprocess.SubprocessError) as err:
        log(str(err))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
