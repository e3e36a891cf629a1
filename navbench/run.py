#!/usr/bin/env python3
"""Builds and runs navbench, navpath's end-to-end and per-layer benchmark.

Run from the repository root:

  python3 navbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
  python3 navbench/run.py --selfcheck

The first form builds navpath and the navbench binary from source into
.bench_build/ (CMake, RelWithDebInfo; a no-op when up to date), runs one
workload and passes its output through: one line per metric, then one JSON
object as the last line. The exit code is the binary's: 0 when every
result checked out, 1 on any wrong result. --trace 1 also writes the
bench-side spans to .bench_build/traces/<workload>-seed<n>.json (Chrome
trace_event format; load it in chrome://tracing or Perfetto).

--selfcheck runs every workload briefly (--fast) and checks that two runs
with one seed give the same simulated outcome, that another seed gives a
different one, and that every metric BENCHMARK.json names is printed with
its unit.
"""
import argparse
import fcntl
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "navbench")
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "navbench")
WORKLOADS = ["scan_closed", "serve_open", "paper_single", "shard_batch"]


def build():
    """Configures and builds the binary; exits nonzero when that fails."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("navbench: navpath sources not found under " + ROOT)
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # concurrent runs share one build
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", SOURCE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", BUILD, "--target", "navbench",
                      "-j", jobs])
        for step in steps:
            if subprocess.run(step, stdout=sys.stderr).returncode != 0:
                sys.exit("navbench: build failed: " + " ".join(step))


def run_binary(args, capture=False):
    return subprocess.run([BINARY] + args, text=True,
                          stdout=subprocess.PIPE if capture else None)


def fast_run(workload, seed, trace):
    out = run_binary(["--workload", workload, "--seed", str(seed),
                      "--seconds", "0", "--trace", str(trace), "--fast",
                      "--trace-out", os.path.join(BUILD, "selfcheck.json")],
                     capture=True)
    lines = out.stdout.strip().splitlines()
    digest = next(line.split()[1] for line in lines
                  if line.strip().startswith("sim_digest"))
    return out.returncode, digest, json.loads(lines[-1])


def selfcheck():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for workload in WORKLOADS:
        code_a, digest_a, result = fast_run(workload, 1, 0)
        code_b, digest_b, _ = fast_run(workload, 1, 0)
        _, digest_c, _ = fast_run(workload, 2, 0)
        code_t, digest_t, traced = fast_run(workload, 1, 1)
        print(f"{workload}: seed 1 -> {digest_a} {digest_b}, traced "
              f"{digest_t}, seed 2 -> {digest_c}")
        if code_a or code_b or code_t or not (result["correct"] and
                                              traced["correct"]):
            problems.append(f"{workload}: wrong results")
        if not digest_a == digest_b == digest_t:
            problems.append(f"{workload}: one seed, different outcomes")
        if digest_a == digest_c:
            problems.append(f"{workload}: two seeds, identical outcomes")
        for kind, got in (("end_to_end", result), ("per_layer", traced)):
            for metric in spec[kind]:
                shown = got["metrics"].get(metric["name"])
                if shown is None or shown["unit"] != metric["unit"]:
                    problems.append(f"{workload}: {kind} metric "
                                    f"{metric['name']} missing or mis-united")
    for problem in problems:
        print("SELFCHECK FAILED:", problem)
    print("selfcheck:", "ok" if not problems else "FAILED")
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args()
    if not args.selfcheck and args.workload is None:
        parser.error("--workload is required")

    build()
    if args.selfcheck:
        return selfcheck()
    traces = os.path.join(BUILD, "traces")
    os.makedirs(traces, exist_ok=True)
    return run_binary([
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--trace-out",
        os.path.join(traces, f"{args.workload}-seed{args.seed}.json"),
    ]).returncode


if __name__ == "__main__":
    sys.exit(main())
