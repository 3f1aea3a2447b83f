#!/usr/bin/env python3
"""Entry point of the repository benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root. Builds the harness (perfbench/CMakeLists.txt)
into .bench_build/perfbench and its fixtures into .bench_build/fixtures on
first use, then runs one workload through it with the global thread pool
fixed at PNC_NUM_THREADS=2. The last line of
stdout is the result object; a `# meta` line before it records the run's
machine and build. `--self-test` runs every workload once in each mode and
asserts that the output names exactly the metrics BENCHMARK.json lists and
that the exact counts repeat. See perfbench/README.md.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD, "pnc_perfbench")
FIXTURES = os.path.join(BUILD_ROOT, "fixtures")
TRACES = os.path.join(BUILD_ROOT, "traces")
THREADS = "2"
WORKLOADS = ["surrogate_fit", "train_va", "yield_mc"]
# Counts that must repeat exactly between runs of one build and seed.
EXACT_COUNTS = [
    "surrogate.allocs_per_epoch",
    "ad.nodes_per_step",
    "train.allocs_per_epoch",
    "train.alloc_bytes_per_epoch",
    "infer.allocs_per_sample",
    "yield.rounds",
]


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def check_layout():
    for path in ("src/CMakeLists.txt", "perfbench/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(ROOT, path)):
            fail(f"{path} not found: run from a checkout of the repository")


def build():
    """Bring the harness and its fixtures up to date (a no-op once they are).

    Configures once, builds, then builds any missing fixture in a process of
    its own, so no measured run carries that time or memory. A lock keeps
    concurrent invocations from building over each other.
    """
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD_ROOT, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", BUILD, "--target", "pnc_perfbench", "-j", jobs])
        steps.append([BINARY, "--prepare", "--fixtures", FIXTURES])
        env = dict(os.environ, PNC_NUM_THREADS=THREADS)
        for step in steps:
            done = subprocess.run(step, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                fail(f"build step failed: {' '.join(step)}", 3)


def git_sha():
    """The checkout's commit, read from .git without leaving the checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "none"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def meta():
    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "pnc_num_threads": int(THREADS),
        "cpu_model": cpu_model(),
        "load_avg_1m": os.getloadavg()[0],
    }


def run_harness(workload, seed, seconds, trace):
    """Run the harness once; returns (exit code, stdout lines)."""
    os.makedirs(TRACES, exist_ok=True)
    command = [
        BINARY, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--fixtures", FIXTURES,
    ]
    if trace:
        command += ["--trace-out", os.path.join(TRACES, f"{workload}-seed{seed}.json")]
    env = dict(os.environ, PNC_NUM_THREADS=THREADS)
    done = subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True)
    return done.returncode, done.stdout.splitlines()


def parse_result(lines):
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return None
    return result


def self_test(seconds):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        0: {m["name"] for m in spec["end_to_end"]},
        1: {m["name"] for m in spec["per_layer"]},
    }
    problems = []
    counts = {}
    runs = [(w, t) for w in WORKLOADS for t in (0, 1)] + [("yield_mc", 1)]
    for workload, trace in runs:
        code, lines = run_harness(workload, 1, seconds, trace)
        result = parse_result(lines) if code == 0 else None
        label = f"{workload} trace={trace}"
        if result is None:
            problems.append(f"{label}: exit {code}, no result")
            continue
        if result["failed"] or not result["correct"]:
            problems.append(f"{label}: {result['failed']} of {result['attempted']} failed")
        names = set(result["metrics"])
        if names != expected[trace]:
            problems.append(f"{label}: metrics differ from BENCHMARK.json: "
                            f"missing {sorted(expected[trace] - names)}, "
                            f"extra {sorted(names - expected[trace])}")
        if trace:
            counts[label + f" #{len(counts)}"] = {
                k: result["metrics"][k]["value"] for k in EXACT_COUNTS if k in names}
        print(f"self-test: {label}: {result['attempted']} operations checked", file=sys.stderr)
    reference = next(iter(counts.values()), None)
    for label, values in counts.items():
        if values != reference:
            problems.append(f"{label}: exact counts differ: {values} vs {reference}")
    for problem in problems:
        print(f"self-test FAILED: {problem}", file=sys.stderr)
    if not problems:
        print(f"self-test passed; exact counts {reference}", file=sys.stderr)
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1])
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    check_layout()
    if args.self_test:
        build()
        sys.exit(self_test(args.seconds or 1.0))
    if args.workload is None or args.seed is None or args.seconds is None or args.trace is None:
        fail("--workload, --seed, --seconds and --trace are required")
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")
    build()
    print("# meta " + json.dumps(meta()), flush=True)
    code, lines = run_harness(args.workload, args.seed, args.seconds, args.trace)
    result = parse_result(lines) if code == 0 else None
    for line in lines[:-1] if result else lines:
        print(line)
    if result is None:
        fail(f"harness exited {code} without a result", code or 1)
    print(lines[-1], flush=True)


if __name__ == "__main__":
    main()
