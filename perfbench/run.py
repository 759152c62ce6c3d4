#!/usr/bin/env python3
"""Builds and runs the FedDA benchmark.

Run from the root of the repository:

    python3 perfbench/run.py --workload dblp-fedda-seq --seed 1 \
        --seconds 40 --trace 0
    python3 perfbench/run.py --selftest      # self-time unit tests

The first call configures and builds perfbench/ (which compiles ../src)
into $CARGO_TARGET_DIR, or .bench_build when that is unset; later calls
rebuild incrementally. Build output goes to standard error. The benchmark's
own output, ending in one JSON line, goes to standard output. The exit code
is 0 only if the build succeeded and every output check passed.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["dblp-fedda-seq", "dblp-fedavg-async-pool", "uds-fedda-remote",
             "server-ingest"]
# A run must end within 180 s; the measured budget plus set-up, checks and
# the last repetition's overrun stay far below this.
RUN_DEADLINE_S = 170


def build_dir():
    return os.environ.get("CARGO_TARGET_DIR") or ".bench_build"


def build(target):
    """Configures (once) and builds `target`; returns its path or None."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", target, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("build failed: " + " ".join(step), file=sys.stderr)
            return None
    return os.path.join(out, target)


def run(argv, timeout):
    """Runs argv in its own process group, relaying standard output. On a
    timeout the whole group (including uds client processes) is killed."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                            start_new_session=True, text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print("benchmark timed out", file=sys.stderr)
        return 1
    sys.stdout.write(stdout)
    return proc.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and (args.workload is None or args.seconds is None):
        parser.error("--workload and --seconds are required")

    binary = build("selftime_test" if args.selftest else "fedda_perfbench")
    if binary is None:
        return 1
    if args.selftest:
        return run([binary], RUN_DEADLINE_S)
    # The scratch path is relative so uds socket paths stay short.
    return run([binary, "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--scratch_dir", os.path.relpath(build_dir())],
               min(RUN_DEADLINE_S, args.seconds + 120))


if __name__ == "__main__":
    sys.exit(main())
