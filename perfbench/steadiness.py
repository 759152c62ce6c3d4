#!/usr/bin/env python3
"""Steadiness check for the FedDA benchmark.

Runs every workload of BENCHMARK.json as two sets of ten seeded runs of
run_seconds each and reports, for every end-to-end metric:
  * its spread within each set: the distance between the first and third
    quartiles of the ten values (statistics.quantiles(values, n=4)) as a
    share of their median, which must stay within the metric's bound;
  * how far the two sets' medians are apart, as a share of the first set's
    median, which must stay within the bound in either direction.
Run from the root of the repository:

    python3 perfbench/steadiness.py

Set 1 uses seeds 1-10 and set 2 seeds 11-20; within a set the workloads
are interleaved seed by seed. Raw results are written as JSON to the build
directory. Exits 0 when every metric of every workload agrees.
"""

import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SETS = 2
SEEDS = 10


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed (exit "
                         f"{proc.returncode}):\n{proc.stdout}")
    quartiles = [l for l in lines if l.startswith("round_s per-round")]
    return json.loads(lines[-1]), (quartiles[0] if quartiles else "")


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def worse_share(metric, first, second):
    """How much worse `second` is than `first` (negative when better)."""
    if not first:
        return float("inf")
    change = (second - first) / first
    return change if metric["better"] == "lower" else -change


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]

    # results[set][workload][metric] -> values, in seed order.
    results = [{w: {} for w in workloads} for _ in range(SETS)]
    for s in range(SETS):
        for i in range(SEEDS):
            seed = 1 + s * SEEDS + i
            for w in workloads:  # interleaved, so a slow stretch is shared
                started = time.monotonic()
                out, quartiles = run_once(w, seed, seconds)
                for name, m in out["metrics"].items():
                    results[s][w].setdefault(name, []).append(m["value"])
                print(f"set {s + 1} seed {seed:3d} {w:24s} "
                      f"{time.monotonic() - started:5.1f}s "
                      f"round_s {out['metrics']['round_s']['value']:.6f} | "
                      f"{quartiles}", flush=True)

    out_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    path = os.path.join(out_dir, f"steadiness-{int(time.time())}.json")
    with open(path, "w") as f:
        json.dump(results, f, indent=1)
    print(f"raw results: {path}")

    ok = True
    for w in workloads:
        print(f"\n{w}")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sets = [results[s][w][name] for s in range(SETS)]
            spreads = [spread(v) for v in sets]
            medians = [statistics.median(v) for v in sets]
            worse = worse_share(metric, medians[0], medians[1])
            line = f"  {name:22s} bound {bound:5.3f}"
            for m, sp in zip(medians, spreads):
                line += f" | median {m:12.6g} spread {sp:6.3f}"
            line += f" | worse {worse:+.3f}"
            verdict = "ok"
            if max(spreads) > bound:
                verdict = "SPREAD"
            elif abs(worse) > bound:
                verdict = "DRIFT"
            elif max(spreads) > bound / 3:
                verdict = "ok (spread above bound/3)"
            ok = ok and verdict.startswith("ok")
            print(f"{line}  {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
