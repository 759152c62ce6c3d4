#!/usr/bin/env python3
"""Validates the end-to-end perf ledger, BENCH_e2e.json.

The ledger holds one row per change that was benchmarked: the SHA of the
commit with the code change and of its parent, perfbench's `host:` line,
the run length, the claimed gain (if any), and, for each workload and
gated metric, the parent's and the change's medians and quartiles over N
alternating parent/change pairs, with the change's win count. Rows store
paired results, not bare absolutes: runs from different sessions on a
shared host cannot be compared directly (perfbench/README.md, "Noise").

    python3 tools/bench_ledger.py --check [--ledger BENCH_e2e.json]
                                          [--benchmark BENCHMARK.json]

--check fails (exit 1, one line per problem) on a missing key, a workload,
metric or unit that BENCHMARK.json does not declare, a number that is not
finite, quartiles that do not bracket the median, a win count above the
pair count, or a SHA that appears in two rows. A row's claimed metric must
also meet the claim rule: at least 10 pairs, the change winning at least
nine tenths of them, a change median better than the parent's in
BENCHMARK.json's `better` direction, and, when the parent has quartiles, a
median difference larger than the parent's q3 - q1.
"""

import argparse
import json
import math
import os
import re
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

ROW_KEYS = ("pr", "sha", "parent_sha", "source", "host", "run_seconds",
            "claim", "workloads")
SOURCES = ("measured", "transcribed")
HOST_KEYS = ("nproc", "kernel_path", "compiler", "build_type")
SHA = re.compile(r"^[0-9a-f]{40}$")


def is_number(value):
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def check_side(where, side, errors):
    """One side (parent or change) of a metric: median and quartiles."""
    if not isinstance(side, dict):
        errors.append(f"{where}: not an object")
        return
    for key in ("median", "q1", "q3"):
        if key not in side:
            errors.append(f"{where}: missing '{key}'")
    median, q1, q3 = side.get("median"), side.get("q1"), side.get("q3")
    if not is_number(median):
        errors.append(f"{where}.median: not a finite number")
        return
    if (q1 is None) != (q3 is None):
        errors.append(f"{where}: q1 and q3 must both be numbers or both null")
        return
    if q1 is None:
        return
    if not is_number(q1) or not is_number(q3):
        errors.append(f"{where}: quartiles must be finite numbers or null")
    elif not q1 <= median <= q3:
        errors.append(f"{where}: quartiles {q1}/{q3} do not bracket the "
                      f"median {median}")


CLAIM_MIN_PAIRS = 10


def check_claim(where, entry, better, errors):
    """The claim rule on the claimed metric's entry (already shape-checked)."""
    pairs, wins = entry.get("pairs"), entry.get("wins")
    parent, change = entry.get("parent") or {}, entry.get("change") or {}
    if not isinstance(pairs, int) or not isinstance(wins, int):
        return
    if pairs < CLAIM_MIN_PAIRS:
        errors.append(f"{where}: a claim needs at least {CLAIM_MIN_PAIRS} "
                      f"pairs, not {pairs}")
    if wins * 10 < pairs * 9:
        errors.append(f"{where}: a claim needs the change to win 9/10 of "
                      f"its pairs, not {wins} of {pairs}")
    p_median, c_median = parent.get("median"), change.get("median")
    if not is_number(p_median) or not is_number(c_median):
        return
    gain = p_median - c_median if better == "lower" else c_median - p_median
    q1, q3 = parent.get("q1"), parent.get("q3")
    if gain <= 0:
        errors.append(f"{where}: the change median {c_median} is not "
                      f"{better} than the parent's {p_median}")
    elif is_number(q1) and is_number(q3) and gain <= q3 - q1:
        errors.append(f"{where}: the median difference {gain:g} is not "
                      f"larger than the parent's spread q3 - q1 = "
                      f"{q3 - q1:g}")


def check_metric(where, entry, unit, errors):
    if not isinstance(entry, dict):
        errors.append(f"{where}: not an object")
        return
    for key in ("unit", "parent", "change", "pairs", "wins"):
        if key not in entry:
            errors.append(f"{where}: missing '{key}'")
    if entry.get("unit") != unit:
        errors.append(f"{where}: unit {entry.get('unit')!r} is not "
                      f"BENCHMARK.json's {unit!r}")
    check_side(f"{where}.parent", entry.get("parent"), errors)
    check_side(f"{where}.change", entry.get("change"), errors)
    pairs, wins = entry.get("pairs"), entry.get("wins")
    if not isinstance(pairs, int) or isinstance(pairs, bool) or pairs < 1:
        errors.append(f"{where}.pairs: must be a positive integer")
        return
    if wins is not None and (not isinstance(wins, int) or
                             isinstance(wins, bool) or
                             not 0 <= wins <= pairs):
        errors.append(f"{where}.wins: must be null or an integer in "
                      f"[0, {pairs}]")


def check_row(where, row, workloads, metrics, errors):
    """`metrics` maps each end-to-end metric to its (unit, better)."""
    if not isinstance(row, dict):
        errors.append(f"{where}: not an object")
        return
    for key in ROW_KEYS:
        if key not in row:
            errors.append(f"{where}: missing '{key}'")
    if not isinstance(row.get("pr"), int) or isinstance(row.get("pr"), bool):
        errors.append(f"{where}.pr: must be an integer")
    for key in ("sha", "parent_sha"):
        if not SHA.match(str(row.get(key, ""))):
            errors.append(f"{where}.{key}: must be a full 40-hex SHA")
    if row.get("source") not in SOURCES:
        errors.append(f"{where}.source: must be one of {SOURCES}")
    host = row.get("host")
    if row.get("source") == "measured" or host is not None:
        if not isinstance(host, dict):
            errors.append(f"{where}.host: a measured row needs perfbench's "
                          "host line as an object")
        else:
            for key in HOST_KEYS:
                if key not in host:
                    errors.append(f"{where}.host: missing '{key}'")
    if not is_number(row.get("run_seconds")) or row.get("run_seconds") <= 0:
        errors.append(f"{where}.run_seconds: must be a positive number")

    reported = row.get("workloads")
    if not isinstance(reported, dict) or not reported:
        errors.append(f"{where}.workloads: must be a non-empty object")
        return
    for workload, entries in reported.items():
        at = f"{where}.workloads.{workload}"
        if workload not in workloads:
            errors.append(f"{at}: not a workload in BENCHMARK.json")
            continue
        if not isinstance(entries, dict) or not entries:
            errors.append(f"{at}: must be a non-empty object")
            continue
        for metric, entry in entries.items():
            if metric not in metrics:
                errors.append(f"{at}.{metric}: not an end-to-end metric in "
                              "BENCHMARK.json")
                continue
            check_metric(f"{at}.{metric}", entry, metrics[metric][0],
                         errors)

    claim = row.get("claim")
    if claim is None:
        return
    if not isinstance(claim, dict) or not isinstance(claim.get("text"), str):
        errors.append(f"{where}.claim: must be null or an object with "
                      "'workload', 'metric' and 'text'")
        return
    entries = reported.get(claim.get("workload"))
    entry = (entries.get(claim.get("metric"))
             if isinstance(entries, dict) else None)
    if not isinstance(entry, dict):
        errors.append(f"{where}.claim: names a workload and metric the row "
                      "does not report")
    elif entry.get("wins") is None:
        errors.append(f"{where}.claim: the claimed metric needs a win count")
    elif claim.get("metric") in metrics:
        check_claim(f"{where}.claim", entry, metrics[claim["metric"]][1],
                    errors)


def check(ledger, benchmark):
    """Returns the list of problems in `ledger` (empty when it is valid)."""
    workloads = {w["name"] for w in benchmark["workloads"]}
    metrics = {m["name"]: (m["unit"], m["better"])
               for m in benchmark["end_to_end"]}
    errors = []
    rows = ledger.get("rows") if isinstance(ledger, dict) else None
    if not isinstance(rows, list) or not rows:
        return ["ledger: needs a non-empty 'rows' list"]
    seen = {}
    for index, row in enumerate(rows):
        where = f"rows[{index}]"
        check_row(where, row, workloads, metrics, errors)
        sha = row.get("sha") if isinstance(row, dict) else None
        if sha in seen:
            errors.append(f"{where}.sha: already used by {seen[sha]}")
        elif sha is not None:
            seen[sha] = where
    return errors


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", required=True,
                        help="validate the ledger")
    parser.add_argument("--ledger",
                        default=os.path.join(ROOT, "BENCH_e2e.json"))
    parser.add_argument("--benchmark",
                        default=os.path.join(ROOT, "BENCHMARK.json"))
    args = parser.parse_args(argv)
    with open(args.benchmark) as f:
        benchmark = json.load(f)
    try:
        with open(args.ledger) as f:
            ledger = json.load(f)
    except (OSError, ValueError) as e:
        print(f"bench_ledger: cannot read {args.ledger}: {e}")
        return 1
    errors = check(ledger, benchmark)
    for error in errors:
        print(f"bench_ledger: {error}")
    if errors:
        return 1
    print(f"bench_ledger: {len(ledger['rows'])} rows ok")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
