#!/usr/bin/env python3
"""Self-test for tools/bench_ledger.py, run as the `bench_ledger_selftest`
ctest target: a valid row passes, and each kind of bad row is rejected
with a message naming the offending field."""

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import bench_ledger  # noqa: E402

BENCHMARK = {
    "workloads": [{"name": "server-ingest"}, {"name": "uds-fedda-remote"}],
    "end_to_end": [{"name": "round_s", "unit": "s"},
                   {"name": "updates_per_s", "unit": "1/s"}],
}


def metric(parent, change, q=True):
    def side(median):
        if not q:
            return {"median": median, "q1": None, "q3": None}
        return {"median": median, "q1": median * 0.9, "q3": median * 1.1}
    return {"unit": "s", "parent": side(parent), "change": side(change),
            "pairs": 10, "wins": 9}


def row(sha="a" * 40):
    return {
        "pr": 17, "sha": sha, "parent_sha": "b" * 40, "source": "measured",
        "host": {"nproc": 4, "kernel_path": "avx2", "compiler": "GNU 12.2.0",
                 "build_type": "Release"},
        "run_seconds": 40,
        "claim": {"workload": "server-ingest", "metric": "round_s",
                  "text": "round_s falls"},
        "workloads": {"server-ingest": {"round_s": metric(0.007, 0.005)}},
    }


def errors_of(rows):
    return bench_ledger.check({"rows": rows}, BENCHMARK)


class BenchLedgerCheck(unittest.TestCase):
    def assertRejected(self, rows, needle):
        errors = errors_of(rows)
        self.assertTrue(any(needle in e for e in errors),
                        f"no error mentioning {needle!r} in {errors}")

    def test_valid_rows_pass(self):
        transcribed = row("c" * 40)
        transcribed["source"] = "transcribed"
        transcribed["host"] = None
        transcribed["claim"] = None
        transcribed["workloads"]["server-ingest"]["round_s"] = metric(
            0.007, 0.005, q=False)
        self.assertEqual(errors_of([row(), transcribed]), [])

    def test_empty_ledger_rejected(self):
        self.assertTrue(bench_ledger.check({"rows": []}, BENCHMARK))

    def test_missing_key(self):
        r = row()
        del r["parent_sha"]
        self.assertRejected([r], "parent_sha")

    def test_unknown_workload_and_metric(self):
        r = row()
        r["workloads"]["no-such-workload"] = {"round_s": metric(1, 1)}
        self.assertRejected([r], "no-such-workload")
        r = row()
        r["workloads"]["server-ingest"]["latency_s"] = metric(1, 1)
        self.assertRejected([r], "latency_s")

    def test_unit_must_match_benchmark(self):
        r = row()
        r["workloads"]["server-ingest"]["round_s"]["unit"] = "ms"
        self.assertRejected([r], "unit")

    def test_non_finite_numbers(self):
        for bad in (float("nan"), float("inf"), "7", True):
            r = row()
            r["workloads"]["server-ingest"]["round_s"]["change"]["median"] = bad
            self.assertRejected([r], "median")
        r = row()
        parent = r["workloads"]["server-ingest"]["round_s"]["parent"]
        parent["q1"] = float("nan")
        self.assertRejected([r], "quartiles")

    def test_quartiles_bracket_median(self):
        r = row()
        r["workloads"]["server-ingest"]["round_s"]["parent"]["q3"] = 0.001
        self.assertRejected([r], "bracket")

    def test_wins_within_pairs(self):
        r = row()
        r["workloads"]["server-ingest"]["round_s"]["wins"] = 11
        self.assertRejected([r], "wins")

    def test_duplicate_sha(self):
        self.assertRejected([row(), row()], "already used")

    def test_short_sha(self):
        self.assertRejected([row("abc123")], "40-hex")

    def test_measured_row_needs_host(self):
        r = row()
        r["host"] = None
        self.assertRejected([r], "host")

    def test_claim_names_reported_metric(self):
        r = row()
        r["claim"]["metric"] = "updates_per_s"
        self.assertRejected([r], "claim")


if __name__ == "__main__":
    unittest.main()
