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
    "end_to_end": [{"name": "round_s", "unit": "s", "better": "lower"},
                   {"name": "updates_per_s", "unit": "1/s",
                    "better": "higher"}],
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

    def test_claim_needs_ten_pairs(self):
        r = row()
        entry = r["workloads"]["server-ingest"]["round_s"]
        entry["pairs"], entry["wins"] = 9, 9
        self.assertRejected([r], "at least 10 pairs")

    def test_claim_needs_nine_tenths_wins(self):
        r = row()
        entry = r["workloads"]["server-ingest"]["round_s"]
        entry["pairs"], entry["wins"] = 20, 17
        self.assertRejected([r], "9/10")

    def test_claim_median_must_move_the_better_way(self):
        r = row()
        r["workloads"]["server-ingest"]["round_s"] = metric(0.005, 0.007)
        self.assertRejected([r], "is not lower")
        r = row()
        r["claim"]["metric"] = "updates_per_s"
        entry = metric(7000.0, 6000.0)
        entry["unit"] = "1/s"
        r["workloads"]["server-ingest"]["updates_per_s"] = entry
        self.assertRejected([r], "is not higher")

    def test_claim_difference_must_exceed_parent_spread(self):
        r = row()
        # Parent quartiles 0.0063/0.0077: a 0.0010 drop is inside them.
        r["workloads"]["server-ingest"]["round_s"] = metric(0.007, 0.006)
        self.assertRejected([r], "spread")
        # Without parent quartiles the spread rule has nothing to compare.
        r["workloads"]["server-ingest"]["round_s"] = metric(0.007, 0.006,
                                                            q=False)
        self.assertEqual(errors_of([r]), [])


if __name__ == "__main__":
    unittest.main()
