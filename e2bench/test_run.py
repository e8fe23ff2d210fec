"""Tests of run.py's compare verdict rule and of BENCHMARK.json's contract.

Run: python3 e2bench/run.py selftest (or python3 -m unittest test_run from
this directory).
"""

import json
import os
import unittest

import run


class VerdictRule(unittest.TestCase):
    PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]

    def pairs(self, change):
        return list(zip(self.PARENT, change))

    def test_no_worse_within_bound(self):
        change = [v * 1.04 for v in self.PARENT]
        v, won = run.verdict(self.PARENT, change, "lower", 0.1, self.pairs(change))
        self.assertEqual(v, "no worse")
        self.assertEqual(won, 0)

    def test_regressed_beyond_bound(self):
        change = [v * 1.2 for v in self.PARENT]
        v, _ = run.verdict(self.PARENT, change, "lower", 0.1, self.pairs(change))
        self.assertEqual(v, "regressed")

    def test_improved_needs_nine_tenths_of_pairs_and_more_than_iqr(self):
        change = [v * 0.9 for v in self.PARENT]
        v, won = run.verdict(self.PARENT, change, "lower", 0.1, self.pairs(change))
        self.assertEqual((v, won), ("improved", 10))
        # Better median, but only 8 of 10 pairs won: not a claimable gain.
        mixed = [v * 0.9 for v in self.PARENT[:8]] + [v * 1.05 for v in self.PARENT[8:]]
        v, won = run.verdict(self.PARENT, mixed, "lower", 0.1, self.pairs(mixed))
        self.assertEqual((v, won), ("no worse", 8))
        # Every pair won, but the medians differ by less than the parent's
        # own quartile distance.
        tiny = [v - 0.01 for v in self.PARENT]
        v, won = run.verdict(self.PARENT, tiny, "lower", 0.1, self.pairs(tiny))
        self.assertEqual((v, won), ("no worse", 10))

    def test_higher_is_better(self):
        change = [v * 1.1 for v in self.PARENT]
        v, _ = run.verdict(self.PARENT, change, "higher", 0.1, self.pairs(change))
        self.assertEqual(v, "improved")
        v, _ = run.verdict(change, self.PARENT, "higher", 0.05, self.pairs(change))
        self.assertEqual(v, "regressed")

    def test_unresolved_when_parent_spread_exceeds_bound(self):
        noisy = [50.0, 150.0, 80.0, 120.0, 100.0, 60.0, 140.0, 90.0, 110.0, 100.0]
        change = [v * 1.3 for v in noisy]
        v, _ = run.verdict(noisy, change, "lower", 0.1, list(zip(noisy, change)))
        self.assertEqual(v, "unresolved")
        # ... unless every change run beats every parent run.
        far = [10.0] * 10
        v, _ = run.verdict(noisy, far, "lower", 0.1, list(zip(noisy, far)))
        self.assertEqual(v, "improved")


class BenchmarkSpec(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def test_each_workload_records_why_it_was_chosen(self):
        names = [w["name"] for w in self.spec["workloads"]]
        self.assertEqual(names, ["fb_small_sharded", "asn_large_decode",
                                 "ctrl_slice_rtt"])
        for w in self.spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertTrue(w["why"].strip())
            self.assertNotIn("\n", w["why"])
            self.assertLessEqual(len(w["why"]), 200)

    def test_bounds(self):
        bounds = {m["name"]: m["bound"] for m in self.spec["end_to_end"]}
        self.assertIn("setup_s", bounds)
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))

    def test_metric_names_unique_and_well_formed(self):
        names = [m["name"] for m in self.spec["end_to_end"] + self.spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for m in self.spec["end_to_end"] + self.spec["per_layer"]:
            self.assertIn(m["better"], ("lower", "higher"))
            self.assertLessEqual(len(m["unit"]), 16)


if __name__ == "__main__":
    unittest.main()
