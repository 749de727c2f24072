"""Unit tests for the perfbench helpers.

    python3 -m unittest discover -s perfbench
"""

import unittest

import benchlib
from benchlib import ParseError


class ResultCache(unittest.TestCase):
    def test_skips_the_directory_line(self):
        err = ("result cache: .squality-cache\n"
               "result cache: 459 hits, 0 misses, 0 stored (100.0% hit rate)\n")
        self.assertEqual(benchlib.parse_result_cache(err),
                         {"hits": 459, "misses": 0, "stored": 0})

    def test_directory_line_alone_is_not_a_summary(self):
        with self.assertRaises(ParseError):
            benchlib.parse_result_cache("result cache: .squality-cache\n")


class BugStore(unittest.TestCase):
    def test_parses_the_summary_not_the_directory(self):
        err = ("bug store: s\n"
               "bug store: 0 hits, 164 misses, 82 stored, 0 corrupt "
               "(82 entries, 69187 bytes on disk)\n"
               "bug store: 82 added, 0 reused, 0 re-verified\n")
        got = benchlib.parse_bug_store(err)
        self.assertEqual(got["misses"], 164)
        self.assertEqual(got["bytes"], 69187)

    def test_missing_line_fails_loudly(self):
        with self.assertRaises(ParseError):
            benchlib.parse_bug_store("bug store: 82 added, 0 reused, 0 re-verified\n")


class Emitted(unittest.TestCase):
    def test_parses_counts_and_dir(self):
        out = "Emitted 82 verified repro files to o/ (0 reductions withheld as unverified)\n"
        self.assertEqual(benchlib.parse_emitted(out),
                         {"verified": 82, "dir": "o", "unverified": 0})

    def test_missing_line_is_not_zero(self):
        with self.assertRaises(ParseError):
            benchlib.parse_emitted("Triage table...\n")


class Replay(unittest.TestCase):
    def test_parses_transitions(self):
        out = "Replay: 82 entries, 80 still-failing, 1 fixed, 1 regressed (0 skipped)\n"
        self.assertEqual(benchlib.parse_replay(out)["regressed"], 1)

    def test_reworded_line_fails_loudly(self):
        with self.assertRaises(ParseError):
            benchlib.parse_replay("Replay: 82 entries, all fine\n")


class Summarize(unittest.TestCase):
    def test_median_and_quartiles(self):
        s = benchlib.summarize([5, 1, 3, 2, 4])
        self.assertEqual((s["n"], s["median"]), (5, 3))
        self.assertEqual((s["q1"], s["q3"]), (1.5, 4.5))

    def test_single_sample(self):
        s = benchlib.summarize([2.5])
        self.assertEqual((s["n"], s["median"], s["q1"], s["q3"]), (1, 2.5, 2.5, 2.5))
        self.assertIsNone(s["tail"])

    def test_empty_sample_is_an_error(self):
        with self.assertRaises(ValueError):
            benchlib.summarize([])

    def test_tail_needs_ten_samples_beyond_it(self):
        self.assertIsNone(benchlib.summarize(range(39))["tail"])
        self.assertEqual(benchlib.summarize(range(40))["tail"][0], 75)
        self.assertEqual(benchlib.summarize(range(200))["tail"][0], 95)
        self.assertEqual(benchlib.summarize(range(1000))["tail"][0], 99)

    def test_percentile_refuses_a_thin_tail(self):
        with self.assertRaises(ValueError):
            benchlib.percentile(range(999), 99)
        self.assertAlmostEqual(benchlib.percentile(range(1001), 99), 990.0)
        self.assertEqual(benchlib.percentile([1, 2, 3], 50), 2)

    def test_grouped_median_weighs_groups_equally(self):
        # Five passes on one corpus and one on the other: still half each.
        self.assertEqual(benchlib.grouped_median([[1, 1, 1, 1, 1], [3]]), 2)
        with self.assertRaises(ValueError):
            benchlib.grouped_median([])


class Names(unittest.TestCase):
    def test_metric_names(self):
        for good in ("wall_s", "engine.plan_cache.hit_ratio", "runner.file_ms.p99", "a-b"):
            self.assertTrue(benchlib.valid_metric_name(good), good)
        for bad in ("", "_x", ".x", "wall s", "a/b", "x" * 65, None):
            self.assertFalse(benchlib.valid_metric_name(bad), bad)

    def test_units(self):
        for good in ("s", "ms", "1/s", "count", "%", "MB"):
            self.assertTrue(benchlib.valid_unit(good), good)
        for bad in ("", "per second", "x" * 17):
            self.assertFalse(benchlib.valid_unit(bad), bad)

    def test_declared_metrics_are_valid(self):
        import run
        for name, unit in {**run.END_TO_END, **run.PER_LAYER}.items():
            self.assertTrue(benchlib.valid_metric_name(name), name)
            self.assertTrue(benchlib.valid_unit(unit), unit)


class Manifest(unittest.TestCase):
    """BENCHMARK.json must describe exactly what run.py reports."""

    def setUp(self):
        import json
        from pathlib import Path
        import run
        self.run = run
        path = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
        self.manifest = json.loads(path.read_text())

    def test_workloads_match(self):
        names = [w["name"] for w in self.manifest["workloads"]]
        self.assertEqual(names, list(self.run.WORKLOADS))

    def test_metrics_match(self):
        for key, declared in (("end_to_end", self.run.END_TO_END),
                              ("per_layer", self.run.PER_LAYER)):
            got = {m["name"]: m["unit"] for m in self.manifest[key]}
            self.assertEqual(got, declared, key)

    def test_bounds(self):
        bounds = {m["name"]: m["bound"] for m in self.manifest["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(max(bounds.values()), bounds["setup_s"])


class Sections(unittest.TestCase):
    REPORT = ("Table 1. DBMS\nrow\n\nFigure 1. Lines\nrow\n\nTable 2. Non-SQL\nrow\n\n"
              "Table 4. Running\nrow\n")

    def test_blocks_carry_their_separator(self):
        got = benchlib.split_sections(self.REPORT)
        self.assertEqual(got["table1"], "Table 1. DBMS\nrow\n\n")
        self.assertEqual(got["figure1"], "Figure 1. Lines\nrow\n\n")
        self.assertEqual(list(got), ["table1", "figure1", "table2", "table4"])

    def test_headings_only_count_at_line_start(self):
        got = benchlib.split_sections("Table 1. x\nsee Table 2. y\n")
        self.assertEqual(list(got), ["table1"])


if __name__ == "__main__":
    unittest.main()
