"""Tests of the benchmark's own rules. Run from the repository root:

    python3 -m unittest discover -s perfbench/tests
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)

import benchlib  # noqa: E402
import run  # noqa: E402


def make_record(ops, checks_attempted=0, checks_failed=0):
    return {"workload": "fig10_sweep", "threads": 4, "ops": ops, "setup_s": [1.0, 2.0, 3.0],
            "checks_attempted": checks_attempted, "checks_failed": checks_failed,
            "peak_rss_mb": 10.0, "values": {"paper_epi_gap_pp": 3.0}, "spans": [],
            "errors": [], "sim_digest": "d",
            "build": {"compiler": "GNU 13", "flags": "-O2  -g", "build_type": "RelWithDebInfo",
                      "ipo": "ON", "git_describe": "abc"}}


class PercentileRule(unittest.TestCase):
    def test_p90_needs_ten_samples_beyond(self):
        samples = list(range(1, 101))  # 100 samples: p90 leaves exactly 10 above
        self.assertEqual(benchlib.tail_percentile(samples), (90, 90))

    def test_falls_back_to_highest_percentile_with_ten_beyond(self):
        samples = list(range(1, 41))  # 40 samples: p75 leaves 10 above, p76 leaves 9
        self.assertEqual(benchlib.tail_percentile(samples), (75, 30))

    def test_too_few_samples_reports_the_median(self):
        self.assertEqual(benchlib.tail_percentile([5, 1, 3]), (50, 3))

    def test_order_does_not_matter(self):
        samples = [float(x) for x in range(200)]
        self.assertEqual(benchlib.tail_percentile(samples[::-1]),
                         benchlib.tail_percentile(samples))

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            benchlib.tail_percentile([])


class SelfTime(unittest.TestCase):
    def test_children_are_subtracted_once(self):
        spans = [["root", 0, 100, -1, 0],
                 ["a", 10, 30, 0, 0],
                 ["b", 20, 50, 0, 0],   # overlaps a: the union 10..50 counts once
                 ["leaf", 60, 70, 0, 0]]
        self.assertEqual(benchlib.self_times(spans), [50, 20, 30, 10])

    def test_child_on_another_thread_is_not_subtracted(self):
        spans = [["root", 0, 100, -1, 0], ["worker", 10, 40, 0, 1]]
        self.assertEqual(benchlib.self_times(spans), [100, 30])

    def test_child_is_clipped_to_its_parent(self):
        spans = [["root", 0, 100, -1, 0], ["late", 90, 130, 0, 0]]
        self.assertEqual(benchlib.self_times(spans)[0], 90)

    def test_open_spans_count_zero(self):
        spans = [["root", 0, 100, -1, 0], ["open", 10, 0, 0, 0]]
        self.assertEqual(benchlib.self_times(spans), [100, 0])

    def test_coverage_per_thread_never_exceeds_one(self):
        spans = [["root", 0, 100, -1, 0], ["a", 10, 90, 0, 0], ["b", 20, 30, 1, 0],
                 ["gap", 150, 200, -1, 0], ["t1", 0, 10, -1, 1]]
        coverage = benchlib.thread_coverage(spans)
        self.assertAlmostEqual(coverage[0], 150 / 200)
        self.assertAlmostEqual(coverage[1], 1.0)


    def test_unattributed_share_is_not_clamped(self):
        # The mirror's layer spans cover 120 of a 100-long reference sweep.
        record = make_record([[1.0, 1, 1, 0, True, True]])
        record["spans"] = [["sweep.mirror", 0, 130, -1, 0], ["replay.batch", 0, 120, 0, 0],
                           ["sweep.run_1t", 200, 300, -1, 0]]
        self.assertAlmostEqual(benchlib.per_layer(record)["sweep.unattributed_frac"], -0.2)


class ErrorCounting(unittest.TestCase):
    def test_failed_ops_and_checks_both_count(self):
        ops = [[10.0, 5, 100, 0, False, True], [11.0, 5, 100, 1, False, False],
               [12.0, 5, 100, 2, False, True]]
        record = make_record(ops, checks_attempted=2, checks_failed=1)
        self.assertEqual(benchlib.count_errors(record), (5, 2))

    def test_error_rate_in_the_traced_metrics(self):
        ops = [[10.0, 5, 100, 0, False, False], [10.0, 5, 100, 1, True, True]]
        metrics = benchlib.per_layer(make_record(ops))
        self.assertAlmostEqual(metrics["error_rate"], 0.5)

    def test_final_line_reports_incorrect(self):
        ops = [[10.0, 5, 100, 0, False, False]]
        args = run.parse_args(["--workload", "fig10_sweep", "--seed", "1",
                               "--seconds", "1", "--trace", "0"])
        result, line = run.summarize(args, make_record(ops))
        self.assertFalse(line["correct"])
        self.assertEqual((line["attempted"], line["failed"]), (1, 1))
        self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
        self.assertFalse(result["correct"])


class EndToEnd(unittest.TestCase):
    def test_rates_are_medians_over_groups(self):
        ops = [[1000.0, 10, 1e6, 0, False, True],   # 10 legs/s
               [500.0, 10, 1e6, 1, False, True],    # 20 legs/s
               [250.0, 10, 1e6, 2, False, True],    # 40 legs/s
               [1.0, 99, 1e6, 3, True, True]]       # traced: left out
        metrics, _ = benchlib.end_to_end(make_record(ops))
        self.assertAlmostEqual(metrics["legs_per_s"], 20.0)
        self.assertAlmostEqual(metrics["sim_minstr_per_s"], 2.0)
        self.assertAlmostEqual(metrics["job_ms_p50"], 500.0)
        self.assertAlmostEqual(metrics["leg_ms_p50"], 500.0 * 4 / 10)
        self.assertAlmostEqual(metrics["setup_s"], 2.0)

    def test_failed_ops_without_legs_are_left_out_of_leg_times(self):
        ops = [[100.0, 10, 1e6, 0, False, True], [50.0, 0, 0, 1, False, False]]
        metrics, timing = benchlib.end_to_end(make_record(ops))
        self.assertEqual(timing["leg_ms"]["n"], 1)
        self.assertAlmostEqual(metrics["leg_ms_p50"], 100.0 * 4 / 10)


class Fingerprint(unittest.TestCase):
    def result(self, seed, digest, value, **host):
        fingerprint = {"cores": 4, "cpu_model": "x", "compiler": "GNU 13", "flags": "-O2",
                       "build_type": "RelWithDebInfo", "ipo": "ON", "git_describe": "v1"}
        fingerprint.update(host)
        return {"seed": seed, "sim_digest": digest, "fingerprint": fingerprint,
                "metrics": {"legs_per_s": value}}

    BOUNDS = {"legs_per_s": ("higher", 0.1)}

    def test_host_change_gives_no_verdict(self):
        base = [self.result(1, "a", 100.0)]
        new = [self.result(1, "a", 10.0, cores=8)]
        report = benchlib.compare(base, new, self.BOUNDS)
        self.assertEqual(report["verdict"], "host changed")
        self.assertEqual(report["host_changed"], ["cores"])
        self.assertEqual(report["rows"], [])

    def test_git_describe_alone_is_not_a_host_change(self):
        base = [self.result(1, "a", 100.0)]
        new = [self.result(1, "a", 99.0, git_describe="v2")]
        self.assertEqual(benchlib.compare(base, new, self.BOUNDS)["verdict"], "pass")

    def test_regression_beyond_the_bound_fails(self):
        base = [self.result(1, "a", 100.0)]
        new = [self.result(1, "a", 80.0)]
        self.assertEqual(benchlib.compare(base, new, self.BOUNDS)["verdict"], "fail")

    def test_digest_change_is_flagged(self):
        base = [self.result(1, "a", 100.0), self.result(2, "b", 100.0)]
        new = [self.result(1, "a", 100.0), self.result(2, "c", 100.0)]
        report = benchlib.compare(base, new, self.BOUNDS)
        self.assertEqual(report["sim_changed"], [2])

    def test_fingerprint_reads_the_build_stamp(self):
        fingerprint = benchlib.fingerprint(make_record([]))
        self.assertEqual(fingerprint["flags"], "-O2 -g")
        self.assertEqual(fingerprint["git_describe"], "abc")
        self.assertEqual(fingerprint["cores"], os.cpu_count())


class SeedPlumbing(unittest.TestCase):
    def test_seed_reaches_the_harness_command(self):
        args = run.parse_args(["--workload", "serve_overlap", "--seed", "42",
                               "--seconds", "2.5", "--trace", "1"])
        command = run.harness_command(args, "vcbench", "/tmp/s", "/tmp/r.json")
        self.assertEqual(command[command.index("--seed") + 1], "42")
        self.assertEqual(command[command.index("--seconds") + 1], "2.5")
        self.assertEqual(command[command.index("--trace") + 1], "1")

    def test_negative_seed_is_rejected(self):
        with self.assertRaises(SystemExit):
            run.parse_args(["--workload", "serve_overlap", "--seed", "-1",
                            "--seconds", "1", "--trace", "0"])

    @unittest.skipUnless(os.path.isfile(run.harness_path(run.build_dir())),
                         "harness not built (run perfbench/run.py once)")
    def test_same_seed_same_inputs_other_seed_other_inputs(self):
        binary = run.harness_path(run.build_dir())

        def digest(seed):
            with tempfile.TemporaryDirectory() as tmp:
                out = os.path.join(tmp, "record.json")
                args = run.parse_args(["--workload", "fig10_sweep", "--seed", str(seed),
                                       "--seconds", "0.001", "--trace", "0"])
                subprocess.run(run.harness_command(args, binary, tmp, out), check=True,
                               stdout=subprocess.DEVNULL)
                with open(out, encoding="utf-8") as f:
                    return json.load(f)["sim_digest"]

        self.assertEqual(digest(7), digest(7))
        self.assertNotEqual(digest(7), digest(8))


if __name__ == "__main__":
    unittest.main()
