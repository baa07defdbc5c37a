#!/usr/bin/env python3
"""Tests of the benchmark's own logic.

    python3 perfbench/test_run.py

Covers metric-name validation, the manifest rules, the output digest (a
corrupted digest must fail the run) and, through the compiled
perfbench_selftest, the percentile rule, the open-loop accounting and the
tracer's self-time arithmetic.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

OUTPUTS = "scheme NCL-Cache\nsuccess_ratio n=2 mean=0.5 var=0 min=0.5 max=0.5\n"


def raw_result(metrics, outputs=OUTPUTS):
    return {"correct": True, "attempted": 10, "failed": 0, "digest_units": 10,
            "metrics": metrics, "outputs": outputs}


class MetricNames(unittest.TestCase):
    def test_accepts_layer_names(self):
        for name in ["wall_s", "sim.engine_self_ns_per_tick",
                     "scheme.ncl.contact_s", "a-b", "9lives", "x" * 64]:
            self.assertTrue(run.valid_name(name), name)

    def test_rejects_malformed_names(self):
        for name in ["", "bad name", "x/y", ".lead", "-lead", "_lead", "naïve",
                     "x" * 65, "semi;colon", None, 3]:
            self.assertFalse(run.valid_name(name), name)

    def test_units(self):
        for unit in ["ms", "s", "1/s", "count", "%", "MiB"]:
            self.assertTrue(run.valid_unit(unit), unit)
        for unit in ["", "m s", "x" * 17]:
            self.assertFalse(run.valid_unit(unit), unit)

    def test_harness_name_outside_the_alphabet_is_an_error(self):
        raw = {"setup_s": 1.0, "wall_s": 1.0, "peak_rss_mib": 1.0, "wall s": 2.0}
        _, errors = run.collect_metrics(raw, run.END_TO_END, fill_missing=False)
        self.assertEqual(errors, ["invalid metric name 'wall s'"])

    def test_unknown_missing_and_non_finite(self):
        raw = {"wall_s": float("nan"), "peak_rss_mib": 1.0, "bogus": 2.0}
        _, errors = run.collect_metrics(raw, run.END_TO_END, fill_missing=False)
        self.assertIn("unknown metric bogus", errors)
        self.assertIn("missing metric setup_s", errors)
        self.assertIn("metric wall_s is not finite", errors)

    def test_per_layer_metrics_of_unused_layers_read_zero(self):
        metrics, errors = run.collect_metrics({"sim.run_s": 1.5}, run.PER_LAYER,
                                              fill_missing=True)
        self.assertEqual(errors, [])
        self.assertEqual(len(metrics), len(run.PER_LAYER))
        self.assertEqual(metrics["sim.run_s"], {"value": 1.5, "unit": "s"})
        self.assertEqual(metrics["daemon.warm_start_s"]["value"], 0.0)


class Manifest(unittest.TestCase):
    def test_manifest_follows_the_rules(self):
        self.assertEqual(run.check_manifest(run.manifest()), [])

    def test_rule_violations_are_found(self):
        broken = run.manifest()
        broken["end_to_end"] = [dict(m) for m in broken["end_to_end"]]
        broken["end_to_end"][1]["bound"] = 0.3
        broken["end_to_end"].append(dict(broken["end_to_end"][0]))
        errors = run.check_manifest(broken)
        self.assertIn("bound of wall_s outside (0, 0.25]", errors)
        self.assertIn("name used twice: setup_s", errors)

    def test_checked_in_file_is_current(self):
        self.assertEqual(json.loads(run.MANIFEST.read_text()), run.manifest())


class Digest(unittest.TestCase):
    def setUp(self):
        self.good = run.digest(OUTPUTS)
        self.corrupted = ("0" if self.good[0] != "0" else "1") + self.good[1:]

    def test_recorded_outputs_pass(self):
        self.assertTrue(run.outputs_match("w", run.DEFAULT_SEED, OUTPUTS,
                                          {"w": self.good}))

    def test_corrupted_digest_fails_the_run(self):
        self.assertFalse(run.outputs_match("w", run.DEFAULT_SEED, OUTPUTS,
                                           {"w": self.corrupted}))
        metrics = {"setup_s": 1.0, "wall_s": 1.0, "peak_rss_mib": 1.0}
        result = run.result_for("w", run.DEFAULT_SEED, raw_result(metrics), 0,
                                {"w": self.corrupted})
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 10)

    def test_changed_last_digit_fails(self):
        changed = OUTPUTS.replace("mean=0.5", "mean=0.50000000000000011")
        self.assertFalse(run.outputs_match("w", run.DEFAULT_SEED, changed,
                                           {"w": self.good}))

    def test_missing_digest_fails(self):
        self.assertFalse(run.outputs_match("w", run.DEFAULT_SEED, OUTPUTS, {}))

    def test_other_seeds_rely_on_the_harness_invariants(self):
        self.assertTrue(run.outputs_match("w", run.DEFAULT_SEED + 1, OUTPUTS,
                                          {"w": self.corrupted}))

    def test_every_workload_has_a_recorded_digest(self):
        recorded = json.loads(run.DIGESTS.read_text())
        self.assertEqual(sorted(recorded), sorted(w["name"] for w in run.WORKLOADS))


class CompiledLogic(unittest.TestCase):
    def test_selftest(self):
        run.build()
        proc = subprocess.run([str(run.SELFTEST)], capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stderr)


if __name__ == "__main__":
    unittest.main()
