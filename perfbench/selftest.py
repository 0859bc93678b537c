"""Self-test of the benchmark on tiny configurations, with negative controls.

    python3 perfbench/selftest.py

Each workload runs at a tiny size (L=8, coarse scale windows, a short CLI
list) in seconds and must emit every metric BENCHMARK.json names, with no
failed check.  Deliberately corrupted results must then be counted as
failures.
"""

import json
import math
import unittest
from unittest import mock

import run

SEED = 7
SECONDS = 1


class BenchmarkSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.spans, cls.workloads = run.import_benchmark()
        with open(run.ROOT / "BENCHMARK.json") as fh:
            cls.spec = json.load(fh)

    def tiny(self, workload, trace=0):
        result, report = run.run_workload(workload, SEED, SECONDS, trace, size="tiny")
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertGreaterEqual(result["attempted"], 1)
        return result, report

    def test_every_metric_named_and_correct(self):
        names = {"end_to_end": [m["name"] for m in self.spec["end_to_end"]],
                 "per_layer": [m["name"] for m in self.spec["per_layer"]]}
        self.assertEqual(names["per_layer"], run.per_layer_names(self.spans, self.workloads))
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         list(self.workloads.WORKLOADS))
        for workload in self.workloads.WORKLOADS:
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    result, report = self.tiny(workload, trace)
                    self.assertEqual(result["failed"], 0, report["failed_checks"])
                    self.assertTrue(result["correct"])
                    self.assertEqual(list(result["metrics"]), names[kind])
                    units = {m["name"]: m["unit"] for m in self.spec[kind]}
                    for metric, entry in result["metrics"].items():
                        self.assertEqual(entry["unit"], units[metric])
                        self.assertTrue(math.isfinite(entry["value"]))
                        if kind == "end_to_end":
                            self.assertGreater(entry["value"], 0.0)

    def test_scaled_quadratic_form_fails(self):
        real = self.workloads.frame.quadratic_form
        with mock.patch.object(self.workloads.frame, "quadratic_form",
                               lambda *a, **k: 1.001 * real(*a, **k)):
            result, _ = self.tiny("mexframe")
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)

    def test_nonzero_constant_mode_fails(self):
        real = self.workloads.frame.apply_summation

        def shifted(*args, **kwargs):
            out = real(*args, **kwargs)
            out.coeffs[0] = 1e-300
            return out

        with mock.patch.object(self.workloads.frame, "apply_summation", shifted):
            result, _ = self.tiny("mexframe")
        self.assertFalse(result["correct"])

    def test_loose_tightness_fails(self):
        real = self.workloads.needlets.tightness_ratio
        with mock.patch.object(self.workloads.needlets, "tightness_ratio",
                               lambda *a, **k: real(*a, **k) + 2e-8):
            result, _ = self.tiny("needlet")
        self.assertEqual(result["failed"], result["attempted"])

    def test_scaled_frame_element_fails(self):
        real = self.workloads.needlets.needlet_frame_element

        def scaled(*args, **kwargs):
            out = real(*args, **kwargs)
            out.coeffs *= 1.0 + 1e-9
            return out

        with mock.patch.object(self.workloads.needlets, "needlet_frame_element", scaled):
            result, _ = self.tiny("needlet")
        self.assertFalse(result["correct"])

    def test_scaled_needlet_analysis_fails(self):
        real = self.workloads.needlets.needlet_analyze

        def scaled(*args, **kwargs):
            out = real(*args, **kwargs)
            return {j: (1.0 + 1e-9) * values for j, values in out.items()}

        with mock.patch.object(self.workloads.needlets, "needlet_analyze", scaled):
            result, report = self.tiny("needlet")
        self.assertFalse(result["correct"])
        self.assertTrue(any("needlet energy" in m for m in report["failed_checks"]))

    def test_moved_cli_output_fails(self):
        real = self.workloads.Cli.__init__

        def corrupted(workload, *args, **kwargs):
            real(workload, *args, **kwargs)
            pins = workload.reference["needlet-diag"]
            pins["tails.json.records[0].eps3"] *= 1.0 + 1e-8

        with mock.patch.object(self.workloads.Cli, "__init__", corrupted):
            result, report = self.tiny("cli")
        self.assertFalse(result["correct"])
        self.assertTrue(any("eps3" in m for m in report["failed_checks"]))

    def test_nonzero_cli_exit_fails(self):
        with mock.patch.object(self.workloads.cli, "cmd_daubechies", lambda args: 3):
            result, report = self.tiny("cli")
        self.assertFalse(result["correct"])
        self.assertTrue(any("exited 3" in m for m in report["failed_checks"]))

    def test_tracer_restores_every_name(self):
        from mexneedlets import cli, frame, sphgrid
        before = (sphgrid.norm_assoc_legendre, frame.real_sh_matrix, cli.apply_summation,
                  sphgrid.BandGrid.synthesis)
        tracer = self.spans.Tracer()
        tracer.install()
        try:
            self.assertIsNot(sphgrid.norm_assoc_legendre, before[0])
            self.assertIsNot(frame.real_sh_matrix, before[1])
            self.assertIsNot(cli.apply_summation, before[2])
        finally:
            tracer.uninstall()
        after = (sphgrid.norm_assoc_legendre, frame.real_sh_matrix, cli.apply_summation,
                 sphgrid.BandGrid.synthesis)
        for old, new in zip(before, after):
            self.assertIs(old, new)


if __name__ == "__main__":
    run.cap_threads()
    unittest.main()
