"""Self-test of the benchmark harness; takes a few seconds.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import random
import re
import unittest

import run
import tracing
import workloads

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
BENCHMARK = run.ROOT / "BENCHMARK.json"


class SpecGeneratorTest(unittest.TestCase):
    def test_same_seed_same_specs_other_seed_other_specs(self):
        for name in workloads.WORKLOADS:
            self.assertEqual(workloads.generate(name, 3), workloads.generate(name, 3))
            self.assertNotEqual(workloads.generate(name, 3), workloads.generate(name, 4))

    def test_specs_have_the_slot_order_inside_the_range(self):
        for name, wl in workloads.WORKLOADS.items():
            lo, hi = wl["orders"]
            for seed in range(5):
                for spec, (shape, order, _) in zip(workloads.generate(name, seed), wl["slots"]):
                    R, elems = workloads.closure(
                        [(int(r), tuple(int(w) for w in ws.split(",")))
                         for r, ws in (g.split(":") for g in spec.text.split(";"))]
                    )
                    self.assertEqual(len(elems), order)
                    self.assertTrue(lo <= spec.order <= hi)
                    if shape == "two-generator":
                        self.assertLess(R, spec.order)

    def test_out_of_range_slot_is_rejected(self):
        with self.assertRaises(workloads.SpecError):
            workloads.draw_spec(random.Random(0), "cyclic", 20, None, (5, 13))


class MetricNamesTest(unittest.TestCase):
    def test_names_are_well_formed(self):
        for name in [*run.END_TO_END, *run.PER_LAYER, *workloads.WORKLOADS]:
            self.assertTrue(NAME.fullmatch(name), name)

    def test_benchmark_json_matches_the_harness(self):
        spec = json.loads(BENCHMARK.read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))


class FailureAccountingTest(unittest.TestCase):
    GOOD = workloads.Spec("5:1,1,3", 5, 2)

    @classmethod
    def setUpClass(cls):
        cls.cli = run.load_program()

    def run_fan(self, specs, passes=1):
        bench = run.Run(self.cli, "fan-large", 0, specs)
        for _ in range(passes):
            bench.run_pass()
        return bench

    def test_good_spec_passes_its_checks(self):
        bench = self.run_fan([self.GOOD], passes=2)
        self.assertEqual((bench.attempted, bench.failures), (2, []))

    def test_planted_bad_spec_counts_as_failed(self):
        bench = self.run_fan([self.GOOD, workloads.Spec("7:1,2,3", 7, 3)])
        self.assertEqual(bench.attempted, 2)
        self.assertEqual(len(bench.failures), 1)
        self.assertIn("exit code 2", bench.failures[0])

    def test_wrong_expected_rays_count_as_failed(self):
        bench = self.run_fan([workloads.Spec("5:1,1,3", 5, 3)])
        self.assertEqual(len(bench.failures), 1)

    def test_exception_counts_as_failed(self):
        import ghilb.ggraph

        original = ghilb.ggraph.enumerate_fixed_points

        def broken(G):
            raise RuntimeError("planted fault")

        ghilb.ggraph.enumerate_fixed_points = broken
        try:
            bench = self.run_fan([self.GOOD])
        finally:
            ghilb.ggraph.enumerate_fixed_points = original
        self.assertEqual(len(bench.failures), 1)
        self.assertIn("planted fault", bench.failures[0])

    def test_output_that_changes_between_repeats_counts_as_failed(self):
        import ghilb.ggraph

        original = ghilb.ggraph.enumerate_fixed_points
        calls = []

        def unstable(G):
            calls.append(G)
            fps = original(G)
            return fps[::-1] if len(calls) > 1 else fps

        ghilb.ggraph.enumerate_fixed_points = unstable
        try:
            bench = self.run_fan([self.GOOD], passes=2)
        finally:
            ghilb.ggraph.enumerate_fixed_points = original
        self.assertEqual(bench.attempted, 2)
        self.assertEqual(len(bench.failures), 1)
        self.assertIn("differs", bench.failures[0])


class TracingTest(unittest.TestCase):
    def test_traced_pass_fills_layers_and_restores_the_package(self):
        cli = run.load_program()
        import ghilb.linalg

        original = ghilb.linalg.rank_dense
        tracer = tracing.Tracer()
        tracer.install()
        try:
            bench = run.Run(cli, "verify-samples", 0, [workloads.Spec("5:1,1,3", 5, 2)])
            bench.run_pass()
        finally:
            tracer.uninstall()
        self.assertIs(ghilb.linalg.rank_dense, original)
        self.assertEqual(bench.failures, [])
        values = run.layer_metrics(tracer, 1, 0.0)
        self.assertEqual(set(values), set(run.PER_LAYER))
        self.assertGreaterEqual(values["koszul.homology_calls"], 25)
        self.assertEqual(values["groups.calls"], 1)
        self.assertEqual(values["ggraph.oracle_calls"], 1)
        self.assertEqual(values["ggraph.fixed_points"], 5)
        self.assertGreater(values["linalg.rank_s"], 0)

    def test_missing_name_reads_as_zero_calls(self):
        saved = tracing.TARGETS[:]
        tracing.TARGETS.append(("gone_s", "gone_calls", "ghilb.linalg", "no_such_function"))
        tracer = tracing.Tracer()
        try:
            tracer.install()
            tracer.uninstall()
        finally:
            tracing.TARGETS[:] = saved
        self.assertEqual(tracer.counts["gone_calls"], 0)


if __name__ == "__main__":
    unittest.main()
