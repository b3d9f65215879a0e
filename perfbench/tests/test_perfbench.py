"""Self-test of the benchmark: a smoke-size pass of every workload, the gate
counting wrong answers, the tracer, and BENCHMARK.json agreeing with what
a run reports.

    python3 -m unittest discover -s perfbench/tests

Run it from the root of a checkout; it needs no package beyond the
standard library.
"""
import json
import statistics
import subprocess
import sys
import tempfile
import unittest
from dataclasses import replace
from pathlib import Path
from unittest import mock

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import stats  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from racover import pipeline, search  # noqa: E402


def smoke(workload, seed=0, mode="pass", size=workloads.SMOKE):
    with tempfile.TemporaryDirectory() as tmp:
        return worker.run_pass(workload, seed, mode, Path(tmp) / "work", size)


class SmokeTest(unittest.TestCase):
    def test_every_workload_passes_its_gate(self):
        for workload, attempted in (("classify", 2), ("extend", 4), ("chain", 8)):
            for seed in (0, 1):
                with self.subTest(workload=workload, seed=seed):
                    out = smoke(workload, seed)
                    self.assertEqual(out["problems"], [])
                    self.assertEqual((out["attempted"], out["failed"]), (attempted, 0))
                    self.assertGreater(out["solve_s"], 0)

    def test_traced_pass_reports_every_layer_and_restores_the_library(self):
        original = search.enumerate_small_covers
        out = smoke("chain", mode="trace")
        self.assertEqual(out["failed"], 0)
        self.assertIs(search.enumerate_small_covers, original)
        self.assertIs(pipeline.enumerate_small_covers, original)
        layers = {k: v[0] for k, v in out["layers"].items()}
        self.assertEqual(list(layers), [n for n, _ in tracer.metric_names()])
        self.assertEqual(layers["pipeline.certify.calls"], 2)
        self.assertGreater(layers["polytopes.Polytope.calls"], 0)
        self.assertGreater(layers["colouring.canonical_form.calls"], 0)
        self.assertGreaterEqual(layers["covers.build_cover.copies"], layers["covers.build_cover.calls"])
        self.assertLessEqual(layers["pipeline.certify.self_s"], layers["pipeline.certify.s"])
        self.assertAlmostEqual(
            layers["pipeline.certify.n1.s"] + layers["pipeline.certify.n3.s"],
            layers["pipeline.certify.s"])


class GateTest(unittest.TestCase):
    def test_wrong_answer_counts_as_failed(self):
        real = search.enumerate_chromatic_colourings

        def off_by_one(P, k, budget=None):
            r = real(P, k, budget)
            return replace(r, count=r.count + 1)

        with mock.patch.object(search, "enumerate_chromatic_colourings", off_by_one):
            out = smoke("classify")
        self.assertEqual((out["attempted"], out["failed"]), (2, 1))
        row = [r for r in run.stage_rows([out]) if r[0] == "ops_failed_ratio"][0]
        self.assertEqual(row[3], 0.5)

    def test_exception_counts_as_failed(self):
        real = pipeline.certify

        def broken(n, policy="max-symmetry", budget=None):
            if n == 3:
                raise RuntimeError("boom")
            return real(n, policy, budget)

        with mock.patch.object(pipeline, "certify", broken):
            out = smoke("chain")
        # certify 3 fails, so neither write 3 nor its read-back is attempted
        self.assertEqual((out["attempted"], out["failed"]), (5, 1))

    def test_recorded_exhaustion_must_recur_under_the_recorded_budget(self):
        real = search.search_orientable_extension

        def gives_up(Z, seed, budget=None):
            if budget is None:
                return real(Z, seed)
            return search.SearchOutcome("budget-out", None, budget.nodes + 1, 0.0)

        # the first two non-orientable classes at facet 0: class 0 is recorded
        # budget-out, class 1 exhausted
        size = replace(workloads.SMOKE, rank4_nodes=workloads.RANK4_NODES)
        with mock.patch.object(search, "search_orientable_extension", gives_up):
            out = smoke("extend", size=size)
            self.assertEqual((out["attempted"], out["failed"]), (4, 1))
            self.assertIn("rank-4 class 1 facet 0", out["problems"][0])
            # under a smaller budget a give-up is no evidence of a regression
            self.assertEqual(smoke("extend")["failed"], 0)

    def test_default_seed_certificates_match_the_reference_bytes(self):
        ref = workloads.load_reference()
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp)
            from racover import fileio
            fileio.write_certificate(pipeline.certify(1), out)
            self.assertEqual(workloads.digests(out), ref["chain"]["digests"]["1"])
            self.assertIsNone(workloads.written_problem(out, ref["chain"]["digests"]["1"]))
            (out / "chain.json").write_text("{}")
            self.assertIn("chain.json", workloads.written_problem(out, ref["chain"]["digests"]["1"]))


class ContractTest(unittest.TestCase):
    def test_benchmark_json_lists_what_runs_report(self):
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([m["name"] for m in bench["end_to_end"]], [n for n, _ in run.END_TO_END])
        self.assertEqual([w["name"] for w in bench["workloads"]], list(run.WORKLOADS))
        self.assertEqual(sorted(run.WORKLOADS), sorted(workloads.JOBS))
        names = [n for n, _ in tracer.metric_names()]
        names += [f"job.{s}" for s in run.STAGES]
        names += ["job.seeds_decided", "job.ops_failed_ratio", "job.solve_s",
                  "trace.solve_s", "trace.overhead_s", "trace.spans"]
        self.assertEqual([m["name"] for m in bench["per_layer"]], names)

    def test_refuses_to_run_outside_a_checkout(self):
        with tempfile.TemporaryDirectory() as tmp:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", "classify", "--seed", "0",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")

    def test_spread_is_the_interquartile_range_over_the_median(self):
        values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]
        q1, mid, q3 = stats.quartiles(values)
        self.assertEqual([q1, q3], statistics.quantiles(values, n=4)[::2])
        self.assertEqual(mid, statistics.median(values))
        self.assertEqual(stats.spread(values), (q3 - q1) / mid)
        self.assertEqual(stats.spread([2.0]), 0.0)

    def test_tail_percentile_needs_ten_samples_beyond(self):
        self.assertIsNone(stats.tail(list(range(10))))
        self.assertEqual(stats.tail(list(range(1, 21))), (50, 10))
        self.assertEqual(stats.tail(list(range(1, 101)))[0], 90)


if __name__ == "__main__":
    unittest.main()
