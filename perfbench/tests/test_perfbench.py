"""Tests of the pipeline benchmark.

    python3 -m unittest discover -s perfbench/tests

The helper tests are instant. The short-pass tests build the runner (as
perfbench/run.py does) and run every workload once plainly and once traced
with the smallest number of passes, through all of its correctness checks.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
import stats  # noqa: E402

# The metrics every workload must report, as the benchmark defines them.
REQUIRED_END_TO_END = ["jobs_per_s", "job_p50_ms", "job_p90_ms",
                    "sim_mops_per_s", "setup_s", "peak_rss_mb",
                    "tls_speedup_geomean", "pred_error_mean",
                    "profile_slowdown_geomean"]
REQUIRED_PER_LAYER = [
    "hydra.seq_ms", "hydra.spec_ms", "hydra.spec_kcycles_per_ms",
    "hydra.threads_started", "hydra.violation_ratio",
    "hydra.useful_cycle_ratio", "tracer.drain_ms", "tracer.events",
    "tracer.mevents_per_s", "tracer.select_ms", "tracer.overflow_threads",
    "trace.read_ms", "trace.write_ms", "trace.bytes_per_event",
    "interp.plain_ms", "interp.plain_minst_per_s", "interp.profiled_ms",
    "interp.profiled_minst_per_s", "frontend.build_ms", "frontend.ir_insts",
    "analysis.ms", "analysis.candidates", "analysis.static_rejects",
    "jit.annotate_ms", "jit.plan_ms", "jit.plans", "exec.image_ms",
    "exec.image_cache_hit_ratio", "corpus.oracle_ms", "corpus.variants",
    "corpus.false_rejects", "trace_overhead_ratio"]


def span(i, parent, name, layer, start, end, covers=()):
    return {"id": i, "job": 0, "parent": parent, "name": name,
            "layer": layer, "start_ms": start, "end_ms": end,
            "covers": list(covers)}


class HelperTest(unittest.TestCase):
    def test_percentile_is_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(stats.percentile(values, 50), 50)
        self.assertEqual(stats.percentile(values, 90), 90)
        self.assertEqual(stats.percentile(values, 100), 100)
        self.assertEqual(stats.percentile([7.0], 90), 7.0)
        self.assertEqual(stats.percentile([3, 1, 2], 50), 2)
        with self.assertRaises(ValueError):
            stats.percentile([], 50)

    def test_geomean(self):
        self.assertAlmostEqual(stats.geomean([1, 4]), 2.0)
        self.assertAlmostEqual(stats.geomean([2, 2, 2]), 2.0)
        with self.assertRaises(ValueError):
            stats.geomean([1, 0])

    def test_self_time_subtracts_children_and_covered_spans(self):
        spans = [
            span(0, -1, "job", "bench", 0, 10),
            span(1, 0, "jit.annotate", "jit", 1, 3),
            # A compound call that internally redoes span 1's work.
            span(2, 0, "tracer.profile_and_select", "tracer", 3, 8, [1]),
            span(3, 0, "hydra.run_speculative", "hydra", 8, 9.5),
        ]
        selfs = stats.self_times(spans)
        self.assertAlmostEqual(selfs[0], 10 - 2 - 5 - 1.5)
        self.assertAlmostEqual(selfs[1], 2)
        self.assertAlmostEqual(selfs[2], 5 - 2)
        self.assertAlmostEqual(selfs[3], 1.5)
        layers = stats.layer_self_ms(spans)
        self.assertAlmostEqual(layers["tracer"], 3)
        self.assertAlmostEqual(layers["bench"], 1.5)

    def test_nested_spans(self):
        spans = [span(0, -1, "job", "bench", 0, 10),
                 span(1, 0, "outer", "hydra", 0, 8),
                 span(2, 1, "inner", "jit", 2, 5)]
        selfs = stats.self_times(spans)
        self.assertAlmostEqual(selfs[0], 2)
        self.assertAlmostEqual(selfs[1], 5)
        self.assertAlmostEqual(selfs[2], 3)

    def test_hydra_self_time_is_seq_plus_spec(self):
        # The empty-selection run is traced-only work: the real
        # runSpeculative covers it and its own plan build.
        spans = [
            span(0, -1, "job", "bench", 0, 20),
            span(1, 0, "hydra.run_speculative_empty", "hydra", 10, 13),
            span(2, 0, "jit.plan", "jit", 13, 14),
            span(3, 0, "hydra.run_speculative", "hydra", 14, 20, [1, 2]),
        ]
        raw = {"spans": spans, "counts": {}, "setup": {}, "traced_jobs": 1,
               "overhead": {"traced_ms": 1.0, "untraced_ms": 1.0}}
        m = stats.per_layer(raw)
        self.assertAlmostEqual(m["hydra.seq_ms"], 3)
        self.assertAlmostEqual(m["hydra.spec_ms"], 6 - 1 - 3)
        self.assertAlmostEqual(m["hydra.self_ms"], 6 - 1)
        self.assertAlmostEqual(m["hydra.self_ms"],
                               m["hydra.seq_ms"] + m["hydra.spec_ms"])

    def test_host_scale_rescales_host_times_only(self):
        # The probe ran twice as long as on the reference host, so every
        # host time is halved and the simulated metrics stay as they are.
        raw = {"passes": [{"jobs": 3, "ms": 300.0, "ops": 1.2e6,
                           "probes": [2 * stats.PROBE_REF_MS] * 3}],
               "job_ms": [80.0, 100.0, 120.0], "setup_s": [3.0, 2.0, 4.0],
               "sim": [[100, 120, 50, 60.0]], "peak_rss_mb": 20.0}
        self.assertAlmostEqual(stats.run_scale(raw), 0.5)
        plain = stats.end_to_end(raw, scaled=False)
        scaled = stats.end_to_end(raw)
        self.assertAlmostEqual(plain["jobs_per_s"], 10.0)
        self.assertAlmostEqual(plain["job_p50_ms"], 100.0)
        self.assertAlmostEqual(scaled["jobs_per_s"], 20.0)
        self.assertAlmostEqual(scaled["sim_mops_per_s"], 8.0)
        self.assertAlmostEqual(scaled["job_p50_ms"], 50.0)
        self.assertAlmostEqual(scaled["job_p90_ms"], 60.0)
        self.assertAlmostEqual(scaled["setup_s"], 1.5)
        for name in ("peak_rss_mb", "tls_speedup_geomean",
                     "pred_error_mean", "profile_slowdown_geomean"):
            self.assertEqual(scaled[name], plain[name], name)

    def test_each_pass_is_scaled_by_its_own_probes(self):
        # Pass 1 ran on a host twice as slow, in host time and in probe.
        raw = {"passes": [{"jobs": 2, "ms": 20.0, "ops": 2.0,
                           "probes": [stats.PROBE_REF_MS]},
                          {"jobs": 2, "ms": 40.0, "ops": 2.0,
                           "probes": [2 * stats.PROBE_REF_MS] * 2}],
               "job_ms": [10.0, 10.0, 20.0, 20.0], "setup_s": [1.0],
               "sim": [[100, 120, 50, 60.0]], "peak_rss_mb": 20.0}
        m = stats.end_to_end(raw)
        self.assertAlmostEqual(m["jobs_per_s"], 100.0)
        self.assertAlmostEqual(m["job_p90_ms"], 10.0)
        # Set-up is scaled by the median of all three probes.
        self.assertAlmostEqual(stats.run_scale(raw), 0.5)


class CatalogTest(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            self.spec = json.load(f)

    def test_benchmark_json_matches_catalog(self):
        e2e = {m["name"]: m["unit"] for m in self.spec["end_to_end"]}
        layer = {m["name"]: m["unit"] for m in self.spec["per_layer"]}
        self.assertEqual(e2e, stats.END_TO_END)
        self.assertEqual(layer, stats.PER_LAYER)
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         list(run.WORKLOADS))

    def test_every_named_metric_is_defined(self):
        for name in REQUIRED_END_TO_END:
            self.assertIn(name, stats.END_TO_END)
        for name in REQUIRED_PER_LAYER:
            self.assertIn(name, stats.PER_LAYER)
        for layer in stats.LAYERS:
            self.assertIn(layer + ".self_ms", stats.PER_LAYER)


class ShortPassTest(unittest.TestCase):
    """One short plain run and one short traced run per workload."""

    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()
        cls.out = os.path.join(ROOT, ".bench_out", "tests")
        os.makedirs(cls.out, exist_ok=True)

    def drive(self, workload, trace, refs=None):
        raw = os.path.join(self.out, "%s-%d.json" % (workload, trace))
        done = subprocess.run(
            [self.binary, "run", "--workload", workload, "--seed", "5",
             "--seconds", "0", "--trace", str(trace),
             "--work", os.path.join(self.out, "work-" + workload),
             "--refs", refs or os.path.join(BENCH, "reference"),
             "--out", raw],
            capture_output=True, text=True, timeout=170, check=False)
        self.assertEqual(done.returncode, 0, done.stderr)
        with open(raw) as f:
            return json.load(f)

    def check(self, workload):
        plain = self.drive(workload, 0)
        self.assertTrue(plain["correct"], plain["failures"])
        self.assertEqual(plain["failed"], 0)
        self.assertGreaterEqual(plain["attempted"], 100)
        e2e = stats.end_to_end(plain)
        self.assertEqual(set(e2e), set(stats.END_TO_END))
        for name, value in e2e.items():
            self.assertGreater(value, 0, name)

        traced = self.drive(workload, 1)
        self.assertTrue(traced["correct"], traced["failures"])
        layer = stats.per_layer(traced)
        self.assertEqual(set(layer), set(stats.PER_LAYER))
        self.assertGreater(layer["trace_overhead_ratio"], 0)
        return layer

    def test_registry_and_corpus(self):
        registry = self.check("registry")
        top = max(stats.LAYERS, key=lambda n: registry[n + ".self_share"])
        self.assertEqual(top, "hydra")

        corpus = self.check("corpus")
        self.assertGreater(corpus["frontend.build_ms"], 0)
        self.assertGreater(corpus["corpus.oracle_ms"], 0)
        self.assertEqual(corpus["corpus.false_rejects"], 0)

        def front(layer):
            return layer["frontend.self_share"] + layer["analysis.self_share"]
        self.assertGreater(front(corpus), 2 * front(registry))

    def test_replay_sweep(self):
        layer = self.check("replay_sweep")
        for name in ("hydra", "interp", "analysis"):
            self.assertEqual(layer[name + ".self_ms"], 0)
        self.assertGreater(layer["tracer.drain_ms"], 0)
        self.assertGreater(layer["trace.read_ms"], 0)

    def test_tampered_reference_fails_the_run(self):
        refs = os.path.join(self.out, "tampered")
        shutil.rmtree(refs, ignore_errors=True)
        os.makedirs(refs)
        with open(os.path.join(BENCH, "reference", "corpus.json")) as f:
            doc = json.load(f)
        # Every pass runs some variant of every template: corrupt the
        # pinned outcome of all variants of the first one.
        template = sorted(doc["entries"])[0].split("#")[0]
        for key, value in doc["entries"].items():
            if key.split("#")[0] == template:
                program, outcome = value.split(":")
                doc["entries"][key] = program + ":" + "0" * len(outcome)
        with open(os.path.join(refs, "corpus.json"), "w") as f:
            json.dump(doc, f)
        result = self.drive("corpus", 0, refs)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertIn("differ from the reference", " ".join(result["failures"]))


if __name__ == "__main__":
    unittest.main()
