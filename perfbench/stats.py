"""Statistics and metric definitions of the pipeline benchmark.

The runner binary (perfbench/runner) writes raw measurements: per-pass and
per-job host (CPU) times, host-speed probes, simulated cycles, and in a
traced run the spans around every layer call. This module turns them into
the metrics named in BENCHMARK.json; perfbench/BENCH.md documents each one.
"""

import math
from collections import defaultdict
from statistics import median

# Median host time of one host-speed probe (perfbench/runner/main.cpp,
# probeMs) on the 4-core Xeon guest the benchmark was tuned on. The
# end-to-end timings are scaled to a host where the probe takes this long.
PROBE_REF_MS = 2.1

LAYERS = ("frontend", "analysis", "jit", "exec", "interp", "tracer", "trace",
          "hydra", "corpus")

# name -> unit, in the order they are printed.
END_TO_END = {
    "jobs_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "sim_mops_per_s": "Mops/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "tls_speedup_geomean": "x",
    "pred_error_mean": "ratio",
    "profile_slowdown_geomean": "x",
}

PER_LAYER = {
    "hydra.seq_ms": "ms",
    "hydra.spec_ms": "ms",
    "hydra.spec_kcycles_per_ms": "kcycles/ms",
    "hydra.threads_started": "count/job",
    "hydra.violation_ratio": "ratio",
    "hydra.useful_cycle_ratio": "ratio",
    "tracer.drain_ms": "ms",
    "tracer.events": "count/job",
    "tracer.mevents_per_s": "Mevents/s",
    "tracer.select_ms": "ms",
    "tracer.overflow_threads": "count/job",
    "trace.read_ms": "ms",
    "trace.write_ms": "ms",
    "trace.bytes_per_event": "B/event",
    "interp.plain_ms": "ms",
    "interp.plain_minst_per_s": "Minst/s",
    "interp.profiled_ms": "ms",
    "interp.profiled_minst_per_s": "Minst/s",
    "frontend.build_ms": "ms",
    "frontend.ir_insts": "count/job",
    "analysis.ms": "ms",
    "analysis.candidates": "count/job",
    "analysis.static_rejects": "count/job",
    "jit.annotate_ms": "ms",
    "jit.plan_ms": "ms",
    "jit.plans": "count/job",
    "exec.image_ms": "ms",
    "exec.image_cache_hit_ratio": "ratio",
    "corpus.oracle_ms": "ms",
    "corpus.variants": "count",
    "corpus.false_rejects": "count/job",
    "trace_overhead_ratio": "ratio",
}
for _layer in LAYERS:
    PER_LAYER[_layer + ".self_ms"] = "ms"
    PER_LAYER[_layer + ".self_share"] = "ratio"
PER_LAYER["bench.self_ms"] = "ms"


def percentile(values, q):
    """Nearest-rank percentile: the smallest value with at least q% of the
    samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def geomean(values):
    if not values or any(v <= 0 for v in values):
        raise ValueError("geomean needs positive samples")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def ratio(num, den):
    return num / den if den else 0.0


def self_times(spans):
    """Self time of every span, by id: its duration minus its children's
    durations minus the spans it covers (sub-steps a compound call performs
    internally, measured by the benchmark calling them on their own)."""
    by_id = {s["id"]: s for s in spans}
    children = defaultdict(float)
    for s in spans:
        if s["parent"] >= 0:
            children[s["parent"]] += s["end_ms"] - s["start_ms"]
    out = {}
    for s in spans:
        covered = sum(by_id[c]["end_ms"] - by_id[c]["start_ms"]
                      for c in s["covers"])
        out[s["id"]] = s["end_ms"] - s["start_ms"] - children[s["id"]] - covered
    return out


def layer_self_ms(spans):
    """Total self time per layer ("bench" is the harness's own glue)."""
    selfs = self_times(spans)
    out = defaultdict(float)
    for s in spans:
        out[s["layer"]] += selfs[s["id"]]
    return out


def host_scale(probes):
    """Factor that turns a host time measured while the probes ran into one
    on the reference host: PROBE_REF_MS over their median. Below 1 when the
    host ran slower than the reference."""
    return PROBE_REF_MS / median(probes)


def run_scale(raw):
    """host_scale over every probe of the run."""
    return host_scale([p for ps in raw["passes"] for p in ps["probes"]])


def end_to_end(raw, scaled=True):
    """End-to-end metrics of an untraced run. Each pass's host times are
    scaled by its own probes, and set-up by the whole run's; scaled=False
    gives the unscaled host times."""
    passes = raw["passes"]
    scales = [host_scale(p["probes"]) if scaled else 1.0 for p in passes]
    job_ms = []
    for p, scale in zip(passes, scales):
        first = len(job_ms)
        job_ms += [ms * scale
                   for ms in raw["job_ms"][first:first + p["jobs"]]]
    sim = raw["sim"]
    plain = [row[0] for row in sim]
    profiled = [row[1] for row in sim]
    tls = [row[2] for row in sim]
    predicted = [row[3] for row in sim]
    return {
        "jobs_per_s": median([p["jobs"] / (p["ms"] * s / 1e3)
                              for p, s in zip(passes, scales)]),
        "job_p50_ms": percentile(job_ms, 50),
        "job_p90_ms": percentile(job_ms, 90),
        "sim_mops_per_s": median([p["ops"] / (p["ms"] * s / 1e3) / 1e6
                                  for p, s in zip(passes, scales)]),
        "setup_s": median(raw["setup_s"])
        * (run_scale(raw) if scaled else 1.0),
        "peak_rss_mb": raw["peak_rss_mb"],
        "tls_speedup_geomean": geomean([p / t for p, t in zip(plain, tls)]),
        "pred_error_mean": sum(abs(pred / pf - t / p) for p, pf, t, pred
                               in zip(plain, profiled, tls, predicted))
        / len(sim),
        "profile_slowdown_geomean": geomean([pf / p for p, pf
                                             in zip(plain, profiled)]),
    }


def per_layer(raw):
    """Per-layer metrics of a traced run: per-job means over traced jobs."""
    spans = raw["spans"]
    counts = defaultdict(float, raw["counts"])
    setup = raw["setup"]
    jobs = raw["traced_jobs"]
    selfs = self_times(spans)
    dur = defaultdict(float)
    self_by_name = defaultdict(float)
    for s in spans:
        dur[s["name"]] += s["end_ms"] - s["start_ms"]
        self_by_name[s["name"]] += selfs[s["id"]]

    def per_job(total):
        return total / jobs

    # The real runSpeculative span covers the empty-selection run, so its
    # self time is already the real call minus its plan build and seq_ms.
    seq_ms = per_job(dur["hydra.run_speculative_empty"])
    spec_ms = per_job(self_by_name["hydra.run_speculative"])
    drain_total = (self_by_name["tracer.profile_and_select"]
                   + dur["tracer.replay_drain"])
    hits, misses = counts["exec.image_hits"], counts["exec.image_misses"]
    m = {
        "hydra.seq_ms": seq_ms,
        "hydra.spec_ms": spec_ms,
        "hydra.spec_kcycles_per_ms": ratio(counts["hydra.spec_cycles"] / 1e3,
                                           spec_ms * jobs),
        "hydra.threads_started": per_job(counts["hydra.threads_started"]),
        "hydra.violation_ratio": ratio(counts["hydra.threads_violated"],
                                       counts["hydra.threads_started"]),
        "hydra.useful_cycle_ratio": ratio(counts["hydra.useful_cycles"],
                                          counts["hydra.core_cycles"]),
        "tracer.drain_ms": per_job(drain_total),
        "tracer.events": per_job(counts["tracer.events"]),
        "tracer.mevents_per_s": ratio(counts["tracer.events"] / 1e3,
                                      drain_total),
        "tracer.select_ms": per_job(dur["tracer.select_stls"]),
        "tracer.overflow_threads": per_job(counts["tracer.overflow_threads"]),
        "trace.read_ms": per_job(dur["trace.decode"]),
        "trace.write_ms": setup.get("trace.write_ms", 0.0),
        "trace.bytes_per_event": setup.get("trace.bytes_per_event", 0.0),
        "interp.plain_ms": per_job(dur["interp.run_plain"]),
        "interp.plain_minst_per_s": ratio(counts["interp.plain_insts"] / 1e3,
                                          dur["interp.run_plain"]),
        "interp.profiled_ms": per_job(dur["interp.run_annotated_nosink"]),
        "interp.profiled_minst_per_s": ratio(
            counts["interp.profiled_insts"] / 1e3,
            dur["interp.run_annotated_nosink"]),
        "frontend.build_ms": per_job(dur["frontend.build"]),
        "frontend.ir_insts": per_job(counts["frontend.ir_insts"]),
        "analysis.ms": per_job(dur["analysis.jrpm_ctor"]),
        "analysis.candidates": per_job(counts["analysis.candidates"]),
        "analysis.static_rejects": per_job(counts["analysis.static_rejects"]),
        "jit.annotate_ms": per_job(dur["jit.annotate"]),
        "jit.plan_ms": per_job(dur["jit.plan"]),
        "jit.plans": per_job(counts["jit.plans"]),
        "exec.image_ms": per_job(dur["exec.image"]),
        "exec.image_cache_hit_ratio": ratio(hits, hits + misses),
        "corpus.oracle_ms": per_job(dur["corpus.run_oracles"]),
        "corpus.variants": counts["corpus.variants"],
        "corpus.false_rejects": per_job(counts["corpus.false_rejects"]),
        "trace_overhead_ratio": ratio(raw["overhead"]["traced_ms"],
                                      raw["overhead"]["untraced_ms"]),
    }
    layer = layer_self_ms(spans)
    total = sum(layer[name] for name in LAYERS)
    for name in LAYERS:
        m[name + ".self_ms"] = per_job(layer[name])
        m[name + ".self_share"] = ratio(layer[name], total)
    m["bench.self_ms"] = per_job(layer["bench"])
    return m
