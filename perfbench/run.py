#!/usr/bin/env python3
"""Pipeline benchmark: one command for every workload and metric.

    python3 perfbench/run.py --workload <registry|replay_sweep|corpus> \
        --seed <n> --seconds <s> --trace <0|1>

Run it from the root of the repository. It builds perfbench/runner against
the repository's sources (into the perfbench subdirectory of
$CARGO_TARGET_DIR when set, else of .bench_build), runs the workload in a
closed loop, checks every output against the pinned reference in
perfbench/reference, and prints each metric by name and unit.
The last line of standard output is the result as one JSON object. With
--trace 0 it holds the end-to-end metrics, with --trace 1 the per-layer
ones. Raw measurements, spans and the full result with its provenance go to
.bench_out/. The exit code is 0 only when every output was correct.
perfbench/BENCH.md describes the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import stats  # noqa: E402

WORKLOADS = ("registry", "replay_sweep", "corpus")
BUILD_TIMEOUT_S = 850
# The runner's own time beyond --seconds: three cold set-ups and the
# overshoot of the last pass.
RUN_SLACK_S = 140
RELEASE_NATIVE_NOTE = (
    "the release-native preset does not build on GCC 12: -Wrestrict false "
    "positive at src/corpus/Generator.h:47, so results use the default preset")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_to_stderr(cmd, timeout):
    """Runs cmd with its output on stderr in its own process group, so a
    timeout, SIGTERM or SIGINT stops every process it started (compilers
    under cmake too) and waits for them. Returns the exit code."""
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr,
                            start_new_session=True)

    def stop():
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()

    def on_signal(signum, _frame):
        stop()
        sys.exit(128 + signum)

    previous = {s: signal.signal(s, on_signal)
                for s in (signal.SIGTERM, signal.SIGINT)}
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        stop()
        raise
    finally:
        for s, handler in previous.items():
            signal.signal(s, handler)


def build_dir():
    """The benchmark's own build directory, a subdirectory of the build
    root, so that it never deletes a directory it did not create."""
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, root, "perfbench")


def build():
    """Configures (once) and builds the runner; returns the binary path."""
    out = build_dir()
    cache = os.path.join(out, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache) as f:
            home = [line.split("=", 1)[1].strip() for line in f
                    if line.startswith("CMAKE_HOME_DIRECTORY:")]
        if home and os.path.realpath(home[0]) != os.path.realpath(HERE):
            shutil.rmtree(out)  # configured for another checkout
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(cache):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "--target", "perfbench_jrpm",
                  "-j", jobs])
    for cmd in steps:
        if run_to_stderr(cmd, BUILD_TIMEOUT_S) != 0:
            raise RuntimeError("build step failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench_jrpm")


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_rev():
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10,
                              check=False)
    except (OSError, subprocess.SubprocessError):
        return "unavailable"
    rev = done.stdout.strip()
    return rev if done.returncode == 0 and rev else "unavailable (not a git checkout)"


def source_digest():
    """SHA-256 over the library sources and the benchmark, so a result
    names the code it measured even outside a git checkout."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(".pyc"):
                    continue
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def provenance(raw, args):
    p = dict(raw["provenance"])
    p.update({
        "host_nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "preset": "default (RelWithDebInfo, assertions on)",
        "git_rev": git_rev(),
        "source_sha256": source_digest(),
        "seed": args.seed,
        "workload": args.workload,
        "note": RELEASE_NATIVE_NOTE,
    })
    return p


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "jrpm", "Pipeline.h")):
        log("perfbench: the repository sources (src/) are missing next to "
            "perfbench/; run from a full checkout")
        return 2
    binary = build()

    out_dir = os.path.join(ROOT, ".bench_out")
    work = os.path.join(out_dir, "work-" + args.workload)
    os.makedirs(work, exist_ok=True)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    raw_path = os.path.join(out_dir, "raw-" + tag + ".json")
    cmd = [binary, "run", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--work", work,
           "--refs", os.path.join(HERE, "reference"), "--out", raw_path]
    code = run_to_stderr(cmd, args.seconds + RUN_SLACK_S)
    if code != 0:
        log("perfbench: runner exited with %d" % code)
        return 1
    with open(raw_path) as f:
        raw = json.load(f)

    prov = provenance(raw, args)
    extra = {}
    if args.trace:
        values, units = stats.per_layer(raw), stats.PER_LAYER
    else:
        values, units = stats.end_to_end(raw), stats.END_TO_END
        extra = {"host_scale": stats.run_scale(raw),
                 "unscaled_metrics": stats.end_to_end(raw, scaled=False),
                 "host_steal_share": raw["host_steal_share"]}
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}

    for key in ("compiler", "build_type", "preset", "cpu_model", "host_nproc",
                "git_rev", "source_sha256", "seed", "note"):
        print("provenance %-14s %s" % (key, prov[key]))
    print("workload %s: %d jobs attempted, %d failed, fail_ratio %.6f"
          % (args.workload, raw["attempted"], raw["failed"],
             stats.ratio(raw["failed"], raw["attempted"])))
    if not args.trace:
        print("samples: %d job latencies, %d passes, %d set-ups, %d "
              "simulated runs" % (len(raw["job_ms"]), len(raw["passes"]),
                                  len(raw["setup_s"]), len(raw["sim"])))
        print("host-speed scale %.4f: the median probe took %.4f ms, "
              "%.2f ms on the reference host; host steal %.2f%%"
              % (extra["host_scale"], stats.PROBE_REF_MS / extra["host_scale"],
                 stats.PROBE_REF_MS, 100 * extra["host_steal_share"]))
        for name in ("jobs_per_s", "job_p50_ms", "job_p90_ms",
                     "sim_mops_per_s", "setup_s"):
            print("unscaled %-21s %16.6f %s" % (name,
                                                extra["unscaled_metrics"][name],
                                                units[name]))
    else:
        print("samples: %d traced jobs, %d spans"
              % (raw["traced_jobs"], len(raw["spans"])))
    for name, m in metrics.items():
        print("%-30s %16.6f %s" % (name, m["value"], m["unit"]))
    for failure in raw["failures"]:
        print("FAIL " + failure)

    result = {"correct": bool(raw["correct"]), "attempted": raw["attempted"],
              "failed": raw["failed"], "metrics": metrics}
    with open(os.path.join(out_dir, "result-" + tag + ".json"), "w") as f:
        json.dump(dict(result, provenance=prov,
                       fail_ratio=stats.ratio(raw["failed"],
                                              raw["attempted"]), **extra),
                  f, indent=2, sort_keys=True)
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
