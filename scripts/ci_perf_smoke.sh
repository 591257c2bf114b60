#!/usr/bin/env bash
# Throughput smoke gates.
#
# Runs bench_exec_throughput and bench_tracer_throughput in --quick mode
# (first 8 registry workloads, soft 1.2x gates):
#
#   - bench_exec_throughput gates the flat CodeImage interpreter's
#     instructions/sec over the embedded seed nested-layout interpreter,
#     verifying every leg bit-exact on the spot (cycles, instruction
#     counts, return values, selection digests).
#   - bench_tracer_throughput gates the SoA tracer core's events/sec over
#     the embedded seed engine, verifying StlStats/parents/peaks vs the
#     seed engine and selection digests + tracer.* metrics vs the live
#     profiled run on every stream.
#
# Both catch semantic regressions and gross throughput regressions without
# the runtime of the full-registry runs.
#
# Each gate is decided over interleaved (seed, new) pass pairs (5 under
# --quick) by the rule in bench/PairedGate.h: PASS when the lower quartile
# of the per-pair speedups clears the gate, FAIL when the upper quartile
# misses it, otherwise more pairs up to three times as many, and only then
# "unresolved" (exit 0). The tracer gate stays soft (see below). For a
# publishable number, run the full benches on a quiet host, preferably
# under the release-native preset:
#   cmake --preset release-native && cmake --build --preset release-native
#   build-native/bench/bench_exec_throughput
#   build-native/bench/bench_tracer_throughput
#
# Usage:
#   scripts/ci_perf_smoke.sh                  # configure+build, then run
#   scripts/ci_perf_smoke.sh --bin <bench_exec_throughput> \
#     [--tracer-bin <bench_tracer_throughput>]
#
# The second form is how the tier-1 ctest suite invokes it (see
# tools/CMakeLists.txt).

set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"

BIN=""
TRACER_BIN=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --bin) BIN="$2"; shift 2 ;;
    --tracer-bin) TRACER_BIN="$2"; shift 2 ;;
    *) break ;;
  esac
done

if [[ -z "${BIN}" ]]; then
  BUILD="${ROOT}/build"
  JOBS="$(nproc 2>/dev/null || echo 4)"
  cmake -B "${BUILD}" -S "${ROOT}" "$@"
  cmake --build "${BUILD}" -j"${JOBS}" \
    --target bench_exec_throughput bench_tracer_throughput
  BIN="${BUILD}/bench/bench_exec_throughput"
  TRACER_BIN="${BUILD}/bench/bench_tracer_throughput"
fi

"${BIN}" --quick
if [[ -n "${TRACER_BIN}" ]]; then
  # Soft throughput gate: exit 3 means every stream was bit-identical but
  # the events/sec multiplier fell short on this host — warn without
  # failing CI. Any other nonzero exit is a semantic divergence and fails.
  rc=0
  "${TRACER_BIN}" --quick || rc=$?
  if [[ "${rc}" -eq 3 ]]; then
    echo "WARN: tracer throughput below the quick gate (soft); see output above"
  elif [[ "${rc}" -ne 0 ]]; then
    exit "${rc}"
  fi
fi
