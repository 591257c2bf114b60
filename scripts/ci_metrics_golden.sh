#!/usr/bin/env bash
# Golden-metrics JSON gate.
#
# The instrumentation registry's export is a pure function of the simulated
# execution: sorted keys, fixed double format, simulated-cycle values only.
# This gate pins that end to end in two ways:
#
#   1. `jrpm-run run BitOps --metrics` must reproduce the committed golden
#      export byte-for-byte — any change to cycle accounting, metric
#      naming, or JSON rendering fails here and must be reviewed via a
#      golden update.
#   2. The merged metrics of a fixed sweep must be byte-identical between
#      a 1-thread and a 4-thread pool (per-job registries merge in plan
#      order, never in completion order).
#   3. The per-core Hydra timelines of `jrpm-run run BitOps --timeline`
#      under the default, --sync and --line-grain configs, and of Huffman
#      under --sync (BitOps never waits on a synchronized local; Huffman
#      does), must hash to the committed sha256 digests (the exports are
#      too large to commit): every thread lifetime, stall and violation
#      keeps its cycle.
#
# Usage:
#   scripts/ci_metrics_golden.sh                 # configure+build, then check
#   scripts/ci_metrics_golden.sh --run-bin <jrpm-run> --sweep-bin <jrpm-sweep> \
#     --golden <file> [--timeline-digests <file>]
#
# The second form is how the tier-1 ctest suite invokes it (see
# tools/CMakeLists.txt). To regenerate the golden file after an intentional
# metrics change:
#   build/tools/jrpm-run run BitOps --metrics tests/golden/metrics_small.json
# and after an intentional timeline change, replace each digest in
# tests/golden/timeline_digests.sha256 with the sha256sum of
#   build/tools/jrpm-run run <workload> --timeline <file> [mode]

set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
GOLDEN="${ROOT}/tests/golden/metrics_small.json"
TIMELINE_DIGESTS="${ROOT}/tests/golden/timeline_digests.sha256"

RUN_BIN=""
SWEEP_BIN=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --run-bin) RUN_BIN="$2"; shift 2 ;;
    --sweep-bin) SWEEP_BIN="$2"; shift 2 ;;
    --golden) GOLDEN="$2"; shift 2 ;;
    --timeline-digests) TIMELINE_DIGESTS="$2"; shift 2 ;;
    *) break ;;
  esac
done

if [[ -z "${RUN_BIN}" || -z "${SWEEP_BIN}" ]]; then
  BUILD="${ROOT}/build"
  JOBS="$(nproc 2>/dev/null || echo 4)"
  cmake -B "${BUILD}" -S "${ROOT}" "$@"
  cmake --build "${BUILD}" -j"${JOBS}" --target jrpm-run jrpm-sweep
  RUN_BIN="${BUILD}/tools/jrpm-run"
  SWEEP_BIN="${BUILD}/tools/jrpm-sweep"
fi

TMP="$(mktemp -d "${TMPDIR:-/tmp}/jrpm-metrics-golden.XXXXXX")"
trap 'rm -rf "${TMP}"' EXIT

STATUS=0

# Gate 1: pipeline metrics export matches the committed golden bytes.
"${RUN_BIN}" run BitOps --metrics "${TMP}/metrics.json" > /dev/null
if cmp -s "${GOLDEN}" "${TMP}/metrics.json"; then
  echo "golden-metrics: BitOps export matches"
else
  echo "golden-metrics: BitOps export DIFFERS from golden" >&2
  diff -u "${GOLDEN}" "${TMP}/metrics.json" >&2 || true
  STATUS=1
fi

# Gate 2: merged sweep metrics are pool-width independent.
for THREADS in 1 4; do
  "${SWEEP_BIN}" run --workloads BitOps,fft --levels base,optimized \
    --threads "${THREADS}" --quiet \
    --metrics "${TMP}/sweep.t${THREADS}.json" > /dev/null
done
if cmp -s "${TMP}/sweep.t1.json" "${TMP}/sweep.t4.json"; then
  echo "golden-metrics: 1-thread and 4-thread sweep metrics identical"
else
  echo "golden-metrics: sweep metrics depend on pool width" >&2
  diff -u "${TMP}/sweep.t1.json" "${TMP}/sweep.t4.json" >&2 || true
  STATUS=1
fi

# Gate 3: per-core timelines match the committed digests.
while read -r WORKLOAD MODE DIGEST; do
  [[ -z "${WORKLOAD}" || "${WORKLOAD}" == \#* ]] && continue
  ARGS=()
  [[ "${MODE}" != "default" ]] && ARGS=("${MODE}")
  "${RUN_BIN}" run "${WORKLOAD}" "${ARGS[@]}" \
    --timeline "${TMP}/timeline.json" > /dev/null
  GOT="$(sha256sum "${TMP}/timeline.json" | cut -d' ' -f1)"
  if [[ "${GOT}" == "${DIGEST}" ]]; then
    echo "golden-metrics: ${WORKLOAD} ${MODE} timeline matches its digest"
  else
    echo "golden-metrics: ${WORKLOAD} ${MODE} timeline digest ${GOT} != ${DIGEST}" >&2
    STATUS=1
  fi
  rm -f "${TMP}/timeline.json"
done < "${TIMELINE_DIGESTS}"

exit "${STATUS}"
