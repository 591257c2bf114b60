#!/usr/bin/env bash
# Configures and builds every configure preset in CMakePresets.json.
#
# Usage: scripts/ci_presets_build.sh [preset...]
#
# With no arguments every preset listed by `cmake --list-presets` is built
# (default, asan, tsan, release-native), each into the binaryDir the
# preset names. Every preset compiles with -Wall -Wextra -Werror, so a
# warning that only fires under one preset's flags (e.g. -O3 plus LTO in
# release-native) fails here. The script stops at the first preset that
# fails to configure or build and names it; figures quoted for a preset
# can be reproduced only while this passes.

set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
JOBS="$(nproc 2>/dev/null || echo 4)"
cd "${ROOT}"

if [[ $# -gt 0 ]]; then
  PRESETS=("$@")
else
  # `cmake --list-presets` prints: "  "name" - Display name".
  mapfile -t PRESETS < <(cmake --list-presets=configure |
                           sed -n 's/^ *"\([^"]*\)".*/\1/p')
fi
if [[ ${#PRESETS[@]} -eq 0 ]]; then
  echo "presets-build: no configure presets found" >&2
  exit 1
fi

for P in "${PRESETS[@]}"; do
  echo "presets-build: ${P}"
  if ! cmake --preset "${P}" > /dev/null; then
    echo "presets-build: preset ${P} FAILED to configure" >&2
    exit 1
  fi
  if ! cmake --build --preset "${P}" -j"${JOBS}"; then
    echo "presets-build: preset ${P} FAILED to build" >&2
    exit 1
  fi
done
echo "presets-build: all ${#PRESETS[@]} presets built (${PRESETS[*]})"
