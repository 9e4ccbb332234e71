#!/usr/bin/env bash
# Reproduce everything: build, test, and regenerate every table and
# figure of the paper plus the ablations and extensions.
#
#   scripts/run_all.sh [results-dir]
#
# Environment:
#   AVF_FAST=1        shrink everything to a smoke run (~2 min)
#   AVF_INTERVALS=N   intervals per app for fig3/fig4/fig5
set -euo pipefail

cd "$(dirname "$0")/.."
RESULTS="${1:-results}"
mkdir -p "$RESULTS"

# No -G: an existing tree keeps its generator (naming a different one
# is a CMake error) and a fresh tree gets CMake's default.
cmake -B build -S .
cmake --build build
ctest --test-dir build --output-on-failure

for bench in build/bench/*; do
    [ -f "$bench" ] && [ -x "$bench" ] || continue
    name="$(basename "$bench")"
    echo "=== $name ==="
    "$bench" | tee "$RESULTS/$name.txt"
done

echo "All outputs in $RESULTS/"
