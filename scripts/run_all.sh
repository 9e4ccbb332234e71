#!/usr/bin/env bash
# Reproduce everything: build, test, and regenerate every table and
# figure of the paper plus the ablations and extensions.
#
#   scripts/run_all.sh [results-dir]
#
# Environment:
#   AVF_FAST=1        shrink everything to a smoke run (~2 min)
#   AVF_INTERVALS=N   intervals per app for fig3/fig4/fig5
#   AVF_LANES=L       injection lanes per estimator; defaults to 1 here
#                     (the paper's serial Algorithm 1, the mode the
#                     committed results/ files come from), not to the
#                     benches' own default of 64
set -euo pipefail

export AVF_LANES="${AVF_LANES:-1}"

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
