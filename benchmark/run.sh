#!/usr/bin/env bash
# The repo benchmark. Builds the harness (release, offline) and runs it.
#
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       one run of one workload; the last line printed is the result object
#   benchmark/run.sh [--seed <n>] [--seconds <s>]
#       every workload untraced five times, then one traced pass each;
#       prints every metric by name and writes benchmark/out/results.json
#   benchmark/run.sh compare <A.json> <B.json>
#       per workload and end-to-end metric: medians, spreads, ratio, verdict
#
# Exits non-zero when an output check fails, a metric is missing, or the
# build fails (as it does where the product's crates are absent).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# Trace files and FileBackend scratch stay inside the checkout.
export NORTHUP_BENCH_OUT="$here/out"
exec cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- "$@"
