#!/usr/bin/env bash
# Builds the benchmark, and with it the program it measures, from source,
# then runs it with the given arguments:
#
#   bash benchmark/run.sh --workload fig5_inproc|sweep_widen|fig5_served \
#       [--seed N] [--seconds S] [--trace 0|1]
#
# Run it from the repository root. Build output goes to $CARGO_TARGET_DIR
# (benchmark/target when unset); run output goes to .bench_tmp/ (removed
# on exit) and .bench_out/ (traced runs' span logs).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
exec "${CARGO_TARGET_DIR:-$here/target}/release/restune-bench" "$@"
