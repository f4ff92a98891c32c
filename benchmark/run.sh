#!/usr/bin/env bash
# The benchmark's one entry command. Builds `triq-cli` (root workspace)
# and the harness (this directory's own workspace) from source, then
# runs the harness with the arguments given:
#
#   benchmark/run.sh [--workload W] [--seed S] [--seconds N] [--trace 0|1] [--smoke]
#   benchmark/run.sh --compare A.json B.json
#
# Run it from the repository root. Everything it writes goes under
# benchmark/out/ and the cargo target directory.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

# One target directory for both builds; a relative CARGO_TARGET_DIR (the
# driver's `.bench_build`) is relative to the repository root.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"

# Build output goes to stderr: stdout carries only the results.
cargo build --release --offline --quiet --manifest-path Cargo.toml -p triq-server --bin triq-cli 1>&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml 1>&2

exec "$CARGO_TARGET_DIR/release/triq-benchmark" \
  --cli "$CARGO_TARGET_DIR/release/triq-cli" --out benchmark/out "$@"
