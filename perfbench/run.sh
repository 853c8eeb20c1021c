#!/usr/bin/env bash
# Builds the benchmark and the `xstream` binary from source, then runs
# one workload:
#   bash perfbench/run.sh --workload <name> --seed N --seconds S --trace 0|1
# Run it from the repository root. Build output goes to standard error;
# the last line of standard output is the result as JSON.
set -euo pipefail
cd "$(dirname "$0")/.."
target="${CARGO_TARGET_DIR:-.bench_build}"
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml \
    --bin perfbench >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml \
    -p xstream-cli --bin xstream >&2
exec "$target/release/perfbench" --xstream "$target/release/xstream" "$@"
