#!/usr/bin/env bash
# Build the benchmark, then run it with every argument passed through
# (see README.md in this directory).  The stack's threads run unpinned,
# on every CPU the process may use, as the program itself runs.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml
exec "${CARGO_TARGET_DIR:-perfbench/target}/release/vphi-perfbench" "$@"
