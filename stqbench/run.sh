#!/usr/bin/env bash
# Builds stqc and stqbench from source (release profile, offline), then
# runs stqbench with the given arguments. Run from the repository root;
# honours CARGO_TARGET_DIR (default: target).
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --bin stqc
cargo build --release --offline --quiet --manifest-path stqbench/Cargo.toml
# A child, not `exec`: an exec'd process would inherit the peak memory of
# the cargo runs above as its children's, which oneshot_cli reports.
"$CARGO_TARGET_DIR/release/stqbench" "$@"
