#!/usr/bin/env bash
# Full offline verification: release build, tests, static verifier, the
# benchmark package's own tests and clippy with warnings denied. This is
# exactly what CI runs; run it before pushing. `--locked` makes a
# dependency-edge change fail here instead of silently rewriting
# `Cargo.lock` or `perfbench/Cargo.lock`.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release --locked --workspace

echo "==> cargo test"
cargo test -q --locked --workspace

echo "==> vip-check (static schedule/hazard verifier + workspace lint)"
cargo run --release -q -p vip-check -- .

echo "==> perfbench tests (benchmark metrics, output checks, recorded vs unrecorded counts)"
cargo test --release --locked --offline --manifest-path perfbench/Cargo.toml

echo "==> cargo clippy (deny warnings)"
cargo clippy --locked --all-targets --workspace -- -D warnings

echo "==> OK"
