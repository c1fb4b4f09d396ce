#!/usr/bin/env bash
# Full offline verification: release build, tests, static verifier, the
# benchmark package's own tests and clippy with warnings denied. This is
# exactly what CI runs; run it before pushing.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test"
cargo test -q --workspace

echo "==> vip-check (static schedule/hazard verifier + workspace lint)"
cargo run --release -q -p vip-check -- .

echo "==> perfbench tests (benchmark metrics, output checks, recorded vs unrecorded counts)"
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "==> cargo clippy (deny warnings)"
cargo clippy --all-targets --workspace -- -D warnings

echo "==> OK"
