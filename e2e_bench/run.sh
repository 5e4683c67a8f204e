#!/usr/bin/env bash
# Builds `sebmc-cli` (the daemon of the `serve` workload) and the
# benchmark program from source, then runs one workload. From the
# repository root:
#
#   bash e2e_bench/run.sh --workload sessions|certify|serve \
#       --seed N --seconds S --trace 0|1
#
# Build output goes to stderr; the last stdout line is the result JSON.
set -euo pipefail

bench_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench_dir")"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/.bench_build}"

cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" --bin sebmc-cli >&2
cargo build --release --offline --quiet --manifest-path "$bench_dir/Cargo.toml" >&2

# Run stamp: the commit is known only inside a git checkout of this
# repository (not of some enclosing one).
commit="unknown"
if [ "$(git -C "$root" rev-parse --show-toplevel 2>/dev/null)" = "$root" ]; then
    commit="$(git -C "$root" rev-parse HEAD)"
fi

exec "$CARGO_TARGET_DIR/release/e2e-bench" \
    --cli "$CARGO_TARGET_DIR/release/sebmc-cli" \
    --work-dir "$CARGO_TARGET_DIR/e2e_work" \
    --rustc "$(rustc --version)" \
    --commit "$commit" \
    "$@"
