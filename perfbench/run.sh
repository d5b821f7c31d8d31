#!/usr/bin/env bash
# Builds the `llmulator` daemon and the benchmark from this checkout's
# sources, then runs the benchmark with every argument passed through:
#
#   bash perfbench/run.sh --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
#
# Both builds go to $CARGO_TARGET_DIR (default: target/ at the checkout root).
set -euo pipefail
cd "$(dirname "$0")/.."
if [[ ! -f Cargo.toml || ! -d crates/cli ]]; then
    echo "perfbench: run from an llmulator checkout (no Cargo.toml / crates/cli here)" >&2
    exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --quiet --offline --manifest-path Cargo.toml -p llmulator-cli >&2
cargo build --release --quiet --offline --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" --daemon "$CARGO_TARGET_DIR/release/llmulator" "$@"
