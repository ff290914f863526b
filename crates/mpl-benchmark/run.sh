#!/usr/bin/env bash
# Builds the `mpl` binary and the benchmark from source, then runs the
# benchmark with the given arguments. Run from the repository root:
#
#   bash crates/mpl-benchmark/run.sh --workload serve-hot --seed 1 --seconds 10 --trace 0
#   bash crates/mpl-benchmark/run.sh run --workload all --seed 1
#
# Both binaries are built by one release build into $CARGO_TARGET_DIR
# (default: target); results and traces go below it, to mpl-benchmark/.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/Cargo.toml" || ! -d "$root/crates/mpl-cli" ]]; then
  echo "mpl-benchmark: run from the repository root (no crates/mpl-cli here)" >&2
  exit 2
fi
target=${CARGO_TARGET_DIR:-target}
[[ $target == /* ]] || target="$root/$target"

CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
  --manifest-path "$root/Cargo.toml" -p mpl-cli -p mpl-benchmark >&2

# Not `exec`: a process keeps the resource usage of the children it has
# waited for across exec, so the benchmark would count cargo's peak
# memory as that of the `mpl` processes it runs.
"$target/release/mpl-benchmark" "$@" --mpl "$target/release/mpl" --work "$target/mpl-benchmark"
