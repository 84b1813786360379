#!/usr/bin/env bash
# The benchmark's one command. Builds the real `mb_serve` from the root
# workspace and this package, then runs:
#
#   run.sh --workload W --seed N --seconds S --trace 0|1   one run; result JSON on the last line
#   run.sh [--seed N] [--workload W] [--smoke] [--sets K] [--reps R]
#                                                          the ledger: every workload, end-to-end
#                                                          then layer run, one JSON document
#   run.sh compare BASE.json [NEW.json]                    verdict per (metric, workload)
#
# Builds go to $CARGO_TARGET_DIR (default benchmark/target); generated inputs
# go to benchmark/data and are removed on exit.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

if [[ ! -f "$root/Cargo.toml" ]]; then
    echo "run.sh: no workspace manifest beside benchmark/: nothing to build or measure" >&2
    exit 1
fi

# The benchmark must time the code users build: same release profile.
profile() {
    awk '/^\[profile\.release\]/ {on = 1; next} /^\[/ {on = 0} on && NF && !/^#/' "$1" | sort
}
if ! diff <(profile "$root/Cargo.toml") <(profile "$here/Cargo.toml") >&2; then
    echo "run.sh: [profile.release] differs between Cargo.toml and benchmark/Cargo.toml" >&2
    exit 1
fi

target="$(realpath -m "${CARGO_TARGET_DIR:-$here/target}")"
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" -p mb-serve --bin mb_serve >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

if [[ "${1:-}" == compare ]]; then
    exec "$target/release/benchmark" "$@"
fi

data="$here/data/run.$$"
trap 'rm -rf "$data"; rmdir "$here/data" 2>/dev/null || true' EXIT
mode=(ledger)
for arg in "$@"; do
    if [[ "$arg" == --trace ]]; then mode=(); fi
done
"$target/release/benchmark" ${mode[@]+"${mode[@]}"} "$@" --data-dir "$data" --mb-serve "$target/release/mb_serve"
