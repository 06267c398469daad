#!/usr/bin/env bash
# The benchmark's one command: build the program under test (hummer-serve)
# and hbench from the checkout's sources, then hand every argument to hbench.
# Run from the root of a checkout:  bash hbench/run.sh --workload NAME ...
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

# One target directory for both builds, inside the checkout; cargo resolves a
# relative CARGO_TARGET_DIR against the current directory, which is the root.
target="${CARGO_TARGET_DIR:-.bench_build}"
case "$target" in /*) ;; *) target="$root/$target" ;; esac
export CARGO_TARGET_DIR="$target"

# hummer-serve is built through hbench's manifest (-p selects the path
# dependency), so the two share every compiled crate. Build chatter goes to
# stderr: the last line of stdout belongs to hbench.
cargo build --release --offline --quiet --manifest-path hbench/Cargo.toml \
    -p hummer_server --bin hummer-serve 1>&2
cargo build --release --offline --quiet --manifest-path hbench/Cargo.toml 1>&2

exec "$target/release/hbench" "$@"
