#!/usr/bin/env bash
# One command for the whole benchmark. Builds the system under test
# (`reproduce`, from the repository's own workspace) and the benchmark
# package, then hands every argument to the harness:
#
#   benchmark/run.sh                      every workload end to end + traced layers,
#                                         at the contract's small scale, then at paper scale
#   benchmark/run.sh --scale small|paper  one scale only
#   benchmark/run.sh --workload W         one workload
#   benchmark/run.sh --seed N             another scenario seed (default 42)
#   benchmark/run.sh --smoke              one round of one op per workload, all byte checks (< 30 s)
#   benchmark/run.sh --selfcheck          end to end twice per scale; fails if the passes disagree
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                         one driver-contract run; the last stdout
#                                         line is the JSON result
#
# Run it from the repository root. `reproduce` is built from the repository's
# own workspace on purpose, so it is the binary a user gets, root profile
# settings included; both builds go to one target directory
# (CARGO_TARGET_DIR, else ./target).
set -euo pipefail

if [ ! -f Cargo.toml ] || [ ! -d crates/reports ]; then
    echo "error: run from the repository root (no workspace here to build reproduce from)" >&2
    exit 2
fi
target="${CARGO_TARGET_DIR:-target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
export CARGO_TARGET_DIR="$target"

# Build chatter goes to stderr: stdout belongs to the result.
cargo build --release --offline -p txstat_reports --bin reproduce >&2
cargo build --release --offline --manifest-path benchmark/Cargo.toml >&2

exec "$target/release/txstat_benchmark" "$@"
