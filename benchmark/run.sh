#!/usr/bin/env bash
# Build the runner from source and hand it the arguments.
#
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   benchmark/run.sh --aa [seed]        # every workload twice; gaps vs bounds
#   benchmark/run.sh --spread [runs]    # every workload on <runs> seeds; IQR/median vs bounds
#
# The build lands in $CARGO_TARGET_DIR when set (cargo reads a relative one
# from the working directory, and so does the exec below), else in
# benchmark/target.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin="${CARGO_TARGET_DIR:-$here/target}/release/lifecycle-bench"
case "${1:-}" in
  --aa | --spread) exec python3 "$here/compare.py" "$bin" "$here/../BENCHMARK.json" "$@" ;;
  *) exec "$bin" "$@" ;;
esac
