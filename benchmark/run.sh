#!/usr/bin/env bash
# Builds the benchmark (offline, release) and runs it.
#   benchmark/run.sh [--seed N] [--seconds S] [--trace] [--quick] [--full]   every workload -> benchmark/out/result.json
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1            one workload (the driver's form)
#   benchmark/run.sh compare A.json B.json
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
exec cargo run --release --quiet --offline --manifest-path "$here/Cargo.toml" -- "$@"
