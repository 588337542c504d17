#!/usr/bin/env bash
# Quick check of the benchmark: builds it offline and runs every workload for a
# tenth of the contract length, correctness only (bounds are not enforced).
# Whole set in about 40 s once built (most of it the three set-ups of each run).
# Run from anywhere.
set -euo pipefail
cd "$(dirname "$0")/.."
exec cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- --quick "$@"
