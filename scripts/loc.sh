#!/usr/bin/env bash
# The line ledger: Rust lines per crate, then tests/ and examples/, then the
# total the simplicity PRs are held to. "code" leaves out what only tests
# compile: a crate's tests/ and benches/ directories and, in each source file,
# everything from its first `#[cfg(test)]` on (the unit-test module every file
# here keeps last). Prints only; run from anywhere.
set -euo pipefail
cd "$(dirname "$0")/.."

# lines <dir>: total lines of the .rs files under <dir> (build output skipped).
lines() {
    find "$1" -name '*.rs' -not -path '*/target/*' -print0 | xargs -0 cat | wc -l
}
# code <dir>: the same, each file cut at its first `#[cfg(test)]`.
code() {
    find "$1" -name '*.rs' -not -path '*/target/*' -print0 |
        xargs -0 awk 'FNR == 1 { cut = 0 } /^#\[cfg\(test\)\]/ { cut = 1 } !cut' | wc -l
}

printf '%-12s %8s %8s\n' "" total code
all=0
all_code=0
for crate in crates/*/; do
    t=$(lines "$crate")
    c=$(code "${crate}src")
    printf '%-12s %8d %8d\n' "$(basename "$crate")" "$t" "$c"
    all=$((all + t))
    all_code=$((all_code + c))
done
printf '%-12s %8d %8d\n' crates/ "$all" "$all_code"
for dir in tests examples; do
    t=$(lines "$dir")
    printf '%-12s %8d\n' "$dir/" "$t"
    all=$((all + t))
done
printf '%-12s %8d\n' total "$all"
