#!/usr/bin/env bash
# The line ledger: Rust lines per crate, then tests/ and examples/, then the
# total the simplicity PRs are held to. "code" leaves out what only tests
# compile: a crate's tests/ and benches/ directories and, in each source file,
# everything from its first `#[cfg(test)]` on (the unit-test module every file
# here keeps last). "served" is the code outside the paper-table code: the
# baselines and bench crates, and the basic, one_probe, wide, multi, micro,
# fs, semi_explicit, telescope, explicit, verify and recursive modules.
# Prints only; run from anywhere.
#
#   scripts/loc.sh                  the working tree
#   scripts/loc.sh --against <rev>  that, the same table for <rev> (its files
#                                   read with `git show`: no checkout, no
#                                   build), and the per-crate difference
set -euo pipefail
cd "$(dirname "$0")/.."

rev=""
case "${1:-}" in
    "") ;;
    --against) rev=$(git rev-parse --verify --quiet "${2:-}^{commit}") ||
        { echo "loc.sh: no such revision: ${2:-}" >&2; exit 2; } ;;
    *) echo "usage: scripts/loc.sh [--against <rev>]" >&2; exit 2 ;;
esac

# stream <rev|-> <dir>: every .rs file under <dir> (build output skipped), in
# the working tree or at <rev>, each preceded by a line `\001<path>`.
stream() {
    if [ "$1" = - ]; then
        find "$2" -name '*.rs' -not -path '*/target/*' -print0 |
            xargs -0 -r awk 'FNR == 1 { print "\001" FILENAME } { print }'
    else
        git ls-tree -r --name-only "$1" -- "$2" | grep '\.rs$' | while read -r f; do
            printf '\001%s\n' "$f"
            git show "$1:$f"
        done
    fi
}
# count: "<total> <code> <served>" of a stream; code is the files under a
# src/, each cut at its first `#[cfg(test)]`, and served the code outside
# the paper-table files.
count() {
    awk '/^\001/ {
             src = ($0 ~ /\/src\//); cut = 0
             paper = ($0 ~ /crates\/(baselines|bench)\// ||
                      $0 ~ /\/src\/(basic|one_probe|wide|multi|micro|fs|semi_explicit|telescope|explicit|verify|recursive)(\.rs$|\/)/)
             next
         }
         { total++ }
         /^#\[cfg\(test\)\]/ { cut = 1 }
         src && !cut { code++; if (!paper) served++ }
         END { print total + 0, code + 0, served + 0 }'
}

# ledger <rev|->: one "<name> <total> <code> <served>" row per crate, then
# crates/, tests/, examples/ and total (0 where the table shows none).
ledger() {
    local all=0 all_code=0 all_served=0 crates crate t c v
    if [ "$1" = - ]; then
        crates=$(find crates -mindepth 1 -maxdepth 1 -type d | sort)
    else
        crates=$(git ls-tree -d --name-only "$1" crates/)
    fi
    for crate in $crates; do
        read -r t c v < <(stream "$1" "$crate" | count)
        echo "$(basename "$crate") $t $c $v"
        all=$((all + t))
        all_code=$((all_code + c))
        all_served=$((all_served + v))
    done
    echo "crates/ $all $all_code $all_served"
    for dir in tests examples; do
        read -r t c v < <(stream "$1" "$dir" | count)
        echo "$dir/ $t 0 0"
        all=$((all + t))
    done
    echo "total $all 0 0"
}

# table <fmt>: rows of a ledger as the table (the code and served columns
# are blank below crates/).
table() {
    printf '%-12s %8s %8s %8s\n' "" total code served
    while read -r name t c v; do
        case "$name" in
            tests/ | examples/ | total) printf "%-12s $1\n" "$name" "$t" ;;
            *) printf "%-12s $1 $1 $1\n" "$name" "$t" "$c" "$v" ;;
        esac
    done
}

here=$(ledger -)
table '%8d' <<<"$here"
[ -n "$rev" ] || exit 0

there=$(ledger "$rev")
printf '\nat %s\n' "$(git rev-parse --short "$rev")"
table '%8d' <<<"$there"
printf '\nworking tree - %s\n' "$(git rev-parse --short "$rev")"
# The working tree's rows in order, then whatever only <rev> has.
declare -A was
while read -r name t c v; do was[$name]="$t $c $v"; done <<<"$there"
{
    while read -r name t c v; do
        read -r pt pc pv <<<"${was[$name]:-0 0 0}"
        unset "was[$name]"
        echo "$name $((t - pt)) $((c - pc)) $((v - pv))"
    done <<<"$here"
    for name in "${!was[@]}"; do
        read -r pt pc pv <<<"${was[$name]}"
        echo "$name $((-pt)) $((-pc)) $((-pv))"
    done
} | table '%+8d'
