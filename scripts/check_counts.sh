#!/usr/bin/env bash
# The benchmark's counts as a gate. Reruns BENCHMARK.json's command over every
# workload at the recorded seed and compares the three end-to-end counts
# (rounds_per_op, write_bytes_per_user_byte, space_bytes_per_key) of each with
# BENCH_counts.json at the repository root. Exits nonzero when one has moved
# past its BENCHMARK.json bound in either direction: a worse count is a
# regression, a better one means "re-record in the same commit":
# `scripts/check_counts.sh --record <workload>...` rewrites the named rows from
# the run and checks the rest, so a change meant to move one row does not
# re-record the others' run-to-run noise; `--record` alone rewrites every row.
# Counts, unlike the timed values, repeat to under half their bound on any
# host, so this cannot flap. About five minutes once built. Run from anywhere.
set -euo pipefail
cd "$(dirname "$0")/.."

record=0
if [ "${1:-}" = "--record" ]; then
    record=1
    shift
fi

seed=$(python3 -c 'import json; print(json.load(open("BENCH_counts.json"))["seed"])' 2>/dev/null || echo 1)
run=$(mktemp)
log=$(mktemp)
trap 'rm -f "$run" "$log"' EXIT
mapfile -t command < <(python3 -c 'import json; print(*json.load(open("BENCHMARK.json"))["command"], sep="\n")')
"${command[@]}" --all --seed "$seed" --json "$run" > "$log" || { tail -n 30 "$log"; exit 1; }

python3 - "$run" "$record" "$@" <<'EOF'
import json, sys

run, record, named = json.load(open(sys.argv[1])), sys.argv[2] == "1", sys.argv[3:]
contract = json.load(open("BENCHMARK.json"))
counts = ("rounds_per_op", "write_bytes_per_user_byte", "space_bytes_per_key")
bounds = {m["name"]: m["bound"] for m in contract["end_to_end"] if m["name"] in counts}
bare = {r["workload"]: r for r in run["runs"] if r["trace"] == 0}
wrong = [w for w, r in bare.items() if not r["correct"] or r["failed"]]
if wrong:
    sys.exit(f"wrong or failed replies on {wrong}: no count of this run means anything")
now = {w["name"]: {m: bare[w["name"]]["metrics"][m]["value"] for m in counts} for w in contract["workloads"]}

unknown = [w for w in named if w not in now]
if unknown:
    sys.exit(f"no workload named {unknown}: the workloads are {list(now)}")
if record:
    body = {"seed": run["seed"], "run_seconds": run["run_seconds"], "counts": now}
    if named:
        body = json.load(open("BENCH_counts.json"))
        body["counts"].update({w: now[w] for w in named})
    json.dump(body, open("BENCH_counts.json", "w"), indent=2)
    open("BENCH_counts.json", "a").write("\n")
    print(f"recorded {', '.join(named) or 'every row'} in BENCH_counts.json")
    if not named:
        sys.exit(0)

recorded = json.load(open("BENCH_counts.json"))["counts"]
moved = 0
for workload, values in now.items():
    for metric, value in values.items():
        was = recorded[workload][metric]
        shift = (value - was) / was
        verdict = "ok"
        if abs(shift) > bounds[metric]:
            moved += 1
            verdict = "WORSE" if shift > 0 else "BETTER: re-record in this commit"
        print(f"{workload:16} {metric:28} {was:12.4f} -> {value:12.4f}  {shift:+.4f} (bound {bounds[metric]})  {verdict}")
sys.exit(f"{moved} count(s) moved past their bound from BENCH_counts.json" if moved else 0)
EOF
