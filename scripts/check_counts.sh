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
# host — all but engine_churn's rounds_per_op, which moves by about ±1.5 %
# run to run at one seed, against a 2 % bound: that row is taken as the
# median, metric by metric, of three runs at the recorded seed (the --all run
# and two more of the workload alone), so one outlying run cannot flap it.
# About six minutes once built. Run from anywhere.
set -euo pipefail
cd "$(dirname "$0")/.."

record=0
if [ "${1:-}" = "--record" ]; then
    record=1
    shift
fi

seed=$(python3 -c 'import json; print(json.load(open("BENCH_counts.json"))["seed"])' 2>/dev/null || echo 1)
# The workloads whose rows are the median of three runs.
median_of_three=(engine_churn)
run=$(mktemp)
log=$(mktemp)
again=$(mktemp)
trap 'rm -f "$run" "$log" "$again"' EXIT
mapfile -t command < <(python3 -c 'import json; print(*json.load(open("BENCHMARK.json"))["command"], sep="\n")')
"${command[@]}" --all --seed "$seed" --json "$run" > "$log" || { tail -n 30 "$log"; exit 1; }
# A single run prints its result as a JSON object on its last line.
for workload in "${median_of_three[@]}"; do
    for _ in 1 2; do
        "${command[@]}" --workload "$workload" --seed "$seed" --trace 0 > "$log" || { tail -n 30 "$log"; exit 1; }
        printf '%s %s\n' "$workload" "$(tail -n 1 "$log")" >> "$again"
    done
done

python3 - "$run" "$again" "$record" "$@" <<'EOF'
import json, statistics, sys

run, record, named = json.load(open(sys.argv[1])), sys.argv[3] == "1", sys.argv[4:]
again = [line.split(" ", 1) for line in open(sys.argv[2]) if line.strip()]
contract = json.load(open("BENCHMARK.json"))
counts = ("rounds_per_op", "write_bytes_per_user_byte", "space_bytes_per_key")
bounds = {m["name"]: m["bound"] for m in contract["end_to_end"] if m["name"] in counts}
bare = {r["workload"]: r for r in run["runs"] if r["trace"] == 0}
wrong = [w for w, r in bare.items() if not r["correct"] or r["failed"]]
if wrong:
    sys.exit(f"wrong or failed replies on {wrong}: no count of this run means anything")
now = {w["name"]: {m: bare[w["name"]]["metrics"][m]["value"] for m in counts} for w in contract["workloads"]}
for workload in dict.fromkeys(w for w, _ in again):
    rows = [json.loads(body) for w, body in again if w == workload]
    if any(not r["correct"] or r["failed"] for r in rows):
        sys.exit(f"wrong or failed replies on a repeat of {workload}: no count of this run means anything")
    values = {m: [now[workload][m]] + [r["metrics"][m]["value"] for r in rows] for m in counts}
    now[workload] = {m: statistics.median(v) for m, v in values.items()}
    print(f"{workload:16} median of {len(rows) + 1} runs: " + ", ".join(f"{m} {v}" for m, v in values.items()))

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
