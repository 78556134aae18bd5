#!/usr/bin/env bash
# Usage: scripts/pairs.sh WORKLOAD N [SEED]
#
# Runs BENCHMARK.json's command, `bash bench/run.sh --workload W --seed S
# --seconds 8 --trace 0`, N times on the parent commit and N times on
# the working tree, alternating which side runs first in each pair, and
# prints one BENCH_trajectory.json row: per end-to-end metric the median
# and interquartile range of each side, and in how many pairs the change
# was better (ties count for neither). Add the row's "pr" by hand.
#
# The parent is HEAD~1 when the change is committed (a clean tree) and
# HEAD while it is not. It is exported with `git archive`, and the
# working tree (tracked files as they are on disk, and untracked files
# that are not ignored) is copied, into two sibling temporary
# directories, so both sides build and run from the same kind of place,
# each with a cold build cache; they are removed on exit and nothing is
# written under bench/. SEED defaults to 42.
set -euo pipefail

if [ $# -lt 2 ] || [ $# -gt 3 ]; then
	echo "usage: $0 WORKLOAD N [SEED]" >&2
	exit 2
fi
workload=$1 pairs=$2 seed=${3:-42}
root=$(git rev-parse --show-toplevel)
base=HEAD
if [ -z "$(git -C "$root" status --porcelain)" ]; then
	base=HEAD~1
fi
parent=$(git -C "$root" rev-parse --short "$base")

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/parent" "$tmp/change" "$tmp/out"
git -C "$root" archive "$base" | tar -x -C "$tmp/parent"
(cd "$root" && git ls-files -z --cached --others --exclude-standard |
	while IFS= read -r -d '' f; do
		if [ -e "$f" ]; then printf '%s\0' "$f"; fi # skip deleted files
	done | tar --null -T - -cf -) | tar -x -C "$tmp/change"

# run DIR SIDE appends the result line of one benchmark run in DIR to
# SIDE.jsonl.
run() {
	(cd "$1" && bash bench/run.sh --workload "$workload" --seed "$seed" --seconds 8 --trace 0 \
		-outdir "$tmp/out") | tail -n 1 >>"$tmp/$2.jsonl"
}
for ((i = 0; i < pairs; i++)); do
	if ((i % 2 == 0)); then
		run "$tmp/parent" parent
		run "$tmp/change" change
	else
		run "$tmp/change" change
		run "$tmp/parent" parent
	fi
	echo "pair $((i + 1))/$pairs done" >&2
done

python3 - "$root/BENCHMARK.json" "$tmp" "$parent" "$workload" "$seed" "$pairs" <<'EOF'
import json, statistics, sys

spec, tmp, parent, workload, seed, pairs = sys.argv[1:]
metrics = json.load(open(spec))["end_to_end"]
runs = {side: [json.loads(line)["metrics"] for line in open(f"{tmp}/{side}.jsonl")]
        for side in ("parent", "change")}

def g4(x):
    return float(f"{x:.4g}")

def stat(vals):
    q = statistics.quantiles(vals, n=4, method="inclusive") if len(vals) > 1 else [vals[0]] * 3
    return {"median": g4(statistics.median(vals)), "iqr": g4(q[2] - q[0])}

row = {"parent": parent, "workload": workload, "seed": int(seed), "pairs": int(pairs), "claim": "none",
       "parent_side": {}, "change_side": {}, "wins": {}}
for m in metrics:
    name = m["name"]
    p = [r[name]["value"] for r in runs["parent"]]
    c = [r[name]["value"] for r in runs["change"]]
    row["parent_side"][name], row["change_side"][name] = stat(p), stat(c)
    wins = sum((b < a) if m["better"] == "lower" else (b > a) for a, b in zip(p, c))
    row["wins"][name] = f"{wins}/{len(p)}"
print(json.dumps(row))
EOF
