#!/bin/sh
# Paired, alternating benchmark comparison of a git ref against the working
# tree — the method ROADMAP item 1 binds every performance claim to.
#
#   scripts/paired_bench.sh <git-ref> <workload> [pairs=10] [benchmark args...]
#
# Exports <git-ref> into the git-ignored /.bench_build, builds the benchmark
# of both sides (each into its own target directory there), then runs
# <pairs> pairs: parent and change one after the other on the same fresh
# --seed, the side that goes first alternating from pair to pair.  Prints,
# for every metric the benchmark's last output line carries, both medians,
# both quartile pairs and how many pairs the change won.  Any further
# arguments reach both binaries verbatim (`--smoke` to try the script,
# `--trace 1` for the per-layer metrics).  Nothing is written outside
# /.bench_build; in particular nothing under benchmark/results/.
set -eu

if [ $# -lt 2 ]; then
    sed -n '2,16s/^# \{0,1\}//p' "$0" >&2
    exit 2
fi
ref=$1
workload=$2
pairs=${3:-10}
[ $# -ge 3 ] && shift 3 || shift 2

root=$(cd "$(dirname "$0")/.." && pwd)
build=$root/.bench_build
runs=$build/paired-$workload
rm -rf "$build/parent" "$runs"
mkdir -p "$build/parent" "$runs"
git -C "$root" archive "$ref" | tar -x -C "$build/parent"

echo "building $ref and the working tree ..." >&2
CARGO_TARGET_DIR=$build/target-parent cargo build --release --quiet \
    --manifest-path "$build/parent/benchmark/Cargo.toml"
CARGO_TARGET_DIR=$build/target-change cargo build --release --quiet \
    --manifest-path "$root/benchmark/Cargo.toml"

pair=1
while [ "$pair" -le "$pairs" ]; do
    seed=$((1000 + pair))
    if [ $((pair % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
    echo "pair $pair/$pairs: seed $seed, $order" >&2
    for side in $order; do
        # The benchmark's last stdout line is its JSON object.
        "$build/target-$side/release/sb-benchmark" --workload "$workload" --seed "$seed" "$@" \
            2>/dev/null | tail -n 1 >"$runs/$side.$pair.json" || true
    done
    pair=$((pair + 1))
done

# Each metric's direction comes from BENCHMARK.json; quartiles interpolate
# linearly between order statistics.
awk -v pairs="$pairs" -v ref="$ref" -v workload="$workload" '
function quantile(values, n, q,    at, lo) {
    at = (n - 1) * q + 1; lo = int(at)
    if (lo >= n) return values[n]
    return values[lo] + (at - lo) * (values[lo + 1] - values[lo])
}
function summary(side, name,    n, i, j, v, sorted) {
    n = 0
    for (i = 1; i <= pairs; i++) if ((side, i, name) in value) {
        v = value[side, i, name]
        for (j = n; j >= 1 && sorted[j] > v; j--) sorted[j + 1] = sorted[j]
        sorted[j + 1] = v; n++
    }
    if (n == 0) return "-"
    return sprintf("%.6g [%.6g, %.6g]", quantile(sorted, n, 0.5), quantile(sorted, n, 0.25), quantile(sorted, n, 0.75))
}
FILENAME ~ /BENCHMARK\.json$/ {
    if ($1 == "\"name\":") { gsub(/[",]/, "", $2); metric = $2 }
    if ($1 == "\"better\":") { gsub(/[",]/, "", $2); better[metric] = $2 }
    next
}
{
    count = split(FILENAME, path, "/"); split(path[count], file, ".")
    side = file[1]; pair = file[2]
    if (index($0, "\"correct\":true") && index($0, "\"failed\":0,")) clean[side]++
    parts = split($0, part, "\"value\":")
    for (i = 2; i <= parts; i++) {
        quotes = split(part[i - 1], quoted, "\""); name = quoted[quotes - 1]
        number = part[i]; sub(/[,}].*/, "", number)
        if (number == "null") continue
        value[side, pair, name] = number + 0
        if (!(name in seen)) { seen[name] = 1; names[++metrics] = name }
    }
}
END {
    printf "%s: parent %s vs working tree, %d pairs; correct with failed 0: parent %d, change %d\n", \
        workload, ref, pairs, clean["parent"], clean["change"]
    printf "%-32s %-7s %-38s %-38s %s\n", "metric", "better", "parent median [q1, q3]", "change median [q1, q3]", "change wins"
    for (m = 1; m <= metrics; m++) {
        name = names[m]; wins = 0; ties = 0; both = 0
        for (i = 1; i <= pairs; i++) if ((("parent", i, name) in value) && (("change", i, name) in value)) {
            both++
            delta = value["change", i, name] - value["parent", i, name]
            if (better[name] == "higher") delta = -delta
            if (delta < 0) wins++; else if (delta == 0) ties++
        }
        printf "%-32s %-7s %-38s %-38s %d/%d (%d ties)\n", name, better[name], \
            summary("parent", name), summary("change", name), wins, both, ties
    }
}' "$root/BENCHMARK.json" "$runs"/parent.*.json "$runs"/change.*.json
