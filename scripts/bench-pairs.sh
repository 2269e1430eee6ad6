#!/usr/bin/env bash
# Interleaved parent/change runs of the repository benchmark.
#
#   scripts/bench-pairs.sh [-n PAIRS] [-s FIRST_SEED] PARENT_REV
#
# Builds PARENT_REV (exported with `git archive`) and the working tree into
# separate target directories, then runs BENCHMARK.json's command with
# `--trace 0` for PAIRS pairs (default 10) of every workload in
# BENCHMARK.json. Pair i runs both sides on seed FIRST_SEED+i (default 1)
# for BENCHMARK.json's run_seconds; even pairs run the parent first, odd
# pairs the change.
#
# It prints every pair, then for each workload and end-to-end metric each
# side's median and quartiles, the number of pairs the change wins (ties
# count for neither side), and two verdicts. The claim verdict: the change
# wins at least 9 in 10 pairs and its median beats the parent's by more
# than the parent's interquartile range. The regression verdict, against
# the metric's `bound` in BENCHMARK.json (a fraction of the parent's
# median): `worse` when the change's median is worse than the parent's by
# more than the bound; else `unresolved` when either side's interquartile
# range is wider than the bound, unless every change run beats every
# parent run; else `within bound`. Quartiles are the medians of the lower
# and upper halves of the sorted runs (the median itself excluded when
# the count is odd).
#
# Finally it appends one JSON line to BENCH_trajectory.jsonl: the change's
# rev (`-dirty` when the working tree has uncommitted changes), the
# parent's rev, `nproc`, the seeds, and per workload and metric the
# medians, IQRs, wins and both verdicts, plus the failed and incorrect
# run counts.
#
# Needs only bash, git, cargo and the POSIX tools. Builds and logs go to
# $BENCH_PAIRS_DIR (default target/bench-pairs). A TERM or INT stops the
# running build or benchmark with the script.
set -euo pipefail

pairs=10
first_seed=1
while getopts "n:s:" opt; do
    case $opt in
        n) pairs=$OPTARG ;;
        s) first_seed=$OPTARG ;;
        *) sed -n '2,4p' "$0" >&2; exit 2 ;;
    esac
done
shift $((OPTIND - 1))
if [ $# -ne 1 ]; then
    sed -n '2,4p' "$0" >&2
    exit 2
fi
parent_rev=$(git rev-parse --short "$1")

root=$(git rev-parse --show-toplevel)
cd "$root"
spec=BENCHMARK.json
dir=${BENCH_PAIRS_DIR:-$root/target/bench-pairs}
mkdir -p "$dir"

# --- BENCHMARK.json: command, run length, workloads, end-to-end metrics.
read -r -a command <<<"$(tr -d '\n' <"$spec" |
    sed -n 's/.*"command": *\[\([^]]*\)\].*/\1/p' | sed 's/" *, *"/ /g; s/"//g')"
seconds=$(tr -d '\n' <"$spec" | sed -n 's/.*"run_seconds": *\([0-9.]*\).*/\1/p')
section() { # the objects of one top-level array, one per line
    tr -d '\n' <"$spec" | sed -n "s/.*\"$1\": *\[\([^]]*\)\].*/\1/p" | sed 's/} *, *{/}\n{/g'
}
field() { sed -n "s/.*\"$1\": *\"\{0,1\}\([^\",}]*\)\"\{0,1\}.*/\1/p"; }
mapfile -t workloads < <(section workloads | field name)
mapfile -t metrics < <(section end_to_end | field name)
mapfile -t better < <(section end_to_end | field better)
mapfile -t bounds < <(section end_to_end | field bound)

# --- Builds.
rev=$(git rev-parse --short HEAD)
git diff --quiet HEAD -- || rev="$rev-dirty"
rm -rf "$dir/parent-src"
mkdir -p "$dir/parent-src"
git archive "$parent_rev" | tar -x -C "$dir/parent-src"
manifest=""
for ((i = 0; i < ${#command[@]}; i++)); do
    [ "${command[$i]}" = "--manifest-path" ] && manifest=${command[$((i + 1))]}
done
lock="$root/${manifest%Cargo.toml}Cargo.lock"
cp "$lock" "$dir/lock.saved"
trap 'cp "$dir/lock.saved" "$lock"' EXIT

# in_child DIR TARGET_DIR CMD...: run CMD in DIR with CARGO_TARGET_DIR set,
# in the background, and wait for it. Bash runs no trap while a foreground
# command or a command substitution runs, so this is what lets the TERM/INT
# trap below stop the child. `cargo run` execs the benchmark binary, so
# the child's pid is then the benchmark's.
child=
in_child() {
    local src=$1 tgt=$2
    shift 2
    (cd "$src" && CARGO_TARGET_DIR=$tgt exec "$@") &
    child=$!
    wait "$child"
    child=
}
stop() {
    if [ -n "$child" ]; then kill "$child" 2>/dev/null || true; fi
    exit "$1"
}
trap 'stop 130' INT
trap 'stop 143' TERM

echo "building parent $parent_rev and change $rev" >&2
in_child "$dir/parent-src" "$dir/parent-target" cargo build --release --offline --quiet --manifest-path "$manifest"
in_child "$root" "$dir/change-target" cargo build --release --offline --quiet --manifest-path "$manifest"

# run SIDE WORKLOAD SEED: one benchmark run, its stdout in $dir/run.out.
run() {
    local src=$root tgt=$dir/change-target
    if [ "$1" = parent ]; then src=$dir/parent-src tgt=$dir/parent-target; fi
    in_child "$src" "$tgt" "${command[@]}" --workload "$2" --seed "$3" \
        --seconds "$seconds" --trace 0 >"$dir/run.out" 2>>"$dir/stderr.log"
}
metric() { sed -n "s/.*\"$1\":{\"value\":\([-0-9.eE+]*\).*/\1/p"; }

# stats FILE: "median q1 q3" of the numbers in FILE.
stats() {
    sort -g "$1" | awk '
        { x[NR] = $1 }
        function med(lo, hi,   n) { n = hi - lo + 1; return (x[lo + int((n - 1) / 2)] + x[lo + int(n / 2)]) / 2 }
        END {
            n = NR; h = int(n / 2)
            if (n == 1) { print x[1], x[1], x[1]; exit }
            print med(1, n), med(1, h), med(n - h + 1, n)
        }'
}

seeds=$(seq -s, "$first_seed" $((first_seed + pairs - 1)))
json="{\"rev\":\"$rev\",\"parent\":\"$parent_rev\",\"nproc\":$(nproc),\"run_seconds\":$seconds,\"seeds\":[$seeds],\"workloads\":{"
for w in "${workloads[@]}"; do
    data="$dir/$w"
    rm -rf "$data"
    mkdir -p "$data"
    for ((p = 0; p < pairs; p++)); do
        seed=$((first_seed + p))
        order="parent change"
        [ $((p % 2)) -eq 0 ] || order="change parent"
        for side in $order; do
            run "$side" "$w" "$seed"
            line=$(tail -n 1 "$dir/run.out")
            echo "$line" >>"$data/$side.jsonl"
            case $line in *'"correct":true'*) ;; *) echo x >>"$data/$side.incorrect" ;; esac
            echo "$line" | sed -n 's/.*"failed":\([0-9]*\).*/\1/p' >>"$data/$side.failed"
            for m in "${metrics[@]}"; do
                echo "$line" | metric "$m" >>"$data/$side.$m"
            done
        done
        printf '%s seed %s:' "$w" "$seed"
        for m in "${metrics[@]}"; do
            printf '  %s %s -> %s' "$m" "$(tail -n 1 "$data/parent.$m")" "$(tail -n 1 "$data/change.$m")"
        done
        echo
    done
    json="$json\"$w\":{"
    for i in "${!metrics[@]}"; do
        m=${metrics[$i]}
        read -r pmed pq1 pq3 < <(stats "$data/parent.$m")
        read -r cmed cq1 cq3 < <(stats "$data/change.$m")
        wins=$(paste "$data/parent.$m" "$data/change.$m" | awk -v b="${better[$i]}" \
            '{ if (b == "lower" ? $2 < $1 : $2 > $1) w++ } END { print w + 0 }')
        piqr=$(awk -v a="$pq1" -v c="$pq3" 'BEGIN { print c - a }')
        ciqr=$(awk -v a="$cq1" -v c="$cq3" 'BEGIN { print c - a }')
        verdict=$(awk -v b="${better[$i]}" -v w="$wins" -v n="$pairs" -v pm="$pmed" -v cm="$cmed" \
            -v iqr="$piqr" 'BEGIN {
                gain = (b == "lower") ? pm - cm : cm - pm
                print (w * 10 >= 9 * n && gain > iqr) ? "true" : "false" }')
        # The fastest and slowest run of each side, for "every change run
        # beats every parent run".
        read -r pmin pmax < <(sort -g "$data/parent.$m" | sed -n '1p;$p' | paste -sd' ')
        read -r cmin cmax < <(sort -g "$data/change.$m" | sed -n '1p;$p' | paste -sd' ')
        regression=$(awk -v b="${better[$i]}" -v bound="${bounds[$i]}" -v pm="$pmed" -v cm="$cmed" \
            -v piqr="$piqr" -v ciqr="$ciqr" -v pmin="$pmin" -v pmax="$pmax" -v cmin="$cmin" \
            -v cmax="$cmax" 'BEGIN {
                loss = (b == "lower") ? cm - pm : pm - cm
                sweep = (b == "lower") ? cmax < pmin : cmin > pmax
                allowed = bound * pm
                if (loss > allowed) print "worse"
                else if ((piqr > allowed || ciqr > allowed) && !sweep) print "unresolved"
                else print "within bound" }')
        printf '%-8s %-16s parent %s [%s, %s]  change %s [%s, %s]  wins %s/%s  claim %s  bound %s: %s\n' \
            "$w" "$m" "$pmed" "$pq1" "$pq3" "$cmed" "$cq1" "$cq3" "$wins" "$pairs" "$verdict" \
            "${bounds[$i]}" "$regression"
        json="$json\"$m\":{\"parent_median\":$pmed,\"parent_iqr\":$piqr,\"change_median\":$cmed,\"change_iqr\":$ciqr,\"wins\":$wins,\"pairs\":$pairs,\"claim\":$verdict,\"regression\":\"$regression\"},"
    done
    pfail=$(awk '{ s += $1 } END { print s + 0 }' "$data/parent.failed")
    cfail=$(awk '{ s += $1 } END { print s + 0 }' "$data/change.failed")
    pinc=$(cat "$data/parent.incorrect" 2>/dev/null | wc -l || true)
    cinc=$(cat "$data/change.incorrect" 2>/dev/null | wc -l || true)
    echo "$w failed operations: parent $pfail, change $cfail; incorrect runs: parent $pinc, change $cinc"
    json="$json\"failed\":{\"parent\":$pfail,\"change\":$cfail},\"incorrect_runs\":{\"parent\":$pinc,\"change\":$cinc}},"
done
json="${json%,}}}"
echo "$json" >>"$root/BENCH_trajectory.jsonl"
echo "appended to BENCH_trajectory.jsonl" >&2
