#!/bin/sh
# benchmark/repeat.sh N [SECONDS] — the acceptance check: two sets of N runs
# of the same code (seeds 901..900+N, every workload, each in a fresh
# process), then `compare` on their medians. Every end-to-end row must read
# `ok`; later PRs reuse this with one set per commit.
set -eu
n=${1:?usage: repeat.sh N [SECONDS]}
seconds=${2:-20}
dir=$(dirname "$0")
bench="cargo run --release --offline --quiet --manifest-path $dir/Cargo.toml --"
mkdir -p "$dir/out"
rm -f "$dir/out/set-A.jsonl" "$dir/out/set-B.jsonl"
for set in A B; do
    i=1
    while [ "$i" -le "$n" ]; do
        $bench run --seed $((900 + i)) --seconds "$seconds" --out "$dir/out/set-$set.jsonl" >/dev/null
        i=$((i + 1))
    done
done
$bench compare "$dir/out/set-A.jsonl" "$dir/out/set-B.jsonl"
