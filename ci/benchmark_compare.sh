#!/usr/bin/env bash
# The performance gate: the repository benchmark at <base-rev> against
# HEAD, both built and run on this host.
#
#   ci/benchmark_compare.sh <base-rev>
#
# Checks <base-rev> out into a git worktree and builds `benchmark` there
# and at HEAD (release, offline, locked). Runs `benchmark run --all` for
# three pairs, seeds 1-3, alternating which side runs first, at the
# benchmark's default run length. Ends with `benchmark compare base/
# change/` under HEAD's BENCHMARK.json and exits with its code: 1 when
# any (metric, workload) row regressed.
#
# Result files stay in target/benchmark-compare/{base,change}/, so
# `benchmark check` or a longer compare can read them afterwards.
set -euo pipefail

if [ "$#" -ne 1 ]; then
    echo "usage: $0 <base-rev>" >&2
    exit 2
fi

root=$(git rev-parse --show-toplevel)
cd "$root"
base_rev=$(git rev-parse --verify "$1^{commit}")
work=$root/target/benchmark-compare
tree=$work/base-src

rm -rf "$work/base" "$work/change"
mkdir -p "$work/base" "$work/change"
git worktree remove --force "$tree" 2>/dev/null || rm -rf "$tree"
git worktree prune
git worktree add --detach "$tree" "$base_rev"
trap 'git worktree remove --force "$tree" 2>/dev/null || true' EXIT

build() { # <source root> <target dir>
    CARGO_TARGET_DIR=$2 cargo build --release --offline --locked \
        --manifest-path "$1/benchmark/Cargo.toml" --bin benchmark
}
echo "== building base $base_rev"
build "$tree" "$work/base-target"
echo "== building change $(git rev-parse HEAD)"
build "$root" "$root/benchmark/target"
base_bin=$work/base-target/release/benchmark
change_bin=$root/benchmark/target/release/benchmark

run() { # <side> <seed>
    local bin=$base_bin
    [ "$1" = change ] && bin=$change_bin
    echo "== $1, seed $2"
    "$bin" run --all --seed "$2" --out "$work/$1"
}
for seed in 1 2 3; do
    if [ $((seed % 2)) -eq 1 ]; then
        run base "$seed"
        run change "$seed"
    else
        run change "$seed"
        run base "$seed"
    fi
done

"$change_bin" compare "$work/base/" "$work/change/" --spec "$root/BENCHMARK.json"
