#!/usr/bin/env bash
# Checks that this checkout behaves bit-identically to <base-ref>:
#
#   scripts/digest-diff.sh [--offline] <base-ref>
#
# Builds co-check at both commits with the same dependency resolution and
# compares the `digest` / `event digest` folds of its final report on
#   * 200 schedules at seed 0 for each of 3 cores x 4 --network presets,
#   * the batched-acceptance smoke (seed 1, --batch 8) per core, under each
#     preset and with the network every schedule draws for itself,
#   * a --replay of every reproducer under tests/regressions/.
# No digest literal is pinned anywhere because the values depend on the
# `rand` the build resolved; only two builds with one resolution can be
# compared.
#
# Then builds co-cli at both commits and compares, byte for byte, what
# each prints for merged traces this checkout's co-check writes (seeds
# 0-7, each also with --force-loss-burst): `trace analyze --json`,
# `trace analyze` and `trace watch --once --json`, under the default
# thresholds and under thresholds tight enough that the rules fire.
#
# Every cell runs and prints one `identical` or `DIFFERS` line (a
# differing cell also prints both sides), then a summary names the cells
# that differ; the exit status is 1 if any did. A change that is expected
# to move some cells (one that alters `Pdu::encoded_len` moves the
# bandwidth-charged `contended` network and nothing else) is read off
# that list.
#
# Both sides run this checkout's instrument — co-check and co-baselines,
# the crate of the simulator node it hosts entities in — over their own
# product crates, so a change to schedule generation, the node or
# reporting cannot show up as a product difference. If this checkout's
# instrument does not build against <base-ref>'s product, <base-ref>'s own
# is used.
#
# Online, plain cargo resolves the registry and the base reuses this
# checkout's Cargo.lock; with --offline both sides build through
# scripts/offline-cargo.sh (stand-in crates, see there).
set -euo pipefail

cargo_cmd=(cargo)
if [[ ${1:-} == --offline ]]; then
    cargo_cmd=("$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)/offline-cargo.sh")
    shift
fi
base_ref=${1:?usage: digest-diff.sh [--offline] <base-ref>}

head=$(git -C "$(dirname "${BASH_SOURCE[0]}")" rev-parse --show-toplevel)
target=${CARGO_TARGET_DIR:-$head/target}
work=$(mktemp -d)
base=$work/base
trap 'git -C "$head" worktree remove --force "$base" 2>/dev/null; rm -rf "$work"' EXIT
git -C "$head" worktree add --quiet --detach "$base" "$base_ref"

build() { # <checkout> <target-dir> [package and target flags]
    (cd "$1" && CARGO_TARGET_DIR=$2 "${cargo_cmd[@]}" build --release --quiet "${@:3}")
}
build "$head" "$target" -p co-check
[[ -f $head/Cargo.lock ]] && cp "$head/Cargo.lock" "$base/Cargo.lock"
instrument=(co-check co-baselines)
for crate in "${instrument[@]}"; do
    mv "$base/crates/$crate" "$work/base-$crate"
    cp -r "$head/crates/$crate" "$base/crates/$crate"
done
if ! build "$base" "$target/digest-diff-base" -p co-check; then
    echo "digest-diff: this checkout's ${instrument[*]} do not build against $base_ref; using its own" >&2
    for crate in "${instrument[@]}"; do
        rm -rf "$base/crates/$crate"
        mv "$work/base-$crate" "$base/crates/$crate"
    done
    build "$base" "$target/digest-diff-base" -p co-check
fi
# Only the co-cli binary: co-node does not build against the offline
# crossbeam stand-in.
build "$head" "$target" -p co-cli --bin co-cli
build "$base" "$target/digest-diff-base" -p co-cli --bin co-cli

# The digest lines of a report (exploration or replay), or nothing.
folds() { # <co-check binary> <args...>
    local out status=0
    out=$("$@" --out "$work" 2>&1) || status=$?
    # Replaying the fixed corpus exits 1 by design (nothing reproduces).
    if [[ $status -ne 0 && $2 != --replay ]]; then
        echo "$out" >&2
        return 1
    fi
    grep -E '^ +(event )?digest' <<<"$out" || true
}
cells=0
differing=()
compare() { # <label> <args...>
    local label=$1 ours theirs
    shift
    cells=$((cells + 1))
    ours=$(folds "$target/release/co-check" "$@")
    theirs=$(folds "$target/digest-diff-base/release/co-check" "$@")
    if [[ -z $ours || -z $theirs ]]; then
        echo "digest-diff: $label: no digest in the report (does $base_ref predate co-check's digest fold?)" >&2
        exit 2
    fi
    if [[ $ours != "$theirs" ]]; then
        printf 'DIFFERS    %s\n  this checkout:\n%s\n  %s:\n%s\n' \
            "$label" "$ours" "$base_ref" "$theirs"
        differing+=("$label")
        return
    fi
    echo "identical  $label"
}

for core in co hybrid sender; do
    for network in uniform contended asymmetric wan; do
        compare "$core x $network" --schedules 200 --seed 0 --core "$core" --network "$network"
        compare "$core x $network batched" --schedules 200 --seed 1 --core "$core" --batch 8 \
            --network "$network"
    done
    # Without --network every schedule draws its own model, a quarter of
    # them bandwidth-charged: this cell moves whenever `contended` does.
    compare "$core batched, per-scenario networks" --schedules 200 --seed 1 --core "$core" --batch 8
done
for reproducer in "$head"/tests/regressions/*.json "$head"/tests/regressions/fixed/*.json; do
    compare "replay ${reproducer#"$head"/}" --replay "$reproducer"
done

# What each side's co-cli prints for one trace, compared byte for byte.
compare_cli() { # <label> <co-cli args...>
    local label=$1
    shift
    cells=$((cells + 1))
    "$target/release/co-cli" "$@" >"$work/ours.out"
    "$target/digest-diff-base/release/co-cli" "$@" >"$work/theirs.out"
    if ! cmp "$work/ours.out" "$work/theirs.out"; then
        printf 'DIFFERS    %s (< this checkout, > %s)\n' "$label" "$base_ref"
        diff "$work/ours.out" "$work/theirs.out" | cut -c1-400 | head -20
        differing+=("$label")
        return
    fi
    echo "identical  $label"
}
tight=(--ret-storm-requests 2 --ret-storm-window-us 30000 --stuck-preack-us 2000
    --loss-cluster-min 1 --flow-blocked-min 1)
for seed in 0 1 2 3 4 5 6 7; do
    for burst in "" --force-loss-burst; do
        trace=$work/seed$seed$burst.jsonl
        "$target/release/co-check" --schedules 1 --seed "$seed" --trace-out "$trace" $burst \
            --out "$work" >/dev/null
        for thresholds in default tight; do
            flags=()
            [[ $thresholds == tight ]] && flags=("${tight[@]}")
            cell="seed $seed${burst:+ burst}, $thresholds thresholds"
            compare_cli "analyze --json  $cell" trace analyze "$trace" --json "${flags[@]}"
            compare_cli "analyze (text)  $cell" trace analyze "$trace" "${flags[@]}"
            compare_cli "watch --once    $cell" trace watch "$trace" --once --json "${flags[@]}"
        done
    done
done
if ((${#differing[@]})); then
    echo "digest-diff: ${#differing[@]} of $cells cells differ from $base_ref:"
    printf '  %s\n' "${differing[@]}"
    exit 1
fi
echo "digest-diff: bit-identical to $base_ref on all $cells cells"
