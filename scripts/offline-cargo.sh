#!/usr/bin/env bash
# Runs cargo without a registry, in the workspace of the current directory:
#
#   scripts/offline-cargo.sh <cargo-subcommand> [args...]
#
# The published crates the workspace names are replaced, for this one
# invocation (`--config patch.crates-io…`, no manifest is edited), by the
# stand-ins of this checkout: co-e2e/stubs for bytes, crossbeam, parking_lot
# and serde (read-only here; co-e2e owns them), scripts/stubs/rand, and
# empty placeholders for proptest and criterion, generated under the target
# directory. The placeholders only let dependency resolution succeed:
# targets that use proptest or criterion do not compile offline, so name
# the targets you want (`test -p co-protocol --lib --test entity_behavior`).
# Seeded results depend on the `rand` resolved; compare offline numbers with
# offline numbers only.
set -euo pipefail

repo=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
placeholders=${CARGO_TARGET_DIR:-$PWD/target}/offline-placeholders
for spec in proptest:1.11.0 criterion:0.8.0; do
    dir=$placeholders/${spec%%:*}
    mkdir -p "$dir/src"
    touch "$dir/src/lib.rs"
    printf '[package]\nname = "%s"\nversion = "%s"\nedition = "2021"\n' \
        "${spec%%:*}" "${spec##*:}" >"$dir/Cargo.toml"
done

subcommand=${1:?usage: offline-cargo.sh <cargo-subcommand> [args...]}
shift
patch() { printf "patch.crates-io.%s.path='%s'" "$1" "$2"; }
exec cargo "$subcommand" --offline \
    --config "$(patch bytes "$repo/co-e2e/stubs/bytes")" \
    --config "$(patch crossbeam "$repo/co-e2e/stubs/crossbeam")" \
    --config "$(patch parking_lot "$repo/co-e2e/stubs/parking_lot")" \
    --config "$(patch serde "$repo/co-e2e/stubs/serde")" \
    --config "$(patch rand "$repo/scripts/stubs/rand")" \
    --config "$(patch proptest "$placeholders/proptest")" \
    --config "$(patch criterion "$placeholders/criterion")" \
    "$@"
