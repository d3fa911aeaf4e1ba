#!/usr/bin/env bash
# Runs the `co-node` binary the way its README does: three processes on
# loopback ports, one line typed into each, stdin closed.
#
#   scripts/co-node-smoke.sh <path-to-co-node> [base-port]
#
# Passes when every process prints the same three deliveries in the same
# order and exits 0. The lines are typed half a second apart, so each is
# delivered everywhere before the next is submitted: the three messages
# form a causal chain and every node must print them in typing order.
set -euo pipefail

bin=${1:?usage: co-node-smoke.sh <path-to-co-node> [base-port]}
base=${2:-47310}
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

typed_at=(1.0 1.5 2.0)
open_for=(2.0 1.5 1.0)
pids=()
for me in 0 1 2; do
    peers=()
    for other in 0 1 2; do
        [ "$other" = "$me" ] || peers+=(--peer "127.0.0.1:$((base + other))")
    done
    # Everyone is bound before the first line; stdin stays open until the
    # last line has been delivered everywhere, then EOF.
    (
        sleep "${typed_at[$me]}"
        echo "line from $me"
        sleep "${open_for[$me]}"
    ) | "$bin" --me "$me" --bind "127.0.0.1:$((base + me))" "${peers[@]}" \
        >"$out/$me.out" 2>"$out/$me.err" &
    pids+=($!)
done

status=0
for me in 0 1 2; do
    wait "${pids[$me]}" || {
        echo "co-node $me exited with $?" >&2
        cat "$out/$me.err" >&2
        status=1
    }
done

expected=$'E1#1  line from 0\nE2#1  line from 1\nE3#1  line from 2'
for me in 0 1 2; do
    if [ "$(cat "$out/$me.out")" != "$expected" ]; then
        echo "co-node $me printed:" >&2
        cat "$out/$me.out" >&2
        status=1
    fi
done
[ "$status" = 0 ] && echo "co-node smoke: three processes, three deliveries each, same order, exit 0"
exit "$status"
