#!/usr/bin/env bash
# Runs what the benchmark driver will run, before it does:
#
#   scripts/bench-preflight.sh            # from anywhere inside the checkout
#
# For every workload `BENCHMARK.json` names, its `command` is run with
# `--workload W --seed 1 --seconds <run_seconds> --trace 0` and again with
# `--trace 1`. Each run must exit 0 and end its stdout with a JSON line
# carrying `"correct": true` and `"failed": 0`. For the traced runs the
# script prints `harness.layer_coverage` and its distance from the 0.90
# the benchmark demands: a traced run whose product layers got *faster*
# can fall under that floor and exit 1 (ROADMAP, "A wall-clock number
# that can be guarded"), and this is where to find that out. Exits 1 if
# any of the runs failed, after running them all.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."

# One line per workload: the command's words, tab-separated, then the name.
plan=$(python3 - <<'EOF'
import json
bench = json.load(open("BENCHMARK.json"))
for workload in bench["workloads"]:
    words = bench["command"] + ["--workload", workload["name"], "--seed", "1",
                                "--seconds", str(bench["run_seconds"])]
    print("\t".join(words))
EOF
)

# Prints `ok [coverage]` for a result line that passes, else why not.
verdict() {
    python3 -c '
import json, sys
try:
    result = json.loads(sys.argv[1])
except ValueError:
    sys.exit("last stdout line is not JSON: " + sys.argv[1][:120])
if result.get("correct") is not True or result.get("failed") != 0:
    sys.exit("correct = %r, failed = %r" % (result.get("correct"), result.get("failed")))
coverage = result["metrics"].get("harness.layer_coverage")
print("ok" if coverage is None else "ok %.4f" % coverage["value"])
' "$1"
}

errors=$(mktemp)
trap 'rm -f "$errors"' EXIT
status=0
while IFS=$'\t' read -r -a words; do
    workload=${words[${#words[@]}-5]}
    for trace in 0 1; do
        label="$workload --trace $trace"
        code=0
        stdout=$("${words[@]}" --trace "$trace" 2>"$errors") || code=$?
        if [ "$code" != 0 ]; then
            # A run that measured but is not valid says why on stderr and
            # still prints its table.
            echo "FAIL  $label: exit $code: $(tail -n 1 "$errors")"
            grep -F 'harness.layer_coverage' <<<"$stdout" | sed 's/^ */      /' || true
            status=1
        elif ! seen=$(verdict "$(tail -n 1 <<<"$stdout")" 2>&1); then
            echo "FAIL  $label: $seen"
            status=1
        elif [ "$seen" = ok ]; then
            echo "ok    $label"
        else
            coverage=${seen#ok }
            echo "ok    $label: harness.layer_coverage $coverage" \
                "($(python3 -c "print('%+.4f' % ($coverage - 0.90))") from the 0.90 floor)"
        fi
    done
done <<<"$plan"
exit "$status"
