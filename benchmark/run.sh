#!/usr/bin/env bash
# The benchmark's one command. Builds `semrec` and the benchmark's own
# bins from source (offline, std only), then:
#
#   run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one run, as BENCHMARK.json's `command` is called: --trace 0 the
#       end-to-end metrics (nothing recorded inside the program), --trace 1
#       the per-layer metrics (a half-length end-to-end pass, then the
#       same inputs in-process with a span around every layer call).
#       Last stdout line: the JSON result.
#   run.sh [--seed N]
#       all four workloads, both ways, at BENCHMARK.json's run_seconds.
#   run.sh --selfcheck [--seed N]
#       that, twice (second time in reverse order), then fails if the two
#       sets differ by more than each metric's bound or in any exact count.
#
# Everything written goes under $CARGO_TARGET_DIR (default
# target/benchmark, which the root .gitignore covers).
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

workload="" seed=1 seconds="" trace=0 selfcheck=0
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --trace) trace="$2"; shift 2 ;;
    --selfcheck) selfcheck=1; shift ;;
    *) echo "run.sh: unknown argument \`$1\`" >&2; exit 2 ;;
  esac
done

case "${CARGO_TARGET_DIR:=target/benchmark}" in
  /*) ;;
  *) CARGO_TARGET_DIR="$root/$CARGO_TARGET_DIR" ;;
esac
export CARGO_TARGET_DIR
bin="$CARGO_TARGET_DIR/release"
work="$CARGO_TARGET_DIR/work"

# The product binary from the repository's own manifest; the benchmark's
# bins from theirs. `layers` links the product crates and is built apart,
# so that if their API moved, `e2e` still builds and says so.
cargo build --release --offline --manifest-path "$root/Cargo.toml" --bin semrec >&2
cargo build --release --offline --manifest-path "$root/benchmark/Cargo.toml" \
  --bin e2e --bin yardstick --bin compare >&2

# One run; the result line is the last line of stdout.
run_one() { # workload seed seconds trace
  local e2e=("$bin/e2e" --workload "$1" --seed "$2" --semrec "$bin/semrec" --work "$work")
  if [ "$4" = 0 ]; then
    "${e2e[@]}" --seconds "$3"
  else
    cargo build --release --offline --manifest-path "$root/benchmark/Cargo.toml" --bin layers >&2
    local half=$(( ($3 + 1) / 2 ))
    "${e2e[@]}" --seconds "$half" --summary "$work/$1.e2e" | sed '$d'
    "$bin/layers" --workload "$1" --seed "$2" --seconds "$half" \
      --e2e "$work/$1.e2e" --work "$work" --trace-to "$CARGO_TARGET_DIR/trace.$1.json"
  fi
}

if [ -n "$workload" ]; then
  run_one "$workload" "$seed" "${seconds:?--seconds is required with --workload}" "$trace"
  exit
fi

workloads=(fixpoint_cli compile_cli serve_read serve_mixed)
seconds="$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' "$root/BENCHMARK.json")"

# One full set; appends `workload trace {json}` lines to $1.
run_set() { # results-file workloads...
  local results="$1" w t
  shift
  for w in "$@"; do
    for t in 0 1; do
      run_one "$w" "$seed" "$seconds" "$t" | tee "$work/last.out"
      echo "$w $t $(tail -n 1 "$work/last.out")" >> "$results"
    done
  done
}

mkdir -p "$work"
if [ "$selfcheck" = 0 ]; then
  rm -f "$work/set.results"
  run_set "$work/set.results" "${workloads[@]}"
  exit
fi

echo "nproc=$(nproc) rustc=$(rustc --version) commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
reversed=()
for w in "${workloads[@]}"; do reversed=("$w" "${reversed[@]}"); done
rm -f "$work/first.results" "$work/second.results"
run_set "$work/first.results" "${workloads[@]}"
run_set "$work/second.results" "${reversed[@]}"
"$bin/compare" "$root/BENCHMARK.json" "$work/first.results" "$work/second.results"
