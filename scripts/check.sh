#!/usr/bin/env bash
# Tier-1 gate + bench emission, one reproducible command, fully offline.
#
# The workspace's offline-build policy (std-only deps, see DESIGN.md
# "Engine internals") makes --offline a hard guarantee, not an
# optimization: if this script fails at dependency resolution, a
# registry dep leaked back into a manifest.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline
# --workspace: the crates' own unit tests (the optimizer's detect, graph,
# push and cleanup among them) live in the member packages; without it
# only the root package's integration suites would run.
cargo test -q --offline --workspace
# Robustness suite: the deterministic fault-injection failpoints only
# exist under this feature, so the agreement-or-typed-error property
# (tests/fault_injection.rs) gets its own test leg.
cargo test -q --offline --workspace --features failpoints
# The route matrix (tests/common/routes.rs) over every case generator at
# ten times the suites' tier-1 seeds: the `#[ignore]`d test of
# tests/matrix.rs, one generator after the other.
cargo test -q --offline --test matrix -- --ignored
# Size gate: no product source file (the bench crate's experiments and
# fixtures aside) may hold more than 1 200 lines before its first
# `#[cfg(test)]`. A file past it holds more than one layer: split it.
for f in $(find crates/{datalog,engine,core,serve,iqa,gen}/src src -name '*.rs'); do
  awk '/^#\[cfg\(test\)\]/ { exit } { n = NR }
       END { if (n > 1200) { print FILENAME ": " n " lines before its tests (max 1200)"; exit 1 } }' "$f" \
    || { echo "size gate: split the file" >&2; exit 1; }
done
# Format gate: the whole workspace is rustfmt-clean; drift fails the
# build before clippy ever runs.
cargo fmt --check
# Lint gate: the workspace is warning-free; keep it that way. Every
# member, not only the root package: the bench crate holds the
# experiments' fixtures.
cargo clippy --workspace --all-targets --offline -- -D warnings
# The experiment fixtures (tabled top-down and SLD for E3c/E3d, the
# run-time baseline for E4) and their built-in answer assertions: E3c
# and E3d require the original and the pruned program to answer alike
# under each fixture, E4 the baseline to answer like the compiled
# program on the executor (well under 1 s).
cargo run -p semrec-bench --release --offline --bin harness -- e3 e4 --quick
# The quick bench runs without --json on purpose: the checked-in
# BENCH_fixpoint.json is the full-size run, not the quick CI sizes.
# Throughput gate: rows/sec on each workload with rows_idb >= 50_000
# must stay within 40% of the checked-in baseline. The tolerance is
# wide because the quick gate takes a 3-sample median and the
# kernelized workloads finish in tens of milliseconds, where this
# box's ambient jitter alone measures 20-30%; the regressions the gate
# exists to catch (re-allocating per probe, losing dictionary-map
# residency) are 2-10x+, far outside any noise band. Quick sizes differ from the baseline's full sizes, so the gate
# matches workloads by name+params and only checks those present in
# both — the quick set keeps the 300/160/64 fanout so one workload
# above the floor always overlaps. The same gate holds the `parse` row
# (parse_unit MB/s on the exported fanout bundle) and the `compile` row
# (Optimizer::run ICs/s on multi_block(3, 160)), one input each at every
# size, within 40% of the baseline's.
# Table-bytes gate: every generated workload's IDB membership tables
# must hold at most 24 slot bytes per live row. A ¾-load table that
# grows 2× reads 10.7-21.3; a looser load rule or a reservation that
# over-sizes (the EWMA's 4× at ½ load read up to 64) fails. Its row
# stores must hold at most 16 bytes per live value: an 8-byte word with
# at most 2× capacity slack reads 8-16, so rows widened back to 16-byte
# values (16-32) fail.
# Routing gate: the cost planner's chosen route must not run slower
# than the fixed rewrite ladder (beyond a 25% + 2 ms noise band), must
# keep cardinality mispredictions within 10x on every routed scenario,
# and must spend under 2% of evaluation time planning on the large
# fanout workload — so a broken estimator or a planner that taxes the
# hot path fails CI rather than silently degrading the default route.
# Baseline freshness: loading --baseline also verifies the checked-in
# JSON carries the harness's current schema_version, so a stale
# BENCH_fixpoint.json (missing new sections/fields) fails here instead
# of silently gating against fields that no longer line up.
cargo run -p semrec-bench --release --offline --bin harness -- bench --quick \
  --assert-routing --baseline BENCH_fixpoint.json --assert-throughput 40 \
  --assert-table-bytes

# ---- serve leg -------------------------------------------------------
# Deterministic fault schedules over the server sites (serve.accept on
# a real listener, serve.reader, wal.append, wal.fsync,
# snapshot.publish): every seeded schedule must end in the exact
# serial-replay answer or a typed error.
# (The blanket failpoints leg above runs these too; the explicit legs
# keep the serve suites named, individually-runnable gates:
# serve_agreement holds the threaded reader/writer interleavings and
# pinned-reader isolation, and runs the served route of the matrix.)
cargo test -q --offline --features failpoints --test serve_faults
cargo test -q --offline --test serve_agreement

# Kill-and-recover WAL smoke test through the real CLI: commit via a
# script session, restart and observe the replay, tear the log's tail
# (recovers with the acknowledged prefix), then corrupt acknowledged
# history (must refuse with exit code 8, never serve diverged answers).
SMOKE=$(mktemp -d)
trap 'rm -rf "$SMOKE"' EXIT
cat > "$SMOKE/prog.dl" <<'EOF'
reach(X, Y) :- edge(X, Y).
reach(X, Y) :- edge(X, Z), reach(Z, Y).
edge(1, 2). edge(2, 3).
EOF
printf '+edge(3, 4).\ncommit.\nquery reach(1, Y).\nquit.\n' > "$SMOKE/write.txt"
printf 'query reach(1, Y).\nquit.\n' > "$SMOKE/read.txt"
# Replies are captured to files, not piped: `grep -q` on a live pipe
# exits at first match and races the daemon's remaining writes.
SEMREC=target/release/semrec
"$SEMREC" serve "$SMOKE/prog.dl" --wal "$SMOKE/serve.wal" --script "$SMOKE/write.txt" \
  > "$SMOKE/write.out"
grep -q 'reach(1, 4)\.' "$SMOKE/write.out" \
  || { echo "serve smoke: commit not visible" >&2; exit 1; }
"$SEMREC" serve "$SMOKE/prog.dl" --wal "$SMOKE/serve.wal" --script "$SMOKE/read.txt" \
  > "$SMOKE/replay.out" 2> "$SMOKE/replay.err"
grep -q 'reach(1, 4)\.' "$SMOKE/replay.out" \
  || { echo "serve smoke: replay lost the commit" >&2; exit 1; }
grep -q '1 commit(s) replayed' "$SMOKE/replay.err" \
  || { echo "serve smoke: restart did not replay the WAL" >&2; exit 1; }
cp "$SMOKE/serve.wal" "$SMOKE/corrupt.wal"
# Torn tail: drop the last 5 bytes — an interrupted, unacknowledged
# append. Recovery truncates it away and serves the surviving prefix.
truncate -s -5 "$SMOKE/serve.wal"
"$SEMREC" serve "$SMOKE/prog.dl" --wal "$SMOKE/serve.wal" --script "$SMOKE/read.txt" \
  2> "$SMOKE/torn.err" > /dev/null \
  || { echo "serve smoke: torn tail must recover" >&2; exit 1; }
grep -q 'torn WAL tail truncated' "$SMOKE/torn.err" \
  || { echo "serve smoke: torn tail not reported" >&2; exit 1; }
# Corruption: flip a payload byte of the acknowledged record. This is
# not recoverable history — the daemon must refuse with exit code 8.
printf '\xff' | dd of="$SMOKE/corrupt.wal" bs=1 seek=12 conv=notrunc status=none
rc=0
"$SEMREC" serve "$SMOKE/prog.dl" --wal "$SMOKE/corrupt.wal" --script "$SMOKE/read.txt" \
  > /dev/null 2>&1 || rc=$?
[ "$rc" -eq 8 ] || { echo "serve smoke: corrupt WAL exited $rc, want 8" >&2; exit 1; }

# BENCH_serve.json freshness: the quick serve bench validates the
# checked-in artifact's schema_version and required fields before its
# own timing pass (overload shed count must be recorded nonzero).
# Serve read gate: on the fresh quick run, indexed bound-goal reads must
# come in at <= 20% of the scan yardstick's median, a round trip over a
# real loopback listener must take <= 5 ms at the median, and a
# two-fact insert commit must copy <= 64 KiB on behalf of publication at
# the median (a count off `stats.`'s publish_bytes, not a timing) —
# losing the probe route, the one-write session
# loop (a reply waiting for a delayed ACK takes >= 40 ms) or O(delta)
# publication (a per-commit clone copies megabytes even at quick sizes,
# where the clock cannot see it) fails CI, not just the latency chart.
# Delete gate (the `write_delete` leg: cycles of 4 spur inserts and one
# commit deleting them): a delete commit must take <= 10x the leg's
# steady insert median, the first insert after a delete <= 2x of it, and
# that insert must publish <= 64 KiB. It protects the one in-place,
# undo-logged maintenance path: a clone of the materialization or a
# compaction per delete commit is O(database) and fails the first, a
# delete that drops the writer's indexes (compaction, a swapped-in
# clone) fails the second, unshared tombstone words or a lost index
# lineage the third.
# Group-commit gate: with both write legs logging to a WAL, 8 writers
# must average >= 2 transactions per batch (they read ~4 and share one
# fsync, ~2x the serial leg's commits/s; a pipeline that commits each
# transaction alone reads ~1). Group commit is kept on that measurement.
cargo run -p semrec-bench --release --offline --bin harness -- serve-bench --quick \
  --baseline BENCH_serve.json --assert-serve-read
