//! Serving-daemon benchmark (`harness serve-bench`): read latency
//! percentiles and throughput against a live [`semrec_serve::Server`]
//! — in-process and over a real loopback socket — commit latency on the
//! single-writer path, and overload shedding under a deliberately tiny
//! admission gate — emitted as `BENCH_serve.json` at the repo root.
//!
//! The artifact carries its own schema version ([`SERVE_SCHEMA_VERSION`],
//! independent of the fixpoint bench's) so `check.sh` can fail on a
//! stale checked-in file, and records the box's
//! `available_parallelism` (the concurrent legs run reader and writer
//! threads), so cross-machine numbers are interpretable.

use crate::baseline::{parse_json, Json};
use semrec_datalog::atom::Atom;
use semrec_datalog::parser::{parse_atom, parse_unit, Unit};
use semrec_datalog::word;
use semrec_engine::eval::goal_matches;
use semrec_engine::{int_tuple, Tuple, Tx};
use semrec_serve::{AdmissionConfig, Connection, ServeConfig, ServeError, Server, SESSION_BURST};
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write as _};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Schema version of `BENCH_serve.json`. Bump whenever a field the
/// `check.sh` serve leg reads is added or changed; the leg fails when
/// the checked-in artifact's version differs, forcing a regeneration
/// with `harness serve-bench --json` in the same PR.
///
/// v2 added the indexed-read sections (`read_indexed`, `read_scan`),
/// the `answer_cache` section, and the `batched_write` section; v3
/// dropped the `threads` key (evaluation is single-threaded); v4 added
/// the `socket_read` section (a real loopback listener beside the same
/// requests in-process); v5 added `write.publish_bytes_per_commit`; v6
/// added the `write_delete` section; v7 dropped the `answer_cache`
/// section with the cache it timed. Older artifacts are rejected.
pub const SERVE_SCHEMA_VERSION: u64 = 7;

/// The `--assert-serve-read` ceiling on the loopback round-trip median.
/// A reply that waits for the client's delayed ACK takes ≥ 40 ms; a
/// healthy round trip of this size measures under 1 ms.
pub const SOCKET_READ_P50_MAX_US: f64 = 5_000.0;

/// The `--assert-serve-read` ceiling on the bytes one two-fact insert
/// commit may copy on behalf of publication, at the median. A commit of
/// the write leg appends one row per chain node and publishes
/// watermarks: what it copies is the index entries of those rows (8
/// bytes each). A per-commit clone of the relation copies megabytes
/// even at `--quick` sizes, where the clock cannot see it.
pub const PUBLISH_BYTES_PER_COMMIT_MAX: f64 = 64.0 * 1024.0;

/// The `--assert-serve-read` ceiling on a delete commit's median over
/// the steady insert median of the same leg. Both commits touch a
/// handful of rows, so what separates them is the delete path's fixed
/// cost: a clone of the materialization or a compaction per commit is
/// O(database) and lands far above this at any size.
pub const DELETE_OVER_INSERT_MAX: f64 = 10.0;

/// The `--assert-serve-read` ceiling on the median of the first insert
/// after each delete over the steady insert median: a delete that threw
/// the writer's indexes away (a compaction, a swapped-in clone) makes
/// the next commit rebuild them.
pub const FIRST_INSERT_AFTER_DELETE_MAX: f64 = 2.0;

/// The `--assert-serve-read` floor on the mean transactions per batch of
/// the WAL-backed `batched_write` leg. With a commit waiting on its
/// fsync, concurrent writers queue behind the leader and share its
/// sweep; a pipeline that commits each transaction alone reads 1.0.
pub const AVG_BATCH_MIN: f64 = 2.0;

/// One timed section's latency digest, microseconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct LatencyDigest {
    /// Samples taken.
    pub count: usize,
    /// Median latency.
    pub p50_us: f64,
    /// 99th-percentile latency.
    pub p99_us: f64,
    /// Operations per second over the section's wall clock.
    pub per_sec: f64,
}

/// Everything one `serve-bench` run measured.
#[derive(Clone, Debug, Default)]
pub struct ServeBenchResult {
    /// Chain length of the workload EDB.
    pub chain: usize,
    /// Single-client read latency/throughput at the latest epoch
    /// (server defaults, same goal repeated).
    pub read: LatencyDigest,
    /// Commit latency/throughput on the writer path (WAL off: the run
    /// measures the apply+publish pipeline, not this box's fsync).
    pub write: LatencyDigest,
    /// Median over the write leg's commits of the bytes copied on
    /// behalf of publication (`ServerStats::publish_bytes`: tombstone
    /// words, rows moved out of a shared allocation, index extension —
    /// the last forced by one untimed bound read per commit). A count,
    /// not a timing; the median leaves out the amortized growth copies.
    pub publish_bytes_per_commit: f64,
    /// Delete commits of the `write_delete` leg: cycles of
    /// [`SPURS_PER_CYCLE`] two-fact spur inserts and one commit deleting
    /// those spurs again, so the database is the plain chain after
    /// every cycle.
    pub write_delete: LatencyDigest,
    /// Median of that leg's inserts that do not directly follow a
    /// delete.
    pub steady_insert_p50_us: f64,
    /// Median of that leg's inserts that directly follow a delete.
    pub first_insert_after_delete_p50_us: f64,
    /// Median bytes copied to publish a delete commit (the tombstone
    /// words it had to copy away from the previous epoch), counted as
    /// `publish_bytes_per_commit` is.
    pub publish_bytes_per_delete: f64,
    /// Median bytes copied to publish the insert commit that follows a
    /// delete: it shares the tombstone words, so index entries only.
    pub publish_bytes_after_delete: f64,
    /// Bound-goal reads through the dictionary-probe path, cycling
    /// distinct goals.
    pub read_indexed: LatencyDigest,
    /// The same bound-goal cycle as a full scan of the pinned snapshot
    /// (`goal_matches` over every row, done here in the bench) — the
    /// yardstick the `--assert-serve-read` gate divides by.
    pub read_scan: LatencyDigest,
    /// Bound-goal round trips over a real loopback `serve_listener`
    /// (server defaults, one `TCP_NODELAY` client, closed loop, the
    /// `read_indexed` goal cycle: replies average `chain / 2` rows):
    /// last request byte written → `end` line read.
    pub socket_read: LatencyDigest,
    /// Median of the same request lines through
    /// `Connection::handle_into` in-process — what `socket_read.p50_us`
    /// exceeds it by is the transport.
    pub socket_in_process_p50_us: f64,
    /// Concurrent-writer group-commit throughput (batching on).
    pub batched_write: LatencyDigest,
    /// Writer threads driving the batched leg.
    pub batched_writers: usize,
    /// Mean transactions per batch the leg achieved.
    pub avg_batch: f64,
    /// One writer committing the identical transaction set serially —
    /// the like-for-like baseline `batched_speedup` divides by.
    pub serial_write: LatencyDigest,
    /// Batched concurrent throughput over serial same-shape throughput.
    pub batched_speedup: f64,
    /// Concurrent-phase reads that answered (all verified non-empty).
    pub concurrent_reads: u64,
    /// Concurrent-phase commits that landed.
    pub concurrent_commits: u64,
    /// Aggregate reads/sec across readers in the concurrent phase.
    pub concurrent_qps: f64,
    /// Requests shed with the typed `Overloaded` by the tiny-gate
    /// overload phase (must be nonzero — shedding is the feature).
    pub overloaded: u64,
    /// Requests the overload phase still answered.
    pub overload_answered: u64,
}

/// Spur inserts per cycle of the `write_delete` leg.
pub const SPURS_PER_CYCLE: usize = 4;

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    samples.get(samples.len() / 2).copied().unwrap_or(0.0)
}

fn digest(mut samples: Vec<f64>, elapsed: Duration) -> LatencyDigest {
    if samples.is_empty() {
        return LatencyDigest::default();
    }
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let pick = |q: f64| samples[((samples.len() - 1) as f64 * q).round() as usize];
    LatencyDigest {
        count: samples.len(),
        p50_us: pick(0.50),
        p99_us: pick(0.99),
        per_sec: samples.len() as f64 / elapsed.as_secs_f64().max(1e-9),
    }
}

/// A witnessed-chain unit of `n` edges: the guarded transitive closure
/// the optimizer can push the witness residue out of, so the serve path
/// runs on the incrementally maintained optimized route.
fn chain_unit(n: usize) -> Unit {
    let mut src = String::from(
        "reach(X, Y) :- edge(X, Y).\n\
         reach(X, Y) :- edge(X, Z), witness(Z, W), reach(Z, Y).\n\
         ic ic1: edge(X, Z) -> witness(Z, W).\n",
    );
    for i in 0..n {
        let _ = writeln!(src, "edge({i}, {}).", i + 1);
        let _ = writeln!(src, "witness({i}, {}).", 10_000 + i);
    }
    let _ = writeln!(src, "witness({n}, {}).", 10_000 + n);
    parse_unit(&src).expect("generated unit parses")
}

/// Runs the serving benchmark. `quick` shrinks the workload for the CI
/// gate; the checked-in `BENCH_serve.json` is a full-size run.
pub fn run_serve_bench(quick: bool) -> ServeBenchResult {
    let (chain, reads, commits, readers, window_ms) = if quick {
        (300, 400, 40, 2, 150)
    } else {
        (2_000, 2_000, 200, 4, 1_000)
    };
    let unit = chain_unit(chain);
    let (server, _) = Server::open(&unit, ServeConfig::default(), None).expect("serve bench open");
    let goal = parse_atom("reach(0, Y)").expect("goal");

    let mut result = ServeBenchResult {
        chain,
        ..ServeBenchResult::default()
    };

    // Phase 1: single-client read latency at the latest epoch.
    let mut samples = Vec::with_capacity(reads);
    let started = Instant::now();
    for _ in 0..reads {
        let t = Instant::now();
        let reply = server.query(&goal, None, None).expect("bench read");
        samples.push(t.elapsed().as_secs_f64() * 1e6);
        assert_eq!(reply.tuples.len(), chain, "closure from node 0");
    }
    result.read = digest(samples, started.elapsed());

    // Phase 2: writer commit latency (witnessed edge appends), and what
    // each commit's publication copied. The first bound read of a new
    // epoch extends the index it inherited; that belongs to the count
    // (not to the commit's clock), so one follows every commit.
    let mut samples = Vec::with_capacity(commits);
    let mut copied = Vec::with_capacity(commits);
    let started = Instant::now();
    for i in 0..commits {
        let next = (chain + i + 1) as i64;
        let mut tx = Tx::new();
        tx.insert("edge", int_tuple(&[next - 1, next]));
        tx.insert("witness", int_tuple(&[next, 10_000 + next]));
        let before = server.stats().publish_bytes;
        let t = Instant::now();
        server.commit(&tx).expect("bench commit");
        samples.push(t.elapsed().as_secs_f64() * 1e6);
        server.query(&goal, None, None).expect("post-commit read");
        copied.push((server.stats().publish_bytes - before) as f64);
    }
    result.write = digest(samples, started.elapsed());
    result.publish_bytes_per_commit = median(copied);

    // Phase 2a: delete commits. Each cycle hangs a fresh witnessed spur
    // off each of the chain's first nodes (a handful of `reach` rows
    // each) and then deletes them in one commit, so inserts and deletes
    // move about as many rows and differ in the path they take. One
    // untimed read follows every commit, as above.
    let (deleting, _) = Server::open(&unit, ServeConfig::default(), None).expect("delete open");
    let timed_commit = |tx: &Tx| {
        let before = deleting.stats().publish_bytes;
        let t = Instant::now();
        deleting.commit(tx).expect("bench commit");
        let us = t.elapsed().as_secs_f64() * 1e6;
        deleting.query(&goal, None, None).expect("post-commit read");
        (us, (deleting.stats().publish_bytes - before) as f64)
    };
    let (mut deletes, mut steady, mut first) = (Vec::new(), Vec::new(), Vec::new());
    let (mut delete_bytes, mut first_bytes) = (Vec::new(), Vec::new());
    let started = Instant::now();
    for cycle in 0..commits / 2 {
        let mut delete = Tx::new();
        for j in 0..SPURS_PER_CYCLE {
            let spur = 2_000_000 + (cycle * SPURS_PER_CYCLE + j) as i64;
            let mut tx = Tx::new();
            for (pred, t) in [("edge", [j as i64, spur]), ("witness", [spur, -spur])] {
                tx.insert(pred, int_tuple(&t));
                delete.delete(pred, int_tuple(&t));
            }
            let (us, bytes) = timed_commit(&tx);
            match (cycle, j) {
                (0, 0) => {}
                (_, 0) => {
                    first.push(us);
                    first_bytes.push(bytes);
                }
                _ => steady.push(us),
            }
        }
        let (us, bytes) = timed_commit(&delete);
        deletes.push(us);
        delete_bytes.push(bytes);
    }
    result.write_delete = digest(deletes, started.elapsed());
    result.steady_insert_p50_us = median(steady);
    result.first_insert_after_delete_p50_us = median(first);
    result.publish_bytes_per_delete = median(delete_bytes);
    result.publish_bytes_after_delete = median(first_bytes);
    let state = deleting.registry().pin(None).expect("pin latest");
    let reach = state.relation(goal.pred).expect("reach is published");
    assert_eq!(reach.len(), chain * (chain + 1) / 2, "back at the chain");

    // Phase 2b: indexed vs scan bound-goal reads, cycling distinct
    // goals. A warmup query pays the one-time dictionary index build
    // outside the timings.
    let goals: Vec<Atom> = (0..chain)
        .map(|i| parse_atom(&format!("reach({i}, Y)")).expect("bound goal"))
        .collect();
    let (indexed, _) = Server::open(&unit, ServeConfig::default(), None).expect("indexed open");
    indexed.query(&goals[0], None, None).expect("index warmup");
    let mut samples = Vec::with_capacity(reads);
    let started = Instant::now();
    for k in 0..reads {
        let i = k % chain;
        let t = Instant::now();
        let reply = indexed.query(&goals[i], None, None).expect("indexed read");
        samples.push(t.elapsed().as_secs_f64() * 1e6);
        assert_eq!(reply.tuples.len(), chain - i, "closure from node {i}");
    }
    result.read_indexed = digest(samples, started.elapsed());

    // The scan yardstick: pin the same snapshot and filter every row
    // through `goal_matches`, as a read path without the index would.
    let scan_reads = (reads / 10).max(10);
    let mut samples = Vec::with_capacity(scan_reads);
    let started = Instant::now();
    for k in 0..scan_reads {
        let i = k % chain;
        let t = Instant::now();
        let state = indexed.registry().pin(None).expect("pin latest");
        let rel = state.relation(goals[i].pred).expect("reach is published");
        let mut tuples: Vec<Tuple> = rel
            .iter()
            .filter(|(_, row)| goal_matches(&goals[i], row))
            .map(|(_, row)| word::decode(row))
            .collect();
        tuples.sort();
        samples.push(t.elapsed().as_secs_f64() * 1e6);
        assert_eq!(tuples.len(), chain - i, "closure from node {i}");
    }
    result.read_scan = digest(samples, started.elapsed());

    // Phase 2c: the wire. The goal cycle of the indexed leg as request
    // lines, first in-process into a reused buffer, then over a real
    // loopback listener — both passes compute every answer alike and
    // differ only in transport.
    let (wired, _) = Server::open(&unit, ServeConfig::default(), None).expect("wire open");
    let lines: Vec<String> = (0..chain)
        .map(|i| format!("query reach({i}, Y).\n"))
        .collect();
    let mut conn = Connection::new(Arc::clone(&wired));
    let mut reply = Vec::new();
    let mut samples = Vec::with_capacity(reads);
    let started = Instant::now();
    for k in 0..reads {
        reply.clear();
        let t = Instant::now();
        conn.handle_into(&lines[k % chain], &mut reply)
            .expect("writing to a Vec");
        samples.push(t.elapsed().as_secs_f64() * 1e6);
    }
    result.socket_in_process_p50_us = digest(samples, started.elapsed()).p50_us;

    // One fresh connection, and no more round trips than its burst:
    // the leg times the transport, not the session's pace.
    assert!(reads <= SESSION_BURST as usize);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("listener address");
    let daemon = Arc::clone(&wired);
    // The accept loop has no shutdown; it ends with the process.
    std::thread::spawn(move || daemon.serve_listener(&listener));
    let mut writer = TcpStream::connect(addr).expect("connect loopback");
    writer.set_nodelay(true).expect("TCP_NODELAY");
    let mut reader = BufReader::new(writer.try_clone().expect("clone stream"));
    let mut line = String::new();
    let mut samples = Vec::with_capacity(reads);
    let started = Instant::now();
    for k in 0..reads {
        let i = k % chain;
        writer
            .write_all(lines[i].as_bytes())
            .expect("socket request");
        let t = Instant::now();
        let mut rows = 0usize;
        loop {
            line.clear();
            reader.read_line(&mut line).expect("socket reply");
            if line == "end\n" {
                break;
            }
            // Anything but a fact line after an `ok` header (an `err`
            // reply, a closed connection) has no `end` to wait for.
            assert!(
                line.starts_with(if rows == 0 { "ok " } else { "reach(" }),
                "socket reply: {line:?}"
            );
            rows += 1;
        }
        samples.push(t.elapsed().as_secs_f64() * 1e6);
        assert_eq!(rows, chain - i + 1, "header + closure from node {i}");
    }
    result.socket_read = digest(samples, started.elapsed());

    // Phase 2d: group-commit throughput. Disjoint two-node fragments
    // keep the deltas small and the monitored IC satisfied. One fresh
    // server commits the whole transaction set serially (the
    // like-for-like baseline); a second takes the same set from
    // concurrent writers whose transactions the leader sweeps into
    // shared maintenance passes (one fsync window, one publish each).
    // Batch size is capped by writer concurrency (each writer has one
    // outstanding commit), so 8 writers give the leader up to 8-tx
    // sweeps. Both servers log to a WAL on a temp file, so each serial
    // commit pays its own fsync and a batch shares one: the cost group
    // commit exists to amortize. Each server takes one untimed fragment
    // first: a fresh server's first commit builds the maintenance
    // state (tens of ms at chain-2000), which would otherwise dominate
    // both legs' wall clocks.
    let writers = 8usize;
    let per_writer = (commits / writers).max(1);
    let fragment_tx = |w: usize, k: usize| {
        let base = 1_000_000 * (w as i64 + 1) + 2 * k as i64;
        let mut tx = Tx::new();
        tx.insert("edge", int_tuple(&[base, base + 1]));
        tx.insert("witness", int_tuple(&[base + 1, base + 500_000]));
        tx
    };
    let open_warm = |leg: &str| {
        let pid = std::process::id();
        let wal = std::env::temp_dir().join(format!("semrec-serve-bench-{pid}-{leg}.wal"));
        let _ = std::fs::remove_file(&wal);
        let (server, _) = Server::open(&unit, ServeConfig::default(), Some(&wal)).expect("open");
        server
            .commit(&fragment_tx(writers, 0))
            .expect("warmup commit");
        (server, wal)
    };
    let (serial, serial_wal) = open_warm("serial");
    let mut samples = Vec::with_capacity(writers * per_writer);
    let started = Instant::now();
    for w in 0..writers {
        for k in 0..per_writer {
            let tx = fragment_tx(w, k);
            let t = Instant::now();
            serial.commit(&tx).expect("serial fragment commit");
            samples.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    result.serial_write = digest(samples, started.elapsed());
    drop(serial);
    let _ = std::fs::remove_file(&serial_wal);

    let (batched, batched_wal) = open_warm("batched");
    let before = batched.stats();
    let started = Instant::now();
    let handles: Vec<_> = (0..writers)
        .map(|w| {
            let server = Arc::clone(&batched);
            std::thread::spawn(move || {
                let mut lat = Vec::with_capacity(per_writer);
                for k in 0..per_writer {
                    let tx = fragment_tx(w, k);
                    let t = Instant::now();
                    server.commit(&tx).expect("batched commit");
                    lat.push(t.elapsed().as_secs_f64() * 1e6);
                }
                lat
            })
        })
        .collect();
    let mut samples = Vec::new();
    for h in handles {
        samples.extend(h.join().expect("writer thread"));
    }
    result.batched_write = digest(samples, started.elapsed());
    result.batched_writers = writers;
    let after = batched.stats();
    let batches = after.batches - before.batches;
    result.avg_batch = if batches > 0 {
        (after.batched_txs - before.batched_txs) as f64 / batches as f64
    } else {
        0.0
    };
    result.batched_speedup = result.batched_write.per_sec / result.serial_write.per_sec.max(1e-9);
    drop(batched);
    let _ = std::fs::remove_file(&batched_wal);

    // Phase 3: concurrent readers while the writer keeps committing —
    // the serving scenario the epoch registry exists for.
    let done = Arc::new(AtomicBool::new(false));
    let read_count = Arc::new(AtomicU64::new(0));
    let handles: Vec<_> = (0..readers)
        .map(|_| {
            let server = Arc::clone(&server);
            let done = Arc::clone(&done);
            let read_count = Arc::clone(&read_count);
            let goal = goal.clone();
            std::thread::spawn(move || {
                while !done.load(Ordering::Acquire) {
                    let reply = server.query(&goal, None, None).expect("concurrent read");
                    assert!(!reply.tuples.is_empty());
                    read_count.fetch_add(1, Ordering::Relaxed);
                }
            })
        })
        .collect();
    let window = Duration::from_millis(window_ms);
    let started = Instant::now();
    let mut concurrent_commits = 0u64;
    while started.elapsed() < window {
        let next = (chain + commits) as i64 + concurrent_commits as i64 + 1;
        let mut tx = Tx::new();
        tx.insert("edge", int_tuple(&[next - 1, next]));
        tx.insert("witness", int_tuple(&[next, 10_000 + next]));
        server.commit(&tx).expect("concurrent commit");
        concurrent_commits += 1;
    }
    done.store(true, Ordering::Release);
    let elapsed = started.elapsed();
    for h in handles {
        h.join().expect("reader thread");
    }
    result.concurrent_reads = read_count.load(Ordering::Relaxed);
    result.concurrent_commits = concurrent_commits;
    result.concurrent_qps = result.concurrent_reads as f64 / elapsed.as_secs_f64().max(1e-9);

    // Phase 4: overload shedding through a deliberately tiny gate. Two
    // held permits fill it; every query sheds typed until they drop.
    let tiny = ServeConfig {
        admission: AdmissionConfig {
            max_inflight: 2,
            ..AdmissionConfig::default()
        },
        ..ServeConfig::default()
    };
    let (small, _) = Server::open(&chain_unit(50), tiny, None).expect("overload open");
    let goal50 = parse_atom("reach(0, Y)").expect("goal");
    let held: Vec<_> = (0..2)
        .map(|_| small.admission().admit(None).expect("fill the gate"))
        .collect();
    for _ in 0..100 {
        match small.query(&goal50, None, None) {
            Err(ServeError::Overloaded { .. }) => result.overloaded += 1,
            Ok(_) => result.overload_answered += 1,
            Err(other) => panic!("overload phase: unexpected {other}"),
        }
    }
    drop(held);
    for _ in 0..20 {
        small.query(&goal50, None, None).expect("gate reopened");
        result.overload_answered += 1;
    }
    result
}

/// Renders the result as the `BENCH_serve.json` document.
pub fn serve_to_json(r: &ServeBenchResult) -> String {
    let mut s = String::from("{\n");
    let _ = writeln!(s, "  \"schema_version\": {SERVE_SCHEMA_VERSION},");
    let _ = writeln!(
        s,
        "  \"available_parallelism\": {},",
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    let _ = writeln!(s, "  \"chain\": {},", r.chain);
    // One latency section: the digest's four keys, then the section's
    // own extra keys (already rendered as JSON values).
    let section = |s: &mut String, name: &str, d: &LatencyDigest, extras: &[(&str, String)]| {
        let _ = writeln!(s, "  \"{name}\": {{");
        let _ = writeln!(s, "    \"count\": {},", d.count);
        let _ = writeln!(s, "    \"p50_us\": {:.1},", d.p50_us);
        let _ = writeln!(s, "    \"p99_us\": {:.1},", d.p99_us);
        let _ = write!(s, "    \"per_sec\": {:.1}", d.per_sec);
        for (key, value) in extras {
            let _ = write!(s, ",\n    \"{key}\": {value}");
        }
        let _ = writeln!(s, "\n  }},");
    };
    section(&mut s, "read", &r.read, &[]);
    section(
        &mut s,
        "write",
        &r.write,
        &[(
            "publish_bytes_per_commit",
            format!("{:.0}", r.publish_bytes_per_commit),
        )],
    );
    section(
        &mut s,
        "write_delete",
        &r.write_delete,
        &[
            (
                "steady_insert_p50_us",
                format!("{:.1}", r.steady_insert_p50_us),
            ),
            (
                "first_insert_after_delete_p50_us",
                format!("{:.1}", r.first_insert_after_delete_p50_us),
            ),
            (
                "publish_bytes_per_delete",
                format!("{:.0}", r.publish_bytes_per_delete),
            ),
            (
                "publish_bytes_after_delete",
                format!("{:.0}", r.publish_bytes_after_delete),
            ),
        ],
    );
    section(&mut s, "read_indexed", &r.read_indexed, &[]);
    section(&mut s, "read_scan", &r.read_scan, &[]);
    section(
        &mut s,
        "socket_read",
        &r.socket_read,
        &[(
            "in_process_p50_us",
            format!("{:.1}", r.socket_in_process_p50_us),
        )],
    );
    section(&mut s, "serial_write", &r.serial_write, &[]);
    section(
        &mut s,
        "batched_write",
        &r.batched_write,
        &[
            ("writers", r.batched_writers.to_string()),
            ("avg_batch", format!("{:.2}", r.avg_batch)),
            ("speedup", format!("{:.2}", r.batched_speedup)),
        ],
    );
    let _ = writeln!(s, "  \"concurrent\": {{");
    let _ = writeln!(s, "    \"readers_qps\": {:.1},", r.concurrent_qps);
    let _ = writeln!(s, "    \"reads\": {},", r.concurrent_reads);
    let _ = writeln!(s, "    \"commits\": {}", r.concurrent_commits);
    let _ = writeln!(s, "  }},");
    let _ = writeln!(s, "  \"overload\": {{");
    let _ = writeln!(s, "    \"shed\": {},", r.overloaded);
    let _ = writeln!(s, "    \"answered\": {}", r.overload_answered);
    let _ = writeln!(s, "  }}");
    s.push_str("}\n");
    s
}

/// Human-readable summary table for the terminal.
pub fn serve_table(r: &ServeBenchResult) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "\nserve bench (chain {}):", r.chain);
    let _ = writeln!(
        s,
        "  read   p50 {:>8.1}us  p99 {:>8.1}us  {:>10.1}/s  ({} samples)",
        r.read.p50_us, r.read.p99_us, r.read.per_sec, r.read.count
    );
    let _ = writeln!(
        s,
        "  write  p50 {:>8.1}us  p99 {:>8.1}us  {:>10.1}/s  ({} samples, {:.0} B copied to publish)",
        r.write.p50_us,
        r.write.p99_us,
        r.write.per_sec,
        r.write.count,
        r.publish_bytes_per_commit
    );
    let _ = writeln!(
        s,
        "  wdel   p50 {:>8.1}us  p99 {:>8.1}us  {:>10.1}/s  ({} deletes of {SPURS_PER_CYCLE} spurs, \
         {:.0} B copied; insert p50 {:.1}us steady, {:.1}us and {:.0} B right after a delete)",
        r.write_delete.p50_us,
        r.write_delete.p99_us,
        r.write_delete.per_sec,
        r.write_delete.count,
        r.publish_bytes_per_delete,
        r.steady_insert_p50_us,
        r.first_insert_after_delete_p50_us,
        r.publish_bytes_after_delete
    );
    let _ = writeln!(
        s,
        "  probe  p50 {:>8.1}us  p99 {:>8.1}us  {:>10.1}/s  ({} samples, indexed bound goals)",
        r.read_indexed.p50_us, r.read_indexed.p99_us, r.read_indexed.per_sec, r.read_indexed.count
    );
    let _ = writeln!(
        s,
        "  fscan  p50 {:>8.1}us  p99 {:>8.1}us  {:>10.1}/s  ({} samples, scan yardstick)",
        r.read_scan.p50_us, r.read_scan.p99_us, r.read_scan.per_sec, r.read_scan.count
    );
    let _ = writeln!(
        s,
        "  wire   p50 {:>8.1}us  p99 {:>8.1}us  {:>10.1}/s  (loopback socket; in-process p50 {:.1}us)",
        r.socket_read.p50_us,
        r.socket_read.p99_us,
        r.socket_read.per_sec,
        r.socket_in_process_p50_us
    );
    let _ = writeln!(
        s,
        "  wser   p50 {:>8.1}us  p99 {:>8.1}us  {:>10.1}/s  ({} samples, serial baseline)",
        r.serial_write.p50_us, r.serial_write.p99_us, r.serial_write.per_sec, r.serial_write.count
    );
    let _ = writeln!(
        s,
        "  batch  p50 {:>8.1}us  p99 {:>8.1}us  {:>10.1}/s  ({} writers, {:.2} tx/batch, {:.2}x vs serial)",
        r.batched_write.p50_us,
        r.batched_write.p99_us,
        r.batched_write.per_sec,
        r.batched_writers,
        r.avg_batch,
        r.batched_speedup
    );
    let _ = writeln!(
        s,
        "  mixed  {:>10.1} reads/s across readers, {} commits alongside",
        r.concurrent_qps, r.concurrent_commits
    );
    let _ = writeln!(
        s,
        "  gate   {} shed typed, {} answered",
        r.overloaded, r.overload_answered
    );
    s
}

/// Validates a checked-in `BENCH_serve.json`: parses, checks the schema
/// version, and requires the fields the serve gate reads. Returns a
/// one-line summary on success.
pub fn check_serve_baseline(src: &str) -> Result<String, String> {
    let doc = parse_json(src)?;
    match doc.get("schema_version").and_then(Json::as_num) {
        Some(v) if v == SERVE_SCHEMA_VERSION as f64 => {}
        Some(v) => {
            return Err(format!(
                "BENCH_serve.json schema v{v} is stale (harness emits v{SERVE_SCHEMA_VERSION}); \
                 regenerate with `harness serve-bench --json`"
            ))
        }
        None => {
            return Err(format!(
                "BENCH_serve.json has no `schema_version` (harness emits \
                 v{SERVE_SCHEMA_VERSION}); regenerate with `harness serve-bench --json`"
            ))
        }
    }
    for key in ["available_parallelism", "chain"] {
        if doc.get(key).and_then(Json::as_num).is_none() {
            return Err(format!("BENCH_serve.json is missing numeric `{key}`"));
        }
    }
    for sec in [
        "read",
        "write",
        "write_delete",
        "read_indexed",
        "read_scan",
        "socket_read",
        "serial_write",
        "batched_write",
    ] {
        let obj = doc
            .get(sec)
            .ok_or_else(|| format!("BENCH_serve.json is missing section `{sec}`"))?;
        for key in ["count", "p50_us", "p99_us", "per_sec"] {
            if obj.get(key).and_then(Json::as_num).is_none() {
                return Err(format!("BENCH_serve.json `{sec}` is missing `{key}`"));
            }
        }
    }
    for (sec, key) in [
        ("write", "publish_bytes_per_commit"),
        ("write_delete", "steady_insert_p50_us"),
        ("write_delete", "first_insert_after_delete_p50_us"),
        ("write_delete", "publish_bytes_per_delete"),
        ("write_delete", "publish_bytes_after_delete"),
        ("socket_read", "in_process_p50_us"),
        ("batched_write", "avg_batch"),
        ("batched_write", "speedup"),
    ] {
        let value = doc.get(sec).and_then(|o| o.get(key));
        if value.and_then(Json::as_num).is_none() {
            return Err(format!("BENCH_serve.json is missing `{sec}.{key}`"));
        }
    }
    let shed = doc
        .get("overload")
        .and_then(|o| o.get("shed"))
        .and_then(Json::as_num)
        .ok_or("BENCH_serve.json is missing `overload.shed`")?;
    if shed < 1.0 {
        return Err(
            "BENCH_serve.json records zero shed requests — the overload phase \
                    did not exercise admission control"
                .to_string(),
        );
    }
    if doc
        .get("concurrent")
        .and_then(|o| o.get("readers_qps"))
        .and_then(Json::as_num)
        .is_none()
    {
        return Err("BENCH_serve.json is missing `concurrent.readers_qps`".to_string());
    }
    Ok(format!(
        "BENCH_serve.json schema v{SERVE_SCHEMA_VERSION} is current"
    ))
}

/// The `--assert-serve-read` CI gate: on a fresh (quick) run, the
/// indexed bound-goal read path must come in at ≤ 20% of the scan
/// path's median, a loopback round trip must take at most
/// [`SOCKET_READ_P50_MAX_US`] at the median — a reply split over small
/// writes that waits for a delayed ACK fails that by a factor of eight
/// — and a two-fact insert commit must copy at most
/// [`PUBLISH_BYTES_PER_COMMIT_MAX`] bytes to publish, at the median,
/// also when it follows a delete. On the `write_delete` leg a delete
/// commit may take at most [`DELETE_OVER_INSERT_MAX`] × and the first
/// insert after a delete at most [`FIRST_INSERT_AFTER_DELETE_MAX`] ×
/// the steady insert median. The WAL-backed group-commit leg must
/// batch at least [`AVG_BATCH_MIN`] transactions per sweep on average.
/// Returns the one-line verdict on success.
pub fn check_serve_read(r: &ServeBenchResult) -> Result<String, String> {
    if r.read_indexed.count == 0 || r.read_scan.count == 0 {
        return Err("serve read gate: indexed/scan legs recorded no samples".to_string());
    }
    let ratio = r.read_indexed.p50_us / r.read_scan.p50_us.max(1e-9);
    if ratio > 0.20 {
        return Err(format!(
            "serve read gate: indexed bound-goal p50 {:.1}us is {:.0}% of scan p50 {:.1}us \
             (must be <= 20%)",
            r.read_indexed.p50_us,
            ratio * 100.0,
            r.read_scan.p50_us
        ));
    }
    if r.socket_read.count == 0 || r.socket_read.p50_us > SOCKET_READ_P50_MAX_US {
        return Err(format!(
            "serve read gate: loopback round trip p50 {:.1}us over {} samples \
             (must be <= {SOCKET_READ_P50_MAX_US:.0}us; in-process p50 {:.1}us)",
            r.socket_read.p50_us, r.socket_read.count, r.socket_in_process_p50_us
        ));
    }
    if r.write.count == 0 || r.publish_bytes_per_commit > PUBLISH_BYTES_PER_COMMIT_MAX {
        return Err(format!(
            "serve read gate: publication copied {:.0} bytes per two-fact commit at the \
             median over {} commits (must be <= {PUBLISH_BYTES_PER_COMMIT_MAX:.0}: a snapshot \
             is a watermark, not a clone)",
            r.publish_bytes_per_commit, r.write.count
        ));
    }
    let insert = r.steady_insert_p50_us;
    if r.write_delete.count == 0
        || insert <= 0.0
        || r.write_delete.p50_us > DELETE_OVER_INSERT_MAX * insert
    {
        return Err(format!(
            "serve read gate: delete commit p50 {:.1}us over {} commits against an insert p50 \
             of {insert:.1}us (must be <= {DELETE_OVER_INSERT_MAX}x: a delete commit is \
             O(delta) — no clone, no compaction)",
            r.write_delete.p50_us, r.write_delete.count
        ));
    }
    if r.first_insert_after_delete_p50_us > FIRST_INSERT_AFTER_DELETE_MAX * insert {
        return Err(format!(
            "serve read gate: the first insert after a delete takes {:.1}us at the median \
             against {insert:.1}us otherwise (must be <= {FIRST_INSERT_AFTER_DELETE_MAX}x: a \
             delete keeps the writer's indexes)",
            r.first_insert_after_delete_p50_us
        ));
    }
    if r.publish_bytes_after_delete > PUBLISH_BYTES_PER_COMMIT_MAX {
        return Err(format!(
            "serve read gate: the insert commit after a delete copied {:.0} bytes to publish \
             at the median (must be <= {PUBLISH_BYTES_PER_COMMIT_MAX:.0}: tombstone words are \
             shared and the index lineage survives a delete)",
            r.publish_bytes_after_delete
        ));
    }
    if r.batched_write.count == 0 || r.avg_batch < AVG_BATCH_MIN {
        return Err(format!(
            "serve read gate: group commit averaged {:.2} transactions per batch over {} \
             commits from {} writers (must be >= {AVG_BATCH_MIN}: writers waiting on the WAL \
             fsync share one sweep)",
            r.avg_batch, r.batched_write.count, r.batched_writers
        ));
    }
    Ok(format!(
        "serve read gate: indexed p50 {:.1}us = {:.1}% of scan p50 {:.1}us, \
         socket p50 {:.1}us (in-process {:.1}us), \
         {:.0} B copied per publish; delete p50 {:.1}us = {:.1}x insert p50 {insert:.1}us, \
         {:.1}us and {:.0} B right after a delete; {:.2} txs per group commit",
        r.read_indexed.p50_us,
        ratio * 100.0,
        r.read_scan.p50_us,
        r.socket_read.p50_us,
        r.socket_in_process_p50_us,
        r.publish_bytes_per_commit,
        r.write_delete.p50_us,
        r.write_delete.p50_us / insert,
        r.first_insert_after_delete_p50_us,
        r.publish_bytes_after_delete,
        r.avg_batch
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_bench_emits_a_self_validating_artifact() {
        let r = run_serve_bench(true);
        assert!(r.read.count > 0 && r.write.count > 0);
        assert!(
            r.publish_bytes_per_commit > 0.0
                && r.publish_bytes_per_commit <= PUBLISH_BYTES_PER_COMMIT_MAX,
            "{} B copied per publish",
            r.publish_bytes_per_commit
        );
        assert!(r.write_delete.count > 0 && r.steady_insert_p50_us > 0.0);
        assert!(
            r.publish_bytes_per_delete > 0.0
                && r.publish_bytes_after_delete <= PUBLISH_BYTES_PER_COMMIT_MAX,
            "{} B copied per delete, {} B right after",
            r.publish_bytes_per_delete,
            r.publish_bytes_after_delete
        );
        assert!(r.read_indexed.count > 0 && r.read_scan.count > 0);
        assert!(r.socket_read.count > 0 && r.socket_in_process_p50_us > 0.0);
        assert!(r.batched_write.count > 0);
        assert!(r.overloaded > 0, "tiny gate must shed");
        assert!(r.concurrent_reads > 0);
        let json = serve_to_json(&r);
        let summary = check_serve_baseline(&json).expect("fresh artifact validates");
        assert!(summary.contains("current"));
    }

    #[test]
    fn stale_or_mangled_artifacts_are_rejected() {
        assert!(check_serve_baseline("{}").is_err());
        assert!(check_serve_baseline("{\"schema_version\": 0}").is_err());
        let v5 = check_serve_baseline("{\"schema_version\": 5}")
            .expect_err("v5 artifacts have no `write_delete` section");
        assert!(v5.contains("stale"));
        let r = ServeBenchResult {
            overloaded: 0,
            ..ServeBenchResult::default()
        };
        let json = serve_to_json(&r);
        let err = check_serve_baseline(&json).expect_err("zero shed must fail");
        assert!(err.contains("shed"));
    }

    #[test]
    fn read_gate_rejects_slow_probes_and_stalls() {
        let good = ServeBenchResult {
            read_indexed: LatencyDigest {
                count: 10,
                p50_us: 100.0,
                ..LatencyDigest::default()
            },
            read_scan: LatencyDigest {
                count: 10,
                p50_us: 10_000.0,
                ..LatencyDigest::default()
            },
            socket_read: LatencyDigest {
                count: 10,
                p50_us: 400.0,
                ..LatencyDigest::default()
            },
            write: LatencyDigest {
                count: 10,
                ..LatencyDigest::default()
            },
            publish_bytes_per_commit: 2_400.0,
            write_delete: LatencyDigest {
                count: 10,
                p50_us: 60.0,
                ..LatencyDigest::default()
            },
            steady_insert_p50_us: 20.0,
            first_insert_after_delete_p50_us: 22.0,
            publish_bytes_after_delete: 200.0,
            batched_write: LatencyDigest {
                count: 200,
                ..LatencyDigest::default()
            },
            batched_writers: 8,
            avg_batch: 3.9,
            ..ServeBenchResult::default()
        };
        assert!(check_serve_read(&good).is_ok());
        let one_at_a_time = ServeBenchResult {
            avg_batch: 1.2,
            ..good.clone()
        };
        assert!(check_serve_read(&one_at_a_time)
            .expect_err("commits that never share a batch")
            .contains("per batch"));
        let compacting = ServeBenchResult {
            write_delete: LatencyDigest {
                count: 10,
                p50_us: 40_000.0,
                ..LatencyDigest::default()
            },
            ..good.clone()
        };
        assert!(check_serve_read(&compacting)
            .expect_err("an O(database) delete")
            .contains("O(delta)"));
        let reindexing = ServeBenchResult {
            first_insert_after_delete_p50_us: 13_000.0,
            ..good.clone()
        };
        assert!(check_serve_read(&reindexing)
            .expect_err("indexes rebuilt after a delete")
            .contains("keeps the writer's indexes"));
        let unshared = ServeBenchResult {
            publish_bytes_after_delete: 250_000.0,
            ..good.clone()
        };
        assert!(check_serve_read(&unshared)
            .expect_err("tombstone words copied per publish")
            .contains("shared"));
        let cloning = ServeBenchResult {
            publish_bytes_per_commit: 1_400_000.0,
            ..good.clone()
        };
        assert!(check_serve_read(&cloning)
            .expect_err("a clone per commit")
            .contains("watermark"));
        let stalled = ServeBenchResult {
            socket_read: LatencyDigest {
                count: 10,
                p50_us: 44_000.0,
                ..LatencyDigest::default()
            },
            ..good.clone()
        };
        assert!(check_serve_read(&stalled)
            .expect_err("delayed-ACK stall")
            .contains("loopback"));
        let slow = ServeBenchResult {
            read_indexed: LatencyDigest {
                count: 10,
                p50_us: 5_000.0,
                ..LatencyDigest::default()
            },
            ..good
        };
        assert!(check_serve_read(&slow).expect_err("ratio").contains("20%"));
        assert!(check_serve_read(&ServeBenchResult::default()).is_err());
    }

    #[test]
    fn digest_percentiles_are_ordered() {
        let d = digest(
            (1..=100).map(|i| i as f64).collect(),
            Duration::from_secs(1),
        );
        assert_eq!(d.count, 100);
        assert!(d.p50_us <= d.p99_us);
        assert_eq!(d.per_sec, 100.0);
    }
}
