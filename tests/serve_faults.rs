//! Fault-injected serving suite (`cargo test --features failpoints`).
//!
//! Every schedule below drives the full commit pipeline — WAL append +
//! fsync, maintained apply, copy-on-write epoch publish — or the reader
//! path through seeded failpoint schedules over the serving sites
//! (`wal.append`, `wal.fsync`, `snapshot.publish`, `serve.reader`,
//! `serve.accept`),
//! plus simulated kill-and-restart crashes mid-commit. The invariant is
//! the serving extension of the engine's: every run ends in either the
//! **exact** serial-replay answer or a **typed** error — never a wrong
//! answer, never divergence between the WAL and the applied state.

#![cfg(feature = "failpoints")]

use semrec::core::maintain::MaintainedQuery;
use semrec::core::optimizer::OptimizerConfig;
use semrec::datalog::parser::{parse_atom, parse_unit, Unit};
use semrec::datalog::Atom;
use semrec::engine::failpoint::{self, FailAction};
use semrec::engine::{int_tuple, Budget, Database, Tuple, Tx};
use semrec::gen::rng::Rng;
use semrec::serve::{AdmissionConfig, ServeConfig, ServeError, Server};
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};

/// Failpoint schedules are process-global: every test serializes here
/// and clears the registry on both sides of its run.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Guarded reachability: the IC lets the optimizer drop the `witness`
/// subgoal, so the commit mix below exercises the optimized route, IC
/// invalidation, and recovery.
fn unit() -> Unit {
    parse_unit(
        "reach(X, Y) :- edge(X, Y).\n\
         reach(X, Y) :- edge(X, Z), witness(Z, W), reach(Z, Y).\n\
         ic ic1: edge(X, Z) -> witness(Z, W).\n\
         edge(1, 2). edge(2, 3). edge(3, 4).\n\
         witness(1, 100). witness(2, 200). witness(3, 300). witness(4, 400).",
    )
    .expect("parse unit")
}

fn goal() -> Atom {
    parse_atom("reach(1, Y)").expect("goal")
}

fn tmp_wal(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "semrec-serve-fault-{}-{name}.wal",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&p);
    p
}

/// The seed-derived transaction mix: witnessed chain extensions, one
/// delete, and (on some seeds) an IC-violating edge whose commit flips
/// the maintained route to the rectified program mid-stream.
fn tx_mix(rng: &mut Rng) -> Vec<Tx> {
    let mut txs = Vec::new();
    for i in 0..6i64 {
        let next = 5 + i;
        let mut tx = Tx::new();
        match (i, rng.gen_range(0..4usize)) {
            (2, 0) => {
                // IC violation: an edge to a witness-less node.
                tx.insert("edge", int_tuple(&[2, 900 + next]));
            }
            (4, _) => {
                // A delete (possibly repairing an earlier violation).
                tx.delete("edge", int_tuple(&[2, 900 + next - 1]));
                tx.delete("edge", int_tuple(&[3, 4]));
            }
            _ => {
                let from = rng.gen_range(1..next);
                tx.insert("edge", int_tuple(&[from, next]));
                tx.insert("witness", int_tuple(&[next, next * 1000]));
            }
        }
        txs.push(tx);
    }
    txs
}

/// The serial-replay reference: a fresh maintained query with the same
/// program and ICs, applying `txs` one by one. By definition this is
/// what any surviving daemon state must agree with tuple-for-tuple.
fn serial_replay(txs: &[Tx]) -> Vec<Tuple> {
    let u = unit();
    let mut q = MaintainedQuery::new(
        Database::from_facts(&u.facts),
        &u.program(),
        &u.constraints,
        OptimizerConfig::default(),
        1,
    )
    .expect("reference query");
    for tx in txs {
        q.apply(tx, Budget::unlimited(), None)
            .expect("reference apply");
    }
    let mut a = q.answers(&goal());
    a.sort();
    a
}

/// ≥30 seeded schedules over the commit-pipeline sites. Each schedule
/// arms one site at a seed-drawn fire index and pushes the whole tx mix
/// through `Server::commit`. Acknowledged commits must be answerable
/// exactly; failed commits must be typed and leave WAL == applied state
/// (checked both live after a flush commit and across a restart).
#[test]
fn seeded_commit_schedules_end_exact_or_typed() {
    let _g = serial();
    let mut committed_runs = 0u32;
    let mut failed_runs = 0u32;
    for seed in 0..32u64 {
        let mut rng = Rng::seed_from_u64(0x5E41 + seed);
        let site = ["wal.append", "wal.fsync", "snapshot.publish"][rng.gen_range(0..3usize)];
        let fire_at = rng.gen_range(0..6usize) as u64;
        let action = if rng.gen_bool(0.7) {
            FailAction::Err
        } else {
            FailAction::DelayMs(rng.gen_range(1..10usize) as u64)
        };
        let txs = tx_mix(&mut rng);
        let wal = tmp_wal(&format!("sched-{seed}"));
        let (server, _) = Server::open(&unit(), ServeConfig::default(), Some(&wal)).expect("open");

        failpoint::clear();
        failpoint::arm(site, fire_at, action);
        // Which transactions are durable-and-applied: every Ok, plus
        // publish-stage failures (durable + applied, just unpublished).
        let mut applied: Vec<Tx> = Vec::new();
        let mut saw_error = false;
        for tx in &txs {
            match server.commit(tx) {
                Ok(_) => applied.push(tx.clone()),
                Err(ServeError::Io(msg)) => {
                    saw_error = true;
                    assert!(
                        msg.contains("injected"),
                        "seed {seed} ({site}@{fire_at}): {msg}"
                    );
                    if msg.contains("snapshot publish") {
                        applied.push(tx.clone());
                    }
                }
                Err(other) => panic!("seed {seed} ({site}@{fire_at}): untyped {other:?}"),
            }
        }
        failpoint::clear();

        // Live agreement: one flush commit publishes any epoch a failed
        // publish left pending, then the latest answer must equal the
        // serial replay of exactly the applied transactions.
        let mut flush = Tx::new();
        flush.insert("edge", int_tuple(&[1, 777]));
        flush.insert("witness", int_tuple(&[777, 777000]));
        server.commit(&flush).expect("flush commit after disarm");
        applied.push(flush);
        let live = server.query(&goal(), None, None).expect("live query");
        assert_eq!(
            live.tuples,
            serial_replay(&applied),
            "seed {seed} ({site}@{fire_at}): live state diverged from serial replay"
        );
        drop(server);

        // Restart agreement: replaying the WAL must reconverge to the
        // same state — the durable history is exactly the applied one.
        let (reopened, report) =
            Server::open(&unit(), ServeConfig::default(), Some(&wal)).expect("reopen");
        assert_eq!(
            report.replayed_commits,
            applied.len(),
            "seed {seed} ({site}@{fire_at}): WAL and applied history diverged"
        );
        let replayed = reopened.query(&goal(), None, None).expect("replayed query");
        assert_eq!(
            replayed.tuples,
            serial_replay(&applied),
            "seed {seed} ({site}@{fire_at}): restart diverged from serial replay"
        );
        if saw_error {
            failed_runs += 1;
        } else {
            committed_runs += 1;
        }
        let _ = std::fs::remove_file(&wal);
    }
    // The sweep must exercise both outcomes, or the sites went dead.
    assert!(committed_runs > 0, "no schedule ran clean");
    assert!(failed_runs > 0, "no schedule tripped a failure");
}

/// Mid-batch `wal.append` schedules over the explicit batch entry point
/// (`Server::commit_many`): the transaction whose append fires is
/// condemned alone — its record never becomes durable — while every
/// other transaction in the batch acknowledges at the *same* epoch (one
/// publication per batch). Restart replay must reconverge to exactly
/// the acknowledged set: acks match applied history.
#[test]
fn mid_batch_wal_append_fault_condemns_one_tx_and_acks_the_rest() {
    let _g = serial();
    for seed in 0..12u64 {
        let mut rng = Rng::seed_from_u64(0xBA7C + seed);
        let txs = tx_mix(&mut rng);
        let fire_at = rng.gen_range(0..txs.len()) as u64;
        let wal = tmp_wal(&format!("batch-{seed}"));
        let (server, _) = Server::open(&unit(), ServeConfig::default(), Some(&wal)).expect("open");

        failpoint::clear();
        failpoint::arm("wal.append", fire_at, FailAction::Err);
        let replies = server.commit_many(&txs);
        failpoint::clear();

        assert_eq!(replies.len(), txs.len());
        let mut acked: Vec<Tx> = Vec::new();
        let mut batch_epoch = None;
        for (i, reply) in replies.iter().enumerate() {
            if i as u64 == fire_at {
                match reply {
                    Err(ServeError::Io(msg)) => {
                        assert!(msg.contains("injected"), "seed {seed} tx {i}: {msg}")
                    }
                    other => panic!("seed {seed}: condemned tx {i} got {other:?}"),
                }
            } else {
                let r = reply
                    .as_ref()
                    .unwrap_or_else(|e| panic!("seed {seed}: survivor tx {i} errored: {e}"));
                assert_eq!(
                    *batch_epoch.get_or_insert(r.epoch),
                    r.epoch,
                    "seed {seed}: survivors must share the batch epoch"
                );
                acked.push(txs[i].clone());
            }
        }
        assert_eq!(batch_epoch, Some(1), "one publication for the whole batch");

        let live = server.query(&goal(), None, None).expect("live query");
        assert_eq!(
            live.tuples,
            serial_replay(&acked),
            "seed {seed}: live state diverged from the acknowledged set"
        );
        drop(server);

        let (reopened, report) =
            Server::open(&unit(), ServeConfig::default(), Some(&wal)).expect("reopen");
        assert_eq!(
            report.replayed_commits,
            acked.len(),
            "seed {seed}: durable history must hold exactly the acknowledged transactions"
        );
        let replayed = reopened.query(&goal(), None, None).expect("replayed query");
        assert_eq!(
            replayed.tuples,
            serial_replay(&acked),
            "seed {seed}: restart diverged from the acknowledged set"
        );
        let _ = std::fs::remove_file(&wal);
    }
}

/// Repeated reads under seeded commit-fault schedules: the same goal,
/// read twice, brackets every commit attempt, and each read must answer
/// exactly the serial replay of the currently *published* prefix — a
/// fault that condemns, rejects, or leaves a commit applied-but-
/// unpublished must never let a stale answer through.
#[test]
fn repeated_reads_never_serve_stale_under_fault_schedules() {
    let _g = serial();
    for seed in 0..10u64 {
        let mut rng = Rng::seed_from_u64(0xCAC4E + seed);
        let site = ["wal.append", "wal.fsync", "snapshot.publish"][rng.gen_range(0..3usize)];
        let fire_at = rng.gen_range(0..6usize) as u64;
        let txs = tx_mix(&mut rng);
        let wal = tmp_wal(&format!("repeated-{seed}"));
        let (server, _) = Server::open(&unit(), ServeConfig::default(), Some(&wal)).expect("open");

        failpoint::clear();
        failpoint::arm(site, fire_at, FailAction::Err);
        // `applied` is durable-and-applied history; `visible` is how
        // much of it the latest *published* epoch exposes (a failed
        // publish lags until the next successful commit subsumes it).
        let mut applied: Vec<Tx> = Vec::new();
        let mut visible = 0usize;
        for tx in &txs {
            for _ in 0..2 {
                let r = server.query(&goal(), None, None).expect("pre-commit read");
                assert_eq!(
                    r.tuples,
                    serial_replay(&applied[..visible]),
                    "seed {seed} ({site}@{fire_at}): stale answer before commit"
                );
            }
            match server.commit(tx) {
                Ok(_) => {
                    applied.push(tx.clone());
                    visible = applied.len();
                }
                Err(ServeError::Io(msg)) => {
                    assert!(msg.contains("injected"), "seed {seed}: {msg}");
                    if msg.contains("snapshot publish") {
                        applied.push(tx.clone());
                    }
                }
                Err(other) => panic!("seed {seed} ({site}@{fire_at}): untyped {other:?}"),
            }
            for _ in 0..2 {
                let r = server.query(&goal(), None, None).expect("post-commit read");
                assert_eq!(
                    r.tuples,
                    serial_replay(&applied[..visible]),
                    "seed {seed} ({site}@{fire_at}): stale answer after commit"
                );
            }
        }
        failpoint::clear();
        let _ = std::fs::remove_file(&wal);
    }
}

/// Seeded schedules over the reader site: an injected reader fault is a
/// typed error, never a wrong answer, and the next (disarmed) read of
/// the same epoch is exact.
#[test]
fn seeded_reader_schedules_fail_typed_then_answer_exact() {
    let _g = serial();
    let (server, _) = Server::open(&unit(), ServeConfig::default(), None).expect("open");
    let expect = serial_replay(&[]);
    for seed in 0..8u64 {
        let mut rng = Rng::seed_from_u64(0xF00D + seed);
        let fire_at = rng.gen_range(0..2usize) as u64;
        failpoint::clear();
        failpoint::arm("serve.reader", fire_at, FailAction::Err);
        let first = server.query(&goal(), None, None);
        let second = server.query(&goal(), None, None);
        failpoint::clear();
        let results = [first, second];
        let fired = results
            .iter()
            .filter(|r| match r {
                Err(ServeError::Io(msg)) => {
                    assert!(msg.contains("injected"), "seed {seed}: {msg}");
                    true
                }
                Ok(reply) => {
                    assert_eq!(reply.tuples, expect, "seed {seed}: wrong answer");
                    false
                }
                Err(other) => panic!("seed {seed}: untyped {other:?}"),
            })
            .count();
        assert_eq!(
            fired, 1,
            "seed {seed}: one-shot site must fire exactly once"
        );
        // Disarmed: exact again.
        let clean = server.query(&goal(), None, None).expect("clean read");
        assert_eq!(clean.tuples, expect, "seed {seed}");
    }
}

/// The accept site on a real listener: an injected fault drops exactly
/// the connection it hit — that client sees its socket closed, never a
/// reply — while the next connection is served and the daemon's epoch
/// and answers are what they were.
#[test]
fn accept_fault_drops_one_connection_and_the_daemon_serves_on() {
    use std::io::{BufRead, BufReader, Read, Write};
    use std::net::{TcpListener, TcpStream};

    let _g = serial();
    failpoint::clear();
    let (server, _) = Server::open(&unit(), ServeConfig::default(), None).expect("open");
    let expect = serial_replay(&[]);
    let before = server.stats();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let daemon = std::sync::Arc::clone(&server);
    // Runs until the test process exits.
    std::thread::spawn(move || daemon.serve_listener(&listener));
    let connect = || {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(20)))
            .expect("timeout");
        stream
    };

    failpoint::arm("serve.accept", 0, FailAction::Err);
    let mut dropped = connect();
    // Closed without a byte: end of stream, or a reset if the request
    // raced the close. Anything readable would be a reply.
    let _ = dropped.write_all(b"ping.\n");
    let mut reply = Vec::new();
    let _ = dropped.read_to_end(&mut reply);
    assert!(
        reply.is_empty(),
        "dropped connection answered {:?}",
        String::from_utf8_lossy(&reply)
    );

    // One-shot: the next connection gets a full session.
    let mut served = connect();
    served
        .write_all(b"ping.\nepoch.\nquery reach(1, Y).\n")
        .expect("requests");
    let mut lines = BufReader::new(served.try_clone().expect("clone")).lines();
    let mut next = || lines.next().expect("reply line").expect("read");
    assert_eq!(next(), "ok pong");
    assert_eq!(next(), "ok epoch=0 oldest=0");
    assert_eq!(
        next(),
        format!("ok epoch=0 route=optimized rows={}", expect.len())
    );
    for t in &expect {
        assert_eq!(next(), semrec::serve::protocol::render_fact(goal().pred, t));
    }
    assert_eq!(next(), "end");
    failpoint::clear();

    // Nothing the dropped connection did reached the daemon's state.
    let after = server.stats();
    assert_eq!((after.epoch, after.commits), (before.epoch, before.commits));
    assert_eq!(after.admitted, before.admitted + 1, "only the served query");
    let reply = server.query(&goal(), None, None).expect("in-process read");
    assert_eq!((reply.epoch, reply.tuples), (0, expect));
}

/// Kill-and-restart mid-commit, torn-tail flavor: the process dies while
/// the last record is partially on disk. Reopen must truncate the torn
/// tail and reconverge on the acknowledged prefix.
#[test]
fn kill_and_restart_mid_commit_recovers_acknowledged_prefix() {
    let _g = serial();
    failpoint::clear();
    let wal = tmp_wal("torn");
    let mut rng = Rng::seed_from_u64(0x7EA2);
    let txs = tx_mix(&mut rng);
    let mut lens = Vec::new();
    {
        let (server, _) = Server::open(&unit(), ServeConfig::default(), Some(&wal)).expect("open");
        for tx in &txs {
            server.commit(tx).expect("commit");
            lens.push(std::fs::metadata(&wal).expect("wal meta").len());
        }
    }
    // Simulate the crash: the last record made it only partway to disk.
    let keep_records = txs.len() - 1;
    let torn_len = lens[keep_records - 1] + (lens[keep_records] - lens[keep_records - 1]) / 2;
    let f = std::fs::OpenOptions::new()
        .write(true)
        .open(&wal)
        .expect("open wal for tearing");
    f.set_len(torn_len).expect("tear");
    drop(f);

    let (server, report) =
        Server::open(&unit(), ServeConfig::default(), Some(&wal)).expect("reopen after tear");
    assert_eq!(report.replayed_commits, keep_records);
    assert!(report.truncated_tail.is_some(), "tear must be detected");
    let got = server.query(&goal(), None, None).expect("query");
    assert_eq!(
        got.tuples,
        serial_replay(&txs[..keep_records]),
        "recovered state must equal the serial replay of the surviving prefix"
    );
    let _ = std::fs::remove_file(&wal);
}

/// Kill-and-restart mid-commit, fsync-then-die flavor: the record is
/// fully durable but the process dies before `apply`. Replay must apply
/// it — restart state is the serial replay of the whole surviving log.
#[test]
fn kill_and_restart_between_fsync_and_apply_replays_the_commit() {
    let _g = serial();
    failpoint::clear();
    let wal = tmp_wal("fsync-die");
    let mut tx1 = Tx::new();
    tx1.insert("edge", int_tuple(&[4, 5]));
    tx1.insert("witness", int_tuple(&[5, 5000]));
    {
        let (server, _) = Server::open(&unit(), ServeConfig::default(), Some(&wal)).expect("open");
        server.commit(&tx1).expect("commit");
    }
    // The "crashed" commit: its record is durable in the log, but no
    // process ever applied it.
    let mut tx2 = Tx::new();
    tx2.insert("edge", int_tuple(&[5, 6]));
    tx2.insert("witness", int_tuple(&[6, 6000]));
    {
        let (mut w, replay) = semrec::serve::Wal::open(&wal).expect("raw wal open");
        assert_eq!(replay.records.len(), 1);
        w.append_commit(&semrec::engine::tx_to_stream(&tx2))
            .expect("raw append");
    }
    let (server, report) =
        Server::open(&unit(), ServeConfig::default(), Some(&wal)).expect("reopen");
    assert_eq!(report.replayed_commits, 2);
    let got = server.query(&goal(), None, None).expect("query");
    assert_eq!(got.tuples, serial_replay(&[tx1, tx2]));
    let _ = std::fs::remove_file(&wal);
}

/// Overload sheds typed (with a retry hint) while admitted requests
/// answer exactly; capacity freeing re-admits.
#[test]
fn overload_sheds_typed_while_admitted_queries_answer_exactly() {
    let _g = serial();
    failpoint::clear();
    let cfg = ServeConfig {
        admission: AdmissionConfig {
            max_inflight: 2,
            ..AdmissionConfig::default()
        },
        ..ServeConfig::default()
    };
    let (server, _) = Server::open(&unit(), cfg, None).expect("open");
    let expect = serial_replay(&[]);
    // Saturate the gate with held permits, then overload.
    let held = server.admission().admit(None).expect("permit 1");
    let _held2 = server.admission().admit(None).expect("permit 2");
    match server.query(&goal(), None, None) {
        Err(ServeError::Overloaded {
            limit,
            retry_after_ms,
            ..
        }) => {
            assert_eq!(limit, 2);
            assert!(retry_after_ms >= 1);
        }
        other => panic!("expected Overloaded, got {other:?}"),
    }
    drop(held);
    let got = server
        .query(&goal(), None, None)
        .expect("admitted after free");
    assert_eq!(got.tuples, expect, "admitted query answers exactly");
}

/// An epoch that fell off the retention ring is the typed
/// `EpochReclaimed`; retained epochs keep answering their exact
/// historical snapshot.
#[test]
fn reclaimed_epoch_is_typed_and_retained_epochs_stay_exact() {
    let _g = serial();
    failpoint::clear();
    let cfg = ServeConfig {
        retain_epochs: 2,
        ..ServeConfig::default()
    };
    let (server, _) = Server::open(&unit(), cfg, None).expect("open");
    let epoch0 = server
        .query(&goal(), Some(0), None)
        .expect("epoch 0")
        .tuples;
    let mut applied = Vec::new();
    for i in 0..3i64 {
        let mut tx = Tx::new();
        tx.insert("edge", int_tuple(&[4, 10 + i]));
        tx.insert("witness", int_tuple(&[10 + i, (10 + i) * 1000]));
        server.commit(&tx).expect("commit");
        applied.push(tx);
    }
    match server.query(&goal(), Some(0), None) {
        Err(ServeError::EpochReclaimed { requested, oldest }) => {
            assert_eq!(requested, 0);
            assert_eq!(oldest, 2);
        }
        other => panic!("expected EpochReclaimed, got {other:?}"),
    }
    let at2 = server.query(&goal(), Some(2), None).expect("epoch 2");
    assert_eq!(at2.tuples, serial_replay(&applied[..2]));
    assert_ne!(at2.tuples, epoch0, "history actually moved");
}

/// Graceful degradation mid-stream: an IC-violating commit flips the
/// route to the rectified program (reported as `violated`), a reader
/// pinned on the pre-violation epoch keeps its exact snapshot, and the
/// repairing commit restores the optimized route — all answers matching
/// serial replay throughout.
#[test]
fn ic_violation_mid_stream_degrades_without_dropping_pinned_readers() {
    let _g = serial();
    failpoint::clear();
    let (server, _) = Server::open(&unit(), ServeConfig::default(), None).expect("open");
    assert_eq!(
        server.registry().latest().route,
        semrec::engine::Route::Optimized
    );
    let pre = server
        .query(&goal(), None, None)
        .expect("pre-violation read");

    let mut bad = Tx::new();
    bad.insert("edge", int_tuple(&[2, 50])); // witness-less target
    let reply = server.commit(&bad).expect("violating commit applies");
    assert_eq!(reply.route, semrec::engine::Route::IncrementalInvalidated);
    assert!(!reply.violated.is_empty(), "violation must be reported");
    assert_eq!(
        server
            .query(&goal(), None, None)
            .expect("degraded read")
            .tuples,
        serial_replay(std::slice::from_ref(&bad)),
        "rectified route must answer exactly"
    );
    // The pinned pre-violation epoch is untouched by the route flip.
    let pinned = server
        .query(&goal(), Some(pre.epoch), None)
        .expect("pinned read survives invalidation");
    assert_eq!(pinned.tuples, pre.tuples);

    let mut repair = Tx::new();
    repair.delete("edge", int_tuple(&[2, 50]));
    let reply = server.commit(&repair).expect("repairing commit");
    assert_eq!(reply.route, semrec::engine::Route::IncrementalOptimized);
    assert!(reply.violated.is_empty());
    assert_eq!(
        server
            .query(&goal(), None, None)
            .expect("recovered read")
            .tuples,
        serial_replay(&[bad, repair])
    );
}
