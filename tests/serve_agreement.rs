//! Concurrent serving agreement: under seeded reader/writer
//! interleavings, every reader's answer is tuple-for-tuple identical to
//! a serial replay of the committed transaction prefix at its pinned
//! epoch, with readers never
//! blocking the writer and vice versa. The wire is held to the same
//! standard: what a session writes is the rendered tuples, cache or no
//! cache, and a cached row-id answer is never read against a relation
//! state other than the one that produced it. Publication shares the
//! writer's row store instead of copying it, so the suite also pins a
//! reader and walks the writer through everything that could disturb a
//! shared store: appends, tombstones left in place, the compaction of a
//! relation whose dead rows outnumber its live ones, growth past the
//! allocation, and the undo of a failed apply.

mod common;

use common::{frame, wire};
use semrec::core::maintain::MaintainedQuery;
use semrec::core::optimizer::OptimizerConfig;
use semrec::datalog::parser::{parse_atom, parse_unit, Unit};
use semrec::datalog::Atom;
use semrec::engine::{int_tuple, Budget, Database, Tuple, Tx};
use semrec::gen::rng::Rng;
use semrec::serve::{ServeConfig, ServeError, Server};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn unit() -> Unit {
    parse_unit(
        "reach(X, Y) :- edge(X, Y).\n\
         reach(X, Y) :- edge(X, Z), witness(Z, W), reach(Z, Y).\n\
         ic ic1: edge(X, Z) -> witness(Z, W).\n\
         edge(1, 2). edge(2, 3).\n\
         witness(1, 100). witness(2, 200). witness(3, 300).",
    )
    .expect("parse unit")
}

fn goal() -> Atom {
    parse_atom("reach(1, Y)").expect("goal")
}

const COMMITS: usize = 8;

/// The deterministic transaction sequence for one seed: witnessed chain
/// growth with one violation + repair pair, so the interleaving crosses
/// a route invalidation and a recovery while readers are in flight.
fn tx_sequence(seed: u64) -> Vec<Tx> {
    let mut rng = Rng::seed_from_u64(0xA9EE + seed);
    let mut txs = Vec::new();
    let mut next = 4i64;
    for i in 0..COMMITS {
        let mut tx = Tx::new();
        match i {
            3 => {
                tx.insert("edge", int_tuple(&[2, 666])); // witness-less
            }
            5 => {
                tx.delete("edge", int_tuple(&[2, 666]));
            }
            _ => {
                let from = rng.gen_range(1..next);
                tx.insert("edge", int_tuple(&[from, next]));
                tx.insert("witness", int_tuple(&[next, next * 1000]));
                next += 1;
            }
        }
        txs.push(tx);
    }
    txs
}

/// Serial replay references: `expected[e]` is the exact answer after
/// the first `e` transactions, for every epoch 0..=COMMITS.
fn references(txs: &[Tx]) -> Vec<Vec<Tuple>> {
    let u = unit();
    let mut q = MaintainedQuery::new(
        Database::from_facts(&u.facts),
        &u.program(),
        &u.constraints,
        OptimizerConfig::default(),
        1,
    )
    .expect("reference query");
    let g = goal();
    let mut out = Vec::with_capacity(txs.len() + 1);
    let mut first = q.answers(&g);
    first.sort();
    out.push(first);
    for tx in txs {
        q.apply(tx, Budget::unlimited(), None)
            .expect("reference apply");
        let mut a = q.answers(&g);
        a.sort();
        out.push(a);
    }
    out
}

/// One interleaving: a writer thread commits the sequence while reader
/// threads hammer latest-epoch queries, recording `(epoch, tuples)`
/// observations. Every observation must match the serial reference at
/// that epoch, and after the run every retained epoch must still
/// answer its historical snapshot.
fn run_interleaving(seed: u64) {
    let txs = tx_sequence(seed);
    let expected = Arc::new(references(&txs));
    let cfg = ServeConfig {
        // Retain everything so every pinned observation stays checkable.
        retain_epochs: COMMITS + 1,
        ..ServeConfig::default()
    };
    let (server, report) = Server::open(&unit(), cfg, None).expect("open");
    assert_eq!(report.epoch, 0);

    let done = Arc::new(AtomicBool::new(false));
    let mut readers = Vec::new();
    for r in 0..3u64 {
        let server = Arc::clone(&server);
        let expected = Arc::clone(&expected);
        let done = Arc::clone(&done);
        readers.push(std::thread::spawn(move || {
            let g = goal();
            let mut rng = Rng::seed_from_u64(seed * 31 + r);
            let mut observed = 0usize;
            while !done.load(Ordering::Acquire) || observed == 0 {
                // Mix latest reads with explicit pins of an epoch the
                // reader has already seen exist.
                let latest = server.registry().latest().epoch;
                let at = if rng.gen_bool(0.3) {
                    Some(rng.gen_range(0..(latest + 1) as i64) as u64)
                } else {
                    None
                };
                match server.query(&g, at, None) {
                    Ok(reply) => {
                        observed += 1;
                        assert_eq!(
                            reply.tuples, expected[reply.epoch as usize],
                            "seed {seed} reader {r}: epoch {} diverged from serial replay",
                            reply.epoch
                        );
                    }
                    Err(ServeError::EpochReclaimed { .. }) => {
                        panic!("seed {seed}: retention covers every epoch")
                    }
                    Err(other) => panic!("seed {seed} reader {r}: {other}"),
                }
            }
            observed
        }));
    }

    for (i, tx) in txs.iter().enumerate() {
        let reply = server.commit(tx).expect("commit");
        assert_eq!(reply.epoch, i as u64 + 1);
    }
    done.store(true, Ordering::Release);
    let mut total = 0usize;
    for h in readers {
        total += h.join().expect("reader thread");
    }
    assert!(total > 0, "seed {seed}: readers observed nothing");

    // Post-run: every retained epoch still answers its exact snapshot.
    let g = goal();
    for e in 0..=COMMITS as u64 {
        let reply = server.query(&g, Some(e), None).expect("pinned epoch");
        assert_eq!(
            reply.tuples, expected[e as usize],
            "seed {seed}: epoch {e} snapshot drifted"
        );
    }
}

#[test]
fn interleavings_agree_serial() {
    for seed in 0..4 {
        run_interleaving(seed);
    }
}

/// Cache-on and cache-off servers replay the same transaction sequence
/// and must answer a mixed goal set tuple-for-tuple identically at
/// every epoch — while the cache-on server actually serves repeats from
/// the answer cache (hits observable in `stats`), and the cache-off
/// server never does.
#[test]
fn cache_on_and_off_agree_tuple_for_tuple() {
    let txs = tx_sequence(42);
    let cached_cfg = ServeConfig {
        retain_epochs: COMMITS + 1,
        ..ServeConfig::default()
    };
    let uncached_cfg = ServeConfig {
        cache_capacity: 0,
        ..cached_cfg.clone()
    };
    let (cached, _) = Server::open(&unit(), cached_cfg, None).expect("open cached");
    let (uncached, _) = Server::open(&unit(), uncached_cfg, None).expect("open uncached");
    let goals: Vec<Atom> = [
        "reach(1, Y)",  // bound first column (probe)
        "reach(X, Y)",  // all free (scan)
        "reach(X, X)",  // repeated variable (scan + residual)
        "reach(1, 3)",  // all bound (membership)
        "reach(Y, 3)",  // bound second column (probe)
        "edge(2, Y)",   // EDB predicate
        "absent(X, Y)", // unknown predicate (empty, cacheable)
    ]
    .iter()
    .map(|s| parse_atom(s).expect("goal"))
    .collect();
    for tx in &txs {
        cached.commit(tx).expect("cached commit");
        uncached.commit(tx).expect("uncached commit");
        for g in &goals {
            // Ask twice: the second cached ask is a cache hit and must
            // still agree with the uncached answer tuple-for-tuple.
            for _ in 0..2 {
                let a = cached.query(g, None, None).expect("cached query");
                let b = uncached.query(g, None, None).expect("uncached query");
                assert_eq!(a.epoch, b.epoch);
                assert_eq!(
                    a.tuples, b.tuples,
                    "goal {g:?} diverged at epoch {}",
                    a.epoch
                );
            }
            // And byte for byte on the wire, where the cached daemon
            // renders a hit's row ids and the other a fresh probe.
            let request = format!("query {g}.\n");
            let sent = wire(&cached, &request);
            assert_eq!(sent, wire(&uncached, &request), "goal {g} on the wire");
            let reply = uncached.query(g, None, None).expect("uncached query");
            assert_eq!(sent, frame(g.pred, &reply), "goal {g}: wire vs tuples");
        }
    }
    let hot = cached.stats();
    let cold = uncached.stats();
    assert!(hot.cache_hits > 0, "repeats must hit the cache");
    assert_eq!(cold.cache_hits, 0, "cache-off server must never hit");
    assert_eq!(cold.cache_misses, 0, "cache-off server must never probe");
}

/// Publication is the cache's invalidation: a goal warmed
/// into the cache must answer the *new* epoch immediately after every
/// commit — including across the violation/repair pair, where route
/// invalidation rebuilds the materialization from scratch and a
/// generation-only key would serve stale hits — and across an ordinary
/// delete, which moves only the generation: the relation keeps its
/// incarnation (rows are tombstoned in place, nothing is rebuilt).
#[test]
fn republish_invalidates_cached_answers() {
    let mut txs = tx_sequence(7);
    let mut delete = Tx::new();
    delete.delete("edge", int_tuple(&[2, 3]));
    txs.push(delete);
    let expected = references(&txs);
    assert_ne!(expected[COMMITS], expected[COMMITS + 1], "the delete shows");
    let cfg = ServeConfig {
        retain_epochs: txs.len() + 1,
        ..ServeConfig::default()
    };
    let (server, _) = Server::open(&unit(), cfg, None).expect("open");
    let g = goal();
    for (i, tx) in txs.iter().enumerate() {
        // Warm the cache at the current epoch (second ask is a hit)...
        for _ in 0..2 {
            let reply = server.query(&g, None, None).expect("warm query");
            assert_eq!(reply.tuples, expected[i]);
        }
        // ...then commit and require the republished answer, not the
        // cached one.
        server.commit(tx).expect("commit");
        let reply = server.query(&g, None, None).expect("post-commit query");
        assert_eq!(reply.epoch, i as u64 + 1);
        assert_eq!(
            reply.tuples,
            expected[i + 1],
            "stale cached answer served after commit {i}"
        );
        // Older epochs keep hitting their own entries, unperturbed.
        let old = server.query(&g, Some(i as u64), None).expect("pinned");
        assert_eq!(old.tuples, expected[i]);
        // The same on the wire, where a hit's row ids are read against
        // the pinned relation: the warmed entry belongs to epoch i's
        // relation and must not be addressed at epoch i + 1 — also not
        // across the violation/repair rebuilds, whose fresh relations
        // restart their generation counters — while `query@i` keeps
        // rendering epoch i's exact rows.
        assert_eq!(wire(&server, "query reach(1, Y).\n"), frame(g.pred, &reply));
        assert_eq!(
            wire(&server, &format!("query@{i} reach(1, Y).\n")),
            frame(g.pred, &old)
        );
    }
    let stamp = |epoch: usize| {
        let state = server.registry().pin(Some(epoch as u64)).expect("retained");
        state.relation(g.pred).expect("reach").stamp()
    };
    let (before, after) = (stamp(COMMITS), stamp(COMMITS + 1));
    assert_eq!(before.0, after.0, "a delete keeps the incarnation");
    assert!(before.1 < after.1, "and moves the generation");
    let stats = server.stats();
    assert!(
        stats.cache_hits as usize >= COMMITS,
        "warm repeats must hit ({} hits)",
        stats.cache_hits
    );
}

/// The writer must make progress while a reader holds a pinned epoch
/// `Arc` for the whole run (no reader-blocks-writer), and that reader's
/// snapshot must stay frozen (no writer-blocks-reader consistency
/// leaks).
#[test]
fn long_pinned_reader_never_blocks_the_writer() {
    let txs = tx_sequence(99);
    let expected = references(&txs);
    let cfg = ServeConfig {
        retain_epochs: 2, // epoch 0 will fall off the ring...
        ..ServeConfig::default()
    };
    let (server, _) = Server::open(&unit(), cfg, None).expect("open");
    let pinned = server.registry().pin(Some(0)).expect("pin epoch 0");
    for tx in &txs {
        server.commit(tx).expect("commit with a pinned reader");
    }
    // ...but the held Arc keeps the snapshot alive and frozen.
    let rel = pinned
        .relation(semrec::datalog::Pred::from("reach"))
        .expect("pinned reach");
    let g = goal();
    let frozen: Vec<Tuple> = rel
        .sorted_tuples()
        .into_iter()
        .filter(|t| semrec::engine::eval::goal_matches(&g, t))
        .collect();
    assert_eq!(frozen, expected[0]);
    assert!(matches!(
        server.query(&goal(), Some(0), None),
        Err(ServeError::EpochReclaimed { .. })
    ));
    let latest = server.query(&goal(), None, None).expect("latest");
    assert_eq!(latest.tuples, expected[COMMITS]);
}

/// A relation rebuilt from scratch restarts its generation counter, so
/// "same generation as the published snapshot" does not mean "same
/// content": a builtin program is recomputed by every commit, and the
/// rebuilt `p` — one insert, like the `p` of epoch 0 — used to be
/// mistaken for it and the old epoch's snapshot republished. The stamp
/// compared now carries the storage incarnation.
#[test]
fn a_rebuilt_relation_is_not_mistaken_for_its_predecessor() {
    let unit = parse_unit("p(X, Z) :- e(X), plus(X, 1, Z). e(1).").expect("parse unit");
    let (server, _) = Server::open(&unit, ServeConfig::default(), None).expect("open");
    assert_eq!(
        wire(&server, "query p(X, Z).\n"),
        "ok epoch=0 route=direct rows=1\np(1, 2).\nend\n"
    );
    let sent = wire(&server, "-e(1).\n+e(5).\ncommit.\nquery p(X, Z).\n");
    let answer = sent
        .split_once('\n')
        .expect("commit ack, then the answer")
        .1;
    assert!(
        answer.starts_with("ok epoch=1 ") && answer.ends_with(" rows=1\np(5, 6).\nend\n"),
        "epoch 1 holds e(5), so p must be p(5, 6): {sent}"
    );
    // The old epoch still answers the old state.
    assert!(wire(&server, "query@0 p(X, Z).\n").ends_with("rows=1\np(1, 2).\nend\n"));
}

/// Pinned-reader isolation over a shared row store. A reader pinned at
/// epoch E keeps answering E's rows — by value, and through the row ids
/// of answers it was handed back then — while later commits append to
/// the very allocation it reads, tombstone rows of it in place, compact
/// it once most of it is dead, outgrow it, and undo a failed apply in
/// it (a row-budget trip, which truncates the store while snapshots
/// share it and then re-appends other rows under the cut ids). After
/// every step `query@e` of every epoch so far equals a serial replay to
/// `e`. The index lineage readers share follows the row ids: it
/// survives every commit but the compaction and the undo.
#[test]
fn a_pinned_reader_is_isolated_from_everything_the_writer_does_to_the_store() {
    const N: i64 = 20;
    const ROW_LIMIT: u64 = 2500;
    let mut src =
        String::from("reach(X, Y) :- edge(X, Y).\nreach(X, Y) :- edge(X, Z), reach(Z, Y).\n");
    for i in 1..N {
        src.push_str(&format!("edge({i}, {}).\n", i + 1));
    }
    let unit = parse_unit(&src).expect("parse unit");
    let goals: Vec<Atom> = [
        "reach(1, Y)",  // probe on the first column
        "reach(X, 20)", // probe on the second
        "reach(3, 7)",  // all bound: probe + row comparison
        "reach(X, Y)",  // scan
        "edge(X, Y)",   // an EDB relation shares its store too
    ]
    .iter()
    .map(|g| parse_atom(g).expect("goal"))
    .collect();

    // The serial replay: one maintained query, no server, no sharing.
    let mut replay = MaintainedQuery::new(
        Database::from_facts(&unit.facts),
        &unit.program(),
        &unit.constraints,
        OptimizerConfig::default(),
        1,
    )
    .expect("reference query");
    let answers_of = |q: &MaintainedQuery| -> Vec<Vec<Tuple>> {
        goals
            .iter()
            .map(|g| {
                let mut a = match q.relation(g.pred).or_else(|| q.db().get(g.pred)) {
                    Some(rel) => semrec::engine::eval::answer_goal(&rel.snapshot(), g),
                    None => Vec::new(),
                };
                a.sort();
                a
            })
            .collect()
    };
    let mut expected = vec![answers_of(&replay)];

    let cfg = ServeConfig {
        retain_epochs: 64,
        write_budget: Budget::unlimited().with_max_idb_rows(ROW_LIMIT),
        ..ServeConfig::default()
    };
    let (server, _) = Server::open(&unit, cfg, None).expect("open");

    // What pinned readers hold on to: answers by row id, with the epoch
    // they were read at.
    let mut held = Vec::new();
    let hold = |server: &Server, held: &mut Vec<_>| {
        for (gi, g) in goals.iter().enumerate() {
            held.push((gi, server.query_rows(g, None, None).expect("pin")));
        }
    };
    hold(&server, &mut held);

    let chain = |from: i64, to: i64| {
        let mut tx = Tx::new();
        for i in from..to {
            tx.insert("edge", int_tuple(&[i, i + 1]));
        }
        tx
    };
    let mut delete = Tx::new();
    delete.delete("edge", int_tuple(&[5, 6]));
    let mut reinsert = Tx::new();
    reinsert.insert("edge", int_tuple(&[5, 6]));
    // 10 x 11 of the 210 live `reach` rows, beside the 75 tombstones of
    // the first delete: the dead now outnumber the live.
    let mut cut = Tx::new();
    cut.delete("edge", int_tuple(&[10, 11]));
    let mut mend = Tx::new();
    mend.insert("edge", int_tuple(&[10, 11]));
    let mut spur = Tx::new();
    spur.insert("edge", int_tuple(&[60, 200]));
    // (transaction, commits?) in order. The chain to 100 would hold
    // 4950 reach rows: over the budget, so its apply is undone.
    let steps = [
        ("append within the allocation", chain(N, N + 1), true),
        ("tombstones in place", delete, true),
        ("append beside tombstones", reinsert, true),
        ("mostly dead: compaction", cut, true),
        ("append after compaction", mend, true),
        ("growth past the allocation", chain(N + 1, 60), true),
        ("failed apply, undone", chain(60, 100), false),
        ("append under the cut row ids", spur, true),
        ("growth again", chain(200, 208), true),
    ];
    let reach = |epoch: u64| {
        let state = server.registry().pin(Some(epoch)).expect("retained");
        Arc::clone(state.relation(goals[0].pred).expect("reach"))
    };
    let mut new_lineages = Vec::new();
    for (what, tx, commits) in &steps {
        let before = server.stats().epoch;
        match server.commit(tx) {
            Ok(reply) => {
                assert!(commits, "{what}: expected the row budget to trip");
                assert_eq!(reply.epoch, before + 1, "{what}");
                if !reach(reply.epoch).shares_indexes_with(&reach(before)) {
                    new_lineages.push(*what);
                }
                replay
                    .apply(tx, Budget::unlimited(), None)
                    .expect("reference apply");
                expected.push(answers_of(&replay));
            }
            Err(e) => {
                assert!(!commits, "{what}: {e}");
                assert!(
                    matches!(&e, ServeError::Engine(inner) if inner.to_string().contains("idb_rows")),
                    "{what}: {e}"
                );
                assert_eq!(server.stats().epoch, before, "{what}: nothing published");
            }
        }
        // Every epoch so far, by value, against the serial replay.
        for (e, want) in expected.iter().enumerate() {
            for (g, want) in goals.iter().zip(want) {
                let got = server.query(g, Some(e as u64), None).expect("query@e");
                assert_eq!(got.epoch, e as u64);
                assert_eq!(&got.tuples, want, "after {what}: `{g}` at epoch {e}");
            }
        }
        // Every answer handed out so far, through its row ids.
        for (gi, answer) in &held {
            let rows: Vec<Tuple> = answer.rows().map(<[_]>::to_vec).collect();
            assert_eq!(
                rows, expected[answer.epoch as usize][*gi],
                "after {what}: held ids of `{}` at epoch {}",
                goals[*gi], answer.epoch
            );
        }
        hold(&server, &mut held);
    }
    assert_eq!(expected.len(), steps.len(), "one epoch per committed step");
    assert_eq!(
        new_lineages,
        ["mostly dead: compaction", "append under the cut row ids"],
        "an ordinary delete keeps row ids and the indexes built on them"
    );
    // None of this was paid for by copying relations: the only row
    // copies are the two growth steps' doublings.
    let reach_bytes = 16 * 2 * ROW_LIMIT;
    let copied = server.stats().publish_bytes;
    assert!(
        copied < 2 * reach_bytes,
        "{copied} bytes copied over {} commits of a ≤ {reach_bytes}-byte relation",
        steps.len()
    );
}
