//! Property test for the incremental maintenance subsystem: random
//! insert/delete transaction sequences on the fanout and genealogy
//! workloads, asserting after every committed transaction that the
//! maintained materialization is *identical* to a from-scratch
//! evaluation of the post-transaction database — same predicates, same
//! tuples, and structurally sound flat storage.
//!
//! The transactions are adversarial on purpose: deletes of random live
//! tuples (including chain edges whose loss cascades through the
//! recursion), deletes of tuples that were never inserted (no-ops),
//! re-inserts of just-deleted tuples, and mixed transactions that net
//! out. Seeds are fixed so failures replay.

use semrec::datalog::{Pred, Program};
use semrec::engine::incr::{Materialized, Tx};
use semrec::engine::{evaluate, Budget, Database, Relation, Strategy, Tuple};
use semrec::gen::rng::Rng;
use semrec::gen::{fanout, genealogy, parse_scenario};
use std::collections::BTreeMap;

/// Draws a random tuple for `pred` from the workload's value domain.
/// Small domains make collisions (re-inserts of live tuples, deletes of
/// tombstoned ones) likely, which is exactly what the dedup and
/// tombstone paths need exercised.
fn random_tuple(workload: &str, pred: &str, rng: &mut Rng) -> Tuple {
    use semrec::datalog::Value::Int;
    match (workload, pred) {
        ("fanout", "edge") => vec![Int(rng.gen_range(0..45i64)), Int(rng.gen_range(0..45i64))],
        ("fanout", "witness") => {
            let v = rng.gen_range(0..45i64);
            vec![Int(v), Int(v * 1000 + rng.gen_range(0..4i64))]
        }
        ("genealogy", "par") => vec![
            Int(rng.gen_range(0..30i64)),
            Int(rng.gen_range(10..120i64)),
            Int(rng.gen_range(0..30i64)),
            Int(rng.gen_range(10..120i64)),
        ],
        _ => unreachable!("unknown workload predicate"),
    }
}

/// A random live tuple of `pred`, if the relation is non-empty.
fn random_live(db: &Database, pred: Pred, rng: &mut Rng) -> Option<Tuple> {
    let rel = db.get(pred)?;
    let tuples: Vec<Tuple> = rel.iter().map(<[_]>::to_vec).collect();
    if tuples.is_empty() {
        return None;
    }
    Some(tuples[rng.gen_range(0..tuples.len())].clone())
}

/// Asserts the maintained IDB equals a from-scratch evaluation of the
/// current database, tuple for tuple, and that every maintained
/// relation passes the flat-storage invariant check.
fn assert_agrees(
    db: &Database,
    program: &Program,
    maintained: &BTreeMap<Pred, Relation>,
    ctx: &str,
) {
    let scratch = evaluate(db, program, Strategy::SemiNaive).expect("from-scratch evaluation");
    let nonempty = |m: &BTreeMap<Pred, Relation>| {
        m.iter()
            .filter(|(_, r)| !r.is_empty())
            .map(|(p, r)| (*p, r.sorted_tuples()))
            .collect::<BTreeMap<_, _>>()
    };
    assert_eq!(
        nonempty(maintained),
        nonempty(&scratch.idb),
        "incremental result diverged from scratch ({ctx})"
    );
    for (p, rel) in maintained {
        rel.check_invariant()
            .unwrap_or_else(|e| panic!("invariant broken for {p} ({ctx}): {e}"));
    }
}

/// Runs `steps` random transactions against a maintained
/// materialization, checking agreement after every commit.
fn run_sequence(workload: &str, program: &Program, mut db: Database, seed: u64, steps: usize) {
    let preds: &[&str] = match workload {
        "fanout" => &["edge", "witness"],
        "genealogy" => &["par"],
        _ => unreachable!(),
    };
    let mut rng = Rng::seed_from_u64(seed);
    let mut m = Materialized::new(&db, program).expect("initial materialization");
    assert!(m.is_incremental(), "workload should be delta-maintainable");
    assert_agrees(
        &db,
        program,
        m.idb(),
        &format!("{workload} seed {seed} initial"),
    );

    for step in 0..steps {
        let mut tx = Tx::new();
        for _ in 0..rng.gen_range(0..3usize) {
            let p = preds[rng.gen_range(0..preds.len())];
            tx.insert(p, random_tuple(workload, p, &mut rng));
        }
        for _ in 0..rng.gen_range(0..3usize) {
            let p = preds[rng.gen_range(0..preds.len())];
            // Mostly delete live tuples (cascades through the
            // recursion); sometimes a random tuple that may not exist.
            let t = if rng.gen_bool(0.8) {
                random_live(&db, Pred::new(p), &mut rng)
            } else {
                Some(random_tuple(workload, p, &mut rng))
            };
            if let Some(t) = t {
                tx.delete(p, t);
            }
        }
        // Occasionally delete and re-insert the same tuple in one tx.
        if rng.gen_bool(0.3) {
            let p = preds[rng.gen_range(0..preds.len())];
            if let Some(t) = random_live(&db, Pred::new(p), &mut rng) {
                tx.delete(p, t.clone());
                tx.insert(p, t);
            }
        }
        if tx.is_empty() {
            continue;
        }
        m.apply(&mut db, &tx, Budget::unlimited(), None)
            .expect("unlimited-budget apply succeeds");
        assert_agrees(
            &db,
            program,
            m.idb(),
            &format!("{workload} seed {seed} step {step}"),
        );
    }
}

#[test]
fn fanout_random_tx_sequences_agree_with_scratch() {
    let s = parse_scenario(fanout::PROGRAM);
    for seed in [7u64, 101, 9001] {
        let db = fanout::generate(&fanout::FanoutParams {
            nodes: 40,
            extra_edges: 20,
            fanout: 3,
            seed,
        });
        run_sequence("fanout", &s.program, db, seed, 14);
    }
}

#[test]
fn genealogy_random_tx_sequences_agree_with_scratch() {
    let s = parse_scenario(genealogy::PROGRAM);
    for seed in [3u64, 77] {
        let db = genealogy::generate(&genealogy::GenealogyParams {
            families: 2,
            depth: 4,
            branching: 2,
            seed,
        });
        run_sequence("genealogy", &s.program, db, seed, 12);
    }
}
