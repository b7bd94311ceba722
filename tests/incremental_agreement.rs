//! Property test for the incremental maintenance subsystem: random
//! insert/delete transaction sequences on the fanout and genealogy
//! workloads, asserting after every committed transaction that the
//! maintained materialization is *identical* to a from-scratch
//! evaluation of the post-transaction database and to the naive oracle
//! of `tests/common/naive.rs` — same predicates, same tuples, and
//! structurally sound flat storage.
//!
//! The transactions are adversarial on purpose: deletes of random live
//! tuples (including chain edges whose loss cascades through the
//! recursion), deletes of tuples that were never inserted (no-ops),
//! re-inserts of deleted tuples in the same and in later transactions,
//! an `edge` deleted together with every `witness` its derivations
//! used, and mixed transactions that net out. The streams alternate
//! between shrinking and regrowing the database, so tombstones pile up
//! in place until a relation's dead rows outnumber its live ones and it
//! compacts — more than once per stream. Seeds are fixed so failures
//! replay.

#[path = "common/naive.rs"]
mod naive;

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
/// current database and the naive oracle's, tuple for tuple, and that
/// every relation passes the flat-storage invariant check.
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
    let mut oracle = naive::naive_idb(db, program);
    oracle.retain(|_, set| !set.is_empty());
    let sets = |(p, rows): (Pred, Vec<Tuple>)| (p, rows.into_iter().collect());
    assert_eq!(
        nonempty(maintained)
            .into_iter()
            .map(sets)
            .collect::<naive::Facts>(),
        oracle,
        "incremental result diverged from the naive oracle ({ctx})"
    );
    for (p, rel) in db.iter().chain(maintained.iter().map(|(&p, r)| (p, r))) {
        rel.check_invariant()
            .unwrap_or_else(|e| panic!("invariant broken for {p} ({ctx}): {e}"));
    }
}

/// Runs `steps` random transactions against a maintained
/// materialization, checking agreement after every commit. Phases of
/// eight steps alternate between deleting live tuples and re-inserting
/// what earlier transactions deleted. Returns how many compactions the
/// stream caused (a relation's incarnation moved across a commit).
fn run_sequence(
    workload: &str,
    program: &Program,
    mut db: Database,
    seed: u64,
    steps: usize,
) -> usize {
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

    let incarnations = |db: &Database, m: &Materialized| -> Vec<u64> {
        let rels = db.iter().chain(m.idb().iter().map(|(&p, r)| (p, r)));
        rels.map(|(_, r)| r.stamp().0).collect()
    };
    let mut compactions = 0;
    let mut graveyard: Vec<(&str, Tuple)> = Vec::new();
    for step in 0..steps {
        let shrinking = (step / 8).is_multiple_of(2);
        let (inserts, deletes) = if shrinking {
            (0..2usize, 1..5usize)
        } else {
            (2..5, 0..2)
        };
        let mut tx = Tx::new();
        for _ in 0..rng.gen_range(inserts) {
            // Mostly bring back a tuple an earlier tx deleted.
            if !graveyard.is_empty() && rng.gen_bool(0.8) {
                let (p, t) = graveyard.swap_remove(rng.gen_range(0..graveyard.len()));
                tx.insert(p, t);
            } else {
                let p = preds[rng.gen_range(0..preds.len())];
                tx.insert(p, random_tuple(workload, p, &mut rng));
            }
        }
        for _ in 0..rng.gen_range(deletes) {
            let p = preds[rng.gen_range(0..preds.len())];
            // Mostly delete live tuples (cascades through the
            // recursion); sometimes a random tuple that may not exist.
            let t = if rng.gen_bool(0.8) {
                random_live(&db, Pred::new(p), &mut rng)
            } else {
                Some(random_tuple(workload, p, &mut rng))
            };
            if let Some(t) = t {
                graveyard.push((p, t.clone()));
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
        // Occasionally delete an edge and, with it, every witness of
        // its target: both atoms of the derivations through them.
        if workload == "fanout" && rng.gen_bool(0.2) {
            if let Some(e) = random_live(&db, Pred::new("edge"), &mut rng) {
                let witnesses = db.get(Pred::new("witness")).expect("witness");
                for w in witnesses.iter().filter(|w| w[0] == e[1]) {
                    graveyard.push(("witness", w.to_vec()));
                    tx.delete("witness", w.to_vec());
                }
                graveyard.push(("edge", e.clone()));
                tx.delete("edge", e);
            }
        }
        if tx.is_empty() {
            continue;
        }
        let before = incarnations(&db, &m);
        m.apply(&mut db, &tx, Budget::unlimited(), None)
            .expect("unlimited-budget apply succeeds");
        let after = incarnations(&db, &m);
        compactions += before.iter().zip(&after).filter(|(b, a)| b != a).count();
        assert_agrees(
            &db,
            program,
            m.idb(),
            &format!("{workload} seed {seed} step {step}"),
        );
    }
    compactions
}

/// The case that makes over-deletion read the *pre*-transaction
/// database: both body facts of one derivation go in one transaction,
/// so seeded from either, the derivation is found only while the other
/// is still there.
#[test]
fn one_tx_deleting_both_facts_of_a_derivation_agrees_with_scratch() {
    let s = parse_scenario(fanout::PROGRAM);
    let mut db = Database::new();
    for (p, t) in [("edge", [1, 2]), ("edge", [2, 3]), ("witness", [2, 20])] {
        db.insert(p, t.map(semrec::datalog::Value::Int).to_vec());
    }
    let mut m = Materialized::new(&db, &s.program).expect("materialization");
    assert_eq!(m.relation("reach").expect("reach").len(), 3);
    let mut tx = Tx::new();
    for (p, t) in [("edge", [1, 2]), ("witness", [2, 20])] {
        tx.delete(p, t.map(semrec::datalog::Value::Int).to_vec());
    }
    let stats = m
        .apply(&mut db, &tx, Budget::unlimited(), None)
        .expect("apply");
    assert_eq!((stats.over_deleted, stats.rederived), (2, 0));
    assert_agrees(&db, &s.program, m.idb(), "edge + witness in one tx");
    assert_eq!(m.relation("reach").expect("reach").len(), 1);
}

#[test]
fn fanout_random_tx_sequences_agree_with_scratch() {
    let s = parse_scenario(fanout::PROGRAM);
    for seed in [7u64, 101, 9001] {
        let db = fanout::generate(&fanout::FanoutParams {
            nodes: 24,
            extra_edges: 12,
            fanout: 2,
            seed,
        });
        let compactions = run_sequence("fanout", &s.program, db, seed, 48);
        assert!(compactions >= 2, "seed {seed}: {compactions} compactions");
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
        let compactions = run_sequence("genealogy", &s.program, db, seed, 40);
        assert!(compactions >= 2, "seed {seed}: {compactions} compactions");
    }
}
