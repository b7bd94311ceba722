//! Incremental maintenance under adversarial transaction streams
//! (`common::cases::tx_streams`): deletes of live tuples whose loss
//! cascades through the recursion, deletes of tuples never inserted,
//! re-inserts in the same and in later transactions, an edge deleted
//! with every witness its derivations used. The route matrix of
//! `common/routes.rs` compares the maintained and served routes with the
//! naive oracle after every commit, DRed's counts included. The streams
//! alternate between shrinking and regrowing the database, so tombstones
//! pile up in place until dead rows outnumber live ones and a relation
//! compacts — more than once per stream.

mod common;

use common::cases::tx_streams;
use common::routes::{check, check_each, Case};
use semrec::engine::{int_tuple, Database, Materialized, Tx};
use semrec::gen::fanout;

/// Both body facts of one derivation leave in one transaction, so
/// over-deletion must read the *pre*-transaction database: seeded from
/// either fact, the derivation is found only while the other is there.
#[test]
fn one_tx_deleting_both_facts_of_a_derivation_agrees_with_scratch() {
    let mut db = Database::new();
    let mut tx = Tx::new();
    for (p, t, gone) in [
        ("edge", [1, 2], true),
        ("edge", [2, 3], false),
        ("witness", [2, 20], true),
    ] {
        db.insert(p, int_tuple(&t));
        if gone {
            tx.delete(p, int_tuple(&t));
        }
    }
    let case = Case::new("edge + witness", fanout::PROGRAM, db).with_txs(vec![tx]);
    let counts = check(&case).counts;
    assert_eq!((counts["over_deleted"], counts["rederived"]), (2, 0));
}

/// The streams' programs are in the delta-maintainable fragment, and
/// each stream compacts at least twice.
fn streams(kind: &str) {
    let cases = tx_streams(kind, 0..2);
    for case in &cases {
        let m = Materialized::new(&case.edb, &case.program).expect("materialize");
        assert!(m.is_incremental(), "{}: not delta-maintainable", case.name);
    }
    for (name, report) in check_each(cases) {
        let n = report.counts["compactions"];
        assert!(n >= 2, "{name}: {n} compactions");
    }
}

#[test]
fn fanout_random_tx_sequences_agree_with_scratch() {
    streams("fanout");
}

#[test]
fn genealogy_random_tx_sequences_agree_with_scratch() {
    streams("genealogy");
}
