//! Indexed goal answering agrees with the naive oracle's scan. The
//! route matrix of `common/routes.rs` asks every predicate of every
//! state of a case — every binding pattern with present and absent
//! constants, a repeated variable, the wrong arity, a predicate nobody
//! defines — of the maintained query, which answers by one filtered
//! scan (`scan_goal`) over relations holding tombstones, and of a
//! server, which answers by dictionary probes (`answer_goal`) as row ids
//! rendered straight off its pinned snapshots: after every commit,
//! computed and then from the answer cache; at every retained epoch
//! once later readers have extended the indexes the older snapshots
//! share; and after a restart, uncached. Every workload's first
//! transaction tombstones a fifth of its largest relation. The
//! goal-directed routes, which answer by rewriting rather than from a
//! materialization, are left out.

mod common;

use common::cases::{tx_streams, workload};
use common::routes::{check, check_all, Case};
use semrec::datalog::Value;

#[test]
fn indexed_answers_agree_with_scans_on_generated_workloads() {
    check_all(["university", "flights"].map(|kind| workload(kind, 20).without_goals()));
}

#[test]
fn one_shot_scans_agree_with_indexed_answers() {
    check_all(["fanout", "genealogy"].map(|kind| workload(kind, 21).without_goals()));
}

/// Eight commits per stream: eight epochs read newest first.
#[test]
fn snapshots_behind_their_lineage_index_agree_with_scans() {
    let mut cases = tx_streams("fanout", 2..3);
    cases.extend(tx_streams("genealogy", 2..3));
    for case in &mut cases {
        case.txs.truncate(8);
    }
    check_all(cases.into_iter().map(Case::without_goals));
}

#[test]
fn wire_bytes_agree_with_tuples_on_generated_workloads() {
    check_all(["org", "flights"].map(|kind| workload(kind, 22).without_goals()));
}

/// String-valued constants probe like integers: org's `boss` carries a
/// string rank column, which the matrix binds in its goals.
#[test]
fn string_constants_probe_correctly() {
    let case = workload("org", 23).without_goals();
    let rel = case.edb.get("boss".into()).expect("boss");
    assert!(rel
        .iter()
        .any(|row| matches!(row[2].value(), Value::Str(_))));
    check(&case);
}
