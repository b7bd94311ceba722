//! The paper's Theorem 4.1 (isolation preserves semantics on *all*
//! databases) and the soundness of pushing (the optimized program agrees
//! on every IC-satisfying database), as case generators over the route
//! matrix of `common/routes.rs`, which isolates sequences of every
//! recursive predicate of every case and compares every route with the
//! naive oracle. Where a test is about the static routes — isolation,
//! semi-naive evaluation, the optimizer's soundness — its first cases go
//! through every route and its later seeds through the static ones
//! (`Depth::Static`): the programs the optimizer derives, evaluated.

mod common;

use common::cases::{random_programs, tiered, workload};
use common::routes::{assert_reached, check_all, Counts};

/// `n` seeds of the generated workload `kind`, three of them in full.
fn workload_seeds(kind: &str, n: u64) -> Counts {
    check_all(tiered((0..n).map(|seed| workload(kind, seed)), 3))
}

/// Isolation of sequences of a left-linear ancestor program over random
/// parent graphs.
#[test]
fn isolation_preserves_semantics() {
    let isolated = check_all(tiered(random_programs("anc", 0..48), 16))["isolated"];
    assert!(isolated >= 48 * 2, "{isolated} isolated");
}

/// The same on random linear programs (`gen::programs::random_linear`).
#[test]
fn isolation_preserves_semantics_on_random_programs() {
    let cases = tiered(random_programs("random linear", 0..32), 16);
    let isolated = check_all(cases)["isolated"];
    assert!(isolated >= 32, "{isolated} isolated");
}

/// The original route and the oracle agree on random graphs.
#[test]
fn naive_equals_seminaive() {
    check_all(tiered(random_programs("closure", 0..48), 16));
}

/// Magic sets and factoring answer every binding pattern of the closure
/// completely, on other random graphs.
#[test]
fn magic_query_complete() {
    let counts = check_all(random_programs("closure", 48..96));
    assert_reached(&counts, &["magic", "factored"]);
}

/// The bottom-up routes and the experiments' two top-down models
/// (tabled top-down, depth-bounded SLD) agree on random acyclic data.
#[test]
fn three_engines_agree() {
    check_all(random_programs("acyclic", 0..48));
}

#[test]
fn org_optimization_sound() {
    workload_seeds("org", 48);
}

/// Elimination and introduction of the small `doctoral` relation.
#[test]
fn university_optimization_sound() {
    workload_seeds("university", 24);
}

/// Conditional pruning.
#[test]
fn genealogy_optimization_sound() {
    workload_seeds("genealogy", 24);
}

/// k = 1 elimination of the witness subgoal.
#[test]
fn fanout_optimization_sound() {
    workload_seeds("fanout", 24);
}
