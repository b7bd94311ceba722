//! Goal-directed routing agrees with the naive oracle. For every input —
//! the samples, the paper's Example 2.1, the soundness families on
//! repaired random data and the five generated workloads — the route
//! matrix of `common/routes.rs` asks every binding pattern of every
//! recursive predicate, with constants from the predicate's own tuples
//! and one constant no input holds, of every goal-directed alternative
//! `route_alternatives` enumerates (magic sets and factoring, of the
//! program as written and of the residue-pushed one) and of
//! `evaluate_routed`. Each suite must reach the alternatives it names.

mod common;

use common::cases::{families, samples, workloads};
use common::routes::{assert_reached, check_all};

#[test]
fn samples_and_paper_examples_agree() {
    let counts = check_all(samples(0..1));
    assert_reached(&counts, &["magic", "pushed_magic", "factored"]);
}

#[test]
fn soundness_families_agree_on_repaired_random_data() {
    let counts = check_all(families(40..55));
    assert_reached(
        &counts,
        &["magic", "pushed_magic", "factored", "pushed_factored"],
    );
}

#[test]
fn generated_workloads_agree() {
    let counts = check_all(workloads(10..11));
    assert_reached(
        &counts,
        &["magic", "pushed_magic", "factored", "pushed_factored"],
    );
}
