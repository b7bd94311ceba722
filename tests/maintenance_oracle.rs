//! The maintenance layer's integrity checks and DRed counts against the
//! naive oracle, on random constraints (`common::cases::random_ic`: atom
//! heads with existential and repeated existential variables, comparison
//! heads, denials, repeated variables and constants, every atom at its
//! EDB arity) over random EDBs and transaction streams
//! with deletes, through the route matrix of `common/routes.rs`: after
//! every transaction `Database::violations` equals the oracle's
//! violating bindings, `satisfies` agrees, the maintained query degrades
//! exactly when a constraint it relies on breaks, DRed's `over_deleted`
//! and `rederived` equal the oracle's counts, the materialization equals
//! the naive fixpoint, and the delta re-check `IcCheck::holds` of every
//! constraint that held before the transaction agrees with the oracle.

mod common;

use common::cases::random_constraints;
use common::routes::check_all;
use semrec::datalog::analysis::check;
use semrec::datalog::{Atom, Facts, IcHead, Symbol};
use std::collections::{BTreeMap, BTreeSet};

/// The stream must exercise what it claims to: deletes that over-delete
/// and re-derive, and constraints a delta breaks.
#[test]
fn ic_checks_and_dred_counts_agree_with_the_oracle() {
    let counts = check_all(random_constraints(0..48));
    let (over, back) = (counts["over_deleted"], counts["rederived"]);
    assert!(
        over > 100 && back > 10,
        "{over} over-deleted, {back} re-derived"
    );
    let broke = counts["broke"];
    assert!(broke > 10, "{broke} constraints broken by a delta");
}

/// Keeps the generator's vocabulary honest: every constraint shape the
/// module docs list shows up in the tier-1 seeds.
#[test]
fn the_random_constraints_cover_every_head_shape() {
    let mut shapes = BTreeMap::new();
    for ic in random_constraints(0..48).into_iter().flat_map(|c| c.ics) {
        let body: BTreeSet<Symbol> = ic.body_atoms.iter().flat_map(Atom::vars).collect();
        let shape = match &ic.head {
            IcHead::None => "denial",
            IcHead::Cmp(_) => "comparison",
            IcHead::Atom(h) if h.vars().any(|v| !body.contains(&v)) => "existential",
            IcHead::Atom(_) => "atom",
        };
        *shapes.entry(shape).or_insert(0) += 1;
    }
    assert_eq!(shapes.len(), 4, "{shapes:?}");
}

/// Every case is a file `check` accepts, so none skips the router's leg
/// of the route matrix; arity clashes are `check_agreement`'s and `cli`'s.
#[test]
fn every_random_constraint_case_passes_check() {
    for case in random_constraints(0..48) {
        let checked = check(&case.program, &case.ics, &Facts::new());
        assert!(checked.is_ok(), "{}: {:?}", case.name, checked.err());
    }
}
