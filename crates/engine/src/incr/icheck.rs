//! Delta-driven integrity-constraint monitoring.
//!
//! `Database::satisfies` enumerates every body binding of a constraint —
//! fine for batch validation, wasteful per transaction. For a constraint
//! that held *before* the transaction, only bindings that involve the
//! delta can newly violate it:
//!
//! - An **insert** into a body-atom predicate can complete a body
//!   binding that the head fails. Each body position whose predicate
//!   received inserts is seeded with each inserted tuple; the remaining
//!   body atoms enumerate the full post-transaction EDB.
//! - A **delete** from the head-atom predicate can strip the witness of
//!   a previously satisfied body binding — but only of a binding whose
//!   head instance the deleted tuple matched. The head atom is unified
//!   with each deleted tuple, the bindings of variables the body shares
//!   are kept (existential head variables must stay free when the head
//!   is re-tested: another witness may remain), and the body is
//!   enumerated under them on the post-transaction state.
//!
//! Deletes from body predicates and inserts into the head predicate can
//! only *remove* violations, so a held constraint stays held under them.
//! Constraints already violated are outside this module's scope: the
//! maintenance layer re-checks those in full until they hold again.

use super::matcher::{match_body, unify_row, Poll, State};
use super::TxDelta;
use crate::database::Database;
use crate::error::EngineError;
use crate::relation::Relation;
use semrec_datalog::atom::{Atom, Pred};
use semrec_datalog::constraint::{Constraint, IcHead};
use semrec_datalog::subst::Subst;
use semrec_datalog::term::Term;
use std::collections::BTreeMap;

/// Whether `ic` — known to hold before the transaction — still holds
/// after it, examining only bindings the delta can have created.
/// `post` is the post-transaction database.
pub(crate) fn still_satisfied(
    post: &Database,
    delta: &TxDelta,
    ic: &Constraint,
    poll: &mut Poll<'_>,
) -> Result<bool, EngineError> {
    #[cfg(feature = "failpoints")]
    crate::failpoint::hit("incr.icheck").map_err(EngineError::Io)?;
    let empty: BTreeMap<Pred, Relation> = BTreeMap::new();
    let state = State {
        edb: post,
        idb: &empty,
    };
    let cmps: Vec<_> = ic.body_cmps.iter().collect();
    // True if some body binding extending `theta` over `atoms` fails the
    // head.
    let violated_under = |atoms: &[&Atom], theta: &mut Subst, poll: &mut Poll<'_>| {
        // `false` stops the enumeration at the first violating binding.
        match_body(&state, atoms, &cmps, theta, poll, &mut |th| {
            post.head_holds(ic, th)
        })
        .map(|ran_to_end| !ran_to_end)
    };
    for (i, atom) in ic.body_atoms.iter().enumerate() {
        let Some(inserted) = delta.inserted.get(&atom.pred) else {
            continue;
        };
        let rest: Vec<_> = ic
            .body_atoms
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != i)
            .map(|(_, a)| a)
            .collect();
        for t in inserted {
            poll.tick()?;
            let mut theta = Subst::new();
            if !unify_row(atom, t, &mut theta) {
                continue;
            }
            if violated_under(&rest, &mut theta, poll)? {
                return Ok(false);
            }
        }
    }
    // `IcHead::Cmp` / `IcHead::None` read no relation: no deletion case.
    if let IcHead::Atom(h) = &ic.head {
        let body: Vec<_> = ic.body_atoms.iter().collect();
        let in_body = |t: &Term| body.iter().any(|a| a.args.contains(t));
        for t in delta.deleted.get(&h.pred).into_iter().flatten() {
            poll.tick()?;
            let mut lost = Subst::new();
            if !unify_row(h, t, &mut lost) {
                continue; // witnesses no instance of this head
            }
            let shared = lost.iter().filter(|&(x, _)| in_body(&Term::Var(x)));
            if violated_under(&body, &mut Subst::from_pairs(shared), poll)? {
                return Ok(false);
            }
        }
    }
    Ok(true)
}
