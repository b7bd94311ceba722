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
//!   a previously satisfied body binding. The constraint is re-checked
//!   in full — still delta-driven, because the full check only runs
//!   when that specific predicate shrank.
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
use semrec_datalog::atom::Pred;
use semrec_datalog::constraint::{Constraint, IcHead};
use semrec_datalog::subst::Subst;
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
            let mut violated = false;
            match_body(&state, &rest, &cmps, &mut theta, poll, &mut |th| {
                if post.head_holds(ic, th) {
                    true // keep searching for a violating binding
                } else {
                    violated = true;
                    false
                }
            })?;
            if violated {
                return Ok(false);
            }
        }
    }
    if let IcHead::Atom(h) = &ic.head {
        if delta.deleted.contains_key(&h.pred) {
            return Ok(post.satisfies(ic));
        }
    }
    Ok(true)
}
