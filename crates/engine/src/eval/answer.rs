//! Goal answering: the rows of one relation that answer a goal atom.
//!
//! One contract for every caller: an answer is the live rows matching
//! the goal's constants and repeated-variable equalities
//! ([`goal_matches`]), in physical-row (insertion) order. The serving
//! daemon's snapshots route bound arguments through the dictionary index
//! ([`answer_goal`], [`answer_goal_rows_polled`]); one-shot callers scan
//! ([`scan_goal`]).

use crate::relation::{Relation, Snapshot, Tuple};
use semrec_datalog::atom::Atom;
use semrec_datalog::term::Term;
use semrec_datalog::word::{self, Word};

/// True if `row` matches the constants and repeated variables of `goal`.
///
/// Allocation-free: instead of building a binding map per row, a repeated
/// variable is checked against the row value at its *first* occurrence
/// (equality with the first occurrence is transitively equality with all).
/// Goal arities are tiny, so the quadratic scan over earlier argument
/// positions is cheaper than any map.
pub fn goal_matches(goal: &Atom, row: &[Word]) -> bool {
    if goal.args.len() != row.len() {
        return false;
    }
    for (i, t) in goal.args.iter().enumerate() {
        match t {
            Term::Const(c) => {
                if Word::new(*c) != row[i] {
                    return false;
                }
            }
            Term::Var(x) => {
                let first = goal.args[..i]
                    .iter()
                    .position(|u| matches!(u, Term::Var(y) if y == x));
                if let Some(j) = first {
                    if row[j] != row[i] {
                        return false;
                    }
                }
            }
        }
    }
    true
}

/// The binding pattern of a query goal, classified for index routing:
/// bound (constant) argument positions with their key values, plus
/// whether residual per-row checks remain after an index probe on the
/// bound columns (repeated variables impose equalities the dictionary
/// index cannot express).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct GoalBindings {
    /// Argument positions carrying a constant, ascending.
    pub cols: Vec<usize>,
    /// The constants at those positions, parallel to `cols`, as stored.
    pub key: Vec<Word>,
    /// True when some variable occurs more than once: probe hits must
    /// still be verified with [`goal_matches`].
    pub residual: bool,
}

impl GoalBindings {
    /// True when no argument is bound — only a scan can answer.
    pub fn all_free(&self) -> bool {
        self.cols.is_empty()
    }
}

/// Classifies `goal`'s arguments into the bound-column key an index
/// probe can route and the residual equalities it cannot.
pub fn goal_bindings(goal: &Atom) -> GoalBindings {
    let mut b = GoalBindings::default();
    for (i, t) in goal.args.iter().enumerate() {
        match t {
            Term::Const(c) => {
                b.cols.push(i);
                b.key.push(Word::new(*c));
            }
            Term::Var(x) => {
                if goal.args[..i]
                    .iter()
                    .any(|u| matches!(u, Term::Var(y) if y == x))
                {
                    b.residual = true;
                }
            }
        }
    }
    b
}

/// How often [`for_each_answer_row`] invokes its poll callback while
/// walking rows (scan fallback and large probe groups alike).
const ANSWER_POLL_EVERY: usize = 1024;

/// Walks the rows of `snap` that answer `goal`, handing each physical
/// row id to `emit`, routing bound arguments through the dictionary
/// index instead of scanning:
///
/// * **some arguments bound** — one [`Snapshot::probe_into`] on the
///   bound columns (building or extending the lineage's index on first
///   use; later queries pay one dictionary lookup plus the matching row
///   group), residual repeated-variable equalities verified per hit;
/// * **all arguments bound** — [`Snapshot::find`]: an index probe plus a
///   row comparison (a snapshot carries no membership table);
/// * **all free** — the scan fallback, filtering only when repeated
///   variables demand it.
///
/// Rows are emitted in physical-row (insertion) order, exactly like the
/// scan the probe replaces. `poll` runs every [`ANSWER_POLL_EVERY`]
/// examined rows with the count of rows walked so far; returning an
/// error aborts the answer (the serving daemon maps this onto its
/// cancellation and deadline checks).
fn for_each_answer_row<E>(
    snap: &Snapshot,
    goal: &Atom,
    mut poll: impl FnMut(usize) -> Result<(), E>,
    mut emit: impl FnMut(u32),
) -> Result<(), E> {
    if goal.args.len() != snap.arity() {
        return Ok(());
    }
    let b = goal_bindings(goal);
    // All bound: the goal names one exact tuple (no variables, so no
    // residual equalities are possible).
    if !b.cols.is_empty() && b.cols.len() == snap.arity() {
        if let Some(r) = snap.find(&b.key) {
            emit(r);
        }
        return Ok(());
    }
    if b.all_free() {
        // Scan fallback: nothing for an index to grab.
        for (i, (r, row)) in snap.iter().enumerate() {
            if i % ANSWER_POLL_EVERY == 0 {
                poll(i)?;
            }
            if !b.residual || goal_matches(goal, row) {
                emit(r);
            }
        }
        return Ok(());
    }
    // Bound columns: one dictionary probe; group rows already match the
    // key, so only watermark/tombstone filtering (done by probe_into)
    // and residual equalities remain.
    let mut rows = Vec::new();
    snap.probe_into(&b.cols, &b.key, &mut rows);
    for (i, &r) in rows.iter().enumerate() {
        if i % ANSWER_POLL_EVERY == 0 {
            poll(i)?;
        }
        if !b.residual || goal_matches(goal, snap.row(r)) {
            emit(r);
        }
    }
    Ok(())
}

/// [`answer_goal`] without the copies and interruptible: the answer as
/// physical row ids into `snap`, in the same order, under the `poll`
/// contract of [`for_each_answer_row`]. An id is only meaningful
/// against the relation state it was read from — the serving daemon
/// keeps ids beside the `Arc<Snapshot>` they index.
pub fn answer_goal_rows_polled<E>(
    snap: &Snapshot,
    goal: &Atom,
    poll: impl FnMut(usize) -> Result<(), E>,
) -> Result<Vec<u32>, E> {
    let mut out = Vec::new();
    for_each_answer_row(snap, goal, poll, |r| out.push(r))?;
    Ok(out)
}

/// Answers a goal atom against one relation state as materialized
/// tuples, one uninterrupted pass over the rows [`for_each_answer_row`]
/// selects (see there for the routing and the order).
pub fn answer_goal(snap: &Snapshot, goal: &Atom) -> Vec<Tuple> {
    let mut out = Vec::new();
    let never = |_| Ok::<(), std::convert::Infallible>(());
    match for_each_answer_row(snap, goal, never, |r| out.push(word::decode(snap.row(r)))) {
        Ok(()) => out,
        Err(e) => match e {},
    }
}

/// Answers a goal against a relation read once, as one-shot callers do
/// ([`EvalResult::answers`](super::EvalResult::answers),
/// `MaintainedQuery::answers`, magic-sets answer extraction): every live
/// row filtered by [`goal_matches`], in row order — the rows and the
/// order [`answer_goal`] selects. A probe would first build a dictionary
/// index over the whole relation for a single lookup and drop it; the
/// serving daemon's snapshots keep the indexed route because their index
/// lineage outlives the call.
pub fn scan_goal(rel: &Relation, goal: &Atom) -> Vec<Tuple> {
    rel.iter()
        .filter(|row| goal_matches(goal, row))
        .map(word::decode)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use semrec_datalog::parser::parse_atom;

    #[test]
    fn goal_matches_is_allocation_free_semantics() {
        let goal = parse_atom("t(X, X, 3)").unwrap();
        assert!(goal_matches(
            &goal,
            &[Word::int(7), Word::int(7), Word::int(3)]
        ));
        assert!(!goal_matches(
            &goal,
            &[Word::int(7), Word::int(8), Word::int(3)]
        ));
        assert!(!goal_matches(
            &goal,
            &[Word::int(7), Word::int(7), Word::int(4)]
        ));
        // Arity mismatch is a non-match, not a panic.
        assert!(!goal_matches(&goal, &[Word::int(7)]));
    }
}
