//! DRed-style deletion: over-delete every derivation that *might* have
//! depended on a deleted fact, then re-derive the over-deleted tuples
//! that still have alternative support.
//!
//! The classic two phases map onto the flat-storage engine like this:
//!
//! 1. **Over-delete** ([`over_delete`]) — a worklist pass seeded by the
//!    transaction's effective EDB deletes, run *before* the transaction
//!    touches anything. For each deleted tuple and each rule body
//!    position it can occupy, the remaining body literals are matched
//!    over the pre-transaction state (EDB **and** materialization — a
//!    derivation that used two facts the transaction deletes is found
//!    from either only while the other is still there), and every
//!    derivable head tuple's row id is collected as doomed and queued
//!    in turn. Nothing is mutated, so a failure here has nothing to
//!    undo. Matching the pre-tx state is what makes this an
//!    over-approximation: a derivation may have other support that
//!    survives the tx.
//! 2. **Re-derive** ([`rederive`]) — once the caller has applied the
//!    transaction and tombstoned the doomed rows in place, one pass
//!    over them checks one-step derivability against the *remaining*
//!    state. Survivors are re-appended past the relations' watermarks,
//!    where they form the IDB delta of the subsequent
//!    insert-propagation run — which transitively re-derives anything
//!    the survivors (or the tx's inserted facts) support, including
//!    further over-deleted tuples, through the ordinary semi-naive
//!    delta rules. (A re-insert of a tombstoned row appends a fresh
//!    live row; set semantics over live rows hold throughout.)
//!
//! Negation and builtins are rejected upstream ([`super::Materialized`]
//! falls back to batch re-evaluation), so every body literal here is a
//! positive atom or a comparison.

use super::matcher::{match_body, unify_row, Poll, State};
use crate::database::Database;
use crate::error::EngineError;
use crate::fxhash::FxHashSet;
use crate::relation::{Relation, Tuple};
use semrec_datalog::atom::{Atom, Pred};
use semrec_datalog::literal::{Cmp, Literal};
use semrec_datalog::program::Program;
use semrec_datalog::subst::Subst;
use std::collections::{BTreeMap, VecDeque};

/// Splits a rule body into its positive atoms (with body positions) and
/// comparison literals.
fn body_parts(body: &[Literal]) -> (Vec<(usize, &Atom)>, Vec<&Cmp>) {
    let mut atoms = Vec::new();
    let mut cmps = Vec::new();
    for (i, l) in body.iter().enumerate() {
        match l {
            Literal::Atom(a) => atoms.push((i, a)),
            Literal::Cmp(c) => cmps.push(c),
            Literal::Neg(_) => unreachable!("negation is rejected before the DRed pass"),
        }
    }
    (atoms, cmps)
}

/// Grounds `head` under a complete body binding.
fn ground_head(head: &Atom, theta: &Subst) -> Tuple {
    theta
        .apply_atom(head)
        .args
        .iter()
        .map(|t| {
            t.as_const()
                .expect("safe rule left a head variable unbound")
        })
        .collect()
}

/// Phase 1: the ids of the IDB rows some derivation through a deleted
/// EDB tuple reaches, per predicate, in discovery order. `edb` and `idb`
/// are the untouched pre-transaction state; queued deletes of tuples
/// that are not in `edb` are no-ops and seed nothing.
pub(crate) fn over_delete(
    edb: &Database,
    idb: &BTreeMap<Pred, Relation>,
    deletes: &BTreeMap<Pred, Vec<Tuple>>,
    program: &Program,
    poll: &mut Poll<'_>,
) -> Result<BTreeMap<Pred, Vec<u32>>, EngineError> {
    let state = State { edb, idb };
    // The worklist starts from the EDB deletes; IDB tuples join it as
    // their derivations are invalidated.
    let mut queue: VecDeque<(Pred, Tuple)> = deletes
        .iter()
        .flat_map(|(&p, ts)| ts.iter().map(move |t| (p, t)))
        .filter(|&(p, t)| edb.get(p).is_some_and(|r| r.contains(t)))
        .map(|(p, t)| (p, t.clone()))
        .collect();
    let mut doomed: BTreeMap<Pred, Vec<u32>> = BTreeMap::new();
    let mut seen: FxHashSet<(Pred, u32)> = FxHashSet::default();
    while let Some((p, t)) = queue.pop_front() {
        poll.tick()?;
        for rule in &program.rules {
            let (atoms, cmps) = body_parts(&rule.body);
            for &(li, atom) in &atoms {
                if atom.pred != p {
                    continue;
                }
                let mut theta = Subst::new();
                if !unify_row(atom, &t, &mut theta) {
                    continue;
                }
                let rest: Vec<&Atom> = atoms
                    .iter()
                    .filter(|&&(lj, _)| lj != li)
                    .map(|&(_, a)| a)
                    .collect();
                let (head, hp) = (&rule.head, rule.head.pred);
                let mut hit = Vec::new();
                match_body(&state, &rest, &cmps, &mut theta, poll, &mut |th| {
                    hit.push(ground_head(head, th));
                    true
                })?;
                for h in hit {
                    // Each materialized tuple is doomed and queued at
                    // most once.
                    let row = idb.get(&hp).and_then(|r| r.find(&h));
                    if let Some(row) = row.filter(|&row| seen.insert((hp, row))) {
                        doomed.entry(hp).or_default().push(row);
                        queue.push_back((hp, h));
                    }
                }
            }
        }
    }
    Ok(doomed)
}

/// Phase 2: re-appends every doomed tuple that still has one-step
/// support, returning how many. `edb` is the post-transaction database
/// (its inserts included — extra support can only make re-derivation
/// more complete) and the `doomed` rows of `idb` are already
/// tombstoned. The derivability checks all read that pruned state
/// (appends are deferred): tuples whose support returns only
/// transitively are re-derived by the propagation fixpoint instead.
pub(crate) fn rederive(
    edb: &Database,
    idb: &mut BTreeMap<Pred, Relation>,
    doomed: &BTreeMap<Pred, Vec<u32>>,
    program: &Program,
    poll: &mut Poll<'_>,
) -> Result<u64, EngineError> {
    let mut rederived: Vec<(Pred, u32)> = Vec::new();
    let state = State { edb, idb };
    for (&p, rows) in doomed {
        let rel = &idb[&p];
        'rows: for &row in rows {
            poll.tick()?;
            for rule in program.rules.iter().filter(|r| r.head.pred == p) {
                let mut theta = Subst::new();
                // A dead row keeps its bytes.
                if !unify_row(&rule.head, rel.row(row), &mut theta) {
                    continue;
                }
                let (atoms, cmps) = body_parts(&rule.body);
                let rest: Vec<&Atom> = atoms.iter().map(|&(_, a)| a).collect();
                // `false`: existence established; stop enumerating.
                if !match_body(&state, &rest, &cmps, &mut theta, poll, &mut |_| false)? {
                    rederived.push((p, row));
                    continue 'rows;
                }
            }
        }
    }
    for &(p, row) in &rederived {
        let rel = idb.get_mut(&p).expect("doomed rows name idb predicates");
        let t = rel.row(row).to_vec();
        let inserted = rel.insert(t);
        debug_assert!(inserted, "re-derived tuple was still live");
    }
    Ok(rederived.len() as u64)
}
