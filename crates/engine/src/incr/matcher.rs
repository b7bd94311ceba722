//! A small tuple-at-a-time binding matcher over the combined EDB + IDB
//! state, used by the incremental layer's DRed pass, the delta IC
//! monitor and `Database::violations`. Unlike the compiled fixpoint
//! plans, these enumerations are seeded from a *single known tuple* (a
//! deleted fact, an inserted fact), so a recursive matcher is both
//! simpler and fast enough: the seed binds most variables. A fully
//! bound subgoal is a membership test ([`Relation::contains`] — the
//! membership table holds exactly the live rows, and no index is
//! built for it); a partly bound one probes an indexed column subset
//! ([`Relation::probe_into`]) through the same dictionary indexes the
//! batch kernels borrow (key → dense code → row group), so maintenance
//! passes reuse — and keep warm — the fixpoint's own key views rather
//! than building private ones.

use crate::database::Database;
use crate::error::EngineError;
use crate::governor::{Governor, POLL_MASK};
use crate::relation::Relation;
use semrec_datalog::atom::{Atom, Pred};
use semrec_datalog::literal::Cmp;
use semrec_datalog::subst::Subst;
use semrec_datalog::term::{Term, Value};
use std::collections::BTreeMap;

/// The state a matcher enumerates over: the extensional database plus a
/// (possibly partially pruned) IDB materialization. IDB predicates
/// shadow EDB predicates of the same name — in practice the namespaces
/// are disjoint.
pub(crate) struct State<'a> {
    pub edb: &'a Database,
    pub idb: &'a BTreeMap<Pred, Relation>,
}

impl<'a> State<'a> {
    pub fn rel(&self, p: Pred) -> Option<&'a Relation> {
        self.idb.get(&p).or_else(|| self.edb.get(p))
    }
}

/// Extends `theta` so that `atom` matches `row`; `false` (with `theta`
/// possibly half-extended — callers pass a clone) on mismatch.
pub(crate) fn unify_row(atom: &Atom, row: &[Value], theta: &mut Subst) -> bool {
    if atom.args.len() != row.len() {
        return false;
    }
    for (t, v) in atom.args.iter().zip(row) {
        match t {
            Term::Const(c) => {
                if c != v {
                    return false;
                }
            }
            Term::Var(x) => match theta.get(*x) {
                Some(Term::Const(c)) if c == *v => {}
                Some(_) => return false,
                None => {
                    theta.insert(*x, Term::Const(*v));
                }
            },
        }
    }
    true
}

/// Budget/cancellation poll state shared across one maintenance pass:
/// the cooperative governance check fires every [`POLL_MASK`]+1 rows,
/// same cadence as the fixpoint scan loops.
pub(crate) struct Poll<'a> {
    gov: Option<&'a Governor>,
    rows: u64,
    /// Pooled probe-hit buffers, one per active recursion depth: the
    /// matcher probes with [`Relation::probe_into`] instead of the
    /// allocating [`Relation::probe`], so steady-state maintenance
    /// passes reuse these buffers instead of allocating per probe.
    bufs: Vec<Vec<u32>>,
}

impl<'a> Poll<'a> {
    pub fn new(gov: Option<&'a Governor>) -> Poll<'a> {
        Poll {
            gov,
            rows: 0,
            bufs: Vec::new(),
        }
    }

    /// A cleared hit buffer from the pool (or a fresh one).
    fn take_buf(&mut self) -> Vec<u32> {
        self.bufs.pop().unwrap_or_default()
    }

    /// Returns a hit buffer to the pool for reuse.
    fn put_buf(&mut self, buf: Vec<u32>) {
        self.bufs.push(buf);
    }

    #[inline]
    pub fn tick(&mut self) -> Result<(), EngineError> {
        self.rows += 1;
        if self.rows & POLL_MASK == 0 {
            if let Some(g) = self.gov {
                if g.should_abort() {
                    return Err(g.reason().unwrap_or(EngineError::Cancelled));
                }
            }
        }
        Ok(())
    }
}

/// Enumerates every extension of `theta` matching all of `atoms` over
/// `state` and satisfying all of `cmps`, invoking `f` per complete
/// binding. `f` returns `false` to stop early (existence checks);
/// `Ok(false)` reports such a stop to the caller.
pub(crate) fn match_body(
    state: &State<'_>,
    atoms: &[&Atom],
    cmps: &[&Cmp],
    theta: &mut Subst,
    poll: &mut Poll<'_>,
    f: &mut dyn FnMut(&Subst) -> bool,
) -> Result<bool, EngineError> {
    match_atoms(state, atoms, 0, cmps, theta, poll, f)
}

fn match_atoms(
    state: &State<'_>,
    atoms: &[&Atom],
    i: usize,
    cmps: &[&Cmp],
    theta: &mut Subst,
    poll: &mut Poll<'_>,
    f: &mut dyn FnMut(&Subst) -> bool,
) -> Result<bool, EngineError> {
    if i == atoms.len() {
        // Comparison literals filter the completed binding. A rule-safe
        // body grounds every comparison variable; an unground
        // comparison (malformed input) rejects the binding.
        for c in cmps {
            if theta.apply_cmp(c).eval_ground() != Some(true) {
                return Ok(true);
            }
        }
        return Ok(f(theta));
    }
    let atom = atoms[i];
    let Some(rel) = state.rel(atom.pred) else {
        return Ok(true); // empty relation: no matches down this branch
    };
    // Probe on the columns `theta` already grounds; fall back to a full
    // scan only when nothing is bound.
    let mut cols: Vec<usize> = Vec::with_capacity(atom.args.len());
    let mut key: Vec<Value> = Vec::with_capacity(atom.args.len());
    for (c, t) in atom.args.iter().enumerate() {
        let bound = match t {
            Term::Const(v) => Some(*v),
            Term::Var(x) => match theta.get(*x) {
                Some(Term::Const(v)) => Some(v),
                _ => None,
            },
        };
        if let Some(v) = bound {
            cols.push(c);
            key.push(v);
        }
    }
    if cols.len() == atom.args.len() {
        poll.tick()?;
        if rel.contains(&key) {
            return match_atoms(state, atoms, i + 1, cmps, theta, poll, f);
        }
    } else if cols.is_empty() {
        for (_, row) in rel.iter_range(rel.all_rows()) {
            poll.tick()?;
            let mut snap = theta.clone();
            if unify_row(atom, row, &mut snap)
                && !match_atoms(state, atoms, i + 1, cmps, &mut snap, poll, f)?
            {
                return Ok(false);
            }
        }
    } else {
        let mut hits = poll.take_buf();
        rel.probe_into(&cols, &key, rel.all_rows(), &mut hits);
        let mut res = Ok(true);
        for &r in &hits {
            if let Err(e) = poll.tick() {
                res = Err(e);
                break;
            }
            let mut snap = theta.clone();
            if unify_row(atom, rel.row(r), &mut snap) {
                match match_atoms(state, atoms, i + 1, cmps, &mut snap, poll, f) {
                    Ok(true) => {}
                    stop_or_err => {
                        res = stop_or_err;
                        break;
                    }
                }
            }
        }
        poll.put_buf(hits);
        return res;
    }
    Ok(true)
}
