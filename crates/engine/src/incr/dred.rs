//! DRed deletion (Gupta, Mumick & Subrahmanian, SIGMOD 1993) as rules on
//! the one executor: over-delete every derivation that *might* have
//! depended on a deleted fact, then re-derive the over-deleted tuples
//! that still have support. Both phases are programs derived from the
//! maintained one once, prepared like the propagation plans, and run
//! with [`Evaluator::from_prepared`]:
//!
//! 1. **Over-delete** — one delta rule per rule `h :- B1, …, Bn` and
//!    body atom `Bi`: `del$h :- B1, …, del$Bi, …, Bn`. Its `del$p` seeds
//!    for EDB predicates are preloaded relations of the transaction's
//!    effective deletes; every other subgoal reads the pre-transaction
//!    EDB and materialization (a derivation that used two facts the
//!    transaction deletes is found from either only while the other is
//!    still there). Semi-naive evaluation to fixpoint then is exactly
//!    the over-deletion closure: each round joins the new `del$` rows
//!    with everything else. Nothing is mutated, so a failure here has
//!    nothing to undo. `$` is a character `.dl` text cannot spell, so
//!    the auxiliary predicates never meet a user's.
//! 2. **Re-derive** — `re$h :- del$h, B` per rule, one productive round
//!    (no body reads `re$h`), once the caller has applied the
//!    transaction and tombstoned the doomed rows:
//!    seeded by the `del$h` rows, it reads the post-transaction EDB and
//!    the pruned materialization, and the executor's existential
//!    short-circuit stops at the first support. The survivors are
//!    re-appended past the relations' watermarks, where they form the
//!    IDB delta of the insert-propagation run — which transitively
//!    re-derives anything they (or the transaction's inserts) support.
//!
//! Both runs move the materialization in and always hand it back. They
//! answer to the deadline and cancel token only: a chain's
//! over-deletion takes a round per link, and the row, byte and
//! iteration caps stay with the propagation run.
//!
//! Negation and builtins are rejected upstream ([`super::Materialized`]
//! falls back to batch re-evaluation), so every body literal here is a
//! positive atom or a comparison.

use super::governed;
use crate::database::Database;
use crate::error::EngineError;
use crate::eval::{Evaluator, Prepared};
use crate::fxhash::FxHashMap;
use crate::governor::{Budget, CancelToken};
use crate::relation::{Relation, Tuple};
use crate::stats::Stats;
use semrec_datalog::atom::{Atom, Pred};
use semrec_datalog::literal::Literal;
use semrec_datalog::program::Program;
use semrec_datalog::rule::Rule;
use std::collections::{BTreeMap, BTreeSet};

/// The over-deletion twin of `p`.
fn del(p: Pred) -> Pred {
    Pred::new(&format!("del${p}"))
}

/// The re-derivation head for `p`.
fn re(p: Pred) -> Pred {
    Pred::new(&format!("re${p}"))
}

/// The DRed programs of one maintained program, prepared once.
pub(crate) struct Dred {
    /// `del$h :- B1, …, del$Bi, …, Bn` per rule and body atom.
    over: Prepared,
    /// `re$h :- del$h, B` per rule.
    re: Prepared,
    /// The maintained program's IDB predicates.
    heads: BTreeSet<Pred>,
    /// The EDB predicates some body reads: what a deletion can seed.
    edb: BTreeSet<Pred>,
}

impl Dred {
    /// Derives and prepares both programs of `program` (positive, no
    /// builtins); `db` only informs join order, as in
    /// [`Prepared::compile`].
    pub(crate) fn compile(db: &Database, program: &Program) -> Result<Dred, EngineError> {
        let heads = program.idb_preds();
        let edb = program.edb_preds();
        let with_pred = |a: &Atom, p: Pred| Atom::new(p, a.args.clone());
        let (mut over, mut again) = (Vec::new(), Vec::new());
        for r in &program.rules {
            for (i, l) in r.body.iter().enumerate() {
                if let Literal::Atom(a) = l {
                    let mut body = r.body.clone();
                    body[i] = Literal::Atom(with_pred(a, del(a.pred)));
                    over.push(Rule::new(with_pred(&r.head, del(r.head.pred)), body));
                }
            }
            let seed = Literal::Atom(with_pred(&r.head, del(r.head.pred)));
            let body = std::iter::once(seed).chain(r.body.iter().cloned());
            again.push(Rule::new(
                with_pred(&r.head, re(r.head.pred)),
                body.collect(),
            ));
        }
        let over_seeds: Vec<Pred> = heads
            .iter()
            .copied()
            .chain(edb.iter().map(|&p| del(p)))
            .collect();
        let re_seeds: Vec<Pred> = heads.iter().flat_map(|&h| [h, del(h)]).collect();
        Ok(Dred {
            over: Prepared::compile(db, &Program::new(over), &over_seeds)?,
            re: Prepared::compile(db, &Program::new(again), &re_seeds)?,
            heads,
            edb,
        })
    }

    /// Phase 1: the tuples each IDB predicate loses when `deletes` leave
    /// `db`, both untouched pre-transaction state, as one relation per
    /// predicate that lost any. `idb` moves into the run and always
    /// comes back; queued deletes of tuples not in `db` seed nothing.
    pub(crate) fn over_delete(
        &self,
        db: &Database,
        idb: &mut BTreeMap<Pred, Relation>,
        deletes: &BTreeMap<Pred, Vec<Tuple>>,
        budget: &Budget,
        cancel: Option<&CancelToken>,
    ) -> Result<(BTreeMap<Pred, Relation>, Stats), EngineError> {
        let mut seeds = Vec::new();
        for (&p, ts) in deletes.iter().filter(|(p, _)| self.edb.contains(p)) {
            let Some(rel) = db.get(p) else { continue };
            let mut gone = Relation::new(rel.arity());
            for t in ts.iter().filter(|t| rel.contains(t)) {
                gone.insert(t);
            }
            if !gone.is_empty() {
                seeds.push((del(p), gone));
            }
        }
        if seeds.is_empty() {
            return Ok(Default::default());
        }
        let (mut out, stats) = self.run(&self.over, db, idb, seeds, budget, cancel)?;
        let lost = self
            .heads
            .iter()
            .filter_map(|&h| Some((h, out.remove(&del(h))?)));
        Ok((lost.filter(|(_, r)| !r.is_empty()).collect(), stats))
    }

    /// Phase 2: re-appends to `idb` every `doomed` tuple (per IDB
    /// predicate, as [`Dred::over_delete`] found them) that still has
    /// one-step support, returning how many. `db` is the
    /// post-transaction database and the doomed rows of `idb` are
    /// tombstoned; tuples whose support returns only transitively are
    /// re-derived by the propagation run instead.
    pub(crate) fn rederive(
        &self,
        db: &Database,
        idb: &mut BTreeMap<Pred, Relation>,
        doomed: BTreeMap<Pred, Relation>,
        budget: &Budget,
        cancel: Option<&CancelToken>,
    ) -> Result<(u64, Stats), EngineError> {
        let seeds = doomed.into_iter().map(|(h, rel)| (del(h), rel)).collect();
        let (mut out, stats) = self.run(&self.re, db, idb, seeds, budget, cancel)?;
        let mut n = 0;
        for &h in &self.heads {
            let Some(rows) = out.remove(&re(h)) else {
                continue;
            };
            let rel = idb.get_mut(&h).expect("the run keeps every relation");
            for t in rows.iter() {
                let inserted = rel.insert_row(t);
                debug_assert!(inserted, "re-derived tuple was still live");
            }
            n += rows.len() as u64;
        }
        Ok((n, stats))
    }

    /// Runs `plans` to fixpoint over `db` with the materialization and
    /// `seeds` preloaded, every seed row the first round's delta. Hands
    /// the materialization back whatever happens and returns the rest of
    /// the run's relations.
    fn run(
        &self,
        plans: &Prepared,
        db: &Database,
        idb: &mut BTreeMap<Pred, Relation>,
        seeds: Vec<(Pred, Relation)>,
        budget: &Budget,
        cancel: Option<&CancelToken>,
    ) -> Result<(BTreeMap<Pred, Relation>, Stats), EngineError> {
        let starts: Vec<Pred> = seeds.iter().map(|(p, _)| *p).collect();
        let rels = std::mem::take(idb).into_iter().chain(seeds);
        let mut ev = Evaluator::from_prepared(db, plans, rels, FxHashMap::default());
        for p in starts {
            ev.set_idb_delta_start(p, 0);
        }
        let mut ev = governed(ev, budget, cancel);
        let done = ev.run();
        let mut res = ev.finish();
        for &h in &self.heads {
            idb.insert(h, res.idb.remove(&h).expect("the run keeps every relation"));
        }
        done.map(|()| (res.idb, res.stats))
    }
}
