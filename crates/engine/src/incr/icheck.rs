//! Integrity constraints as denial rules on the rule executor.
//!
//! A constraint `B -> H` is violated by every binding of its body
//! variables `V̄` under which `B` holds and `H` does not, so it compiles
//! once into the rule `viol$(V̄) :- B, not H` and the executor
//! enumerates its violations like any other rule. The head translates
//! as:
//!
//! - an atom `H` becomes the negated subgoal; a head variable the body
//!   leaves free is renamed to a generated name (with a `$`, which no
//!   `.dl` text can spell) occurring nowhere else, so it is existential
//!   inside the negation and the anti-probe keys on the bound columns
//!   only;
//! - a comparison becomes its negation, an ordinary filter;
//! - an absent head (a denial) adds nothing, and so does a head that can
//!   never hold: an atom whose predicate the body uses at another arity,
//!   or a comparison over a variable the body leaves free.
//!
//! A body no binding can match — one predicate at two arities, here or
//! against the database, or a comparison over a variable no atom binds —
//! makes the constraint one that is never violated.
//!
//! The full plan answers [`Database::violations`] and
//! [`Database::satisfies`]. For a constraint that held before a
//! transaction, only bindings the delta takes part in can newly violate
//! it, and two seeded runs find exactly those:
//!
//! - An **insert** into a body predicate: the rule's delta variants,
//!   seeded at [`TxDelta::edb_marks`] exactly as semi-naive propagation
//!   is — each joins the inserted rows of one body atom with the rest of
//!   the post-transaction EDB.
//! - A **delete** from the head predicate can strip the witness of a
//!   binding whose head instance the deleted tuple matched. The second
//!   rule `viol$(V̄) :- hdel$(H'), B, not H` is seeded by a preloaded
//!   relation of the deleted head tuples; `H'` is `H` with its
//!   existential variables renamed apart from the negation's, so they
//!   stay free there — another witness may remain.
//!
//! Deletes from body predicates and inserts into the head predicate can
//! only *remove* violations. Constraints already violated are outside
//! the delta check: the maintenance layer re-runs the full plan until
//! they hold again.

use super::{governed, TxDelta};
use crate::builtins::BuiltinOp;
use crate::database::Database;
use crate::error::EngineError;
use crate::eval::{EvalResult, Evaluator, Prepared};
use crate::governor::{Budget, CancelToken};
use crate::relation::{Relation, Tuple};
use crate::stats::Stats;
use semrec_datalog::atom::{Atom, Pred};
use semrec_datalog::constraint::{Constraint, IcHead};
use semrec_datalog::literal::Literal;
use semrec_datalog::program::Program;
use semrec_datalog::rule::Rule;
use semrec_datalog::subst::Subst;
use semrec_datalog::symbol::Symbol;
use semrec_datalog::term::Term;
use std::collections::BTreeMap;

/// The violations' predicate (`$`: no `.dl` text can spell it).
const VIOL: &str = "viol$";
/// The deleted head tuples' predicate.
const HDEL: &str = "hdel$";

/// One integrity constraint compiled to denial rules, once.
pub struct IcCheck {
    /// The body atoms' variables in first-occurrence order: the columns
    /// of a violation.
    vars: Vec<Symbol>,
    /// The body predicates: what an insert must touch to matter.
    body: Vec<Pred>,
    /// The head atom's predicate and arity, when the head is an atom that
    /// can hold.
    head: Option<(Pred, usize)>,
    /// The denial rules; `None` when no binding of the body can ever
    /// match, so the constraint cannot be violated.
    plans: Option<Prepared>,
}

impl IcCheck {
    /// Compiles `ic`; `db` informs join order and which body atoms can
    /// match its relations at all.
    pub fn new(db: &Database, ic: &Constraint) -> IcCheck {
        let mut vars: Vec<Symbol> = Vec::new();
        for v in ic.body_atoms.iter().flat_map(Atom::vars) {
            if !vars.contains(&v) {
                vars.push(v);
            }
        }
        let bound = |v: Symbol| vars.contains(&v);
        let mut arities: BTreeMap<Pred, usize> = BTreeMap::new();
        let mut matchable = ic.body_cmps.iter().all(|c| c.vars().all(bound));
        for a in &ic.body_atoms {
            let n = *arities.entry(a.pred).or_insert(a.arity());
            let fits = |r: &Relation| r.arity() == n;
            matchable &= n == a.arity()
                && db.get(a.pred).is_none_or(fits)
                && BuiltinOp::of(a.pred).is_none();
        }
        let atoms = ic.body_atoms.iter().cloned().map(Literal::Atom);
        let mut body: Vec<Literal> = atoms
            .chain(ic.body_cmps.iter().map(|&c| Literal::Cmp(c)))
            .collect();
        // `h` with its head-only variables renamed to generated names
        // ending in `$tag`.
        let apart = |h: &Atom, tag: &str| {
            let rename = |t: Term| match t {
                Term::Var(v) if !bound(v) => Term::Var(Symbol::intern(&format!("{v}${tag}"))),
                t => t,
            };
            h.args.iter().map(|&t| rename(t)).collect::<Vec<Term>>()
        };
        let mut head = None;
        match &ic.head {
            IcHead::Cmp(c) if c.vars().all(bound) => body.push(Literal::Cmp(c.negate())),
            IcHead::Atom(h) if arities.get(&h.pred).is_none_or(|&n| n == h.arity()) => {
                body.push(Literal::Neg(Atom::new(h.pred, apart(h, ""))));
                head = Some(h);
            }
            // No head, or one that never holds: every binding violates.
            _ => {}
        }
        let viol = Atom::new(VIOL, vars.iter().map(|&v| Term::Var(v)).collect());
        let mut rules = vec![Rule::new(viol.clone(), body.clone())];
        if let Some(h) = head {
            let seed = Atom::new(HDEL, apart(h, "d"));
            rules.push(Rule::new(
                viol,
                [Literal::Atom(seed)].into_iter().chain(body).collect(),
            ));
        }
        let program = Program::new(rules);
        // Every head translation above compiles, and so does a matchable
        // body: its variables are bound by its atoms, its predicates have
        // one arity each.
        let plans = matchable.then(|| {
            Prepared::compile(db, &program, &[Pred::new(HDEL)], &BTreeMap::new())
                .expect("the denial rules of a matchable constraint compile")
        });
        IcCheck {
            vars,
            body: ic.body_atoms.iter().map(|a| a.pred).collect(),
            head: head.map(|h| (h.pred, h.arity())),
            plans,
        }
    }

    /// Every violating binding of the body variables in `db`, sorted by
    /// the variables' values in first-occurrence order.
    pub fn violations(&self, db: &Database) -> Vec<Subst> {
        let run = self.run(db, None, &Budget::unlimited(), None);
        let res = run.expect("an ungoverned run cannot be interrupted");
        let rows = res.as_ref().and_then(|r| r.relation(VIOL));
        let binding = |row: Tuple| self.vars.iter().zip(row).map(|(&v, c)| (v, Term::Const(c)));
        let rows = rows.map(Relation::sorted_tuples).unwrap_or_default();
        rows.into_iter().map(|row| binding(row).collect()).collect()
    }

    /// The denial rules, unless no binding of the body can ever match.
    pub fn program(&self) -> Option<&Program> {
        self.plans.as_ref().map(Prepared::program)
    }

    /// Whether the constraint holds in `db`, under the deadline and cancel
    /// token of `budget` and `cancel`. Without `delta`, by the full plan.
    /// With it, for a constraint known to hold before the transaction
    /// `delta` took the database to `db`: by the delta variants, examining
    /// only bindings the delta can have created (hits the `incr.icheck`
    /// failpoint).
    pub fn holds(
        &self,
        db: &Database,
        delta: Option<&TxDelta>,
        budget: &Budget,
        cancel: Option<&CancelToken>,
    ) -> Result<(bool, Stats), EngineError> {
        let res = self.run(db, delta, budget, cancel)?;
        let clean = |r: &EvalResult| r.relation(VIOL).is_none_or(Relation::is_empty);
        Ok(res.map_or((true, Stats::default()), |r| (clean(&r), r.stats)))
    }

    /// One round of the full plans, or of the delta variants seeded by
    /// `delta`; `None` when nothing the run could find is possible.
    fn run(
        &self,
        db: &Database,
        delta: Option<&TxDelta>,
        budget: &Budget,
        cancel: Option<&CancelToken>,
    ) -> Result<Option<EvalResult>, EngineError> {
        let seeds = match delta {
            None => None,
            Some(delta) => {
                #[cfg(feature = "failpoints")]
                crate::failpoint::hit("incr.icheck").map_err(EngineError::Io)?;
                let inserted = self.body.iter().any(|p| delta.edb_marks.contains_key(p));
                let deleted = self.head.and_then(|(p, n)| {
                    let gone = delta.deleted.get(&p)?;
                    let mut rel = Relation::new(n);
                    for t in gone.iter().filter(|t| t.len() == n) {
                        rel.insert(t);
                    }
                    Some((Pred::new(HDEL), rel))
                });
                if !inserted && deleted.is_none() {
                    return Ok(None);
                }
                Some((deleted, delta.edb_marks.clone()))
            }
        };
        let Some(plans) = &self.plans else {
            return Ok(None);
        };
        let ev = match seeds {
            None => Evaluator::from_prepared_batch(db, plans, None),
            Some((deleted, marks)) => {
                let mut ev = Evaluator::from_prepared(db, plans, deleted, marks);
                ev.set_idb_delta_start(Pred::new(HDEL), 0);
                ev
            }
        };
        let mut ev = governed(ev, budget, cancel);
        ev.step()?;
        Ok(Some(ev.finish()))
    }
}
