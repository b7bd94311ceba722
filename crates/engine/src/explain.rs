//! Post-hoc derivation explanation: reconstructs a proof tree for a
//! derived fact against the materialized IDB, with zero evaluation-time
//! overhead.
//!
//! Given the fixpoint result, every derived fact has at least one acyclic
//! derivation; [`explain`] finds one top-down, refusing to use a fact
//! inside its own support (the `visiting` set). Each step of the search
//! runs on the rule executor: rule `i`, `h(t̄) :- B`, becomes the
//! head-bound rule `why$i(V̄) :- goal$h(t̄), B` over the rule's variables
//! `V̄`, compiled once per call in batch mode (each step is one batch
//! run), so seeding `goal$h` with the one fact to explain enumerates
//! exactly the body instances that derive it, over the EDB and the
//! materialization. This powers the CLI's `why` command and complements
//! `semrec-iqa`'s proof-tree reasoning with *instance-level*
//! explanations.

use crate::builtins::BuiltinOp;
use crate::database::Database;
use crate::eval::{Evaluator, Prepared};
use crate::relation::{Relation, Tuple};
use semrec_datalog::atom::{Atom, Pred};
use semrec_datalog::literal::Literal;
use semrec_datalog::program::Program;
use semrec_datalog::rule::Rule;
use semrec_datalog::subst::Subst;
use semrec_datalog::symbol::Symbol;
use semrec_datalog::term::{Term, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A derivation tree for one fact.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Derivation {
    /// The derived (or base) fact.
    pub pred: Pred,
    /// Its tuple.
    pub tuple: Tuple,
    /// The rule index used (None for EDB facts).
    pub rule: Option<usize>,
    /// Sub-derivations for the rule's database premises, in body order.
    pub children: Vec<Derivation>,
}

impl Derivation {
    /// Number of rule applications in the tree.
    pub fn size(&self) -> usize {
        usize::from(self.rule.is_some()) + self.children.iter().map(Derivation::size).sum::<usize>()
    }

    fn fmt_indent(&self, f: &mut fmt::Formatter<'_>, depth: usize) -> fmt::Result {
        let pad = "  ".repeat(depth);
        let cells: Vec<String> = self.tuple.iter().map(ToString::to_string).collect();
        match self.rule {
            Some(r) => writeln!(f, "{pad}{}({})   [rule {r}]", self.pred, cells.join(", "))?,
            None => writeln!(f, "{pad}{}({})   [fact]", self.pred, cells.join(", "))?,
        }
        for c in &self.children {
            c.fmt_indent(f, depth + 1)?;
        }
        Ok(())
    }
}

impl fmt::Display for Derivation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_indent(f, 0)
    }
}

/// Explains how `(pred, tuple)` was derived, against the EDB `db` and the
/// materialized IDB relations `idb`, which move into each step's run and
/// always come back. Returns `None` if the fact does not hold (or, for
/// malformed inputs, cannot be reconstructed).
pub fn explain(
    db: &Database,
    idb: &mut BTreeMap<Pred, Relation>,
    program: &Program,
    pred: Pred,
    tuple: &Tuple,
) -> Option<Derivation> {
    let mut vars = Vec::new();
    let mut rules = Vec::new();
    for (i, r) in program.rules.iter().enumerate() {
        // Every variable but those only a negated subgoal holds.
        let mut v: Vec<Symbol> = r.head.vars().collect();
        for l in r.body.iter().filter(|l| l.as_neg().is_none()) {
            v.extend(l.vars());
        }
        let mut seen = BTreeSet::new();
        v.retain(|x| seen.insert(*x));
        let head = Atom::new(
            Pred::new(&format!("why${i}")),
            v.iter().map(|&x| Term::Var(x)).collect(),
        );
        let seed = Literal::Atom(Atom::new(goal(r.head.pred), r.head.args.clone()));
        rules.push(Rule::new(
            head,
            [seed].into_iter().chain(r.body.iter().cloned()).collect(),
        ));
        vars.push(v);
    }
    // The seeds and the materialization, and the heads even where it
    // lacks them: the rules read them all as preloaded relations.
    let heads = program.idb_preds().into_iter();
    let preloaded: Vec<Pred> = heads
        .flat_map(|h| [h, goal(h)])
        .chain(idb.keys().copied())
        .collect();
    let why = Why {
        program,
        plans: Prepared::build(db, Program::new(rules), false, &preloaded, &BTreeMap::new())
            .ok()?,
        vars,
    };
    why.go(db, idb, pred, tuple, &mut BTreeSet::new())
}

/// The seed predicate of the head-bound rules for `p`.
fn goal(p: Pred) -> Pred {
    Pred::new(&format!("goal${p}"))
}

/// A program's head-bound rules, compiled once per [`explain`] call:
/// rule `i`'s derives one `why$i` row of its variables `vars[i]` per body
/// instance of the fact in `goal$h`.
struct Why<'p> {
    program: &'p Program,
    plans: Prepared,
    vars: Vec<Vec<Symbol>>,
}

impl Why<'_> {
    fn go(
        &self,
        db: &Database,
        idb: &mut BTreeMap<Pred, Relation>,
        pred: Pred,
        tuple: &[Value],
        visiting: &mut BTreeSet<(Pred, Tuple)>,
    ) -> Option<Derivation> {
        let holds = |rel: Option<&Relation>| rel.is_some_and(|r| r.contains(tuple));
        let node = |rule, children| Derivation {
            pred,
            tuple: tuple.to_vec(),
            rule,
            children,
        };
        // EDB facts are leaves.
        if holds(db.get(pred)) {
            return Some(node(None, Vec::new()));
        }
        let key = (pred, tuple.to_vec());
        if !holds(idb.get(&pred)) || !visiting.insert(key.clone()) {
            return None; // not derived, or already on the support path
        }
        let found = self
            .steps(db, idb, pred, tuple)
            .into_iter()
            .find_map(|(i, row)| {
                let theta: Subst = self.vars[i]
                    .iter()
                    .zip(row)
                    .map(|(&v, c)| (v, Term::Const(c)))
                    .collect();
                // The rule's database premises, in body order.
                let premises = self.program.rules[i]
                    .body
                    .iter()
                    .filter_map(Literal::as_atom);
                let children = premises
                    .filter(|a| BuiltinOp::of(a.pred).is_none())
                    .map(|a| {
                        let t: Tuple = theta
                            .apply_atom(a)
                            .args
                            .iter()
                            .map(|t| t.as_const())
                            .collect::<Option<_>>()?;
                        self.go(db, idb, a.pred, &t, visiting)
                    });
                Some(node(Some(i), children.collect::<Option<_>>()?))
            });
        visiting.remove(&key);
        found
    }

    /// Every `(rule, variable values)` body instance deriving `(pred,
    /// tuple)`: rules in program order, each one's instances sorted.
    fn steps(
        &self,
        db: &Database,
        idb: &mut BTreeMap<Pred, Relation>,
        pred: Pred,
        tuple: &[Value],
    ) -> Vec<(usize, Tuple)> {
        let mut seed = Relation::new(tuple.len());
        seed.insert(tuple);
        let kept: Vec<Pred> = idb.keys().copied().collect();
        let rels = std::mem::take(idb).into_iter().chain([(goal(pred), seed)]);
        let mut ev = Evaluator::from_prepared_batch(db, &self.plans, rels);
        let ran = ev.run();
        let mut res = ev.finish();
        for p in kept {
            idb.insert(p, res.idb.remove(&p).expect("the run keeps every relation"));
        }
        if ran.is_err() {
            return Vec::new();
        }
        let rows = |i| {
            res.relation(format!("why${i}").as_str())
                .map(Relation::sorted_tuples)
        };
        let per_rule = self.program.rules_for(pred).into_iter();
        per_rule
            .flat_map(|i| rows(i).into_iter().flatten().map(move |t| (i, t)))
            .collect()
    }
}

/// Convenience: explains a ground goal written as an atom, after an
/// evaluation whose relations it borrows for the search.
pub fn explain_fact(
    db: &Database,
    result: &mut crate::eval::EvalResult,
    program: &Program,
    goal: &Atom,
) -> Option<Derivation> {
    let tuple: Option<Tuple> = goal.args.iter().map(|t| t.as_const()).collect();
    explain(db, &mut result.idb, program, goal.pred, &tuple?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::int_tuple;
    use crate::eval::{evaluate, Strategy};
    use semrec_datalog::parser::{parse_atom, parse_unit};

    fn setup() -> (Database, Program) {
        let unit = parse_unit(
            "t(X, Y) :- e(X, Y).
             t(X, Y) :- e(X, Z), t(Z, Y).",
        )
        .unwrap();
        let mut db = Database::new();
        for (a, b) in [(1, 2), (2, 3), (3, 4)] {
            db.insert("e", int_tuple(&[a, b]));
        }
        (db, unit.program())
    }

    #[test]
    fn explains_base_and_derived_facts() {
        let (db, prog) = setup();
        let mut res = evaluate(&db, &prog, Strategy::SemiNaive).unwrap();
        let d = explain_fact(&db, &mut res, &prog, &parse_atom("t(1, 4)").unwrap()).unwrap();
        assert_eq!(d.rule, Some(1));
        // The tree bottoms out in e-facts.
        assert_eq!(d.size(), 3); // three rule applications for a 3-hop path
        let text = d.to_string();
        assert!(text.contains("[fact]"));
        assert!(text.contains("t(1, 4)"));
    }

    #[test]
    fn nonfacts_are_unexplainable() {
        let (db, prog) = setup();
        let mut res = evaluate(&db, &prog, Strategy::SemiNaive).unwrap();
        assert!(explain_fact(&db, &mut res, &prog, &parse_atom("t(4, 1)").unwrap()).is_none());
        assert!(explain_fact(&db, &mut res, &prog, &parse_atom("ghost(1)").unwrap()).is_none());
    }

    #[test]
    fn cyclic_data_still_yields_acyclic_derivations() {
        let unit = parse_unit(
            "t(X, Y) :- e(X, Y).
             t(X, Y) :- e(X, Z), t(Z, Y).",
        )
        .unwrap();
        let mut db = Database::new();
        for (a, b) in [(0, 1), (1, 0)] {
            db.insert("e", int_tuple(&[a, b]));
        }
        let prog = unit.program();
        let mut res = evaluate(&db, &prog, Strategy::SemiNaive).unwrap();
        for goal in ["t(0, 0)", "t(0, 1)", "t(1, 1)"] {
            let d = explain_fact(&db, &mut res, &prog, &parse_atom(goal).unwrap())
                .unwrap_or_else(|| panic!("{goal} unexplained"));
            assert!(d.size() <= 4);
        }
    }

    #[test]
    fn explains_facts_with_comparisons() {
        let unit = parse_unit("big(X, Y) :- e(X, Y), Y >= 3.").unwrap();
        let mut db = Database::new();
        db.insert("e", int_tuple(&[1, 5]));
        db.insert("e", int_tuple(&[1, 2]));
        let prog = unit.program();
        let mut res = evaluate(&db, &prog, Strategy::SemiNaive).unwrap();
        assert!(explain_fact(&db, &mut res, &prog, &parse_atom("big(1, 5)").unwrap()).is_some());
        assert!(explain_fact(&db, &mut res, &prog, &parse_atom("big(1, 2)").unwrap()).is_none());
    }
}

#[cfg(test)]
mod builtin_tests {
    use super::*;
    use crate::database::int_tuple;
    use crate::eval::{evaluate, Strategy};
    use semrec_datalog::parser::{parse_atom, parse_unit};

    #[test]
    fn derivations_through_builtins() {
        let unit = parse_unit(
            "dist(X, Y, 1) :- e(X, Y).
             dist(X, Y, N) :- dist(X, Z, M), e(Z, Y), plus(M, 1, N).",
        )
        .unwrap();
        let mut db = Database::new();
        for i in 0..3 {
            db.insert("e", int_tuple(&[i, i + 1]));
        }
        let prog = unit.program();
        let mut res = evaluate(&db, &prog, Strategy::SemiNaive).unwrap();
        let d = explain_fact(&db, &mut res, &prog, &parse_atom("dist(0, 3, 3)").unwrap())
            .expect("explained");
        assert_eq!(d.size(), 3);
    }
}
