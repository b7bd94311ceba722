//! The one front door: [`check`] judges a program, its constraints and
//! its facts once, over one arity map and one dependency graph, by two
//! sets of rules. The evaluation rules, which every route needs — one
//! arity per predicate (builtins [`BUILTIN_ARITY`]), no rule or fact
//! defining a builtin, [`safety`], stratified negation — give its error.
//! The paper's class (§1), which only the optimizer needs — no negation,
//! connected rules and constraints, linear recursion without mutual
//! recursion and with exit rules, chain-shaped constraints over EDB
//! relations and comparisons — is a verdict [`Checked`] keeps apart.
//! What the system writes from a judged program is not judged again: the
//! engine's compiler takes the caller's [`Checked::strata`], or none.

use super::connect;
use super::deps::DepGraph;
use super::recursion::{self, RecursionInfo};
use super::safety::{is_builtin, Drain, BUILTIN_ARITY};
use crate::atom::{Atom, Pred};
use crate::constraint::{Constraint, IcHead};
use crate::error::Error;
use crate::facts::Facts;
use crate::literal::Literal;
use crate::program::Program;
use std::collections::BTreeMap;

/// A program that obeys the evaluation rules, with what judging it found.
#[derive(Clone, Debug)]
pub struct Checked {
    /// Each predicate's arity across the rules, constraints and facts.
    pub arities: BTreeMap<Pred, usize>,
    /// Each IDB predicate's stratum: at least its positive IDB subgoals',
    /// above its negated ones'.
    pub strata: BTreeMap<Pred, usize>,
    /// The recursive predicates, when recursion is linear without mutual
    /// recursion and each has an exit rule; else the first violation.
    pub recursion: Result<Vec<RecursionInfo>, Error>,
    /// The first violation of the paper's class, recursion's included.
    class: Result<(), Error>,
}

impl Checked {
    /// The paper's verdict (§1): the recursive predicates when the program
    /// and its constraints are in the class, else its first violation.
    pub fn paper_class(&self) -> Result<&[RecursionInfo], Error> {
        self.class.clone()?;
        Ok(self.recursion.as_deref().unwrap_or_default())
    }
}

/// Judges `program`, `ics` and `facts`: `Err` with the first broken
/// evaluation rule (one arity per predicate, no rule or fact defining a
/// builtin, safety, stratified negation), else the [`Checked`] judgment —
/// the arities and the strata, plus the recursion and the paper's class
/// read off the same graph.
pub fn check(program: &Program, ics: &[Constraint], facts: &Facts) -> Result<Checked, Error> {
    let arities = arities(program, ics, facts)?;
    let heads = program.rules.iter().map(|r| (r.head.pred, false));
    let facts_of = facts.groups().iter().map(|g| (g.pred(), true));
    if let Some((pred, fact)) = heads.chain(facts_of).find(|&(p, _)| is_builtin(p)) {
        return Err(Error::DefinesBuiltin { pred, fact });
    }
    let mut drain = Drain::default();
    for r in &program.rules {
        if let Some(detail) = drain.unsafe_detail(r) {
            let rule = r.to_string();
            return Err(Error::UnsafeRule { rule, detail });
        }
    }
    let mut rules_of: BTreeMap<Pred, Vec<usize>> = BTreeMap::new();
    for (i, r) in program.rules.iter().enumerate() {
        rules_of.entry(r.head.pred).or_default().push(i);
    }
    let sccs = DepGraph::new(program).sccs();
    let strata = stratify(program, &sccs, &rules_of)?;
    let recursion = recursion::classify(program, &sccs, &rules_of, &arities);
    let class = paper_class(program, ics, &rules_of, &recursion);
    Ok(Checked {
        arities,
        strata,
        recursion,
        class,
    })
}

/// Validates `program` and `ics` against the paper's assumption bundle:
/// [`check`] without facts, then [`Checked::paper_class`].
pub fn validate(program: &Program, ics: &[Constraint]) -> Result<Vec<RecursionInfo>, Error> {
    let checked = check(program, ics, &Facts::new())?;
    checked.paper_class().map(<[_]>::to_vec)
}

/// The diagnostic label of a constraint: its name, else its text.
fn label(ic: &Constraint) -> &dyn std::fmt::Display {
    match &ic.name {
        Some(name) => name,
        None => ic,
    }
}

/// Every predicate's one arity across the rules, the constraints (body and
/// head atoms) and the ground `facts`. A constraint or fact atom that
/// disagrees could never match a row, so it is an error naming the
/// offender: for facts, the first in source order. Predicates mentioned
/// only by constraints are legal as long as the constraints agree.
fn arities(
    program: &Program,
    ics: &[Constraint],
    facts: &Facts,
) -> Result<BTreeMap<Pred, usize>, Error> {
    let mut arities = program.arities().map_err(Error::analysis)?;
    // For predicates no rule mentions: the constraint that fixed the arity.
    let mut fixed_by: BTreeMap<Pred, &Constraint> = BTreeMap::new();
    for ic in ics {
        let head = match &ic.head {
            IcHead::Atom(a) => Some(a),
            _ => None,
        };
        for a in ic.body_atoms.iter().chain(head) {
            let n = *arities.entry(a.pred).or_insert_with(|| {
                fixed_by.insert(a.pred, ic);
                a.arity()
            });
            if n != a.arity() {
                let whose = match fixed_by.get(&a.pred) {
                    Some(first) => format!("constraint {}", label(first)),
                    None => "the program's rules".to_owned(),
                };
                return Err(Error::analysis(format!(
                    "constraint {} uses {} with arity {}, but {} has arity {n} in {whose}",
                    label(ic),
                    a.pred,
                    a.arity(),
                    a.pred,
                )));
            }
        }
    }
    let clash = facts.first_rejected(|p, n| *arities.entry(p).or_insert(n) == n);
    if let Some(f) = clash {
        return Err(Error::analysis(format!(
            "fact {f} has arity {}, but {} has arity {} elsewhere in the source",
            f.arity(),
            f.pred,
            arities[&f.pred]
        )));
    }
    let wrong = |(p, n): (&Pred, &usize)| is_builtin(*p) && *n != BUILTIN_ARITY;
    if let Some((p, n)) = arities.iter().find(|&e| wrong(e)) {
        let why = format!("builtin {p} has arity {BUILTIN_ARITY}, but is used with arity {n}");
        return Err(Error::analysis(why));
    }
    Ok(arities)
}

/// Each IDB predicate's stratum, read off the SCCs in reverse topological
/// order: a negated subgoal over an IDB predicate with no stratum yet is
/// in the rule's own SCC, so negation occurs inside a recursive cycle.
fn stratify(
    program: &Program,
    sccs: &[Vec<Pred>],
    rules_of: &BTreeMap<Pred, Vec<usize>>,
) -> Result<BTreeMap<Pred, usize>, Error> {
    let mut strata: BTreeMap<Pred, usize> = BTreeMap::new();
    for scc in sccs {
        let mut stratum = 0;
        for i in scc.iter().filter_map(|p| rules_of.get(p)).flatten() {
            for l in &program.rules[*i].body {
                stratum = stratum.max(match l {
                    Literal::Atom(a) => strata.get(&a.pred).copied().unwrap_or(0),
                    Literal::Neg(a) => match strata.get(&a.pred) {
                        Some(s) => s + 1,
                        None if rules_of.contains_key(&a.pred) => {
                            return Err(Error::NotStratified(
                                "negation occurs inside a recursive cycle".into(),
                            ));
                        }
                        None => 0,
                    },
                    _ => 0,
                });
            }
        }
        for &p in scc.iter().filter(|p| rules_of.contains_key(p)) {
            strata.insert(p, stratum);
        }
    }
    Ok(strata)
}

/// The first violation of the paper's class, given the program's
/// `recursion` verdict: rule by rule, then recursion, then constraint by
/// constraint.
fn paper_class(
    program: &Program,
    ics: &[Constraint],
    rules_of: &BTreeMap<Pred, Vec<usize>>,
    recursion: &Result<Vec<RecursionInfo>, Error>,
) -> Result<(), Error> {
    for (i, r) in program.rules.iter().enumerate() {
        let why = if r.body.iter().any(|l| l.as_neg().is_some()) {
            "uses negation, which is outside the paper's class"
        } else if !connect::rule_is_connected(r) {
            "is not connected"
        } else {
            continue;
        };
        return Err(Error::analysis(format!("rule {i} (`{r}`) {why}")));
    }
    recursion.as_ref().map_err(Error::clone)?;
    for ic in ics {
        let head = match &ic.head {
            IcHead::Atom(a) => Some(a),
            _ => None,
        };
        let idb = |a: &&Atom| rules_of.contains_key(&a.pred);
        let why = if !connect::constraint_is_connected(ic) {
            "is not connected".to_owned()
        } else if let Some(a) = (ic.body_atoms.iter().chain(head)).find(|a| is_builtin(a.pred)) {
            let p = a.pred;
            format!("mentions builtin {p}: constraints range over stored relations and comparisons")
        } else if let Some(a) = ic.body_atoms.iter().find(idb) {
            format!("mentions IDB predicate {} in its body", a.pred)
        } else if let Some(a) = head.filter(idb) {
            format!("has IDB predicate {} in its head", a.pred)
        } else if !ic.is_chain() {
            "does not have the chain-connected shape of §3".to_owned()
        } else {
            continue;
        };
        return Err(Error::analysis(format!("constraint {} {why}", label(ic))));
    }
    Ok(())
}
