//! Classification of recursion: linearity, exit vs recursive rules.
//!
//! The paper's framework (§1, assumption 3) applies to *linear recursive
//! programs with no mutual recursion*: every rule body contains at most one
//! occurrence of a predicate from the head's SCC, and each recursive SCC is
//! a single predicate.

use super::deps::DepGraph;
use crate::atom::Pred;
use crate::error::Error;
use crate::program::Program;
use std::collections::{BTreeMap, BTreeSet};

/// Shape of a recursive predicate's definition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecursionInfo {
    /// The recursive predicate.
    pub pred: Pred,
    /// Its arity.
    pub arity: usize,
    /// Indices (into the program) of rules whose body mentions `pred`.
    pub recursive_rules: Vec<usize>,
    /// Indices of rules for `pred` with no recursive subgoal.
    pub exit_rules: Vec<usize>,
}

impl RecursionInfo {
    /// All rules defining the predicate, recursive first then exit, in
    /// program order within each class.
    pub fn all_rules(&self) -> Vec<usize> {
        let mut v = self.recursive_rules.clone();
        v.extend(&self.exit_rules);
        v.sort_unstable();
        v
    }
}

/// Checks that `program` is a linear recursive program without mutual
/// recursion and returns per-predicate recursion info for every recursive
/// predicate (non-recursive IDB predicates are permitted and skipped).
pub fn classify_linear(program: &Program) -> Result<Vec<RecursionInfo>, Error> {
    let arities = program.arities().map_err(Error::analysis)?;
    let graph = DepGraph::new(program);
    for scc in graph.sccs() {
        if scc.len() > 1 {
            let names: Vec<_> = scc.iter().map(|p| p.name()).collect();
            return Err(Error::analysis(format!(
                "mutual recursion between {{{}}} is outside the paper's class",
                names.join(", ")
            )));
        }
    }

    let mut rules_of: BTreeMap<Pred, Vec<usize>> = BTreeMap::new();
    for (i, r) in program.rules.iter().enumerate() {
        rules_of.entry(r.head.pred).or_default().push(i);
    }

    let mut out = Vec::new();
    for (&p, rules) in &rules_of {
        // Every SCC is a single predicate, so `p` is recursive exactly
        // when it calls itself.
        if !graph.succ(p).any(|q| q == p) {
            continue;
        }
        let mut info = RecursionInfo {
            pred: p,
            arity: arities[&p],
            recursive_rules: vec![],
            exit_rules: vec![],
        };
        for &i in rules {
            let r = &program.rules[i];
            let occurrences = r.body_atoms().filter(|a| a.pred == p).count();
            match occurrences {
                0 => info.exit_rules.push(i),
                1 => info.recursive_rules.push(i),
                n => {
                    return Err(Error::analysis(format!(
                        "rule {i} for {p} is non-linear ({n} recursive subgoals)"
                    )));
                }
            }
        }
        if info.exit_rules.is_empty() {
            return Err(Error::analysis(format!(
                "recursive predicate {p} has no exit rule"
            )));
        }
        out.push(info);
    }
    Ok(out)
}

/// Recursion info for one specific predicate; errors if `p` is not a
/// recursive predicate of the (linear) program.
pub fn classify_linear_pred(program: &Program, p: Pred) -> Result<RecursionInfo, Error> {
    classify_linear(program)?
        .into_iter()
        .find(|i| i.pred == p)
        .ok_or_else(|| Error::analysis(format!("{p} is not a recursive predicate")))
}

/// Predicates of the program that some rule for `roots` (transitively)
/// depends on, including the roots themselves.
pub fn reachable_preds(program: &Program, roots: &[Pred]) -> BTreeSet<Pred> {
    let graph = DepGraph::new(program);
    let mut seen: BTreeSet<Pred> = BTreeSet::new();
    let mut work: Vec<Pred> = roots.to_vec();
    while let Some(p) = work.pop() {
        if !seen.insert(p) {
            continue;
        }
        work.extend(graph.succ(p));
    }
    seen
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_unit;

    fn prog(src: &str) -> Program {
        parse_unit(src).unwrap().program()
    }

    #[test]
    fn classify_ancestor() {
        let p = prog("anc(X,Y) :- par(X,Y). anc(X,Y) :- anc(X,Z), par(Z,Y).");
        let infos = classify_linear(&p).unwrap();
        assert_eq!(infos.len(), 1);
        assert_eq!(infos[0].pred, Pred::new("anc"));
        assert_eq!(infos[0].arity, 2);
        assert_eq!(infos[0].exit_rules, vec![0]);
        assert_eq!(infos[0].recursive_rules, vec![1]);
    }

    #[test]
    fn two_recursive_rules() {
        let p = prog(
            "p(X) :- e(X).
             p(X) :- a(X,Y), p(Y).
             p(X) :- b(X,Y), p(Y).",
        );
        let info = classify_linear_pred(&p, Pred::new("p")).unwrap();
        assert_eq!(info.recursive_rules, vec![1, 2]);
        assert_eq!(info.all_rules(), vec![0, 1, 2]);
    }

    #[test]
    fn rejects_nonlinear() {
        let p = prog("p(X,Y) :- e(X,Y). p(X,Y) :- p(X,Z), p(Z,Y).");
        let err = classify_linear(&p).unwrap_err();
        assert!(err.to_string().contains("non-linear"));
    }

    #[test]
    fn rejects_mutual() {
        let p = prog("a(X) :- e(X). a(X) :- f(X,Y), b(Y). b(X) :- g(X,Y), a(Y).");
        let err = classify_linear(&p).unwrap_err();
        assert!(err.to_string().contains("mutual recursion"));
    }

    #[test]
    fn rejects_missing_exit() {
        let p = prog("p(X) :- e(X,Y), p(Y).");
        assert!(classify_linear(&p).is_err());
    }

    #[test]
    fn reachable() {
        let p = prog("a(X) :- b(X). b(X) :- c(X), d(X). z(X) :- w(X).");
        let r = reachable_preds(&p, &[Pred::new("a")]);
        assert!(r.contains(&Pred::new("c")));
        assert!(!r.contains(&Pred::new("w")));
    }
}
