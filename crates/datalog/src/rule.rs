//! Rules (Horn clauses with evaluable body atoms).

use crate::atom::{Atom, Pred};
use crate::literal::{Cmp, Literal};
use crate::symbol::Symbol;
use std::collections::BTreeSet;
use std::fmt;

/// A rule `head :- l1, …, lm.` A rule with an empty body is a fact.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Rule {
    /// The head atom.
    pub head: Atom,
    /// The body literals, in source order.
    pub body: Vec<Literal>,
}

impl Rule {
    /// Builds a rule.
    pub fn new(head: Atom, body: Vec<Literal>) -> Rule {
        Rule { head, body }
    }

    /// A fact (rule with empty body).
    pub fn fact(head: Atom) -> Rule {
        Rule { head, body: vec![] }
    }

    /// True if this rule has an empty body.
    pub fn is_fact(&self) -> bool {
        self.body.is_empty()
    }

    /// The database/IDB atoms of the body, in order.
    pub fn body_atoms(&self) -> impl Iterator<Item = &Atom> {
        self.body.iter().filter_map(Literal::as_atom)
    }

    /// The evaluable comparisons of the body, in order.
    pub fn body_cmps(&self) -> impl Iterator<Item = &Cmp> {
        self.body.iter().filter_map(Literal::as_cmp)
    }

    /// Positions (indices into `body`) of atoms with predicate `p`.
    pub fn positions_of(&self, p: Pred) -> Vec<usize> {
        self.body
            .iter()
            .enumerate()
            .filter(|(_, l)| l.as_atom().is_some_and(|a| a.pred == p))
            .map(|(i, _)| i)
            .collect()
    }

    /// All variables of the rule (head and body), deduplicated, in
    /// first-occurrence-agnostic (sorted) order.
    pub fn vars(&self) -> BTreeSet<Symbol> {
        let mut out: BTreeSet<Symbol> = self.head.vars().collect();
        out.extend(self.body.iter().flat_map(Literal::var_iter));
        out
    }

    /// *Local* variables: occur in the body but not in the head.
    pub fn local_vars(&self) -> BTreeSet<Symbol> {
        let body = self.body.iter().flat_map(Literal::var_iter);
        body.filter(|&v| !self.head.vars().any(|h| h == v))
            .collect()
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.head.write_to(f)?;
        if !self.body.is_empty() {
            f.write_str(" :- ")?;
            for (i, l) in self.body.iter().enumerate() {
                if i > 0 {
                    f.write_str(", ")?;
                }
                l.write_to(f)?;
            }
        }
        f.write_str(".")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::literal::CmpOp;
    use crate::term::Term;

    fn rule() -> Rule {
        // p(X, Y) :- e(X, Z), Z > 3, q(Z, Y).
        Rule::new(
            Atom::new("p", vec![Term::var("X"), Term::var("Y")]),
            vec![
                Atom::new("e", vec![Term::var("X"), Term::var("Z")]).into(),
                Cmp::new(Term::var("Z"), CmpOp::Gt, Term::int(3)).into(),
                Atom::new("q", vec![Term::var("Z"), Term::var("Y")]).into(),
            ],
        )
    }

    #[test]
    fn accessors() {
        let r = rule();
        assert_eq!(r.body_atoms().count(), 2);
        assert_eq!(r.body_cmps().count(), 1);
        assert_eq!(r.positions_of(Pred::new("q")), vec![2]);
        assert_eq!(r.vars().len(), 3);
        assert_eq!(r.local_vars().len(), 1);
        assert!(!r.is_fact());
    }

    #[test]
    fn display() {
        assert_eq!(rule().to_string(), "p(X, Y) :- e(X, Z), Z > 3, q(Z, Y).");
        let f = Rule::fact(Atom::new("e", vec![Term::int(1), Term::int(2)]));
        assert_eq!(f.to_string(), "e(1, 2).");
    }
}
