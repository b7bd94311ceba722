//! Integrity constraints.
//!
//! ICs are implication statements `D1, …, Dk, E1, …, Em -> A` where the
//! `Di` are database atoms, the `Ej` are evaluable comparisons and `A`
//! (possibly absent) is a database atom or a comparison (§3 of the paper;
//! note the paper's reversal of head and body relative to clause notation).
//! An IC with an absent head is a denial: its body must never be satisfied.

use crate::atom::Atom;
use crate::literal::Cmp;
use crate::subst::Subst;
use crate::symbol::Symbol;
use std::collections::BTreeSet;
use std::fmt;

/// The consequent of an integrity constraint.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum IcHead {
    /// Absent head: the constraint is a denial (`body -> ⊥`).
    None,
    /// A database atom.
    Atom(Atom),
    /// An evaluable comparison.
    Cmp(Cmp),
}

impl IcHead {
    /// Variables of the head.
    pub fn vars(&self) -> Vec<Symbol> {
        match self {
            IcHead::None => vec![],
            IcHead::Atom(a) => a.vars().collect(),
            IcHead::Cmp(c) => c.vars().collect(),
        }
    }

    /// Applies a substitution.
    pub fn apply(&self, s: &Subst) -> IcHead {
        match self {
            IcHead::None => IcHead::None,
            IcHead::Atom(a) => IcHead::Atom(s.apply_atom(a)),
            IcHead::Cmp(c) => IcHead::Cmp(s.apply_cmp(c)),
        }
    }
}

impl fmt::Display for IcHead {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IcHead::None => Ok(()),
            IcHead::Atom(a) => write!(f, "{a}"),
            IcHead::Cmp(c) => write!(f, "{c}"),
        }
    }
}

/// An integrity constraint `D1, …, Dk, E1, …, Em -> head`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Constraint {
    /// Optional name (for diagnostics), e.g. `ic1`.
    pub name: Option<Symbol>,
    /// The database atoms of the antecedent (`k ≥ 1`).
    pub body_atoms: Vec<Atom>,
    /// The evaluable comparisons of the antecedent (`m ≥ 0`).
    pub body_cmps: Vec<Cmp>,
    /// The consequent.
    pub head: IcHead,
}

impl Constraint {
    /// Builds a constraint.
    pub fn new(body_atoms: Vec<Atom>, body_cmps: Vec<Cmp>, head: IcHead) -> Constraint {
        Constraint {
            name: None,
            body_atoms,
            body_cmps,
            head,
        }
    }

    /// Sets the diagnostic name.
    pub fn named(mut self, name: &str) -> Constraint {
        self.name = Some(Symbol::intern(name));
        self
    }

    /// True if the constraint is a denial (absent head).
    pub fn is_denial(&self) -> bool {
        matches!(self.head, IcHead::None)
    }

    /// All variables of the constraint.
    pub fn vars(&self) -> BTreeSet<Symbol> {
        let mut out: BTreeSet<Symbol> = BTreeSet::new();
        for a in &self.body_atoms {
            out.extend(a.vars());
        }
        for c in &self.body_cmps {
            out.extend(c.vars());
        }
        out.extend(self.head.vars());
        out
    }

    /// Applies a substitution to the whole constraint.
    pub fn apply(&self, s: &Subst) -> Constraint {
        Constraint {
            name: self.name,
            body_atoms: self.body_atoms.iter().map(|a| s.apply_atom(a)).collect(),
            body_cmps: self.body_cmps.iter().map(|c| s.apply_cmp(c)).collect(),
            head: self.head.apply(s),
        }
    }

    /// Checks the paper's §3 *chain-connectivity* shape: each `D_i` shares
    /// one or more variables with `D_{i-1}` and `D_{i+1}` and with no other
    /// database atom, `1 < i < k`. Single-atom bodies trivially qualify.
    pub fn is_chain(&self) -> bool {
        let atoms = &self.body_atoms;
        let shares = |i: usize, j: usize| atoms[i].vars().any(|v| atoms[j].vars().any(|w| w == v));
        (0..atoms.len()).all(|i| ((i + 1)..atoms.len()).all(|j| shares(i, j) == (j == i + 1)))
    }
}

impl fmt::Display for Constraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ic")?;
        if let Some(n) = self.name {
            write!(f, " {n}")?;
        }
        write!(f, ": ")?;
        let mut first = true;
        for a in &self.body_atoms {
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            write!(f, "{a}")?;
        }
        for c in &self.body_cmps {
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            write!(f, "{c}")?;
        }
        write!(f, " -> {}.", self.head)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::literal::CmpOp;
    use crate::term::Term;

    fn v(n: &str) -> Term {
        Term::var(n)
    }

    #[test]
    fn chain_shape() {
        // a(X,Y), b(Y,Z), c(Z,W) -> d(W). Proper chain.
        let ic = Constraint::new(
            vec![
                Atom::new("a", vec![v("X"), v("Y")]),
                Atom::new("b", vec![v("Y"), v("Z")]),
                Atom::new("c", vec![v("Z"), v("W")]),
            ],
            vec![],
            IcHead::Atom(Atom::new("d", vec![v("W")])),
        );
        assert!(ic.is_chain());

        // a and c also share X: not a chain.
        let bad = Constraint::new(
            vec![
                Atom::new("a", vec![v("X"), v("Y")]),
                Atom::new("b", vec![v("Y"), v("Z")]),
                Atom::new("c", vec![v("Z"), v("X")]),
            ],
            vec![],
            IcHead::None,
        );
        assert!(!bad.is_chain());

        // disconnected adjacent atoms: not a chain.
        let disc = Constraint::new(
            vec![Atom::new("a", vec![v("X")]), Atom::new("b", vec![v("Y")])],
            vec![],
            IcHead::None,
        );
        assert!(!disc.is_chain());
    }

    #[test]
    fn denial_and_display() {
        let ic = Constraint::new(
            vec![Atom::new("p", vec![v("X")])],
            vec![Cmp::new(v("X"), CmpOp::Gt, Term::int(10))],
            IcHead::None,
        )
        .named("ic1");
        assert!(ic.is_denial());
        assert_eq!(ic.to_string(), "ic ic1: p(X), X > 10 -> .");
    }

    #[test]
    fn apply_substitution() {
        let ic = Constraint::new(
            vec![Atom::new("p", vec![v("X")])],
            vec![],
            IcHead::Atom(Atom::new("q", vec![v("X")])),
        );
        let s = Subst::from_pairs([(Symbol::intern("X"), Term::int(1))]);
        let out = ic.apply(&s);
        assert_eq!(out.body_atoms[0].to_string(), "p(1)");
        assert_eq!(out.head.to_string(), "q(1)");
    }
}
