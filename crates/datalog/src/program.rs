//! Programs: ordered collections of rules, plus derived predicate metadata.

use crate::atom::Pred;
use crate::rule::Rule;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::str::FromStr;

/// A Datalog program: an ordered list of rules. Rule order is preserved
/// because the paper identifies proof trees with *expansion sequences* —
/// sequences of rule indices.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Program {
    /// The rules, in source order.
    pub rules: Vec<Rule>,
}

impl Program {
    /// Builds a program from rules.
    pub fn new(rules: Vec<Rule>) -> Program {
        Program { rules }
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// True if the program has no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// The IDB predicates: those defined by some rule head.
    pub fn idb_preds(&self) -> BTreeSet<Pred> {
        self.rules.iter().map(|r| r.head.pred).collect()
    }

    /// The EDB predicates: those occurring only in rule bodies.
    pub fn edb_preds(&self) -> BTreeSet<Pred> {
        let idb = self.idb_preds();
        let mut out = BTreeSet::new();
        for r in &self.rules {
            for a in r.body_atoms() {
                if !idb.contains(&a.pred) {
                    out.insert(a.pred);
                }
            }
        }
        out
    }

    /// Indices of the rules whose head predicate is `p`.
    pub fn rules_for(&self, p: Pred) -> Vec<usize> {
        self.rules
            .iter()
            .enumerate()
            .filter(|(_, r)| r.head.pred == p)
            .map(|(i, _)| i)
            .collect()
    }

    /// Arity of each predicate as used in the program, or an error message
    /// naming the first predicate used with two different arities.
    pub fn arities(&self) -> Result<BTreeMap<Pred, usize>, String> {
        let mut out: BTreeMap<Pred, usize> = BTreeMap::new();
        let mut check = |p: Pred, n: usize| -> Result<(), String> {
            match out.get(&p) {
                Some(&m) if m != n => Err(format!("predicate {p} used with arities {m} and {n}")),
                _ => {
                    out.insert(p, n);
                    Ok(())
                }
            }
        };
        for r in &self.rules {
            check(r.head.pred, r.head.arity())?;
            for a in r.body_atoms() {
                check(a.pred, a.arity())?;
            }
        }
        Ok(out)
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in &self.rules {
            fmt::Display::fmt(r, f)?;
            f.write_str("\n")?;
        }
        Ok(())
    }
}

impl FromStr for Program {
    type Err = crate::error::Error;

    /// Parses a program (rules only; facts and constraints in the source are
    /// rejected — use [`crate::parser::parse_unit`] for mixed input).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let unit = crate::parser::parse_unit(s)?;
        if !unit.constraints.is_empty() {
            return Err(crate::error::Error::parse(
                0,
                0,
                "constraints not allowed when parsing a bare Program",
            ));
        }
        let mut rules = unit.rules;
        rules.extend(unit.facts.atoms().map(Rule::fact));
        Ok(Program::new(rules))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::Atom;
    use crate::term::Term;

    fn prog() -> Program {
        // p(X,Y) :- e(X,Y).  p(X,Y) :- e(X,Z), p(Z,Y).
        let v = Term::var;
        Program::new(vec![
            Rule::new(
                Atom::new("p", vec![v("X"), v("Y")]),
                vec![Atom::new("e", vec![v("X"), v("Y")]).into()],
            ),
            Rule::new(
                Atom::new("p", vec![v("X"), v("Y")]),
                vec![
                    Atom::new("e", vec![v("X"), v("Z")]).into(),
                    Atom::new("p", vec![v("Z"), v("Y")]).into(),
                ],
            ),
        ])
    }

    #[test]
    fn idb_edb_split() {
        let p = prog();
        assert_eq!(p.idb_preds().len(), 1);
        assert!(p.idb_preds().contains(&Pred::new("p")));
        assert!(p.edb_preds().contains(&Pred::new("e")));
        assert_eq!(p.rules_for(Pred::new("p")), vec![0, 1]);
    }

    #[test]
    fn arity_check() {
        let p = prog();
        let ar = p.arities().unwrap();
        assert_eq!(ar[&Pred::new("p")], 2);
        assert_eq!(ar[&Pred::new("e")], 2);

        let bad = Program::new(vec![
            Rule::fact(Atom::new("e", vec![Term::int(1)])),
            Rule::fact(Atom::new("e", vec![Term::int(1), Term::int(2)])),
        ]);
        assert!(bad.arities().is_err());
    }
}
