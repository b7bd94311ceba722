//! Predicate symbols and atoms.

use crate::symbol::Symbol;
use crate::term::Term;
use std::fmt;

/// A predicate symbol. Arity is not part of the symbol; programs are checked
/// for consistent arity by [`crate::analysis`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Pred(pub Symbol);

impl Pred {
    /// Predicate symbol from a name.
    pub fn new(name: &str) -> Pred {
        Pred(Symbol::intern(name))
    }

    /// The predicate's name.
    pub fn name(self) -> &'static str {
        self.0.as_str()
    }
}

impl fmt::Display for Pred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl From<&str> for Pred {
    fn from(s: &str) -> Self {
        Pred::new(s)
    }
}

/// An atom `p(t1, …, tn)`.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Atom {
    /// The predicate symbol.
    pub pred: Pred,
    /// The argument terms.
    pub args: Vec<Term>,
}

impl Atom {
    /// Builds an atom.
    pub fn new(pred: impl Into<Pred>, args: Vec<Term>) -> Atom {
        Atom {
            pred: pred.into(),
            args,
        }
    }

    /// Number of arguments.
    pub fn arity(&self) -> usize {
        self.args.len()
    }

    /// Iterator over the variables occurring in the atom (with repeats).
    pub fn vars(&self) -> impl Iterator<Item = Symbol> + '_ {
        self.args.iter().filter_map(|t| t.as_var())
    }

    /// True if the atom contains no variables.
    pub fn is_ground(&self) -> bool {
        self.args.iter().all(|t| !t.is_var())
    }
}

impl Atom {
    /// Writes `p(t1, …, tn)` as `Display` prints it, through
    /// [`fmt::Write::write_str`] (see [`Term::write_to`]).
    pub fn write_to<W: fmt::Write + ?Sized>(&self, out: &mut W) -> fmt::Result {
        out.write_str(self.pred.name())?;
        out.write_str("(")?;
        for (i, t) in self.args.iter().enumerate() {
            if i > 0 {
                out.write_str(", ")?;
            }
            t.write_to(out)?;
        }
        out.write_str(")")
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_to(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atom_display_and_vars() {
        let a = Atom::new("edge", vec![Term::var("X"), Term::int(3)]);
        assert_eq!(a.to_string(), "edge(X, 3)");
        assert_eq!(a.vars().count(), 1);
        assert!(!a.is_ground());
        let g = Atom::new("edge", vec![Term::int(1), Term::int(2)]);
        assert!(g.is_ground());
    }
}
