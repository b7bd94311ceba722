//! Body literals: database/IDB atoms and evaluable comparison atoms.
//!
//! Following the paper, "built-in predicates like `X > Y`, `X > 100` are
//! called *evaluable predicates* while all others are called *database
//! predicates*". Evaluable atoms here are binary comparisons over the
//! totally ordered [`crate::term::Value`] domain. The comparison set
//! is closed under negation (`¬(<) = ≥` and so on), which is what lets the
//! program transformations of §4 split rules on `E` / `¬E` without needing
//! general negation in the engine.

use crate::atom::Atom;
use crate::term::{Term, Value};
use std::fmt;

/// A comparison operator.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// The complementary operator: `negate(op)(x, y) ⇔ ¬ op(x, y)`.
    pub fn negate(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Ne,
            CmpOp::Ne => CmpOp::Eq,
            CmpOp::Lt => CmpOp::Ge,
            CmpOp::Le => CmpOp::Gt,
            CmpOp::Gt => CmpOp::Le,
            CmpOp::Ge => CmpOp::Lt,
        }
    }

    /// The operator with its argument order flipped: `flip(op)(x, y) ⇔ op(y, x)`.
    pub fn flip(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }

    /// Applies the comparison to two ordered values.
    pub fn eval<T: Ord>(self, a: &T, b: &T) -> bool {
        match self {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
        }
    }
}

impl CmpOp {
    /// The operator as written.
    pub fn as_str(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// An evaluable atom `lhs op rhs`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Cmp {
    /// Left operand.
    pub lhs: Term,
    /// Operator.
    pub op: CmpOp,
    /// Right operand.
    pub rhs: Term,
}

impl Cmp {
    /// Builds a comparison atom.
    pub fn new(lhs: Term, op: CmpOp, rhs: Term) -> Cmp {
        Cmp { lhs, op, rhs }
    }

    /// The negation `¬(lhs op rhs)`, still a single comparison atom.
    pub fn negate(self) -> Cmp {
        Cmp {
            lhs: self.lhs,
            op: self.op.negate(),
            rhs: self.rhs,
        }
    }

    /// Variables occurring in the comparison.
    pub fn vars(&self) -> impl Iterator<Item = crate::symbol::Symbol> {
        [self.lhs, self.rhs].into_iter().filter_map(|t| t.as_var())
    }

    /// If both operands are constants, evaluates the comparison.
    pub fn eval_ground(&self) -> Option<bool> {
        match (self.lhs.as_const(), self.rhs.as_const()) {
            (Some(a), Some(b)) => Some(self.op.eval(&a, &b)),
            _ => None,
        }
    }

    /// True if this comparison is a tautology regardless of bindings
    /// (e.g. `X = X`, or a true ground comparison).
    pub fn is_trivially_true(&self) -> bool {
        if self.lhs == self.rhs {
            return matches!(self.op, CmpOp::Eq | CmpOp::Le | CmpOp::Ge);
        }
        self.eval_ground() == Some(true)
    }

    /// True if this comparison is unsatisfiable regardless of bindings.
    pub fn is_trivially_false(&self) -> bool {
        if self.lhs == self.rhs {
            return matches!(self.op, CmpOp::Ne | CmpOp::Lt | CmpOp::Gt);
        }
        self.eval_ground() == Some(false)
    }

    /// The same comparison with operands in a canonical order (variables
    /// before constants, then term order), flipping the operator as needed.
    pub fn normalized(&self) -> Cmp {
        if self.rhs < self.lhs {
            Cmp {
                lhs: self.rhs,
                op: self.op.flip(),
                rhs: self.lhs,
            }
        } else {
            *self
        }
    }

    /// True if this comparison logically implies `other` on every binding
    /// (a sound, incomplete check — single-comparison reasoning only).
    ///
    /// Covers: identity (after normalization); `=`/`<`/`>` implying the
    /// non-strict and `!=` forms over the same operands; and constant-bound
    /// strengthening on a shared variable, e.g. `X > 7 ⇒ X > 3`,
    /// `X = 5 ⇒ X <= 9`.
    pub fn implies(&self, other: &Cmp) -> bool {
        let a = self.normalized();
        let b = other.normalized();
        if a == b || b.is_trivially_true() {
            return true;
        }
        if a.lhs == b.lhs && a.rhs == b.rhs {
            let weaker = |x: CmpOp, y: CmpOp| {
                matches!(
                    (x, y),
                    (CmpOp::Eq, CmpOp::Le)
                        | (CmpOp::Eq, CmpOp::Ge)
                        | (CmpOp::Lt, CmpOp::Le)
                        | (CmpOp::Lt, CmpOp::Ne)
                        | (CmpOp::Gt, CmpOp::Ge)
                        | (CmpOp::Gt, CmpOp::Ne)
                )
            };
            if weaker(a.op, b.op) {
                return true;
            }
        }
        // Constant-bound reasoning on a shared variable: a = (V op c),
        // b = (V op' d).
        let (Term::Var(va), Term::Const(ca)) = (a.lhs, a.rhs) else {
            return false;
        };
        let (Term::Var(vb), Term::Const(cb)) = (b.lhs, b.rhs) else {
            return false;
        };
        if va != vb {
            return false;
        }
        // The set of values satisfying `op c` must be contained in the set
        // satisfying `op' d`. Enumerate the useful cases.
        let (lo_a, hi_a, eq_a) = range_of(a.op, ca);
        let (lo_b, hi_b, _) = range_of(b.op, cb);
        match b.op {
            CmpOp::Ne => {
                // a excludes cb entirely?
                match a.op {
                    CmpOp::Eq => ca != cb,
                    CmpOp::Lt => cb >= ca,
                    CmpOp::Le => cb > ca,
                    CmpOp::Gt => cb <= ca,
                    CmpOp::Ge => cb < ca,
                    CmpOp::Ne => ca == cb,
                }
            }
            _ => {
                if let Some(eq) = eq_a {
                    return b.op.eval(&eq, &cb);
                }
                let lo_ok = match (lo_a, lo_b) {
                    (_, Bound::None) => true,
                    (Bound::None, _) => false,
                    (Bound::Open(x), Bound::Open(y)) | (Bound::Closed(x), Bound::Closed(y)) => {
                        x >= y
                    }
                    (Bound::Open(x), Bound::Closed(y)) => x >= y,
                    (Bound::Closed(x), Bound::Open(y)) => x > y,
                };
                let hi_ok = match (hi_a, hi_b) {
                    (_, Bound::None) => true,
                    (Bound::None, _) => false,
                    (Bound::Open(x), Bound::Open(y)) | (Bound::Closed(x), Bound::Closed(y)) => {
                        x <= y
                    }
                    (Bound::Open(x), Bound::Closed(y)) => x <= y,
                    (Bound::Closed(x), Bound::Open(y)) => x < y,
                };
                lo_ok && hi_ok
            }
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Bound {
    None,
    Open(Value),
    Closed(Value),
}

/// The (lo, hi, point) characterization of `V op c`.
fn range_of(op: CmpOp, c: Value) -> (Bound, Bound, Option<Value>) {
    match op {
        CmpOp::Eq => (Bound::Closed(c), Bound::Closed(c), Some(c)),
        CmpOp::Ne => (Bound::None, Bound::None, None),
        CmpOp::Lt => (Bound::None, Bound::Open(c), None),
        CmpOp::Le => (Bound::None, Bound::Closed(c), None),
        CmpOp::Gt => (Bound::Open(c), Bound::None, None),
        CmpOp::Ge => (Bound::Closed(c), Bound::None, None),
    }
}

impl Cmp {
    /// Writes `lhs op rhs` as `Display` prints it, through
    /// [`fmt::Write::write_str`] (see [`Term::write_to`]).
    pub fn write_to<W: fmt::Write + ?Sized>(&self, out: &mut W) -> fmt::Result {
        self.lhs.write_to(out)?;
        out.write_str(" ")?;
        out.write_str(self.op.as_str())?;
        out.write_str(" ")?;
        self.rhs.write_to(out)
    }
}

impl fmt::Display for Cmp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_to(f)
    }
}

/// A body literal: a database/IDB atom, a negated atom, or an evaluable
/// comparison.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Literal {
    /// A positive database or IDB subgoal.
    Atom(Atom),
    /// A negated subgoal `!p(…)` (stratified negation; all its variables
    /// must be bound by positive literals).
    Neg(Atom),
    /// An evaluable comparison.
    Cmp(Cmp),
}

impl Literal {
    /// The *positive* atom, if this literal is one.
    pub fn as_atom(&self) -> Option<&Atom> {
        match self {
            Literal::Atom(a) => Some(a),
            _ => None,
        }
    }

    /// The negated atom, if this literal is one.
    pub fn as_neg(&self) -> Option<&Atom> {
        match self {
            Literal::Neg(a) => Some(a),
            _ => None,
        }
    }

    /// The comparison, if this literal is one.
    pub fn as_cmp(&self) -> Option<&Cmp> {
        match self {
            Literal::Cmp(c) => Some(c),
            _ => None,
        }
    }

    /// Variables occurring in the literal.
    pub fn vars(&self) -> Vec<crate::symbol::Symbol> {
        self.var_iter().collect()
    }

    /// [`Literal::vars`], in argument order with repeats, without
    /// collecting them.
    pub fn var_iter(&self) -> impl Iterator<Item = crate::symbol::Symbol> + '_ {
        let (atom, cmp) = match self {
            Literal::Atom(a) | Literal::Neg(a) => (Some(a), None),
            Literal::Cmp(c) => (None, Some(c)),
        };
        atom.into_iter()
            .flat_map(Atom::vars)
            .chain(cmp.into_iter().flat_map(Cmp::vars))
    }
}

impl Literal {
    /// Writes the literal as `Display` prints it, through
    /// [`fmt::Write::write_str`] (see [`Atom::write_to`]).
    pub fn write_to<W: fmt::Write + ?Sized>(&self, out: &mut W) -> fmt::Result {
        match self {
            Literal::Atom(a) => a.write_to(out),
            Literal::Neg(a) => {
                out.write_str("!")?;
                a.write_to(out)
            }
            Literal::Cmp(c) => c.write_to(out),
        }
    }
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_to(f)
    }
}

impl From<Atom> for Literal {
    fn from(a: Atom) -> Self {
        Literal::Atom(a)
    }
}

impl From<Cmp> for Literal {
    fn from(c: Cmp) -> Self {
        Literal::Cmp(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Value;

    #[test]
    fn negation_is_involutive_and_complementary() {
        for op in [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            assert_eq!(op.negate().negate(), op);
            for (a, b) in [(1, 2), (2, 2), (3, 2)] {
                assert_eq!(op.eval(&a, &b), !op.negate().eval(&a, &b));
                assert_eq!(op.eval(&a, &b), op.flip().eval(&b, &a));
            }
        }
    }

    #[test]
    fn ground_eval() {
        let c = Cmp::new(Term::int(5), CmpOp::Gt, Term::int(3));
        assert_eq!(c.eval_ground(), Some(true));
        assert!(c.is_trivially_true());
        assert!(c.negate().is_trivially_false());
        let open = Cmp::new(Term::var("X"), CmpOp::Gt, Term::int(3));
        assert_eq!(open.eval_ground(), None);
        assert!(!open.is_trivially_true());
    }

    #[test]
    fn same_term_triviality() {
        let x = Term::var("X");
        assert!(Cmp::new(x, CmpOp::Eq, x).is_trivially_true());
        assert!(Cmp::new(x, CmpOp::Lt, x).is_trivially_false());
        assert!(Cmp::new(x, CmpOp::Le, x).is_trivially_true());
    }

    #[test]
    fn string_comparisons() {
        let c = Cmp::new(
            Term::Const(Value::str("alpha")),
            CmpOp::Lt,
            Term::Const(Value::str("beta")),
        );
        assert_eq!(c.eval_ground(), Some(true));
    }
}

#[cfg(test)]
mod implication_tests {
    use super::*;

    fn c(src: &str) -> Cmp {
        let r = crate::parser::parse_rule(&format!("p(X) :- q(X), {src}.")).unwrap();
        let cmp = *r.body_cmps().next().unwrap();
        cmp
    }

    #[test]
    fn identity_and_flip() {
        assert!(c("X > 3").implies(&c("X > 3")));
        assert!(c("X > 3").implies(&c("3 < X")));
        assert!(!c("X > 3").implies(&c("X < 3")));
    }

    #[test]
    fn strict_implies_nonstrict() {
        assert!(c("X < Y").implies(&c("X <= Y")));
        assert!(c("X > Y").implies(&c("X != Y")));
        assert!(c("X = Y").implies(&c("X <= Y")));
        assert!(!c("X <= Y").implies(&c("X < Y")));
    }

    #[test]
    fn constant_bounds() {
        assert!(c("X > 7").implies(&c("X > 3")));
        assert!(c("X > 7").implies(&c("X >= 7")));
        assert!(c("X >= 8").implies(&c("X > 7")));
        assert!(!c("X > 3").implies(&c("X > 7")));
        assert!(c("X = 5").implies(&c("X <= 9")));
        assert!(c("X = 5").implies(&c("X != 9")));
        assert!(!c("X = 9").implies(&c("X != 9")));
        assert!(c("X < 2").implies(&c("X != 5")));
        assert!(c("X != 5").implies(&c("X != 5")));
        assert!(!c("X != 5").implies(&c("X != 6")));
    }

    #[test]
    fn different_variables_never_imply() {
        assert!(!c("X > 7").implies(&c("Y > 3")));
    }

    #[test]
    fn tautologies_are_implied() {
        assert!(c("X > 7").implies(&c("X >= X")));
        assert!(c("X > 7").implies(&c("2 < 3")));
    }
}
