//! Native arithmetic builtin predicates, evaluated by the planner instead
//! of relation lookup:
//!
//! * `plus(X, Y, Z)`  ⇔ `X + Y = Z`
//! * `times(X, Y, Z)` ⇔ `X × Y = Z`
//!
//! A builtin atom is *runnable* once at least two of its three arguments
//! are bound: the third is computed (for `times`, the multiplicative modes
//! fail unless the division is exact and the divisor non-zero). With all
//! three bound it acts as a filter. Arithmetic is over `Value::Int` only
//! and fails (no answers) on strings or overflow rather than erroring —
//! arithmetic failure in a body just means the row doesn't qualify.
//!
//! Builtins are ordinary atoms syntactically (`p(X, Y, Z)` in rule
//! bodies), so the parser and the rest of the toolchain need no special
//! cases; the engine's planner intercepts them before relation resolution.
//!
//! **Termination caveat**: arithmetic makes Datalog's domain unbounded —
//! a rule like `dist(X, Y, N) :- dist(X, Z, M), e(Z, Y), plus(M, 1, N)`
//! diverges on cyclic data. Use
//! [`Budget::with_max_iterations`](crate::governor::Budget::with_max_iterations)
//! as a guard when data is not known acyclic.

use semrec_datalog::atom::Pred;
use semrec_datalog::term::Value;

/// The builtin operations.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BuiltinOp {
    /// `plus(X, Y, Z)` ⇔ X + Y = Z.
    Plus,
    /// `times(X, Y, Z)` ⇔ X × Y = Z.
    Times,
}

impl BuiltinOp {
    /// Recognizes a builtin predicate (all builtins have arity 3).
    pub fn of(pred: Pred) -> Option<BuiltinOp> {
        match pred.name() {
            "plus" => Some(BuiltinOp::Plus),
            "times" => Some(BuiltinOp::Times),
            _ => None,
        }
    }

    /// The arity every builtin has.
    pub const ARITY: usize = 3;

    /// Given the three argument values with exactly one unknown (`None`),
    /// computes it. Returns `None` when the mode is unsupported for the
    /// values (non-integers, inexact division, overflow).
    pub fn solve(self, args: [Option<Value>; 3]) -> Option<Value> {
        let int = |v: Value| match v {
            Value::Int(i) => Some(i),
            Value::Str(_) => None,
        };
        match (self, args) {
            (BuiltinOp::Plus, [Some(x), Some(y), None]) => {
                Some(Value::Int(int(x)?.checked_add(int(y)?)?))
            }
            (BuiltinOp::Plus, [Some(x), None, Some(z)]) => {
                Some(Value::Int(int(z)?.checked_sub(int(x)?)?))
            }
            (BuiltinOp::Plus, [None, Some(y), Some(z)]) => {
                Some(Value::Int(int(z)?.checked_sub(int(y)?)?))
            }
            (BuiltinOp::Times, [Some(x), Some(y), None]) => {
                Some(Value::Int(int(x)?.checked_mul(int(y)?)?))
            }
            (BuiltinOp::Times, [Some(x), None, Some(z)]) => exact_div(int(z)?, int(x)?),
            (BuiltinOp::Times, [None, Some(y), Some(z)]) => exact_div(int(z)?, int(y)?),
            _ => None,
        }
    }

    /// With all three bound: does the relation hold?
    pub fn check(self, x: Value, y: Value, z: Value) -> bool {
        self.solve([Some(x), Some(y), None]) == Some(z)
    }
}

fn exact_div(z: i64, d: i64) -> Option<Value> {
    if d == 0 || z % d != 0 {
        None
    } else {
        Some(Value::Int(z / d))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recognition() {
        assert_eq!(BuiltinOp::of(Pred::new("plus")), Some(BuiltinOp::Plus));
        assert_eq!(BuiltinOp::of(Pred::new("times")), Some(BuiltinOp::Times));
        assert_eq!(BuiltinOp::of(Pred::new("edge")), None);
    }

    #[test]
    fn plus_modes() {
        let i = Value::Int;
        assert_eq!(
            BuiltinOp::Plus.solve([Some(i(2)), Some(i(3)), None]),
            Some(i(5))
        );
        assert_eq!(
            BuiltinOp::Plus.solve([Some(i(2)), None, Some(i(5))]),
            Some(i(3))
        );
        assert_eq!(
            BuiltinOp::Plus.solve([None, Some(i(3)), Some(i(5))]),
            Some(i(2))
        );
        assert!(BuiltinOp::Plus.check(i(2), i(3), i(5)));
        assert!(!BuiltinOp::Plus.check(i(2), i(3), i(6)));
    }

    #[test]
    fn times_modes_and_exactness() {
        let i = Value::Int;
        assert_eq!(
            BuiltinOp::Times.solve([Some(i(4)), Some(i(3)), None]),
            Some(i(12))
        );
        assert_eq!(
            BuiltinOp::Times.solve([Some(i(4)), None, Some(i(12))]),
            Some(i(3))
        );
        // Inexact or zero divisions fail.
        assert_eq!(
            BuiltinOp::Times.solve([Some(i(5)), None, Some(i(12))]),
            None
        );
        assert_eq!(
            BuiltinOp::Times.solve([Some(i(0)), None, Some(i(12))]),
            None
        );
        assert_eq!(BuiltinOp::Times.solve([Some(i(0)), None, Some(i(0))]), None);
    }

    #[test]
    fn strings_and_overflow_fail_softly() {
        assert_eq!(
            BuiltinOp::Plus.solve([Some(Value::str("a")), Some(Value::Int(1)), None]),
            None
        );
        assert_eq!(
            BuiltinOp::Plus.solve([Some(Value::Int(i64::MAX)), Some(Value::Int(1)), None]),
            None
        );
    }
}
