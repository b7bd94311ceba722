//! Terms and constant values.
//!
//! The language is function-free (Datalog), so a term is either a variable
//! or a constant. Constants are either 64-bit integers or interned strings;
//! both kinds are totally ordered so that the evaluable comparison
//! predicates (`<`, `<=`, …) are defined on every pair of values (integers
//! sort before strings, strings compare lexicographically).

use crate::symbol::Symbol;
use std::cmp::Ordering;
use std::fmt;

/// A constant value of the domain.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Value {
    /// A 64-bit signed integer.
    Int(i64),
    /// An interned string constant.
    Str(Symbol),
}

impl Value {
    /// String constant from a `&str`.
    pub fn str(s: &str) -> Value {
        Value::Str(Symbol::intern(s))
    }

    /// Integer constant.
    pub fn int(i: i64) -> Value {
        Value::Int(i)
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Str(a), Value::Str(b)) => a.as_str().cmp(b.as_str()),
            // Total order across kinds: all integers sort before all strings.
            (Value::Int(_), Value::Str(_)) => Ordering::Less,
            (Value::Str(_), Value::Int(_)) => Ordering::Greater,
        }
    }
}

impl Value {
    /// Writes the value as `Display` prints it, piece by piece through
    /// [`fmt::Write::write_str`]: an integer in decimal, a string as a
    /// constant identifier when it re-lexes as one, else quoted. No
    /// formatter flag is read, so a width is ignored.
    pub fn write_to<W: fmt::Write + ?Sized>(self, out: &mut W) -> fmt::Result {
        match self {
            Value::Int(i) => write_int(out, i),
            Value::Str(s) => {
                let t = s.as_str();
                // Quote anything that would not re-lex as a constant ident.
                let plain = t.as_bytes().first().is_some_and(u8::is_ascii_lowercase)
                    && t.bytes().all(|c| c.is_ascii_alphanumeric() || c == b'_');
                if plain {
                    out.write_str(t)
                } else {
                    crate::parser::write_str_literal(out, t)
                }
            }
        }
    }
}

/// Writes `i` in decimal from a stack buffer.
fn write_int<W: fmt::Write + ?Sized>(out: &mut W, i: i64) -> fmt::Result {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    let mut n = i.unsigned_abs();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    if i < 0 {
        out.write_str("-")?;
    }
    out.write_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"))
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_to(f)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::str(s)
    }
}

/// A term: a variable or a constant.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub enum Term {
    /// A named logical variable.
    Var(Symbol),
    /// A constant value.
    Const(Value),
}

impl Term {
    /// Variable term from a name.
    pub fn var(name: &str) -> Term {
        Term::Var(Symbol::intern(name))
    }

    /// Integer constant term.
    pub fn int(i: i64) -> Term {
        Term::Const(Value::Int(i))
    }

    /// String constant term.
    pub fn str(s: &str) -> Term {
        Term::Const(Value::str(s))
    }

    /// The variable name, if this is a variable.
    pub fn as_var(self) -> Option<Symbol> {
        match self {
            Term::Var(v) => Some(v),
            Term::Const(_) => None,
        }
    }

    /// The constant value, if this is a constant.
    pub fn as_const(self) -> Option<Value> {
        match self {
            Term::Var(_) => None,
            Term::Const(c) => Some(c),
        }
    }

    /// True if this term is a variable.
    pub fn is_var(self) -> bool {
        matches!(self, Term::Var(_))
    }
}

impl Term {
    /// Writes the term as `Display` prints it, through
    /// [`fmt::Write::write_str`] (see [`Value::write_to`]).
    pub fn write_to<W: fmt::Write + ?Sized>(self, out: &mut W) -> fmt::Result {
        match self {
            Term::Var(v) => out.write_str(v.as_str()),
            Term::Const(c) => c.write_to(out),
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_to(f)
    }
}

impl From<Value> for Term {
    fn from(v: Value) -> Self {
        Term::Const(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_total_order() {
        assert!(Value::int(1) < Value::int(2));
        assert!(Value::str("a") < Value::str("b"));
        assert!(Value::int(i64::MAX) < Value::str(""));
    }

    #[test]
    fn display_quotes_non_ident_strings() {
        assert_eq!(Value::str("executive").to_string(), "executive");
        assert_eq!(Value::str("Hello world").to_string(), "\"Hello world\"");
        assert_eq!(Value::str("CS").to_string(), "\"CS\"");
        assert_eq!(
            Value::str("λ \"q\" a\\b\r\0\u{1}").to_string(),
            r#""λ \"q\" a\\b\r\0\u{1}""#
        );
    }

    /// Every value prints in full whatever the width asked for, as when
    /// each was formatted through its own `write!`.
    #[test]
    fn display_ignores_width_and_prints_every_integer() {
        for i in [0, 7, -7, 10, 1 << 62, i64::MAX, i64::MIN] {
            assert_eq!(format!("{:>30}", Value::Int(i)), format!("{i}"));
            assert_eq!(Term::int(i).to_string(), format!("{i}"));
        }
        assert_eq!(
            format!("{:>9}|{:<9}|", Term::var("X"), Value::str("a")),
            "X|a|"
        );
    }

    #[test]
    fn term_accessors() {
        let v = Term::var("X");
        assert!(v.is_var());
        assert_eq!(v.as_var(), Some(Symbol::intern("X")));
        assert_eq!(v.as_const(), None);
        let c = Term::int(7);
        assert_eq!(c.as_const(), Some(Value::Int(7)));
        assert_eq!(c.as_var(), None);
    }
}
