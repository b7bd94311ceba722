//! Error type shared by the language substrate.

use crate::atom::Pred;
use std::fmt;

/// Errors raised by parsing and static analysis.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Error {
    /// A syntax error at `line:col`.
    Parse {
        /// 1-based line.
        line: usize,
        /// 1-based column.
        col: usize,
        /// What went wrong.
        msg: String,
    },
    /// An arity clash, or a program outside the paper's class.
    Analysis(String),
    /// A body literal that never becomes runnable, or a head term the
    /// body does not bind.
    UnsafeRule {
        /// The offending rule, pretty-printed.
        rule: String,
        /// Why it is unsafe.
        detail: String,
    },
    /// A rule (or, with `fact`, a ground fact) defines a builtin predicate.
    DefinesBuiltin {
        /// The builtin.
        pred: Pred,
        /// True for a fact, false for a rule.
        fact: bool,
    },
    /// Negation inside a recursive cycle.
    NotStratified(String),
}

impl Error {
    /// Builds a parse error.
    pub fn parse(line: usize, col: usize, msg: impl Into<String>) -> Error {
        Error::Parse {
            line,
            col,
            msg: msg.into(),
        }
    }

    /// Builds an analysis error.
    pub fn analysis(msg: impl Into<String>) -> Error {
        Error::Analysis(msg.into())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Parse { line, col, msg } => write!(f, "parse error at {line}:{col}: {msg}"),
            Error::Analysis(msg) => write!(f, "analysis error: {msg}"),
            Error::UnsafeRule { rule, detail } => write!(f, "unsafe rule `{rule}`: {detail}"),
            Error::DefinesBuiltin { pred, fact } => {
                let what = if *fact { "fact" } else { "rule" };
                write!(f, "a {what} defines `{pred}`, which is a builtin predicate")
            }
            Error::NotStratified(msg) => write!(f, "not stratified: {msg}"),
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        assert_eq!(
            Error::parse(3, 7, "expected ')'").to_string(),
            "parse error at 3:7: expected ')'"
        );
        assert_eq!(Error::analysis("boom").to_string(), "analysis error: boom");
    }
}
