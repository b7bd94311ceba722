//! # semrec-datalog
//!
//! The language substrate for the `semrec` workspace: a function-free
//! Datalog dialect with evaluable comparison predicates, integrity
//! constraints expressed as implications, a parser for the Prolog-like
//! surface syntax used by the paper, and the static analyses the paper's
//! framework assumes (rectification, connectivity, linear-recursion
//! classification, safety), judged once by `analysis::check`.
//!
//! This crate has no evaluation machinery — see `semrec-engine` — and no
//! optimization machinery — see `semrec-core`.

#![warn(missing_docs)]

pub mod analysis;
pub mod atom;
pub mod constraint;
pub mod error;
pub mod facts;
pub mod literal;
pub mod parser;
pub mod program;
pub mod rule;
pub mod subst;
pub mod symbol;
pub mod term;
pub mod unify;
pub mod word;

pub use atom::{Atom, Pred};
pub use constraint::{Constraint, IcHead};
pub use error::Error;
pub use facts::Facts;
pub use literal::{Cmp, CmpOp, Literal};
pub use parser::{parse_atom, parse_constraints, parse_rule, parse_unit, Unit};
pub use program::Program;
pub use rule::Rule;
pub use subst::Subst;
pub use symbol::Symbol;
pub use term::{Term, Value};
pub use word::Word;
