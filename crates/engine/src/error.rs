//! Engine error type.

use std::fmt;

/// Errors raised by compilation and evaluation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum EngineError {
    /// A rule cannot be compiled because some variable cannot be bound.
    UnsafeRule {
        /// The offending rule, pretty-printed.
        rule: String,
        /// Why it is unsafe.
        detail: String,
    },
    /// A predicate is used with inconsistent arity.
    ArityMismatch(String),
    /// A rule head names a builtin predicate (`plus`, `times`), which
    /// rules cannot define.
    BuiltinHead(String),
    /// The iteration limit was exceeded before reaching a fixpoint.
    IterationLimit(usize),
    /// The program uses negation inside a recursive cycle.
    NotStratified(String),
    /// A data import/export failure.
    Io(String),
    /// The evaluation was cancelled through a
    /// [`CancelToken`](crate::governor::CancelToken).
    Cancelled,
    /// The evaluation's wall-clock deadline passed. Cooperative checks
    /// inside scan loops make this fire mid-round, so `elapsed_ms` stays
    /// close to the requested deadline even on long rounds.
    DeadlineExceeded {
        /// Wall-clock milliseconds elapsed when the deadline tripped.
        elapsed_ms: u64,
    },
    /// A resource budget other than the deadline was exhausted.
    BudgetExceeded {
        /// Which budget tripped (`"idb_rows"` or `"resident_bytes"`).
        resource: &'static str,
        /// The configured limit.
        limit: u64,
        /// The measured usage that exceeded it.
        used: u64,
    },
    /// An evaluation panicked and the governed runner caught it. The
    /// round's partial derivations were discarded; committed relations
    /// stay valid.
    WorkerPanicked {
        /// The failing job kind (`"eval"`).
        job: String,
        /// The panic payload, stringified.
        payload: String,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::UnsafeRule { rule, detail } => {
                write!(f, "unsafe rule `{rule}`: {detail}")
            }
            EngineError::ArityMismatch(msg) => write!(f, "arity mismatch: {msg}"),
            EngineError::BuiltinHead(pred) => {
                write!(f, "a rule defines `{pred}`, which is a builtin predicate")
            }
            EngineError::IterationLimit(n) => {
                write!(f, "fixpoint not reached within {n} iterations")
            }
            EngineError::NotStratified(msg) => write!(f, "not stratified: {msg}"),
            EngineError::Io(msg) => write!(f, "io error: {msg}"),
            EngineError::Cancelled => write!(f, "evaluation cancelled"),
            EngineError::DeadlineExceeded { elapsed_ms } => {
                write!(f, "deadline exceeded after {elapsed_ms} ms")
            }
            EngineError::BudgetExceeded {
                resource,
                limit,
                used,
            } => write!(
                f,
                "budget exceeded: {resource} used {used} of limit {limit}"
            ),
            EngineError::WorkerPanicked { job, payload } => {
                write!(f, "worker panicked in {job}: {payload}")
            }
        }
    }
}

impl std::error::Error for EngineError {}

impl From<semrec_datalog::Error> for EngineError {
    fn from(e: semrec_datalog::Error) -> Self {
        EngineError::ArityMismatch(e.to_string())
    }
}
