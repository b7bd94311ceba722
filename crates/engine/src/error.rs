//! Engine error type.

use std::fmt;

/// Errors raised by compilation and evaluation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum EngineError {
    /// A program that breaks an evaluation rule of
    /// `semrec_datalog::analysis::check` — an unsafe rule, a rule or fact
    /// defining a builtin, negation inside a recursive cycle — in its text.
    Invalid(semrec_datalog::Error),
    /// A predicate is used with inconsistent arity.
    ArityMismatch(String),
    /// The iteration limit was exceeded before reaching a fixpoint.
    IterationLimit(usize),
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
            EngineError::Invalid(e) => write!(f, "{e}"),
            EngineError::ArityMismatch(msg) => write!(f, "arity mismatch: {msg}"),
            EngineError::IterationLimit(n) => {
                write!(f, "fixpoint not reached within {n} iterations")
            }
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

/// An arity clash is an `ArityMismatch`; any other judgment of
/// `semrec_datalog::analysis::check` is `Invalid`.
impl From<semrec_datalog::Error> for EngineError {
    fn from(e: semrec_datalog::Error) -> Self {
        match e {
            semrec_datalog::Error::Analysis(msg) => EngineError::ArityMismatch(msg),
            e => EngineError::Invalid(e),
        }
    }
}
