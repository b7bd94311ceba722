//! # semrec-engine
//!
//! The evaluation substrate: an in-memory bottom-up Datalog engine with
//! one evaluator — a semi-naive fixpoint in which every rule runs as the
//! batch kernel its plan compiles to ([`plan::BatchKernel`]), under one
//! budget and governor — plus evaluable comparison predicates, work
//! counters, cost-based routing, incremental maintenance, and the
//! magic-sets and factoring rewrites for goal-directed evaluation.
//! Goal direction is a program transformation feeding the same
//! executor; the top-down models the experiments compare against live
//! in the bench crate's fixtures, not here.
//!
//! The engine deliberately supports a *larger* class than the paper's input
//! programs (arbitrary positive Datalog with comparisons, including mutual
//! recursion), because the paper's §4 isolation transformation produces
//! mutually recursive auxiliary predicates.

#![warn(missing_docs)]

mod append_buf;
pub mod builtins;
pub mod cost;
pub mod database;
pub mod error;
pub mod eval;
pub mod explain;
#[cfg(feature = "failpoints")]
pub mod failpoint;
pub mod fxhash;
pub mod governor;
pub mod incr;
pub mod io;
pub mod magic;
pub mod plan;
pub mod relation;
pub mod stats;

pub use cost::{
    AlternativeKind, ColumnGroupStats, CostMemo, EdbStats, PlanAlternative, ProgramEstimate,
    RelationStats, RouteChoice,
};
pub use database::{int_tuple, Database};
pub use error::EngineError;
pub use eval::{
    answer_goal, answer_goal_rows_polled, evaluate, goal_bindings, scan_goal, EvalResult,
    Evaluator, GoalBindings, Prepared, Route, Strategy,
};
pub use governor::{Budget, CancelToken};
pub use incr::{
    tx_to_stream, Materialized, Tx, TxDelta, TxStreamError, TxStreamEvent, TxStreamParser,
    UpdateStats,
};
pub use relation::{CodeMap, Relation, RowRange, Snapshot, Tuple};
pub use stats::Stats;
