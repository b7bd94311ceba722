//! # semrec-engine
//!
//! The evaluation substrate: an in-memory bottom-up Datalog engine with
//! a semi-naive fixpoint, indexed nested-loop joins,
//! evaluable comparison predicates, work counters, and a magic-sets
//! rewriting for goal-directed evaluation.
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
pub mod sld;
pub mod stats;
pub mod topdown;

pub use cost::{
    AlternativeKind, ColumnGroupStats, CostMemo, EdbStats, Estimator, PlanAlternative,
    ProgramEstimate, RelationStats, RouteChoice, RuleEstimate,
};
pub use database::{int_tuple, Database};
pub use error::EngineError;
pub use eval::{
    answer_goal, answer_goal_polled, answer_goal_rows_polled, evaluate, goal_bindings, EvalResult,
    Evaluator, GoalBindings, Prepared, Route, Strategy,
};
pub use governor::{Budget, CancelToken};
pub use incr::{
    tx_to_stream, Materialized, Tx, TxDelta, TxStreamError, TxStreamEvent, TxStreamParser,
    UpdateStats,
};
pub use relation::{CodeMap, Relation, RowRange, Snapshot, Tuple};
pub use stats::Stats;
