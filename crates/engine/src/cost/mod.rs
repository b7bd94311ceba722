//! Cost-based route planning: EDB statistics, size-bound cardinality
//! estimation over compiled plans, and a plan-alternative memo.
//!
//! The paper's framework assumes pushing semantics (residues, integrity
//! constraints) into recursion always pays; measured end-to-end that is
//! no longer obviously true — the engine's dynamic existential
//! short-circuit captures much of the static rewrite's win, and the
//! optimized-vs-rectified gap on the gen workloads has collapsed to
//! ~1.1–1.25x. This module decides *when* each rewrite pays:
//!
//! - [`stats`] collects per-relation statistics off the EDB — row
//!   counts, per-column-subset distinct counts and fanout histograms
//!   read straight from the dictionary indexes ([`crate::relation::
//!   Relation::key_distribution`], nearly free) — cached per
//!   [`crate::relation::Relation::generation`] so incremental
//!   transactions invalidate exactly what changed.
//! - [`estimate`] walks compiled plans ([`crate::plan::CompiledRule`],
//!   preferring the [`crate::plan::BatchKernel`] shape when present)
//!   and simulates the semi-naive fixpoint round by round: each rule's
//!   per-round output is its seed cardinality times the product of
//!   probe fanouts, per-predicate totals are capped by column-domain
//!   products derived by a monotone domain-propagation fixpoint (the
//!   *Size Bound-Adorned Datalog* idea: size bounds from EDB statistics
//!   plus rule shape), and iteration stops at a depth cap. The result
//!   is a per-program estimate in rows, bytes, and cumulative work.
//! - [`memo`] compiles each enumerated rewrite alternative (original /
//!   rectified / residue-pushed / magic / factored) once, prices it off
//!   those plans, and selects the cheapest route, whose priced plans are
//!   the plans that run.
//!
//! The `semrec-core` crate plugs this into the governed evaluation
//! entry points: the route ladder's *order* is gone — the route is
//! whatever alternative the memo prices cheapest, with the runner-up
//! recorded in [`RouteChoice`] for `semrec explain` and the bench
//! harness's predicted-vs-actual routing section.

pub mod estimate;
pub mod memo;
pub mod stats;

pub use estimate::{ProgramEstimate, DEPTH_CAP};
pub use memo::{AlternativeKind, CostMemo, PlanAlternative, RouteChoice};
pub use stats::{ColumnGroupStats, EdbStats, RelationStats};
