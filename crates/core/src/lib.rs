//! # semrec-core
//!
//! The paper's contribution: semantic optimization of linear recursive
//! Datalog programs by computing *free residues* of integrity constraints
//! w.r.t. expansion sequences (§2–§3, Algorithm 3.1) and *pushing* them
//! inside the recursion by program transformation (§4, Algorithm 4.1 +
//! atom elimination / atom introduction / subtree pruning).
//!
//! Entry point: [`optimizer::Optimizer`].

#![warn(missing_docs)]

pub mod cleanup;
pub mod detect;
pub mod expand;
pub mod graph;
pub mod hom;
pub mod maintain;
pub mod occurs;
pub mod optimizer;
pub mod push;
pub mod residue;
pub mod sequence;
pub mod subsume;

pub use detect::{detect, DetectStats, Detection, DetectionMethod};
pub use maintain::{MaintainError, MaintainedQuery, UpdateOutcome};
pub use optimizer::{
    evaluate_routed, route_alternatives, GovernedOutcome, Optimizer, OptimizerConfig, Plan,
};
pub use residue::{Residue, ResidueHead};
pub use sequence::{unfold, Unfolding};
