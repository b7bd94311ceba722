//! Evaluation models and reference constructions the experiments compare
//! the product against. None of them is a product path: `semrec`
//! evaluates every program with the one bottom-up executor, under one
//! budget and governor. These exist so E3c/E3d (tabled top-down and
//! depth-bounded SLD, the evaluation models the paper's pruning argument
//! presumes), E4 (the evaluation-based baseline that re-derives residues
//! every round) and E8 (Algorithm 4.1's verbatim α/β/γ isolation) can be
//! measured, and so `tests/equivalence.rs::three_engines_agree`,
//! `tests/baseline_and_detection.rs` and the route matrix
//! (`tests/common/routes.rs`) can hold them to the executor's answers.

pub mod isolate;
pub mod runtime_baseline;
pub mod sld;
pub mod topdown;
