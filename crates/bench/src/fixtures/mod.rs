//! Evaluation models the experiments compare the product against. None
//! of them is a product path: `semrec` evaluates every program with the
//! one bottom-up executor, under one budget and governor. These exist so
//! E3c/E3d (tabled top-down and depth-bounded SLD, the evaluation models
//! the paper's pruning argument presumes) and E4 (the evaluation-based
//! baseline that re-derives residues every round) can be measured, and
//! so `tests/equivalence.rs::three_engines_agree` and
//! `tests/baseline_and_detection.rs` can hold them to the executor's
//! answers.

pub mod runtime_baseline;
pub mod sld;
pub mod topdown;
