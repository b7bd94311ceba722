//! # semrec-bench
//!
//! The experiment suite (E1–E9), the evaluation models only the
//! experiments use ([`fixtures`]), and table rendering for reproducing
//! the paper's claims. Run the printable harness with:
//!
//! ```sh
//! cargo run -p semrec-bench --release --bin harness -- all
//! ```
//!
//! The fixpoint throughput benchmark (`BENCH_fixpoint.json`) runs via
//! `harness bench`, the serving benchmark via `harness serve-bench`.

#![warn(missing_docs)]

pub mod baseline;
pub mod experiments;
pub mod fixpoint;
pub mod fixtures;
pub mod serve;
pub mod table;
