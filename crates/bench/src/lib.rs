//! # semrec-bench
//!
//! The experiment suite (E1–E9) and table rendering for reproducing the
//! paper's claims. Run the printable harness with:
//!
//! ```sh
//! cargo run -p semrec-bench --release --bin harness -- all
//! ```
//!
//! The fixpoint throughput benchmark (`BENCH_fixpoint.json`) runs via
//! `harness bench`; std-only micro-benchmarks live in `benches/` behind
//! the off-by-default `criterion` feature.

#![warn(missing_docs)]

pub mod baseline;
pub mod experiments;
pub mod fixpoint;
pub mod serve;
pub mod table;
