//! Shared by the benchmark's bins: seeded inputs with their oracles, and
//! reporting. Deliberately free of product crates (see `bin/e2e.rs`).

pub mod gen;
pub mod json;
pub mod report;
