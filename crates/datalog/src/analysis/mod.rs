//! Static analysis: dependency graphs, recursion classification,
//! rectification, safety, connectivity, and the paper's assumption bundle.

pub mod connect;
pub mod deps;
pub mod rectify;
pub mod recursion;
pub mod safety;
pub mod validate;

pub use connect::{constraint_is_connected, rule_is_connected};
pub use deps::DepGraph;
pub use rectify::{rectify, HeadVars};
pub use recursion::{classify_linear, classify_linear_pred, reachable_preds, RecursionInfo};
pub use safety::{bindable_vars, check_program_safety, program_is_safe, unsafe_vars};
pub use validate::{check_arities, validate};
