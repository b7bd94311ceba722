//! Static analysis: dependency graphs, recursion classification,
//! rectification, safety, connectivity, and [`check`], the one front door
//! that judges a program by the evaluation rules and the paper's class.

pub mod check;
pub mod connect;
pub mod deps;
pub mod rectify;
pub mod recursion;
pub mod safety;

pub use check::{check, validate, Checked};
pub use connect::{constraint_is_connected, rule_is_connected};
pub use deps::DepGraph;
pub use rectify::{rectify, HeadVars};
pub use recursion::{classify_linear, classify_linear_pred, RecursionInfo};
pub use safety::{is_builtin, unsafe_detail, BUILTINS, BUILTIN_ARITY};
