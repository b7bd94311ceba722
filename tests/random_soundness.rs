//! Randomized whole-pipeline soundness: random data over the soundness
//! families is *repaired* (a bounded chase) to satisfy the ICs, and every
//! route of the matrix in `common/routes.rs` must then agree with the
//! naive oracle — the optimized program on every IDB relation among
//! them — while the random transactions after it may break a constraint,
//! which the maintained and served routes must notice and degrade on.

mod common;

use common::cases::families;
use common::routes::check_all;

#[test]
fn optimizer_sound_on_repaired_random_data() {
    let counts = check_all(families(0..40));
    assert!(counts["degraded"] > 0, "no transaction broke a constraint");
}
