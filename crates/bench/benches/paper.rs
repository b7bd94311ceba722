//! Micro-benchmarks timing the hot closures of the E1/E2 experiments.
//!
//! Gated behind the off-by-default `criterion` feature and implemented
//! with plain `std::time` loops (the external criterion crate is gone per
//! the offline-build policy; the feature name is kept so existing
//! `--features criterion` invocations still work):
//!
//! ```sh
//! cargo bench -p semrec-bench --features criterion
//! ```
//!
//! For the engine-level fixpoint benchmark (`BENCH_fixpoint.json`) use
//! `harness bench` instead.

use semrec_bench::experiments::plan_for;
use semrec_engine::{evaluate, Strategy};
use semrec_gen::{fanout, parse_scenario, university};
use std::hint::black_box;
use std::time::Instant;

/// Times `f` over `iters` runs after one warmup, reporting the mean.
fn bench(name: &str, iters: usize, mut f: impl FnMut()) {
    f(); // warmup
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    let total = start.elapsed();
    println!(
        "{name:<44} {:>10.3} ms/iter ({iters} iters)",
        total.as_secs_f64() * 1e3 / iters as f64
    );
}

fn main() {
    // E1 — atom elimination: original vs optimized evaluation.
    let s = parse_scenario(fanout::PROGRAM);
    let plan = plan_for(&s, &[]);
    for fo in [4usize, 32] {
        let db = fanout::generate(&fanout::FanoutParams {
            nodes: 150,
            extra_edges: 80,
            fanout: fo,
            seed: 1,
        });
        bench(&format!("e1/fanout_original/{fo}"), 10, || {
            black_box(evaluate(&db, &plan.rectified, Strategy::SemiNaive).unwrap());
        });
        bench(&format!("e1/fanout_optimized/{fo}"), 10, || {
            black_box(evaluate(&db, &plan.program, Strategy::SemiNaive).unwrap());
        });
    }

    // E2 — atom introduction on the university eval_support chain.
    let s = parse_scenario(university::PROGRAM);
    let with = plan_for(&s, &["doctoral"]);
    let without = plan_for(&s, &[]);
    let db = university::generate(&university::UniversityParams {
        students: 300,
        ..university::UniversityParams::default()
    });
    bench("e2/university_no_introduction", 10, || {
        black_box(evaluate(&db, &without.program, Strategy::SemiNaive).unwrap());
    });
    bench("e2/university_with_introduction", 10, || {
        black_box(evaluate(&db, &with.program, Strategy::SemiNaive).unwrap());
    });
}
