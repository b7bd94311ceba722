//! The route matrix's own runs: the regression corpus, and every case
//! generator at ten times the seeds the suites run.
//!
//! `tests/regressions/NAME.dl` is a unit — rules, constraints, facts —
//! with an optional `NAME.tx` in the transaction-stream syntax
//! (`+fact.`, `-fact.`, `commit.`). Each goes through `check` as it is;
//! a shrunk disagreement is added here as one more pair of files.

mod common;

use common::cases::{self, tiered};
use common::routes::{check, check_all, Case};

#[test]
fn regressions_agree() {
    let units = cases::regressions();
    assert!(units.len() >= 2, "{} units", units.len());
    for case in units {
        check(&case);
    }
}

/// Ten times each generator's tier-1 seeds, fresh ones, one generator
/// after the other; where the suites check some seeds through the static
/// routes only, ten times as many of those too.
#[test]
#[ignore = "ten times the tier-1 seed budget; scripts/check.sh runs it"]
fn every_generator_at_ten_times_the_seeds() {
    type Generator = fn() -> Vec<Case>;
    let runs: [(&str, Generator); 7] = [
        ("samples", || cases::samples(1..11)),
        ("families", || cases::families(55..605)),
        ("workloads", || tiered(cases::workloads(100..580), 60 * 5)),
        ("kernel shapes", || {
            tiered(cases::kernel_shapes(2..22), 10 * 9)
        }),
        ("streams", || {
            let fanout = cases::tx_streams("fanout", 3..33);
            fanout
                .into_iter()
                .chain(cases::tx_streams("genealogy", 3..33))
                .collect()
        }),
        ("constraints", || cases::random_constraints(48..528)),
        ("random programs", || {
            let kinds = [
                ("anc", 480, 160),
                ("closure", 960, 640),
                ("acyclic", 480, 480),
                ("random linear", 320, 160),
            ];
            let each = |(kind, n, full): (&str, u64, usize)| {
                tiered(cases::random_programs(kind, 96..96 + n), full)
            };
            kinds.into_iter().flat_map(each).collect()
        }),
    ];
    for (name, cases) in runs {
        let counts = check_all(cases());
        eprintln!("{name}: {counts:?}");
    }
}
