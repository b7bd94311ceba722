//! The yardstick: a fixed piece of work that the cold CLI processes are
//! timed against (`e2e.rs`, `cli_workload`; README.md says why).
//!
//! This sandbox's speed changes by a factor of up to 2.5 for seconds to
//! minutes at a time, for every process alike, so a wall time alone says
//! more about the minute it was taken in than about the program. A cold
//! yardstick process runs before and after every product process, and
//! the product's time is reported as a multiple of its neighbours'.
//!
//! Two kinds, because the sandbox does not slow all work alike: `table`
//! (allocate, hash, group, sort: 35 MB touched, what a fixpoint does to
//! memory) slows the way `semrec run` does, `sort` (compare and move
//! within 1 MiB, inside the second-level cache) the way `semrec optimize`
//! does. Measured over 20-second windows, a matching pair's times move
//! together with a log-log slope of 0.9–1.3; `semrec optimize` against a
//! sort that streams through memory gave 0.6, and its scaled times were
//! five times as noisy.
//!
//! **Frozen.** Every `op_*_ms` of the CLI workloads is a multiple of this
//! work: change it, or its nominal times in `e2e.rs`, only with a benchmark
//! issue that re-measures the baseline.
//!
//! ```text
//! yardstick table|sort
//! ```

use std::collections::HashMap;
use std::hint::black_box;
use std::process::ExitCode;

const TABLE_ROWS: u64 = 600_000;
const SORT_ROUNDS: u64 = 40;
const SORT_KEYS: usize = 1 << 17;

/// SplitMix64's output function over a counter.
fn mix(i: u64) -> u64 {
    let mut z = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Groups rows under hashed keys into many small vectors, then flattens,
/// sorts and dedups them.
fn table() -> usize {
    let mut groups: HashMap<u64, Vec<u32>> = HashMap::new();
    for i in 0..TABLE_ROWS {
        let key = mix(i) % (TABLE_ROWS / 4);
        groups.entry(key).or_default().push(i as u32);
    }
    let mut rows: Vec<(u64, u32)> = groups
        .iter()
        .flat_map(|(k, v)| v.iter().map(move |x| (*k, *x)))
        .collect();
    rows.sort_unstable();
    rows.dedup();
    rows.len()
}

/// Fills the same array with fresh keys and sorts it, over and over.
fn sort() -> usize {
    let mut keys = vec![0u64; SORT_KEYS];
    let mut seen = 0;
    for round in 0..SORT_ROUNDS {
        for (i, key) in keys.iter_mut().enumerate() {
            *key = mix(round * SORT_KEYS as u64 + i as u64);
        }
        keys.sort_unstable();
        seen ^= keys[SORT_KEYS / 2] as usize;
    }
    seen
}

fn main() -> ExitCode {
    let kind = std::env::args().nth(1);
    let done = match kind.as_deref() {
        Some("table") => table(),
        Some("sort") => sort(),
        _ => {
            eprintln!("usage: yardstick table|sort");
            return ExitCode::from(2);
        }
    };
    black_box(done);
    ExitCode::SUCCESS
}
