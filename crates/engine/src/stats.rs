//! Evaluation instrumentation.
//!
//! The paper's claims are about *work avoided* (joins eliminated, scans
//! reduced, subtrees pruned) and *run-time overhead*. These counters make
//! that work observable independently of wall-clock noise, and the E1–E4
//! experiment tables report them next to timings.

use std::fmt;
use std::ops::AddAssign;

/// Work counters accumulated during an evaluation.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct Stats {
    /// Fixpoint rounds executed.
    pub iterations: u64,
    /// Compiled-plan executions (rule × variant × round).
    pub rule_firings: u64,
    /// Index probes issued by scan steps.
    pub probes: u64,
    /// Rows examined by scan steps (after index narrowing).
    pub rows_scanned: u64,
    /// Guard evaluations: comparisons, builtin checks and solves, and
    /// negated-subgoal membership tests.
    pub cmp_evals: u64,
    /// Head tuples produced (including duplicates).
    pub derived: u64,
    /// Head tuples that were new.
    pub inserted: u64,
    /// Rows yielded by index probes after lazy liveness/range filtering
    /// of dictionary groups (a subset of `rows_scanned`; full scans
    /// don't count here). Batch kernels charge group-level probe work
    /// per member — a split or batched group reports the same counts as
    /// tuple-at-a-time execution would.
    pub probe_hits: u64,
    /// Plan executions: every one runs the batch kernel pipeline
    /// (chunked gather → group → probe-run → emit; DESIGN.md §13),
    /// so this equals `rule_firings`.
    pub kernel_firings: u64,
    /// Always 0: there is no other executor. Kept only because
    /// `benchmark/src/bin/layers.rs` reads it (benchmark/README.md,
    /// *Frozen surfaces (b)*); the next benchmark issue drops it.
    pub interp_firings: u64,
    /// High-water mark of reusable per-worker task scratch, in bytes.
    /// Max-merged (not summed) across workers; steady-state rounds must
    /// keep this flat — it is the observable witness that the join
    /// kernels do zero heap allocation per derived row.
    pub scratch_hw_bytes: u64,
    /// Groups the batch kernel walked: runs of gathered seed rows
    /// sharing one depth-0 dictionary code (a key absent from the
    /// dictionary forms none), each paying its deeper key resolutions
    /// once. A physical counter like `dict_probes`: it moves with the
    /// grouping unit, the logical counters do not.
    pub groups: u64,
    /// Gathered chunks the batch kernel had to partition by code
    /// because some depth-0 code (by its low 16 bits) repeated in them;
    /// a chunk of singleton groups is walked in gather order. Physical.
    pub sorted_chunks: u64,
    /// Dictionary-map probes the batch pipeline actually paid (a
    /// [`crate::relation::CodeMap`] walk behind `ProbeHandle::encode`):
    /// one per gathered seed row at depth 0, one per deeper key
    /// resolution.
    pub dict_probes: u64,
    /// Wall nanoseconds spent in the cost planner (statistics
    /// collection, alternative estimation, route selection) before
    /// evaluation started. 0 for unplanned (direct) evaluations. Gated
    /// in the bench harness at <2% of evaluation time.
    pub plan_nanos: u64,
}

impl AddAssign for Stats {
    fn add_assign(&mut self, rhs: Stats) {
        self.iterations += rhs.iterations;
        self.rule_firings += rhs.rule_firings;
        self.probes += rhs.probes;
        self.rows_scanned += rhs.rows_scanned;
        self.cmp_evals += rhs.cmp_evals;
        self.derived += rhs.derived;
        self.inserted += rhs.inserted;
        self.probe_hits += rhs.probe_hits;
        self.kernel_firings += rhs.kernel_firings;
        self.interp_firings += rhs.interp_firings;
        self.scratch_hw_bytes = self.scratch_hw_bytes.max(rhs.scratch_hw_bytes);
        self.groups += rhs.groups;
        self.sorted_chunks += rhs.sorted_chunks;
        self.dict_probes += rhs.dict_probes;
        self.plan_nanos += rhs.plan_nanos;
    }
}

impl fmt::Display for Stats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "iters={} firings={} probes={} hits={} rows={} cmps={} derived={} \
             inserted={} kernel={} interp={} scratch_hw={}B groups={} sorts={} dict={} \
             plan_ms={:.3}",
            self.iterations,
            self.rule_firings,
            self.probes,
            self.probe_hits,
            self.rows_scanned,
            self.cmp_evals,
            self.derived,
            self.inserted,
            self.kernel_firings,
            self.interp_firings,
            self.scratch_hw_bytes,
            self.groups,
            self.sorted_chunks,
            self.dict_probes,
            self.plan_nanos as f64 / 1e6
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_assign_accumulates() {
        let mut a = Stats {
            iterations: 1,
            rows_scanned: 10,
            ..Stats::default()
        };
        a += Stats {
            iterations: 2,
            derived: 5,
            ..Stats::default()
        };
        assert_eq!(a.iterations, 3);
        assert_eq!(a.rows_scanned, 10);
        assert_eq!(a.derived, 5);
    }

    #[test]
    fn scratch_high_water_merges_by_max() {
        let mut a = Stats {
            scratch_hw_bytes: 4096,
            ..Stats::default()
        };
        a += Stats {
            scratch_hw_bytes: 1024,
            ..Stats::default()
        };
        assert_eq!(a.scratch_hw_bytes, 4096, "hw is a max, not a sum");
        a += Stats {
            scratch_hw_bytes: 8192,
            ..Stats::default()
        };
        assert_eq!(a.scratch_hw_bytes, 8192);
    }
}
