//! Emission and drain: the round's flat buffer of derived head rows and
//! its dedup into the IDB relations.

use crate::fxhash::{hash_slice, FxHashMap};
use crate::relation::Relation;
use crate::stats::Stats;
use semrec_datalog::atom::Pred;
use semrec_datalog::word::Word;

/// One run of consecutive same-predicate tuples in a [`DerivedBuf`]:
/// rows `[row_start, next run's row_start)` (or to the buffer's end),
/// laid out back to back from `data_start` with `arity` values each.
#[derive(Clone, Copy, Debug)]
struct DerivedRun {
    pred: Pred,
    row_start: u32,
    data_start: u32,
    arity: u32,
}

/// Flat buffer of derived head rows: one `Vec<Word>` shared by every
/// tuple a round derives, instead of one heap allocation per tuple. Each
/// tuple's FxHash is computed once at derivation time and carried along,
/// so the drain's dedup probe and final insertion reuse it.
/// Tasks emit rule-at-a-time, so tuples form long single-predicate runs;
/// recording one [`DerivedRun`] per run instead of a `(pred, start,
/// end)` entry per tuple keeps the steady-state emission cost at the 24
/// bytes of data+hash of a two-column row.
#[derive(Default, Debug)]
pub(super) struct DerivedBuf {
    /// Non-empty runs, in emission order.
    runs: Vec<DerivedRun>,
    /// `hashes[i]` is the content hash of the `i`-th tuple.
    hashes: Vec<u64>,
    data: Vec<Word>,
}

impl DerivedBuf {
    /// Books one row whose `arity` values were just appended to `data`,
    /// extending the current run or opening a new one.
    #[inline]
    fn note_row(&mut self, pred: Pred, arity: u32, h: u64) {
        let run = matches!(self.runs.last(), Some(r) if r.pred == pred && r.arity == arity);
        if !run {
            self.runs.push(DerivedRun {
                pred,
                row_start: self.hashes.len() as u32,
                data_start: self.data.len() as u32 - arity,
                arity,
            });
        }
        self.hashes.push(h);
    }

    /// Appends a head tuple: values stream straight into the buffer and
    /// are hashed in place.
    #[inline]
    pub(super) fn push(&mut self, pred: Pred, vals: impl Iterator<Item = Word>) {
        let start = self.data.len();
        self.data.extend(vals);
        let arity = (self.data.len() - start) as u32;
        let h = hash_slice(&self.data[start..]);
        self.note_row(pred, arity, h);
    }

    /// [`DerivedBuf::push`] for a row already materialized in a caller
    /// buffer: one hash, one slice copy, no staging iterator.
    #[inline]
    pub(super) fn push_row(&mut self, pred: Pred, row: &[Word]) {
        self.data.extend_from_slice(row);
        self.note_row(pred, row.len() as u32, hash_slice(row));
    }

    /// Empties the buffer, keeping every allocation for reuse.
    pub(super) fn clear(&mut self) {
        self.runs.clear();
        self.hashes.clear();
        self.data.clear();
    }
}

/// The round's insertion path: drains the derived-tuple buffer straight
/// into the relations, reusing the derivation-time hashes.
pub(super) fn drain_serial(
    buf: &DerivedBuf,
    idb: &mut FxHashMap<Pred, Relation>,
    stats: &mut Stats,
) -> bool {
    // How far ahead of the insert cursor to prefetch membership slots:
    // far enough to cover a memory round-trip, near enough that the
    // lines survive in L1 (a grow() between issue and use only wastes
    // the hint).
    const PREFETCH: usize = 8;
    let nrows = buf.hashes.len();
    let mut any_new = false;
    // The buffer is already run-length encoded by predicate: resolve the
    // relation once per run, then drive the run with hash prefetches
    // ahead of the dedup probes.
    for (ri, run) in buf.runs.iter().enumerate() {
        let row_end = buf.runs.get(ri + 1).map_or(nrows, |r| r.row_start as usize);
        let (base, arity) = (run.data_start as usize, run.arity as usize);
        let rel = idb
            .get_mut(&run.pred)
            .expect("derived tuple for unknown idb predicate");
        let mut ins = 0usize;
        for i in run.row_start as usize..row_end {
            if i + PREFETCH < row_end {
                rel.prefetch_hash(buf.hashes[i + PREFETCH]);
            }
            let s = base + (i - run.row_start as usize) * arity;
            if rel.insert_hashed(&buf.data[s..s + arity], buf.hashes[i]) {
                ins += 1;
            }
        }
        stats.inserted += ins as u64;
        any_new |= ins > 0;
    }
    any_new
}
