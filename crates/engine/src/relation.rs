//! Append-only relations over *flat columnar storage* with lazily built,
//! incrementally extended hash indexes on column subsets — and the
//! read-only [`Snapshot`]s the serving layer publishes of them.
//!
//! Rows live in one contiguous buffer of [`Word`]s with an arity stride:
//! row `r` is the slice `data[r * arity .. (r + 1) * arity]`. A `Word` is
//! the 8-byte stored form of a `Value` (`semrec_datalog::word`), equal
//! iff the values are, so appending a row is a bulk copy into the flat
//! buffer, reading one is slicing, and hashing or comparing one touches
//! a machine word per value — no per-tuple heap allocation anywhere on
//! the fixpoint hot path. `Value` and [`Tuple`] stay the boundary types:
//! [`Relation::insert`], [`Relation::contains`] and [`Relation::delete`]
//! encode, [`Relation::sorted_tuples`] decodes. Dedup and the column indexes'
//! dictionaries are one slot table, [`CodeMap`], over FxHash (see
//! [`crate::fxhash`]); the indexes dictionary-encode key groups as dense
//! row-id runs. Both verify candidates by comparing the flat slices, so
//! they never own key vectors, and no per-row hash is stored: a hash is
//! recomputed from the row when a delete, revive or rebuild needs it.
//!
//! Rows are never *moved*, which makes semi-naive evaluation's
//! old/delta/total views simple row-id ranges: `old = [0, watermark)`,
//! `delta = [watermark, len)`, `total = [0, len)`. Deletion — needed by
//! the incremental maintenance layer's DRed pass — is by tombstone: the
//! row's dedup entry is removed and a dead bit set, so physical row ids
//! stay stable and membership stays correct, while iteration and probes
//! skip dead rows (a range view may straddle dead rows; every scan and
//! probe filters them). A tombstone is undone by [`Relation::revive`],
//! which is how a failed transaction rolls its deletes back. Dead rows
//! are reclaimed by [`Relation::compact_if_sparse`] only once they
//! outnumber the live ones — the rebuild costs O(rows) < 2 × dead, an
//! amortized O(1) per deleted row — so ordinary deletes keep row ids,
//! the index cache and the published index lineage.
//!
//! ## Snapshots: a watermark, not a copy
//!
//! The same monotonicity makes a consistent read-only view of a
//! relation nearly free. The row buffer is a shared append-only
//! allocation (`append_buf`, the one module holding this storage's
//! `unsafe`): the relation is its single writer and appends past every
//! reader's length, so a [`Snapshot`] is the allocation's `Arc`, a row
//! watermark, the `Arc` of the tombstone words (copied on the writer's
//! first delete after the snapshot was taken, never for an append) and
//! the relation's [stamp](Relation::stamp) — taken in O(1), with no
//! membership table. [`Relation::clone`] shares the rows the same way
//! and copies them only if the clone appends.
//!
//! What names a state is the **stamp** `(incarnation, generation)`. The
//! *incarnation* is a process-unique id of one append history of row
//! ids: minted by [`Relation::new`], re-minted whenever row ids stop
//! meaning what they meant (compaction, [`Relation::truncate`], a
//! clone's first append), inherited by [`Relation::clone`]. The
//! *generation* counts content changes within it. Snapshots of one
//! incarnation share one **index lineage**: the dictionary indexes
//! built by readers of an older snapshot are inherited by
//! [`Relation::snapshot_after`] and merely *extended* by the appended
//! rows on the next probe — an index may be ahead of the snapshot
//! probing it, which filters by its own watermark and tombstones as
//! every probe always has. A new incarnation starts a fresh lineage.
//! The writer's own index cache is never shared: a [`ProbeHandle`] into
//! it is a raw pointer whose contract forbids concurrent extension.

mod dict;

pub use dict::{CodeMap, KeyDistribution, ProbeHandle};

use crate::append_buf::AppendBuf;
use crate::fxhash::{hash_slice, FxHashMap};
use dict::{entry_index, IndexMap};
use semrec_datalog::term::Value;
use semrec_datalog::word::{self, Word};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// An owned database tuple (boundary type: results, test fixtures, I/O).
/// Inside the engine rows are `&[Word]` slices of the flat store.
pub type Tuple = Vec<Value>;

/// A half-open range of row ids, used to express old/delta/total views.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RowRange {
    /// First row id (inclusive).
    pub start: u32,
    /// One past the last row id.
    pub end: u32,
}

impl RowRange {
    /// True if `row` lies in the range.
    pub fn contains(self, row: u32) -> bool {
        self.start <= row && row < self.end
    }

    /// Number of rows in the range.
    pub fn len(self) -> usize {
        (self.end.saturating_sub(self.start)) as usize
    }

    /// True if the range is empty.
    pub fn is_empty(self) -> bool {
        self.start >= self.end
    }
}

/// The tombstone bitset over physical rows, one bit per row, lazily
/// allocated on first delete. The words are copy-on-write shared between a
/// relation and its snapshots: only a delete (or its undo) after a
/// snapshot was taken copies them.
#[derive(Clone, Debug, Default)]
struct Tombstones {
    words: Arc<Vec<u64>>,
    /// Number of set bits in `words`.
    count: usize,
}

impl Tombstones {
    /// True if physical row `r` is tombstoned.
    #[inline]
    fn is_dead(&self, r: u32) -> bool {
        self.count != 0
            && self
                .words
                .get(r as usize / 64)
                .is_some_and(|w| w & (1u64 << (r as usize % 64)) != 0)
    }

    /// Tombstones live row `r` of a store holding `nrows` rows.
    fn set(&mut self, r: usize, nrows: usize) {
        let words = Arc::make_mut(&mut self.words);
        if words.len() * 64 < nrows {
            words.resize(nrows.div_ceil(64), 0);
        }
        words[r / 64] |= 1u64 << (r % 64);
        self.count += 1;
    }

    /// Clears the bit of tombstoned row `r`.
    fn clear(&mut self, r: usize) {
        Arc::make_mut(&mut self.words)[r / 64] &= !(1u64 << (r % 64));
        self.count -= 1;
    }

    /// Forgets every bit for rows `keep` and above.
    fn truncate(&mut self, keep: usize) {
        if self.words.len() * 64 <= keep {
            return;
        }
        let words = Arc::make_mut(&mut self.words);
        words.truncate(keep.div_ceil(64));
        if !keep.is_multiple_of(64) {
            if let Some(last) = words.last_mut() {
                *last &= (1u64 << (keep % 64)) - 1;
            }
        }
        self.count = self.popcount();
    }

    fn popcount(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }
}

/// Row `r` of a flat store of `arity`-wide rows.
#[inline]
fn row_at(data: &[Word], arity: usize, r: u32) -> &[Word] {
    let at = r as usize * arity;
    &data[at..at + arity]
}

/// Prefetches the cache line holding `data[i]`, if in bounds. Purely a
/// hint; no-op off x86-64.
#[inline]
fn prefetch_value(data: &[Word], i: usize) {
    #[cfg(target_arch = "x86_64")]
    if i < data.len() {
        // SAFETY: `i` is in bounds; prefetch reads no memory
        // architecturally.
        unsafe {
            core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T0 }>(
                data.as_ptr().add(i) as *const i8,
            );
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (data, i);
}

/// Rows to allocate for a row store rebuilt or loaded at `rows` rows:
/// an eighth of headroom. What follows is usually an append, and a
/// snapshot taken in between shares this very allocation — an exact fit
/// would make that first append copy the whole relation to grow.
/// Untouched capacity is not resident.
fn headroom(rows: usize) -> usize {
    rows + rows / 8 + 1
}

/// A fresh storage-incarnation id: process-unique, never reused.
fn mint_incarnation() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    // Relaxed: the id publishes nothing; it only has to be unique.
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// An append-only relation of fixed arity with set semantics over flat
/// columnar storage.
///
/// This is the *writer's* type: it owns the membership table and a
/// private index cache (behind a `RwLock` only so that probes can build
/// indexes through `&self`). Concurrent readers get a [`Snapshot`].
#[derive(Debug)]
pub struct Relation {
    arity: usize,
    /// Flat row storage, `nrows * arity` words, shared with snapshots
    /// and clones (see the module docs).
    data: AppendBuf<Word>,
    nrows: usize,
    /// Membership table over live rows (set semantics): row ids filed
    /// under their content hash.
    set: CodeMap,
    /// Tombstones of rows deleted since the last compaction.
    dead: Tombstones,
    /// Monotonic mutation counter: bumped by every call that changes the
    /// live tuple set (insert, delete, truncate, compact, bulk commit).
    /// Unlike [`Relation::physical_rows`] — which a truncate-then-insert
    /// sequence can return to its old value — two observations of an
    /// equal generation *on one relation object* guarantee its content
    /// is unchanged, which is what [`crate::cost::EdbStats`] keys on.
    /// Across objects it means nothing by itself: see [`Relation::stamp`].
    generation: u64,
    /// Which append history of row ids this is (module docs): minted
    /// here and by every operation after which a row id may name other
    /// content than before, inherited by `clone`.
    incarnation: u64,
    indexes: RwLock<IndexMap>,
}

impl Relation {
    /// An empty relation of the given arity.
    pub fn new(arity: usize) -> Relation {
        Relation {
            arity,
            data: AppendBuf::new(),
            nrows: 0,
            set: CodeMap::default(),
            dead: Tombstones::default(),
            generation: 0,
            incarnation: mint_incarnation(),
            indexes: RwLock::new(FxHashMap::default()),
        }
    }

    /// A relation holding `rows` in order, duplicates dropped: the bulk
    /// load of a parsed fact group. The row store is allocated once, with
    /// [`headroom`], and the membership table is sized once for every
    /// row ([`CodeMap::with_capacity`]), so neither grows while loading;
    /// row ids, the generation and the table's final size are those of
    /// inserting the rows one by one.
    pub fn from_rows<'a>(
        arity: usize,
        rows: impl ExactSizeIterator<Item = &'a [Word]>,
    ) -> Relation {
        let n = rows.len();
        let mut rel = Relation {
            data: AppendBuf::with_capacity(headroom(n) * arity),
            set: CodeMap::with_capacity(n),
            ..Relation::new(arity)
        };
        for row in rows {
            rel.insert_row(row);
        }
        rel
    }

    /// The monotonic mutation counter: strictly increases on every
    /// content change of this object and never repeats on it, so callers
    /// caching work derived from *this* relation ([`crate::cost::EdbStats`],
    /// [`Relation::stamp`]) can compare generations to detect any
    /// intervening mutation —
    /// including truncate-then-reinsert sequences that leave
    /// [`Relation::physical_rows`] unchanged. It is a per-object
    /// counter: a relation rebuilt from scratch restarts it, so it
    /// cannot tell two objects apart — [`Relation::stamp`] can.
    #[inline]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// `(incarnation, generation)`: the identity of this relation's
    /// current state among every relation state of the process that is
    /// ever *published* ([`Snapshot::stamp`] is what snapshot reuse
    /// keys on). The incarnation is process-unique per append history —
    /// a rebuilt, compacted, truncated or forked relation gets a new one
    /// — and the generation orders the states within it. Two clones
    /// that both only *delete* would share an incarnation while
    /// differing in content; nothing publishes a clone — publication
    /// follows the one relation every transaction mutates in place,
    /// where stamps cannot collide.
    #[inline]
    pub fn stamp(&self) -> (u64, u64) {
        (self.incarnation, self.generation)
    }

    /// An O(1) read-only view of the current contents with an index
    /// cache of its own: what one-shot goal answering reads.
    pub fn snapshot(&self) -> Snapshot {
        self.snapshot_after(None, &Arc::default())
    }

    /// The snapshot that succeeds `prev` in a sequence of published
    /// states. If `prev` is of this relation's incarnation — the rows it
    /// sees are a prefix of the current ones — the new snapshot joins
    /// its index lineage: indexes readers built stay, and the first
    /// probe extends them by the appended rows instead of rebuilding.
    /// Otherwise (no predecessor, or the relation was compacted,
    /// truncated, rebuilt, forked) it starts a fresh lineage.
    ///
    /// Nothing proportional to the relation is copied here. What *was*
    /// copied on behalf of publication is added, in bytes, to `meter`:
    /// the tombstone words if a delete since `prev` had to copy them,
    /// the rows the writer had to move because `prev` still held the
    /// allocation they outgrew, and — later, by readers — every index
    /// extension in a lineage this call starts.
    pub fn snapshot_after(&self, prev: Option<&Snapshot>, meter: &Arc<AtomicU64>) -> Snapshot {
        let mut copied = 0;
        let prev = prev.filter(|p| p.stamp.0 == self.incarnation);
        let lineage = match prev {
            Some(p) => {
                debug_assert!(p.nrows <= self.nrows, "an incarnation only appends");
                if !p.data.same_allocation(&self.data) {
                    copied += std::mem::size_of_val::<[Word]>(&p.data);
                }
                Arc::clone(&p.lineage)
            }
            None => Arc::new(IndexLineage {
                map: RwLock::default(),
                meter: Arc::clone(meter),
            }),
        };
        if !prev.is_some_and(|p| Arc::ptr_eq(&p.dead.words, &self.dead.words)) {
            copied += std::mem::size_of_val::<[u64]>(&self.dead.words[..]);
        }
        // Relaxed: a statistic; it publishes no other data.
        meter.fetch_add(copied as u64, Ordering::Relaxed);
        Snapshot {
            arity: self.arity,
            data: self.data.clone(),
            nrows: self.nrows,
            dead: self.dead.clone(),
            stamp: self.stamp(),
            lineage,
        }
    }

    /// The arity.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of live (distinct) tuples.
    pub fn len(&self) -> usize {
        self.nrows - self.dead.count
    }

    /// True if the relation holds no live tuples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of physical rows in the flat store, including tombstoned
    /// ones. Row-range views are expressed over physical ids, so marks
    /// and watermarks must use this, not [`Relation::len`].
    pub fn physical_rows(&self) -> usize {
        self.nrows
    }

    /// True if some rows are tombstoned.
    pub fn has_tombstones(&self) -> bool {
        self.dead.count != 0
    }

    /// True if physical row `r` is tombstoned.
    #[inline]
    pub fn is_dead(&self, r: u32) -> bool {
        self.dead.is_dead(r)
    }

    /// The full (physical) row range.
    pub fn all_rows(&self) -> RowRange {
        RowRange {
            start: 0,
            end: self.nrows as u32,
        }
    }

    /// Inserts a tuple of values (encoding it); returns `true` if it was
    /// new.
    ///
    /// # Panics
    /// Panics if the tuple arity does not match the relation arity.
    pub fn insert(&mut self, t: impl AsRef<[Value]>) -> bool {
        self.insert_row(&word::encode(t.as_ref()))
    }

    /// Inserts a row of words (a flat-store row slice of another
    /// relation, say) by copying it into the flat buffer; returns `true`
    /// if it was new.
    ///
    /// # Panics
    /// Panics if the row arity does not match the relation arity.
    pub fn insert_row(&mut self, t: &[Word]) -> bool {
        self.insert_hashed(t, hash_slice(t))
    }

    /// [`Relation::insert_row`] with the row-content hash already
    /// computed (the fixpoint loop hashes each derived tuple once, at
    /// derivation time, and reuses the hash for insertion).
    pub fn insert_hashed(&mut self, t: &[Word], h: u64) -> bool {
        assert_eq!(t.len(), self.arity, "tuple arity mismatch");
        debug_assert_eq!(h, hash_slice(t), "stale row hash");
        let (data, arity) = (&self.data, self.arity);
        let same = |r: u32| row_at(data, arity, r) == t;
        if self.set.get_or_insert(h, self.nrows as u32, same).is_some() {
            return false;
        }
        if self.data.extend_from_slice(t) {
            // This handle was a clone sharing its rows and has just
            // copied them to append: from here on its row ids and the
            // original's name different content.
            self.incarnation = mint_incarnation();
        }
        self.nrows += 1;
        self.generation += 1;
        true
    }

    /// Prefetches the membership-table cache line a row hash will probe
    /// first, so a caller holding a batch of pending rows can overlap
    /// the table's cold misses instead of paying them serially inside
    /// [`Relation::insert_hashed`]. Purely a hint; no-op off x86-64.
    #[inline]
    pub fn prefetch_hash(&self, h: u64) {
        self.set.prefetch(h);
    }

    /// Prefetches the flat-store cache line holding row `r`'s values,
    /// for callers about to walk a batch of scattered row ids. Purely a
    /// hint; no-op off x86-64.
    #[inline]
    pub fn prefetch_row(&self, r: u32) {
        prefetch_value(&self.data, r as usize * self.arity);
    }

    /// Membership test for a tuple of values.
    pub fn contains(&self, t: &[Value]) -> bool {
        self.find(&word::encode(t)).is_some()
    }

    /// The id of the live row holding exactly `t`, if any: a membership
    /// table lookup, no index involved.
    pub fn find(&self, t: &[Word]) -> Option<u32> {
        self.find_hashed(t, hash_slice(t))
    }

    fn find_hashed(&self, t: &[Word], h: u64) -> Option<u32> {
        if t.len() != self.arity {
            return None;
        }
        debug_assert_eq!(h, hash_slice(t), "stale row hash");
        self.set.get(h, |r| self.row(r) == t)
    }

    /// Deletes a tuple by tombstoning its physical row; returns `true`
    /// if the tuple was present (and live). The flat store keeps the
    /// row's bytes — only the dedup entry goes away and the dead bit is
    /// set — so earlier row ids held by callers stay valid. A later
    /// [`Relation::insert`] of an equal tuple appends a *fresh* physical
    /// row; set semantics hold over live rows throughout.
    pub fn delete(&mut self, t: &[Value]) -> bool {
        self.delete_row(&word::encode(t)).is_some()
    }

    /// [`Relation::delete`] of a row of words, returning the id of the
    /// row it tombstoned — what an undo log keeps to
    /// [`Relation::revive`] it.
    pub fn delete_row(&mut self, t: &[Word]) -> Option<u32> {
        if t.len() != self.arity {
            return None;
        }
        let (data, arity) = (&self.data, self.arity);
        let r = self
            .set
            .remove(hash_slice(t), |r| row_at(data, arity, r) == t)?;
        self.mark_dead(r);
        Some(r)
    }

    /// Tombstones the live row with id `r`; `false` if it is out of
    /// range or already dead.
    pub fn delete_at(&mut self, r: u32) -> bool {
        let unlinked = (r as usize) < self.nrows && self.unlink(r);
        if unlinked {
            self.mark_dead(r);
        }
        unlinked
    }

    /// Removes live row `r` from the membership table; `false` if it
    /// was not there (dead).
    fn unlink(&mut self, r: u32) -> bool {
        let h = hash_slice(self.row(r));
        self.set.remove(h, |id| id == r).is_some()
    }

    /// Sets the dead bit of just-unlinked row `r`.
    fn mark_dead(&mut self, r: u32) {
        self.dead.set(r as usize, self.nrows);
        self.generation += 1;
    }

    /// Undoes the tombstoning of row `r`: relinks it in the membership
    /// table, clears its dead bit and bumps the generation. Row ids and
    /// the incarnation are untouched, so indexes stay valid. The caller
    /// guarantees no live row holds equal content — a transaction's
    /// undo truncates its appends away *before* reviving what it
    /// deleted.
    ///
    /// # Panics
    /// Panics if `r` is not a tombstoned row.
    pub fn revive(&mut self, r: u32) {
        assert!(self.is_dead(r), "revive of a row that is not tombstoned");
        let h = hash_slice(self.row(r));
        debug_assert!(
            self.find_hashed(self.row(r), h).is_none(),
            "revive would duplicate"
        );
        self.set.insert(h, r);
        self.dead.clear(r as usize);
        self.generation += 1;
    }

    /// Removes every row with physical id `keep` and above, exactly
    /// undoing a run of appends: the rows' dedup entries are unhashed,
    /// the flat store and tombstone bitset are truncated, and the column
    /// indexes are dropped (they may cache the removed ids). This is the
    /// incremental layer's cheap rollback — O(rows removed), not
    /// O(relation) — for transactions that only appended. A snapshot
    /// taken before keeps seeing the cut rows: while one shares the
    /// store, the next append copies instead of overwriting them.
    pub fn truncate(&mut self, keep: usize) {
        if keep >= self.nrows {
            return;
        }
        for r in keep as u32..self.nrows as u32 {
            if !self.is_dead(r) {
                self.unlink(r);
            }
        }
        self.data.truncate(keep * self.arity);
        self.nrows = keep;
        self.dead.truncate(keep);
        self.generation += 1;
        // The cut row ids will be handed out again for other content.
        self.incarnation = mint_incarnation();
        self.indexes.write().expect("index lock poisoned").clear();
    }

    /// Compacts iff the dead rows outnumber the live ones, returning
    /// whether it did. This is the only way tombstones are reclaimed:
    /// the rebuild costs O(physical rows) < 2 × dead rows, so every
    /// deleted row pays an amortized O(1) for it, and a relation that
    /// loses a small share of its rows per transaction keeps its row
    /// ids — hence its index cache, its incarnation and the published
    /// index lineage — across those transactions. Call it between
    /// transactions only: row ids change.
    pub fn compact_if_sparse(&mut self) -> bool {
        let sparse = self.dead.count > self.len();
        if sparse {
            self.compact();
        }
        sparse
    }

    /// Rebuilds the flat store without tombstoned rows, renumbering the
    /// surviving rows in order and rebuilding the dedup map. Column
    /// indexes are dropped (they cache stale row ids) and rebuilt lazily
    /// on the next probe. No-op when there are no tombstones.
    fn compact(&mut self) {
        if self.dead.count == 0 {
            return;
        }
        let live = self.len();
        let mut data = AppendBuf::with_capacity(headroom(live) * self.arity);
        let mut set = CodeMap::default();
        for (r, row) in self.iter().enumerate() {
            set.insert(hash_slice(row), r as u32);
            data.extend_from_slice(row);
        }
        self.nrows = live;
        self.data = data;
        self.set = set;
        self.dead = Tombstones::default();
        self.generation += 1;
        // Surviving rows were renumbered.
        self.incarnation = mint_incarnation();
        self.indexes.write().expect("index lock poisoned").clear();
    }

    /// The row at `row`, as a slice into the flat store.
    pub fn row(&self, row: u32) -> &[Word] {
        row_at(&self.data, self.arity, row)
    }

    /// Iterates over all live rows in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &[Word]> {
        (0..self.nrows as u32)
            .filter(move |&r| !self.is_dead(r))
            .map(move |r| self.row(r))
    }

    /// Iterates over the live tuples of a row range.
    pub fn iter_range(&self, range: RowRange) -> impl Iterator<Item = (u32, &[Word])> {
        (range.start..range.end.min(self.nrows as u32))
            .filter(move |&r| !self.is_dead(r))
            .map(move |r| (r, self.row(r)))
    }

    /// The lazy per-candidate filter for dictionary-group iteration:
    /// group rows already match the probe key exactly, so a candidate is
    /// a real hit iff it lies in `range` and is live. Used by
    /// [`ProbeHandle`] consumers iterating borrowed groups.
    #[inline]
    pub fn row_visible(&self, r: u32, range: RowRange) -> bool {
        range.contains(r) && !self.is_dead(r)
    }

    /// Builds (or extends) the hash index on `cols` so that subsequent
    /// probes only take the shared read lock. Called automatically by
    /// [`Relation::probe_into`]; call it eagerly before sharing the
    /// relation across threads or taking a [`ProbeHandle`].
    pub fn ensure_index(&self, cols: &[usize]) {
        let mut indexes = self.indexes.write().expect("index lock poisoned");
        let idx = entry_index(&mut indexes, cols);
        idx.extend(&self.data, self.arity, self.nrows);
    }

    /// A raw borrowed handle to the current index on `cols`, or `None`
    /// if the index is missing or stale (call [`Relation::ensure_index`]
    /// and retry). One shared-lock acquisition; see [`ProbeHandle`] for
    /// the validity contract.
    pub fn probe_handle(&self, cols: &[usize]) -> Option<ProbeHandle> {
        let indexes = self.indexes.read().expect("index lock poisoned");
        let idx = indexes.get(cols)?;
        if idx.built != self.nrows {
            return None;
        }
        Some(idx.handle())
    }

    /// Reads the key-group distribution of the dictionary index on
    /// `cols`, building or extending the index first (so on an
    /// already-indexed relation this is one pass over the group
    /// headers, no row data touched). This is the cost planner's
    /// statistics source: `distinct` bounds join selectivity from
    /// below, `max_group`/the histogram bound per-probe fanout from
    /// above. Groups count *physical* rows — tombstoned rows inflate
    /// the totals until compaction — which keeps the numbers
    /// valid as upper bounds, the direction the size-bound estimator
    /// needs.
    pub fn key_distribution(&self, cols: &[usize]) -> KeyDistribution {
        let mut indexes = self.indexes.write().expect("index lock poisoned");
        let idx = entry_index(&mut indexes, cols);
        idx.extend(&self.data, self.arity, self.nrows);
        let mut d = KeyDistribution {
            distinct: idx.groups.len(),
            ..KeyDistribution::default()
        };
        for g in &idx.groups {
            let n = g.len();
            d.rows += n;
            d.max_group = d.max_group.max(n);
            if n > 0 {
                let bucket = (usize::BITS - 1 - n.leading_zeros()) as usize;
                d.histogram[bucket.min(d.histogram.len() - 1)] += 1;
            }
        }
        d
    }

    /// Existence test for an exact tuple within a row range, walking the
    /// membership table's fingerprint-matching slots directly — what the
    /// executor's full-key lookups (negated and ground subgoals) use. The
    /// table holds only live rows, so no tombstone check is needed.
    pub fn contains_in_range(&self, key: &[Word], h: u64, range: RowRange) -> bool {
        if key.len() != self.arity {
            return false;
        }
        debug_assert_eq!(h, hash_slice(key), "stale key hash");
        self.set
            .get(h, |r| range.contains(r) && self.row(r) == key)
            .is_some()
    }

    /// Iterates over all live tuples, decoded, in insertion order.
    pub fn tuples(&self) -> impl Iterator<Item = Tuple> + '_ {
        self.iter().map(word::decode)
    }

    /// All tuples, decoded and sorted, for deterministic comparisons.
    pub fn sorted_tuples(&self) -> Vec<Tuple> {
        let mut v: Vec<Tuple> = self.tuples().collect();
        v.sort();
        v
    }

    /// Estimated resident bytes of this relation: the flat store's
    /// capacity in words, the membership table's slot array, the tombstone
    /// bitset, and every dictionary index's map, key store and row
    /// groups. Indexes are derived caches, but
    /// under the dictionary-encoded probe path they are also the bulk of
    /// steady-state residency beyond the rows themselves, so the
    /// evaluator's `max_resident_bytes` budget counts them — a byte
    /// limit that ignored them would under-report real footprint by the
    /// size of every probed key column. An estimate, not an allocator
    /// census.
    pub fn estimated_bytes(&self) -> u64 {
        let data = self.row_store_bytes();
        let dedup = self.set.heap_bytes();
        let tombstones = self.dead.words.capacity() * std::mem::size_of::<u64>();
        let indexes: usize = self
            .indexes
            .read()
            .expect("index lock poisoned")
            .values()
            .map(|idx| idx.heap_bytes())
            .sum();
        (data + dedup + tombstones + indexes) as u64
    }

    /// Bytes of the flat row store's allocation: one 8-byte word per
    /// value of its capacity.
    pub fn row_store_bytes(&self) -> usize {
        self.data.capacity() * std::mem::size_of::<Word>()
    }

    /// Resident bytes of the membership table's slot array.
    pub fn membership_bytes(&self) -> usize {
        self.set.heap_bytes()
    }

    /// Verifies the relation's structural invariants, returning a
    /// description of the first violation: flat storage sized exactly to
    /// `nrows`, the tombstone population count matching the bitset,
    /// every membership-table slot pointing at an in-bounds *live* row
    /// with the fingerprint of `hash_slice(row)` and reachable from its
    /// home slot, exactly one slot per live row, and no two live rows
    /// with equal content. Budget,
    /// cancel, and panic exits must leave every committed relation
    /// passing this check — `tests/governance.rs` asserts it after
    /// every forced abort.
    pub fn check_invariant(&self) -> Result<(), String> {
        if self.data.len() != self.nrows * self.arity {
            return Err(format!(
                "flat store holds {} values, want {} rows × {} arity",
                self.data.len(),
                self.nrows,
                self.arity
            ));
        }
        let popcount = self.dead.popcount();
        if popcount != self.dead.count {
            return Err(format!(
                "tombstone bitset holds {popcount} bits for a count of {}",
                self.dead.count
            ));
        }
        if self.dead.count > self.nrows {
            return Err(format!(
                "more tombstones ({}) than rows ({})",
                self.dead.count, self.nrows
            ));
        }
        let mut seen = vec![false; self.nrows];
        self.set.check(|id| {
            if id as usize >= self.nrows {
                return Err(format!("table entry {id} out of bounds ({})", self.nrows));
            }
            if self.is_dead(id) {
                return Err(format!("table entry {id} points at a tombstoned row"));
            }
            if std::mem::replace(&mut seen[id as usize], true) {
                return Err(format!("row {id} occupies two table slots"));
            }
            Ok(hash_slice(self.row(id)))
        })?;
        if self.set.len() != self.len() {
            return Err(format!(
                "membership table holds {} entries for {} live rows",
                self.set.len(),
                self.len()
            ));
        }
        for (r, row) in self.iter_range(self.all_rows()) {
            let found = self.set.get(hash_slice(row), |q| self.row(q) == row);
            if found != Some(r) {
                return Err(format!(
                    "probing for row {r} found {found:?} — a duplicate or a broken probe chain"
                ));
            }
        }
        Ok(())
    }
}

impl Clone for Relation {
    /// Shares the rows with the original (they are copied only if the
    /// clone later appends, which also gives it a new incarnation) and the tombstone words (copied by whichever
    /// side deletes first); copies the membership table; starts with an
    /// empty index cache.
    fn clone(&self) -> Self {
        Relation {
            arity: self.arity,
            data: self.data.clone(),
            nrows: self.nrows,
            set: self.set.clone(),
            dead: self.dead.clone(),
            // The clone starts content-identical, so it inherits the
            // whole stamp: a publisher comparing a clone against the
            // snapshot of its original must see "unchanged".
            generation: self.generation,
            incarnation: self.incarnation,
            indexes: RwLock::new(FxHashMap::default()),
        }
    }
}

impl PartialEq for Relation {
    fn eq(&self, other: &Self) -> bool {
        self.arity == other.arity
            && self.len() == other.len()
            && self.iter().all(|row| other.find(row).is_some())
    }
}

impl Eq for Relation {}

/// The dictionary indexes shared by every snapshot of one storage
/// incarnation, behind the lock that serializes their extension.
#[derive(Debug)]
struct IndexLineage {
    map: RwLock<IndexMap>,
    /// Where index-extension bytes are counted (the meter handed to the
    /// [`Relation::snapshot_after`] call that started the lineage).
    meter: Arc<AtomicU64>,
}

/// A read-only view of one relation state: the rows below a watermark
/// of a shared row store, the tombstones of that moment, and the
/// state's [stamp](Snapshot::stamp). Taken in O(1) by
/// [`Relation::snapshot`] / [`Relation::snapshot_after`]; never changes
/// afterwards, whatever the relation goes on to do — appends land past
/// the watermark, deletes in the relation's own tombstones, growth and
/// rollback copy rather than touch what a snapshot can see (module
/// docs). `Send + Sync`: readers share it behind an `Arc`.
///
/// It has no membership table: an exact-tuple lookup is an index probe
/// plus a row comparison ([`Snapshot::find`]). Its index cache is the
/// lineage's, shared with the snapshots before and after it, so an index
/// may cover more rows than this snapshot sees; probes stop at the
/// watermark.
#[derive(Debug)]
pub struct Snapshot {
    arity: usize,
    /// A non-owning view: exactly `nrows * arity` words.
    data: AppendBuf<Word>,
    /// The watermark: physical rows visible, tombstoned ones included.
    nrows: usize,
    dead: Tombstones,
    stamp: (u64, u64),
    lineage: Arc<IndexLineage>,
}

impl Snapshot {
    /// The arity.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of live tuples.
    pub fn len(&self) -> usize {
        self.nrows - self.dead.count
    }

    /// True if the snapshot holds no live tuples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The watermark: physical rows visible, tombstoned ones included.
    /// Row ids below it are valid arguments to [`Snapshot::row`].
    pub fn physical_rows(&self) -> usize {
        self.nrows
    }

    /// The [`Relation::stamp`] of the state this is a view of.
    pub fn stamp(&self) -> (u64, u64) {
        self.stamp
    }

    /// The row at `row`, as a slice into the shared store.
    pub fn row(&self, row: u32) -> &[Word] {
        row_at(&self.data, self.arity, row)
    }

    /// Prefetches the cache line holding row `r`'s values. Purely a
    /// hint; no-op off x86-64.
    #[inline]
    pub fn prefetch_row(&self, r: u32) {
        prefetch_value(&self.data, r as usize * self.arity);
    }

    /// Iterates over the live tuples with their row ids, in row order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &[Word])> {
        (0..self.nrows as u32)
            .filter(move |&r| !self.dead.is_dead(r))
            .map(move |r| (r, self.row(r)))
    }

    /// Live tuples, sorted, for deterministic comparisons.
    pub fn sorted_tuples(&self) -> Vec<Tuple> {
        let mut v: Vec<Tuple> = self.iter().map(|(_, row)| word::decode(row)).collect();
        v.sort();
        v
    }

    /// Live rows whose columns `cols` equal `key`, ascending, written
    /// into `out` (cleared first), through the lineage's dictionary
    /// index on `cols`. If the index does not yet reach this snapshot's
    /// watermark the probe extends it — by the rows appended since the
    /// last reader of the lineage, not from zero — under the write lock.
    pub fn probe_into(&self, cols: &[usize], key: &[Word], out: &mut Vec<u32>) {
        debug_assert!(!cols.is_empty(), "probe with no bound columns");
        debug_assert_eq!(cols.len(), key.len());
        out.clear();
        // The index may be ahead of this snapshot (a later epoch's
        // reader extended it) and knows nothing of tombstones.
        let visible = |r: u32| (r as usize) < self.nrows && !self.dead.is_dead(r);
        {
            let map = self.lineage.map.read().expect("index lock poisoned");
            if let Some(idx) = map.get(cols).filter(|idx| idx.built >= self.nrows) {
                idx.hits_into(key, visible, out);
                return;
            }
        }
        let mut map = self.lineage.map.write().expect("index lock poisoned");
        let idx = entry_index(&mut map, cols);
        if idx.built < self.nrows {
            let appended = idx.extend(&self.data, self.arity, self.nrows);
            // Relaxed: a statistic; it publishes no other data.
            self.lineage
                .meter
                .fetch_add(appended as u64, Ordering::Relaxed);
        }
        idx.hits_into(key, visible, out);
    }

    /// The live row holding exactly `key`, if any. A snapshot has no
    /// membership table, so this probes the index on the first column
    /// (the one `p(c, Y)` goals keep warm) and compares rows.
    pub fn find(&self, key: &[Word]) -> Option<u32> {
        if key.len() != self.arity || key.is_empty() {
            return None;
        }
        let mut hits = Vec::new();
        self.probe_into(&[0], &key[..1], &mut hits);
        hits.into_iter().find(|&r| self.row(r) == key)
    }

    /// Total rows covered by the lineage's indexes (an index on one
    /// column subset covering `n` rows counts `n`): how much index work
    /// the readers of this lineage have done so far.
    pub fn indexed_rows(&self) -> usize {
        let map = self.lineage.map.read().expect("index lock poisoned");
        map.values().map(|idx| idx.built).sum()
    }

    /// True when both snapshots read the same row allocation: nothing
    /// was copied between taking one and the other.
    pub fn shares_rows_with(&self, other: &Snapshot) -> bool {
        self.data.same_allocation(&other.data)
    }

    /// True when both snapshots belong to one index lineage.
    pub fn shares_indexes_with(&self, other: &Snapshot) -> bool {
        Arc::ptr_eq(&self.lineage, &other.lineage)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(vals: &[i64]) -> Tuple {
        vals.iter().map(|&v| Value::Int(v)).collect()
    }

    /// The stored form of `t(vals)`.
    fn w(vals: &[i64]) -> Vec<Word> {
        vals.iter().map(|&v| Word::int(v)).collect()
    }

    /// The live rows within `range` whose columns `cols` equal `key`, by
    /// the dictionary index the executor probes.
    fn probe(r: &Relation, cols: &[usize], key: &[Word], range: RowRange) -> Vec<u32> {
        r.ensure_index(cols);
        let h = r.probe_handle(cols).expect("current after ensure_index");
        // SAFETY: nothing mutates `r` while the handle is in use.
        let group = unsafe { h.encode(hash_slice(key), key).map(|c| h.group(c)) };
        let visible = |x: &&u32| r.row_visible(**x, range);
        group
            .into_iter()
            .flatten()
            .filter(visible)
            .copied()
            .collect()
    }

    #[test]
    fn insert_dedups() {
        let mut r = Relation::new(2);
        assert!(r.insert(t(&[1, 2])));
        assert!(!r.insert(t(&[1, 2])));
        assert!(r.insert(t(&[1, 3])));
        assert_eq!(r.len(), 2);
        assert!(r.contains(&t(&[1, 2])));
        assert!(!r.contains(&t(&[9, 9])));
    }

    #[test]
    fn flat_storage_layout_is_contiguous() {
        let mut r = Relation::new(3);
        r.insert(t(&[1, 2, 3]));
        r.insert(t(&[4, 5, 6]));
        assert_eq!(r.row(0), &w(&[1, 2, 3])[..]);
        assert_eq!(r.row(1), &w(&[4, 5, 6])[..]);
        // Appending does not disturb earlier row slices' contents.
        r.insert(t(&[7, 8, 9]));
        assert_eq!(r.row(0), &w(&[1, 2, 3])[..]);
        assert_eq!(r.row(2), &w(&[7, 8, 9])[..]);
    }

    #[test]
    fn insert_accepts_borrowed_row_slices() {
        let mut a = Relation::new(2);
        a.insert(t(&[1, 2]));
        let row: Tuple = word::decode(a.row(0));
        let mut b = Relation::new(2);
        assert!(b.insert(&row[..]));
        assert!(b.contains(&row));
    }

    #[test]
    fn probe_uses_and_extends_index() {
        let mut r = Relation::new(2);
        r.insert(t(&[1, 2]));
        r.insert(t(&[1, 3]));
        r.insert(t(&[2, 3]));
        let hits = probe(&r, &[0], &w(&[1]), r.all_rows());
        assert_eq!(hits, vec![0, 1]);
        // Appending after an index exists must extend it.
        r.insert(t(&[1, 9]));
        let hits = probe(&r, &[0], &w(&[1]), r.all_rows());
        assert_eq!(hits, vec![0, 1, 3]);
    }

    #[test]
    fn probe_respects_row_range() {
        let mut r = Relation::new(2);
        r.insert(t(&[1, 2]));
        r.insert(t(&[1, 3]));
        r.insert(t(&[1, 4]));
        let delta = RowRange { start: 2, end: 3 };
        let hits = probe(&r, &[0], &w(&[1]), delta);
        assert_eq!(hits, vec![2]);
    }

    #[test]
    fn multi_column_probe() {
        let mut r = Relation::new(3);
        r.insert(t(&[1, 2, 3]));
        r.insert(t(&[1, 2, 4]));
        r.insert(t(&[1, 5, 3]));
        let hits = probe(&r, &[0, 1], &w(&[1, 2]), r.all_rows());
        assert_eq!(hits.len(), 2);
        let hits = probe(&r, &[2], &w(&[3]), r.all_rows());
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn all_columns_probe_partial_range() {
        let mut r = Relation::new(2);
        r.insert(t(&[1, 2]));
        r.insert(t(&[3, 4]));
        r.insert(t(&[5, 6]));
        let delta = RowRange { start: 1, end: 3 };
        assert_eq!(probe(&r, &[0, 1], &w(&[3, 4]), delta), vec![1]);
        assert!(probe(&r, &[0, 1], &w(&[1, 2]), delta).is_empty());
        // Full range uses the existence fast path.
        assert!(!probe(&r, &[0, 1], &w(&[1, 2]), r.all_rows()).is_empty());
    }

    #[test]
    fn iter_range_views() {
        let mut r = Relation::new(1);
        r.insert(t(&[1]));
        r.insert(t(&[2]));
        r.insert(t(&[3]));
        let old = RowRange { start: 0, end: 2 };
        assert_eq!(r.iter_range(old).count(), 2);
        let delta = RowRange { start: 2, end: 3 };
        let vals: Vec<_> = r.iter_range(delta).map(|(_, t)| t[0]).collect();
        assert_eq!(vals, w(&[3]));
    }

    #[test]
    fn equality_is_set_semantics() {
        let mut a = Relation::new(2);
        let mut b = Relation::new(2);
        a.insert(t(&[1, 2]));
        a.insert(t(&[3, 4]));
        b.insert(t(&[3, 4]));
        b.insert(t(&[1, 2]));
        assert_eq!(a, b); // insertion order does not matter
        b.insert(t(&[5, 6]));
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn arity_mismatch_panics() {
        let mut r = Relation::new(2);
        r.insert(t(&[1]));
    }

    #[test]
    fn delete_tombstones_and_membership() {
        let mut r = Relation::new(2);
        r.insert(t(&[1, 2]));
        r.insert(t(&[3, 4]));
        r.insert(t(&[5, 6]));
        assert!(r.delete(&t(&[3, 4])));
        assert!(!r.delete(&t(&[3, 4])), "double delete must be a no-op");
        assert!(!r.delete(&t(&[9, 9])), "deleting an absent row is false");
        assert_eq!(r.len(), 2);
        assert_eq!(r.physical_rows(), 3);
        assert!(r.has_tombstones());
        assert!(!r.contains(&t(&[3, 4])));
        assert!(r.contains(&t(&[1, 2])));
        assert!(r.contains(&t(&[5, 6])));
        let live: Vec<Tuple> = r.tuples().collect();
        assert_eq!(live, vec![t(&[1, 2]), t(&[5, 6])]);
        r.check_invariant().unwrap();
    }

    #[test]
    fn truncate_undoes_appends_and_probes_stay_consistent() {
        let mut r = Relation::new(2);
        r.insert(t(&[1, 2]));
        r.insert(t(&[3, 4]));
        // Warm an index, then append past the watermark.
        assert_eq!(probe(&r, &[0], &w(&[1]), r.all_rows()).len(), 1);
        let mark = r.physical_rows();
        r.insert(t(&[5, 6]));
        r.insert(t(&[7, 8]));
        r.truncate(mark);
        assert_eq!(r.len(), 2);
        assert_eq!(r.physical_rows(), 2);
        assert!(!r.contains(&t(&[5, 6])));
        assert!(r.contains(&t(&[1, 2])));
        r.check_invariant().unwrap();
        // The removed tuple can be re-inserted as a fresh row and probed.
        assert!(r.insert(t(&[5, 6])));
        assert_eq!(probe(&r, &[0], &w(&[5]), r.all_rows()).len(), 1);
        assert_eq!(r.sorted_tuples(), vec![t(&[1, 2]), t(&[3, 4]), t(&[5, 6])]);
        r.check_invariant().unwrap();
        // Truncating to the current size (or past it) is a no-op.
        r.truncate(r.physical_rows());
        assert_eq!(r.len(), 3);
        r.check_invariant().unwrap();
    }

    #[test]
    fn truncate_with_tombstones_below_keep_preserves_them() {
        let mut r = Relation::new(2);
        r.insert(t(&[1, 2]));
        r.insert(t(&[3, 4]));
        assert!(r.delete(&t(&[1, 2])));
        let mark = r.physical_rows();
        r.insert(t(&[5, 6]));
        r.truncate(mark);
        assert_eq!(r.len(), 1);
        assert_eq!(r.physical_rows(), 2);
        assert!(r.has_tombstones());
        assert_eq!(r.sorted_tuples(), vec![t(&[3, 4])]);
        r.check_invariant().unwrap();
    }

    #[test]
    fn insert_after_delete_of_equal_row_does_not_duplicate() {
        let mut r = Relation::new(2);
        r.insert(t(&[1, 2]));
        r.insert(t(&[3, 4]));
        assert!(r.delete(&t(&[1, 2])));
        // Re-inserting the equal row appends a fresh physical row; the
        // old one stays dead, so the live set holds exactly one copy.
        assert!(r.insert(t(&[1, 2])), "row was deleted, reinsert is new");
        assert!(!r.insert(t(&[1, 2])), "second reinsert must dedup");
        assert_eq!(r.len(), 2);
        assert_eq!(r.physical_rows(), 3);
        assert_eq!(r.sorted_tuples(), vec![t(&[1, 2]), t(&[3, 4])]);
        r.check_invariant().unwrap();
        // Compaction reclaims the tombstone and keeps the same live set.
        r.compact();
        assert_eq!(r.len(), 2);
        assert_eq!(r.physical_rows(), 2);
        assert!(!r.has_tombstones());
        assert_eq!(r.sorted_tuples(), vec![t(&[1, 2]), t(&[3, 4])]);
        r.check_invariant().unwrap();
    }

    #[test]
    fn probes_skip_tombstoned_rows() {
        let mut r = Relation::new(2);
        r.insert(t(&[1, 2]));
        r.insert(t(&[1, 3]));
        r.insert(t(&[1, 4]));
        // Build the column index first, then delete: index_hits must
        // filter the dead row id even though the index still lists it.
        let hits = probe(&r, &[0], &w(&[1]), r.all_rows());
        assert_eq!(hits, vec![0, 1, 2]);
        assert!(r.delete(&t(&[1, 3])));
        let hits = probe(&r, &[0], &w(&[1]), r.all_rows());
        assert_eq!(hits, vec![0, 2]);
        // Dedup-backed exact probe also skips the dead row.
        let range = RowRange { start: 0, end: 2 };
        assert!(probe(&r, &[0, 1], &w(&[1, 3]), range).is_empty());
        assert!(probe(&r, &[0, 1], &w(&[1, 3]), r.all_rows()).is_empty());
        r.check_invariant().unwrap();
    }

    #[test]
    fn compact_after_deletes_keeps_dedup_and_index_consistent() {
        let mut r = Relation::new(2);
        for i in 0..100i64 {
            r.insert(t(&[i % 10, i]));
        }
        for i in (0..100i64).step_by(3) {
            assert!(r.delete(&t(&[i % 10, i])));
        }
        let before = r.sorted_tuples();
        r.check_invariant().unwrap();
        r.compact();
        r.check_invariant().unwrap();
        assert_eq!(r.sorted_tuples(), before);
        assert_eq!(r.physical_rows(), r.len());
        // Post-compaction probes rebuild the index over renumbered rows.
        for t_ in &before {
            assert!(r.contains(t_));
            assert!(!probe(&r, &[0, 1], &word::encode(t_), r.all_rows()).is_empty());
        }
        assert!(!r.contains(&t(&[0, 0])));
        // Deleted rows must not resurface through any probe path.
        assert!(probe(&r, &[1], &w(&[0]), r.all_rows()).is_empty());
    }

    #[test]
    fn clone_carries_tombstones() {
        let mut r = Relation::new(1);
        r.insert(t(&[1]));
        r.insert(t(&[2]));
        r.delete(&t(&[1]));
        let c = r.clone();
        assert_eq!(c.len(), 1);
        assert!(!c.contains(&t(&[1])));
        assert_eq!(r, c);
        c.check_invariant().unwrap();
    }

    #[test]
    fn probe_handle_groups_filter_lazily() {
        let mut r = Relation::new(2);
        r.insert(t(&[1, 2]));
        r.insert(t(&[1, 3]));
        r.insert(t(&[2, 3]));
        assert!(r.probe_handle(&[0]).is_none(), "no index built yet");
        r.ensure_index(&[0]);
        let h = r.probe_handle(&[0]).expect("index is current");
        assert_eq!(h.generation(), 3);
        let key = w(&[1]);
        let code = unsafe { h.encode(hash_slice(&key), &key) }.expect("key was inserted");
        let group = unsafe { h.group(code) };
        let hits: Vec<u32> = group
            .iter()
            .copied()
            .filter(|&row| r.row_visible(row, r.all_rows()))
            .collect();
        assert_eq!(hits, vec![0, 1]);
        // Range and tombstone filtering happen at iteration time.
        let delta = RowRange { start: 1, end: 3 };
        let hits: Vec<u32> = group
            .iter()
            .copied()
            .filter(|&row| r.row_visible(row, delta))
            .collect();
        assert_eq!(hits, vec![1]);
        // A key no row ever carried has no code at all.
        let missing = w(&[99]);
        assert_eq!(unsafe { h.encode(hash_slice(&missing), &missing) }, None);
        let _ = h;
        // Appending makes handles unavailable until re-ensured.
        r.insert(t(&[1, 9]));
        assert!(r.probe_handle(&[0]).is_none(), "index went stale");
        r.ensure_index(&[0]);
        assert!(r.probe_handle(&[0]).is_some());
    }

    #[test]
    fn contains_in_range_sees_only_its_range() {
        let mut r = Relation::new(2);
        r.insert(t(&[1, 2]));
        r.insert(t(&[3, 4]));
        r.insert(t(&[5, 6]));
        let delta = RowRange { start: 1, end: 3 };
        let h = |t_: &[Word]| crate::fxhash::hash_slice(t_);
        assert!(r.contains_in_range(&w(&[3, 4]), h(&w(&[3, 4])), delta));
        assert!(!r.contains_in_range(&w(&[1, 2]), h(&w(&[1, 2])), delta));
        assert!(r.contains_in_range(&w(&[1, 2]), h(&w(&[1, 2])), r.all_rows()));
        // Deleted rows never resurface.
        r.delete(&t(&[3, 4]));
        assert!(!r.contains_in_range(&w(&[3, 4]), h(&w(&[3, 4])), delta));
    }

    #[test]
    fn check_invariant_recomputes_every_fingerprint() {
        let mut r = Relation::new(2);
        for i in 0..20 {
            r.insert(t(&[i, -i]));
        }
        r.check_invariant().unwrap();
        let s = r
            .set
            .slots
            .iter()
            .position(|&s| (s as u32) < dict::TOMB)
            .unwrap();
        r.set.slots[s] ^= 1 << 40;
        let err = r.check_invariant().unwrap_err();
        assert!(err.contains("stale fingerprint"), "{err}");
    }

    #[test]
    fn a_relation_grown_through_many_doublings_matches_a_set_model() {
        let mut r = Relation::new(2);
        let mut model: std::collections::BTreeSet<Tuple> = Default::default();
        let check = |r: &Relation, model: &std::collections::BTreeSet<Tuple>, step: &str| {
            r.check_invariant()
                .unwrap_or_else(|e| panic!("{step}: {e}"));
            assert!(r.sorted_tuples().iter().eq(model.iter()), "{step}");
        };
        let (mut next, mut compactions) = (0i64, 0);
        for round in 0..14 {
            // A burst that about doubles the relation, every row offered
            // twice.
            for _ in 0..1i64 << round.min(12) {
                let row = t(&[next % 97, next]);
                next += 1;
                assert_eq!(r.insert(&row), model.insert(row.clone()));
                assert!(!r.insert(&row));
            }
            check(&r, &model, &format!("round {round}: insert"));
            // Tombstone every third live row by id (all of them every
            // fourth round), then revive every other victim.
            let every = if round % 4 == 3 { 1 } else { 3 };
            let victims: Vec<u32> = r
                .iter_range(r.all_rows())
                .map(|(id, _)| id)
                .step_by(every)
                .collect();
            for &id in &victims {
                assert!(r.delete_at(id) && !r.delete_at(id));
                model.remove(&word::decode(r.row(id)));
            }
            check(&r, &model, &format!("round {round}: delete_at"));
            for &id in victims.iter().step_by(2) {
                r.revive(id);
                model.insert(word::decode(r.row(id)));
            }
            check(&r, &model, &format!("round {round}: revive"));
            // Appends — one of them deleted again — cut by a truncate.
            let mark = r.physical_rows();
            for i in 0..5 {
                r.insert(t(&[-1, next + i]));
            }
            assert!(r.delete_at(mark as u32 + 2));
            r.truncate(mark);
            check(&r, &model, &format!("round {round}: truncate"));
            compactions += usize::from(r.compact_if_sparse());
            check(&r, &model, &format!("round {round}: compact_if_sparse"));
        }
        assert!(compactions > 0, "no round left the relation sparse");
        assert!(r.set.slots.len() >= 1 << 12, "fewer than 10 doublings");
    }

    #[test]
    fn a_two_column_int_row_stores_sixteen_bytes() {
        let mut r = Relation::new(2);
        for i in 0..1024 {
            r.insert(t(&[i, -i]));
        }
        // No index and no tombstone yet: all but the membership table is
        // the row store, filled to its capacity.
        let data = r.estimated_bytes() as usize - r.membership_bytes();
        assert_eq!(data, r.row_store_bytes());
        assert_eq!(data, 1024 * 2 * std::mem::size_of::<Word>());
        assert_eq!(data / r.len(), 16);
    }

    #[test]
    fn equality_ignores_tombstones() {
        let mut a = Relation::new(1);
        a.insert(t(&[1]));
        a.insert(t(&[2]));
        a.delete(&t(&[2]));
        let mut b = Relation::new(1);
        b.insert(t(&[1]));
        assert_eq!(a, b);
        a.compact();
        assert_eq!(a, b);
    }

    #[test]
    fn generation_advances_on_every_content_change() {
        let mut r = Relation::new(1);
        let g0 = r.generation();
        assert!(r.insert(t(&[1])));
        let g1 = r.generation();
        assert!(g1 > g0, "insert must bump the generation");
        // A duplicate insert changes nothing and must not bump.
        assert!(!r.insert(t(&[1])));
        assert_eq!(r.generation(), g1);
        assert!(r.delete(&t(&[1])));
        let g2 = r.generation();
        assert!(g2 > g1, "delete must bump the generation");
        // A miss delete changes nothing.
        assert!(!r.delete(&t(&[9])));
        assert_eq!(r.generation(), g2);
        r.compact();
        assert!(r.generation() > g2, "compact must bump the generation");
    }

    #[test]
    fn generation_distinguishes_truncate_reinsert_from_no_op() {
        // `physical_rows` alone cannot tell these states apart — the
        // whole reason the counter exists (statistics caches, COW snapshots).
        let mut r = Relation::new(1);
        r.insert(t(&[1]));
        r.insert(t(&[2]));
        let rows = r.physical_rows();
        let gen = r.generation();
        r.truncate(1);
        r.insert(t(&[3]));
        assert_eq!(r.physical_rows(), rows, "row count returned to old value");
        assert!(r.generation() > gen, "generation must not");
    }

    #[test]
    fn truncate_noop_keeps_generation() {
        let mut r = Relation::new(1);
        r.insert(t(&[1]));
        let gen = r.generation();
        r.truncate(5); // keep >= nrows: nothing to undo
        assert_eq!(r.generation(), gen);
        r.compact(); // no tombstones: no-op
        assert_eq!(r.generation(), gen);
    }

    #[test]
    fn a_snapshot_is_a_watermark_over_the_writers_rows() {
        let mut r = Relation::new(1);
        for i in 1..=5 {
            r.insert(t(&[i]));
        }
        let s = r.snapshot();
        assert_eq!(s.stamp(), r.stamp());
        assert_eq!((s.len(), s.physical_rows()), (5, 5));
        // Later appends land above the watermark and later deletes in
        // the relation's own tombstones: the view shows the five rows.
        r.insert(t(&[6]));
        r.delete(&t(&[2]));
        let five: Vec<Tuple> = (1..=5).map(|i| t(&[i])).collect();
        assert_eq!(s.sorted_tuples(), five);
        assert_eq!(r.len(), 5);
        assert!(r.contains(&t(&[6])) && !r.contains(&t(&[2])));
        assert_eq!(s.row(1), &w(&[2])[..]);
        assert_ne!(s.stamp(), r.stamp());
        // A snapshot taken now carries the tombstone, and — the sixth
        // row fitted the allocation — still reads the same rows.
        let s2 = r.snapshot();
        assert_eq!(s2.len(), 5);
        assert!(s2.iter().all(|(_, row)| row != &w(&[2])[..]));
        assert!(s2.shares_rows_with(&s), "no growth, no copy");
    }

    #[test]
    fn snapshot_probes_stop_at_the_watermark_and_find_exact_rows() {
        let mut r = Relation::new(2);
        r.insert(t(&[1, 2]));
        r.insert(t(&[1, 3]));
        let s0 = r.snapshot_after(None, &Arc::default());
        r.insert(t(&[1, 4]));
        r.delete(&t(&[1, 2]));
        let s1 = r.snapshot_after(Some(&s0), &Arc::default());
        assert!(s1.shares_indexes_with(&s0));
        let mut hits = Vec::new();
        // The newer reader builds the shared index over all three rows…
        s1.probe_into(&[0], &w(&[1]), &mut hits);
        assert_eq!(hits, vec![1, 2]);
        assert_eq!(s1.indexed_rows(), 3);
        // …and the older one, behind it, still answers its own state.
        s0.probe_into(&[0], &w(&[1]), &mut hits);
        assert_eq!(hits, vec![0, 1]);
        assert_eq!(s0.find(&w(&[1, 2])), Some(0));
        assert_eq!(s0.find(&w(&[1, 4])), None, "past the watermark");
        assert_eq!(s1.find(&w(&[1, 2])), None, "tombstoned at s1");
        assert_eq!(s1.find(&w(&[1, 4])), Some(2));
        assert_eq!(s1.find(&w(&[9, 9])), None);
        assert_eq!(s1.find(&w(&[1])), None, "arity mismatch");
    }

    #[test]
    fn a_pinned_snapshot_survives_growth_truncate_and_compact() {
        let mut r = Relation::new(2);
        for i in 0..10 {
            r.insert(t(&[i, i + 1]));
        }
        let pinned = r.snapshot();
        let before = pinned.sorted_tuples();
        let stamp = r.stamp();
        // Growth past the capacity the snapshot shares: the writer moves.
        let mark = r.physical_rows();
        for i in 10..1000 {
            r.insert(t(&[i, i + 1]));
        }
        assert!(!r.snapshot().shares_rows_with(&pinned));
        assert_eq!(pinned.sorted_tuples(), before);
        // Rollback below what a *later* snapshot sees, then re-append
        // other content under the same row ids.
        let later = r.snapshot();
        r.truncate(mark);
        assert_ne!(r.stamp().0, stamp.0, "truncate starts a new incarnation");
        r.insert(t(&[77, 77]));
        assert_eq!(later.row(mark as u32), &w(&[10, 11])[..]);
        assert_eq!(r.row(mark as u32), &w(&[77, 77])[..]);
        assert_eq!(later.len(), 1000);
        let fresh = r.snapshot_after(Some(&later), &Arc::default());
        assert!(!fresh.shares_indexes_with(&later));
        // Tombstone + compaction renumber the writer's rows only.
        r.delete(&t(&[0, 1]));
        r.compact();
        assert_eq!(r.row(0), &w(&[1, 2])[..]);
        assert_eq!(pinned.row(0), &w(&[0, 1])[..]);
        assert_eq!(pinned.sorted_tuples(), before);
        r.check_invariant().unwrap();
    }

    #[test]
    fn clone_shares_rows_until_it_appends_and_then_is_its_own_incarnation() {
        let mut r = Relation::new(1);
        r.insert(t(&[1]));
        r.insert(t(&[2]));
        let mut c = r.clone();
        assert_eq!(c.stamp(), r.stamp());
        assert!(c.snapshot().shares_rows_with(&r.snapshot()));
        // The original stays the writer of the shared store…
        r.insert(t(&[3]));
        assert_eq!(r.stamp().0, c.stamp().0);
        // …and the clone forks on its first append.
        c.insert(t(&[9]));
        assert_ne!(c.stamp().0, r.stamp().0);
        assert!(!c.snapshot().shares_rows_with(&r.snapshot()));
        assert_eq!(r.sorted_tuples(), vec![t(&[1]), t(&[2]), t(&[3])]);
        assert_eq!(c.sorted_tuples(), vec![t(&[1]), t(&[2]), t(&[9])]);
        r.check_invariant().unwrap();
        c.check_invariant().unwrap();
    }

    #[test]
    fn incarnations_tell_rebuilt_relations_apart() {
        let mut a = Relation::new(1);
        let mut b = Relation::new(1);
        a.insert(t(&[1]));
        b.insert(t(&[5]));
        assert_eq!(a.generation(), b.generation());
        assert_ne!(a.stamp(), b.stamp());
        let inc = a.stamp().0;
        a.insert(t(&[2]));
        a.delete(&t(&[1]));
        assert_eq!(a.stamp().0, inc, "appends and tombstones keep it");
        a.compact();
        assert_ne!(a.stamp().0, inc, "compaction renumbers rows");
    }

    #[test]
    fn snapshot_after_meters_only_what_publication_copied() {
        let meter = Arc::new(AtomicU64::new(0));
        let mut r = Relation::new(2);
        for i in 0..8 {
            r.insert(t(&[i, i]));
        }
        let s0 = r.snapshot_after(None, &meter);
        assert_eq!(meter.load(Ordering::Relaxed), 0, "a watermark is free");
        // 8 rows fill the 16-word allocation: this append outgrows it
        // while `s0` holds it, so the writer copies 8 rows of two 8-byte words.
        r.insert(t(&[8, 8]));
        let s1 = r.snapshot_after(Some(&s0), &meter);
        assert!(!s1.shares_rows_with(&s0));
        assert_eq!(meter.load(Ordering::Relaxed), 8 * 2 * 8);
        // A delete allocates (or, under a snapshot, copies) the
        // tombstone words; the appends that follow share them.
        r.delete(&t(&[0, 0]));
        let s2 = r.snapshot_after(Some(&s1), &meter);
        assert!(s2.shares_rows_with(&s1));
        assert_eq!(meter.load(Ordering::Relaxed), 8 * 2 * 8 + 8);
        r.insert(t(&[9, 9]));
        let s3 = r.snapshot_after(Some(&s2), &meter);
        assert_eq!((s3.len(), s2.len()), (9, 8));
        assert_eq!(meter.load(Ordering::Relaxed), 8 * 2 * 8 + 8, "shared");
        // The next delete copies them away from the snapshots…
        r.delete(&t(&[1, 1]));
        let s4 = r.snapshot_after(Some(&s3), &meter);
        assert_eq!(meter.load(Ordering::Relaxed), 8 * 2 * 8 + 16);
        // …which keep reading their own.
        assert_eq!((s4.len(), s3.len(), s2.len()), (8, 9, 8));
        assert_eq!(s3.find(&w(&[1, 1])), Some(1));
        assert_eq!(s4.find(&w(&[1, 1])), None);
    }

    #[test]
    fn revive_exactly_undoes_a_delete() {
        let mut r = Relation::new(2);
        for i in 0..6 {
            r.insert(t(&[i % 2, i]));
        }
        assert_eq!(probe(&r, &[0], &w(&[1]), r.all_rows()), [1, 3, 5]);
        let pinned = r.snapshot();
        let stamp = r.stamp();
        let before = r.sorted_tuples();
        // A transaction deletes two rows (one by content, one by id),
        // re-inserts one of them and appends another…
        let mark = r.physical_rows();
        let killed = [r.delete_row(&w(&[1, 3])).unwrap(), 4];
        assert_eq!(killed[0], 3);
        assert!(r.delete_at(4) && !r.delete_at(4) && !r.delete_at(99));
        assert!(r.insert(t(&[1, 3])) && r.insert(t(&[7, 7])));
        assert_eq!(r.find(&w(&[1, 3])), Some(6));
        // …and fails: cut the appends first, then revive.
        r.truncate(mark);
        for row in killed {
            r.revive(row);
        }
        r.check_invariant().unwrap();
        assert_eq!(r.sorted_tuples(), before);
        assert_eq!(r.find(&w(&[1, 3])), Some(3), "the old row id is back");
        assert!(!r.has_tombstones());
        assert_ne!(r.stamp(), stamp, "the state was republished if seen");
        assert_eq!(probe(&r, &[0], &w(&[1]), r.all_rows()), [1, 3, 5]);
        assert_eq!(pinned.sorted_tuples(), before);
        // Without appends nothing is cut, and revive keeps the
        // incarnation (and with it the index cache).
        let inc = r.stamp().0;
        assert!(r.delete(&t(&[0, 0])));
        r.truncate(r.physical_rows());
        r.revive(0);
        assert_eq!(r.stamp().0, inc);
        assert_eq!(r.sorted_tuples(), before);
        r.check_invariant().unwrap();
    }

    #[test]
    fn compaction_waits_until_the_dead_outnumber_the_live() {
        let mut r = Relation::new(2);
        for i in 0..10 {
            r.insert(t(&[i % 2, i]));
        }
        let s0 = r.snapshot_after(None, &Arc::default());
        let mut hits = Vec::new();
        s0.probe_into(&[0], &w(&[0]), &mut hits);
        let inc = r.stamp().0;
        // Half dead is not sparse: row ids, incarnation, lineage stay.
        for i in 0..5 {
            assert!(r.delete(&t(&[i % 2, i])));
            assert!(!r.compact_if_sparse());
        }
        assert_eq!((r.len(), r.physical_rows(), r.stamp().0), (5, 10, inc));
        let s1 = r.snapshot_after(Some(&s0), &Arc::default());
        assert!(s1.shares_indexes_with(&s0));
        // One more and the dead outnumber the live.
        assert!(r.delete(&t(&[1, 5])));
        assert!(r.compact_if_sparse());
        assert_eq!((r.len(), r.physical_rows()), (4, 4));
        assert_ne!(r.stamp().0, inc);
        assert!(!r.has_tombstones() && !r.compact_if_sparse());
        r.check_invariant().unwrap();
        let s2 = r.snapshot_after(Some(&s1), &Arc::default());
        assert!(!s2.shares_indexes_with(&s1) && !s2.shares_rows_with(&s1));
        // The pinned snapshots read the rows and tombstones of their
        // moment through the index they share.
        assert_eq!(s0.len(), 10);
        s1.probe_into(&[0], &w(&[0]), &mut hits);
        assert_eq!(hits, [6, 8]);
        s2.probe_into(&[0], &w(&[0]), &mut hits);
        assert_eq!(hits, [0, 2]);
        assert_eq!(s2.sorted_tuples(), r.sorted_tuples());
    }
}
