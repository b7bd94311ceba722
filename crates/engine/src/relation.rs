//! Append-only relations over *flat columnar storage* with lazily built,
//! incrementally extended hash indexes on column subsets — and the
//! read-only [`Snapshot`]s the serving layer publishes of them.
//!
//! Rows live in one contiguous buffer of `Value`s with an arity stride:
//! row `r` is the slice `data[r * arity .. (r + 1) * arity]`. `Value` is a
//! 16-byte `Copy` enum, so appending a row is a bulk copy into the flat
//! buffer and reading one is slicing — no per-tuple heap allocation
//! anywhere on the fixpoint hot path. Dedup is a flat fingerprinted
//! open-addressing table over precomputed FxHash (see [`crate::fxhash`])
//! and the column indexes dictionary-encode key groups as dense row-id
//! runs; both verify candidates by comparing the flat slices, so they
//! never own key vectors either.
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
//! relation nearly free. The row buffer (and the row-hash column) is a
//! shared append-only allocation (`append_buf`, the one module
//! holding this storage's `unsafe`): the relation is its single writer
//! and appends past every reader's length, so a [`Snapshot`] is the
//! allocation's `Arc`, a row watermark, the `Arc` of the tombstone
//! words (copied on the writer's first delete after the snapshot was
//! taken, never for an append) and the relation's
//! [stamp](Relation::stamp) — taken in O(1), with no membership table
//! and no reservation state. [`Relation::clone`] shares the rows the
//! same way and copies them only if the clone appends.
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

use crate::append_buf::AppendBuf;
use crate::fxhash::{hash_slice, FxHashMap};
use semrec_datalog::term::Value;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// An owned database tuple (boundary type: results, test fixtures, I/O).
/// Inside the engine rows are `&[Value]` slices of the flat store.
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

/// Empty slot marker in [`RowSet`] and [`CodeMap`] (the slot's low
/// half).
const EMPTY: u32 = u32::MAX;
/// Deleted-slot marker in [`RowSet`] (the slot's id half): does not stop
/// a probe walk, may be reused by a later insert.
const TOMB: u32 = u32::MAX - 1;
/// Mask selecting the fingerprint half of a [`RowSet`] slot: the high 32
/// bits of the row-content hash (the low bits pick the probe start, so
/// the halves are independent).
const FP_MASK: u64 = 0xFFFF_FFFF_0000_0000;

/// The relation's set-semantics membership structure: a flat
/// open-addressing table probed linearly from a row-content hash. Each
/// slot packs a physical row id (low half) with the hash's high 32 bits
/// as a fingerprint (high half), so a probe step decides
/// almost-certainly-equal/unequal from the slot line alone — no
/// dependent load of a hash column — and only fingerprint matches touch
/// the flat row store to verify by content. Probes therefore touch one
/// predictable cache line per step, and the drain loop can
/// software-prefetch that line for a whole batch of pending rows before
/// walking any of them. A std `HashMap` keeps its control bytes and
/// entries behind an opaque allocation, which makes that batching
/// impossible; on the insert-heavy fixpoint drain the prefetched flat
/// table is ~2x faster.
#[derive(Debug, Clone, Default)]
struct RowSet {
    /// Power-of-two array of `fingerprint << 32 | row id` slots; the id
    /// half is [`EMPTY`] or [`TOMB`] for vacant slots.
    slots: Vec<u64>,
    mask: usize,
    /// Occupied (live row) slots.
    live: usize,
    /// Tombstoned slots (deleted rows); reclaimed on grow.
    tombs: usize,
}

impl RowSet {
    /// First slot of the probe sequence for hash `h`.
    #[inline]
    fn start(&self, h: u64) -> usize {
        (h as usize) & self.mask
    }

    /// Packs a row id with its hash's fingerprint half.
    #[inline]
    fn entry(h: u64, id: u32) -> u64 {
        (h & FP_MASK) | id as u64
    }

    /// Grows (or initially sizes) the table to an explicit power-of-two
    /// capacity, re-inserting every live row id; `row_hash` is the
    /// relation's per-row hash column. A caller that knows how many
    /// inserts are coming jumps here once instead of paying a chain of
    /// doubling rehashes mid-drain ([`Relation::grow_for_insert`]).
    #[cold]
    fn grow_to(&mut self, cap: usize, row_hash: &[u64]) {
        let old = std::mem::replace(&mut self.slots, vec![EMPTY as u64; cap]);
        self.mask = cap - 1;
        self.tombs = 0;
        for slot in old {
            let id = slot as u32;
            if id == EMPTY || id == TOMB {
                continue;
            }
            let h = row_hash[id as usize];
            let mut s = self.start(h);
            while self.slots[s] as u32 != EMPTY {
                s = (s + 1) & self.mask;
            }
            self.slots[s] = RowSet::entry(h, id);
        }
    }

    /// True when an insert must [`RowSet::grow`] first: the table is
    /// unallocated, or live entries would exceed ½ capacity, or live
    /// plus tombstones would exceed ¾ (probe walks stay short).
    #[inline]
    fn needs_grow(&self) -> bool {
        let cap = self.slots.len();
        cap == 0 || 2 * (self.live + 1) > cap || 4 * (self.live + self.tombs + 1) > 3 * cap
    }

    /// Rebuilds the table from scratch for a relation whose rows
    /// `0..row_hash.len()` are all live (post-compaction state).
    fn rebuild(&mut self, row_hash: &[u64]) {
        let cap = (4 * (row_hash.len() + 1)).next_power_of_two();
        self.slots.clear();
        self.slots.resize(cap, EMPTY as u64);
        self.mask = cap - 1;
        self.live = row_hash.len();
        self.tombs = 0;
        for (id, &h) in row_hash.iter().enumerate() {
            let mut s = self.start(h);
            while self.slots[s] as u32 != EMPTY {
                s = (s + 1) & self.mask;
            }
            self.slots[s] = RowSet::entry(h, id as u32);
        }
    }
}

/// A purpose-built flat open-addressing map from key-tuple hashes to
/// dictionary codes: the [`RowSet`] slot discipline (packed
/// `fingerprint << 32 | code` words, linear probing from the hash's low
/// bits) applied to the dictionary side of the probe path. Compared to
/// the std `HashMap` it replaced, the slot array is a plain `Vec<u64>`
/// the caller can software-prefetch by hash ([`CodeMap::prefetch`]
/// mirrors [`Relation::prefetch_hash`]) — a std `HashMap` hides its
/// control bytes behind an opaque allocation, so the per-sort-group
/// random access behind [`ProbeHandle::encode`] could never be
/// overlapped. Dictionaries never delete, so there is no tombstone
/// state: every slot is either vacant or a live fingerprint|code pair,
/// and probe walks terminate at the first vacant slot.
///
/// The map does not store keys; lookups verify fingerprint matches
/// through a caller closure comparing the candidate code's key tuple,
/// and grows re-derive each entry's hash the same way. Full 64-bit hash
/// collisions are therefore handled by the probe walk itself: a
/// fingerprint match whose key comparison fails just keeps walking.
#[derive(Debug, Clone, Default)]
pub struct CodeMap {
    /// Power-of-two array of `fingerprint << 32 | code` slots; the code
    /// half is `u32::MAX` for vacant slots.
    slots: Vec<u64>,
    mask: usize,
    /// Occupied slots.
    len: usize,
}

impl CodeMap {
    /// First slot of the probe sequence for hash `h`.
    #[inline]
    fn start(&self, h: u64) -> usize {
        (h as usize) & self.mask
    }

    /// Packs a code with its key hash's fingerprint half.
    #[inline]
    fn entry(h: u64, code: u32) -> u64 {
        (h & FP_MASK) | code as u64
    }

    /// Number of stored codes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no code is stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The code filed under `hash` whose key the caller confirms via
    /// `eq` (called with a candidate code, almost always once), or
    /// `None`. `eq` must compare the candidate's key tuple against the
    /// probe key — fingerprints are 32 bits, so a match is necessary but
    /// not sufficient.
    #[inline]
    pub fn get(&self, hash: u64, mut eq: impl FnMut(u32) -> bool) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        let fp = hash & FP_MASK;
        let mut s = self.start(hash);
        loop {
            let slot = self.slots[s];
            let code = slot as u32;
            if code == EMPTY {
                return None;
            }
            if slot & FP_MASK == fp && eq(code) {
                return Some(code);
            }
            s = (s + 1) & self.mask;
        }
    }

    /// Files `code` under `hash`. The caller must have verified absence
    /// (via [`CodeMap::get`]) first — the map holds one entry per
    /// distinct key. `key_hash` re-derives the hash of an existing code
    /// when the insert forces a grow.
    pub fn insert(&mut self, hash: u64, code: u32, key_hash: impl Fn(u32) -> u64) {
        debug_assert_ne!(code, EMPTY, "code u32::MAX is the vacant-slot marker");
        let cap = self.slots.len();
        if cap == 0 || 2 * (self.len + 1) > cap {
            self.grow(&key_hash);
        }
        let mut s = self.start(hash);
        while self.slots[s] as u32 != EMPTY {
            s = (s + 1) & self.mask;
        }
        self.slots[s] = CodeMap::entry(hash, code);
        self.len += 1;
    }

    /// Grows (or initially sizes) the slot array so one more insert
    /// keeps the load factor at most ½, re-filing every code under the
    /// hash `key_hash` derives for it.
    #[cold]
    fn grow(&mut self, key_hash: &impl Fn(u32) -> u64) {
        let cap = (4 * (self.len + 1)).next_power_of_two();
        let old = std::mem::replace(&mut self.slots, vec![EMPTY as u64; cap]);
        self.mask = cap - 1;
        for slot in old {
            let code = slot as u32;
            if code == EMPTY {
                continue;
            }
            let h = key_hash(code);
            let mut s = self.start(h);
            while self.slots[s] as u32 != EMPTY {
                s = (s + 1) & self.mask;
            }
            self.slots[s] = CodeMap::entry(h, code);
        }
    }

    /// Drops every entry but keeps the slot allocation, for memo
    /// invalidation: the next fill cycle reuses the array.
    pub fn clear(&mut self) {
        self.slots.fill(EMPTY as u64);
        self.len = 0;
    }

    /// Prefetches the slot-array cache line `hash` will probe first, so
    /// a caller resolving a batch of keys can overlap the map's cold
    /// misses instead of stalling on each in turn. Purely a hint; no-op
    /// off x86-64.
    #[inline]
    pub fn prefetch(&self, hash: u64) {
        #[cfg(target_arch = "x86_64")]
        if !self.slots.is_empty() {
            // SAFETY: `start` is masked into bounds; prefetch reads no
            // memory architecturally.
            unsafe {
                core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T0 }>(
                    self.slots.as_ptr().add(self.start(hash)) as *const i8,
                );
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = hash;
    }

    /// Resident bytes of the slot array.
    pub fn heap_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<u64>()
    }
}

/// A dictionary index on a column subset: every distinct key tuple gets a
/// dense `u32` *code*, rows are grouped per code, and each physical row
/// carries its code in a dense column (`row_codes`) — the relation's
/// dictionary-encoded key view. Probing resolves a key to its code once
/// (one hash lookup plus a key comparison per same-hash code) and then
/// iterates the exact row group — no per-row key comparisons, unlike the
/// former hash-bucket index whose buckets mixed hash collisions.
///
/// Stored boxed in the index cache so that a [`ProbeHandle`] can point at
/// it directly: cache-map rehashes move the box pointer, never the index.
#[derive(Debug)]
struct ColumnIndex {
    cols: Vec<usize>,
    /// Key-tuple hash → code, a prefetchable flat [`CodeMap`]. Lookups
    /// verify candidates against `keys`, and same-hash codes simply
    /// occupy adjacent probe slots — no chain storage.
    map: CodeMap,
    /// Flat store of the distinct key tuples, `cols.len()` stride; code
    /// `c`'s tuple is at `c * cols.len()`.
    keys: Vec<Value>,
    /// Row ids per code, in insertion order. Tombstoned and out-of-range
    /// rows are filtered lazily at iteration time.
    groups: Vec<Vec<u32>>,
    /// Dense per-row key code, parallel to the relation's physical rows:
    /// the `u32` column view batch kernels sort-group on.
    row_codes: Vec<u32>,
    /// Rows `[0, built)` have been dictionary-encoded.
    built: usize,
}

/// The lazily built index cache of one relation (or of one snapshot
/// lineage): a dictionary index per probed column subset.
type IndexMap = FxHashMap<Vec<usize>, Box<ColumnIndex>>;

/// The index on `cols` in `indexes`, created empty on first use.
fn entry_index<'a>(indexes: &'a mut IndexMap, cols: &[usize]) -> &'a mut ColumnIndex {
    indexes.entry(cols.to_vec()).or_insert_with(|| {
        Box::new(ColumnIndex {
            cols: cols.to_vec(),
            map: CodeMap::default(),
            keys: Vec::new(),
            groups: Vec::new(),
            row_codes: Vec::new(),
            built: 0,
        })
    })
}

impl ColumnIndex {
    /// Dictionary-encodes rows `[built, nrows)` of the flat store `data`
    /// (`arity` values per row), in row order — so every group lists its
    /// row ids ascending. No-op when the index already covers `nrows`.
    /// Returns the bytes of index entries it appended: a code and a
    /// group slot per row, a key tuple, group header and map slot per
    /// new distinct key.
    fn extend(&mut self, data: &[Value], arity: usize, nrows: usize) -> usize {
        let (rows, codes) = (nrows.saturating_sub(self.built), self.groups.len());
        let mut key: Vec<Value> = Vec::with_capacity(self.cols.len());
        for r in self.built..nrows {
            let row = &data[r * arity..(r + 1) * arity];
            key.clear();
            key.extend(self.cols.iter().map(|&c| row[c]));
            let code = self.encode_or_insert(hash_slice(&key), &key);
            self.groups[code as usize].push(r as u32);
            self.row_codes.push(code);
        }
        self.built = self.built.max(nrows);
        let per_key = std::mem::size_of::<Value>() * self.cols.len()
            + std::mem::size_of::<Vec<u32>>()
            + std::mem::size_of::<u64>();
        rows * 2 * std::mem::size_of::<u32>() + (self.groups.len() - codes) * per_key
    }

    /// Appends to `out` the rows filed under `key` that `visible` lets
    /// through (range and tombstone filtering is the prober's: an index
    /// lists physical rows, dead and beyond-the-watermark ones included).
    fn hits_into(&self, key: &[Value], visible: impl Fn(u32) -> bool, out: &mut Vec<u32>) {
        if let Some(code) = self.encode(hash_slice(key), key) {
            out.extend(
                self.groups[code as usize]
                    .iter()
                    .copied()
                    .filter(|&r| visible(r)),
            );
        }
    }

    /// Heap bytes held: the flat hash → code slot array, the
    /// distinct-key store, per-code group headers and their row ids,
    /// and the dense per-row code column.
    fn heap_bytes(&self) -> usize {
        self.map.heap_bytes()
            + self.keys.capacity() * std::mem::size_of::<Value>()
            + self.groups.capacity() * std::mem::size_of::<Vec<u32>>()
            + self
                .groups
                .iter()
                .map(|g| g.capacity() * std::mem::size_of::<u32>())
                .sum::<usize>()
            + self.row_codes.capacity() * std::mem::size_of::<u32>()
    }

    /// The key tuple code `c` encodes.
    #[inline]
    fn key_of(&self, c: u32) -> &[Value] {
        let w = self.cols.len();
        let at = c as usize * w;
        &self.keys[at..at + w]
    }

    /// The code of `key` (whose hash is `key_hash`), or `None` if no row
    /// ever carried it.
    #[inline]
    fn encode(&self, key_hash: u64, key: &[Value]) -> Option<u32> {
        self.map.get(key_hash, |c| self.key_of(c) == key)
    }

    /// The code of `key`, minting a fresh one on first sight.
    fn encode_or_insert(&mut self, key_hash: u64, key: &[Value]) -> u32 {
        if let Some(c) = self.encode(key_hash, key) {
            return c;
        }
        let c = self.groups.len() as u32;
        self.keys.extend_from_slice(key);
        self.groups.push(Vec::new());
        let w = self.cols.len();
        let keys = &self.keys;
        self.map.insert(key_hash, c, |code| {
            hash_slice(&keys[code as usize * w..(code as usize + 1) * w])
        });
        c
    }
}

/// A generation-checked raw handle to a current column index, acquired
/// once per task (one read-lock acquisition) and then probed lock-free:
/// [`ProbeHandle::encode`] resolves a probe key to its dictionary code
/// and [`ProbeHandle::group`] returns the borrowed row-id group for a
/// code. Group rows match the key exactly; the caller only filters range
/// and tombstones lazily at iteration time ([`Relation::row_visible`]).
/// This is the evaluator's zero-allocation probe path: no per-probe
/// lock, no per-probe `Vec`, no per-row key comparison.
///
/// # Validity
/// The handle is valid only while the relation and the index are not
/// mutated: no row inserts/deletes/compaction, and no index extension.
/// The evaluator guarantees this per round — relations are immutable
/// while tasks run, new rows commit only between rounds, and
/// `ensure_index` on an already-current index does not touch group
/// storage. [`ProbeHandle::generation`] records the row count at
/// acquisition so callers can `debug_assert` currency before use.
#[derive(Clone, Copy, Debug)]
pub struct ProbeHandle {
    idx: *const ColumnIndex,
    built: usize,
}

impl ProbeHandle {
    /// Physical row count the index covered when the handle was taken.
    pub fn generation(&self) -> usize {
        self.built
    }

    /// The dictionary code of `key` (whose precomputed hash is
    /// `key_hash`), or `None` when no row ever carried this key — the
    /// probe can produce no rows.
    ///
    /// # Safety
    /// The relation and index must not have been mutated since
    /// [`Relation::probe_handle`] returned this handle (see type docs).
    #[inline]
    pub unsafe fn encode(&self, key_hash: u64, key: &[Value]) -> Option<u32> {
        // SAFETY: caller guarantees the index (and the cache map slot
        // holding its box) outlives and is not mutated during this call.
        unsafe { &*self.idx }.encode(key_hash, key)
    }

    /// Prefetches the dictionary-map cache line `key_hash` will probe
    /// first, so a batch caller can overlap the per-group random access
    /// [`ProbeHandle::encode`] would otherwise stall on. Purely a hint.
    ///
    /// # Safety
    /// Same contract as [`ProbeHandle::encode`].
    #[inline]
    pub unsafe fn prefetch_key(&self, key_hash: u64) {
        // SAFETY: as in `encode`.
        unsafe { &*self.idx }.map.prefetch(key_hash);
    }

    /// The key tuple a dictionary code encodes, for callers verifying a
    /// memoized key→code pair against the live dictionary.
    ///
    /// # Safety
    /// Same contract as [`ProbeHandle::encode`]; `code` must have come
    /// from this index's [`ProbeHandle::encode`] (codes are dense, so
    /// any out-of-range code panics on the slice).
    #[inline]
    pub unsafe fn code_key(&self, code: u32) -> &[Value] {
        // SAFETY: as in `encode`.
        unsafe { &*self.idx }.key_of(code)
    }

    /// The row-id group of a dictionary code. Every group row's key
    /// columns equal the code's key tuple; callers still filter range
    /// and tombstones ([`Relation::row_visible`]).
    ///
    /// # Safety
    /// Same contract as [`ProbeHandle::encode`].
    #[inline]
    pub unsafe fn group(&self, code: u32) -> &[u32] {
        // SAFETY: as in `encode`.
        &unsafe { &*self.idx }.groups[code as usize]
    }
}

/// A summary of one dictionary index's key-group shape, read by the
/// cost planner's statistics collector ([`Relation::key_distribution`]).
/// All counts are over *physical* rows (tombstones included), so every
/// number is an upper bound on the live distribution — the direction
/// size-bound estimation needs.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct KeyDistribution {
    /// Distinct key tuples ever inserted under the indexed columns.
    pub distinct: usize,
    /// Physical rows in the largest key group (the worst-case probe
    /// fanout).
    pub max_group: usize,
    /// Total physical rows indexed (sum of group sizes).
    pub rows: usize,
    /// log2 histogram of group sizes: bucket `i` counts groups of size
    /// in `[2^i, 2^(i+1))`; the last bucket absorbs everything larger.
    pub histogram: [usize; 16],
}

impl KeyDistribution {
    /// Mean rows per distinct key (the average probe fanout), 0 when the
    /// index is empty.
    pub fn mean_fanout(&self) -> f64 {
        if self.distinct == 0 {
            0.0
        } else {
            self.rows as f64 / self.distinct as f64
        }
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

/// Prefetches the cache line holding `data[i]`, if in bounds. Purely a
/// hint; no-op off x86-64.
#[inline]
fn prefetch_value(data: &[Value], i: usize) {
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

/// A fresh storage-incarnation id: process-unique, never reused.
fn mint_incarnation() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    // Relaxed: the id publishes nothing; it only has to be unique.
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// An append-only relation of fixed arity with set semantics over flat
/// columnar storage.
///
/// This is the *writer's* type: it owns the membership table, the
/// reservation state and a private index cache (behind a `RwLock` only
/// so that probes can build indexes through `&self`). Concurrent
/// readers get a [`Snapshot`].
#[derive(Debug)]
pub struct Relation {
    arity: usize,
    /// Flat row storage, `nrows * arity` values, shared with snapshots
    /// and clones (see the module docs).
    data: AppendBuf<Value>,
    nrows: usize,
    /// Membership table over live rows (set semantics): flat
    /// open-addressing row-id slots, probed from the row-content hash.
    set: RowSet,
    /// Per physical row: its content hash, parallel to the flat store.
    /// Lets table probes verify candidates — and the table grow — without
    /// rehashing row values.
    row_hash: AppendBuf<u64>,
    /// Tombstones of rows deleted since the last compaction.
    dead: Tombstones,
    /// Learned fraction of derived rows that survive dedup, an EWMA over
    /// drain rounds (see [`Relation::reserve_for_derived`]). Starts at
    /// 1.0 — assume everything is new until a round proves otherwise —
    /// so the first reservation can only over-size, never under-size.
    uniq_ewma: f64,
    /// Dedup-table rehashes forced mid-insert after the table was first
    /// sized — the stall [`Relation::reserve_for_derived`] exists to
    /// eliminate (surfaced as `Stats::dedup_regrows`).
    regrows: u64,
    /// Pending reservation: the slot capacity [`Relation::reserve_rows`]
    /// computed, consumed by the next grow-triggering insert (0 = none).
    /// Deferring the jump to the natural ½-load trigger keeps the rehash
    /// on the lazy schedule — the table is warm from the very probes
    /// that tripped the trigger — while still replacing a chain of
    /// doublings with one sized jump.
    reserve_hint: usize,
    /// Monotonic mutation counter: bumped by every call that changes the
    /// live tuple set (insert, delete, truncate, compact, bulk commit).
    /// Unlike [`Relation::physical_rows`] — which a truncate-then-insert
    /// sequence can return to its old value — two observations of an
    /// equal generation *on one relation object* guarantee its content
    /// is unchanged, which is what the kernel memos key on. Across
    /// objects it means nothing by itself: see [`Relation::stamp`].
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
            set: RowSet::default(),
            row_hash: AppendBuf::new(),
            dead: Tombstones::default(),
            uniq_ewma: 1.0,
            regrows: 0,
            reserve_hint: 0,
            generation: 0,
            incarnation: mint_incarnation(),
            indexes: RwLock::new(FxHashMap::default()),
        }
    }

    /// The monotonic mutation counter: strictly increases on every
    /// content change of this object and never repeats on it, so callers
    /// caching work derived from *this* relation (kernel key→code memos)
    /// can compare generations to detect any intervening mutation —
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
    /// ever *published* ([`Snapshot::stamp`] is what snapshot reuse and
    /// the serving layer's answer cache key on). The incarnation is
    /// process-unique per append history — a rebuilt, compacted,
    /// truncated or forked relation gets a new one — and the generation
    /// orders the states within it. Two clones that both only *delete*
    /// would share an incarnation while differing in content; nothing
    /// publishes a clone — publication follows the one relation every
    /// transaction mutates in place, where stamps cannot collide.
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
                    copied += std::mem::size_of_val::<[Value]>(&p.data);
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

    /// Inserts a tuple; returns `true` if it was new. Accepts any slice of
    /// values (owned `Tuple`s and flat-store row slices alike) and copies
    /// it into the flat buffer — the caller keeps ownership.
    ///
    /// # Panics
    /// Panics if the tuple arity does not match the relation arity.
    pub fn insert(&mut self, t: impl AsRef<[Value]>) -> bool {
        let t = t.as_ref();
        self.insert_hashed(t, hash_slice(t))
    }

    /// [`Relation::insert`] with the row-content hash already computed
    /// (the fixpoint loop hashes each derived tuple once, at derivation
    /// time, and reuses the hash for insertion).
    pub fn insert_hashed(&mut self, t: &[Value], h: u64) -> bool {
        assert_eq!(t.len(), self.arity, "tuple arity mismatch");
        debug_assert_eq!(h, hash_slice(t), "stale row hash");
        if self.set.needs_grow() {
            self.grow_for_insert();
        }
        let arity = self.arity;
        let mut s = self.set.start(h);
        let mut free = usize::MAX;
        loop {
            let slot = self.set.slots[s];
            let id = slot as u32;
            if id == EMPTY {
                break;
            }
            if id == TOMB {
                if free == usize::MAX {
                    free = s;
                }
            } else if slot & FP_MASK == h & FP_MASK
                && &self.data[id as usize * arity..(id as usize + 1) * arity] == t
            {
                return false;
            }
            s = (s + 1) & self.set.mask;
        }
        if free != usize::MAX {
            s = free;
            self.set.tombs -= 1;
        }
        self.set.slots[s] = RowSet::entry(h, self.nrows as u32);
        self.set.live += 1;
        if self.row_hash.push(h) | self.data.extend_from_slice(t) {
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
        #[cfg(target_arch = "x86_64")]
        if !self.set.slots.is_empty() {
            // SAFETY: `start` is masked into bounds; prefetch reads no
            // memory architecturally.
            unsafe {
                core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T0 }>(
                    self.set.slots.as_ptr().add(self.set.start(h)) as *const i8,
                );
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = h;
    }

    /// The precomputed content hash of row `r` (the one every insert
    /// path stores at derivation time). Callers re-emitting a stored
    /// row verbatim can reuse it instead of rehashing.
    #[inline]
    pub fn row_hash_at(&self, r: u32) -> u64 {
        self.row_hash[r as usize]
    }

    /// Prefetches the flat-store cache line holding row `r`'s values,
    /// for callers about to walk a batch of scattered row ids. Purely a
    /// hint; no-op off x86-64.
    #[inline]
    pub fn prefetch_row(&self, r: u32) {
        prefetch_value(&self.data, r as usize * self.arity);
    }

    /// Membership test.
    pub fn contains(&self, t: &[Value]) -> bool {
        self.contains_hashed(t, hash_slice(t))
    }

    /// [`Relation::contains`] with the row hash already computed.
    pub fn contains_hashed(&self, t: &[Value], h: u64) -> bool {
        self.find_hashed(t, h).is_some()
    }

    /// The id of the live row holding exactly `t`, if any: a membership
    /// table lookup, no index involved.
    pub fn find(&self, t: &[Value]) -> Option<u32> {
        self.find_hashed(t, hash_slice(t))
    }

    fn find_hashed(&self, t: &[Value], h: u64) -> Option<u32> {
        if t.len() != self.arity {
            return None;
        }
        debug_assert_eq!(h, hash_slice(t), "stale row hash");
        self.hash_matches(h).find(|&r| self.row(r) == t)
    }

    /// Iterates the live rows whose hash *fingerprint* matches `h`, by
    /// walking the membership table's probe sequence for `h` until an
    /// empty slot. Candidates are almost always content-equal but every
    /// caller still verifies by row comparison (fingerprints are 32
    /// bits).
    #[inline]
    fn hash_matches(&self, h: u64) -> impl Iterator<Item = u32> + '_ {
        let mut s = self.set.start(h);
        let done = self.set.slots.is_empty();
        std::iter::from_fn(move || {
            if done {
                return None;
            }
            loop {
                let slot = self.set.slots[s];
                let id = slot as u32;
                if id == EMPTY {
                    return None;
                }
                s = (s + 1) & self.set.mask;
                if id != TOMB && slot & FP_MASK == h & FP_MASK {
                    return Some(id);
                }
            }
        })
    }

    /// Deletes a tuple by tombstoning its physical row; returns `true`
    /// if the tuple was present (and live). The flat store keeps the
    /// row's bytes — only the dedup entry goes away and the dead bit is
    /// set — so earlier row ids held by callers stay valid. A later
    /// [`Relation::insert`] of an equal tuple appends a *fresh* physical
    /// row; set semantics hold over live rows throughout.
    pub fn delete(&mut self, t: &[Value]) -> bool {
        self.delete_row(t).is_some()
    }

    /// [`Relation::delete`] returning the id of the row it tombstoned —
    /// what an undo log keeps to [`Relation::revive`] it.
    pub fn delete_row(&mut self, t: &[Value]) -> Option<u32> {
        if t.len() != self.arity {
            return None;
        }
        self.tombstone(hash_slice(t), |_, row| row == t)
    }

    /// Tombstones the live row with id `r`; `false` if it is out of
    /// range or already dead.
    pub fn delete_at(&mut self, r: u32) -> bool {
        (r as usize) < self.nrows
            && self
                .tombstone(self.row_hash[r as usize], |id, _| id == r)
                .is_some()
    }

    /// Tombstones the live row under hash `h` satisfying `is_target`,
    /// returning its id.
    fn tombstone(&mut self, h: u64, is_target: impl Fn(u32, &[Value]) -> bool) -> Option<u32> {
        let r = self.unlink_row(h, is_target)?;
        self.dead.set(r as usize, self.nrows);
        self.generation += 1;
        Some(r)
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
        let h = self.row_hash[r as usize];
        debug_assert!(
            !self.contains_hashed(self.row(r), h),
            "revive would duplicate"
        );
        if self.set.needs_grow() {
            self.grow_for_insert();
        }
        let mut s = self.set.start(h);
        loop {
            match self.set.slots[s] as u32 {
                EMPTY => break,
                TOMB => {
                    self.set.tombs -= 1;
                    break;
                }
                _ => s = (s + 1) & self.set.mask,
            }
        }
        self.set.slots[s] = RowSet::entry(h, r);
        self.set.live += 1;
        self.dead.clear(r as usize);
        self.generation += 1;
    }

    /// Removes the live row under hash `h` satisfying `is_target` from
    /// the membership table (tombstoning its slot), returning its id.
    fn unlink_row(&mut self, h: u64, is_target: impl Fn(u32, &[Value]) -> bool) -> Option<u32> {
        if self.set.slots.is_empty() {
            return None;
        }
        let mut s = self.set.start(h);
        loop {
            let slot = self.set.slots[s];
            let id = slot as u32;
            if id == EMPTY {
                return None;
            }
            if id != TOMB && slot & FP_MASK == h & FP_MASK && is_target(id, self.row(id)) {
                self.set.slots[s] = TOMB as u64;
                self.set.live -= 1;
                self.set.tombs += 1;
                return Some(id);
            }
            s = (s + 1) & self.set.mask;
        }
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
        // Already-tombstoned rows are not in the table and simply are
        // not found; live removed rows get their slot tombstoned.
        for r in keep..self.nrows {
            self.unlink_row(self.row_hash[r], |id, _| id == r as u32);
        }
        self.row_hash.truncate(keep);
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
        // An eighth of headroom: what follows is usually an append, and
        // a snapshot taken in between shares this very allocation — an
        // exact fit would make that first append copy the whole
        // relation to grow. Untouched capacity is not resident.
        let room = live + live / 8 + 1;
        let mut data = AppendBuf::with_capacity(room * self.arity);
        let mut row_hash = AppendBuf::with_capacity(room);
        for r in 0..self.nrows as u32 {
            if self.is_dead(r) {
                continue;
            }
            data.extend_from_slice(self.row(r));
            row_hash.push(self.row_hash[r as usize]);
        }
        self.nrows = live;
        self.data = data;
        self.row_hash = row_hash;
        self.set.rebuild(&self.row_hash);
        self.dead = Tombstones::default();
        self.generation += 1;
        // Surviving rows were renumbered.
        self.incarnation = mint_incarnation();
        self.indexes.write().expect("index lock poisoned").clear();
    }

    /// Reserves dedup-table capacity for `extra` more live rows: records
    /// the smallest power-of-two capacity whose ½-load grow trigger
    /// `live + extra` stays under, to be consumed by the next
    /// grow-triggering insert ([`Relation::grow_for_insert`]). The
    /// reservation is *deferred*, not executed here: rehashing eagerly
    /// would scan a cache-cold table between rounds, while the natural
    /// trigger fires mid-insert when the table is warm from the very
    /// probes that tripped it. The target stays on the lazy doubling
    /// schedule — pre-sizing must not inflate the table beyond it, or
    /// every insert probe pays the cache footprint of a map twice as
    /// large.
    pub fn reserve_rows(&mut self, extra: usize) {
        let cap = (2 * (self.set.live + extra + 1)).next_power_of_two();
        let cur = self.set.slots.len();
        // Also arm when tombstones alone would trip the ¾ live+tombs
        // trigger during the run (the jump reclaims them).
        if cap > cur || 4 * (self.set.live + self.set.tombs + extra + 1) > 3 * cur {
            self.reserve_hint = self.reserve_hint.max(cap.max(cur));
        }
    }

    /// Grows the dedup table for one more insert: a pending reservation
    /// jumps straight to its recorded capacity (not a regrow — this is
    /// the reservation executing); an unreserved or reservation-exceeding
    /// grow is the mid-insert stall `Stats::dedup_regrows` surfaces.
    #[cold]
    fn grow_for_insert(&mut self) {
        let natural = (4 * (self.set.live + 1)).next_power_of_two();
        self.regrows += (self.reserve_hint == 0 && !self.set.slots.is_empty()) as u64;
        let target = natural.max(self.reserve_hint);
        self.reserve_hint = 0;
        self.set.grow_to(target, &self.row_hash);
    }

    /// Pre-sizes the dedup table for a drain of `derived` rows *before
    /// dedup*, scaled by the unique-fraction EWMA learned from earlier
    /// rounds — the fix for the duplicate-inflation overshoot of sizing
    /// by raw derived counts: a fanout round deriving 10× duplicates
    /// would otherwise allocate a table 10× too big every round. The
    /// reservation doubles the expectation (capped at `derived`, the
    /// true upper bound), so the no-regrow guarantee survives a ~2×
    /// under-estimate while steady-state capacity stays on the lazy
    /// doubling schedule — the headroom rides on the round's expected
    /// inserts, not on the whole live set.
    pub fn reserve_for_derived(&mut self, derived: usize) {
        let expect = (derived as f64 * self.uniq_ewma).ceil() as usize;
        self.reserve_rows((2 * expect).min(derived));
    }

    /// Folds a finished drain round's observed unique fraction
    /// (`inserted` of `derived` rows survived dedup) into the EWMA
    /// consulted by [`Relation::reserve_for_derived`].
    pub fn note_drain(&mut self, derived: usize, inserted: usize) {
        if derived == 0 {
            return;
        }
        let frac = (inserted as f64 / derived as f64).clamp(0.05, 1.0);
        self.uniq_ewma = 0.7 * self.uniq_ewma + 0.3 * frac;
    }

    /// Number of mid-insert dedup-table rehashes since creation. A
    /// correctly pre-sized drain keeps this flat across rounds
    /// (`Stats::dedup_regrows` samples it before/after each drain).
    pub fn regrows(&self) -> u64 {
        self.regrows
    }

    /// The tuple at `row`, as a slice into the flat store.
    pub fn row(&self, row: u32) -> &[Value] {
        let r = row as usize;
        &self.data[r * self.arity..(r + 1) * self.arity]
    }

    /// Iterates over all live tuples in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &[Value]> {
        (0..self.nrows as u32)
            .filter(move |&r| !self.is_dead(r))
            .map(move |r| self.row(r))
    }

    /// Iterates over the live tuples of a row range.
    pub fn iter_range(&self, range: RowRange) -> impl Iterator<Item = (u32, &[Value])> {
        (range.start..range.end.min(self.nrows as u32))
            .filter(move |&r| !self.is_dead(r))
            .map(move |r| (r, self.row(r)))
    }

    /// Row ids within `range` whose columns `cols` equal `key`, using (and
    /// if necessary extending) the hash index on `cols`. Convenience
    /// wrapper over [`Relation::probe_into`]; the evaluator's hot path
    /// uses [`Relation::probe_handle`] + [`ProbeHandle::encode`] /
    /// [`ProbeHandle::group`] instead to avoid the per-probe allocation.
    ///
    /// Probing with an empty `cols` is an error — use [`Relation::iter_range`].
    pub fn probe(&self, cols: &[usize], key: &[Value], range: RowRange) -> Vec<u32> {
        let mut out = Vec::new();
        self.probe_into(cols, key, range, &mut out);
        out
    }

    /// [`Relation::probe`] writing the hits into a caller-owned buffer
    /// (cleared first), so repeat probes reuse one allocation. On an
    /// index miss the build-then-probe happens under a single write-lock
    /// acquisition — no drop-read/take-write/re-take-read dance.
    pub fn probe_into(&self, cols: &[usize], key: &[Value], range: RowRange, out: &mut Vec<u32>) {
        debug_assert!(!cols.is_empty(), "probe with no bound columns");
        debug_assert_eq!(cols.len(), key.len());
        out.clear();
        // Fast path: the index exists and is current — shared read lock.
        {
            let indexes = self.indexes.read().expect("index lock poisoned");
            if let Some(idx) = indexes.get(cols) {
                if idx.built == self.nrows {
                    idx.hits_into(key, |r| self.row_visible(r, range), out);
                    return;
                }
            }
        }
        // Miss: build (or extend) and probe under one write acquisition.
        let mut indexes = self.indexes.write().expect("index lock poisoned");
        let idx = entry_index(&mut indexes, cols);
        idx.extend(&self.data, self.arity, self.nrows);
        idx.hits_into(key, |r| self.row_visible(r, range), out);
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
        Some(ProbeHandle {
            idx: &**idx as *const ColumnIndex,
            built: idx.built,
        })
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

    /// The min/max integer value ever inserted in column `col`, read off
    /// the single-column dictionary index's distinct-key store (one pass
    /// over `distinct` keys, not rows). `None` if the column holds no
    /// integer values. Like [`Relation::key_distribution`], deleted
    /// values stay in the dictionary until compaction, so the range is
    /// an over-approximation — sound for bounding.
    pub fn column_int_range(&self, col: usize) -> Option<(i64, i64)> {
        let mut indexes = self.indexes.write().expect("index lock poisoned");
        let idx = entry_index(&mut indexes, &[col]);
        idx.extend(&self.data, self.arity, self.nrows);
        let mut range: Option<(i64, i64)> = None;
        for v in &idx.keys {
            if let Value::Int(i) = v {
                range = Some(match range {
                    Some((lo, hi)) => (lo.min(*i), hi.max(*i)),
                    None => (*i, *i),
                });
            }
        }
        range
    }

    /// Row ids within `range` exactly equal to `key` (all columns bound).
    /// Fast path over the dedup table when the range covers everything.
    pub fn probe_all_columns(&self, key: &[Value], range: RowRange) -> Vec<u32> {
        if range.start == 0 && range.end as usize >= self.nrows {
            return if self.contains(key) {
                vec![u32::MAX] // sentinel row id; only existence matters
            } else {
                Vec::new()
            };
        }
        // Partial range: the membership table already maps content
        // hash → row ids.
        self.hash_matches(hash_slice(key))
            .filter(|&r| range.contains(r) && self.row(r) == key)
            .collect()
    }

    /// Existence test for an exact tuple within a row range, walking the
    /// dedup table's fingerprint-matching slots directly — the
    /// allocation-free form of [`Relation::probe_all_columns`] used by
    /// negation steps. The table holds only live rows, so no tombstone
    /// check is needed.
    pub fn contains_in_range(&self, key: &[Value], h: u64, range: RowRange) -> bool {
        if key.len() != self.arity {
            return false;
        }
        debug_assert_eq!(h, hash_slice(key), "stale key hash");
        self.hash_matches(h)
            .any(|r| range.contains(r) && self.row(r) == key)
    }

    /// All tuples, sorted, for deterministic comparisons in tests.
    pub fn sorted_tuples(&self) -> Vec<Tuple> {
        let mut v: Vec<Tuple> = self.iter().map(<[Value]>::to_vec).collect();
        v.sort();
        v
    }

    /// Estimated resident bytes of this relation: the flat store's
    /// capacity, the dedup table's slot array and row-hash column, the
    /// tombstone bitset, and every dictionary index's maps, key store,
    /// row groups and dense code column. Indexes are derived caches, but
    /// under the dictionary-encoded probe path they are also the bulk of
    /// steady-state residency beyond the rows themselves, so the
    /// evaluator's `max_resident_bytes` budget counts them — a byte
    /// limit that ignored them would under-report real footprint by the
    /// size of every probed key column. An estimate, not an allocator
    /// census.
    pub fn estimated_bytes(&self) -> u64 {
        let data = self.data.capacity() * std::mem::size_of::<Value>();
        // The membership table's packed fingerprint|id slots plus the
        // per-row hash column.
        let dedup = self.set.slots.capacity() * std::mem::size_of::<u64>()
            + self.row_hash.capacity() * std::mem::size_of::<u64>();
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

    /// Verifies the relation's structural invariants, returning a
    /// description of the first violation: flat storage and the per-row
    /// hash column sized exactly to `nrows`, every membership-table slot
    /// pointing at an in-bounds *live* row filed under its own hash,
    /// exactly one slot per live row, no two live rows with equal
    /// content, every live row findable by probing from its hash, and
    /// the tombstone population count matching the bitset. Budget,
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
        if self.row_hash.len() != self.nrows {
            return Err(format!(
                "hash column holds {} hashes for {} rows",
                self.row_hash.len(),
                self.nrows
            ));
        }
        for r in 0..self.nrows as u32 {
            if self.row_hash[r as usize] != hash_slice(self.row(r)) {
                return Err(format!("row {r} carries a stale content hash"));
            }
        }
        let mut seen = vec![false; self.nrows];
        let mut entries = 0usize;
        let mut tombs = 0usize;
        for &slot in &self.set.slots {
            let id = slot as u32;
            if id == EMPTY {
                continue;
            }
            if id == TOMB {
                tombs += 1;
                continue;
            }
            if id as usize >= self.nrows {
                return Err(format!("table entry {id} out of bounds ({})", self.nrows));
            }
            if self.is_dead(id) {
                return Err(format!("table entry {id} points at a tombstoned row"));
            }
            if slot & FP_MASK != self.row_hash[id as usize] & FP_MASK {
                return Err(format!("table entry {id} carries a stale fingerprint"));
            }
            if seen[id as usize] {
                return Err(format!("row {id} occupies two table slots"));
            }
            seen[id as usize] = true;
            entries += 1;
        }
        if entries != self.len() {
            return Err(format!(
                "membership table holds {entries} entries for {} live rows",
                self.len()
            ));
        }
        if entries != self.set.live || tombs != self.set.tombs {
            return Err(format!(
                "table load counters drifted: {entries}/{tombs} counted, {}/{} recorded",
                self.set.live, self.set.tombs
            ));
        }
        for r in 0..self.nrows as u32 {
            if self.is_dead(r) {
                continue;
            }
            let row = self.row(r);
            let found: Vec<u32> = self
                .hash_matches(self.row_hash[r as usize])
                .filter(|&q| self.row(q) == row)
                .collect();
            if found != [r] {
                return Err(format!(
                    "probing for row {r} found {found:?} — a duplicate or a broken probe chain"
                ));
            }
        }
        Ok(())
    }
}

impl Clone for Relation {
    /// Shares the rows and the row-hash column with the original (they
    /// are copied only if the clone later appends, which also gives it
    /// a new incarnation) and the tombstone words (copied by whichever
    /// side deletes first); copies the membership table; starts with an
    /// empty index cache.
    fn clone(&self) -> Self {
        Relation {
            arity: self.arity,
            data: self.data.clone(),
            nrows: self.nrows,
            set: self.set.clone(),
            row_hash: self.row_hash.clone(),
            dead: self.dead.clone(),
            uniq_ewma: self.uniq_ewma,
            regrows: self.regrows,
            reserve_hint: self.reserve_hint,
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
            && self.iter().all(|row| other.contains(row))
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
    /// A non-owning view: exactly `nrows * arity` values.
    data: AppendBuf<Value>,
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

    /// The tuple at `row`, as a slice into the shared store.
    pub fn row(&self, row: u32) -> &[Value] {
        let r = row as usize;
        &self.data[r * self.arity..(r + 1) * self.arity]
    }

    /// Prefetches the cache line holding row `r`'s values. Purely a
    /// hint; no-op off x86-64.
    #[inline]
    pub fn prefetch_row(&self, r: u32) {
        prefetch_value(&self.data, r as usize * self.arity);
    }

    /// Iterates over the live tuples with their row ids, in row order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &[Value])> {
        (0..self.nrows as u32)
            .filter(move |&r| !self.dead.is_dead(r))
            .map(move |r| (r, self.row(r)))
    }

    /// Live tuples, sorted, for deterministic comparisons.
    pub fn sorted_tuples(&self) -> Vec<Tuple> {
        let mut v: Vec<Tuple> = self.iter().map(|(_, row)| row.to_vec()).collect();
        v.sort();
        v
    }

    /// Live rows whose columns `cols` equal `key`, ascending, written
    /// into `out` (cleared first), through the lineage's dictionary
    /// index on `cols`. If the index does not yet reach this snapshot's
    /// watermark the probe extends it — by the rows appended since the
    /// last reader of the lineage, not from zero — under the write lock.
    pub fn probe_into(&self, cols: &[usize], key: &[Value], out: &mut Vec<u32>) {
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
    pub fn find(&self, key: &[Value]) -> Option<u32> {
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
        assert_eq!(r.row(0), &t(&[1, 2, 3])[..]);
        assert_eq!(r.row(1), &t(&[4, 5, 6])[..]);
        // Appending does not disturb earlier row slices' contents.
        r.insert(t(&[7, 8, 9]));
        assert_eq!(r.row(0), &t(&[1, 2, 3])[..]);
        assert_eq!(r.row(2), &t(&[7, 8, 9])[..]);
    }

    #[test]
    fn insert_accepts_borrowed_row_slices() {
        let mut a = Relation::new(2);
        a.insert(t(&[1, 2]));
        let row: Tuple = a.row(0).to_vec();
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
        let hits = r.probe(&[0], &[Value::Int(1)], r.all_rows());
        assert_eq!(hits, vec![0, 1]);
        // Appending after an index exists must extend it.
        r.insert(t(&[1, 9]));
        let hits = r.probe(&[0], &[Value::Int(1)], r.all_rows());
        assert_eq!(hits, vec![0, 1, 3]);
    }

    #[test]
    fn probe_respects_row_range() {
        let mut r = Relation::new(2);
        r.insert(t(&[1, 2]));
        r.insert(t(&[1, 3]));
        r.insert(t(&[1, 4]));
        let delta = RowRange { start: 2, end: 3 };
        let hits = r.probe(&[0], &[Value::Int(1)], delta);
        assert_eq!(hits, vec![2]);
    }

    #[test]
    fn multi_column_probe() {
        let mut r = Relation::new(3);
        r.insert(t(&[1, 2, 3]));
        r.insert(t(&[1, 2, 4]));
        r.insert(t(&[1, 5, 3]));
        let hits = r.probe(&[0, 1], &[Value::Int(1), Value::Int(2)], r.all_rows());
        assert_eq!(hits.len(), 2);
        let hits = r.probe(&[2], &[Value::Int(3)], r.all_rows());
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn probe_all_columns_partial_range() {
        let mut r = Relation::new(2);
        r.insert(t(&[1, 2]));
        r.insert(t(&[3, 4]));
        r.insert(t(&[5, 6]));
        let delta = RowRange { start: 1, end: 3 };
        assert_eq!(r.probe_all_columns(&t(&[3, 4]), delta), vec![1]);
        assert!(r.probe_all_columns(&t(&[1, 2]), delta).is_empty());
        // Full range uses the existence fast path.
        assert!(!r.probe_all_columns(&t(&[1, 2]), r.all_rows()).is_empty());
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
        assert_eq!(vals, vec![Value::Int(3)]);
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
        let live: Vec<Tuple> = r.iter().map(<[Value]>::to_vec).collect();
        assert_eq!(live, vec![t(&[1, 2]), t(&[5, 6])]);
        r.check_invariant().unwrap();
    }

    #[test]
    fn truncate_undoes_appends_and_probes_stay_consistent() {
        let mut r = Relation::new(2);
        r.insert(t(&[1, 2]));
        r.insert(t(&[3, 4]));
        // Warm an index, then append past the watermark.
        assert_eq!(r.probe(&[0], &[Value::Int(1)], r.all_rows()).len(), 1);
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
        assert_eq!(r.probe(&[0], &[Value::Int(5)], r.all_rows()).len(), 1);
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
        let hits = r.probe(&[0], &[Value::Int(1)], r.all_rows());
        assert_eq!(hits, vec![0, 1, 2]);
        assert!(r.delete(&t(&[1, 3])));
        let hits = r.probe(&[0], &[Value::Int(1)], r.all_rows());
        assert_eq!(hits, vec![0, 2]);
        // Dedup-backed exact probe also skips the dead row.
        let range = RowRange { start: 0, end: 2 };
        assert!(r.probe_all_columns(&t(&[1, 3]), range).is_empty());
        assert!(r.probe_all_columns(&t(&[1, 3]), r.all_rows()).is_empty());
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
            assert!(!r.probe(&[0, 1], t_, r.all_rows()).is_empty());
        }
        assert!(!r.contains(&t(&[0, 0])));
        // Deleted rows must not resurface through any probe path.
        assert!(r.probe(&[1], &[Value::Int(0)], r.all_rows()).is_empty());
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
    fn probe_into_reuses_buffer_and_matches_probe() {
        let mut r = Relation::new(2);
        r.insert(t(&[1, 2]));
        r.insert(t(&[1, 3]));
        r.insert(t(&[2, 3]));
        let mut buf = Vec::new();
        // First call hits the miss path (build + probe under one write
        // lock); the second reuses the warm index and the same buffer.
        r.probe_into(&[0], &[Value::Int(1)], r.all_rows(), &mut buf);
        assert_eq!(buf, vec![0, 1]);
        r.probe_into(&[0], &[Value::Int(2)], r.all_rows(), &mut buf);
        assert_eq!(buf, vec![2]);
        assert_eq!(buf, r.probe(&[0], &[Value::Int(2)], r.all_rows()));
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
        let key = [Value::Int(1)];
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
        let missing = [Value::Int(99)];
        assert_eq!(unsafe { h.encode(hash_slice(&missing), &missing) }, None);
        let _ = h;
        // Appending makes handles unavailable until re-ensured.
        r.insert(t(&[1, 9]));
        assert!(r.probe_handle(&[0]).is_none(), "index went stale");
        r.ensure_index(&[0]);
        assert!(r.probe_handle(&[0]).is_some());
    }

    #[test]
    fn contains_in_range_matches_probe_all_columns() {
        let mut r = Relation::new(2);
        r.insert(t(&[1, 2]));
        r.insert(t(&[3, 4]));
        r.insert(t(&[5, 6]));
        let delta = RowRange { start: 1, end: 3 };
        let h = |t_: &Tuple| crate::fxhash::hash_slice(t_);
        assert!(r.contains_in_range(&t(&[3, 4]), h(&t(&[3, 4])), delta));
        assert!(!r.contains_in_range(&t(&[1, 2]), h(&t(&[1, 2])), delta));
        assert!(r.contains_in_range(&t(&[1, 2]), h(&t(&[1, 2])), r.all_rows()));
        // Deleted rows never resurface.
        r.delete(&t(&[3, 4]));
        assert!(!r.contains_in_range(&t(&[3, 4]), h(&t(&[3, 4])), delta));
    }

    /// A deterministic but scattered per-code hash for driving CodeMap
    /// directly (the map never sees keys, only hashes + a verifier).
    fn code_hash(c: u32) -> u64 {
        (c as u64)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .rotate_left(17)
    }

    #[test]
    fn codemap_grow_preserves_every_entry() {
        let mut m = CodeMap::default();
        for c in 0..5000u32 {
            assert_eq!(m.get(code_hash(c), |got| got == c), None);
            m.insert(code_hash(c), c, code_hash);
        }
        assert_eq!(m.len(), 5000);
        // Every code survives the doubling chain and resolves under its
        // own hash with the verifier confirming identity.
        for c in 0..5000u32 {
            assert_eq!(m.get(code_hash(c), |got| got == c), Some(c));
        }
        // A hash never inserted terminates at an empty slot.
        assert_eq!(m.get(code_hash(9999), |_| true), None);
    }

    #[test]
    fn codemap_fingerprint_collisions_resolved_by_verifier() {
        // Two codes filed under the *identical* 64-bit hash: same probe
        // start, same fingerprint. Only the eq closure separates them.
        let mut m = CodeMap::default();
        let h = 0xDEAD_BEEF_CAFE_F00Du64;
        m.insert(h, 1, |_| h);
        m.insert(h, 2, |_| h);
        assert_eq!(m.get(h, |c| c == 1), Some(1));
        assert_eq!(m.get(h, |c| c == 2), Some(2));
        assert_eq!(m.get(h, |c| c == 3), None, "verifier rejects all");
        // Same fingerprint, different probe start (low bits differ): the
        // walk from the other start must not see code 1 or 2.
        let h2 = h ^ 1;
        assert_eq!(m.get(h2, |_| true), None);
        m.insert(h2, 3, move |c| if c == 3 { h2 } else { h });
        assert_eq!(m.get(h2, |c| c == 3), Some(3));
    }

    #[test]
    fn codemap_is_tombstone_free_and_clear_retains_capacity() {
        let mut m = CodeMap::default();
        for c in 0..100u32 {
            m.insert(code_hash(c), c, code_hash);
        }
        // No delete API exists, so every slot is either vacant or a live
        // entry and the occupancy count is exact — the invariant that
        // keeps probe walks short without tombstone reclamation.
        let live = m.slots.iter().filter(|&&s| s as u32 != EMPTY).count();
        assert_eq!(live, m.len());
        assert!(2 * m.len() <= m.slots.len(), "load factor stays ≤ ½");
        let cap = m.heap_bytes();
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.heap_bytes(), cap, "clear keeps the allocation");
        assert_eq!(m.get(code_hash(7), |_| true), None);
        m.insert(code_hash(7), 7, code_hash);
        assert_eq!(m.get(code_hash(7), |c| c == 7), Some(7));
    }

    #[test]
    fn reserve_rows_eliminates_mid_drain_regrows() {
        // Unreserved: a thousand inserts pay a chain of doubling grows.
        let mut cold = Relation::new(2);
        for i in 0..1000i64 {
            cold.insert(t(&[i, i + 1]));
        }
        assert!(cold.regrows() > 0, "unreserved inserts must have regrown");
        // Reserved up front: the same inserts never rehash.
        let mut warm = Relation::new(2);
        warm.reserve_rows(1000);
        for i in 0..1000i64 {
            warm.insert(t(&[i, i + 1]));
        }
        assert_eq!(warm.regrows(), 0, "pre-sized table must not regrow");
        assert_eq!(warm.len(), cold.len());
        warm.check_invariant().unwrap();
    }

    #[test]
    fn derived_reservation_follows_learned_unique_fraction() {
        let mut r = Relation::new(1);
        // Teach the EWMA that only ~10% of derived rows are new.
        for _ in 0..20 {
            r.note_drain(100, 10);
        }
        // A 2000-row derived burst then expects ~200 unique; the ¼-load
        // sizing tolerates up to ~2× that before any rehash.
        r.reserve_for_derived(2000);
        for i in 0..350i64 {
            r.insert(t(&[i]));
        }
        assert_eq!(r.regrows(), 0, "2x under-estimate must stay regrow-free");
        r.check_invariant().unwrap();
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
        // whole reason the counter exists (kernel memos, COW snapshots).
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
        assert_eq!(s.row(1), &t(&[2])[..]);
        assert_ne!(s.stamp(), r.stamp());
        // A snapshot taken now carries the tombstone, and — the sixth
        // row fitted the allocation — still reads the same rows.
        let s2 = r.snapshot();
        assert_eq!(s2.len(), 5);
        assert!(s2.iter().all(|(_, row)| row != &t(&[2])[..]));
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
        s1.probe_into(&[0], &[Value::Int(1)], &mut hits);
        assert_eq!(hits, vec![1, 2]);
        assert_eq!(s1.indexed_rows(), 3);
        // …and the older one, behind it, still answers its own state.
        s0.probe_into(&[0], &[Value::Int(1)], &mut hits);
        assert_eq!(hits, vec![0, 1]);
        assert_eq!(s0.find(&t(&[1, 2])), Some(0));
        assert_eq!(s0.find(&t(&[1, 4])), None, "past the watermark");
        assert_eq!(s1.find(&t(&[1, 2])), None, "tombstoned at s1");
        assert_eq!(s1.find(&t(&[1, 4])), Some(2));
        assert_eq!(s1.find(&t(&[9, 9])), None);
        assert_eq!(s1.find(&t(&[1])), None, "arity mismatch");
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
        assert_eq!(later.row(mark as u32), &t(&[10, 11])[..]);
        assert_eq!(r.row(mark as u32), &t(&[77, 77])[..]);
        assert_eq!(later.len(), 1000);
        let fresh = r.snapshot_after(Some(&later), &Arc::default());
        assert!(!fresh.shares_indexes_with(&later));
        // Tombstone + compaction renumber the writer's rows only.
        r.delete(&t(&[0, 1]));
        r.compact();
        assert_eq!(r.row(0), &t(&[1, 2])[..]);
        assert_eq!(pinned.row(0), &t(&[0, 1])[..]);
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
        // 8 rows fill the 16-value allocation: this append outgrows it
        // while `s0` holds it, so the writer copies 8 rows.
        r.insert(t(&[8, 8]));
        let s1 = r.snapshot_after(Some(&s0), &meter);
        assert!(!s1.shares_rows_with(&s0));
        assert_eq!(meter.load(Ordering::Relaxed), 8 * 2 * 16);
        // A delete allocates (or, under a snapshot, copies) the
        // tombstone words; the appends that follow share them.
        r.delete(&t(&[0, 0]));
        let s2 = r.snapshot_after(Some(&s1), &meter);
        assert!(s2.shares_rows_with(&s1));
        assert_eq!(meter.load(Ordering::Relaxed), 8 * 2 * 16 + 8);
        r.insert(t(&[9, 9]));
        let s3 = r.snapshot_after(Some(&s2), &meter);
        assert_eq!((s3.len(), s2.len()), (9, 8));
        assert_eq!(meter.load(Ordering::Relaxed), 8 * 2 * 16 + 8, "shared");
        // The next delete copies them away from the snapshots…
        r.delete(&t(&[1, 1]));
        let s4 = r.snapshot_after(Some(&s3), &meter);
        assert_eq!(meter.load(Ordering::Relaxed), 8 * 2 * 16 + 16);
        // …which keep reading their own.
        assert_eq!((s4.len(), s3.len(), s2.len()), (8, 9, 8));
        assert_eq!(s3.find(&t(&[1, 1])), Some(1));
        assert_eq!(s4.find(&t(&[1, 1])), None);
    }

    #[test]
    fn revive_exactly_undoes_a_delete() {
        let mut r = Relation::new(2);
        for i in 0..6 {
            r.insert(t(&[i % 2, i]));
        }
        assert_eq!(r.probe(&[0], &[Value::Int(1)], r.all_rows()), [1, 3, 5]);
        let pinned = r.snapshot();
        let stamp = r.stamp();
        let before = r.sorted_tuples();
        // A transaction deletes two rows (one by content, one by id),
        // re-inserts one of them and appends another…
        let mark = r.physical_rows();
        let killed = [r.delete_row(&t(&[1, 3])).unwrap(), 4];
        assert_eq!(killed[0], 3);
        assert!(r.delete_at(4) && !r.delete_at(4) && !r.delete_at(99));
        assert!(r.insert(t(&[1, 3])) && r.insert(t(&[7, 7])));
        assert_eq!(r.find(&t(&[1, 3])), Some(6));
        // …and fails: cut the appends first, then revive.
        r.truncate(mark);
        for row in killed {
            r.revive(row);
        }
        r.check_invariant().unwrap();
        assert_eq!(r.sorted_tuples(), before);
        assert_eq!(r.find(&t(&[1, 3])), Some(3), "the old row id is back");
        assert!(!r.has_tombstones());
        assert_ne!(r.stamp(), stamp, "the state was republished if seen");
        assert_eq!(r.probe(&[0], &[Value::Int(1)], r.all_rows()), [1, 3, 5]);
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
        s0.probe_into(&[0], &[Value::Int(0)], &mut hits);
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
        s1.probe_into(&[0], &[Value::Int(0)], &mut hits);
        assert_eq!(hits, [6, 8]);
        s2.probe_into(&[0], &[Value::Int(0)], &mut hits);
        assert_eq!(hits, [0, 2]);
        assert_eq!(s2.sorted_tuples(), r.sorted_tuples());
    }
}
