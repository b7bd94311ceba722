//! The dictionary layer under [`Relation`](super::Relation): the one
//! hash table ([`CodeMap`]), the dictionary indexes that encode a column
//! subset's key tuples as dense codes over row-id groups, the raw
//! [`ProbeHandle`] the executor probes them through, and the
//! [`KeyDistribution`] the cost planner reads off them.

use crate::fxhash::{hash_slice, FxHashMap};
use semrec_datalog::word::Word;

/// Vacant-slot marker (a slot's id half): ends every probe walk.
pub(super) const EMPTY: u32 = u32::MAX;
/// Removed-entry marker (a slot's id half): a probe walk passes it, an
/// insert may reuse it. Only a relation's membership set removes.
pub(super) const TOMB: u32 = u32::MAX - 1;
/// The fingerprint half of a slot.
const FP_MASK: u64 = 0xFFFF_FFFF_0000_0000;

/// What hash `h` files under: its low 32 bits as the fingerprint half
/// of a slot.
#[inline]
fn fingerprint(h: u64) -> u64 {
    h << 32
}

/// The engine's one hash table: a flat open-addressing map from 64-bit
/// hashes to `u32` ids. It is a relation's membership set (ids are row
/// ids) and every dictionary index's key → code map (ids are codes).
///
/// A slot is one `u64`: the hash's low 32 bits (the fingerprint) above
/// the id. The probe starts at `fingerprint & mask` and walks linearly,
/// so a slot carries its own home: growth re-files the old array in one
/// sequential pass without reading a row, a key or a hash. With 2^k
/// slots, the other 32 − k fingerprint bits tell apart entries sharing a
/// home; a fingerprint match is confirmed by the caller's `eq` on the
/// id, since no key is stored. The low half, because FxHash's low bits
/// are a bijection of a one-integer key's low bits: dense ids land on
/// distinct homes.
///
/// The table grows 2× when live entries plus tombstones would pass ¾ of
/// the slots (and re-files at the same size when tombstones, not live
/// entries, filled it), so it sits between ⅜ and ¾ full. The slot array
/// is a plain `Vec<u64>`, so a caller holding a batch of hashes can
/// [prefetch](CodeMap::prefetch) their home lines before walking any of
/// them.
#[derive(Debug, Clone, Default)]
pub struct CodeMap {
    /// Power-of-two array of `fingerprint << 32 | id` slots; the id half
    /// is [`EMPTY`] or [`TOMB`] for vacant slots.
    pub(super) slots: Vec<u64>,
    mask: usize,
    /// Occupied slots.
    live: usize,
    /// Tombstoned slots; reclaimed by the next grow.
    tombs: usize,
}

impl CodeMap {
    /// First slot of the probe sequence for a fingerprint half (a
    /// [`fingerprint`] or a whole slot): its low bits.
    #[inline]
    fn home(&self, fp: u64) -> usize {
        (fp >> 32) as usize & self.mask
    }

    /// Number of stored ids.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no id is stored.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// The id filed under `hash` that `eq` accepts, or `None`.
    #[inline]
    pub fn get(&self, hash: u64, mut eq: impl FnMut(u32) -> bool) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        let mut s = self.home(fingerprint(hash));
        loop {
            let slot = self.slots[s];
            let id = slot as u32;
            if id >= TOMB {
                if id == EMPTY {
                    return None;
                }
            } else if slot & FP_MASK == fingerprint(hash) && eq(id) {
                return Some(id);
            }
            s = (s + 1) & self.mask;
        }
    }

    /// Files `id` under `hash`. The caller has verified absence (via
    /// [`CodeMap::get`]): the map holds one entry per distinct key.
    pub fn insert(&mut self, hash: u64, id: u32) {
        debug_assert!(id < TOMB, "ids u32::MAX - 1 and up are slot markers");
        self.reserve_one();
        let mut s = self.home(fingerprint(hash));
        loop {
            match self.slots[s] as u32 {
                EMPTY => break,
                TOMB => {
                    self.tombs -= 1;
                    break;
                }
                _ => s = (s + 1) & self.mask,
            }
        }
        self.slots[s] = fingerprint(hash) | id as u64;
        self.live += 1;
    }

    /// The id filed under `hash` that `eq` accepts; if there is none,
    /// files `id` there and returns `None`. One walk serves the lookup and
    /// the insert.
    #[inline]
    pub(crate) fn get_or_insert(
        &mut self,
        hash: u64,
        id: u32,
        mut eq: impl FnMut(u32) -> bool,
    ) -> Option<u32> {
        debug_assert!(id < TOMB, "ids u32::MAX - 1 and up are slot markers");
        self.reserve_one();
        let mut s = self.home(fingerprint(hash));
        let mut free = usize::MAX;
        loop {
            let slot = self.slots[s];
            let found = slot as u32;
            if found == EMPTY {
                break;
            }
            if found == TOMB {
                if free == usize::MAX {
                    free = s;
                }
            } else if slot & FP_MASK == fingerprint(hash) && eq(found) {
                return Some(found);
            }
            s = (s + 1) & self.mask;
        }
        if free != usize::MAX {
            s = free;
            self.tombs -= 1;
        }
        self.slots[s] = fingerprint(hash) | id as u64;
        self.live += 1;
        None
    }

    /// Removes the id filed under `hash` that `is_target` accepts,
    /// leaving a tombstone, and returns it.
    pub(super) fn remove(
        &mut self,
        hash: u64,
        mut is_target: impl FnMut(u32) -> bool,
    ) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        let mut s = self.home(fingerprint(hash));
        loop {
            let slot = self.slots[s];
            let id = slot as u32;
            if id == EMPTY {
                return None;
            }
            if id != TOMB && slot & FP_MASK == fingerprint(hash) && is_target(id) {
                self.slots[s] = TOMB as u64;
                self.live -= 1;
                self.tombs += 1;
                return Some(id);
            }
            s = (s + 1) & self.mask;
        }
    }

    /// Grows first if one more entry would pass the ¾ load.
    #[inline]
    fn reserve_one(&mut self) {
        if 4 * (self.live + self.tombs + 1) > 3 * self.slots.len() {
            self.grow();
        }
    }

    /// Re-files every live slot in place, dropping tombstones: doubles
    /// the array first — unless the live entries alone fill at most half
    /// of it — setting only the new half vacant, so the old slot pages
    /// stay mapped and no second table is allocated.
    ///
    /// One pass from the first vacant slot re-places each entry from its
    /// new home. The cluster before that slot may have wrapped from the
    /// end of the table, so it is lifted out first and re-placed last.
    /// Every other entry's home then lies between that vacant slot and
    /// the entry, so its walk crosses only re-filed slots (or the new
    /// half, all re-filed) and stops at the latest on its own, just
    /// cleared, slot.
    #[cold]
    fn grow(&mut self) {
        let old = self.slots.len();
        let cap = match old {
            0 => 2,
            cap if 2 * (self.live + 1) > cap => 2 * cap,
            cap => cap,
        };
        self.slots.reserve_exact(cap - old);
        self.slots.resize(cap, EMPTY as u64);
        self.mask = cap - 1;
        self.tombs = 0;
        if old == 0 {
            return;
        }
        let vacant = (self.slots[..old].iter())
            .position(|&s| s as u32 == EMPTY)
            .expect("a table under ¾ load has a vacant slot");
        let lifted: Vec<u64> = self.slots[..vacant]
            .iter()
            .copied()
            .filter(|&s| (s as u32) < TOMB)
            .collect();
        self.slots[..vacant].fill(EMPTY as u64);
        for i in vacant + 1..old {
            let slot = std::mem::replace(&mut self.slots[i], EMPTY as u64);
            if (slot as u32) < TOMB {
                self.place(slot);
            }
        }
        for slot in lifted {
            self.place(slot);
        }
    }

    /// Files a whole slot at the first vacant slot from its home.
    #[inline]
    fn place(&mut self, slot: u64) {
        let mut s = self.home(slot);
        while self.slots[s] as u32 != EMPTY {
            s = (s + 1) & self.mask;
        }
        self.slots[s] = slot;
    }

    /// Prefetches the slot-array cache line `hash` will probe first, so
    /// a caller resolving a batch of keys can overlap the table's cold
    /// misses instead of stalling on each in turn. Purely a hint; no-op
    /// off x86-64.
    #[inline]
    pub fn prefetch(&self, hash: u64) {
        #[cfg(target_arch = "x86_64")]
        if !self.slots.is_empty() {
            // SAFETY: `home` is masked into bounds; prefetch reads no
            // memory architecturally.
            unsafe {
                core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T0 }>(
                    self.slots.as_ptr().add(self.home(fingerprint(hash))) as *const i8,
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

    /// Verifies the table against its owner: `hash_of` vets each live id
    /// and returns the hash it must be filed under. Checks the load
    /// counters, the ¾ load, every fingerprint, and that every entry is
    /// reachable from its home (no vacant slot between them).
    pub(super) fn check(
        &self,
        mut hash_of: impl FnMut(u32) -> Result<u64, String>,
    ) -> Result<(), String> {
        let (mut live, mut tombs) = (0, 0);
        for (s, &slot) in self.slots.iter().enumerate() {
            match slot as u32 {
                EMPTY => continue,
                TOMB => tombs += 1,
                id => {
                    live += 1;
                    let h = hash_of(id)?;
                    if slot & FP_MASK != fingerprint(h) {
                        return Err(format!("table entry {id} carries a stale fingerprint"));
                    }
                    let mut at = self.home(fingerprint(h));
                    while at != s {
                        if self.slots[at] as u32 == EMPTY {
                            return Err(format!("table entry {id} is cut off from its home"));
                        }
                        at = (at + 1) & self.mask;
                    }
                }
            }
        }
        if (live, tombs) != (self.live, self.tombs) {
            return Err(format!(
                "table load counters drifted: {live}/{tombs} counted, {}/{} recorded",
                self.live, self.tombs
            ));
        }
        if 4 * (live + tombs) > 3 * self.slots.len() {
            return Err(format!(
                "table over ¾ load: {live} live + {tombs} tombstones in {} slots",
                self.slots.len()
            ));
        }
        Ok(())
    }
}

/// A dictionary index on a column subset: every distinct key tuple gets a
/// dense `u32` *code* and rows are grouped per code — the relation's
/// dictionary-encoded key view. Probing resolves a key to its code once
/// (one hash lookup plus a key comparison per same-hash code) and then
/// iterates the exact row group — no per-row key comparisons, unlike the
/// former hash-bucket index whose buckets mixed hash collisions.
///
/// Stored boxed in the index cache so that a [`ProbeHandle`] can point at
/// it directly: cache-map rehashes move the box pointer, never the index.
#[derive(Debug)]
pub(super) struct ColumnIndex {
    cols: Vec<usize>,
    /// Key-tuple hash → code. Lookups verify candidates against `keys`.
    map: CodeMap,
    /// Flat store of the distinct key tuples, `cols.len()` stride; code
    /// `c`'s tuple is at `c * cols.len()`.
    pub(super) keys: Vec<Word>,
    /// Row ids per code, in insertion order. Tombstoned and out-of-range
    /// rows are filtered lazily at iteration time.
    pub(super) groups: Vec<Vec<u32>>,
    /// Rows `[0, built)` have been dictionary-encoded.
    pub(super) built: usize,
    /// [`ColumnIndex::extend`]'s staging buffer for one row's key.
    key: Vec<Word>,
}

/// The lazily built index cache of one relation (or of one snapshot
/// lineage): a dictionary index per probed column subset.
pub(super) type IndexMap = FxHashMap<Vec<usize>, Box<ColumnIndex>>;

/// The index on `cols` in `indexes`, created empty on first use — the
/// only time this allocates.
pub(super) fn entry_index<'a>(indexes: &'a mut IndexMap, cols: &[usize]) -> &'a mut ColumnIndex {
    if !indexes.contains_key(cols) {
        let idx = ColumnIndex {
            cols: cols.to_vec(),
            map: CodeMap::default(),
            keys: Vec::new(),
            groups: Vec::new(),
            built: 0,
            key: Vec::with_capacity(cols.len()),
        };
        indexes.insert(cols.to_vec(), Box::new(idx));
    }
    indexes.get_mut(cols).expect("index present")
}

impl ColumnIndex {
    /// Dictionary-encodes rows `[built, nrows)` of the flat store `data`
    /// (`arity` values per row), in row order — so every group lists its
    /// row ids ascending. No-op when the index already covers `nrows`.
    /// Returns the bytes of index entries it appended: a group slot per
    /// row, a key tuple, group header and map slot per new distinct key.
    pub(super) fn extend(&mut self, data: &[Word], arity: usize, nrows: usize) -> usize {
        let (rows, codes) = (nrows.saturating_sub(self.built), self.groups.len());
        let mut key = std::mem::take(&mut self.key);
        for r in self.built..nrows {
            let row = &data[r * arity..(r + 1) * arity];
            key.clear();
            key.extend(self.cols.iter().map(|&c| row[c]));
            let code = self.encode_or_insert(hash_slice(&key), &key);
            self.groups[code as usize].push(r as u32);
        }
        self.key = key;
        self.built = self.built.max(nrows);
        let per_key = std::mem::size_of::<Word>() * self.cols.len()
            + std::mem::size_of::<Vec<u32>>()
            + std::mem::size_of::<u64>();
        rows * std::mem::size_of::<u32>() + (self.groups.len() - codes) * per_key
    }

    /// Appends to `out` the rows filed under `key` that `visible` lets
    /// through (range and tombstone filtering is the prober's: an index
    /// lists physical rows, dead and beyond-the-watermark ones included).
    pub(super) fn hits_into(
        &self,
        key: &[Word],
        visible: impl Fn(u32) -> bool,
        out: &mut Vec<u32>,
    ) {
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
    /// distinct-key store, and per-code group headers and their row ids.
    pub(super) fn heap_bytes(&self) -> usize {
        self.map.heap_bytes()
            + (self.keys.capacity() + self.key.capacity()) * std::mem::size_of::<Word>()
            + self.groups.capacity() * std::mem::size_of::<Vec<u32>>()
            + self
                .groups
                .iter()
                .map(|g| g.capacity() * std::mem::size_of::<u32>())
                .sum::<usize>()
    }

    /// The key tuple code `c` encodes.
    #[inline]
    fn key_of(&self, c: u32) -> &[Word] {
        let w = self.cols.len();
        let at = c as usize * w;
        &self.keys[at..at + w]
    }

    /// The code of `key` (whose hash is `key_hash`), or `None` if no row
    /// ever carried it.
    #[inline]
    fn encode(&self, key_hash: u64, key: &[Word]) -> Option<u32> {
        self.map.get(key_hash, |c| self.key_of(c) == key)
    }

    /// A handle on the index as it stands; see [`ProbeHandle`] for how
    /// long it stays valid.
    pub(super) fn handle(&self) -> ProbeHandle {
        ProbeHandle {
            idx: self,
            built: self.built,
            codes: self.groups.len() as u32,
        }
    }

    /// The code of `key`, minting a fresh one on first sight.
    fn encode_or_insert(&mut self, key_hash: u64, key: &[Word]) -> u32 {
        let (keys, w, fresh) = (&self.keys, self.cols.len(), self.groups.len() as u32);
        let seen = |c: u32| &keys[c as usize * w..(c as usize + 1) * w] == key;
        if let Some(c) = self.map.get_or_insert(key_hash, fresh, seen) {
            return c;
        }
        self.keys.extend_from_slice(key);
        self.groups.push(Vec::new());
        fresh
    }
}

/// A generation-checked raw handle to a current column index, acquired
/// once per task (one read-lock acquisition) and then probed lock-free:
/// [`ProbeHandle::encode`] resolves a probe key to its dictionary code
/// and [`ProbeHandle::group`] returns the borrowed row-id group for a
/// code. Group rows match the key exactly; the caller only filters range
/// and tombstones lazily at iteration time
/// ([`Relation::row_visible`](super::Relation::row_visible)). This is the
/// evaluator's zero-allocation probe path: no per-probe lock, no
/// per-probe `Vec`, no per-row key comparison.
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
    codes: u32,
}

impl ProbeHandle {
    /// Physical row count the index covered when the handle was taken.
    pub fn generation(&self) -> usize {
        self.built
    }

    /// Distinct keys the index had encoded when the handle was taken:
    /// every code it returns is below this.
    pub(crate) fn codes(&self) -> u32 {
        self.codes
    }

    /// The dictionary code of `key` (whose precomputed hash is
    /// `key_hash`), or `None` when no row ever carried this key — the
    /// probe can produce no rows.
    ///
    /// # Safety
    /// The relation and index must not have been mutated since
    /// [`Relation::probe_handle`](super::Relation::probe_handle) returned
    /// this handle (see type docs).
    #[inline]
    pub unsafe fn encode(&self, key_hash: u64, key: &[Word]) -> Option<u32> {
        // SAFETY: caller guarantees the index (and the cache map slot
        // holding its box) outlives and is not mutated during this call.
        unsafe { &*self.idx }.encode(key_hash, key)
    }

    /// The row-id group of a dictionary code. Every group row's key
    /// columns equal the code's key tuple; callers still filter range
    /// and tombstones ([`Relation::row_visible`](super::Relation::row_visible)).
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
/// cost planner's statistics collector
/// ([`Relation::key_distribution`](super::Relation::key_distribution)).
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

#[cfg(test)]
mod tests {
    use super::*;

    /// A deterministic but scattered per-code hash for driving CodeMap
    /// directly (the map never sees keys, only hashes + a verifier).
    fn code_hash(c: u32) -> u64 {
        (c as u64)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .rotate_left(17)
    }

    #[test]
    fn codemap_grows_2x_at_three_quarters_and_keeps_every_entry() {
        let mut m = CodeMap::default();
        for c in 0..5000u32 {
            assert_eq!(m.get(code_hash(c), |got| got == c), None);
            m.insert(code_hash(c), c);
            // Between ⅜ and ¾ full (exactly 2 slots for the first entry).
            let (n, cap) = (m.len(), m.slots.len());
            assert!(
                4 * n <= 3 * cap && (cap == 2 || 8 * n > 3 * cap),
                "{n} in {cap}"
            );
        }
        m.check(|c| Ok(code_hash(c))).unwrap();
        for c in 0..5000u32 {
            assert_eq!(m.get(code_hash(c), |got| got == c), Some(c));
        }
        // A hash never inserted terminates at an empty slot.
        assert_eq!(m.get(code_hash(9999), |_| true), None);
    }

    #[test]
    fn codemap_fingerprint_collisions_resolved_by_verifier() {
        // Two codes filed under the *identical* 64-bit hash: same home,
        // same fingerprint. Only the eq closure separates them.
        let mut m = CodeMap::default();
        let h = 0xDEAD_BEEF_CAFE_F00Du64;
        m.insert(h, 1);
        assert_eq!(m.get_or_insert(h, 2, |c| c == 2), None);
        assert_eq!(m.get_or_insert(h, 9, |c| c == 2), Some(2));
        assert_eq!(m.get(h, |c| c == 1), Some(1));
        assert_eq!(m.get(h, |c| c == 3), None, "verifier rejects all");
        // The high half is not looked at: the same fingerprint and home.
        assert_eq!(m.get(h ^ (0xFFFF << 48), |c| c == 1), Some(1));
        // Same home, other fingerprint: walks past codes 1 and 2.
        let h2 = h ^ (1 << 31);
        assert_eq!(m.get(h2, |_| true), None);
        m.insert(h2, 3);
        assert_eq!(m.get(h2, |_| true), Some(3));
    }

    #[test]
    fn hashes_sharing_one_home_survive_growth_and_deletes() {
        // Fingerprints agreeing in their low 16 bits share one home at
        // every size up to 2^16 slots: one cluster, thousands long.
        let h = |c: u32| (0xffff << 48) | (u64::from(c) << 16) | 0x5a5a;
        let mut m = CodeMap::default();
        for c in 0..3000u32 {
            assert_eq!(m.get_or_insert(h(c), c, |got| got == c), None);
        }
        m.check(|c| Ok(h(c))).unwrap();
        // Delete every other code; the walk must still reach the rest
        // across the tombstones.
        for c in (0..3000u32).step_by(2) {
            assert_eq!(m.remove(h(c), |got| got == c), Some(c));
        }
        assert_eq!(m.remove(h(0), |got| got == 0), None, "already gone");
        m.check(|c| Ok(h(c))).unwrap();
        for c in 0..3000u32 {
            let want = (c % 2 == 1).then_some(c);
            assert_eq!(m.get(h(c), |got| got == c), want, "code {c}");
        }
        // Refill: tombstones are reused and the next grow drops the rest.
        for c in (0..6000u32).step_by(2) {
            assert_eq!(m.get_or_insert(h(c), c, |got| got == c), None);
        }
        assert_eq!(m.len(), 4500);
        m.check(|c| Ok(h(c))).unwrap();
        for c in (1..3000u32).step_by(2).chain((0..6000).step_by(2)) {
            assert_eq!(m.get(h(c), |got| got == c), Some(c), "code {c}");
        }
    }

    /// A table's slots' states, from slot 0: `.` vacant, `x` tombstone,
    /// `o` live.
    fn layout(m: &CodeMap) -> String {
        (m.slots.iter())
            .map(|&s| match s as u32 {
                EMPTY => '.',
                TOMB => 'x',
                _ => 'o',
            })
            .collect()
    }

    #[test]
    fn a_cluster_wrapping_from_the_last_slot_survives_doubling() {
        for cap in [8usize, 64, 1024] {
            // Homes in the last three slots at `cap`; bit log2(cap) sends
            // each to the low or the high half once doubled, where the
            // upper half's cluster wraps again into slot 0.
            let h = |c: u32| {
                let home = cap - 1 - c as usize % 3 + (c as usize & 1) * cap;
                u64::from(c) << 16 | home as u64
            };
            let mut m = CodeMap::default();
            let fill = 3 * cap / 4;
            for c in 0..fill as u32 {
                m.insert(h(c), c);
            }
            assert_eq!(m.slots.len(), cap);
            let before = layout(&m);
            assert!(before.starts_with('o') && before.ends_with('o'), "{before}");
            m.insert(h(fill as u32), fill as u32);
            assert_eq!(m.slots.len(), 2 * cap, "the insert doubled the table");
            m.check(|c| Ok(h(c))).unwrap();
            for c in 0..=fill as u32 {
                assert_eq!(m.get(h(c), |got| got == c), Some(c), "code {c} at {cap}");
            }
        }
    }

    #[test]
    fn doubling_drops_tombstones_and_keeps_the_rest() {
        let mut m = CodeMap::default();
        for c in 0..48u32 {
            m.insert(code_hash(c), c);
        }
        for c in (0..48u32).step_by(4) {
            assert_eq!(m.remove(code_hash(c), |got| got == c), Some(c));
        }
        assert_eq!((m.slots.len(), m.live, m.tombs), (64, 36, 12));
        m.insert(code_hash(48), 48);
        assert_eq!((m.slots.len(), m.live, m.tombs), (128, 37, 0));
        m.check(|c| Ok(code_hash(c))).unwrap();
        for c in 0..=48u32 {
            let want = (c % 4 != 0 || c == 48).then_some(c);
            assert_eq!(m.get(code_hash(c), |got| got == c), want, "code {c}");
        }
    }

    #[test]
    fn tombstones_filling_the_table_re_file_it_at_the_same_size() {
        let mut m = CodeMap::default();
        for c in 0..40u32 {
            m.insert(code_hash(c), c);
        }
        let cap = m.slots.len();
        assert_eq!(cap, 64);
        // Live codes are `lo..hi`: 24, at most ⅜ of the slots. Churn
        // the oldest out and a fresh one in until tombstones force the
        // re-file.
        let (mut lo, mut hi) = (0u32, 40u32);
        loop {
            assert_eq!(m.remove(code_hash(lo), |got| got == lo), Some(lo));
            lo += 1;
            if hi - lo > 23 {
                continue;
            }
            let refile = 4 * (m.live + m.tombs + 1) > 3 * cap;
            m.insert(code_hash(hi), hi);
            hi += 1;
            if refile {
                break;
            }
            assert!(hi < 10_000, "tombstones never filled the table");
        }
        assert_eq!(
            (m.slots.len(), m.live, m.tombs),
            (cap, 24, 0),
            "{}",
            layout(&m)
        );
        m.check(|c| Ok(code_hash(c))).unwrap();
        for k in 0..hi {
            let want = (k >= lo).then_some(k);
            assert_eq!(m.get(code_hash(k), |got| got == k), want, "code {k}");
        }
    }

    #[test]
    fn a_seeded_op_mix_matches_a_hash_map_across_every_grow() {
        let mut state = 0x600d_5eed_u64;
        let mut next = move || {
            // splitmix64
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let z = (state ^ (state >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        // One key in eight homes on the last slot at every size up to
        // 2^14 slots, so clusters wrap from the end; the rest scatter.
        let h = |k: u32| match k % 8 {
            0 => code_hash(k) | 0x3fff,
            _ => code_hash(k),
        };
        let mut m = CodeMap::default();
        let mut model = std::collections::HashMap::new();
        let (mut doublings, mut re_files) = (0, 0);
        for step in 0..120_000 {
            let k = (next() % 12_000) as u32;
            let cap = m.slots.len();
            let full = 4 * (m.live + m.tombs + 1) > 3 * cap;
            // Phases of 15 000 steps: the odd ones mostly remove, leaving
            // tombstones for the next to fill.
            let removing = (step / 15_000) % 2 == 1;
            let grew = match next() % 20 + if removing { 12 } else { 0 } {
                0..=8 => {
                    let got = m.get_or_insert(h(k), k, |id| id == k);
                    assert_eq!(got, model.insert(k, k), "step {step}: get_or_insert {k}");
                    full
                }
                9..=12 if !model.contains_key(&k) => {
                    m.insert(h(k), k);
                    model.insert(k, k);
                    full
                }
                9..=12 => false,
                _ => {
                    let got = m.remove(h(k), |id| id == k);
                    assert_eq!(got, model.remove(&k), "step {step}: remove {k}");
                    false
                }
            };
            if grew {
                if m.slots.len() == cap {
                    re_files += 1;
                } else {
                    doublings += 1;
                }
                m.check(|id| Ok(h(id)))
                    .unwrap_or_else(|e| panic!("step {step}: {e}"));
            }
        }
        assert!(
            doublings >= 14 && re_files > 0,
            "{doublings} doublings, {re_files} re-files"
        );
        assert_eq!(m.len(), model.len());
        for k in 0..12_000u32 {
            assert_eq!(m.get(h(k), |id| id == k), model.get(&k).copied(), "key {k}");
        }
    }

    #[test]
    fn codemap_check_rejects_a_stale_fingerprint_and_a_cut_off_entry() {
        let mut m = CodeMap::default();
        for c in 0..5u32 {
            m.insert(code_hash(c), c);
        }
        m.check(|c| Ok(code_hash(c))).unwrap();
        let err = m.check(|c| Ok(code_hash(c) ^ (1 << 31))).unwrap_err();
        assert!(err.contains("stale fingerprint"), "{err}");
        // One entry whose home is slot 2, filed at slot 5 behind two
        // vacant slots: no walk from its home reaches it.
        let (hash, id) = (2u64, 7u32);
        let mut cut = CodeMap {
            slots: vec![EMPTY as u64; 8],
            mask: 7,
            live: 1,
            tombs: 0,
        };
        cut.slots[5] = fingerprint(hash) | u64::from(id);
        assert_eq!(cut.get(hash, |_| true), None);
        let err = cut.check(|_| Ok(hash)).unwrap_err();
        assert!(err.contains("cut off"), "{err}");
    }
}
