//! Global string interner and the [`Symbol`] handle type.
//!
//! Predicate names, variable names and string constants all go through one
//! process-wide interner so that equality checks and hashing on names are
//! `u32` comparisons. Interned strings are leaked (the set of distinct
//! identifiers in a Datalog workload is small and bounded), which lets
//! [`Symbol::as_str`] hand out `&'static str` without lifetime plumbing.
//!
//! Writes (`intern`) serialize on a `Mutex`, but reads (`as_str`) are
//! lock-free: resolved entries live in an append-only chunked slab whose
//! visible length is published with a release store after the slot is
//! written. A `Symbol` only exists once its slot has been published, so an
//! acquire load of the length is enough to make the slot contents visible —
//! `Value::Ord` on string constants (two resolutions per comparison) never
//! touches a lock. The same `Interner` holds the integers that do not
//! fit inline in a [`Word`](crate::word::Word).

use std::borrow::Borrow;
use std::cell::UnsafeCell;
use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;
use std::sync::atomic::{AtomicPtr, AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// An interned string. Cheap to copy, compare and hash.
///
/// Two `Symbol`s are equal iff the strings they were interned from are equal.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(u32);

const CHUNK_BITS: u32 = 12;
const CHUNK: usize = 1 << CHUNK_BITS; // 4096 entries per chunk
const MAX_CHUNKS: usize = 1 << 12; // up to ~16.7M entries

/// One fixed-size block of entries. Slots are written exactly once
/// (under the intern mutex) before being published; readers never see an
/// unpublished slot, so the plain (non-atomic) array is race-free.
struct Chunk<T> {
    slots: UnsafeCell<[T; CHUNK]>,
}

// SAFETY: slots are written only by the single writer holding the intern
// mutex, and only at indexes >= the published length; readers only touch
// indexes < the published length (acquire-ordered against the writer's
// release store), so no two threads ever access the same slot concurrently
// with a write. An entry written on one thread is copied out on others,
// hence `T: Send + Sync`.
unsafe impl<T: Send + Sync> Sync for Chunk<T> {}

/// A process-wide append-only interner: each distinct entry gets a dense
/// `u32` id once, and an id resolves back to its entry without a lock.
/// Chunk pointers are installed once (release) and the total number of
/// readable slots is published via `len` (release) after each slot write.
pub(crate) struct Interner<T: 'static> {
    chunks: Vec<AtomicPtr<Chunk<T>>>,
    len: AtomicU32,
    map: Mutex<HashMap<T, u32>>,
}

impl<T: Copy + Default + Eq + Hash + Send + Sync> Interner<T> {
    /// An empty interner; its chunks are allocated on first use.
    pub(crate) fn new() -> Interner<T> {
        let mut chunks = Vec::with_capacity(MAX_CHUNKS);
        chunks.resize_with(MAX_CHUNKS, || AtomicPtr::new(std::ptr::null_mut()));
        Interner {
            chunks,
            len: AtomicU32::new(0),
            map: Mutex::new(HashMap::new()),
        }
    }

    /// The id of `key`, minting one — and the entry, by `own` — on first
    /// sight.
    pub(crate) fn intern<Q>(&self, key: &Q, own: impl FnOnce(&Q) -> T) -> u32
    where
        Q: Hash + Eq + ?Sized,
        T: Borrow<Q>,
    {
        let mut map = self.map.lock().expect("interner poisoned");
        if let Some(&id) = map.get(key) {
            return id;
        }
        let entry = own(key);
        let id = self.len.load(Ordering::Relaxed);
        let (ci, si) = ((id >> CHUNK_BITS) as usize, (id as usize) & (CHUNK - 1));
        assert!(
            ci < MAX_CHUNKS,
            "interner full ({MAX_CHUNKS}x{CHUNK} entries)"
        );
        let mut chunk = self.chunks[ci].load(Ordering::Acquire);
        if chunk.is_null() {
            chunk = Box::into_raw(Box::new(Chunk {
                slots: UnsafeCell::new([T::default(); CHUNK]),
            }));
            self.chunks[ci].store(chunk, Ordering::Release);
        }
        // SAFETY: we hold the intern mutex (single writer) and `id` is not
        // yet published, so no reader can be looking at this slot.
        unsafe {
            (*(*chunk).slots.get())[si] = entry;
        }
        // Publish: release-store makes the slot write (and the chunk
        // pointer store above) visible to any reader that acquires a
        // length covering `id`.
        self.len.store(id + 1, Ordering::Release);
        map.insert(entry, id);
        id
    }

    /// The entry of `id`. Lock-free: one acquire load of the published
    /// length plus an acquire load of the chunk pointer.
    pub(crate) fn get(&self, id: u32) -> T {
        let n = self.len.load(Ordering::Acquire);
        assert!(id < n, "id {id} not interned");
        let (ci, si) = ((id >> CHUNK_BITS) as usize, (id as usize) & (CHUNK - 1));
        let chunk = self.chunks[ci].load(Ordering::Acquire);
        debug_assert!(!chunk.is_null());
        // SAFETY: id < published len, so the slot was fully written
        // before the release store we just acquired; published slots are
        // never written again.
        unsafe { (*(*chunk).slots.get())[si] }
    }
}

fn strings() -> &'static Interner<&'static str> {
    static STRINGS: OnceLock<Interner<&'static str>> = OnceLock::new();
    STRINGS.get_or_init(Interner::new)
}

impl Symbol {
    /// Interns `s`, returning its canonical handle.
    pub fn intern(s: &str) -> Symbol {
        Symbol(strings().intern(s, |s| Box::leak(s.to_owned().into_boxed_str())))
    }

    /// The interned string. Lock-free (see `Interner::get`).
    pub fn as_str(self) -> &'static str {
        strings().get(self.0)
    }

    /// The dense id of this symbol: what a [`Word`](crate::word::Word)
    /// stores of a string constant.
    pub(crate) fn id(self) -> u32 {
        self.0
    }

    /// The symbol with id `id`, which must have come from [`Symbol::id`].
    pub(crate) fn from_id(id: u32) -> Symbol {
        Symbol(id)
    }

    /// A process-unique fresh symbol with the given prefix, guaranteed not to
    /// collide with any symbol interned from source text (the generated name
    /// contains `#`, which the lexer rejects in identifiers).
    pub fn fresh(prefix: &str) -> Symbol {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        Symbol::intern(&format!("{prefix}#{n}"))
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Self {
        Symbol::intern(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let a = Symbol::intern("foo");
        let b = Symbol::intern("foo");
        assert_eq!(a, b);
        assert_eq!(a.as_str(), "foo");
    }

    #[test]
    fn distinct_strings_distinct_symbols() {
        assert_ne!(Symbol::intern("bar"), Symbol::intern("baz"));
    }

    #[test]
    fn fresh_symbols_are_unique() {
        let a = Symbol::fresh("v");
        let b = Symbol::fresh("v");
        assert_ne!(a, b);
        assert!(a.as_str().starts_with("v#"));
    }

    #[test]
    fn fresh_does_not_collide_with_source_names() {
        // `#` cannot appear in a lexed identifier, so source programs can
        // never mention a fresh symbol by accident.
        let f = Symbol::fresh("X");
        assert!(f.as_str().contains('#'));
    }

    #[test]
    fn concurrent_intern_and_resolve() {
        // Hammer intern (writer lock) and as_str (lock-free read) from
        // several threads; every handed-out symbol must resolve to the
        // string it was interned from.
        let threads: Vec<_> = (0..4)
            .map(|t| {
                std::thread::spawn(move || {
                    for i in 0..2_000 {
                        let s = format!("cc-{t}-{i}");
                        let sym = Symbol::intern(&s);
                        assert_eq!(sym.as_str(), s);
                        // Re-resolve an older symbol from this thread too.
                        if i > 0 {
                            let prev = Symbol::intern(&format!("cc-{t}-{}", i - 1));
                            assert_eq!(prev.as_str(), format!("cc-{t}-{}", i - 1));
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
    }

    #[test]
    fn crosses_chunk_boundary() {
        // Intern enough distinct strings to spill into a second chunk and
        // make sure resolution still round-trips.
        let syms: Vec<(Symbol, String)> = (0..CHUNK + 16)
            .map(|i| {
                let s = format!("chunk-spill-{i}");
                (Symbol::intern(&s), s)
            })
            .collect();
        for (sym, s) in &syms {
            assert_eq!(sym.as_str(), s.as_str());
        }
    }
}
