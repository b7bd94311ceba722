//! A shared, contiguous, append-only buffer of `Copy` values: the storage
//! under [`crate::relation::Relation`]'s flat row store and row-hash
//! column, and under every published [`crate::relation::Snapshot`].
//!
//! One allocation, many handles. A handle is `(Arc<allocation>, len)`:
//! it reads `[0, len)` of the allocation and nothing else. At most one
//! handle per allocation is the *owner*, the only one allowed to write,
//! and it writes only `[len, cap)` — memory no other handle can read,
//! because every other handle's `len` is at most the owner's. So a
//! reader on another thread and the appending writer never touch the
//! same byte, and taking a view ([`Clone`]) is an `Arc` clone plus a
//! length: O(1), no copying.
//!
//! What costs a copy, and when:
//!
//! * **growth while unshared** reallocs in place (the `Vec` behaviour);
//! * **growth while a view holds the allocation** copies `[0, len)` into
//!   a fresh allocation of twice the capacity and leaves the old one to
//!   its views — amortized O(1) per append, like any doubling buffer;
//! * **a handle that is not the owner** (a clone, a view) copies before
//!   its first append, unless it has meanwhile become the only handle
//!   left, in which case it simply takes ownership;
//! * **a truncate while shared** gives up ownership, because the cut
//!   range may be visible to a view: the next append copies first.
//!
//! This is the single-writer / published-length discipline
//! `semrec_datalog::symbol` uses for its slab, with the length carried
//! by value in each handle instead of in an atomic: a longer view
//! reaches another thread only through whatever synchronization hands
//! the handle over (the serving layer's epoch-registry lock), which is
//! what orders the writer's stores before that thread's loads.
//!
//! All `unsafe` of the row store lives in this module, and so does
//! every function that can change the fields it relies on.

use std::alloc::{self, Layout};
use std::ptr::NonNull;
use std::sync::Arc;

/// One heap allocation of `cap` slots of `T`. Knows nothing about which
/// slots are initialized — handles track that by their `len`. `T: Copy`
/// throughout, so no slot ever needs dropping.
struct Alloc<T> {
    ptr: NonNull<T>,
    cap: usize,
}

impl<T> Alloc<T> {
    fn layout(cap: usize) -> Layout {
        Layout::array::<T>(cap).expect("row store capacity overflows the address space")
    }

    fn with_capacity(cap: usize) -> Alloc<T> {
        assert!(std::mem::size_of::<T>() != 0, "zero-sized rows");
        if cap == 0 {
            return Alloc {
                ptr: NonNull::dangling(),
                cap: 0,
            };
        }
        let layout = Self::layout(cap);
        // SAFETY: `layout` has non-zero size (`cap > 0`, `T` not
        // zero-sized).
        let raw = unsafe { alloc::alloc(layout) };
        let Some(ptr) = NonNull::new(raw.cast::<T>()) else {
            alloc::handle_alloc_error(layout)
        };
        Alloc { ptr, cap }
    }

    /// Grows the allocation to `new_cap` slots, preserving its bytes;
    /// the block may move. Takes `&mut self`: the caller holds the only
    /// reference to the allocation.
    fn grow_to(&mut self, new_cap: usize) {
        debug_assert!(new_cap > self.cap);
        if self.cap == 0 {
            *self = Alloc::with_capacity(new_cap);
            return;
        }
        let new_layout = Self::layout(new_cap);
        // SAFETY: `ptr` came from `alloc`/`realloc` with
        // `layout(self.cap)` (cap > 0), and `new_layout.size()` is
        // non-zero and was validated by `Layout::array`.
        let raw = unsafe {
            alloc::realloc(
                self.ptr.as_ptr().cast::<u8>(),
                Self::layout(self.cap),
                new_layout.size(),
            )
        };
        let Some(ptr) = NonNull::new(raw.cast::<T>()) else {
            alloc::handle_alloc_error(new_layout)
        };
        self.ptr = ptr;
        self.cap = new_cap;
    }
}

impl<T> Drop for Alloc<T> {
    fn drop(&mut self) {
        if self.cap != 0 {
            // SAFETY: `ptr` was allocated with exactly this layout and
            // is freed once, here, when the last handle lets go.
            unsafe { alloc::dealloc(self.ptr.as_ptr().cast::<u8>(), Self::layout(self.cap)) };
        }
    }
}

// SAFETY: an `Alloc` is a uniquely owned heap block of `T`s (the `Arc`
// around it does the sharing); moving it to another thread moves
// ownership of those `T`s, which `T: Send` permits.
unsafe impl<T: Send> Send for Alloc<T> {}
// SAFETY: `&Alloc` exposes only the pointer and capacity; every access
// through the pointer goes through an `AppendBuf` handle, whose
// discipline (below) keeps concurrent reads and the one writer on
// disjoint slots. Sharing `T`s between threads needs `T: Sync`.
unsafe impl<T: Sync> Sync for Alloc<T> {}

/// A handle on a shared append-only buffer. See the module docs.
///
/// Invariants (all fields private; every mutator is in this module):
///
/// 1. `ptr == alloc.ptr`, cached so a read does not chase the `Arc`.
/// 2. Slots `[0, len)` of the allocation are initialized, and no other
///    handle writes them: writes happen only through the owner, only at
///    slots `>= owner.len`, and `len <= owner.len` for every handle
///    sharing the owner's allocation.
/// 3. `wcap` is the allocation's capacity if this handle is the owner
///    and 0 otherwise; at most one handle per allocation is the owner.
pub(crate) struct AppendBuf<T: Copy> {
    alloc: Arc<Alloc<T>>,
    ptr: NonNull<T>,
    len: usize,
    wcap: usize,
}

// SAFETY: a handle moved to another thread reads `[0, len)`, which by
// invariant 2 nobody writes; if it is the owner it also writes
// `[len, cap)`, which by the same invariant nobody else reads. The
// `Arc<Alloc<T>>` field is `Send` for `T: Send + Sync`; the raw `ptr`
// merely mirrors it.
unsafe impl<T: Copy + Send + Sync> Send for AppendBuf<T> {}
// SAFETY: `&AppendBuf` allows `deref` (reads of `[0, len)`, never
// written by anyone — invariant 2) and `clone` (an `Arc` clone); both
// are safe from any number of threads at once.
unsafe impl<T: Copy + Send + Sync> Sync for AppendBuf<T> {}

impl<T: Copy> AppendBuf<T> {
    /// An empty buffer that owns a (not yet allocated) allocation.
    pub(crate) fn new() -> AppendBuf<T> {
        AppendBuf::with_capacity(0)
    }

    /// An empty owner with room for `cap` values.
    pub(crate) fn with_capacity(cap: usize) -> AppendBuf<T> {
        let alloc = Alloc::with_capacity(cap);
        AppendBuf {
            ptr: alloc.ptr,
            len: 0,
            wcap: alloc.cap,
            alloc: Arc::new(alloc),
        }
    }

    /// Slots in the underlying allocation (shared or not).
    pub(crate) fn capacity(&self) -> usize {
        self.alloc.cap
    }

    /// The values this handle can read (what `Deref` hands out).
    #[inline]
    fn as_slice(&self) -> &[T] {
        // SAFETY: `ptr` is the live allocation's base (invariant 1; the
        // `Arc` keeps it alive for `&self`), `[0, len)` is initialized
        // and never written while any handle can read it (invariant 2).
        // For `len == 0` a dangling, aligned `ptr` is allowed.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }

    /// True when `self` and `other` read the same allocation — nothing
    /// was copied between them.
    pub(crate) fn same_allocation(&self, other: &AppendBuf<T>) -> bool {
        Arc::ptr_eq(&self.alloc, &other.alloc)
    }

    /// Appends `src`. Returns `true` when this handle had to *fork*: it
    /// was not the owner of a shared allocation, so it copied its
    /// values into a fresh one before writing (from here on its
    /// contents may differ from the handles it was cloned from).
    #[inline]
    pub(crate) fn extend_from_slice(&mut self, src: &[T]) -> bool {
        let mut forked = false;
        // A non-owner has `wcap == 0`, so one comparison covers both
        // "no room" and "not mine to write".
        if self.len + src.len() > self.wcap {
            forked = self.make_room(src.len());
        }
        // SAFETY: `make_room` (or the check above) established that this
        // handle is the owner and `len + src.len() <= alloc.cap`, so the
        // destination is in bounds and, by invariant 2, readable through
        // no handle — hence through no `&[T]`, `src` included: the two
        // ranges cannot overlap.
        unsafe {
            std::ptr::copy_nonoverlapping(src.as_ptr(), self.ptr.as_ptr().add(self.len), src.len());
        }
        self.len += src.len();
        forked
    }

    /// Appends one value; see [`AppendBuf::extend_from_slice`].
    #[inline]
    pub(crate) fn push(&mut self, v: T) -> bool {
        self.extend_from_slice(std::slice::from_ref(&v))
    }

    /// Makes this handle the owner of an allocation with room for
    /// `extra` more values. Returns whether it forked (see
    /// [`AppendBuf::extend_from_slice`]).
    #[cold]
    fn make_room(&mut self, extra: usize) -> bool {
        let need = self
            .len
            .checked_add(extra)
            .expect("row store length overflows usize");
        let cap = self.alloc.cap;
        let grown = if need > cap {
            need.max(cap.saturating_mul(2)).max(4)
        } else {
            cap
        };
        if let Some(a) = Arc::get_mut(&mut self.alloc) {
            // The only handle on this allocation (`get_mut` also rules
            // out a concurrent clone: there is nobody to clone from), so
            // it may grow in place and, if it was a leftover clone or a
            // truncated owner, simply take ownership.
            if grown > a.cap {
                a.grow_to(grown);
            }
            self.ptr = a.ptr;
            self.wcap = a.cap;
            return false;
        }
        // Shared: other handles may read up to their own `len` of the
        // old allocation, so it must stay as it is. Copy what this
        // handle can see into a fresh one and own that.
        let was_owner = self.wcap != 0;
        let fresh = Alloc::with_capacity(grown);
        // SAFETY: source `[0, len)` is initialized and immutable
        // (invariant 2); `fresh` has `grown >= len` slots, is brand new
        // (no overlap) and nobody else can see it yet.
        unsafe { std::ptr::copy_nonoverlapping(self.ptr.as_ptr(), fresh.ptr.as_ptr(), self.len) };
        self.ptr = fresh.ptr;
        self.wcap = fresh.cap;
        self.alloc = Arc::new(fresh);
        !was_owner
    }

    /// Forgets every value from `keep` on. If another handle shares the
    /// allocation it may still read the cut range, so this handle stops
    /// being the owner and copies before its next append.
    pub(crate) fn truncate(&mut self, keep: usize) {
        if keep >= self.len {
            return;
        }
        self.len = keep;
        if Arc::get_mut(&mut self.alloc).is_none() {
            self.wcap = 0;
        }
    }
}

impl<T: Copy> Clone for AppendBuf<T> {
    /// An O(1) view of the current contents: shares the allocation,
    /// reads `[0, len)`, owns nothing (copies before its first append).
    fn clone(&self) -> Self {
        AppendBuf {
            alloc: Arc::clone(&self.alloc),
            ptr: self.ptr,
            len: self.len,
            wcap: 0,
        }
    }
}

impl<T: Copy> std::ops::Deref for AppendBuf<T> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Copy> std::fmt::Debug for AppendBuf<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AppendBuf")
            .field("len", &self.len)
            .field("cap", &self.alloc.cap)
            .field("owner", &(self.wcap != 0))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The address of the shared allocation header: stable across an
    /// in-place growth, different after a copy.
    fn header<T: Copy>(b: &AppendBuf<T>) -> usize {
        Arc::as_ptr(&b.alloc) as usize
    }

    #[test]
    fn a_view_is_unaffected_by_owner_appends() {
        let mut w = AppendBuf::with_capacity(8);
        w.extend_from_slice(&[1u64, 2, 3]);
        let v = w.clone();
        // Room is left, so the owner writes in place, past the view.
        assert!(!w.extend_from_slice(&[4, 5]));
        assert!(w.same_allocation(&v));
        assert_eq!(v.as_slice(), &[1, 2, 3]);
        assert_eq!(w.as_slice(), &[1, 2, 3, 4, 5]);
    }

    #[test]
    fn growth_while_shared_leaves_the_views_bytes_intact() {
        let mut w = AppendBuf::with_capacity(4);
        w.extend_from_slice(&[1u64, 2, 3, 4]);
        let v = w.clone();
        let before = v.as_slice().as_ptr();
        // Over capacity while `v` holds the allocation: copy, not move.
        assert!(!w.push(5), "the owner growing is not a fork");
        assert!(!w.same_allocation(&v));
        assert_eq!(v.as_slice().as_ptr(), before);
        assert_eq!(v.as_slice(), &[1, 2, 3, 4]);
        assert_eq!(w.as_slice(), &[1, 2, 3, 4, 5]);
        assert!(w.capacity() >= 8, "growth doubles");
        // The owner keeps appending in place in its new allocation.
        let h = header(&w);
        w.push(6);
        assert_eq!(header(&w), h);
    }

    #[test]
    fn unique_growth_keeps_one_allocation() {
        let mut w = AppendBuf::new();
        let h = header(&w);
        for i in 0..10_000u64 {
            assert!(!w.push(i));
        }
        assert_eq!(header(&w), h, "unshared growth reallocs in place");
        assert_eq!(w.len(), 10_000);
        assert!(w.as_slice().iter().copied().eq(0..10_000));
    }

    #[test]
    fn clone_then_append_copies_first() {
        let mut w = AppendBuf::with_capacity(8);
        w.extend_from_slice(&[1u64, 2]);
        let mut c = w.clone();
        assert!(c.push(9), "a clone appending forks");
        assert!(!c.same_allocation(&w));
        // Both now append independently.
        assert!(!w.push(3));
        assert!(!c.push(10));
        assert_eq!(w.as_slice(), &[1, 2, 3]);
        assert_eq!(c.as_slice(), &[1, 2, 9, 10]);
    }

    #[test]
    fn a_clone_left_alone_takes_ownership_instead_of_copying() {
        let mut w = AppendBuf::with_capacity(8);
        w.extend_from_slice(&[1u64, 2]);
        let mut c = w.clone();
        let h = header(&c);
        drop(w);
        assert!(!c.push(3), "the last handle has nobody to diverge from");
        assert_eq!(header(&c), h);
        assert_eq!(c.as_slice(), &[1, 2, 3]);
    }

    #[test]
    fn truncate_then_append_copies_first_while_shared() {
        let mut w = AppendBuf::with_capacity(8);
        w.extend_from_slice(&[1u64, 2, 3]);
        let v = w.clone();
        w.truncate(1);
        // Slot 1 is still visible to `v`: the append must not land on it.
        w.push(7);
        assert!(!w.same_allocation(&v));
        assert_eq!(v.as_slice(), &[1, 2, 3]);
        assert_eq!(w.as_slice(), &[1, 7]);
    }

    #[test]
    fn truncate_then_append_reuses_the_slots_when_unshared() {
        let mut w = AppendBuf::with_capacity(8);
        w.extend_from_slice(&[1u64, 2, 3]);
        let h = header(&w);
        w.truncate(1);
        assert!(!w.push(7));
        assert_eq!(header(&w), h);
        assert_eq!(w.as_slice(), &[1, 7]);
        // Truncating at or past the length is a no-op.
        w.truncate(5);
        assert_eq!(w.len(), 2);
    }

    #[test]
    fn views_read_across_threads_while_the_owner_appends() {
        let mut w = AppendBuf::with_capacity(4);
        w.extend_from_slice(&[0u64, 1, 2]);
        let (tx, rx) = std::sync::mpsc::channel::<AppendBuf<u64>>();
        let reader = std::thread::spawn(move || {
            let mut seen = 0;
            for v in rx {
                assert!(v.as_slice().iter().copied().eq(0..v.len() as u64));
                seen += 1;
            }
            seen
        });
        for i in 3..200u64 {
            tx.send(w.clone()).unwrap();
            w.push(i);
        }
        drop(tx);
        assert_eq!(reader.join().unwrap(), 197);
    }
}
