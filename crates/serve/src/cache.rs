//! The epoch answer cache: memoized query answers keyed by relation
//! state, so repeated goals against an unchanged relation skip even the
//! index probe.
//!
//! ## The entry: sorted row ids, not tuples
//!
//! An answer is stored as the sorted `Arc<[u32]>` of physical row ids
//! [`Server::query_rows`](crate::Server::query_rows) computed — 4 bytes
//! per answer row where a `Vec<Tuple>` copy costs a heap allocation per
//! row (≈ 4 KB against ≈ 69 KB for a 1000-row binary answer). Ids mean
//! nothing on their own: they index the `Arc<Snapshot>` of the epoch
//! the reader pinned, and the key below guarantees an entry is only
//! ever addressed by a reader holding a snapshot of the very relation
//! state the ids were read from.
//!
//! ## The key: the state's stamp
//!
//! Every snapshot carries the [stamp](semrec_engine::Snapshot::stamp)
//! of the relation state it views: `(incarnation, generation)`. The
//! incarnation is a process-unique id of one append history of row ids
//! — a relation that is rebuilt from scratch (a route invalidation, a
//! builtin program's recompute), compacted or rolled back gets a new
//! one — and the generation counts the changes within it, so along the
//! one history of states the writer publishes a stamp names exactly one
//! content *and* one meaning of row ids. Keying the cache on
//! `(goal shape, stamp)` therefore gives exactly the invalidation the
//! snapshot discipline promises, for free:
//!
//! * a commit that changes a predicate publishes a snapshot with a new
//!   stamp — stale entries simply stop being addressed, never served;
//! * a commit that leaves a predicate untouched shares the old
//!   `Arc<Snapshot>` ([`crate::epoch`]), so queries at the new epoch
//!   keep *hitting* the old entries;
//! * readers pinned at older epochs address the old stamp and stay
//!   consistent with their snapshot.
//!
//! The generation alone would not do: it is a per-object counter, and a
//! rebuilt relation's counter can land on a value an older object
//! already published under.
//!
//! No explicit invalidation hook exists, and none is needed.
//!
//! ## Goal shape
//!
//! Two goals share a cache entry iff they are identical up to variable
//! *renaming*: constants must match by value and position, and the
//! equality pattern among variables must match (`reach(X, X)` and
//! `reach(Y, Y)` share; `reach(X, Y)` does not). Variables are
//! canonicalized to their first-occurrence index.
//!
//! ## Bounds and concurrency
//!
//! The cache is a FIFO-bounded map under one mutex — entries are
//! `Arc<[u32]>`, so a hit is a pointer clone and the lock is held
//! only for the map operation, never while answering. Hit/miss
//! counters are relaxed atomics surfaced through the `stats.` verb.

use semrec_datalog::atom::{Atom, Pred};
use semrec_datalog::term::{Term, Value};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// One canonicalized goal argument: a constant by value, or a variable
/// by the argument index of its first occurrence (so renaming-equivalent
/// goals collide and equality patterns are preserved).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum ShapeArg {
    Const(Value),
    Var(u32),
}

/// The renaming-invariant shape of a query goal — the cache's notion of
/// "the same question".
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct GoalShape {
    pred: Pred,
    args: Vec<ShapeArg>,
}

impl GoalShape {
    /// Canonicalizes `goal`: constants verbatim, each variable replaced
    /// by the argument index where it first appears.
    pub fn of(goal: &Atom) -> GoalShape {
        let args = goal
            .args
            .iter()
            .enumerate()
            .map(|(i, t)| match t {
                Term::Const(c) => ShapeArg::Const(*c),
                Term::Var(x) => {
                    let first = goal.args[..i]
                        .iter()
                        .position(|u| matches!(u, Term::Var(y) if y == x))
                        .unwrap_or(i);
                    ShapeArg::Var(first as u32)
                }
            })
            .collect();
        GoalShape {
            pred: goal.pred,
            args,
        }
    }
}

/// The identity of one published relation state: its snapshot's
/// [stamp](semrec_engine::Snapshot::stamp), `(incarnation, generation)`.
/// `None` names "the predicate has no relation at the pinned epoch"
/// (the answer is the empty set, cacheable too).
pub type RelationStamp = Option<(u64, u64)>;

/// Full cache key: which question, against which immutable state.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct CacheKey {
    shape: GoalShape,
    stamp: RelationStamp,
}

struct CacheMap {
    map: HashMap<CacheKey, Arc<[u32]>>,
    /// Insertion order for FIFO eviction.
    order: VecDeque<CacheKey>,
}

/// A bounded, stamp-keyed answer cache shared by all readers.
pub struct AnswerCache {
    inner: Mutex<CacheMap>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl AnswerCache {
    /// An empty cache holding at most `capacity` entries; with 0 nothing
    /// is retained (the server then skips the cache altogether).
    pub fn new(capacity: usize) -> AnswerCache {
        AnswerCache {
            inner: Mutex::new(CacheMap {
                map: HashMap::new(),
                order: VecDeque::new(),
            }),
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Looks up the answer for `shape` against relation state `stamp`,
    /// counting a hit or miss.
    pub fn get(&self, shape: &GoalShape, stamp: RelationStamp) -> Option<Arc<[u32]>> {
        let key = CacheKey {
            shape: shape.clone(),
            stamp,
        };
        let found = self
            .inner
            .lock()
            .expect("cache lock")
            .map
            .get(&key)
            .cloned();
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Stores an answer — the sorted row ids of `shape` against the
    /// relation state `stamp` names — evicting the oldest entry when
    /// full. A racing duplicate insert keeps the existing entry's slot.
    pub fn insert(&self, shape: GoalShape, stamp: RelationStamp, rows: Arc<[u32]>) {
        let key = CacheKey { shape, stamp };
        let mut inner = self.inner.lock().expect("cache lock");
        if inner.map.insert(key.clone(), rows).is_none() {
            inner.order.push_back(key);
            while inner.map.len() > self.capacity {
                let Some(old) = inner.order.pop_front() else {
                    break;
                };
                inner.map.remove(&old);
            }
        }
    }

    /// Lookups answered from the cache since startup.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that had to compute their answer since startup.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries currently resident.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("cache lock").map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semrec_datalog::parser::parse_atom;

    fn shape(s: &str) -> GoalShape {
        GoalShape::of(&parse_atom(s).unwrap())
    }

    #[test]
    fn shapes_identify_up_to_renaming() {
        assert_eq!(shape("r(X, Y)"), shape("r(A, B)"));
        assert_eq!(shape("r(X, X)"), shape("r(B, B)"));
        assert_ne!(shape("r(X, X)"), shape("r(X, Y)"));
        assert_ne!(shape("r(1, Y)"), shape("r(2, Y)"));
        assert_ne!(shape("r(1, Y)"), shape("s(1, Y)"));
    }

    #[test]
    fn stamp_partitions_entries() {
        let cache = AnswerCache::new(8);
        let s = shape("r(1, Y)");
        cache.insert(s.clone(), Some((3, 0)), Arc::from([7u32]));
        assert!(cache.get(&s, Some((3, 0))).is_some());
        assert!(cache.get(&s, Some((4, 0))).is_none(), "new stamp misses");
        assert!(
            cache.get(&s, Some((3, 1))).is_none(),
            "another generation misses"
        );
        assert!(cache.get(&s, None).is_none());
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 3);
    }

    #[test]
    fn fifo_eviction_bounds_the_map() {
        let cache = AnswerCache::new(2);
        for g in 0..5u64 {
            cache.insert(shape("r(X, Y)"), Some((g, 0)), Arc::from([]));
        }
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&shape("r(X, Y)"), Some((4, 0))).is_some());
        assert!(cache.get(&shape("r(X, Y)"), Some((0, 0))).is_none());
    }
}
