//! The epoch answer cache: memoized query answers keyed by relation
//! generation, so repeated goals against an unchanged relation skip
//! even the index probe.
//!
//! ## The entry: sorted row ids, not tuples
//!
//! An answer is stored as the sorted `Arc<[u32]>` of physical row ids
//! [`Server::query_rows`](crate::Server::query_rows) computed — 4 bytes
//! per answer row where a `Vec<Tuple>` copy costs a heap allocation per
//! row (≈ 4 KB against ≈ 69 KB for a 1000-row binary answer). Ids mean
//! nothing on their own: they index the frozen `Arc<Relation>` of the
//! epoch the reader pinned, and the key below guarantees an entry is
//! only ever addressed by a reader holding the very relation state the
//! ids were read from.
//!
//! ## The key: last-change stamp + generation
//!
//! Copy-on-write publication ([`crate::epoch`]) shares `Arc<Relation>`s
//! between epochs whenever a commit did not touch a predicate, and
//! stamps every relation it *does* clone with the publishing epoch
//! ([`publish_epoch`](semrec_engine::Relation::publish_epoch)); a
//! shared relation keeps the stamp of the epoch that last changed it.
//! Keying the cache on `(goal shape, stamp, generation)` therefore
//! gives exactly the invalidation the snapshot discipline promises,
//! for free:
//!
//! * a commit that changes a predicate publishes a freshly stamped
//!   clone — stale entries simply stop being addressed, never served;
//! * a commit that leaves a predicate untouched shares the old `Arc`,
//!   so queries at the new epoch keep *hitting* the old entries;
//! * readers pinned at older epochs address the old stamp and stay
//!   consistent with their snapshot.
//!
//! The [`generation`](semrec_engine::Relation::generation) mutation
//! counter rides along as a cross-check, but cannot stand alone: a
//! route invalidation rebuilds the materialization from scratch, and a
//! *different relation instance*'s independent generation counter may
//! collide with an older published value. The publication stamp is
//! what uniquely names the visible relation state — epoch ids never
//! repeat within a server, and at most one relation per predicate is
//! published per epoch.
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

/// The identity of one immutable published relation state: the epoch
/// that last changed it (its [`publish_epoch`] stamp — unique per
/// server run) plus its mutation [`generation`] as a cross-check.
/// `None` names "the predicate has no relation at the pinned epoch"
/// (the answer is the empty set, cacheable too).
///
/// [`publish_epoch`]: semrec_engine::Relation::publish_epoch
/// [`generation`]: semrec_engine::Relation::generation
pub type RelationStamp = Option<(u64, u64)>;

/// Reads the cache identity off a pinned relation.
pub fn relation_stamp(rel: &semrec_engine::Relation) -> RelationStamp {
    Some((rel.published_epoch().unwrap_or(u64::MAX), rel.generation()))
}

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

/// A bounded, generation-keyed answer cache shared by all readers.
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
            "generation cross-check misses"
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
