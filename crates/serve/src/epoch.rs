//! Epoch snapshots: O(delta) publication and reader pinning.
//!
//! Every committed transaction publishes a new [`EpochState`]: the
//! epoch id, the route answering queries at that epoch, and one
//! read-only [`Snapshot`] per relation. A snapshot is a watermark over
//! the writer's own append-only row store (`Arc` of the allocation,
//! row count, `Arc` of the tombstone words, the relation's stamp) —
//! publishing copies no rows. [`EpochState::cow_successor`] builds
//! the next epoch from the previous one:
//!
//! * a relation whose [stamp](Relation::stamp) is unchanged shares the
//!   previous epoch's `Arc<Snapshot>`;
//! * a relation that grew or lost rows to tombstones (same storage
//!   incarnation — every ordinary commit, deletes included) gets a new
//!   snapshot over the same rows that also inherits the previous one's
//!   index lineage — the indexes readers built stay warm, and the first
//!   probe of the new epoch extends them by the appended rows;
//! * a relation that was compacted (its dead rows had come to outnumber
//!   its live ones), rolled back or rebuilt (a new incarnation) starts
//!   a fresh lineage.
//!
//! So a commit that inserts one `edge` fact publishes two watermarks,
//! and the tombstone words are shared by every epoch between two
//! deletes: only the first delete after a publication copies them.
//!
//! Readers pin an epoch by cloning its `Arc` out of the registry — a
//! pointer copy under a briefly-held read lock, never blocked by the
//! writer's evaluation work — and answer against the pinned state for
//! the whole request, no matter how many commits land meanwhile. That
//! lock is also what makes the sharing sound across threads: every row
//! a snapshot can see was written before the snapshot was pushed under
//! the registry's write lock, and a reader takes it out under the read
//! lock, so the writes happen-before the reads; what the writer appends
//! afterwards lies past the watermark. The writer's publish is a ring
//! push, never blocked by however slowly a reader is scanning. An
//! epoch's memory — by now mostly its share of a row allocation that a
//! later growth left behind — is reclaimed when it both falls off the
//! retention ring and the last pinned reader drops its `Arc`; the
//! slow-reader watchdog ([`crate::admission`]) cancels readers that
//! would otherwise hold reclamation hostage.

use crate::error::ServeError;
use semrec_datalog::atom::Pred;
use semrec_engine::{Relation, Route, Snapshot};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, RwLock};

/// One published epoch: an immutable, consistent view of every
/// relation (EDB and IDB) at a commit boundary.
#[derive(Clone, Debug)]
pub struct EpochState {
    /// The epoch id: 0 for the initial materialization, +1 per
    /// published commit. Process-local — epochs restart at the replayed
    /// commit count after recovery.
    pub epoch: u64,
    /// The maintenance route answering queries at this epoch (optimized
    /// vs rectified-after-invalidation etc.).
    pub route: Route,
    /// Every relation visible at this epoch, as a read-only snapshot
    /// readers walk and probe without coordination.
    pub rels: BTreeMap<Pred, Arc<Snapshot>>,
}

impl EpochState {
    /// The relation for `pred` at this epoch, if any.
    pub fn relation(&self, pred: Pred) -> Option<&Arc<Snapshot>> {
        self.rels.get(&pred)
    }

    /// Builds the successor epoch from the writer's `current` relations
    /// without copying rows: a relation whose stamp equals its snapshot
    /// in `self` shares that `Arc`; any other gets
    /// [`Relation::snapshot_after`] its predecessor (inheriting the
    /// index lineage when it merely grew). Bytes copied on behalf of
    /// publication are added to `meter`. Relations absent from
    /// `current` are dropped (the writer deleted the predicate — does
    /// not happen today, but the view must follow the writer, not
    /// accrete).
    pub fn cow_successor<'a>(
        &self,
        epoch: u64,
        route: Route,
        current: impl Iterator<Item = (Pred, &'a Relation)>,
        meter: &Arc<AtomicU64>,
    ) -> EpochState {
        let mut rels = BTreeMap::new();
        for (p, rel) in current {
            let prev = self.rels.get(&p);
            let arc = match prev.filter(|prev| prev.stamp() == rel.stamp()) {
                Some(prev) => Arc::clone(prev),
                None => Arc::new(rel.snapshot_after(prev.map(|a| &**a), meter)),
            };
            rels.insert(p, arc);
        }
        EpochState { epoch, route, rels }
    }
}

/// The ring of recently published epochs.
#[derive(Debug)]
pub struct EpochRegistry {
    ring: RwLock<VecDeque<Arc<EpochState>>>,
    retain: usize,
}

impl EpochRegistry {
    /// A registry seeded with `initial` (epoch 0), retaining up to
    /// `retain` epochs (at least 1 — the latest is always pinnable).
    pub fn new(initial: EpochState, retain: usize) -> EpochRegistry {
        let mut ring = VecDeque::new();
        ring.push_back(Arc::new(initial));
        EpochRegistry {
            ring: RwLock::new(ring),
            retain: retain.max(1),
        }
    }

    /// Publishes `state` as the newest epoch, dropping the oldest
    /// beyond the retention bound. Hits the `snapshot.publish`
    /// failpoint first: an injected failure leaves the ring unchanged
    /// (the commit stays durable and applied; publication is retried by
    /// the next commit, whose epoch subsumes this one).
    pub fn publish(&self, state: EpochState) -> Result<Arc<EpochState>, ServeError> {
        #[cfg(feature = "failpoints")]
        semrec_engine::failpoint::hit("snapshot.publish")
            .map_err(|m| ServeError::Io(format!("snapshot publish: {m}")))?;
        let arc = Arc::new(state);
        let mut ring = self.ring.write().expect("epoch ring poisoned");
        debug_assert!(ring.back().is_none_or(|b| b.epoch < arc.epoch));
        ring.push_back(Arc::clone(&arc));
        while ring.len() > self.retain {
            ring.pop_front();
        }
        Ok(arc)
    }

    /// Pins the newest epoch.
    pub fn latest(&self) -> Arc<EpochState> {
        let ring = self.ring.read().expect("epoch ring poisoned");
        Arc::clone(ring.back().expect("registry seeded at construction"))
    }

    /// The oldest retained epoch id.
    pub fn oldest(&self) -> u64 {
        let ring = self.ring.read().expect("epoch ring poisoned");
        ring.front().expect("registry seeded at construction").epoch
    }

    /// Pins a specific epoch (`None` = latest). A request for an epoch
    /// that fell off the ring is the typed
    /// [`ServeError::EpochReclaimed`]; a request ahead of the newest
    /// published epoch is a protocol error (the client invented it).
    pub fn pin(&self, epoch: Option<u64>) -> Result<Arc<EpochState>, ServeError> {
        let ring = self.ring.read().expect("epoch ring poisoned");
        let newest = ring.back().expect("registry seeded at construction");
        let Some(e) = epoch else {
            return Ok(Arc::clone(newest));
        };
        if e > newest.epoch {
            return Err(ServeError::Protocol(format!(
                "epoch {e} not yet published (latest: {})",
                newest.epoch
            )));
        }
        match ring.iter().find(|s| s.epoch == e) {
            Some(s) => Ok(Arc::clone(s)),
            None => Err(ServeError::EpochReclaimed {
                requested: e,
                oldest: ring.front().expect("non-empty").epoch,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semrec_datalog::word::Word;
    use semrec_engine::int_tuple;
    use std::sync::atomic::Ordering;

    fn rel(tuples: &[[i64; 2]]) -> Relation {
        let mut r = Relation::new(2);
        for t in tuples {
            r.insert(int_tuple(t));
        }
        r
    }

    fn edge() -> Pred {
        Pred::from("edge")
    }

    fn epoch_of(epoch: u64, prev: Option<&EpochState>, edge_rel: &Relation) -> EpochState {
        let seed = EpochState {
            epoch: 0,
            route: Route::Direct,
            rels: BTreeMap::new(),
        };
        prev.unwrap_or(&seed).cow_successor(
            epoch,
            Route::Direct,
            [(edge(), edge_rel)].into_iter(),
            &Arc::default(),
        )
    }

    fn state(epoch: u64, edges: &[[i64; 2]]) -> EpochState {
        epoch_of(epoch, None, &rel(edges))
    }

    #[test]
    fn cow_shares_unchanged_and_snapshots_changed() {
        let e = rel(&[[1, 2]]);
        let s0 = epoch_of(0, None, &e);
        let mut w = rel(&[[1, 2]]);
        // A clone keeps the stamp, so sharing kicks in for `edge`.
        let edge_same_stamp = e.clone();
        w.insert(int_tuple(&[9, 9]));
        let current: Vec<(Pred, &Relation)> =
            vec![(edge(), &edge_same_stamp), (Pred::from("w"), &w)];
        let s1 = s0.cow_successor(1, Route::Direct, current.into_iter(), &Arc::default());
        assert!(Arc::ptr_eq(
            s1.relation(edge()).unwrap(),
            s0.relation(edge()).unwrap()
        ));
        let wp = s1.relation(Pred::from("w")).unwrap();
        assert_eq!(wp.stamp(), w.stamp());
        assert_eq!(wp.len(), 2);
    }

    #[test]
    fn a_rebuilt_relation_with_an_equal_generation_is_not_reused() {
        // Generation is a per-object counter: two relations built by the
        // same number of inserts agree on it. Only the incarnation tells
        // them apart.
        let old = rel(&[[1, 2]]);
        let rebuilt = rel(&[[5, 6]]);
        assert_eq!(old.generation(), rebuilt.generation());
        let s0 = epoch_of(0, None, &old);
        let s1 = epoch_of(1, Some(&s0), &rebuilt);
        let got = s1.relation(edge()).unwrap();
        assert!(!Arc::ptr_eq(got, s0.relation(edge()).unwrap()));
        assert_eq!(got.sorted_tuples(), vec![int_tuple(&[5, 6])]);
        assert!(!got.shares_indexes_with(s0.relation(edge()).unwrap()));
    }

    /// Publication is O(delta), asserted on structure: consecutive
    /// epochs of a relation that grows share one row allocation and one
    /// index lineage, and a reader of the newer epoch indexes exactly
    /// the appended rows.
    #[test]
    fn a_grown_relation_shares_rows_and_extends_the_inherited_index() {
        let mut e = Relation::new(2);
        for i in 0..100 {
            e.insert(int_tuple(&[i % 10, i]));
        }
        let meter = Arc::new(AtomicU64::new(0));
        let seed = state(0, &[]);
        let s0 = seed.cow_successor(0, Route::Direct, [(edge(), &e)].into_iter(), &meter);
        let snap0 = Arc::clone(s0.relation(edge()).unwrap());
        let mut hits = Vec::new();
        snap0.probe_into(&[0], &[Word::int(3)], &mut hits);
        assert_eq!(hits.len(), 10);
        assert_eq!(snap0.indexed_rows(), 100);
        let after_build = meter.load(Ordering::Relaxed);
        assert!(after_build > 0, "building the index is metered");

        // Two more rows: within capacity, so nothing moves.
        e.insert(int_tuple(&[3, 1000]));
        e.insert(int_tuple(&[4, 1001]));
        let s1 = s0.cow_successor(1, Route::Direct, [(edge(), &e)].into_iter(), &meter);
        let snap1 = Arc::clone(s1.relation(edge()).unwrap());
        assert!(snap1.shares_rows_with(&snap0), "no row was copied");
        assert!(snap1.shares_indexes_with(&snap0));
        assert_eq!(
            meter.load(Ordering::Relaxed),
            after_build,
            "publishing an append copies nothing"
        );
        assert_eq!(snap1.indexed_rows(), 100, "extension waits for a reader");
        snap1.probe_into(&[0], &[Word::int(3)], &mut hits);
        assert_eq!(hits.len(), 11);
        assert_eq!(snap1.indexed_rows(), 102, "exactly the appended rows");
        let extended = meter.load(Ordering::Relaxed) - after_build;
        assert!(
            extended > 0 && extended <= 128,
            "2 rows, not 102: {extended}"
        );
        // The older epoch reads through the same, now longer, index and
        // still sees its own rows only.
        snap0.probe_into(&[0], &[Word::int(3)], &mut hits);
        assert_eq!(hits.len(), 10);
        assert_eq!(snap0.len(), 100);
    }

    #[test]
    fn a_compacted_relation_starts_a_fresh_lineage() {
        let mut e = rel(&[[1, 2], [1, 3], [2, 3]]);
        let s0 = epoch_of(0, None, &e);
        let snap0 = Arc::clone(s0.relation(edge()).unwrap());
        let mut hits = Vec::new();
        snap0.probe_into(&[0], &[Word::int(1)], &mut hits);
        assert_eq!(hits, vec![0, 1]);

        // Tombstone only: same incarnation, the index stays, the
        // snapshot's own tombstone words do the filtering.
        e.delete(&int_tuple(&[1, 2]));
        let s1 = epoch_of(1, Some(&s0), &e);
        let snap1 = Arc::clone(s1.relation(edge()).unwrap());
        assert!(snap1.shares_indexes_with(&snap0));
        snap1.probe_into(&[0], &[Word::int(1)], &mut hits);
        assert_eq!(hits, vec![1]);

        // A second delete leaves the dead outnumbering the live, so the
        // relation compacts: rows renumbered, new incarnation, nothing
        // inherited.
        e.delete(&int_tuple(&[2, 3]));
        assert!(e.compact_if_sparse());
        let s2 = epoch_of(2, Some(&s1), &e);
        let snap2 = Arc::clone(s2.relation(edge()).unwrap());
        assert!(!snap2.shares_indexes_with(&snap1));
        assert!(!snap2.shares_rows_with(&snap1));
        assert_eq!(snap2.indexed_rows(), 0);
        snap2.probe_into(&[0], &[Word::int(1)], &mut hits);
        assert_eq!(hits, vec![0], "row ids are the compacted ones");
        // And the pinned older epochs are untouched by all of it.
        snap0.probe_into(&[0], &[Word::int(1)], &mut hits);
        assert_eq!(hits, vec![0, 1]);
    }

    #[test]
    fn registry_retains_and_reclaims() {
        let reg = EpochRegistry::new(state(0, &[[1, 2]]), 2);
        reg.publish(state(1, &[[1, 2], [2, 3]])).unwrap();
        reg.publish(state(2, &[[1, 2], [2, 3], [3, 4]])).unwrap();
        assert_eq!(reg.latest().epoch, 2);
        assert_eq!(reg.oldest(), 1);
        assert_eq!(reg.pin(Some(1)).unwrap().epoch, 1);
        match reg.pin(Some(0)) {
            Err(ServeError::EpochReclaimed { requested, oldest }) => {
                assert_eq!((requested, oldest), (0, 1));
            }
            other => panic!("expected EpochReclaimed, got {other:?}"),
        }
        assert!(matches!(reg.pin(Some(9)), Err(ServeError::Protocol(_))));
        // A pinned Arc outlives reclamation: readers on epoch 1 keep
        // their snapshot even after two more publishes push it off.
        let pinned = reg.pin(Some(1)).unwrap();
        reg.publish(state(3, &[])).unwrap();
        reg.publish(state(4, &[])).unwrap();
        assert_eq!(pinned.epoch, 1);
        assert_eq!(
            pinned.relation(edge()).unwrap().len(),
            2,
            "pinned snapshot unchanged"
        );
    }
}
