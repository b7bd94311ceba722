//! The daemon core: one writer applying transactions through the
//! maintained incremental path, many readers answering against pinned
//! epoch snapshots.
//!
//! ## Commit ordering
//!
//! ```text
//! WAL append + fsync  →  MaintainedQuery::apply  →  epoch publish
//! ```
//!
//! * An append/fsync failure rejects the commit before anything is
//!   applied — the log rolls back to its pre-append length.
//! * An apply failure (budget trip, injected fault) truncates the
//!   just-written record back out of the log, so the WAL and the applied
//!   history stay byte-for-byte in step; `MaintainedQuery::apply` is
//!   itself atomic-on-error, so the in-memory state is untouched too.
//! * A publish failure (injected `snapshot.publish` fault) leaves the
//!   commit durable *and* applied but unpublished: the epoch id does not
//!   advance, and the next successful publish — whose successor is
//!   built from the last *published* epoch — subsumes it. Readers
//!   meanwhile keep answering at the last published epoch, which is a
//!   consistent (merely stale) snapshot.
//! * A crash between fsync and apply leaves the record in the log;
//!   replay re-applies it on restart. Restart state is *defined* as the
//!   serial replay of the surviving log, so this is convergent, not a
//!   divergence.
//!
//! Readers take no part in any of this: a read pins an epoch `Arc` out
//! of the registry (a pointer clone under a briefly-held read lock) and
//! reads snapshots: watermarks over the row stores the writer keeps
//! appending to ([`crate::epoch`]). The writer's mutex is never on a
//! read path.

use crate::admission::{Admission, AdmissionConfig, Permit};
use crate::epoch::{EpochRegistry, EpochState};
use crate::error::ServeError;
use crate::protocol::{serve_session, Connection};
use crate::wal::Wal;
use semrec_core::{MaintainError, MaintainedQuery, OptimizerConfig};
use semrec_datalog::atom::{Atom, Pred};
use semrec_datalog::parser::Unit;
use semrec_datalog::word::{self, Word};
use semrec_engine::eval::answer_goal_rows_polled;
use semrec_engine::{
    tx_to_stream, Budget, Database, Relation, Route, Snapshot, Tuple, Tx, UpdateStats,
};
use std::collections::{BTreeMap, VecDeque};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Optimizer configuration for the maintained plan.
    pub optimizer: OptimizerConfig,
    /// Admission gate configuration.
    pub admission: AdmissionConfig,
    /// How many published epochs stay pinnable (at least 1).
    pub retain_epochs: usize,
    /// Budget applied to each transaction's maintenance work.
    pub write_budget: Budget,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            optimizer: OptimizerConfig::default(),
            admission: AdmissionConfig::default(),
            retain_epochs: 8,
            write_budget: Budget::unlimited(),
        }
    }
}

/// What [`Server::open`] recovered before going live.
#[derive(Clone, Copy, Debug, Default)]
pub struct RecoveryReport {
    /// Committed transactions replayed from the WAL.
    pub replayed_commits: usize,
    /// Byte offset a torn trailing WAL record was truncated back to,
    /// if one was found.
    pub truncated_tail: Option<u64>,
    /// The epoch the daemon starts serving at (the replayed commit
    /// count; epochs are process-local).
    pub epoch: u64,
}

/// One answered query, by reference: the matching rows as sorted ids
/// into the pinned epoch's snapshot of the relation. This is what the
/// wire path renders from; nothing is copied until someone asks for
/// tuples ([`Server::query`]).
#[derive(Clone, Debug)]
pub struct Answer {
    /// The epoch the answer is exact at.
    pub epoch: u64,
    /// The route that materialized the relations at that epoch.
    pub route: Route,
    /// The pinned snapshot `ids` index, kept alive for as long as the
    /// answer is; `None` when the predicate has no relation at that
    /// epoch (the answer is then empty).
    rel: Option<Arc<Snapshot>>,
    /// Physical row ids of the matching tuples, sorted by row content.
    ids: Vec<u32>,
}

/// How far [`Answer::rows`] prefetches ahead of the row it yields: far
/// enough to cover a memory round trip at a few tens of nanoseconds of
/// work per row, near enough to stay in the first-level cache.
const ROWS_PREFETCH_AHEAD: usize = 16;

impl Answer {
    /// Number of matching tuples.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when nothing matched.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The matching tuples in sorted order, as slices into the pinned
    /// snapshot. The rows of one answer lie scattered over the flat
    /// store, so the walk prefetches [`ROWS_PREFETCH_AHEAD`] rows in
    /// front of itself.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = &[Word]> {
        let rel = self.rel.as_deref();
        let ids = &self.ids;
        ids.iter().enumerate().map(move |(i, &id)| {
            let rel = rel.expect("an answer with rows pins their relation");
            debug_assert!(
                (id as usize) < rel.physical_rows(),
                "row id {id} outlived its snapshot ({} rows)",
                rel.physical_rows()
            );
            if let Some(&ahead) = ids.get(i + ROWS_PREFETCH_AHEAD) {
                rel.prefetch_row(ahead);
            }
            rel.row(id)
        })
    }
}

/// One answered query, as owned tuples.
#[derive(Clone, Debug)]
pub struct QueryReply {
    /// The epoch the answer is exact at.
    pub epoch: u64,
    /// The route that materialized the relations at that epoch.
    pub route: Route,
    /// Matching tuples, sorted.
    pub tuples: Vec<Tuple>,
}

/// One acknowledged commit.
#[derive(Clone, Debug)]
pub struct CommitReply {
    /// The newly published epoch.
    pub epoch: u64,
    /// The route answering queries from this epoch on.
    pub route: Route,
    /// Maintenance counters.
    pub stats: UpdateStats,
    /// Indices of monitored constraints violated after this commit
    /// (non-empty means the daemon degraded to the rectified route).
    pub violated: Vec<usize>,
    /// True when this commit re-consulted the cost planner (route
    /// transition or EDB drift past the replan threshold).
    pub replanned: bool,
}

/// A point-in-time counters snapshot ([`Server::stats`]).
#[derive(Clone, Copy, Debug)]
pub struct ServerStats {
    /// Commits acknowledged since startup (excluding replay).
    pub commits: u64,
    /// The newest published epoch.
    pub epoch: u64,
    /// The oldest still-pinnable epoch.
    pub oldest_epoch: u64,
    /// Requests admitted by the gate.
    pub admitted: u64,
    /// Requests shed with `Overloaded`.
    pub rejected: u64,
    /// Readers cancelled by the slow-reader watchdog.
    pub watchdog_cancelled: u64,
    /// Always 0: the daemon has no answer cache. Kept only because
    /// `benchmark/src/bin/layers.rs` reads it; the next change to
    /// `benchmark/` drops it.
    pub cache_hits: u64,
    /// Always 0, like [`ServerStats::cache_hits`] and for the same
    /// reason.
    pub cache_misses: u64,
    /// Commit batches processed (a lone commit is a batch of one).
    pub batches: u64,
    /// Transactions carried by those batches.
    pub batched_txs: u64,
    /// Bytes copied on behalf of epoch publication since startup:
    /// tombstone words a delete had to copy away from a published
    /// snapshot, rows the writer had to
    /// move because a published snapshot held the allocation they
    /// outgrew, and index entries readers appended to inherited
    /// indexes. O(delta) publication keeps this near the size of the
    /// commits; a per-commit clone would add the relation's size each
    /// time.
    pub publish_bytes: u64,
}

/// The single-writer state, held under one mutex so WAL append, apply,
/// and publish are a serial critical section.
struct WriterState {
    query: MaintainedQuery,
    wal: Option<Wal>,
    /// The epoch id the *next successful publish* will carry. Does not
    /// advance on a failed publish — the following publish subsumes.
    next_epoch: u64,
}

/// One queued transaction awaiting group commit: the transaction plus
/// the slot its acknowledgement lands in. Whichever writer drains the
/// queue (the batch *leader*) fills every slot; follower writers sleep
/// on the leadership condvar and find their result filled when the
/// leader hands off.
struct CommitSlot {
    tx: Tx,
    done: Mutex<Option<Result<CommitReply, ServeError>>>,
}

impl CommitSlot {
    fn new(tx: Tx) -> Arc<CommitSlot> {
        Arc::new(CommitSlot {
            tx,
            done: Mutex::new(None),
        })
    }

    fn fill(&self, result: Result<CommitReply, ServeError>) {
        *self.done.lock().expect("slot lock") = Some(result);
    }

    fn take(&self) -> Option<Result<CommitReply, ServeError>> {
        self.done.lock().expect("slot lock").take()
    }
}

/// The group-commit queue: transactions waiting for a leader, plus
/// whether a leader is currently processing a batch. Guarded by one
/// mutex whose condvar broadcasts leadership changes — followers wait
/// *here*, never on the writer mutex, so batch formation is bounded by
/// writer concurrency rather than by mutex handoff fairness.
struct BatchQueue {
    queue: VecDeque<Arc<CommitSlot>>,
    leader_active: bool,
}

/// The serving daemon: shared between connection handlers via `Arc`.
pub struct Server {
    writer: Mutex<WriterState>,
    registry: EpochRegistry,
    admission: Arc<Admission>,
    cfg: ServeConfig,
    commits: AtomicU64,
    /// Commits waiting for a batch leader; while a leader processes a
    /// batch, every arriving commit queues here and the leader's next
    /// successor sweeps them all into one maintenance pass.
    pending: Mutex<BatchQueue>,
    /// Broadcast on every leadership release; followers wait on it.
    leader_change: Condvar,
    batches: AtomicU64,
    batched_txs: AtomicU64,
    /// [`ServerStats::publish_bytes`], fed by every
    /// [`EpochState::cow_successor`] and by readers extending indexes.
    publish_bytes: Arc<AtomicU64>,
}

/// Every relation visible right now: EDB first, then the IDB
/// materialization (authoritative for derived predicates).
fn live_relations(q: &MaintainedQuery) -> Vec<(Pred, &Relation)> {
    let mut out: Vec<(Pred, &Relation)> = q.db().iter().collect();
    out.extend(q.idb().iter().map(|(&p, r)| (p, r)));
    out
}

impl Server {
    /// [`Server::start`] on the [`MaintainedQuery`] of `unit` under
    /// `cfg.optimizer`. An engine error of the initial materialization
    /// comes back as [`ServeError::Engine`], with its own exit code.
    pub fn open(
        unit: &Unit,
        cfg: ServeConfig,
        wal_path: Option<&Path>,
    ) -> Result<(Arc<Server>, RecoveryReport), ServeError> {
        let (db, config) = (Database::from_facts(&unit.facts), cfg.optimizer.clone());
        let query = MaintainedQuery::new(db, &unit.program(), &unit.constraints, config, 1)
            .map_err(|e| match e {
                MaintainError::Engine(e) => ServeError::Engine(e),
                e => ServeError::Io(format!("initial materialization: {e}")),
            })?;
        Server::start(query, cfg, wal_path)
    }

    /// Builds the daemon around `query`, the maintained materialization
    /// of a unit over its facts. With a WAL path, surviving log records
    /// are replayed through the same parser and apply path as live
    /// traffic before the first epoch is published, so the daemon resumes
    /// exactly where the acknowledged history left off.
    pub fn start(
        mut query: MaintainedQuery,
        cfg: ServeConfig,
        wal_path: Option<&Path>,
    ) -> Result<(Arc<Server>, RecoveryReport), ServeError> {
        let mut report = RecoveryReport::default();
        let wal = match wal_path {
            None => None,
            Some(path) => {
                let (wal, replay) = Wal::open(path)?;
                report.truncated_tail = replay.truncated_tail;
                for (i, record) in replay.records.iter().enumerate() {
                    let txs = semrec_engine::incr::parse_txs(record).map_err(|msg| {
                        ServeError::WalCorrupt {
                            offset: 0,
                            detail: format!("record {i} does not parse: {msg}"),
                        }
                    })?;
                    for tx in &txs {
                        query
                            .apply(tx, Budget::unlimited(), None)
                            .map_err(ServeError::Engine)?;
                        report.replayed_commits += 1;
                    }
                }
                Some(wal)
            }
        };

        report.epoch = report.replayed_commits as u64;
        let route = query.route();
        let seed = EpochState {
            epoch: 0,
            route,
            rels: BTreeMap::new(),
        };
        let publish_bytes = Arc::new(AtomicU64::new(0));
        let initial = seed.cow_successor(
            report.epoch,
            route,
            live_relations(&query).into_iter(),
            &publish_bytes,
        );
        let registry = EpochRegistry::new(initial, cfg.retain_epochs);
        let admission = Admission::new(cfg.admission);
        let server = Arc::new(Server {
            writer: Mutex::new(WriterState {
                query,
                wal,
                next_epoch: report.epoch + 1,
            }),
            registry,
            admission,
            cfg,
            commits: AtomicU64::new(0),
            pending: Mutex::new(BatchQueue {
                queue: VecDeque::new(),
                leader_active: false,
            }),
            leader_change: Condvar::new(),
            batches: AtomicU64::new(0),
            batched_txs: AtomicU64::new(0),
            publish_bytes,
        });
        Ok((server, report))
    }

    /// The daemon's configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// The admission gate (shared with the watchdog).
    pub fn admission(&self) -> &Arc<Admission> {
        &self.admission
    }

    /// The epoch registry.
    pub fn registry(&self) -> &EpochRegistry {
        &self.registry
    }

    /// Counters snapshot.
    pub fn stats(&self) -> ServerStats {
        ServerStats {
            commits: self.commits.load(Ordering::Relaxed),
            epoch: self.registry.latest().epoch,
            oldest_epoch: self.registry.oldest(),
            admitted: self.admission.admitted(),
            rejected: self.admission.rejected(),
            watchdog_cancelled: self.admission.watchdog_cancelled(),
            cache_hits: 0,
            cache_misses: 0,
            batches: self.batches.load(Ordering::Relaxed),
            batched_txs: self.batched_txs.load(Ordering::Relaxed),
            publish_bytes: self.publish_bytes.load(Ordering::Relaxed),
        }
    }

    /// Answers `goal` at epoch `at` (`None` = latest) under admission
    /// control: the request may be shed with `Overloaded`, cancelled by
    /// the watchdog (surfacing `EpochReclaimed`), or cut off by its
    /// deadline — and otherwise returns exactly the pinned epoch's
    /// matching rows, sorted, as ids into that epoch's snapshot.
    ///
    /// Every read takes one path: pin the epoch, route bound goal
    /// arguments through the snapshot's dictionary index (all-free
    /// goals scan), sort the ids by row content. The ids are paired
    /// with the very `Arc<Snapshot>` they were read from.
    pub fn query_rows(
        &self,
        goal: &Atom,
        at: Option<u64>,
        deadline: Option<Duration>,
    ) -> Result<Answer, ServeError> {
        let permit = self.admission.admit(deadline)?;
        #[cfg(feature = "failpoints")]
        semrec_engine::failpoint::hit("serve.reader")
            .map_err(|m| ServeError::Io(format!("reader: {m}")))?;
        let state = self.registry.pin(at)?;
        let rel = state.relation(goal.pred).cloned();
        let ids = match &rel {
            Some(rel) => self.answer(&state, rel, goal, &permit)?,
            None => Vec::new(),
        };
        Ok(Answer {
            epoch: state.epoch,
            route: state.route,
            rel,
            ids,
        })
    }

    /// [`Server::query_rows`] with the answer copied out as owned
    /// tuples — the adapter for callers that outlive the snapshot or
    /// want to compare answers by value.
    pub fn query(
        &self,
        goal: &Atom,
        at: Option<u64>,
        deadline: Option<Duration>,
    ) -> Result<QueryReply, ServeError> {
        let answer = self.query_rows(goal, at, deadline)?;
        Ok(QueryReply {
            epoch: answer.epoch,
            route: answer.route,
            tuples: answer.rows().map(word::decode).collect(),
        })
    }

    /// The typed abort for a cancelled/expired read permit.
    fn read_aborted(&self, state: &EpochState, permit: &Permit) -> Option<ServeError> {
        if permit.cancel_token().is_cancelled() {
            return Some(if permit.was_reclaimed() {
                ServeError::EpochReclaimed {
                    requested: state.epoch,
                    oldest: self.registry.oldest(),
                }
            } else {
                ServeError::Engine(semrec_engine::EngineError::Cancelled)
            });
        }
        if permit.remaining() == Some(Duration::ZERO) {
            return Some(ServeError::Overloaded {
                inflight: 0,
                limit: self.admission.config().max_inflight,
                retry_after_ms: 1,
            });
        }
        None
    }

    /// Index-routed goal answering against the pinned snapshot: bound
    /// arguments probe the relation's dictionary index, all-free goals
    /// fall back to the scan inside [`answer_goal_rows_polled`], which
    /// polls cancellation and the deadline on its row cadence. The ids
    /// come back sorted by row content (rows of a relation are distinct,
    /// so the order is total).
    fn answer(
        &self,
        state: &EpochState,
        rel: &Snapshot,
        goal: &Atom,
        permit: &Permit,
    ) -> Result<Vec<u32>, ServeError> {
        let mut ids =
            answer_goal_rows_polled(rel, goal, |_| match self.read_aborted(state, permit) {
                Some(e) => Err(e),
                None => Ok(()),
            })?;
        // The rows lie scattered over the store: request them all up
        // front so the sort's first pass overlaps its cache misses.
        for &id in &ids {
            rel.prefetch_row(id);
        }
        ids.sort_unstable_by(|&a, &b| rel.row(a).cmp(rel.row(b)));
        Ok(ids)
    }

    /// Applies one transaction through the full commit pipeline: WAL
    /// append + fsync, maintained apply, epoch publish.
    /// Serialized with other writers; never blocked by readers.
    ///
    /// Concurrent callers are group-committed: each enqueues its
    /// transaction; the first to see no active leader elects itself and
    /// sweeps the whole queue into **one** maintenance pass — one WAL
    /// fsync window, one apply sweep, one epoch publication — filling
    /// per-transaction acknowledgement slots, while the rest sleep on
    /// the leadership condvar (never on the writer mutex, whose unfair
    /// handoff would otherwise cap batches at two and starve waiters).
    /// A lone caller simply leads a batch of one.
    pub fn commit(&self, tx: &Tx) -> Result<CommitReply, ServeError> {
        let slot = CommitSlot::new(tx.clone());
        let mut q = self.pending.lock().expect("pending lock");
        q.queue.push_back(Arc::clone(&slot));
        loop {
            // A leader that drained our slot fills it before releasing
            // leadership, so this check (under the pending lock) never
            // races a fill.
            if let Some(result) = slot.take() {
                return result;
            }
            if !q.leader_active {
                q.leader_active = true;
                let batch: Vec<Arc<CommitSlot>> = q.queue.drain(..).collect();
                drop(q);
                let mut ws = self.writer.lock().expect("writer lock poisoned");
                self.process_batch(&mut ws, &batch);
                drop(ws);
                self.pending.lock().expect("pending lock").leader_active = false;
                self.leader_change.notify_all();
                return slot.take().expect("leader's slot filled by its own batch");
            }
            q = self.leader_change.wait(q).expect("pending lock");
        }
    }

    /// Commits `txs` as one explicit batch (one fsync window, one
    /// publish, one epoch), returning per-transaction acknowledgements
    /// in order. The deterministic entry point the fault suite
    /// (`tests/serve_faults.rs`) uses; [`Server::commit`] reaches the
    /// same pipeline through the concurrent queue.
    pub fn commit_many(&self, txs: &[Tx]) -> Vec<Result<CommitReply, ServeError>> {
        let slots: Vec<Arc<CommitSlot>> =
            txs.iter().map(|tx| CommitSlot::new(tx.clone())).collect();
        let mut ws = self.writer.lock().expect("writer lock poisoned");
        self.process_batch(&mut ws, &slots);
        drop(ws);
        slots
            .iter()
            .map(|s| s.take().expect("batch filled every slot"))
            .collect()
    }

    /// The group-commit pipeline. Per-transaction atomicity holds
    /// throughout: a transaction whose WAL append or apply fails is
    /// *condemned* — it alone gets its error, its record is kept out of
    /// the durable log, and `MaintainedQuery::apply`'s atomic-on-error
    /// guarantee keeps it out of memory — while the rest of the batch
    /// commits normally. Acknowledgements are written only after the
    /// batch's final fsync, so the acknowledged set is always a durable
    /// prefix-consistent subset of the log.
    fn process_batch(&self, ws: &mut WriterState, batch: &[Arc<CommitSlot>]) {
        if batch.is_empty() {
            return;
        }
        let batch_start = ws.wal.as_ref().map(Wal::len);

        // Phase A: append every record, fsyncing nothing yet. An append
        // failure (injected `wal.append` fault, real I/O error) condemns
        // only its own transaction — the partial frame is scrubbed and
        // the next record starts on a clean boundary.
        let mut condemned: Vec<Option<ServeError>> = vec![None; batch.len()];
        let mut payloads: Vec<String> = Vec::with_capacity(batch.len());
        for (i, slot) in batch.iter().enumerate() {
            let payload = tx_to_stream(&slot.tx);
            if let Some(wal) = ws.wal.as_mut() {
                if let Err(e) = wal.append_record(&payload) {
                    condemned[i] = Some(e);
                }
            }
            payloads.push(payload);
        }

        // Phase B: one fsync for the whole batch. On failure nothing
        // has been applied, so rejecting every transaction keeps the
        // acknowledged history exactly equal to the applied history;
        // the log is truncated back to the batch start.
        if let Some(wal) = ws.wal.as_mut() {
            if let Err(e) = wal.sync() {
                if let Some(start) = batch_start {
                    wal.rollback_to(start);
                }
                for slot in batch {
                    slot.fill(Err(e.clone()));
                }
                self.batches.fetch_add(1, Ordering::Relaxed);
                self.batched_txs
                    .fetch_add(batch.len() as u64, Ordering::Relaxed);
                return;
            }
        }

        // Phase C: apply the surviving transactions in queue order.
        // `MaintainedQuery::apply` is atomic-on-error, so a failed apply
        // condemns its transaction without touching the shared state.
        let mut outcomes: Vec<Option<semrec_core::UpdateOutcome>> = vec![None; batch.len()];
        let mut rewrite = false;
        for (i, slot) in batch.iter().enumerate() {
            if condemned[i].is_some() {
                continue;
            }
            match ws.query.apply(&slot.tx, self.cfg.write_budget, None) {
                Ok(o) => outcomes[i] = Some(o),
                Err(e) => {
                    condemned[i] = Some(ServeError::Engine(e));
                    // Its record is durable but must not replay.
                    rewrite = true;
                }
            }
        }

        // Phase D: when an already-durable record was condemned in
        // phase C, rewrite the batch's log tail to exactly the applied
        // set and re-sync, restoring WAL == applied history before any
        // acknowledgement. If the rewrite itself fails the log poisons
        // (refusing later commits) and the whole batch — survivors
        // included — is answered with the error: like a failed publish,
        // a commit may end up applied-but-errored, but never
        // acknowledged-and-lost.
        if rewrite {
            if let (Some(wal), Some(start)) = (ws.wal.as_mut(), batch_start) {
                wal.rollback_to(start);
                let mut rewrite_failed = None;
                for (i, payload) in payloads.iter().enumerate() {
                    if condemned[i].is_none() {
                        if let Err(e) = wal.append_record(payload) {
                            rewrite_failed = Some(e);
                            break;
                        }
                    }
                }
                if rewrite_failed.is_none() {
                    rewrite_failed = wal.sync().err();
                }
                if let Some(e) = rewrite_failed {
                    for (i, slot) in batch.iter().enumerate() {
                        slot.fill(Err(condemned[i].take().unwrap_or_else(|| e.clone())));
                    }
                    self.batches.fetch_add(1, Ordering::Relaxed);
                    self.batched_txs
                        .fetch_add(batch.len() as u64, Ordering::Relaxed);
                    return;
                }
            }
        }

        // Phase E: one publication for the whole batch; every committed
        // transaction shares the new epoch. A publish failure leaves
        // the batch durable and applied but errored — the next
        // successful publish, whose successor is built from the last
        // *published* epoch, subsumes it.
        let applied_any = outcomes.iter().any(Option::is_some);
        let mut publish_err = None;
        let mut epoch = self.registry.latest().epoch;
        if applied_any {
            epoch = ws.next_epoch;
            let route = ws.query.route();
            let prev = self.registry.latest();
            let successor = prev.cow_successor(
                epoch,
                route,
                live_relations(&ws.query).into_iter(),
                &self.publish_bytes,
            );
            match self.registry.publish(successor) {
                Ok(_) => ws.next_epoch = epoch + 1,
                Err(e) => publish_err = Some(e),
            }
        }

        for (i, slot) in batch.iter().enumerate() {
            if let Some(e) = condemned[i].take() {
                slot.fill(Err(e));
            } else if let Some(e) = &publish_err {
                slot.fill(Err(e.clone()));
            } else if let Some(outcome) = outcomes[i].take() {
                self.commits.fetch_add(1, Ordering::Relaxed);
                slot.fill(Ok(CommitReply {
                    epoch,
                    route: outcome.route,
                    stats: outcome.stats,
                    violated: outcome.violated,
                    replanned: outcome.replanned,
                }));
            } else {
                // No WAL, no apply — unreachable, but fail safe.
                slot.fill(Err(ServeError::Io("batch slot unprocessed".to_string())));
            }
        }
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batched_txs
            .fetch_add(batch.len() as u64, Ordering::Relaxed);
    }

    /// Spawns the slow-reader watchdog thread, sweeping at half the
    /// configured threshold. No-op (returns `None`) when the watchdog
    /// is disabled. The thread exits when the server is dropped.
    pub fn spawn_watchdog(self: &Arc<Self>) -> Option<std::thread::JoinHandle<()>> {
        let after = self.cfg.admission.watchdog_after?;
        let weak = Arc::downgrade(self);
        let interval = (after / 2).max(Duration::from_millis(1));
        Some(std::thread::spawn(move || {
            while let Some(server) = weak.upgrade() {
                server.admission.reap_slow(after);
                drop(server);
                std::thread::sleep(interval);
            }
        }))
    }

    /// Serves connections from a TCP listener, one thread per
    /// connection, until accept fails. Each accepted stream gets
    /// `TCP_NODELAY` and one paced [`serve_session`]. The `serve.accept`
    /// failpoint drops the affected connection; the daemon keeps
    /// accepting.
    pub fn serve_listener(
        self: &Arc<Self>,
        listener: &std::net::TcpListener,
    ) -> std::io::Result<()> {
        loop {
            let (stream, _) = listener.accept()?;
            #[cfg(feature = "failpoints")]
            if semrec_engine::failpoint::hit("serve.accept").is_err() {
                drop(stream);
                continue;
            }
            let server = Arc::clone(self);
            std::thread::spawn(move || {
                // A session that cannot be set up or whose peer went
                // away just ends; the daemon is unaffected.
                let Ok(read_half) = stream.set_nodelay(true).and_then(|()| stream.try_clone())
                else {
                    return;
                };
                let mut conn = Connection::paced(server);
                let _ = serve_session(&mut conn, std::io::BufReader::new(read_half), stream);
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semrec_datalog::parser::{parse_atom, parse_unit};
    use semrec_engine::int_tuple;

    fn chain_unit() -> Unit {
        parse_unit(
            "reach(X, Y) :- edge(X, Y).\n\
             reach(X, Y) :- edge(X, Z), reach(Z, Y).\n\
             edge(1, 2). edge(2, 3).",
        )
        .expect("parse")
    }

    #[test]
    fn readers_pin_their_epoch_across_commits() {
        let (server, report) = Server::open(&chain_unit(), ServeConfig::default(), None).unwrap();
        assert_eq!(report.epoch, 0);
        let goal = parse_atom("reach(1, Y)").unwrap();
        let r0 = server.query(&goal, None, None).unwrap();
        assert_eq!(r0.epoch, 0);
        assert_eq!(r0.tuples, vec![int_tuple(&[1, 2]), int_tuple(&[1, 3])]);

        let mut tx = Tx::new();
        tx.insert("edge", int_tuple(&[3, 4]));
        let c = server.commit(&tx).unwrap();
        assert_eq!(c.epoch, 1);

        // Latest sees the new fact; epoch 0 still answers as before.
        let r1 = server.query(&goal, None, None).unwrap();
        assert_eq!(r1.epoch, 1);
        assert!(r1.tuples.contains(&int_tuple(&[1, 4])));
        let r0_again = server.query(&goal, Some(0), None).unwrap();
        assert_eq!(r0_again.tuples, r0.tuples);
    }

    #[test]
    fn wal_replay_reconverges_after_restart() {
        let mut path = std::env::temp_dir();
        path.push(format!("semrec-serve-test-{}.wal", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let goal = parse_atom("reach(1, Y)").unwrap();
        let expect;
        {
            let (server, _) =
                Server::open(&chain_unit(), ServeConfig::default(), Some(&path)).unwrap();
            let mut tx = Tx::new();
            tx.insert("edge", int_tuple(&[3, 4]));
            server.commit(&tx).unwrap();
            let mut tx = Tx::new();
            tx.delete("edge", int_tuple(&[1, 2]));
            server.commit(&tx).unwrap();
            expect = server.query(&goal, None, None).unwrap().tuples;
        }
        let (server, report) =
            Server::open(&chain_unit(), ServeConfig::default(), Some(&path)).unwrap();
        assert_eq!(report.replayed_commits, 2);
        assert_eq!(report.epoch, 2);
        let got = server.query(&goal, None, None).unwrap();
        assert_eq!(got.tuples, expect, "replayed state == pre-restart state");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn query_on_missing_predicate_is_empty_not_error() {
        let (server, _) = Server::open(&chain_unit(), ServeConfig::default(), None).unwrap();
        let goal = parse_atom("nosuch(X)").unwrap();
        assert!(server.query(&goal, None, None).unwrap().tuples.is_empty());
    }
}
