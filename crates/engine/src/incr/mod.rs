//! Incremental maintenance: transactional EDB updates that bring a
//! materialized fixpoint to the post-transaction state without
//! re-evaluating from scratch.
//!
//! The subsystem layers three pieces over the flat-storage engine, and
//! every one of them runs its joins on the one rule executor
//! ([`Evaluator`]) as plans prepared once per maintained program:
//!
//! 1. **Transactions** — [`Tx`] batches inserts and deletes per
//!    predicate; [`Database::apply`] applies one *in place* and reports
//!    the effective [`TxDelta`]: the tuples actually added/removed and,
//!    per relation, the append watermark and the ids of the rows it
//!    tombstoned — which doubles as the undo log [`Database::undo`]
//!    replays (cut the appends, *then* revive the rows).
//! 2. **Delta propagation** — [`Materialized`] keeps the fixpoint of a
//!    program materialized across transactions, maintained in place
//!    under the same kind of log. Deletes run DRed as delta rules (see
//!    [`mod@dred`]): over-deletion reads the pre-transaction state and
//!    only collects doomed rows; once the transaction is applied they
//!    are tombstoned and the survivors re-derived. Then the inserted EDB
//!    rows and the re-derived IDB rows seed a semi-naive run whose first
//!    round scans only the delta ([`Evaluator::from_prepared`]). An
//!    insert-only transaction is the same path with nothing doomed.
//!    Programs with negation or arithmetic builtins fall back to a
//!    governed from-scratch re-evaluation — transparently, with the same
//!    transactional contract.
//! 3. **IC monitoring** — [`IcCheck`] compiles a constraint into denial
//!    rules (see [`mod@icheck`]) whose full plan answers
//!    [`Database::violations`] and whose delta variants re-check a
//!    constraint that held against the transaction's delta only, for the
//!    optimizer's residue-guarded route invalidation (`semrec-core`'s
//!    `MaintainedQuery`).
//!
//! Every phase respects the resource governor: the over-deletion,
//! re-derivation and IC runs answer to the deadline and cancel token,
//! the propagation run to the whole budget, and any error (budget trip,
//! cancellation, injected fault) undoes what the transaction did so
//! far, leaving the database and the materialization holding exactly
//! the tuples they held before — `tests/fault_injection.rs` asserts
//! commit-or-rollback under seeded schedules of the `incr.*` failpoints.
//! Nothing is cloned and nothing is compacted per transaction: after a
//! commit a relation compacts itself only if its dead rows outnumber its
//! live ones ([`Relation::compact_if_sparse`]). [`UpdateStats::stats`]
//! sums the work counters of every run one transaction made.

mod dred;
mod icheck;

pub use icheck::IcCheck;

use crate::database::Database;
use crate::error::EngineError;
use crate::eval::{Evaluator, Prepared, Strategy};
use crate::fxhash::FxHashMap;
use crate::governor::{Budget, CancelToken};
use crate::relation::{Relation, Tuple};
use crate::stats::Stats;
use dred::Dred;
use semrec_datalog::atom::{Atom, Pred};
use semrec_datalog::literal::Literal;
use semrec_datalog::program::Program;
use semrec_datalog::word;
use std::collections::BTreeMap;
use std::time::Instant;

/// A transactional batch of EDB changes: inserts and deletes grouped by
/// predicate. Deletes apply before inserts, so a tx that removes and
/// re-adds the same tuple nets to the tuple being present.
#[derive(Clone, Debug, Default)]
pub struct Tx {
    inserts: BTreeMap<Pred, Vec<Tuple>>,
    deletes: BTreeMap<Pred, Vec<Tuple>>,
}

impl Tx {
    /// An empty transaction.
    pub fn new() -> Tx {
        Tx::default()
    }

    /// Queues a tuple insert.
    pub fn insert(&mut self, pred: impl Into<Pred>, tuple: Tuple) {
        self.inserts.entry(pred.into()).or_default().push(tuple);
    }

    /// Queues a tuple delete.
    pub fn delete(&mut self, pred: impl Into<Pred>, tuple: Tuple) {
        self.deletes.entry(pred.into()).or_default().push(tuple);
    }

    /// Queues inserting a ground atom.
    ///
    /// # Panics
    /// Panics if the atom is not ground.
    pub fn insert_atom(&mut self, atom: &Atom) {
        self.insert(atom.pred, ground_tuple(atom));
    }

    /// Queues deleting a ground atom.
    ///
    /// # Panics
    /// Panics if the atom is not ground.
    pub fn delete_atom(&mut self, atom: &Atom) {
        self.delete(atom.pred, ground_tuple(atom));
    }

    /// True if the transaction queues no changes.
    pub fn is_empty(&self) -> bool {
        self.inserts.is_empty() && self.deletes.is_empty()
    }

    /// Number of queued operations (inserts + deletes).
    pub fn len(&self) -> usize {
        self.inserts.values().map(Vec::len).sum::<usize>()
            + self.deletes.values().map(Vec::len).sum::<usize>()
    }

    /// The queued inserts, per predicate.
    pub fn inserts(&self) -> &BTreeMap<Pred, Vec<Tuple>> {
        &self.inserts
    }

    /// The queued deletes, per predicate.
    pub fn deletes(&self) -> &BTreeMap<Pred, Vec<Tuple>> {
        &self.deletes
    }
}

fn ground_tuple(atom: &Atom) -> Tuple {
    atom.args
        .iter()
        .map(|t| t.as_const().expect("tx fact must be ground"))
        .collect()
}

/// The *effective* changes one applied [`Tx`] made: inserts that were
/// actually new, deletes that actually hit, and — for the semi-naive
/// delta seeding and for [`Database::undo`] — each inserted-into
/// predicate's physical-row watermark from just before its inserts were
/// appended and the ids of the rows the deletes tombstoned.
#[derive(Clone, Debug, Default)]
pub struct TxDelta {
    /// Tuples newly added, per predicate (duplicates of existing rows
    /// are not listed).
    pub inserted: BTreeMap<Pred, Vec<Tuple>>,
    /// Tuples actually removed, per predicate.
    pub deleted: BTreeMap<Pred, Vec<Tuple>>,
    /// Per inserted-into predicate, the physical row count before the
    /// inserts: rows `[mark, len)` are the predicate's delta.
    pub edb_marks: FxHashMap<Pred, u32>,
    /// The tombstoned row ids, parallel to `deleted`.
    pub dead_rows: BTreeMap<Pred, Vec<u32>>,
}

impl TxDelta {
    /// True if the transaction changed nothing.
    pub fn is_empty(&self) -> bool {
        self.inserted.is_empty() && self.deleted.is_empty()
    }
}

impl Database {
    /// Applies a transaction to this database: deletes first (tombstoned
    /// in place), then inserts (appended past each relation's recorded
    /// watermark). Returns the effective delta. Infallible — a caller
    /// whose later work fails hands the delta to [`Database::undo`].
    pub fn apply(&mut self, tx: &Tx) -> TxDelta {
        let mut delta = TxDelta::default();
        for (&p, ts) in &tx.deletes {
            let Some(rel) = self.get_mut(p) else {
                continue;
            };
            for t in ts {
                if let Some(row) = rel.delete_row(&word::encode(t)) {
                    delta.deleted.entry(p).or_default().push(t.clone());
                    delta.dead_rows.entry(p).or_default().push(row);
                }
            }
        }
        for (&p, ts) in &tx.inserts {
            let mark = self.get(p).map_or(0, |r| r.physical_rows() as u32);
            let mut any = false;
            for t in ts {
                if self.insert(p, t.clone()) {
                    delta.inserted.entry(p).or_default().push(t.clone());
                    any = true;
                }
            }
            if any {
                delta.edb_marks.insert(p, mark);
            }
        }
        delta
    }

    /// Exactly undoes the [`Database::apply`] call that returned `delta`
    /// (no other change may lie in between): every relation it appended
    /// to is truncated back to its watermark, *then* every row it
    /// tombstoned is revived — in that order, so a tuple the transaction
    /// deleted and re-inserted is never live twice. O(delta).
    pub fn undo(&mut self, delta: &TxDelta) {
        for (&p, &mark) in &delta.edb_marks {
            if let Some(rel) = self.get_mut(p) {
                rel.truncate(mark as usize);
            }
        }
        for (&p, rows) in &delta.dead_rows {
            let rel = self.get_mut(p).expect("deleted from a missing relation");
            rows.iter().for_each(|&r| rel.revive(r));
        }
    }
}

/// Arms a maintenance run with the deadline and cancel token of
/// `budget` and `cancel` only: the row, byte and iteration caps belong
/// to the propagation run.
pub(crate) fn governed<'db>(
    ev: Evaluator<'db>,
    budget: &Budget,
    cancel: Option<&CancelToken>,
) -> Evaluator<'db> {
    let ev = ev.with_budget(Budget {
        deadline: budget.deadline,
        ..Budget::unlimited()
    });
    match cancel {
        Some(c) => ev.with_cancel_token(c.clone()),
        None => ev,
    }
}

/// Counters for one applied transaction.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct UpdateStats {
    /// True when the update fell back to from-scratch re-evaluation
    /// (program uses negation or builtins).
    pub from_scratch: bool,
    /// IDB tuples tombstoned by DRed over-deletion.
    pub over_deleted: u64,
    /// Over-deleted tuples re-derived from surviving support.
    pub rederived: u64,
    /// IDB rows added by the propagation run (includes re-derivations
    /// it found transitively).
    pub idb_inserted: u64,
    /// Fixpoint rounds the propagation run took.
    pub rounds: u64,
    /// Wall-clock milliseconds for the whole update.
    pub elapsed_ms: u64,
    /// Work counters of every run the update made — over-deletion,
    /// re-derivation, propagation (or fallback re-evaluation), and the
    /// IC re-checks of a maintained query — summed: the same [`Stats`] a
    /// batch evaluation reports, covering the whole commit.
    pub stats: Stats,
}

/// A program's fixpoint kept materialized across transactions.
///
/// Owns the IDB relations, a [`Prepared`] plan cache and the DRed plans;
/// each [`Materialized::apply`] call brings the relations, in place, to
/// the post-transaction fixpoint by delta propagation (or governed
/// re-evaluation for programs outside the incremental fragment). The
/// EDB itself stays with the caller, who passes it mutably per
/// transaction.
pub struct Materialized {
    prepared: Prepared,
    /// Over-deletion and re-derivation plans; `None` when the program
    /// uses negation or arithmetic builtins: non-monotone (or
    /// non-enumerable) subgoals make delta propagation unsound, so every
    /// tx re-evaluates from scratch.
    dred: Option<Dred>,
    idb: BTreeMap<Pred, Relation>,
    /// Rounds of the initial batch evaluation (for reporting).
    initial_rounds: u64,
}

/// What [`Materialized::over_delete`] found for one transaction: the
/// materialized tuples its deletes doom, to be handed to
/// [`Materialized::apply_delta`] once the transaction is applied.
pub struct Doomed {
    /// The doomed tuples per IDB predicate: the rows to tombstone and the
    /// re-derivation run's seeds.
    tuples: BTreeMap<Pred, Relation>,
    /// Work counters of the over-deletion run.
    stats: Stats,
    /// When maintenance of the transaction began: the clock its
    /// deadline and `elapsed_ms` run on.
    start: Instant,
}

impl Doomed {
    /// Work counters of the over-deletion run.
    pub fn stats(&self) -> Stats {
        self.stats
    }
}

/// True if the program is in the incrementally maintainable fragment:
/// positive bodies (no negation) and no arithmetic builtins.
fn incremental_capable(program: &Program) -> bool {
    program.rules.iter().all(|r| {
        r.body.iter().all(|l| match l {
            Literal::Atom(a) => crate::builtins::BuiltinOp::of(a.pred).is_none(),
            Literal::Cmp(_) => true,
            Literal::Neg(_) => false,
        })
    })
}

impl Materialized {
    /// Evaluates `program` over `db` from scratch (semi-naive) and keeps
    /// the result materialized for incremental maintenance.
    pub fn new(db: &Database, program: &Program) -> Result<Materialized, EngineError> {
        let prepared = Prepared::compile(db, program, &[])?;
        let dred = match incremental_capable(program) {
            true => Some(Dred::compile(db, program)?),
            false => None,
        };
        let mut ev = Evaluator::new(db, program, Strategy::SemiNaive)?;
        ev.run()?;
        let initial_rounds = ev.rounds();
        let res = ev.finish();
        Ok(Materialized {
            prepared,
            dred,
            idb: res.idb,
            initial_rounds,
        })
    }

    /// The materialized IDB relations.
    pub fn idb(&self) -> &BTreeMap<Pred, Relation> {
        &self.idb
    }

    /// The materialized relation for `pred`, if the program defines it.
    pub fn relation(&self, pred: impl Into<Pred>) -> Option<&Relation> {
        self.idb.get(&pred.into())
    }

    /// The maintained program.
    pub fn program(&self) -> &Program {
        self.prepared.program()
    }

    /// True when transactions propagate incrementally; false when the
    /// program is outside the incremental fragment and every update
    /// re-evaluates from scratch.
    pub fn is_incremental(&self) -> bool {
        self.dred.is_some()
    }

    /// Rounds of the initial from-scratch evaluation.
    pub fn initial_rounds(&self) -> u64 {
        self.initial_rounds
    }

    /// Applies `tx` to `db` in place and brings the materialization to
    /// the post-transaction fixpoint. All-or-nothing: on any error
    /// (budget, cancellation, injected fault) both are undone and hold
    /// exactly the tuples they held before the call. The cost is
    /// proportional to the delta — what the transaction adds, removes
    /// and over-deletes — never to the database.
    pub fn apply(
        &mut self,
        db: &mut Database,
        tx: &Tx,
        budget: Budget,
        cancel: Option<CancelToken>,
    ) -> Result<UpdateStats, EngineError> {
        let doomed = self.over_delete(db, tx, budget, cancel.as_ref())?;
        let delta = db.apply(tx);
        match self.apply_delta(db, &delta, doomed, budget, cancel) {
            Ok(stats) => {
                db.compact_sparse();
                Ok(stats)
            }
            Err(e) => {
                db.undo(&delta);
                Err(e)
            }
        }
    }

    /// Phase 1 of a transaction, to run *before* `tx` is applied: DRed
    /// over-deletion over the pre-transaction `db` and materialization,
    /// collecting the rows `tx`'s deletes doom without touching them
    /// (the relations move into the run and come back unchanged). Empty
    /// — and free — for an insert-only transaction. Answers to the
    /// deadline and cancel token only; hits the `incr.delete` failpoint.
    pub fn over_delete(
        &mut self,
        db: &Database,
        tx: &Tx,
        budget: Budget,
        cancel: Option<&CancelToken>,
    ) -> Result<Doomed, EngineError> {
        let mut doomed = Doomed {
            tuples: BTreeMap::new(),
            stats: Stats::default(),
            start: Instant::now(),
        };
        let Some(dred) = &self.dred else {
            return Ok(doomed);
        };
        if tx.deletes().values().all(Vec::is_empty) {
            return Ok(doomed);
        }
        #[cfg(feature = "failpoints")]
        crate::failpoint::hit("incr.delete").map_err(EngineError::Io)?;
        (doomed.tuples, doomed.stats) =
            dred.over_delete(db, &mut self.idb, tx.deletes(), &budget, cancel)?;
        Ok(doomed)
    }

    /// The rest of the transaction: `db` now has `tx` applied (`delta`
    /// is what [`Database::apply`] returned) and `doomed` is what
    /// [`Materialized::over_delete`] found just before. Tombstones the
    /// doomed rows, re-derives the survivors and propagates the inserts,
    /// all in place; on any error the materialization is restored —
    /// appends cut, *then* doomed rows revived — and the *caller* owns
    /// undoing the database ([`Database::undo`]). Hits the
    /// `incr.rederive` failpoint once the doomed rows are tombstoned and
    /// `incr.propagate` once the survivors are re-appended.
    pub fn apply_delta(
        &mut self,
        db: &Database,
        delta: &TxDelta,
        doomed: Doomed,
        budget: Budget,
        cancel: Option<CancelToken>,
    ) -> Result<UpdateStats, EngineError> {
        let Doomed {
            tuples,
            stats,
            start,
        } = doomed;
        if self.dred.is_none() {
            return self.recompute(db, budget, cancel, start);
        }
        // The undo log: every relation's append watermark (tombstoning
        // moves none, so these are also where the propagation run's
        // delta begins) plus the doomed row ids, found by content.
        let marks: Vec<(Pred, usize)> = self
            .idb
            .iter()
            .map(|(&p, r)| (p, r.physical_rows()))
            .collect();
        let mut rows: BTreeMap<Pred, Vec<u32>> = BTreeMap::new();
        for (p, gone) in &tuples {
            let rel = self
                .idb
                .get_mut(p)
                .expect("doomed tuples name idb predicates");
            for t in gone.iter() {
                let r = rel.find(t).expect("over-deleted tuples are materialized");
                rel.delete_at(r);
                rows.entry(*p).or_default().push(r);
            }
        }
        let over_deleted = tuples.values().map(|t| t.len() as u64).sum();
        let run = self.rederive_and_propagate(db, delta, tuples, &marks, start, budget, cancel);
        match run {
            Ok(mut update) => {
                for rel in self.idb.values_mut() {
                    rel.compact_if_sparse();
                }
                update.over_deleted = over_deleted;
                update.stats += stats;
                Ok(update)
            }
            Err(e) => {
                // Relations the run created for previously-empty
                // predicates are not in the log: drop them.
                let mut run = std::mem::take(&mut self.idb);
                for (p, mark) in marks {
                    let mut rel = run.remove(&p).expect("the run keeps every relation");
                    rel.truncate(mark);
                    for &r in rows.get(&p).into_iter().flatten() {
                        rel.revive(r);
                    }
                    self.idb.insert(p, rel);
                }
                Err(e)
            }
        }
    }

    /// Phases 2 and 3 on the post-transaction state, appending only:
    /// DRed re-derivation of the (already tombstoned) `doomed` tuples,
    /// then semi-naive propagation seeded from the tx's inserted EDB
    /// rows and everything appended past `marks`, under whatever
    /// wall-clock remains of `budget` since over-deletion began.
    #[allow(clippy::too_many_arguments)]
    fn rederive_and_propagate(
        &mut self,
        db: &Database,
        delta: &TxDelta,
        doomed: BTreeMap<Pred, Relation>,
        marks: &[(Pred, usize)],
        start: Instant,
        mut budget: Budget,
        cancel: Option<CancelToken>,
    ) -> Result<UpdateStats, EngineError> {
        #[cfg(feature = "failpoints")]
        crate::failpoint::hit("incr.rederive").map_err(EngineError::Io)?;
        if let Some(d) = budget.deadline {
            let left = d.saturating_sub(start.elapsed());
            if left.is_zero() {
                return Err(EngineError::DeadlineExceeded {
                    elapsed_ms: start.elapsed().as_millis() as u64,
                });
            }
            budget.deadline = Some(left);
        }
        let (mut rederived, mut stats) = (0, Stats::default());
        if !doomed.is_empty() {
            let dred = self.dred.as_ref().expect("an incremental program");
            (rederived, stats) =
                dred.rederive(db, &mut self.idb, doomed, &budget, cancel.as_ref())?;
        }
        #[cfg(feature = "failpoints")]
        crate::failpoint::hit("incr.propagate").map_err(EngineError::Io)?;

        // The relations move into the run and always come back from it.
        let idb = std::mem::take(&mut self.idb);
        let mut ev = Evaluator::from_prepared(db, &self.prepared, idb, delta.edb_marks.clone())
            .with_budget(budget);
        if let Some(c) = cancel {
            ev = ev.with_cancel_token(c);
        }
        for &(p, mark) in marks {
            ev.set_idb_delta_start(p, mark as u32);
        }
        let run = ev.run();
        let rounds = ev.rounds();
        let res = ev.finish();
        self.idb = res.idb;
        run?;
        stats += res.stats;
        Ok(UpdateStats {
            from_scratch: false,
            over_deleted: 0,
            rederived,
            idb_inserted: res.stats.inserted,
            rounds,
            elapsed_ms: start.elapsed().as_millis() as u64,
            stats,
        })
    }

    /// Governed from-scratch re-evaluation over the post-tx database —
    /// the sound fallback for programs outside the incremental fragment.
    fn recompute(
        &mut self,
        post_db: &Database,
        budget: Budget,
        cancel: Option<CancelToken>,
        start: Instant,
    ) -> Result<UpdateStats, EngineError> {
        let mut ev = Evaluator::new(post_db, self.prepared.program(), Strategy::SemiNaive)?
            .with_budget(budget);
        if let Some(c) = cancel {
            ev = ev.with_cancel_token(c);
        }
        ev.run()?;
        let rounds = ev.rounds();
        let res = ev.finish();
        self.idb = res.idb;
        Ok(UpdateStats {
            from_scratch: true,
            over_deleted: 0,
            rederived: 0,
            idb_inserted: res.stats.inserted,
            rounds,
            elapsed_ms: start.elapsed().as_millis() as u64,
            stats: res.stats,
        })
    }
}

/// A typed transaction-stream parse error: which line was rejected and
/// why. Unlike a batch parse failure, a stream error condemns only the
/// transaction it occurred in — the parser stays usable for the next
/// transaction, which is what keeps a serving connection alive across a
/// client's malformed line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TxStreamError {
    /// 1-based line number within the stream.
    pub line: u64,
    /// What was wrong with the line.
    pub msg: String,
}

impl std::fmt::Display for TxStreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for TxStreamError {}

/// What one fed line did to the stream state.
#[derive(Clone, Debug)]
pub enum TxStreamEvent {
    /// The line queued an operation into (or was a comment within) the
    /// current transaction.
    Queued,
    /// The line was `commit.`: the finished transaction is handed out
    /// and the parser is reset for the next one. An empty transaction
    /// commits as `None` (nothing to apply).
    Committed(Option<Tx>),
}

/// An incremental `+fact./-fact./commit.` parser for transaction
/// *streams* — the serving daemon's write protocol, where lines arrive
/// one at a time over a long-lived connection and a malformed line must
/// reject **that transaction** with a typed error instead of tearing
/// down the stream (the batch-file behavior of [`parse_txs`]).
///
/// Error discipline: a malformed line returns its [`TxStreamError`]
/// immediately *and* poisons the in-progress transaction; subsequent
/// operation lines are swallowed (the transaction is already doomed)
/// and the eventual `commit.` returns the original error again — so a
/// pipelining client that missed the first rejection still sees a typed
/// failure at the commit it is waiting on. Either way the parser resets
/// and the next transaction parses cleanly.
#[derive(Debug, Default)]
pub struct TxStreamParser {
    cur: Tx,
    poisoned: Option<TxStreamError>,
    line: u64,
}

impl TxStreamParser {
    /// A fresh parser at line 0 with an empty transaction.
    pub fn new() -> TxStreamParser {
        TxStreamParser::default()
    }

    /// True when the in-progress transaction has been condemned by an
    /// earlier malformed line and will fail at its `commit.`.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.is_some()
    }

    /// Queued operation count of the in-progress transaction.
    pub fn pending_ops(&self) -> usize {
        self.cur.len()
    }

    /// Hands out the in-progress transaction (e.g. a trailing
    /// transaction at end of input), resetting the parser. Errors if
    /// the transaction was poisoned.
    pub fn take_pending(&mut self) -> Result<Option<Tx>, TxStreamError> {
        if let Some(e) = self.poisoned.take() {
            self.cur = Tx::new();
            return Err(e);
        }
        let cur = std::mem::take(&mut self.cur);
        Ok((!cur.is_empty()).then_some(cur))
    }

    /// Feeds one line. Blank lines and `%`/`#` comments are queued
    /// no-ops; `+fact(…).`/`-fact(…).` queue operations; `commit.`
    /// (or bare `commit`) completes the transaction.
    pub fn feed(&mut self, raw: &str) -> Result<TxStreamEvent, TxStreamError> {
        self.line += 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('%') || line.starts_with('#') {
            return Ok(TxStreamEvent::Queued);
        }
        if line == "commit." || line == "commit" {
            if let Some(e) = self.poisoned.take() {
                self.cur = Tx::new();
                return Err(e);
            }
            let cur = std::mem::take(&mut self.cur);
            return Ok(TxStreamEvent::Committed((!cur.is_empty()).then_some(cur)));
        }
        if self.poisoned.is_some() {
            // The tx is already condemned; swallow its remaining
            // operations so the error surfaces exactly at the commit.
            return Ok(TxStreamEvent::Queued);
        }
        match parse_tx_op(line) {
            Ok((insert, fact)) => {
                if insert {
                    self.cur.insert_atom(&fact);
                } else {
                    self.cur.delete_atom(&fact);
                }
                Ok(TxStreamEvent::Queued)
            }
            Err(msg) => {
                let err = TxStreamError {
                    line: self.line,
                    msg,
                };
                self.poisoned = Some(err.clone());
                Err(err)
            }
        }
    }
}

/// Parses one `+fact(…).` / `-fact(…).` operation line (already
/// trimmed, known not to be blank/comment/commit).
fn parse_tx_op(line: &str) -> Result<(bool, Atom), String> {
    let (insert, rest) = match (line.strip_prefix('+'), line.strip_prefix('-')) {
        (Some(r), _) => (true, r),
        (_, Some(r)) => (false, r),
        _ => return Err("expected `+fact(…).`, `-fact(…).`, or `commit.`".to_string()),
    };
    let unit = semrec_datalog::parser::parse_unit(rest.trim()).map_err(|e| e.to_string())?;
    if unit.facts.len() != 1
        || !unit.rules.is_empty()
        || !unit.constraints.is_empty()
        || !unit.facts[0].is_ground()
    {
        return Err("expected exactly one ground fact".to_string());
    }
    Ok((insert, unit.facts.into_iter().next().expect("checked len")))
}

/// Renders a transaction in the `+fact(…)./-fact(…)./commit.` line
/// format [`parse_txs`] accepts — the write-ahead log's record payload,
/// chosen over a binary encoding so a WAL is inspectable with `cat` and
/// replayable through the same parser the live stream uses. Deletes
/// render first, matching [`Database::apply`]'s application order.
pub fn tx_to_stream(tx: &Tx) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let mut emit = |sign: char, pred: &Pred, ts: &[Tuple]| {
        for t in ts {
            let _ = write!(s, "{sign}{pred}(");
            for (i, v) in t.iter().enumerate() {
                let _ = if i == 0 {
                    write!(s, "{v}")
                } else {
                    write!(s, ", {v}")
                };
            }
            s.push_str(").\n");
        }
    };
    for (p, ts) in &tx.deletes {
        emit('-', p, ts);
    }
    for (p, ts) in &tx.inserts {
        emit('+', p, ts);
    }
    s.push_str("commit.\n");
    s
}

/// Parses a transaction file: one operation per line — `+fact(…).` to
/// insert, `-fact(…).` to delete — with `commit.` lines separating
/// transactions (a trailing transaction without `commit.` is included).
/// Blank lines and lines starting with `%` or `#` are comments.
///
/// Batch semantics: the first malformed line fails the whole parse.
/// Stream consumers that must survive malformed input use
/// [`TxStreamParser`] directly.
pub fn parse_txs(src: &str) -> Result<Vec<Tx>, String> {
    let mut parser = TxStreamParser::new();
    let mut txs = Vec::new();
    for raw in src.lines() {
        match parser.feed(raw).map_err(|e| e.to_string())? {
            TxStreamEvent::Queued => {}
            TxStreamEvent::Committed(Some(tx)) => txs.push(tx),
            TxStreamEvent::Committed(None) => {}
        }
    }
    if let Some(tx) = parser.take_pending().map_err(|e| e.to_string())? {
        txs.push(tx);
    }
    Ok(txs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::int_tuple;
    use semrec_datalog::constraint::Constraint;
    use semrec_datalog::parser::parse_unit;

    fn db(facts: &str) -> Database {
        Database::from_facts(&parse_unit(facts).unwrap().facts)
    }

    fn program(src: &str) -> Program {
        parse_unit(src).unwrap().program()
    }

    fn eval_scratch(db: &Database, p: &Program) -> BTreeMap<Pred, Relation> {
        let mut ev = Evaluator::new(db, p, Strategy::SemiNaive).unwrap();
        ev.run().unwrap();
        ev.finish().idb
    }

    const TC: &str = "t(X, Y) :- e(X, Y). t(X, Y) :- e(X, Z), t(Z, Y).";

    /// The delta re-check of a constraint that held before `delta`.
    fn holds_after(post: &Database, delta: &TxDelta, ic: &Constraint) -> bool {
        let check = IcCheck::new(post, ic);
        let run = check.holds(post, Some(delta), &Budget::unlimited(), None);
        run.unwrap().0
    }

    #[test]
    fn insert_propagates_incrementally() {
        let mut d = db("e(1, 2). e(2, 3).");
        let p = program(TC);
        let mut m = Materialized::new(&d, &p).unwrap();
        assert!(m.is_incremental());
        let mut tx = Tx::new();
        tx.insert("e", int_tuple(&[3, 4]));
        let stats = m.apply(&mut d, &tx, Budget::unlimited(), None).unwrap();
        assert!(!stats.from_scratch);
        assert!(stats.idb_inserted > 0);
        assert_eq!(m.idb(), &eval_scratch(&d, &p));
        assert!(m.relation("t").unwrap().contains(&int_tuple(&[1, 4])));
    }

    #[test]
    fn delete_runs_dred_and_agrees_with_scratch() {
        let mut d = db("e(1, 2). e(2, 3). e(3, 4). e(1, 3).");
        let p = program(TC);
        let mut m = Materialized::new(&d, &p).unwrap();
        let mut tx = Tx::new();
        tx.delete("e", int_tuple(&[2, 3]));
        let stats = m.apply(&mut d, &tx, Budget::unlimited(), None).unwrap();
        assert!(stats.over_deleted > 0);
        // t(1,3) survives via e(1,3); t(1,4) is re-derived through it.
        assert_eq!(m.idb(), &eval_scratch(&d, &p));
        assert!(m.relation("t").unwrap().contains(&int_tuple(&[1, 4])));
        assert!(!m.relation("t").unwrap().contains(&int_tuple(&[2, 4])));
    }

    #[test]
    fn mixed_tx_nets_out() {
        let mut d = db("e(1, 2). e(2, 3).");
        let p = program(TC);
        let mut m = Materialized::new(&d, &p).unwrap();
        let mut tx = Tx::new();
        tx.delete("e", int_tuple(&[2, 3]));
        tx.insert("e", int_tuple(&[2, 4]));
        tx.insert("e", int_tuple(&[4, 3]));
        m.apply(&mut d, &tx, Budget::unlimited(), None).unwrap();
        assert_eq!(m.idb(), &eval_scratch(&d, &p));
        assert!(m.relation("t").unwrap().contains(&int_tuple(&[1, 3])));
    }

    #[test]
    fn delete_and_reinsert_same_tuple_is_net_noop() {
        let mut d = db("e(1, 2). e(2, 3).");
        let p = program(TC);
        let mut m = Materialized::new(&d, &p).unwrap();
        let before = eval_scratch(&d, &p);
        let mut tx = Tx::new();
        tx.delete("e", int_tuple(&[2, 3]));
        tx.insert("e", int_tuple(&[2, 3]));
        m.apply(&mut d, &tx, Budget::unlimited(), None).unwrap();
        assert_eq!(m.idb(), &before);
    }

    #[test]
    fn negation_falls_back_to_scratch() {
        let mut d = db("e(1, 2). v(1). v(2). v(3).");
        let p = program("r(X) :- e(_, X). u(X) :- v(X), !r(X).");
        let mut m = Materialized::new(&d, &p).unwrap();
        assert!(!m.is_incremental());
        let mut tx = Tx::new();
        tx.insert("e", int_tuple(&[2, 3]));
        let stats = m.apply(&mut d, &tx, Budget::unlimited(), None).unwrap();
        assert!(stats.from_scratch);
        assert_eq!(m.idb(), &eval_scratch(&d, &p));
        assert!(!m.relation("u").unwrap().contains(&int_tuple(&[3])));
    }

    #[test]
    fn delta_ic_check_matches_full_check() {
        let ics = semrec_datalog::parser::parse_constraints("ic: e(X, Y) -> w(Y).").unwrap();
        let mut d = db("e(1, 2). w(2). w(3).");
        assert!(d.satisfies(&ics[0]));
        let mut tx = Tx::new();
        tx.insert("e", int_tuple(&[2, 3]));
        let delta = d.apply(&tx);
        assert!(holds_after(&d, &delta, &ics[0]));
        let mut tx2 = Tx::new();
        tx2.insert("e", int_tuple(&[3, 9]));
        let delta2 = d.apply(&tx2);
        assert!(!holds_after(&d, &delta2, &ics[0]));
        assert!(!d.satisfies(&ics[0]));
    }

    #[test]
    fn delta_ic_check_catches_head_witness_deletion() {
        let ics = semrec_datalog::parser::parse_constraints("ic: e(X, Y) -> w(Y).").unwrap();
        let mut d = db("e(1, 2). w(2).");
        let mut tx = Tx::new();
        tx.delete("w", int_tuple(&[2]));
        let delta = d.apply(&tx);
        assert!(!holds_after(&d, &delta, &ics[0]));
    }

    #[test]
    fn delta_ic_check_of_a_head_that_never_holds_flags_every_new_binding() {
        // `e(X)` is no row of the binary `e`: the constraint holds only
        // while `e` is empty, and the first insert breaks it.
        let ics = semrec_datalog::parser::parse_constraints("ic: e(X, Y) -> e(X).").unwrap();
        let mut d = db("w(1).");
        assert!(d.satisfies(&ics[0]));
        let mut tx = Tx::new();
        tx.insert("e", int_tuple(&[1, 2]));
        let delta = d.apply(&tx);
        assert!(!holds_after(&d, &delta, &ics[0]));
        assert_eq!(d.violations(&ics[0]).len(), 1);
    }

    #[test]
    fn delta_ic_check_seeds_head_deletes_from_the_deleted_tuples() {
        let ics = semrec_datalog::parser::parse_constraints(
            "ic: e(X, Z) -> w(Z, W). ic: e(X, Z) -> v(Z, 7).",
        )
        .unwrap();
        let mut d = db("e(1, 2). e(5, 6). w(2, 10). w(2, 11). w(6, 12). w(9, 13).\
                        v(2, 7). v(6, 7). v(2, 8).");
        let mut violated = Vec::new();
        let mut still = |pred: &str, t: &[i64]| {
            let mut tx = Tx::new();
            tx.delete(pred, int_tuple(t));
            let delta = d.apply(&tx);
            assert_eq!(delta.dead_rows[&pred.into()].len(), 1);
            // The monitor's contract covers constraints that held.
            let held: Vec<_> = ics.iter().filter(|ic| !violated.contains(ic)).collect();
            let ok = held.iter().map(|ic| {
                let ok = holds_after(&d, &delta, ic);
                assert_eq!(ok, d.satisfies(ic), "{ic}");
                violated.extend((!ok).then_some(*ic));
                ok
            });
            ok.collect::<Vec<bool>>()
        };
        // No edge ends in 9; `W` is existential, so 2 keeps a witness;
        // v(2, 8) is no instance of the head v(Z, 7).
        assert_eq!(still("w", &[9, 13]), [true, true]);
        assert_eq!(still("w", &[2, 10]), [true, true]);
        assert_eq!(still("v", &[2, 8]), [true, true]);
        // The last witness of 2, and the only v(6, 7).
        assert_eq!(still("w", &[2, 11]), [false, true]);
        assert_eq!(still("v", &[6, 7]), [false]);
    }

    #[test]
    fn a_failed_apply_undoes_tombstones_and_appends_in_place() {
        const FACTS: &str = "e(1, 2). e(2, 3). e(3, 4). e(1, 3).";
        let mut d = db(FACTS);
        let p = program(TC);
        let mut m = Materialized::new(&d, &p).unwrap();
        let before = (db(FACTS), eval_scratch(&d, &p));
        // Deletes and re-inserts e(2, 3) beside growth the budget of 6
        // rows cannot hold: fails rounds into the propagation.
        let mut tx = Tx::new();
        tx.delete("e", int_tuple(&[2, 3]));
        tx.insert("e", int_tuple(&[2, 3]));
        tx.insert("e", int_tuple(&[4, 5]));
        let tight = Budget::unlimited().with_max_idb_rows(6);
        let err = m.apply(&mut d, &tx, tight, None).unwrap_err();
        assert!(matches!(err, EngineError::BudgetExceeded { .. }), "{err:?}");
        assert_eq!((&d, m.idb()), (&before.0, &before.1));
        for (_, rel) in d.iter().chain(m.idb().iter().map(|(&p, r)| (p, r))) {
            rel.check_invariant().unwrap();
            assert!(!rel.has_tombstones());
        }
        let stats = m.apply(&mut d, &tx, Budget::unlimited(), None).unwrap();
        assert!(stats.over_deleted > 0 && stats.rederived > 0);
        assert_eq!(m.idb(), &eval_scratch(&d, &p));
    }

    #[test]
    fn a_delete_only_commit_counts_the_work_of_every_run() {
        let mut d = db("e(1, 2). e(2, 3). e(3, 4). e(1, 3).");
        let mut m = Materialized::new(&d, &program(TC)).unwrap();
        let mut tx = Tx::new();
        tx.delete("e", int_tuple(&[2, 3]));
        let stats = m.apply(&mut d, &tx, Budget::unlimited(), None).unwrap();
        // Over-deletion and re-derivation probe; propagation alone
        // would not: nothing was inserted.
        assert!(stats.stats.probes > 0, "{:?}", stats.stats);
        assert!(stats.stats.iterations > stats.rounds, "{stats:?}");
    }

    #[test]
    fn parse_txs_roundtrip() {
        let txs = parse_txs("% a comment\n+e(1, 2).\n-e(3, 4).\ncommit.\n+w(5).\n").unwrap();
        assert_eq!(txs.len(), 2);
        assert_eq!(txs[0].len(), 2);
        assert_eq!(txs[1].len(), 1);
        assert!(parse_txs("e(1, 2).").is_err());
    }

    #[test]
    fn stream_parser_rejects_one_tx_and_recovers() {
        let mut p = TxStreamParser::new();
        assert!(matches!(p.feed("+e(1, 2)."), Ok(TxStreamEvent::Queued)));
        // Malformed line: immediate typed error, tx poisoned.
        let err = p.feed("garbage here").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(p.is_poisoned());
        // Later operations of the doomed tx are swallowed…
        assert!(matches!(p.feed("+e(2, 3)."), Ok(TxStreamEvent::Queued)));
        // …and the commit fails with the original error, then resets.
        let at_commit = p.feed("commit.").unwrap_err();
        assert_eq!(at_commit, err);
        assert!(!p.is_poisoned());
        // The next transaction parses cleanly — the stream survived.
        assert!(matches!(p.feed("+e(5, 6)."), Ok(TxStreamEvent::Queued)));
        match p.feed("commit.").unwrap() {
            TxStreamEvent::Committed(Some(tx)) => assert_eq!(tx.len(), 1),
            other => panic!("expected a committed tx, got {other:?}"),
        }
    }

    #[test]
    fn stream_parser_empty_commit_is_a_noop_commit() {
        let mut p = TxStreamParser::new();
        match p.feed("commit.").unwrap() {
            TxStreamEvent::Committed(None) => {}
            other => panic!("expected an empty commit, got {other:?}"),
        }
    }

    #[test]
    fn stream_parser_take_pending_surfaces_poison() {
        let mut p = TxStreamParser::new();
        p.feed("+e(1, 2).").unwrap();
        assert!(p.feed("nope").is_err());
        assert!(p.take_pending().is_err());
        // Reset after the error: a fresh trailing tx hands out fine.
        p.feed("+e(3, 4).").unwrap();
        assert_eq!(p.take_pending().unwrap().unwrap().len(), 1);
        assert!(p.take_pending().unwrap().is_none());
    }

    #[test]
    fn stream_parser_rejects_non_ground_and_multi_fact_lines() {
        for bad in [
            "+e(X, 2).",
            "+e(1, 2). e(3, 4).",
            "+r(X) :- e(X, _).",
            "e(1, 2).",
        ] {
            let mut p = TxStreamParser::new();
            assert!(p.feed(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn tx_to_stream_roundtrips_through_parse_txs() {
        let mut tx = Tx::new();
        tx.insert("e", int_tuple(&[1, 2]));
        tx.insert("w", vec![semrec_datalog::term::Value::str("hello world")]);
        tx.delete("e", int_tuple(&[3, 4]));
        let text = tx_to_stream(&tx);
        let txs = parse_txs(&text).unwrap();
        assert_eq!(txs.len(), 1);
        assert_eq!(txs[0].inserts(), tx.inserts());
        assert_eq!(txs[0].deletes(), tx.deletes());
    }
}
