//! Bottom-up semi-naive fixpoint evaluation.
//!
//! The evaluator exposes a round-at-a-time [`Evaluator::step`] API in
//! addition to [`Evaluator::run`], so that the evaluation-based semantic
//! optimization baseline (Chakravarthy et al. / Lee & Han style, built in
//! `semrec-core`) can interpose per-iteration work — exactly the run-time
//! overhead the paper's program-transformation approach avoids.
//!
//! ## Execution model
//!
//! A round has one driver, on the calling thread: every scheduled plan
//! (the full variants on a stratum's first round, the delta variants
//! after) runs as a task that appends its derived head tuples to one
//! flat [`DerivedBuf`]; the drain then dedups that buffer into the IDB
//! relations with the hashes computed at derivation time, and the delta
//! windows advance. Evaluation is single-threaded on purpose — see
//! DESIGN.md, "Why evaluation is single-threaded".

use crate::database::Database;
use crate::error::EngineError;
use crate::fxhash::{hash_slice, FxHashMap};
use crate::governor::{Budget, CancelToken, Governor, POLL_MASK};
use crate::plan::{
    compile_rule_with_sizes, BatchKernel, CompiledRule, KernelGuard, KernelNeg, KernelProbe,
    KernelSrc, View,
};
use crate::relation::{CodeMap, ProbeHandle, Relation, RowRange, Snapshot, Tuple};
use crate::stats::Stats;
use semrec_datalog::atom::{Atom, Pred};
use semrec_datalog::program::Program;
use semrec_datalog::term::{Term, Value};
use std::collections::{BTreeMap, BTreeSet};

/// Fixpoint strategy. One variant: the naive reference lives in
/// `tests/common/naive.rs`, and the parameter survives only because
/// `benchmark/src/bin/layers.rs` names it (benchmark/README.md, *Frozen
/// surfaces (b)*).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Strategy {
    /// Classic semi-naive differentiation with one delta variant per IDB
    /// subgoal occurrence.
    SemiNaive,
}

/// Which evaluation route produced an [`EvalResult`]. Plain evaluation
/// always reports [`Route::Direct`]; the governed optimizing runner in
/// `semrec-core` overwrites this to record whether the semantically
/// optimized program answered or the degradation policy fell back to
/// the rectified program.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Route {
    /// The program was evaluated as given.
    #[default]
    Direct,
    /// The semantically optimized (residue-pruned) program answered.
    Optimized,
    /// The optimized route failed or exhausted its budget slice; the
    /// rectified program answered under the remaining budget.
    RectifiedFallback,
    /// An incremental maintenance pass (delta-insert and/or DRed) updated
    /// the optimized program's materialization in place — the monitored
    /// integrity constraints still hold.
    IncrementalOptimized,
    /// An update violated an integrity constraint the optimizer had
    /// relied on: the optimized materialization was invalidated and the
    /// answer re-derived from the rectified program.
    IncrementalInvalidated,
}

/// The result of an evaluation: materialized IDB relations plus counters.
#[derive(Debug)]
pub struct EvalResult {
    /// Materialized IDB relations.
    pub idb: BTreeMap<Pred, Relation>,
    /// Work counters.
    pub stats: Stats,
    /// Which evaluation route produced these relations.
    pub route: Route,
    /// The cost planner's verdict, when the route was chosen by cost
    /// (the governed runner in `semrec-core`); `None` for plain
    /// evaluation.
    pub choice: Option<crate::cost::RouteChoice>,
}

impl EvalResult {
    /// The relation computed for `pred` (empty-slot `None` if never defined).
    pub fn relation(&self, pred: impl Into<Pred>) -> Option<&Relation> {
        self.idb.get(&pred.into())
    }

    /// Answers to a goal atom: tuples of the goal predicate matching the
    /// goal's constants (and repeated-variable equalities). Bound goal
    /// arguments route through a dictionary index ([`answer_goal`] on
    /// an O(1) [`Relation::snapshot`]) instead of filtering a full scan.
    pub fn answers(&self, goal: &Atom) -> Vec<Tuple> {
        let Some(rel) = self.idb.get(&goal.pred) else {
            return Vec::new();
        };
        answer_goal(&rel.snapshot(), goal)
    }
}

/// True if `row` matches the constants and repeated variables of `goal`.
///
/// Allocation-free: instead of building a binding map per row, a repeated
/// variable is checked against the row value at its *first* occurrence
/// (equality with the first occurrence is transitively equality with all).
/// Goal arities are tiny, so the quadratic scan over earlier argument
/// positions is cheaper than any map.
pub fn goal_matches(goal: &Atom, row: &[Value]) -> bool {
    if goal.args.len() != row.len() {
        return false;
    }
    for (i, t) in goal.args.iter().enumerate() {
        match t {
            Term::Const(c) => {
                if *c != row[i] {
                    return false;
                }
            }
            Term::Var(x) => {
                let first = goal.args[..i]
                    .iter()
                    .position(|u| matches!(u, Term::Var(y) if y == x));
                if let Some(j) = first {
                    if row[j] != row[i] {
                        return false;
                    }
                }
            }
        }
    }
    true
}

/// The binding pattern of a query goal, classified for index routing:
/// bound (constant) argument positions with their key values, plus
/// whether residual per-row checks remain after an index probe on the
/// bound columns (repeated variables impose equalities the dictionary
/// index cannot express).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct GoalBindings {
    /// Argument positions carrying a constant, ascending.
    pub cols: Vec<usize>,
    /// The constants at those positions, parallel to `cols`.
    pub key: Vec<Value>,
    /// True when some variable occurs more than once: probe hits must
    /// still be verified with [`goal_matches`].
    pub residual: bool,
}

impl GoalBindings {
    /// True when no argument is bound — only a scan can answer.
    pub fn all_free(&self) -> bool {
        self.cols.is_empty()
    }
}

/// Classifies `goal`'s arguments into the bound-column key an index
/// probe can route and the residual equalities it cannot.
pub fn goal_bindings(goal: &Atom) -> GoalBindings {
    let mut b = GoalBindings::default();
    for (i, t) in goal.args.iter().enumerate() {
        match t {
            Term::Const(c) => {
                b.cols.push(i);
                b.key.push(*c);
            }
            Term::Var(x) => {
                if goal.args[..i]
                    .iter()
                    .any(|u| matches!(u, Term::Var(y) if y == x))
                {
                    b.residual = true;
                }
            }
        }
    }
    b
}

/// How often [`answer_goal_polled`] invokes its poll callback while
/// walking rows (scan fallback and large probe groups alike).
const ANSWER_POLL_EVERY: usize = 1024;

/// Walks the rows of `snap` that answer `goal`, handing each physical
/// row id to `emit`, routing bound arguments through the dictionary
/// index instead of scanning:
///
/// * **some arguments bound** — one [`Snapshot::probe_into`] on the
///   bound columns (building or extending the lineage's index on first
///   use; later queries pay one dictionary lookup plus the matching row
///   group), residual repeated-variable equalities verified per hit;
/// * **all arguments bound** — [`Snapshot::find`]: an index probe plus a
///   row comparison (a snapshot carries no membership table);
/// * **all free** — the scan fallback, filtering only when repeated
///   variables demand it.
///
/// Rows are emitted in physical-row (insertion) order, exactly like the
/// scan the probe replaces. `poll` runs every [`ANSWER_POLL_EVERY`]
/// examined rows with the count of rows walked so far; returning an
/// error aborts the answer (the serving daemon maps this onto its
/// cancellation and deadline checks).
fn for_each_answer_row<E>(
    snap: &Snapshot,
    goal: &Atom,
    mut poll: impl FnMut(usize) -> Result<(), E>,
    mut emit: impl FnMut(u32),
) -> Result<(), E> {
    if goal.args.len() != snap.arity() {
        return Ok(());
    }
    let b = goal_bindings(goal);
    // All bound: the goal names one exact tuple (no variables, so no
    // residual equalities are possible).
    if !b.cols.is_empty() && b.cols.len() == snap.arity() {
        if let Some(r) = snap.find(&b.key) {
            emit(r);
        }
        return Ok(());
    }
    if b.all_free() {
        // Scan fallback: nothing for an index to grab.
        for (i, (r, row)) in snap.iter().enumerate() {
            if i % ANSWER_POLL_EVERY == 0 {
                poll(i)?;
            }
            if !b.residual || goal_matches(goal, row) {
                emit(r);
            }
        }
        return Ok(());
    }
    // Bound columns: one dictionary probe; group rows already match the
    // key, so only watermark/tombstone filtering (done by probe_into)
    // and residual equalities remain.
    let mut rows = Vec::new();
    snap.probe_into(&b.cols, &b.key, &mut rows);
    for (i, &r) in rows.iter().enumerate() {
        if i % ANSWER_POLL_EVERY == 0 {
            poll(i)?;
        }
        if !b.residual || goal_matches(goal, snap.row(r)) {
            emit(r);
        }
    }
    Ok(())
}

/// Answers a goal atom against one relation state as materialized
/// tuples, one pass over the rows [`for_each_answer_row`] selects (see
/// there for the routing, the order and the `poll` contract).
pub fn answer_goal_polled<E>(
    snap: &Snapshot,
    goal: &Atom,
    poll: impl FnMut(usize) -> Result<(), E>,
) -> Result<Vec<Tuple>, E> {
    let mut out = Vec::new();
    for_each_answer_row(snap, goal, poll, |r| out.push(snap.row(r).to_vec()))?;
    Ok(out)
}

/// [`answer_goal_polled`] without the copies: the answer as physical
/// row ids into `snap`, in the same order. An id is only meaningful
/// against the relation state it was read from — the serving daemon
/// keeps ids beside the `Arc<Snapshot>` they index and keys its cache
/// by that snapshot's stamp.
pub fn answer_goal_rows_polled<E>(
    snap: &Snapshot,
    goal: &Atom,
    poll: impl FnMut(usize) -> Result<(), E>,
) -> Result<Vec<u32>, E> {
    let mut out = Vec::new();
    for_each_answer_row(snap, goal, poll, |r| out.push(r))?;
    Ok(out)
}

/// [`answer_goal_polled`] without interruption: the shared goal-answering
/// entry point for one-shot evaluation, magic-sets answer extraction,
/// and maintained queries, which take their O(1) [`Relation::snapshot`]
/// at the call.
pub fn answer_goal(snap: &Snapshot, goal: &Atom) -> Vec<Tuple> {
    match answer_goal_polled::<std::convert::Infallible>(snap, goal, |_| Ok(())) {
        Ok(v) => v,
        Err(e) => match e {},
    }
}

/// One run of consecutive same-predicate tuples in a [`DerivedBuf`]:
/// rows `[row_start, next run's row_start)` (or to the buffer's end),
/// laid out back to back from `data_start` with `arity` values each.
#[derive(Clone, Copy, Debug)]
struct DerivedRun {
    pred: Pred,
    row_start: u32,
    data_start: u32,
    arity: u32,
}

/// Flat buffer of derived head tuples: one `Vec<Value>` shared by every
/// tuple a round derives, instead of one heap allocation per tuple. Each
/// tuple's FxHash is computed once at derivation time and carried along,
/// so the drain's dedup probe and final insertion reuse it.
/// Tasks emit rule-at-a-time, so tuples form long single-predicate runs;
/// recording one [`DerivedRun`] per run instead of a `(pred, start,
/// end)` entry per tuple keeps the steady-state emission cost at the 40
/// bytes of data+hash.
#[derive(Default, Debug)]
pub(crate) struct DerivedBuf {
    /// Non-empty runs, in emission order.
    runs: Vec<DerivedRun>,
    /// `hashes[i]` is the content hash of the `i`-th tuple.
    hashes: Vec<u64>,
    data: Vec<Value>,
}

impl DerivedBuf {
    /// Books one row whose `arity` values were just appended to `data`,
    /// extending the current run or opening a new one.
    #[inline]
    fn note_row(&mut self, pred: Pred, arity: u32, h: u64) {
        let run = matches!(self.runs.last(), Some(r) if r.pred == pred && r.arity == arity);
        if !run {
            self.runs.push(DerivedRun {
                pred,
                row_start: self.hashes.len() as u32,
                data_start: self.data.len() as u32 - arity,
                arity,
            });
        }
        self.hashes.push(h);
    }

    /// Appends a head tuple: values stream straight into the buffer and
    /// are hashed in place.
    #[inline]
    fn push(&mut self, pred: Pred, vals: impl Iterator<Item = Value>) {
        let start = self.data.len();
        self.data.extend(vals);
        let arity = (self.data.len() - start) as u32;
        let h = hash_slice(&self.data[start..]);
        self.note_row(pred, arity, h);
    }

    /// [`DerivedBuf::push`] for a row already materialized in a caller
    /// buffer: one hash, one slice copy, no staging iterator.
    #[inline]
    fn push_row(&mut self, pred: Pred, row: &[Value]) {
        self.push_prehashed(pred, row, hash_slice(row));
    }

    /// [`DerivedBuf::push_row`] with the content hash already known
    /// (e.g. a stored row re-emitted verbatim).
    #[inline]
    fn push_prehashed(&mut self, pred: Pred, row: &[Value], h: u64) {
        debug_assert_eq!(h, hash_slice(row), "stale row hash");
        self.data.extend_from_slice(row);
        self.note_row(pred, row.len() as u32, h);
    }

    /// Empties the buffer, keeping every allocation for reuse.
    fn clear(&mut self) {
        self.runs.clear();
        self.hashes.clear();
        self.data.clear();
    }
}

#[derive(Clone)]
struct RulePlans {
    full: CompiledRule,
    /// One variant per delta-capable body literal, scheduled on
    /// non-fresh rounds. In batch mode that means an IDB subgoal; in
    /// incremental mode EDB subgoals are delta-capable too (they seed
    /// rounds from the tx).
    deltas: Vec<CompiledRule>,
}

/// Per probe-depth key→code memo for one compiled plan variant.
///
/// The batch pipeline resolves each sort-group's probe key to a dense
/// dictionary code through [`ProbeHandle::encode`] — one random access
/// into the relation's [`CodeMap`] per group. For *static* relations
/// (EDB predicates never change mid-fixpoint outside incremental mode)
/// the resolution is identical every round, so the evaluator caches
/// positive resolutions here and replays them without touching the
/// dictionary. Invalidation is by relation generation: `gen` records
/// the probed relation's [`Relation::generation`] counter when the
/// memo was filled, and any mismatch (an incremental transaction
/// mutated the EDB — including truncate/reinsert sequences that leave
/// the row count unchanged) clears the memo wholesale before the task
/// runs. Cached codes are re-verified against live dictionary key
/// storage on every hit ([`ProbeHandle::code_key`]), so a stale code
/// can never alias a different key — the generation check keeps the
/// memo from accumulating dead entries and is what lets the serving
/// layer carry memos across published epochs soundly.
#[derive(Clone)]
struct DepthMemo {
    /// Cached key→code resolutions, keyed by the same full key hash
    /// the dictionary itself uses.
    map: CodeMap,
    /// The probed relation's mutation counter when `map` was last
    /// (in)validated; a mismatch clears. `u64::MAX` initially, so
    /// the first use always stamps.
    gen: u64,
    /// True when this depth probes a non-IDB (EDB) relation. IDB
    /// dictionaries grow almost every round, which would clear the
    /// memo before it ever hits, so only EDB depths are armed.
    edb: bool,
}

/// Kernel memos for one rule's plan variants, parallel to
/// [`RulePlans`]: one [`DepthMemo`] per probe depth of each variant's
/// [`BatchKernel`].
#[derive(Clone, Default)]
struct RuleMemos {
    full: Vec<DepthMemo>,
    deltas: Vec<Vec<DepthMemo>>,
}

/// A program compiled once for incremental evaluation and reusable
/// across transactions: rule plans (full + delta variants, with EDB
/// subgoals delta-capable), strata, and arities. Keyed by the caller on
/// (program, strata) identity — the incremental maintenance layer
/// builds one `Prepared` per maintained program and hands it to
/// [`Evaluator::from_prepared`] for every transaction, skipping rule
/// compilation on the per-update hot path.
#[derive(Clone)]
pub struct Prepared {
    program: Program,
    idb_preds: BTreeSet<Pred>,
    plans: Vec<RulePlans>,
    rule_stratum: Vec<usize>,
    max_stratum: usize,
    arities: BTreeMap<Pred, usize>,
}

impl Prepared {
    /// Compiles `program` against `db` in incremental mode. The database
    /// is used only for join-order size estimates; the plans stay valid
    /// as the EDB evolves.
    pub fn compile(db: &Database, program: &Program) -> Result<Prepared, EngineError> {
        let arities = program.arities().map_err(EngineError::ArityMismatch)?;
        let mut ev = Evaluator::bare(db);
        ev.incremental = true;
        ev.set_program(program)?;
        Ok(Prepared {
            program: ev.program,
            idb_preds: ev.idb_preds,
            plans: ev.plans,
            rule_stratum: ev.rule_stratum,
            max_stratum: ev.max_stratum,
            arities,
        })
    }

    /// Highest stratum in the prepared program (0 ⇔ negation-free).
    /// Incremental propagation is only sound at stratum 0; callers fall
    /// back to batch evaluation otherwise.
    pub fn max_stratum(&self) -> usize {
        self.max_stratum
    }

    /// The prepared program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The IDB predicates (head predicates plus any preloaded ones).
    pub fn idb_preds(&self) -> &BTreeSet<Pred> {
        &self.idb_preds
    }

    /// Declared arity of every predicate in the program.
    pub fn arities(&self) -> &BTreeMap<Pred, usize> {
        &self.arities
    }
}

/// A resumable fixpoint evaluator over a fixed EDB.
pub struct Evaluator<'db> {
    db: &'db Database,
    program: Program,
    idb_preds: BTreeSet<Pred>,
    idb: FxHashMap<Pred, Relation>,
    /// Per IDB predicate: `(old_end, total_end)`; delta is the range
    /// between them, rows beyond `total_end` were derived this round.
    marks: FxHashMap<Pred, (u32, u32)>,
    plans: Vec<RulePlans>,
    /// Stratum of each rule (by head predicate).
    rule_stratum: Vec<usize>,
    /// Highest stratum present.
    max_stratum: usize,
    /// The stratum currently being saturated.
    current_stratum: usize,
    /// True when the current stratum has not run its initializing
    /// full-plan round yet.
    stratum_fresh: bool,
    stats: Stats,
    round: u64,
    max_iterations: u64,
    /// Resource limits for this evaluation (default: unlimited).
    budget: Budget,
    /// External cancellation, when the caller attached a token.
    cancel: Option<CancelToken>,
    /// Armed on the first [`Evaluator::step`] when a deadline or cancel
    /// token needs cooperative checks; `None` keeps the hot-path poll a
    /// single `Option` discriminant test.
    gov: Option<Governor>,
    /// Incremental mode: EDB subgoals become delta-capable and resolve
    /// their old/delta views through `edb_marks` instead of the full row
    /// range. Entered via [`Evaluator::new_incremental`] /
    /// [`Evaluator::from_prepared`]; batch construction leaves it off
    /// and nothing on the batch path changes.
    incremental: bool,
    /// Per EDB predicate, the physical-row watermark separating pre-tx
    /// rows (`[0, mark)` = Old) from rows the current transaction
    /// appended (`[mark, len)` = Delta). Predicates absent from the map
    /// have an empty delta. Drained (mark := len) after each round so
    /// later rounds see the post-tx EDB as Old.
    edb_marks: FxHashMap<Pred, u32>,
    /// The unit seed: a nullary relation holding the one empty row, the
    /// seed of every kernel whose `seed_pred` is `None`.
    unit: Relation,
    /// The round's persistent output buffer: cleared (capacity kept)
    /// after each drain, so a many-round fixpoint with small deltas — a
    /// long chain derives a few hundred rows per round — pays its
    /// emission-buffer growth once, not once per round.
    round_buf: DerivedBuf,
    /// EDB-stable key→code memos, parallel to `plans` (one entry per
    /// probe depth of each plan variant's kernel; see [`DepthMemo`]).
    /// Each round threads the scheduled plan's memo through
    /// [`run_kernel`].
    memos: Vec<RuleMemos>,
}

impl<'db> Evaluator<'db> {
    /// Builds an evaluator; compiles every rule.
    pub fn new(
        db: &'db Database,
        program: &Program,
        _strategy: Strategy,
    ) -> Result<Evaluator<'db>, EngineError> {
        let mut ev = Evaluator::bare(db);
        ev.set_program(program)?;
        Ok(ev)
    }

    /// An evaluator over `db` with no program yet.
    fn bare(db: &'db Database) -> Evaluator<'db> {
        let mut unit = Relation::new(0);
        unit.insert(Vec::new());
        Evaluator {
            db,
            program: Program::default(),
            idb_preds: BTreeSet::new(),
            idb: FxHashMap::default(),
            marks: FxHashMap::default(),
            plans: Vec::new(),
            rule_stratum: Vec::new(),
            max_stratum: 0,
            current_stratum: 0,
            stratum_fresh: true,
            stats: Stats::default(),
            round: 0,
            max_iterations: u64::MAX,
            budget: Budget::unlimited(),
            cancel: None,
            gov: None,
            incremental: false,
            edb_marks: FxHashMap::default(),
            unit,
            round_buf: DerivedBuf::default(),
            memos: Vec::new(),
        }
    }

    /// Builds an *incremental* evaluator: `idb` is a previously
    /// materialized fixpoint of `program` over the pre-transaction EDB,
    /// and `edb_marks` records, per EDB predicate, the physical row
    /// watermark below which rows predate the transaction. Running this
    /// evaluator to fixpoint performs semi-naive delta-insert
    /// propagation: the first round is seeded from the EDB rows at or
    /// above their watermark (plus any preloaded IDB rows beyond
    /// `preloaded_old`, see [`Evaluator::from_prepared`]) rather than
    /// from the whole database, and EDB watermarks drain after each
    /// round.
    ///
    /// Only sound for positive programs (a stratified program's higher
    /// strata would need full re-evaluation under changed lower strata);
    /// construction fails with [`EngineError::NotStratified`]-free
    /// programs only, and callers must check [`Prepared::max_stratum`]
    /// or fall back to batch evaluation when negation is present.
    ///
    /// Preloaded relations may carry tombstones: marks are physical-row
    /// watermarks and every scan and probe skips dead rows.
    ///
    /// # Panics
    /// In debug builds, panics if the program has more than one stratum.
    pub fn new_incremental(
        db: &'db Database,
        program: &Program,
        idb: impl IntoIterator<Item = (Pred, Relation)>,
        edb_marks: FxHashMap<Pred, u32>,
    ) -> Result<Evaluator<'db>, EngineError> {
        let mut ev = Evaluator::bare(db);
        ev.incremental = true;
        ev.edb_marks = edb_marks;
        ev.preload(idb);
        ev.set_program(program)?;
        debug_assert_eq!(
            ev.max_stratum, 0,
            "incremental mode requires a positive program"
        );
        ev.stratum_fresh = false;
        Ok(ev)
    }

    /// Like [`Evaluator::new_incremental`], but reuses the compiled
    /// plans of a [`Prepared`] program instead of recompiling — the
    /// prepared-plan cache path for repeated transactions against the
    /// same program. Infallible, so a caller that moved its relations
    /// in always gets them back from [`Evaluator::finish`].
    pub fn from_prepared(
        db: &'db Database,
        prepared: &Prepared,
        idb: impl IntoIterator<Item = (Pred, Relation)>,
        edb_marks: FxHashMap<Pred, u32>,
    ) -> Evaluator<'db> {
        let mut ev = Evaluator::bare(db);
        ev.incremental = true;
        ev.edb_marks = edb_marks;
        ev.preload(idb);
        debug_assert_eq!(
            prepared.max_stratum, 0,
            "incremental mode requires a positive program"
        );
        ev.program = prepared.program.clone();
        ev.idb_preds = prepared.idb_preds.clone();
        ev.plans = prepared.plans.clone();
        ev.rule_stratum = prepared.rule_stratum.clone();
        ev.max_stratum = prepared.max_stratum;
        ev.build_memos();
        for (&p, &n) in &prepared.arities {
            if ev.idb_preds.contains(&p) {
                ev.idb.entry(p).or_insert_with(|| Relation::new(n));
                ev.marks.entry(p).or_insert((0, 0));
            }
        }
        ev.stratum_fresh = false;
        ev
    }

    /// Adopts previously materialized IDB relations, marking every row
    /// as Old (rows a caller appended *after* recording `preloaded_old`
    /// become the first round's IDB delta — the DRed rederivation path
    /// uses this to propagate re-inserted tuples).
    fn preload(&mut self, idb: impl IntoIterator<Item = (Pred, Relation)>) {
        for (p, rel) in idb {
            let end = rel.physical_rows() as u32;
            self.marks.insert(p, (end, end));
            self.idb.insert(p, rel);
        }
    }

    /// Rewinds the preloaded-Old watermark of `pred` to `old_end`: rows
    /// `[old_end, len)` become the first round's delta for that IDB
    /// predicate. Used by the DRed pass to propagate tuples it
    /// re-inserted after over-deletion.
    pub fn set_idb_delta_start(&mut self, pred: Pred, old_end: u32) {
        if let Some(rel) = self.idb.get(&pred) {
            let total = rel.physical_rows() as u32;
            self.marks.insert(pred, (old_end.min(total), total));
        }
    }

    /// Caps the number of fixpoint rounds (default: unlimited).
    pub fn with_max_iterations(mut self, n: u64) -> Self {
        self.max_iterations = n;
        self
    }

    /// Applies a resource [`Budget`]. Row, byte and iteration caps are
    /// enforced at round boundaries; a deadline is also checked
    /// cooperatively inside scan loops, so it can interrupt a round in
    /// flight. An aborted round's partial derivations are discarded —
    /// the IDB stays exactly as the last completed round left it.
    pub fn with_budget(mut self, budget: Budget) -> Self {
        if let Some(n) = budget.max_iterations {
            self.max_iterations = n;
        }
        self.budget = budget;
        self
    }

    /// Attaches a [`CancelToken`]: calling
    /// [`cancel`](CancelToken::cancel) on any clone of `token` makes the
    /// evaluation return [`EngineError::Cancelled`] at its next
    /// cooperative check, mid-round included.
    pub fn with_cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// No-op: evaluation is single-threaded. Kept only because
    /// `benchmark/src/bin/layers.rs` calls it (benchmark/README.md,
    /// *Frozen surfaces (b)*); the next benchmark issue drops it.
    pub fn with_parallelism(self, _n: usize) -> Self {
        self
    }

    /// Replaces the program mid-evaluation, keeping derived IDB facts.
    /// Used by the evaluation-based optimization baseline, which rewrites
    /// the rule set between rounds.
    pub fn set_program(&mut self, program: &Program) -> Result<(), EngineError> {
        let arities = program.arities().map_err(EngineError::ArityMismatch)?;
        let mut idb_preds = program.idb_preds();
        idb_preds.extend(self.idb.keys().copied());
        for (&p, &n) in &arities {
            if idb_preds.contains(&p) {
                self.idb.entry(p).or_insert_with(|| Relation::new(n));
                self.marks.entry(p).or_insert((0, 0));
            }
        }
        // Relation sizes for join ordering: EDB sizes are known; IDB
        // relations use their current size (0 before the first round) but
        // are never preferred over a known-small EDB relation on ties —
        // mark them unknown instead.
        let mut sizes: BTreeMap<Pred, usize> = BTreeMap::new();
        for (p, rel) in self.db.iter() {
            sizes.insert(p, rel.len());
        }
        for p in &idb_preds {
            sizes.remove(p);
        }
        // Delta-capable body positions: IDB subgoals always; in
        // incremental mode every non-builtin subgoal, so transaction-
        // inserted EDB rows can seed the first round's delta plans
        // (derived from the program, not the current EDB contents — a
        // tx may insert into a predicate that is empty today). EDB
        // deltas drain after one round (see `step`), so the extra
        // variants are idle from round 2 on.
        let incremental = self.incremental;
        let delta_capable = |a: &Atom| {
            idb_preds.contains(&a.pred)
                || (incremental && crate::builtins::BuiltinOp::of(a.pred).is_none())
        };
        let mut plans = Vec::with_capacity(program.len());
        for rule in &program.rules {
            let idb_lits: Vec<usize> = rule
                .body
                .iter()
                .enumerate()
                .filter(|(_, l)| l.as_atom().is_some_and(&delta_capable))
                .map(|(i, _)| i)
                .collect();
            // Negated IDB subgoals read the Total view of their (strictly
            // lower) stratum, which is complete by the time this rule runs.
            let neg_idb: Vec<usize> = rule
                .body
                .iter()
                .enumerate()
                .filter(|(_, l)| l.as_neg().is_some_and(|a| idb_preds.contains(&a.pred)))
                .map(|(i, _)| i)
                .collect();
            let mut views: BTreeMap<usize, View> = BTreeMap::new();
            for &li in &idb_lits {
                views.insert(li, View::Total);
            }
            for &li in &neg_idb {
                views.insert(li, View::Total);
            }
            let full = compile_rule_with_sizes(rule, &views, None, &sizes)?;
            let mut deltas = Vec::new();
            for (k, &li) in idb_lits.iter().enumerate() {
                let mut v = BTreeMap::new();
                for (j, &lj) in idb_lits.iter().enumerate() {
                    v.insert(
                        lj,
                        match j.cmp(&k) {
                            std::cmp::Ordering::Less => View::Total,
                            std::cmp::Ordering::Equal => View::Delta,
                            std::cmp::Ordering::Greater => View::Old,
                        },
                    );
                }
                for &lj in &neg_idb {
                    v.insert(lj, View::Total);
                }
                deltas.push(compile_rule_with_sizes(rule, &v, Some(li), &sizes)?);
            }
            plans.push(RulePlans { full, deltas });
        }
        let strata = stratify(program, &idb_preds)?;
        self.rule_stratum = program
            .rules
            .iter()
            .map(|r| strata.get(&r.head.pred).copied().unwrap_or(0))
            .collect();
        self.max_stratum = self.rule_stratum.iter().copied().max().unwrap_or(0);
        self.current_stratum = self.current_stratum.min(self.max_stratum);
        self.program = program.clone();
        self.idb_preds = idb_preds;
        self.plans = plans;
        self.build_memos();
        Ok(())
    }

    /// (Re)derives the kernel memo table from the current plans: one
    /// [`DepthMemo`] per probe depth of each variant's kernel, armed
    /// only for EDB depths. Called whenever `plans` is replaced — both
    /// [`set_program`](Evaluator::set_program) and the prepared-plan
    /// copy in [`Evaluator::from_prepared`].
    fn build_memos(&mut self) {
        let depth_memos = |rule: &CompiledRule| -> Vec<DepthMemo> {
            let memo = |p: &KernelProbe| DepthMemo {
                map: CodeMap::default(),
                gen: u64::MAX,
                edb: !self.idb_preds.contains(&p.pred),
            };
            rule.kernel.probes.iter().map(memo).collect()
        };
        let memos = self
            .plans
            .iter()
            .map(|rp| RuleMemos {
                full: depth_memos(&rp.full),
                deltas: rp.deltas.iter().map(depth_memos).collect(),
            })
            .collect();
        self.memos = memos;
    }

    /// The current (partial) contents of an IDB relation.
    pub fn idb_relation(&self, pred: Pred) -> Option<&Relation> {
        self.idb.get(&pred)
    }

    /// Number of completed rounds.
    pub fn rounds(&self) -> u64 {
        self.round
    }

    /// Stats accumulated so far.
    pub fn stats(&self) -> Stats {
        self.stats
    }

    /// Runs fixpoint rounds until some new fact is derived or every
    /// stratum is saturated. Returns `true` if any new fact was derived
    /// (callers loop on this; see [`Evaluator::run`]).
    pub fn step(&mut self) -> Result<bool, EngineError> {
        if self.gov.is_none() && (self.budget.deadline.is_some() || self.cancel.is_some()) {
            self.gov = Some(Governor::new(
                &self.budget,
                self.cancel.clone().unwrap_or_default(),
            ));
        }
        loop {
            if let Some(g) = &self.gov {
                if g.should_abort() {
                    return Err(g.reason().unwrap_or(EngineError::Cancelled));
                }
            }
            #[cfg(feature = "failpoints")]
            crate::failpoint::hit("eval.round").map_err(EngineError::Io)?;
            if self.round >= self.max_iterations {
                return Err(EngineError::IterationLimit(self.max_iterations as usize));
            }
            self.round += 1;
            let fresh = self.stratum_fresh;
            self.stratum_fresh = false;

            let mut stats = std::mem::take(&mut self.stats);
            stats.iterations += 1;
            // The evaluator-owned output buffer and kernel memos are
            // taken out for the round (their field borrows would
            // conflict with `execute_task`'s `&self`) and restored after.
            let mut buf = std::mem::take(&mut self.round_buf);
            let mut memos = std::mem::take(&mut self.memos);
            let mut completed = true;
            for (ri, (rp, rm)) in self.plans.iter().zip(&mut memos).enumerate() {
                if self.rule_stratum[ri] != self.current_stratum {
                    continue;
                }
                completed = if fresh {
                    self.execute_task(&rp.full, &mut stats, &mut buf, &mut rm.full)
                } else {
                    rp.deltas
                        .iter()
                        .zip(&mut rm.deltas)
                        .all(|(plan, memo)| self.execute_task(plan, &mut stats, &mut buf, memo))
                };
                if !completed {
                    break;
                }
            }
            self.memos = memos;
            if !completed {
                // A cooperative trip mid-round (deadline, cancellation):
                // the round's partial derivations are discarded with
                // `buf`, never committed.
                self.stats = stats;
                return Err(self.trip_reason().unwrap_or(EngineError::Cancelled));
            }
            let any_new = drain_serial(&buf, &mut self.idb, &mut stats);
            buf.clear();
            self.round_buf = buf;
            self.stats = stats;
            // Advance delta windows.
            for (p, rel) in &self.idb {
                let (_, total_end) = self.marks[p];
                self.marks
                    .insert(*p, (total_end, rel.physical_rows() as u32));
            }
            // Drain EDB deltas: the first round consumed the
            // transaction's inserted rows; from now on the post-tx EDB
            // is the Old view, so new-IDB × EDB joins in later rounds
            // see every EDB row exactly once.
            if self.incremental {
                for (p, m) in self.edb_marks.iter_mut() {
                    if let Some(rel) = self.db.get(*p) {
                        *m = rel.physical_rows() as u32;
                    }
                }
            }
            // Round-boundary budget checks: the round's rows stay
            // committed (the IDB is consistent); evaluation just stops.
            if let Some(err) = self.check_round_budget() {
                return Err(err);
            }
            if any_new {
                return Ok(true);
            }
            if self.current_stratum >= self.max_stratum {
                return Ok(false);
            }
            self.current_stratum += 1;
            self.stratum_fresh = true;
        }
    }

    /// The cooperative governance check, polled from hot loops behind
    /// [`POLL_MASK`]. Ungoverned evaluations pay one `Option`
    /// discriminant test.
    #[inline]
    fn should_abort(&self) -> bool {
        match &self.gov {
            Some(g) => g.should_abort(),
            None => false,
        }
    }

    /// The governor's trip reason, if a cooperative check fired.
    fn trip_reason(&self) -> Option<EngineError> {
        self.gov.as_ref().and_then(Governor::reason)
    }

    /// Round-boundary budget enforcement over the committed IDB state.
    fn check_round_budget(&self) -> Option<EngineError> {
        if let Some(limit) = self.budget.max_idb_rows {
            let used: u64 = self.idb.values().map(|r| r.len() as u64).sum();
            if used > limit {
                return Some(EngineError::BudgetExceeded {
                    resource: "idb_rows",
                    limit,
                    used,
                });
            }
        }
        if let Some(limit) = self.budget.max_resident_bytes {
            let used: u64 = self.idb.values().map(Relation::estimated_bytes).sum();
            if used > limit {
                return Some(EngineError::BudgetExceeded {
                    resource: "resident_bytes",
                    limit,
                    used,
                });
            }
        }
        None
    }

    /// Verifies every IDB relation's structural invariant (flat storage
    /// and dedup index in sync — see [`Relation::check_invariant`]).
    /// Fault-injection tests call this after aborted evaluations to
    /// prove partial rounds were discarded cleanly.
    pub fn check_invariants(&self) -> Result<(), String> {
        for (p, rel) in &self.idb {
            rel.check_invariant().map_err(|e| format!("{p:?}: {e}"))?;
        }
        Ok(())
    }

    /// Runs to fixpoint.
    pub fn run(&mut self) -> Result<(), EngineError> {
        while self.step()? {}
        Ok(())
    }

    /// Finalizes, yielding the IDB relations and stats.
    pub fn finish(self) -> EvalResult {
        EvalResult {
            idb: self.idb.into_iter().collect(),
            stats: self.stats,
            route: Route::Direct,
            choice: None,
        }
    }

    fn resolve(&self, pred: Pred, view: View) -> Option<(&Relation, RowRange)> {
        if self.idb_preds.contains(&pred) {
            let rel = self.idb.get(&pred)?;
            let (old_end, total_end) = self.marks[&pred];
            let range = match view {
                View::Full | View::Total => RowRange {
                    start: 0,
                    end: total_end,
                },
                View::Old => RowRange {
                    start: 0,
                    end: old_end,
                },
                View::Delta => RowRange {
                    start: old_end,
                    end: total_end,
                },
            };
            Some((rel, range))
        } else {
            let rel = self.db.get(pred)?;
            let all = rel.all_rows();
            if !self.incremental {
                return Some((rel, all));
            }
            // Incremental mode: EDB old/delta views split at the
            // transaction watermark. Predicates the tx never touched
            // default to an empty delta.
            let mark = self.edb_marks.get(&pred).copied().unwrap_or(all.end);
            let range = match view {
                View::Full | View::Total => all,
                View::Old => RowRange {
                    start: 0,
                    end: mark,
                },
                View::Delta => RowRange {
                    start: mark,
                    end: all.end,
                },
            };
            Some((rel, range))
        }
    }

    /// Runs one task — a scheduled plan — to completion. Returns `false`
    /// when a cooperative governance check aborted it mid-scan (its
    /// partial output must be discarded).
    fn execute_task(
        &self,
        plan: &CompiledRule,
        stats: &mut Stats,
        out: &mut DerivedBuf,
        memos: &mut [DepthMemo],
    ) -> bool {
        stats.rule_firings += 1;
        TASK_SCRATCH.with(|cell| {
            let scratch = &mut *cell.borrow_mut();
            stats.kernel_firings += 1;
            let ok = run_kernel(self, plan, scratch, stats, out, memos);
            stats.scratch_hw_bytes = stats.scratch_hw_bytes.max(scratch.resident_bytes());
            ok
        })
    }

    /// A current [`ProbeHandle`] on `cols` of `rel`, building the index
    /// first if needed.
    fn handle_for(&self, rel: &Relation, cols: &[usize]) -> ProbeHandle {
        match rel.probe_handle(cols) {
            Some(h) => h,
            None => {
                rel.ensure_index(cols);
                rel.probe_handle(cols)
                    .expect("index is current immediately after ensure_index")
            }
        }
    }
}

/// The round's insertion path: drains the derived-tuple buffer straight
/// into the relations, reusing the derivation-time hashes.
fn drain_serial(buf: &DerivedBuf, idb: &mut FxHashMap<Pred, Relation>, stats: &mut Stats) -> bool {
    // How far ahead of the insert cursor to prefetch membership slots:
    // far enough to cover a memory round-trip, near enough that the
    // lines survive in L1 (a grow() between issue and use only wastes
    // the hint).
    const PREFETCH: usize = 8;
    // Pre-size the dedup tables: per target predicate, scale the
    // round's derived-row count by the relation's learned unique
    // fraction ([`Relation::reserve_for_derived`]) and reserve once up
    // front, so steady-state drains never grow mid-insert. `tallies`
    // doubles as the per-predicate derived/inserted count pair feeding
    // the post-drain EWMA update — a round touches a handful of
    // predicates, so a linear scan beats a map.
    let mut tallies: Vec<(Pred, usize, usize)> = Vec::new();
    let nrows = buf.hashes.len();
    for (ri, run) in buf.runs.iter().enumerate() {
        let row_end = buf.runs.get(ri + 1).map_or(nrows, |r| r.row_start as usize);
        let cnt = row_end - run.row_start as usize;
        match tallies.iter_mut().find(|(p, ..)| *p == run.pred) {
            Some(t) => t.1 += cnt,
            None => tallies.push((run.pred, cnt, 0)),
        }
    }
    let mut regrow_delta = 0u64;
    for &(p, derived, _) in &tallies {
        let rel = idb
            .get_mut(&p)
            .expect("derived tuple for unknown idb predicate");
        regrow_delta = regrow_delta.wrapping_sub(rel.regrows());
        rel.reserve_for_derived(derived);
    }
    let mut any_new = false;
    // The buffer is already run-length encoded by predicate: resolve the
    // relation once per run, then drive the run with hash prefetches
    // ahead of the dedup probes.
    for (ri, run) in buf.runs.iter().enumerate() {
        let row_end = buf.runs.get(ri + 1).map_or(nrows, |r| r.row_start as usize);
        let (base, arity) = (run.data_start as usize, run.arity as usize);
        let rel = idb
            .get_mut(&run.pred)
            .expect("derived tuple for unknown idb predicate");
        let mut ins = 0usize;
        for i in run.row_start as usize..row_end {
            if i + PREFETCH < row_end {
                rel.prefetch_hash(buf.hashes[i + PREFETCH]);
            }
            let s = base + (i - run.row_start as usize) * arity;
            if rel.insert_hashed(&buf.data[s..s + arity], buf.hashes[i]) {
                ins += 1;
            }
        }
        stats.inserted += ins as u64;
        any_new |= ins > 0;
        if let Some(t) = tallies.iter_mut().find(|(p, ..)| *p == run.pred) {
            t.2 += ins;
        }
    }
    // Feed the observed duplicate rate back into each relation's EWMA
    // and report any mid-drain regrows (the stall the reservation
    // exists to eliminate; see [`Stats::dedup_regrows`]).
    for &(p, derived, inserted) in &tallies {
        let rel = idb
            .get_mut(&p)
            .expect("derived tuple for unknown idb predicate");
        regrow_delta = regrow_delta.wrapping_add(rel.regrows());
        rel.note_drain(derived, inserted);
    }
    stats.dedup_regrows += regrow_delta;
    any_new
}

/// One probe depth's position in its dictionary group: the borrowed
/// row-id slice as raw parts plus the next index. Sound because
/// relations and their indexes are frozen while a round's tasks run
/// (inserts commit only between rounds); see [`ProbeHandle`].
type Cursor = (*const u32, u32, u32);

/// Reusable scratch for task execution. Held in a thread-local so every
/// evaluator a thread runs — the incremental layer builds one per
/// transaction — reuses one allocation set across all tasks and rounds:
/// steady-state execution does zero heap allocation per derived row.
/// The per-depth buffers are sized per task from the kernel's chain
/// length, so no plan is too wide. [`Stats::scratch_hw_bytes`] reports
/// the high-water resident size as the observable witness: it plateaus
/// after warm-up no matter how many rows derive.
#[derive(Default)]
struct TaskScratch {
    /// Packed probe keys, depth `d` at [`KernelProbe::key_at`].
    key_buf: Vec<Value>,
    /// One group cursor per probe depth.
    cursors: Vec<Cursor>,
    /// The row currently matched at each probe depth.
    rowids: Vec<u32>,
    /// Staging buffer for [`KernelGuard::Absent`] membership keys.
    neg_key: Vec<Value>,
    /// The batch kernel's gathered seed chunk: packed `depth-0 key hash
    /// high half | seed row id` words (see [`pack_seed`]), sorted so
    /// rows sharing a probe key form runs. Capacity is bounded by
    /// [`KERNEL_CHUNK`], never by data size.
    chunk: Vec<u64>,
    /// Ring of upcoming sort-group starts (indexes into
    /// [`TaskScratch::chunk`]): the boundary scan runs a fixed number of
    /// packed runs ahead of the group walk, prefetching each run's
    /// dictionary (or memo) slot as it is resolved. Fixed-size ring, not
    /// chunk-sized.
    group_starts: Vec<u32>,
    /// Full depth-0 key hash of each ring entry's representative.
    group_hashes: Vec<u64>,
    /// Resolved representative keys of the ring entries (ring slot ×
    /// depth-0 key width), so the walk never re-gathers a run head's key.
    group_keys: Vec<Value>,
}

impl TaskScratch {
    /// Resident heap footprint of the scratch buffers, in bytes.
    fn resident_bytes(&self) -> u64 {
        ((self.key_buf.capacity() + self.neg_key.capacity() + self.group_keys.capacity())
            * std::mem::size_of::<Value>()
            + self.cursors.capacity() * std::mem::size_of::<Cursor>()
            + (self.rowids.capacity() + self.group_starts.capacity()) * std::mem::size_of::<u32>()
            + (self.chunk.capacity() + self.group_hashes.capacity()) * std::mem::size_of::<u64>())
            as u64
    }
}

thread_local! {
    static TASK_SCRATCH: std::cell::RefCell<TaskScratch> =
        std::cell::RefCell::new(TaskScratch::default());
}

/// Seed rows per batch-kernel chunk. The gather/sort/group pipeline
/// processes the seed scan this many rows at a time, so task
/// scratch stays a small constant while dictionary lookups amortize
/// across every gathered row that shares a probe key.
const KERNEL_CHUNK: usize = 1024;

/// Packs the high half of a depth-0 key hash with a seed row id into one
/// sortable word. Sorting the packed words groups equal keys adjacently
/// at half the memory traffic of `(hash, id)` pairs — the group walk
/// re-verifies keys by value, so 32 hash bits are plenty (a high-half
/// collision merely splits a run, and per-member count replay makes a
/// split group equivalent) — with the row id as a deterministic
/// tiebreak.
#[inline]
fn pack_seed(h: u64, r: u32) -> u64 {
    (h & 0xFFFF_FFFF_0000_0000) | r as u64
}

/// Immutable per-task context of a batch-kernel execution: the kernel,
/// the resolved seed, probe and negated relations, and the
/// invariant/dependent depth split.
struct KernelCtx<'a> {
    ev: &'a Evaluator<'a>,
    plan: &'a CompiledRule,
    k: &'a BatchKernel,
    seed_rel: &'a Relation,
    /// Relation, visible range and index handle of each probe depth.
    prels: Vec<(&'a Relation, RowRange, ProbeHandle)>,
    /// Relation and visible range of each [`KernelNeg`]; `None` when
    /// there is nothing to find, so its guard always passes.
    nrels: Vec<Option<(&'a Relation, RowRange)>>,
    /// First member-dependent probe depth. Depths `[0, split)` read only
    /// constants, seed columns that are part of the depth-0 (grouping)
    /// key — equal across a group by construction — or rows matched at
    /// earlier invariant depths, so the group phase enumerates them once
    /// per distinct key and replays their logical work counts per
    /// member. Depths `[split, np)` run per member, tuple-style.
    split: usize,
    np: usize,
}

/// Mutable per-task state of a batch-kernel execution, borrowed from
/// [`TaskScratch`] and sized to the kernel's chain.
struct KernelState<'s> {
    key_buf: &'s mut [Value],
    cursors: &'s mut [Cursor],
    rowids: &'s mut [u32],
    neg_key: &'s mut Vec<Value>,
    /// Rows walked so far: the clock of the governance poll (bulk
    /// counter updates would break the global `rows_scanned` cadence).
    ticks: u64,
}

/// True when `src` yields the same value for every seed row of one
/// depth-0 key group while the rows matched at depths `< below` stay
/// fixed: constants always, seed columns exactly when they are part of
/// the grouping key (group formation verifies key equality by value),
/// and computes when they are themselves a grouping-key source or read
/// only invariant inputs.
fn group_invariant(k: &BatchKernel, src: KernelSrc, below: usize) -> bool {
    let in_group_key = k.probes.first().is_some_and(|p| p.key.contains(&src));
    match src {
        KernelSrc::Const(_) => true,
        KernelSrc::Seed(_) => in_group_key,
        KernelSrc::Probe(d, _) => d < below,
        KernelSrc::Computed(ci) => {
            let mut inputs = k.computes[ci].inputs();
            in_group_key || inputs.all(|s| group_invariant(k, s, below))
        }
    }
}

impl KernelCtx<'_> {
    /// Resolves a kernel source against a seed row and the per-depth
    /// matched rows.
    #[inline]
    fn src_val(&self, src: KernelSrc, seed_row: &[Value], rowids: &[u32]) -> Value {
        match src {
            KernelSrc::Const(c) => c,
            KernelSrc::Seed(c) => seed_row[c],
            KernelSrc::Probe(d, c) => self.prels[d].0.row(rowids[d])[c],
            // Re-solve on demand: a compute is a pure function of the
            // seed row and the matched rows, and its `Solve` guard
            // already evaluated (and counted) it for this candidate and
            // dropped the candidate on failure, so solving again here
            // is silent and infallible.
            KernelSrc::Computed(ci) => self
                .compute_val(ci, seed_row, rowids)
                .expect("compute verified by its guard"),
        }
    }

    /// Evaluates the `ci`-th binding builtin; `None` means it has no
    /// solution here (ill-typed operand, …) and its guard must drop the
    /// candidate before anything reads `KernelSrc::Computed(ci)`.
    #[inline]
    fn compute_val(&self, ci: usize, seed_row: &[Value], rowids: &[u32]) -> Option<Value> {
        let c = &self.k.computes[ci];
        let mut vals = [None; 3];
        for (j, (v, &s)) in vals.iter_mut().zip(&c.args).enumerate() {
            if j != c.bind {
                *v = Some(self.src_val(s, seed_row, rowids));
            }
        }
        c.op.solve(vals)
    }

    /// Evaluates one guard against a candidate.
    #[inline]
    fn guard_ok(
        &self,
        g: &KernelGuard,
        seed_row: &[Value],
        rowids: &[u32],
        neg_key: &mut Vec<Value>,
    ) -> bool {
        match *g {
            KernelGuard::Cmp(l, op, r) => op.eval(
                &self.src_val(l, seed_row, rowids),
                &self.src_val(r, seed_row, rowids),
            ),
            KernelGuard::Builtin(op, args) => op.check(
                self.src_val(args[0], seed_row, rowids),
                self.src_val(args[1], seed_row, rowids),
                self.src_val(args[2], seed_row, rowids),
            ),
            KernelGuard::Solve(ci) => self.compute_val(ci, seed_row, rowids).is_some(),
            KernelGuard::Absent(ni) => match self.nrels[ni] {
                None => true,
                Some((rel, range)) => {
                    neg_key.clear();
                    let key = self.k.negs[ni].key.iter();
                    neg_key.extend(key.map(|&s| self.src_val(s, seed_row, rowids)));
                    !rel.contains_in_range(neg_key, hash_slice(neg_key), range)
                }
            },
        }
    }

    /// The per-member tail of one group-phase prefix match: for each
    /// member seed row, either emit the head directly (`split == np`,
    /// the match is already complete) or drive the dependent probe
    /// suffix `[split, np)` tuple-at-a-time. A dependent depth 0 reuses
    /// the group's pre-fetched dictionary group `depth0` instead of
    /// re-encoding per member. Returns `false` on a governance abort.
    fn member_tail(
        &self,
        members: &[u64],
        depth0: (*const u32, u32),
        st: &mut KernelState<'_>,
        stats: &mut Stats,
        out: &mut DerivedBuf,
    ) -> bool {
        let (ev, seed_rel) = (self.ev, self.seed_rel);
        let (k, np, split) = (self.k, self.np, self.split);
        // Member row ids are hash-ordered, i.e. scattered through the
        // seed store; stay a few rows ahead of the walk.
        const MEMBER_PREFETCH: usize = 4;
        if split == np {
            // Fully invariant chain: the match is already complete and
            // only the head still reads member columns. Resolve the
            // invariant head entries once into a stack template; per
            // member, fill the seed-dependent entries, hash, and copy —
            // the emission loop touches no probe state.
            const HEAD_TMPL: usize = 8;
            let hl = k.head.len();
            if hl == 0 || hl > HEAD_TMPL {
                // Degenerate widths: per-member full resolve.
                for (mi, &e) in members.iter().enumerate() {
                    if let Some(&ne) = members.get(mi + MEMBER_PREFETCH) {
                        seed_rel.prefetch_row(ne as u32);
                    }
                    let seed_row = seed_rel.row(e as u32);
                    st.ticks += 1;
                    if st.ticks & POLL_MASK == 0 && ev.should_abort() {
                        return false;
                    }
                    stats.derived += 1;
                    out.push(
                        self.plan.head_pred,
                        k.head.iter().map(|&s| self.src_val(s, seed_row, st.rowids)),
                    );
                }
                return true;
            }
            let mut tmpl = [Value::Int(0); HEAD_TMPL];
            let mut dyns = [(0usize, k.head[0]); HEAD_TMPL];
            let mut nd = 0usize;
            for (j, &s) in k.head.iter().enumerate() {
                match s {
                    KernelSrc::Seed(_) | KernelSrc::Computed(_) => {
                        dyns[nd] = (j, s);
                        nd += 1;
                    }
                    // Constants and probe rows are fixed for the whole
                    // match; the empty seed slice is never read.
                    _ => tmpl[j] = self.src_val(s, &[], st.rowids),
                }
            }
            for (mi, &e) in members.iter().enumerate() {
                if let Some(&ne) = members.get(mi + MEMBER_PREFETCH) {
                    seed_rel.prefetch_row(ne as u32);
                }
                let seed_row = seed_rel.row(e as u32);
                st.ticks += 1;
                if st.ticks & POLL_MASK == 0 && ev.should_abort() {
                    return false;
                }
                stats.derived += 1;
                for &(j, s) in &dyns[..nd] {
                    tmpl[j] = self.src_val(s, seed_row, st.rowids);
                }
                out.push_row(self.plan.head_pred, &tmpl[..hl]);
            }
            return true;
        }
        for (mi, &e) in members.iter().enumerate() {
            if let Some(&ne) = members.get(mi + MEMBER_PREFETCH) {
                seed_rel.prefetch_row(ne as u32);
            }
            let seed_row = seed_rel.row(e as u32);
            let mut d = split;
            let mut entering = true;
            loop {
                let p = &k.probes[d];
                let (rel, range, handle) = &self.prels[d];
                if entering {
                    stats.probes += 1;
                    if d == 0 {
                        // Shared dictionary group: encoded once per
                        // group; member-dependent checks and guards
                        // still run below.
                        st.cursors[0] = (depth0.0, depth0.1, 0);
                    } else {
                        let (ks, ke) = (p.key_at, p.key_at + p.key.len());
                        for (j, &src) in p.key.iter().enumerate() {
                            st.key_buf[ks + j] = self.src_val(src, seed_row, st.rowids);
                        }
                        let key = &st.key_buf[ks..ke];
                        stats.dict_probes += 1;
                        // SAFETY: relations and indexes are frozen while
                        // a round's tasks run (see `ProbeHandle` docs).
                        st.cursors[d] = match unsafe { handle.encode(hash_slice(key), key) } {
                            Some(code) => {
                                let g = unsafe { handle.group(code) };
                                (g.as_ptr(), g.len() as u32, 0)
                            }
                            None => (std::ptr::null(), 0, 0),
                        };
                    }
                    entering = false;
                }
                // Advance depth d to its next matching row.
                let mut matched = false;
                {
                    let (ptr, len, pos) = &mut st.cursors[d];
                    while *pos < *len {
                        // SAFETY: group storage is frozen for the round.
                        let rid = unsafe { *ptr.add(*pos as usize) };
                        *pos += 1;
                        // Dictionary groups hold exactly the probed key,
                        // so visibility is the only residual filter.
                        if !rel.row_visible(rid, *range) {
                            continue;
                        }
                        stats.probe_hits += 1;
                        stats.rows_scanned += 1;
                        st.ticks += 1;
                        if st.ticks & POLL_MASK == 0 && ev.should_abort() {
                            return false;
                        }
                        let row = rel.row(rid);
                        if row.len() != p.arity {
                            continue;
                        }
                        st.rowids[d] = rid;
                        let mut ok = true;
                        for &(c, src) in &p.checks {
                            if row[c] != self.src_val(src, seed_row, st.rowids) {
                                ok = false;
                                break;
                            }
                        }
                        if ok {
                            for g in &p.guards {
                                stats.cmp_evals += 1;
                                if !self.guard_ok(g, seed_row, st.rowids, st.neg_key) {
                                    ok = false;
                                    break;
                                }
                            }
                        }
                        if !ok {
                            continue;
                        }
                        matched = true;
                        break;
                    }
                }
                if matched {
                    if p.existential {
                        // Nothing downstream reads this row: exhaust the
                        // cursor so the next advance backtracks at once.
                        st.cursors[d].2 = st.cursors[d].1;
                    }
                    if d + 1 < np {
                        d += 1;
                        entering = true;
                        continue;
                    }
                    stats.derived += 1;
                    out.push(
                        self.plan.head_pred,
                        k.head.iter().map(|&s| self.src_val(s, seed_row, st.rowids)),
                    );
                    // Stay at the deepest depth and advance for more.
                } else if d == split {
                    break;
                } else {
                    d -= 1;
                }
            }
        }
        true
    }
}

/// Executes a [`BatchKernel`]: the seed scan is gathered into
/// [`KERNEL_CHUNK`]-row chunks of packed key-hash/row-id words and
/// sorted so rows sharing a probe key form groups; each group then pays
/// its dictionary lookups once. The invariant probe prefix (see
/// [`KernelCtx::split`]) is enumerated once per group — including the
/// existential short-circuit, which becomes a group-level first-hit —
/// with its logical work counters replayed per member, so
/// `derived`/`rows_scanned`/`probe_hits` stay partition-invariant and
/// equal to per-tuple execution. The dependent suffix runs per member
/// over pre-fetched dictionary groups. Guards — comparisons, builtin
/// checks, solved builtins, anti-probes — run per candidate row at the
/// depth the planner placed them, each counted as one `cmp_evals`.
/// Returns `false` when a governance poll aborted the task; its partial
/// output is discarded at the round boundary.
fn run_kernel(
    ev: &Evaluator<'_>,
    plan: &CompiledRule,
    scratch: &mut TaskScratch,
    stats: &mut Stats,
    out: &mut DerivedBuf,
    memos: &mut [DepthMemo],
) -> bool {
    let k = &plan.kernel;
    let seed = match k.seed_pred {
        Some(p) => ev.resolve(p, k.seed_view),
        None => Some((&ev.unit, ev.unit.all_rows())),
    };
    let Some((seed_rel, mut seed_range)) = seed else {
        return true;
    };
    seed_range.end = seed_range.end.min(seed_rel.physical_rows() as u32);
    if seed_range.is_empty() {
        return true;
    }
    let np = k.probes.len();
    let mut prels = Vec::with_capacity(np);
    for p in &k.probes {
        let Some((rel, range)) = ev.resolve(p.pred, p.view) else {
            return true;
        };
        if range.is_empty() {
            return true;
        }
        let handle = ev.handle_for(rel, &p.key_cols);
        debug_assert_eq!(handle.generation(), rel.physical_rows());
        prels.push((rel, range, handle));
    }
    let visible = |n: &KernelNeg| ev.resolve(n.pred, n.view).filter(|(_, r)| !r.is_empty());
    let nrels = k.negs.iter().map(visible).collect();
    // Arm the per-depth memos: stamp generations, clear stale maps, and
    // keep only EDB depths (IDB dictionaries change every round, so
    // filling a memo for them is pure overhead).
    debug_assert_eq!(memos.len(), np);
    let mut depth_memos: Vec<Option<&mut DepthMemo>> = Vec::with_capacity(np);
    for (m, (rel, ..)) in memos.iter_mut().zip(&prels) {
        let gen = rel.generation();
        if m.edb && m.gen != gen {
            m.map.clear();
            m.gen = gen;
        }
        depth_memos.push(m.edb.then_some(m));
    }
    // A constant-keyed seed enumerates one dictionary group instead of
    // the row range; an absent key derives nothing.
    let seed_handle =
        (!k.seed_key_cols.is_empty()).then(|| ev.handle_for(seed_rel, &k.seed_key_cols));
    let seed_group: Option<&[u32]> = match &seed_handle {
        None => None,
        Some(h) => {
            debug_assert_eq!(h.generation(), seed_rel.physical_rows());
            stats.probes += 1;
            stats.dict_probes += 1;
            // SAFETY: relations and indexes are frozen while a round's
            // tasks run (see `ProbeHandle` docs).
            match unsafe { h.encode(hash_slice(&k.seed_key), &k.seed_key) } {
                Some(code) => Some(unsafe { h.group(code) }),
                None => return true,
            }
        }
    };
    // Invariant/dependent split (see [`KernelCtx::split`]): keys may
    // read rows of strictly earlier depths; checks and guards at depth
    // `d` may also read the row being matched at `d` itself.
    let split = k
        .probes
        .iter()
        .enumerate()
        .position(|(d, p)| {
            !(p.key.iter().all(|&s| group_invariant(k, s, d))
                && p.checks.iter().all(|&(_, s)| group_invariant(k, s, d + 1))
                && p.guards
                    .iter()
                    .all(|g| k.guard_all(g, |s| group_invariant(k, s, d + 1))))
        })
        .unwrap_or(np);
    let ctx = KernelCtx {
        ev,
        plan,
        k,
        seed_rel,
        prels,
        nrels,
        split,
        np,
    };
    let TaskScratch {
        key_buf,
        cursors,
        rowids,
        neg_key,
        chunk,
        group_starts,
        group_hashes,
        group_keys,
    } = scratch;
    key_buf.clear();
    key_buf.resize(k.key_width(), Value::Int(0));
    cursors.clear();
    cursors.resize(np, (std::ptr::null(), 0, 0));
    rowids.clear();
    rowids.resize(np, 0);
    let st = &mut KernelState {
        key_buf,
        cursors,
        rowids,
        neg_key,
        ticks: 0,
    };
    let w0 = if np > 0 { k.probes[0].key.len() } else { 0 };

    let mut range_next = seed_range.start;
    let mut group_pos = 0usize;
    'chunks: loop {
        // Gather: fill one chunk with visible seed rows that pass the
        // seed checks and guards, hashing each row's depth-0 probe key.
        chunk.clear();
        while chunk.len() < KERNEL_CHUNK {
            let r = match seed_group {
                None => {
                    if range_next >= seed_range.end {
                        break;
                    }
                    let r = range_next;
                    range_next += 1;
                    if seed_rel.is_dead(r) {
                        continue;
                    }
                    r
                }
                Some(g) => {
                    let Some(&r) = g.get(group_pos) else { break };
                    group_pos += 1;
                    if !seed_rel.row_visible(r, seed_range) {
                        continue;
                    }
                    r
                }
            };
            stats.rows_scanned += 1;
            st.ticks += 1;
            if st.ticks & POLL_MASK == 0 && ev.should_abort() {
                return false;
            }
            let seed_row = seed_rel.row(r);
            if seed_row.len() != k.seed_arity {
                continue;
            }
            let mut ok = true;
            for &(c, src) in &k.seed_checks {
                if seed_row[c] != ctx.src_val(src, seed_row, st.rowids) {
                    ok = false;
                    break;
                }
            }
            if ok {
                for g in &k.seed_guards {
                    stats.cmp_evals += 1;
                    if !ctx.guard_ok(g, seed_row, st.rowids, st.neg_key) {
                        ok = false;
                        break;
                    }
                }
            }
            if !ok {
                continue;
            }
            let h = if np > 0 {
                for (j, &src) in k.probes[0].key.iter().enumerate() {
                    st.key_buf[j] = ctx.src_val(src, seed_row, st.rowids);
                }
                hash_slice(&st.key_buf[..w0])
            } else {
                0
            };
            chunk.push(pack_seed(h, r));
        }
        if chunk.is_empty() {
            break 'chunks;
        }
        if np == 0 {
            // Pure seed scan: the gather is the whole pipeline; emit.
            // A head that copies the seed row verbatim (the ubiquitous
            // base-rule shape `p(X,Y) :- e(X,Y).`) re-emits stored rows,
            // so their derivation-time hashes are reusable as-is.
            let identity = k.head.len() == k.seed_arity
                && k.head
                    .iter()
                    .enumerate()
                    .all(|(j, &s)| s == KernelSrc::Seed(j));
            for &e in chunk.iter() {
                let r = e as u32;
                let seed_row = seed_rel.row(r);
                stats.derived += 1;
                if identity {
                    out.push_prehashed(plan.head_pred, seed_row, seed_rel.row_hash_at(r));
                } else {
                    out.push(
                        plan.head_pred,
                        k.head.iter().map(|&s| ctx.src_val(s, seed_row, st.rowids)),
                    );
                }
            }
            continue 'chunks;
        }
        // Sort-group: rows sharing the depth-0 key become one run (hash
        // order with row-id tiebreak keeps runs deterministic).
        chunk.sort_unstable();
        let (rel0, _, h0) = &ctx.prels[0];
        debug_assert_eq!(h0.generation(), rel0.physical_rows());
        // Pipelined group walk: the boundary scan runs a ring's worth of
        // packed runs ahead of the walk, resolving each run's
        // representative key and full hash exactly once and prefetching
        // the map slot that hash will probe — the warm memo when one is
        // armed, the dictionary otherwise. By the time the walk reaches
        // a run, its line has had several groups' worth of join work to
        // arrive, so the per-group random access overlaps with useful
        // work instead of serializing one cache miss per group.
        const GROUP_RING: usize = 16;
        group_starts.clear();
        group_starts.resize(GROUP_RING, 0);
        group_hashes.clear();
        group_hashes.resize(GROUP_RING, 0);
        group_keys.clear();
        group_keys.resize(GROUP_RING * w0, Value::Int(0));
        let mut fill_pos = 0usize; // chunk index where the scan resumes
        let mut filled = 0usize; // packed runs resolved so far
        let mut walk = 0usize; // next run to walk
        while walk < filled || fill_pos < chunk.len() {
            // Top up the ring. One slot stays free so the run being
            // walked and its successor (whose start is the walked run's
            // end) are never overwritten by the scan.
            while fill_pos < chunk.len() && filled - walk < GROUP_RING - 1 {
                let slot = filled & (GROUP_RING - 1);
                let ghi = pack_seed(chunk[fill_pos], 0);
                let rep_row = seed_rel.row(chunk[fill_pos] as u32);
                let ks = slot * w0;
                for (j, &src) in k.probes[0].key.iter().enumerate() {
                    group_keys[ks + j] = ctx.src_val(src, rep_row, st.rowids);
                }
                let gh = hash_slice(&group_keys[ks..ks + w0]);
                group_starts[slot] = fill_pos as u32;
                group_hashes[slot] = gh;
                match &depth_memos[0] {
                    Some(m) if !m.map.is_empty() => m.map.prefetch(gh),
                    // SAFETY: frozen for the round (`ProbeHandle` docs).
                    _ => unsafe { h0.prefetch_key(gh) },
                }
                fill_pos += 1;
                while fill_pos < chunk.len() && pack_seed(chunk[fill_pos], 0) == ghi {
                    fill_pos += 1;
                }
                filled += 1;
            }
            let slot = walk & (GROUP_RING - 1);
            let run_start = group_starts[slot] as usize;
            let run_end = if walk + 1 < filled {
                group_starts[(walk + 1) & (GROUP_RING - 1)] as usize
            } else {
                chunk.len()
            };
            st.key_buf[..w0].copy_from_slice(&group_keys[slot * w0..slot * w0 + w0]);
            let run_hash = group_hashes[slot];
            walk += 1;
            // The packed words carry only the hash's high half, so a
            // run can mix distinct keys; verify by value so every group
            // holds exactly one key. A colliding row simply starts its
            // own group — per-member count replay makes that equivalent.
            let mut gs = run_start;
            while gs < run_end {
                let rep_row = seed_rel.row(chunk[gs] as u32);
                if gs != run_start {
                    // A collision subgroup resolves its own key; the
                    // run head's came from the ring.
                    for (j, &src) in k.probes[0].key.iter().enumerate() {
                        st.key_buf[j] = ctx.src_val(src, rep_row, st.rowids);
                    }
                }
                let mut ge = gs + 1;
                while ge < run_end {
                    let row = seed_rel.row(chunk[ge] as u32);
                    let same = k.probes[0]
                        .key
                        .iter()
                        .enumerate()
                        .all(|(j, &src)| ctx.src_val(src, row, st.rowids) == st.key_buf[j]);
                    if !same {
                        break;
                    }
                    ge += 1;
                }
                let members = &chunk[gs..ge];
                let m = members.len() as u64;
                // The run head reuses the hash the scan computed; a
                // collision-split subgroup recomputes its own.
                let gh = if gs == run_start {
                    run_hash
                } else {
                    hash_slice(&st.key_buf[..w0])
                };
                gs = ge;
                // One key→code resolution per group — the amortized
                // probe, served from the EDB memo when armed.
                // SAFETY: frozen for the round (see `ProbeHandle` docs).
                let depth0 = match unsafe {
                    encode_memoized(
                        h0,
                        depth_memos[0].as_deref_mut(),
                        gh,
                        &st.key_buf[..w0],
                        stats,
                    )
                } {
                    Some(code) => {
                        let g = unsafe { h0.group(code) };
                        (g.as_ptr(), g.len() as u32)
                    }
                    None => {
                        // No depth-0 rows for this key: every member
                        // opens and at once exhausts the probe.
                        stats.probes += m;
                        continue;
                    }
                };
                if split == 0 {
                    // Member-dependent depth 0: per-member enumeration
                    // over the shared pre-fetched group.
                    if !ctx.member_tail(members, depth0, st, stats, out) {
                        return false;
                    }
                    continue;
                }
                // Group phase: enumerate the invariant prefix once
                // against the representative row; local counters replay
                // ×members.
                let (mut lp, mut lph, mut lrs, mut lce) = (1u64, 0u64, 0u64, 0u64);
                st.cursors[0] = (depth0.0, depth0.1, 0);
                let mut d = 0usize;
                let mut entering = false; // depth-0 cursor pre-opened
                loop {
                    let p = &k.probes[d];
                    let (rel, range, handle) = &ctx.prels[d];
                    if entering {
                        lp += 1;
                        let (ks, ke) = (p.key_at, p.key_at + p.key.len());
                        for (j, &src) in p.key.iter().enumerate() {
                            st.key_buf[ks + j] = ctx.src_val(src, rep_row, st.rowids);
                        }
                        let key = &st.key_buf[ks..ke];
                        let kh = hash_slice(key);
                        // SAFETY: frozen for the round (`ProbeHandle`
                        // docs).
                        st.cursors[d] = match unsafe {
                            encode_memoized(handle, depth_memos[d].as_deref_mut(), kh, key, stats)
                        } {
                            Some(code) => {
                                let g = unsafe { handle.group(code) };
                                (g.as_ptr(), g.len() as u32, 0)
                            }
                            None => (std::ptr::null(), 0, 0),
                        };
                        entering = false;
                    }
                    // Advance depth d to its next matching row.
                    let mut matched = false;
                    {
                        let (ptr, len, pos) = &mut st.cursors[d];
                        while *pos < *len {
                            // SAFETY: group storage is frozen for the
                            // round.
                            let rid = unsafe { *ptr.add(*pos as usize) };
                            *pos += 1;
                            if !rel.row_visible(rid, *range) {
                                continue;
                            }
                            lph += 1;
                            lrs += 1;
                            st.ticks += 1;
                            if st.ticks & POLL_MASK == 0 && ev.should_abort() {
                                return false;
                            }
                            let row = rel.row(rid);
                            if row.len() != p.arity {
                                continue;
                            }
                            st.rowids[d] = rid;
                            let mut ok = true;
                            for &(c, src) in &p.checks {
                                if row[c] != ctx.src_val(src, rep_row, st.rowids) {
                                    ok = false;
                                    break;
                                }
                            }
                            if ok {
                                for g in &p.guards {
                                    lce += 1;
                                    if !ctx.guard_ok(g, rep_row, st.rowids, st.neg_key) {
                                        ok = false;
                                        break;
                                    }
                                }
                            }
                            if !ok {
                                continue;
                            }
                            matched = true;
                            break;
                        }
                    }
                    if matched {
                        if p.existential {
                            // Invariant existential: the first hit
                            // serves every member — a group-level
                            // short-circuit.
                            st.cursors[d].2 = st.cursors[d].1;
                        }
                        if d + 1 < split {
                            d += 1;
                            entering = true;
                            continue;
                        }
                        // Full invariant prefix match: per-member tail.
                        if !ctx.member_tail(members, depth0, st, stats, out) {
                            return false;
                        }
                        // Stay at the deepest invariant depth, advance.
                    } else if d == 0 {
                        break;
                    } else {
                        d -= 1;
                    }
                }
                stats.probes += lp * m;
                stats.probe_hits += lph * m;
                stats.rows_scanned += lrs * m;
                stats.cmp_evals += lce * m;
            }
        }
    }
    true
}

/// Resolves `key` (with full hash `hash`) to its dictionary code,
/// through the armed per-depth memo when one exists. A memo hit skips
/// the dictionary walk entirely — the cached code is still verified
/// against live key storage, so hits can never alias — while a miss
/// walks the dictionary and caches a positive resolution for later
/// rounds. Counter discipline: `dict_memo_hits` counts served-from-memo
/// resolutions, `dict_probes` counts real dictionary walks; both are
/// physical-event counters, not replayed per group member like the
/// logical work counters.
///
/// # Safety
/// Same contract as [`ProbeHandle::encode`]: the index behind `handle`
/// must be frozen for the duration of the call.
#[inline]
unsafe fn encode_memoized(
    handle: &ProbeHandle,
    memo: Option<&mut DepthMemo>,
    hash: u64,
    key: &[Value],
    stats: &mut Stats,
) -> Option<u32> {
    if let Some(m) = memo {
        // SAFETY: forwarded from the caller.
        if let Some(c) = m.map.get(hash, |c| unsafe { handle.code_key(c) } == key) {
            stats.dict_memo_hits += 1;
            return Some(c);
        }
        stats.dict_probes += 1;
        // SAFETY: forwarded from the caller.
        let resolved = unsafe { handle.encode(hash, key) };
        if let Some(c) = resolved {
            // SAFETY: forwarded from the caller.
            m.map
                .insert(hash, c, |cc| hash_slice(unsafe { handle.code_key(cc) }));
        }
        return resolved;
    }
    stats.dict_probes += 1;
    // SAFETY: forwarded from the caller.
    unsafe { handle.encode(hash, key) }
}

/// Computes the stratum of each IDB predicate: a rule head is at least its
/// positive IDB subgoals' strata and strictly above its negated IDB
/// subgoals' strata. Errors when negation occurs in a recursive cycle.
fn stratify(
    program: &Program,
    idb_preds: &BTreeSet<Pred>,
) -> Result<BTreeMap<Pred, usize>, EngineError> {
    let mut strata: BTreeMap<Pred, usize> = idb_preds.iter().map(|&p| (p, 0)).collect();
    let limit = idb_preds.len() + 1;
    for pass in 0..=limit {
        let mut changed = false;
        for rule in &program.rules {
            let h = rule.head.pred;
            let mut need = strata.get(&h).copied().unwrap_or(0);
            for l in &rule.body {
                if let Some(a) = l.as_atom() {
                    if let Some(&s) = strata.get(&a.pred) {
                        need = need.max(s);
                    }
                }
                if let Some(a) = l.as_neg() {
                    if let Some(&s) = strata.get(&a.pred) {
                        need = need.max(s + 1);
                    }
                }
            }
            if need > strata[&h] {
                strata.insert(h, need);
                changed = true;
            }
        }
        if !changed {
            return Ok(strata);
        }
        if pass == limit {
            break;
        }
    }
    Err(EngineError::NotStratified(
        "negation occurs inside a recursive cycle".into(),
    ))
}

/// One-shot convenience: evaluates `program` over `db` to fixpoint.
pub fn evaluate(
    db: &Database,
    program: &Program,
    strategy: Strategy,
) -> Result<EvalResult, EngineError> {
    let mut ev = Evaluator::new(db, program, strategy)?;
    ev.run()?;
    Ok(ev.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::int_tuple;
    use semrec_datalog::parser::{parse_atom, parse_unit};

    fn chain_db(n: i64) -> Database {
        let mut db = Database::new();
        for i in 0..n {
            db.insert("e", int_tuple(&[i, i + 1]));
        }
        db
    }

    fn tc_program() -> Program {
        "t(X,Y) :- e(X,Y). t(X,Y) :- e(X,Z), t(Z,Y)."
            .parse()
            .unwrap()
    }

    #[test]
    fn transitive_closure_seminaive() {
        let db = chain_db(10);
        let res = evaluate(&db, &tc_program(), Strategy::SemiNaive).unwrap();
        let t = res.relation("t").unwrap();
        assert_eq!(t.len(), 10 * 11 / 2);
        assert!(t.contains(&int_tuple(&[0, 10])));
        assert!(!t.contains(&int_tuple(&[5, 5])));
    }

    #[test]
    fn right_linear_recursion() {
        let db = chain_db(6);
        let p: Program = "t(X,Y) :- e(X,Y). t(X,Y) :- t(X,Z), e(Z,Y)."
            .parse()
            .unwrap();
        let res = evaluate(&db, &p, Strategy::SemiNaive).unwrap();
        assert_eq!(res.relation("t").unwrap().len(), 6 * 7 / 2);
    }

    #[test]
    fn filters_and_constants() {
        let db = chain_db(10);
        let p: Program = "big(X,Y) :- e(X,Y), X >= 5. pick(Y) :- e(3, Y)."
            .parse()
            .unwrap();
        let res = evaluate(&db, &p, Strategy::SemiNaive).unwrap();
        assert_eq!(res.relation("big").unwrap().len(), 5);
        assert_eq!(res.relation("pick").unwrap().len(), 1);
        assert!(res.relation("pick").unwrap().contains(&int_tuple(&[4])));
    }

    #[test]
    fn equality_assignment_binding() {
        let db = chain_db(4);
        let p: Program = "q(X, Y) :- e(X, Z), Y = Z.".parse().unwrap();
        let res = evaluate(&db, &p, Strategy::SemiNaive).unwrap();
        assert_eq!(res.relation("q").unwrap().len(), 4);
    }

    #[test]
    fn multi_idb_rule_and_mutual_layers() {
        // Two IDB atoms in one body (join of two derived relations).
        let mut db = chain_db(4);
        db.insert("f", int_tuple(&[4, 9]));
        let p: Program = "a(X,Y) :- e(X,Y). a(X,Y) :- e(X,Z), a(Z,Y).
                          b(X,Y) :- f(X,Y). c(X,Y) :- a(X,Z), b(Z,Y)."
            .parse()
            .unwrap();
        let res = evaluate(&db, &p, Strategy::SemiNaive).unwrap();
        // a = closure of the 0→1→2→3→4 chain; c(X, 9) for every a(X, 4).
        assert_eq!(
            res.relation("c").unwrap().sorted_tuples(),
            vec![
                int_tuple(&[0, 9]),
                int_tuple(&[1, 9]),
                int_tuple(&[2, 9]),
                int_tuple(&[3, 9]),
            ]
        );
    }

    #[test]
    fn cyclic_data_terminates() {
        let mut db = Database::new();
        for i in 0..5 {
            db.insert("e", int_tuple(&[i, (i + 1) % 5]));
        }
        let res = evaluate(&db, &tc_program(), Strategy::SemiNaive).unwrap();
        assert_eq!(res.relation("t").unwrap().len(), 25);
    }

    #[test]
    fn answers_filtering() {
        let db = chain_db(5);
        let res = evaluate(&db, &tc_program(), Strategy::SemiNaive).unwrap();
        let goal = parse_atom("t(0, Y)").unwrap();
        assert_eq!(res.answers(&goal).len(), 5);
        let goal = parse_atom("t(X, X)").unwrap();
        assert!(res.answers(&goal).is_empty());
    }

    #[test]
    fn undefined_edb_predicate_is_empty() {
        let db = Database::new();
        let p: Program = "p(X) :- ghost(X).".parse().unwrap();
        let res = evaluate(&db, &p, Strategy::SemiNaive).unwrap();
        assert_eq!(res.relation("p").unwrap().len(), 0);
    }

    #[test]
    fn iteration_limit() {
        let db = chain_db(50);
        let mut ev = Evaluator::new(&db, &tc_program(), Strategy::SemiNaive)
            .unwrap()
            .with_max_iterations(3);
        let err = ev.run().unwrap_err();
        assert!(matches!(err, EngineError::IterationLimit(3)));
    }

    #[test]
    fn string_valued_columns() {
        let unit = parse_unit(
            "boss(amy, bob, executive). boss(bob, cal, manager).
             exec_boss(E, B) :- boss(E, B, R), R = executive.",
        )
        .unwrap();
        let db = Database::from_facts(&unit.facts);
        let res = evaluate(&db, &unit.program(), Strategy::SemiNaive).unwrap();
        assert_eq!(res.relation("exec_boss").unwrap().len(), 1);
    }

    #[test]
    fn goal_matches_is_allocation_free_semantics() {
        let goal = parse_atom("t(X, X, 3)").unwrap();
        assert!(goal_matches(
            &goal,
            &[Value::Int(7), Value::Int(7), Value::Int(3)]
        ));
        assert!(!goal_matches(
            &goal,
            &[Value::Int(7), Value::Int(8), Value::Int(3)]
        ));
        assert!(!goal_matches(
            &goal,
            &[Value::Int(7), Value::Int(7), Value::Int(4)]
        ));
        // Arity mismatch is a non-match, not a panic.
        assert!(!goal_matches(&goal, &[Value::Int(7)]));
    }
}

#[cfg(test)]
mod negation_tests {
    use super::*;
    use crate::database::int_tuple;

    fn chain_db(n: i64) -> Database {
        let mut db = Database::new();
        for i in 0..n {
            db.insert("e", int_tuple(&[i, i + 1]));
        }
        db
    }

    #[test]
    fn negation_over_edb() {
        let mut db = chain_db(4);
        db.insert("blocked", vec![Value::Int(2)]);
        let p: Program = "open(X, Y) :- e(X, Y), !blocked(X).".parse().unwrap();
        let res = evaluate(&db, &p, Strategy::SemiNaive).unwrap();
        assert_eq!(res.relation("open").unwrap().len(), 3);
        assert!(!res.relation("open").unwrap().contains(&int_tuple(&[2, 3])));
    }

    #[test]
    fn negation_over_idb_uses_lower_stratum() {
        // Complement of reachability from 0 within the node set.
        let db = chain_db(4);
        let p: Program = "
            node(X) :- e(X, Y).
            node(Y) :- e(X, Y).
            reach(X) :- e(0, X).
            reach(Y) :- reach(X), e(X, Y).
            unreach(X) :- node(X), !reach(X), X != 0.
        "
        .parse()
        .unwrap();
        let res = evaluate(&db, &p, Strategy::SemiNaive).unwrap();
        // Every node except 0 is reachable in the chain: unreach is empty.
        assert_eq!(res.relation("unreach").unwrap().len(), 0);

        // Break the chain: remove edge 1→2 by rebuilding.
        let mut db2 = Database::new();
        for (a, b) in [(0, 1), (2, 3), (3, 4)] {
            db2.insert("e", int_tuple(&[a, b]));
        }
        let res = evaluate(&db2, &p, Strategy::SemiNaive).unwrap();
        let un = res.relation("unreach").unwrap().sorted_tuples();
        assert_eq!(un, vec![int_tuple(&[2]), int_tuple(&[3]), int_tuple(&[4])]);
    }

    #[test]
    fn negation_in_cycle_is_rejected() {
        let db = chain_db(2);
        let p: Program = "a(X) :- e(X, Y), !b(X). b(X) :- e(X, Y), !a(X)."
            .parse()
            .unwrap();
        let err = match Evaluator::new(&db, &p, Strategy::SemiNaive) {
            Err(e) => e,
            Ok(_) => panic!("expected stratification error"),
        };
        assert!(matches!(err, EngineError::NotStratified(_)));
    }

    #[test]
    fn unsafe_negation_is_rejected() {
        let db = chain_db(2);
        let p: Program = "a(X) :- e(X, Y), !ghost(Z).".parse().unwrap();
        let err = match Evaluator::new(&db, &p, Strategy::SemiNaive) {
            Err(e) => e,
            Ok(_) => panic!("expected unsafe-rule error"),
        };
        assert!(matches!(err, EngineError::UnsafeRule { .. }));
    }

    #[test]
    fn three_strata() {
        let db = chain_db(3);
        let p: Program = "
            a(X) :- e(X, Y).
            b(X) :- e(X, Y), !a(Y).
            c(X) :- e(X, Y), !b(X).
        "
        .parse()
        .unwrap();
        let res = evaluate(&db, &p, Strategy::SemiNaive).unwrap();
        // a = {0,1,2}; b(X) holds when e(X,Y) and Y ∉ a → only Y=3 → b={2};
        // c(X) when e(X,Y) and X ∉ b → c={0,1}.
        assert_eq!(res.relation("a").unwrap().len(), 3);
        assert_eq!(
            res.relation("b").unwrap().sorted_tuples(),
            vec![int_tuple(&[2])]
        );
        assert_eq!(
            res.relation("c").unwrap().sorted_tuples(),
            vec![int_tuple(&[0]), int_tuple(&[1])]
        );
    }
}

#[cfg(test)]
mod builtin_tests {
    use super::*;
    use crate::database::int_tuple;

    #[test]
    fn plus_forward_mode() {
        let mut db = Database::new();
        db.insert("n", int_tuple(&[1]));
        db.insert("n", int_tuple(&[2]));
        let p: Program = "inc(X, Y) :- n(X), plus(X, 1, Y).".parse().unwrap();
        let res = evaluate(&db, &p, Strategy::SemiNaive).unwrap();
        assert_eq!(
            res.relation("inc").unwrap().sorted_tuples(),
            vec![int_tuple(&[1, 2]), int_tuple(&[2, 3])]
        );
    }

    #[test]
    fn plus_inverse_mode_and_check() {
        let mut db = Database::new();
        db.insert("pair", int_tuple(&[3, 10]));
        db.insert("pair", int_tuple(&[4, 9]));
        // diff: D such that X + D = Y.
        let p: Program = "
            diff(X, Y, D) :- pair(X, Y), plus(X, D, Y).
            exact(X, Y) :- pair(X, Y), plus(X, 7, Y).
        "
        .parse()
        .unwrap();
        let res = evaluate(&db, &p, Strategy::SemiNaive).unwrap();
        assert_eq!(
            res.relation("diff").unwrap().sorted_tuples(),
            vec![int_tuple(&[3, 10, 7]), int_tuple(&[4, 9, 5])]
        );
        assert_eq!(
            res.relation("exact").unwrap().sorted_tuples(),
            vec![int_tuple(&[3, 10])]
        );
    }

    #[test]
    fn recursion_with_arithmetic() {
        // Hop counting: dist(X, Y, N) — chain of length 5.
        let mut db = Database::new();
        for i in 0..5 {
            db.insert("e", int_tuple(&[i, i + 1]));
        }
        let p: Program = "
            dist(X, Y, 1) :- e(X, Y).
            dist(X, Y, N) :- dist(X, Z, M), e(Z, Y), plus(M, 1, N).
        "
        .parse()
        .unwrap();
        let res = evaluate(&db, &p, Strategy::SemiNaive).unwrap();
        let d = res.relation("dist").unwrap();
        assert!(d.contains(&int_tuple(&[0, 5, 5])));
        assert!(d.contains(&int_tuple(&[2, 4, 2])));
        assert_eq!(d.len(), 15);
    }

    #[test]
    fn times_exactness_filters() {
        let mut db = Database::new();
        for i in [6, 7, 12] {
            db.insert("n", int_tuple(&[i]));
        }
        let p: Program = "third(X, Y) :- n(X), times(Y, 3, X).".parse().unwrap();
        let res = evaluate(&db, &p, Strategy::SemiNaive).unwrap();
        assert_eq!(
            res.relation("third").unwrap().sorted_tuples(),
            vec![int_tuple(&[6, 2]), int_tuple(&[12, 4])]
        );
    }

    #[test]
    fn underconstrained_builtin_is_unsafe() {
        let db = Database::new();
        let p: Program = "bad(X, Y, Z) :- n(X), plus(Y, Z, W).".parse().unwrap();
        assert!(matches!(
            Evaluator::new(&db, &p, Strategy::SemiNaive),
            Err(EngineError::UnsafeRule { .. })
        ));
    }

    #[test]
    fn strings_fail_softly() {
        let mut db = Database::new();
        db.insert("v", vec![Value::str("x")]);
        db.insert("v", vec![Value::Int(4)]);
        let p: Program = "inc(X, Y) :- v(X), plus(X, 1, Y).".parse().unwrap();
        let res = evaluate(&db, &p, Strategy::SemiNaive).unwrap();
        assert_eq!(
            res.relation("inc").unwrap().sorted_tuples(),
            vec![int_tuple(&[4, 5])]
        );
    }
}
