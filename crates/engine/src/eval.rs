//! Bottom-up semi-naive fixpoint evaluation.
//!
//! The evaluator exposes a round-at-a-time [`Evaluator::step`] API in
//! addition to [`Evaluator::run`]: the IC re-check
//! ([`crate::incr::IcCheck`]) runs one delta round through it, and the
//! bench crate's evaluation-based baseline (Chakravarthy et al. / Lee &
//! Han style, an E4 fixture) interposes per-iteration residue work —
//! exactly the run-time overhead the paper's program-transformation
//! approach avoids.
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
    compile_rule_with_sizes, BatchKernel, CompiledRule, KernelGuard, KernelLookup, KernelSrc, View,
};
use crate::relation::{ProbeHandle, Relation, RowRange, Snapshot, Tuple};
use crate::stats::Stats;
use semrec_datalog::atom::{Atom, Pred};
use semrec_datalog::program::Program;
use semrec_datalog::term::Term;
use semrec_datalog::word::{self, Word};
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
    /// goal's constants (and repeated-variable equalities), by one
    /// filtered scan ([`scan_goal`]).
    pub fn answers(&self, goal: &Atom) -> Vec<Tuple> {
        self.idb
            .get(&goal.pred)
            .map_or_else(Vec::new, |rel| scan_goal(rel, goal))
    }
}

/// True if `row` matches the constants and repeated variables of `goal`.
///
/// Allocation-free: instead of building a binding map per row, a repeated
/// variable is checked against the row value at its *first* occurrence
/// (equality with the first occurrence is transitively equality with all).
/// Goal arities are tiny, so the quadratic scan over earlier argument
/// positions is cheaper than any map.
pub fn goal_matches(goal: &Atom, row: &[Word]) -> bool {
    if goal.args.len() != row.len() {
        return false;
    }
    for (i, t) in goal.args.iter().enumerate() {
        match t {
            Term::Const(c) => {
                if Word::new(*c) != row[i] {
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
    /// The constants at those positions, parallel to `cols`, as stored.
    pub key: Vec<Word>,
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
                b.key.push(Word::new(*c));
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

/// How often [`for_each_answer_row`] invokes its poll callback while
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

/// [`answer_goal`] without the copies and interruptible: the answer as
/// physical row ids into `snap`, in the same order, under the `poll`
/// contract of [`for_each_answer_row`]. An id is only meaningful
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

/// Answers a goal atom against one relation state as materialized
/// tuples, one uninterrupted pass over the rows [`for_each_answer_row`]
/// selects (see there for the routing and the order).
pub fn answer_goal(snap: &Snapshot, goal: &Atom) -> Vec<Tuple> {
    let mut out = Vec::new();
    let never = |_| Ok::<(), std::convert::Infallible>(());
    match for_each_answer_row(snap, goal, never, |r| out.push(word::decode(snap.row(r)))) {
        Ok(()) => out,
        Err(e) => match e {},
    }
}

/// Answers a goal against a relation read once, as one-shot callers do
/// ([`EvalResult::answers`], `MaintainedQuery::answers`, magic-sets
/// answer extraction): every live row filtered by [`goal_matches`], in
/// row order — the rows and the order [`answer_goal`] selects. A probe
/// would first build a dictionary index over the whole relation for a
/// single lookup and drop it; the serving daemon's snapshots keep the
/// indexed route because their index lineage outlives the call.
pub fn scan_goal(rel: &Relation, goal: &Atom) -> Vec<Tuple> {
    rel.iter()
        .filter(|row| goal_matches(goal, row))
        .map(word::decode)
        .collect()
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

/// Flat buffer of derived head rows: one `Vec<Word>` shared by every
/// tuple a round derives, instead of one heap allocation per tuple. Each
/// tuple's FxHash is computed once at derivation time and carried along,
/// so the drain's dedup probe and final insertion reuse it.
/// Tasks emit rule-at-a-time, so tuples form long single-predicate runs;
/// recording one [`DerivedRun`] per run instead of a `(pred, start,
/// end)` entry per tuple keeps the steady-state emission cost at the 24
/// bytes of data+hash of a two-column row.
#[derive(Default, Debug)]
pub(crate) struct DerivedBuf {
    /// Non-empty runs, in emission order.
    runs: Vec<DerivedRun>,
    /// `hashes[i]` is the content hash of the `i`-th tuple.
    hashes: Vec<u64>,
    data: Vec<Word>,
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
    fn push(&mut self, pred: Pred, vals: impl Iterator<Item = Word>) {
        let start = self.data.len();
        self.data.extend(vals);
        let arity = (self.data.len() - start) as u32;
        let h = hash_slice(&self.data[start..]);
        self.note_row(pred, arity, h);
    }

    /// [`DerivedBuf::push`] for a row already materialized in a caller
    /// buffer: one hash, one slice copy, no staging iterator.
    #[inline]
    fn push_row(&mut self, pred: Pred, row: &[Word]) {
        self.data.extend_from_slice(row);
        self.note_row(pred, row.len() as u32, hash_slice(row));
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
        Prepared::compile_over(db, program, &[])
    }

    /// [`Prepared::compile`] for a program whose runs also preload the
    /// `preloaded` body predicates: they resolve, like its heads, to
    /// relations handed to [`Evaluator::from_prepared`] rather than to
    /// the database.
    pub(crate) fn compile_over(
        db: &Database,
        program: &Program,
        preloaded: &[Pred],
    ) -> Result<Prepared, EngineError> {
        let arities = program.arities().map_err(EngineError::ArityMismatch)?;
        let known = preloaded.iter().filter_map(|p| Some((*p, arities.get(p)?)));
        let mut ev = Evaluator::bare(db);
        ev.preload(known.map(|(p, &n)| (p, Relation::new(n))));
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

    /// The prepared program.
    pub fn program(&self) -> &Program {
        &self.program
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
    /// range. Entered via [`Evaluator::from_prepared`]; batch
    /// construction leaves it off and nothing on the batch path changes.
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
        }
    }

    /// An *incremental* evaluator running the plans of `prepared`: `idb`
    /// holds previously materialized relations (a fixpoint of the program
    /// over the pre-transaction EDB, and any relations the program was
    /// prepared to preload), and `edb_marks` records, per EDB predicate,
    /// the physical row watermark below which rows predate the
    /// transaction. Running it to fixpoint performs semi-naive
    /// delta-insert propagation: the first round is seeded from the EDB
    /// rows at or above their watermark (plus any preloaded rows made
    /// delta by [`Evaluator::set_idb_delta_start`]) rather than from the
    /// whole database, and EDB watermarks drain after each round.
    ///
    /// Only sound for positive programs (a stratified program's higher
    /// strata would need full re-evaluation under changed lower strata).
    /// Preloaded relations may carry tombstones: marks are physical-row
    /// watermarks and every scan and probe skips dead rows. Infallible,
    /// so a caller that moved its relations in always gets them back
    /// from [`Evaluator::finish`].
    ///
    /// # Panics
    /// In debug builds, panics if the program has more than one stratum.
    pub fn from_prepared(
        db: &'db Database,
        prepared: &Prepared,
        idb: impl IntoIterator<Item = (Pred, Relation)>,
        edb_marks: FxHashMap<Pred, u32>,
    ) -> Evaluator<'db> {
        debug_assert_eq!(
            prepared.max_stratum, 0,
            "incremental mode requires a positive program"
        );
        let mut ev = Evaluator::from_prepared_batch(db, prepared, idb);
        ev.edb_marks = edb_marks;
        ev.stratum_fresh = false;
        ev
    }

    /// A batch evaluation of `prepared` over the preloaded `idb`, with no
    /// compilation: each stratum starts with every rule's full plan, as
    /// [`Evaluator::new`] does, and the EDB has no delta. Any number of
    /// strata; the relations come back from [`Evaluator::finish`].
    pub(crate) fn from_prepared_batch(
        db: &'db Database,
        prepared: &Prepared,
        idb: impl IntoIterator<Item = (Pred, Relation)>,
    ) -> Evaluator<'db> {
        let mut ev = Evaluator::bare(db);
        ev.incremental = true;
        ev.preload(idb);
        ev.program = prepared.program.clone();
        ev.idb_preds = prepared.idb_preds.clone();
        ev.plans = prepared.plans.clone();
        ev.rule_stratum = prepared.rule_stratum.clone();
        ev.max_stratum = prepared.max_stratum;
        for (&p, &n) in &prepared.arities {
            if ev.idb_preds.contains(&p) {
                ev.idb.entry(p).or_insert_with(|| Relation::new(n));
                ev.marks.entry(p).or_insert((0, 0));
            }
        }
        ev
    }

    /// Adopts previously materialized IDB relations, marking every row
    /// as Old (see [`Evaluator::set_idb_delta_start`] for making some of
    /// them the first round's delta).
    fn preload(&mut self, idb: impl IntoIterator<Item = (Pred, Relation)>) {
        for (p, rel) in idb {
            let end = rel.physical_rows() as u32;
            self.marks.insert(p, (end, end));
            self.idb.insert(p, rel);
        }
    }

    /// Rewinds the preloaded-Old watermark of `pred` to `old_end`: rows
    /// `[old_end, len)` become the first round's delta for that IDB
    /// predicate. Maintenance seeds its runs this way: the propagation
    /// run with the rows DRed re-derived, the over-deletion and
    /// re-derivation runs with every row of their seed relations.
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
        Ok(())
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
            // The evaluator-owned output buffer is taken out for the
            // round (its field borrow would conflict with
            // `execute_task`'s `&self`) and restored after.
            let mut buf = std::mem::take(&mut self.round_buf);
            let mut completed = true;
            for (ri, rp) in self.plans.iter().enumerate() {
                if self.rule_stratum[ri] != self.current_stratum {
                    continue;
                }
                completed = if fresh {
                    self.execute_task(&rp.full, &mut stats, &mut buf)
                } else {
                    rp.deltas
                        .iter()
                        .all(|plan| self.execute_task(plan, &mut stats, &mut buf))
                };
                if !completed {
                    break;
                }
            }
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
    fn execute_task(&self, plan: &CompiledRule, stats: &mut Stats, out: &mut DerivedBuf) -> bool {
        stats.rule_firings += 1;
        TASK_SCRATCH.with(|cell| {
            let scratch = &mut *cell.borrow_mut();
            stats.kernel_firings += 1;
            let ok = run_kernel(self, plan, scratch, stats, out);
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
    let nrows = buf.hashes.len();
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
    }
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
/// the high-water resident size as the observable witness: it follows
/// the largest seed scan up to [`KERNEL_CHUNK`] packed words, twice
/// (chunk and spill), plus the fixed repeat filter, then stays flat no
/// matter how many rows derive.
#[derive(Default)]
struct TaskScratch {
    /// Packed probe keys, depth `d` at [`crate::plan::KernelProbe::key_at`].
    key_buf: Vec<Word>,
    /// One group cursor per probe depth.
    cursors: Vec<Cursor>,
    /// The row currently matched at each probe depth.
    rowids: Vec<u32>,
    /// Staging buffer for [`KernelLookup`] keys.
    lookup_key: Vec<Word>,
    /// The batch kernel's gathered seed chunk: `depth-0 dictionary code
    /// << 32 | seed row id` words, partitioned by code — only when some
    /// code repeats — so rows sharing a probe key form runs. Capacity is
    /// bounded by [`KERNEL_CHUNK`], never by data size.
    chunk: Vec<u64>,
    /// The other side of each [`partition_by_code`] pass, reserved to
    /// the chunk's capacity: at most [`KERNEL_CHUNK`] words.
    spill: Vec<u64>,
    /// The repeat filter: one bit per value of a code's low
    /// log2([`KERNEL_CHUNK`]) bits (8 KiB), set at gather and cleared by
    /// walking the chunk. Two rows landing on one bit send the chunk
    /// through the partition; a bit shared by two distinct codes only
    /// costs a partition that was not needed.
    seen: Vec<u64>,
}

impl TaskScratch {
    /// Resident heap footprint of the scratch buffers, in bytes.
    fn resident_bytes(&self) -> u64 {
        ((self.key_buf.capacity() + self.lookup_key.capacity()) * std::mem::size_of::<Word>()
            + self.cursors.capacity() * std::mem::size_of::<Cursor>()
            + self.rowids.capacity() * std::mem::size_of::<u32>()
            + (self.chunk.capacity() + self.spill.capacity() + self.seen.capacity())
                * std::mem::size_of::<u64>()) as u64
    }
}

thread_local! {
    static TASK_SCRATCH: std::cell::RefCell<TaskScratch> =
        std::cell::RefCell::new(TaskScratch::default());
}

/// Seed rows per batch-kernel chunk: the grouping unit. It holds a
/// whole round's delta on every benchmarked workload (a fanout round is
/// ≈ 16 000 rows over 800 keys), so each distinct depth-0 key forms one
/// group per round and pays its deeper resolutions once. The gather
/// resolves every row's depth-0 key to its dictionary code and packs
/// `code << 32 | row`; a chunk in which no code repeats (a chain's
/// delta) is already grouped and skips the partition. The gather buffer
/// and the partition's spill each grow with the delta up to this many
/// packed words (512 KiB) and the repeat filter holds this many bits
/// (8 KiB), so task scratch stays a data-independent constant.
pub const KERNEL_CHUNK: usize = 1 << 16;

/// Widest head [`HeadSplit`] templates; wider heads resolve every
/// entry per member.
const HEAD_TMPL: usize = 8;

/// A fully invariant chain's head, split once per task: the entries a
/// prefix match fixes (constants, probe columns) and the ones each
/// member fills (seed columns, computes).
struct HeadSplit {
    fixed: [(usize, KernelSrc); HEAD_TMPL],
    nf: usize,
    dyns: [(usize, KernelSrc); HEAD_TMPL],
    nd: usize,
}

impl HeadSplit {
    /// `None` for a degenerate width (empty, or wider than the stack
    /// template).
    fn new(head: &[KernelSrc]) -> Option<HeadSplit> {
        if head.is_empty() || head.len() > HEAD_TMPL {
            return None;
        }
        let mut hs = HeadSplit {
            fixed: [(0, head[0]); HEAD_TMPL],
            nf: 0,
            dyns: [(0, head[0]); HEAD_TMPL],
            nd: 0,
        };
        for (j, &s) in head.iter().enumerate() {
            match s {
                KernelSrc::Seed(_) | KernelSrc::Computed(_) => {
                    hs.dyns[hs.nd] = (j, s);
                    hs.nd += 1;
                }
                _ => {
                    hs.fixed[hs.nf] = (j, s);
                    hs.nf += 1;
                }
            }
        }
        Some(hs)
    }
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
    /// Relation and visible range of each [`KernelLookup`], with the
    /// index on its bound columns when they are not all of them; `None`
    /// when there is nothing to find.
    lrels: Vec<Option<(&'a Relation, RowRange, Option<ProbeHandle>)>>,
    /// The head's template split when the head fits the template; read
    /// only when the whole chain is invariant (`split == np`).
    head_split: Option<HeadSplit>,
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
    key_buf: &'s mut [Word],
    cursors: &'s mut [Cursor],
    rowids: &'s mut [u32],
    lookup_key: &'s mut Vec<Word>,
    /// Rows walked so far: the clock of the governance poll (bulk
    /// counter updates would break the global `rows_scanned` cadence).
    ticks: u64,
}

/// True when `src` yields the same value for every seed row of one
/// depth-0 key group while the rows matched at depths `< below` stay
/// fixed: constants always, seed columns exactly when they are part of
/// the grouping key (a group shares one depth-0 dictionary code, hence
/// one key),
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
    /// matched rows. Forced inline: the compute arm makes it recursive,
    /// which otherwise keeps it out of line on every per-row path.
    #[inline(always)]
    fn src_val(&self, src: KernelSrc, seed_row: &[Word], rowids: &[u32]) -> Word {
        match src {
            KernelSrc::Const(c) => c,
            KernelSrc::Seed(c) => seed_row[c],
            KernelSrc::Probe(d, c) => self.prels[d].0.row(rowids[d])[c],
            KernelSrc::Computed(ci) => self.computed_val(ci, seed_row, rowids),
        }
    }

    /// Re-solves the `ci`-th compute on demand: it is a pure function of
    /// the seed row and the matched rows, and its `Solve` guard already
    /// evaluated (and counted) it for this candidate and dropped the
    /// candidate on failure, so solving again here is silent and
    /// infallible.
    #[inline(never)]
    fn computed_val(&self, ci: usize, seed_row: &[Word], rowids: &[u32]) -> Word {
        self.compute_val(ci, seed_row, rowids)
            .expect("compute verified by its guard")
    }

    /// Evaluates the `ci`-th binding builtin over decoded operands;
    /// `None` means it has no solution here (ill-typed operand, …) and
    /// its guard must drop the candidate before anything reads
    /// `KernelSrc::Computed(ci)`.
    #[inline]
    fn compute_val(&self, ci: usize, seed_row: &[Word], rowids: &[u32]) -> Option<Word> {
        let c = &self.k.computes[ci];
        let mut vals = [None; 3];
        for (j, (v, &s)) in vals.iter_mut().zip(&c.args).enumerate() {
            if j != c.bind {
                *v = Some(self.src_val(s, seed_row, rowids).value());
            }
        }
        c.op.solve(vals).map(Word::new)
    }

    /// Evaluates one guard against a candidate.
    #[inline]
    fn guard_ok(
        &self,
        g: &KernelGuard,
        seed_row: &[Word],
        rowids: &[u32],
        lookup_key: &mut Vec<Word>,
    ) -> bool {
        match *g {
            // Words order as their values do (`Word`'s `Ord`).
            KernelGuard::Cmp(l, op, r) => op.eval(
                &self.src_val(l, seed_row, rowids),
                &self.src_val(r, seed_row, rowids),
            ),
            KernelGuard::Builtin(op, args) => op.check(
                self.src_val(args[0], seed_row, rowids).value(),
                self.src_val(args[1], seed_row, rowids).value(),
                self.src_val(args[2], seed_row, rowids).value(),
            ),
            KernelGuard::Solve(ci) => self.compute_val(ci, seed_row, rowids).is_some(),
            KernelGuard::Absent(li) => !self.found(li, seed_row, rowids, lookup_key),
            KernelGuard::Present(li) => self.found(li, seed_row, rowids, lookup_key),
        }
    }

    /// True when the `li`-th lookup finds a visible row: a
    /// membership-table test for a full key, else a walk of the bound
    /// columns' index group checking the unbound columns' equalities.
    fn found(&self, li: usize, seed_row: &[Word], rowids: &[u32], key: &mut Vec<Word>) -> bool {
        let Some((rel, range, handle)) = self.lrels[li] else {
            return false;
        };
        let l = &self.k.lookups[li];
        key.clear();
        key.extend(l.key.iter().map(|&s| self.src_val(s, seed_row, rowids)));
        let h = hash_slice(key);
        let Some(handle) = handle else {
            return rel.contains_in_range(key, h, range);
        };
        let fits = |&r: &u32| {
            let same = |row: &[Word]| l.same.iter().all(|&(c, d)| row[c] == row[d]);
            rel.row_visible(r, range) && same(rel.row(r))
        };
        // SAFETY: relations and indexes are frozen while a round's tasks
        // run (see `ProbeHandle` docs).
        let group = unsafe { handle.encode(h, key).map(|c| handle.group(c)) };
        group.is_some_and(|g| g.iter().any(fits))
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
        // A repeated code's members are scattered through the seed
        // store; stay a few rows ahead of the walk.
        const MEMBER_PREFETCH: usize = 4;
        if split == np {
            // Fully invariant chain: the match is already complete and
            // only the head still reads member columns. Resolve the
            // invariant head entries once into a stack template; per
            // member, fill the seed-dependent entries, hash, and copy —
            // the emission loop touches no probe state.
            let Some(hs) = &self.head_split else {
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
            };
            let mut tmpl = [Word::int(0); HEAD_TMPL];
            // Constants and probe rows are fixed for the whole match;
            // the empty seed slice is never read.
            for &(j, s) in &hs.fixed[..hs.nf] {
                tmpl[j] = self.src_val(s, &[], st.rowids);
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
                for &(j, s) in &hs.dyns[..hs.nd] {
                    tmpl[j] = self.src_val(s, seed_row, st.rowids);
                }
                out.push_row(self.plan.head_pred, &tmpl[..k.head.len()]);
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
                                if !self.guard_ok(g, seed_row, st.rowids, st.lookup_key) {
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
/// [`KERNEL_CHUNK`]-row chunks of packed depth-0-code/row-id words —
/// a row whose key has no code derives nothing and drops there — and
/// partitioned by code, only when some code repeats, so rows sharing a
/// probe key form groups; each group then pays its deeper dictionary
/// lookups once. The invariant probe prefix (see
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
    let lookup = |l: &KernelLookup| {
        let (rel, range) = ev.resolve(l.pred, l.view)?;
        let partial = l.cols.len() < l.arity;
        let fits = !range.is_empty() && rel.arity() == l.arity;
        fits.then(|| (rel, range, partial.then(|| ev.handle_for(rel, &l.cols))))
    };
    let lrels = k.lookups.iter().map(lookup).collect();
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
        lrels,
        head_split: HeadSplit::new(&k.head),
        split,
        np,
    };
    let TaskScratch {
        key_buf,
        cursors,
        rowids,
        lookup_key,
        chunk,
        spill,
        seen,
    } = scratch;
    seen.resize(KERNEL_CHUNK / 64, 0);
    key_buf.clear();
    key_buf.resize(k.key_width(), Word::int(0));
    cursors.clear();
    cursors.resize(np, (std::ptr::null(), 0, 0));
    rowids.clear();
    rowids.resize(np, 0);
    let st = &mut KernelState {
        key_buf,
        cursors,
        rowids,
        lookup_key,
        ticks: 0,
    };
    let w0 = if np > 0 { k.probes[0].key.len() } else { 0 };

    let mut range_next = seed_range.start;
    let mut group_pos = 0usize;
    'chunks: loop {
        // Gather: fill one chunk with visible seed rows that pass the
        // seed checks and guards, resolving each row's depth-0 probe key
        // to its dictionary code and noting whether any code repeats.
        chunk.clear();
        let mut repeat = false;
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
                forget_codes(seen, chunk);
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
                    if !ctx.guard_ok(g, seed_row, st.rowids, st.lookup_key) {
                        ok = false;
                        break;
                    }
                }
            }
            if !ok {
                continue;
            }
            if np == 0 {
                chunk.push(r as u64);
                continue;
            }
            for (j, &src) in k.probes[0].key.iter().enumerate() {
                st.key_buf[j] = ctx.src_val(src, seed_row, st.rowids);
            }
            let key = &st.key_buf[..w0];
            stats.dict_probes += 1;
            // SAFETY: relations and indexes are frozen while a round's
            // tasks run (see `ProbeHandle` docs).
            let Some(code) = (unsafe { ctx.prels[0].2.encode(hash_slice(key), key) }) else {
                // No depth-0 rows for this key: the row opens and at
                // once exhausts the probe.
                stats.probes += 1;
                continue;
            };
            let e = u64::from(code) << 32 | u64::from(r);
            let bit = 1u64 << (code % 64);
            repeat |= seen[seen_word(e)] & bit != 0;
            seen[seen_word(e)] |= bit;
            chunk.push(e);
        }
        if chunk.is_empty() {
            break 'chunks;
        }
        // The spill keeps the chunk's capacity, partitioned or not, so
        // scratch stays a function of the deltas, not of their codes.
        spill.reserve_exact(chunk.capacity().saturating_sub(spill.len()));
        if np == 0 {
            // Pure seed scan: the gather is the whole pipeline; emit.
            // A head that copies the seed row verbatim (the ubiquitous
            // base-rule shape `p(X,Y) :- e(X,Y).`) re-emits stored rows
            // as one slice copy each.
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
                    out.push_row(plan.head_pred, seed_row);
                } else {
                    out.push(
                        plan.head_pred,
                        k.head.iter().map(|&s| ctx.src_val(s, seed_row, st.rowids)),
                    );
                }
            }
            continue 'chunks;
        }
        forget_codes(seen, chunk);
        // Group: rows sharing a code become one run. Only a repeated
        // code needs the partition (code order with row-id tiebreak
        // keeps runs deterministic); otherwise every row is its own
        // group.
        let h0 = &ctx.prels[0].2;
        let chunk: &[u64] = if repeat {
            stats.sorted_chunks += 1;
            let code_bits = u32::BITS - h0.codes().saturating_sub(1).leading_zeros();
            let chunk = partition_by_code(chunk, spill, code_bits);
            debug_assert!(chunk.is_sorted(), "not in code, row order");
            chunk
        } else {
            chunk
        };
        let mut gs = 0usize;
        while gs < chunk.len() {
            let code = (chunk[gs] >> 32) as u32;
            let rep_row = seed_rel.row(chunk[gs] as u32);
            let mut ge = gs + 1;
            while ge < chunk.len() && (chunk[ge] >> 32) as u32 == code {
                ge += 1;
            }
            let members = &chunk[gs..ge];
            let m = members.len() as u64;
            stats.groups += 1;
            gs = ge;
            // SAFETY: frozen for the round (see `ProbeHandle` docs).
            let depth0 = {
                let g = unsafe { h0.group(code) };
                (g.as_ptr(), g.len() as u32)
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
                    stats.dict_probes += 1;
                    // SAFETY: frozen for the round (`ProbeHandle`
                    // docs).
                    st.cursors[d] = match unsafe { handle.encode(hash_slice(key), key) } {
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
                                if !ctx.guard_ok(g, rep_row, st.rowids, st.lookup_key) {
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
    true
}

/// Widest radix digit of [`partition_by_code`]: its counts fit in 8 KiB.
const RADIX_BITS: u32 = 11;

/// Stable LSD radix partition of gathered `code << 32 | row` words on
/// their code half, whose codes fit in `code_bits` bits, in as few
/// passes of at most [`RADIX_BITS`] as that width allows (one for up to
/// 2 048 codes). The gather pushes rows ascending, so the result is the
/// chunk sorted — the order `sort_unstable` gives — without a
/// comparison. Passes alternate between `chunk` and `spill`; returns the
/// one holding the result.
fn partition_by_code<'a>(
    chunk: &'a mut [u64],
    spill: &'a mut Vec<u64>,
    code_bits: u32,
) -> &'a [u64] {
    let passes = code_bits.div_ceil(RADIX_BITS);
    if passes == 0 {
        return chunk; // one code: already in row order
    }
    let digit = code_bits.div_ceil(passes);
    let n = chunk.len();
    if spill.len() < n {
        spill.reserve_exact(n - spill.len());
        spill.resize(n, 0);
    }
    let mask = (1usize << digit) - 1;
    let (mut src, mut dst) = (chunk, &mut spill[..n]);
    let mut at = [0u32; 1 << RADIX_BITS];
    for pass in 0..passes {
        let shift = 32 + pass * digit;
        let at = &mut at[..=mask];
        at.fill(0);
        for &e in src.iter() {
            at[(e >> shift) as usize & mask] += 1;
        }
        let mut sum = 0;
        for c in at.iter_mut() {
            (*c, sum) = (sum, sum + *c);
        }
        for &e in src.iter() {
            let d = &mut at[(e >> shift) as usize & mask];
            dst[*d as usize] = e;
            *d += 1;
        }
        std::mem::swap(&mut src, &mut dst);
    }
    src
}

/// The repeat-filter word a gathered `code << 32 | row` word sets.
#[inline]
fn seen_word(e: u64) -> usize {
    ((e >> 32) as usize % KERNEL_CHUNK) / 64
}

/// Clears the repeat-filter words a gathered chunk set, leaving the
/// filter all zero for the next chunk.
fn forget_codes(seen: &mut [u64], chunk: &[u64]) {
    for &e in chunk {
        seen[seen_word(e)] = 0;
    }
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
            &[Word::int(7), Word::int(7), Word::int(3)]
        ));
        assert!(!goal_matches(
            &goal,
            &[Word::int(7), Word::int(8), Word::int(3)]
        ));
        assert!(!goal_matches(
            &goal,
            &[Word::int(7), Word::int(7), Word::int(4)]
        ));
        // Arity mismatch is a non-match, not a panic.
        assert!(!goal_matches(&goal, &[Word::int(7)]));
    }

    #[test]
    fn partition_by_code_gives_the_sorted_order_word_for_word() {
        let mut state = 0x5eed_u64;
        let mut next = move || {
            // splitmix64
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let z = (state ^ (state >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let mut spill = Vec::new();
        for bits in [1u32, 10, 11, 17, 31] {
            for len in [1, 2, 63, 1000, KERNEL_CHUNK] {
                // Rows ascend with gaps; a small pool of codes makes
                // ties, and the widest code of the width turns up.
                let pool: Vec<u64> = (0..1 + len / 8).map(|_| next() >> (64 - bits)).collect();
                let mut row = 0u64;
                let mut chunk: Vec<u64> = (0..len)
                    .map(|i| {
                        row += 1 + next() % 3;
                        let code = match i % 5 {
                            0 => (1 << bits) - 1,
                            1 | 2 => pool[next() as usize % pool.len()],
                            _ => next() >> (64 - bits),
                        };
                        code << 32 | row
                    })
                    .collect();
                let mut want = chunk.clone();
                want.sort_unstable();
                let got = partition_by_code(&mut chunk, &mut spill, bits);
                assert!(got == want, "{bits}-bit codes, {len} rows");
            }
        }
        assert_eq!(spill.capacity(), KERNEL_CHUNK, "the spill outgrew a chunk");
    }
}

#[cfg(test)]
mod negation_tests {
    use super::*;
    use crate::database::int_tuple;
    use semrec_datalog::term::Value;

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
    fn a_generated_variable_only_the_negation_mentions_is_existential() {
        // With `W` renamed to `W$` (a name `.dl` text cannot spell, as
        // the IC compiler generates), `!w(Y, W$)` reads "no `w` row
        // starts with Y"; `!v(Y, W$, W$)` also demands the two free
        // columns agree.
        let mut db = chain_db(4);
        for t in [[2, 7], [3, 8]] {
            db.insert("w", int_tuple(&t));
        }
        for t in [[1, 5, 6], [2, 9, 9]] {
            db.insert("v", int_tuple(&t));
        }
        let p: Program = "a(X) :- e(X, Y), !w(Y, W). b(X) :- e(X, Y), !v(X, W, W)."
            .parse()
            .unwrap();
        use semrec_datalog::{subst::Subst, symbol::Symbol};
        let w = Subst::from_pairs([(Symbol::intern("W"), Term::Var(Symbol::intern("W$")))]);
        let p = Program::new(p.rules.iter().map(|r| w.apply_rule(r)).collect());
        let res = evaluate(&db, &p, Strategy::SemiNaive).unwrap();
        let rows = |p: &str| res.relation(p).unwrap().sorted_tuples();
        assert_eq!(rows("a"), vec![int_tuple(&[0]), int_tuple(&[3])]);
        assert_eq!(
            rows("b"),
            vec![int_tuple(&[0]), int_tuple(&[1]), int_tuple(&[3])]
        );
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
    use semrec_datalog::term::Value;

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
