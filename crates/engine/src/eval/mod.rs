//! Bottom-up semi-naive fixpoint evaluation.
//!
//! An [`Evaluator`] runs one [`Prepared`] program — compiled by
//! [`Evaluator::new`] for a single run, or once by the caller and reused
//! across runs (the incremental maintenance layer) — and advances only
//! through [`Evaluator::run`], to fixpoint or to the first [`Budget`]
//! limit it meets. A run stopped by its round cap resumes under a raised
//! one: the bench crate's evaluation-based baseline (an E4 fixture) runs
//! one round at a time that way to interpose its per-iteration residue
//! work — exactly the run-time overhead the paper's program-
//! transformation approach avoids.
//!
//! ## Execution model
//!
//! A round has one driver, on the calling thread: every scheduled plan
//! (the full variants on a stratum's first round, the delta variants
//! after) runs as a batch-kernel task (`kernel`) that appends its
//! derived head tuples to one flat buffer; the drain (`emit`) then
//! dedups that buffer into the IDB relations with the hashes computed at
//! derivation time, and the delta windows advance. Evaluation is
//! single-threaded on purpose — see DESIGN.md, "Why evaluation is
//! single-threaded". Goal answering over the materialized relations
//! lives in `answer`.

mod answer;
mod emit;
mod kernel;

pub use answer::{
    answer_goal, answer_goal_rows_polled, goal_bindings, goal_matches, scan_goal, GoalBindings,
};
pub use kernel::KERNEL_CHUNK;

use crate::builtins::BuiltinOp;
use crate::database::Database;
use crate::error::EngineError;
use crate::fxhash::FxHashMap;
use crate::governor::{Budget, CancelToken, Governor};
use crate::plan::{compile_rule, CompiledRule, View};
use crate::relation::{Relation, RowRange, Tuple};
use crate::stats::Stats;
use emit::{drain_serial, DerivedBuf};
use semrec_datalog::analysis::check;
use semrec_datalog::atom::{Atom, Pred};
use semrec_datalog::error::Error;
use semrec_datalog::facts::Facts;
use semrec_datalog::literal::Literal;
use semrec_datalog::program::Program;
use semrec_datalog::rule::Rule;
use std::borrow::Cow;
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

/// One rule's plans: what the evaluator runs and the cost estimator
/// prices, built one way for both.
#[derive(Clone)]
pub(crate) struct RulePlans {
    /// Every delta-capable subgoal and negated IDB subgoal reads Total.
    pub(crate) full: CompiledRule,
    /// One variant per delta-capable body literal, scheduled on
    /// non-fresh rounds, and whether it reads only a transaction's rows.
    /// In batch mode that means an IDB subgoal; in incremental mode EDB
    /// subgoals are delta-capable too (they seed rounds from the tx).
    deltas: Vec<(CompiledRule, bool)>,
}

impl RulePlans {
    /// Compiles `rule`'s full plan and its delta variants: the `k`-th
    /// reads the `k`-th `delta_capable` subgoal's Delta, the earlier
    /// ones' Total and the later ones' Old. Negated subgoals over
    /// `idb_preds` read the Total view of their (strictly lower)
    /// stratum, complete by the time this rule runs.
    fn compile(
        rule: &Rule,
        delta_capable: impl Fn(&Atom) -> bool,
        idb_preds: &BTreeSet<Pred>,
        sizes: &BTreeMap<Pred, usize>,
    ) -> Result<RulePlans, EngineError> {
        let literals = rule.body.iter().enumerate();
        let idb_lits: Vec<(usize, Pred)> = (literals.clone())
            .filter_map(|(i, l)| Some((i, l.as_atom().filter(|a| delta_capable(a))?.pred)))
            .collect();
        let neg_idb =
            literals.filter(|(_, l)| l.as_neg().is_some_and(|a| idb_preds.contains(&a.pred)));
        let views: BTreeMap<usize, View> = (idb_lits.iter().map(|&(i, _)| i))
            .chain(neg_idb.map(|(i, _)| i))
            .map(|li| (li, View::Total))
            .collect();
        let full = compile_rule(rule, &views, None, sizes)?;
        let mut deltas = Vec::with_capacity(idb_lits.len());
        for (k, &(li, pred)) in idb_lits.iter().enumerate() {
            let mut v = views.clone();
            v.insert(li, View::Delta);
            for &(lj, _) in &idb_lits[k + 1..] {
                v.insert(lj, View::Old);
            }
            let plan = compile_rule(rule, &v, Some(li), sizes)?;
            deltas.push((plan, !idb_preds.contains(&pred)));
        }
        Ok(RulePlans { full, deltas })
    }

    /// The delta variants a run schedules: without a transaction (`tx`)
    /// an EDB predicate's Delta view is empty, so those reading one are
    /// skipped — every variant of a batch compile stays.
    pub(crate) fn deltas(&self, tx: bool) -> impl Iterator<Item = &CompiledRule> {
        let run = self.deltas.iter().filter(move |(_, edb)| tx || !edb);
        run.map(|(plan, _)| plan)
    }
}

/// The subgoals whose Delta view rule plans read: IDB subgoals always;
/// in `incremental` mode every non-builtin subgoal, so transaction-
/// inserted EDB rows can seed the first round's delta plans (derived
/// from the program, not the current EDB contents — a tx may insert into
/// a predicate that is empty today). EDB deltas drain after one round
/// (see `step`), so the extra variants are idle from round 2 on. No IDB
/// predicate is a builtin: `check` refuses a rule defining one.
fn delta_capable(idb_preds: &BTreeSet<Pred>, incremental: bool) -> impl Fn(&Atom) -> bool + '_ {
    move |a| idb_preds.contains(&a.pred) || (incremental && BuiltinOp::of(a.pred).is_none())
}

/// A compiled program: rule plans (full + delta variants), strata, and
/// arities. Every [`Evaluator`] runs one: [`Prepared::batch`] compiles
/// for one run (each alternative the cost memo prices, the pick's to
/// run), [`Prepared::compile`] in incremental mode (EDB subgoals
/// delta-capable, their views split at the evaluator's EDB watermarks)
/// for a caller that keeps it. Compiling judges nothing: the strata are
/// the caller's, from [`check`] of what the user wrote; a program the
/// system writes negates only predicates it does not define, and passes none.
#[derive(Clone)]
pub struct Prepared {
    program: Program,
    pub(crate) idb_preds: BTreeSet<Pred>,
    pub(crate) plans: Vec<RulePlans>,
    /// Stratum of each rule (by head predicate).
    rule_stratum: Vec<usize>,
    /// Highest stratum present.
    max_stratum: usize,
    pub(crate) arities: BTreeMap<Pred, usize>,
}

impl Prepared {
    /// Compiles `program` against `db` in incremental mode, in `strata`
    /// (absent: stratum 0), its runs also preloading the `preloaded` body
    /// predicates: they resolve, like its heads, to relations handed to
    /// [`Evaluator::from_prepared`] rather than to the database. The
    /// database is used only for join-order size estimates; the plans
    /// stay valid as the EDB evolves.
    pub fn compile(
        db: &Database,
        program: &Program,
        preloaded: &[Pred],
        strata: &BTreeMap<Pred, usize>,
    ) -> Result<Prepared, EngineError> {
        Prepared::build(db, program.clone(), true, preloaded, strata)
    }

    /// Compiles `program` against `db` in batch mode, in `strata`.
    pub fn batch(
        db: &Database,
        program: Program,
        strata: &BTreeMap<Pred, usize>,
    ) -> Result<Prepared, EngineError> {
        Prepared::build(db, program, false, &[], strata)
    }

    /// The one compile step: plans every rule of `program`, in batch or
    /// `incremental` mode, reading the `preloaded` predicates it has an
    /// arity for as IDB relations. The plan compiler refuses an unsafe
    /// rule in `check`'s words, and a rule negating a predicate of this
    /// program outside a lower stratum is refused: wrong strata never run.
    pub(crate) fn build(
        db: &Database,
        program: Program,
        incremental: bool,
        preloaded: &[Pred],
        strata: &BTreeMap<Pred, usize>,
    ) -> Result<Prepared, EngineError> {
        let arities = program.arities().map_err(EngineError::ArityMismatch)?;
        let stratum = |p: &Pred| strata.get(p).copied().unwrap_or(0);
        let mut idb_preds = program.idb_preds();
        let rule_stratum: Vec<usize> = (program.rules.iter())
            .map(|r| stratum(&r.head.pred))
            .collect();
        for (rule, &s) in program.rules.iter().zip(&rule_stratum) {
            let unsound = |a: &&Atom| idb_preds.contains(&a.pred) && stratum(&a.pred) >= s;
            if let Some(a) = rule.body.iter().filter_map(Literal::as_neg).find(unsound) {
                let why = format!("rule `{rule}` negates {}, not in a lower stratum", a.pred);
                return Err(EngineError::Invalid(Error::NotStratified(why)));
            }
        }
        idb_preds.extend(preloaded.iter().filter(|p| arities.contains_key(p)));
        // Relation sizes for join ordering: EDB sizes are known; IDB
        // relations are never preferred over a known-small EDB relation
        // on ties — mark them unknown instead.
        let mut sizes: BTreeMap<Pred, usize> = BTreeMap::new();
        for (p, rel) in db.iter() {
            sizes.insert(p, rel.len());
        }
        for p in &idb_preds {
            sizes.remove(p);
        }
        let plans = (program.rules.iter())
            .map(|rule| {
                let delta_capable = delta_capable(&idb_preds, incremental);
                RulePlans::compile(rule, delta_capable, &idb_preds, &sizes)
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Prepared {
            program,
            idb_preds,
            plans,
            max_stratum: rule_stratum.iter().copied().max().unwrap_or(0),
            rule_stratum,
            arities,
        })
    }

    /// The prepared program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Each rule's full plan, in program order: what a batch run's first
    /// round of the rule's stratum executes.
    pub fn full_plans(&self) -> impl Iterator<Item = &CompiledRule> {
        self.plans.iter().map(|p| &p.full)
    }
}

/// A resumable fixpoint evaluator over a fixed EDB, running one
/// [`Prepared`] program.
pub struct Evaluator<'db> {
    db: &'db Database,
    /// The compiled program: owned when [`Evaluator::new`] compiled it,
    /// borrowed from the caller's cache otherwise.
    prepared: Cow<'db, Prepared>,
    idb: FxHashMap<Pred, Relation>,
    /// Per IDB predicate: `(old_end, total_end)`; delta is the range
    /// between them, rows beyond `total_end` were derived this round.
    marks: FxHashMap<Pred, (u32, u32)>,
    /// The stratum currently being saturated.
    current_stratum: usize,
    /// True when the current stratum has not run its initializing
    /// full-plan round yet.
    stratum_fresh: bool,
    stats: Stats,
    round: u64,
    /// Resource limits for this evaluation (default: unlimited).
    budget: Budget,
    /// External cancellation, when the caller attached a token.
    cancel: Option<CancelToken>,
    /// Armed on the first round when a deadline or cancel token needs
    /// cooperative checks; `None` keeps the hot-path poll a single
    /// `Option` discriminant test.
    gov: Option<Governor>,
    /// Per EDB predicate, the physical-row watermark separating pre-tx
    /// rows (`[0, mark)` = Old) from rows the current transaction
    /// appended (`[mark, len)` = Delta); `None` outside incremental
    /// runs. Predicates absent from the map have an empty delta. Drained
    /// (mark := len) after each round so later rounds see the post-tx
    /// EDB as Old.
    edb_marks: Option<FxHashMap<Pred, u32>>,
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
    /// Builds an evaluator: [`check`]s `program`, then compiles every rule.
    pub fn new(
        db: &'db Database,
        program: &Program,
        _strategy: Strategy,
    ) -> Result<Evaluator<'db>, EngineError> {
        let strata = check(program, &[], &Facts::new())?.strata;
        let prepared = Prepared::batch(db, program.clone(), &strata)?;
        Ok(Evaluator::running(db, Cow::Owned(prepared), None))
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
        prepared: &'db Prepared,
        idb: impl IntoIterator<Item = (Pred, Relation)>,
        edb_marks: FxHashMap<Pred, u32>,
    ) -> Evaluator<'db> {
        debug_assert_eq!(
            prepared.max_stratum, 0,
            "incremental mode requires a positive program"
        );
        let mut ev = Evaluator::from_prepared_batch(db, prepared, idb);
        ev.edb_marks = Some(edb_marks);
        ev.stratum_fresh = false;
        ev
    }

    /// A batch evaluation of `prepared` over the preloaded `idb`, with no
    /// compilation: each stratum starts with every rule's full plan, as
    /// [`Evaluator::new`] does, and the EDB has no delta (so incremental
    /// plans do a batch run's work). Any number of strata; the relations
    /// come back from [`Evaluator::finish`].
    pub fn from_prepared_batch(
        db: &'db Database,
        prepared: &'db Prepared,
        idb: impl IntoIterator<Item = (Pred, Relation)>,
    ) -> Evaluator<'db> {
        Evaluator::running(db, Cow::Borrowed(prepared), idb)
    }

    /// An evaluator over `db` about to run `prepared` from its first
    /// stratum, adopting the previously materialized `idb` relations
    /// with every row Old (see [`Evaluator::set_idb_delta_start`] for
    /// making some of them the first round's delta); every other IDB
    /// predicate starts empty.
    fn running(
        db: &'db Database,
        prepared: Cow<'db, Prepared>,
        idb: impl IntoIterator<Item = (Pred, Relation)>,
    ) -> Evaluator<'db> {
        let mut unit = Relation::new(0);
        unit.insert(Vec::new());
        let mut ev = Evaluator {
            db,
            prepared,
            idb: FxHashMap::default(),
            marks: FxHashMap::default(),
            current_stratum: 0,
            stratum_fresh: true,
            stats: Stats::default(),
            round: 0,
            budget: Budget::unlimited(),
            cancel: None,
            gov: None,
            edb_marks: None,
            unit,
            round_buf: DerivedBuf::default(),
        };
        for (p, rel) in idb {
            let end = rel.physical_rows() as u32;
            ev.marks.insert(p, (end, end));
            ev.idb.insert(p, rel);
        }
        for (&p, &n) in &ev.prepared.arities {
            if ev.prepared.idb_preds.contains(&p) {
                ev.idb.entry(p).or_insert_with(|| Relation::new(n));
                ev.marks.entry(p).or_insert((0, 0));
            }
        }
        ev
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

    /// Applies a resource [`Budget`]. Row, byte and iteration caps are
    /// enforced at round boundaries; a deadline is also checked
    /// cooperatively inside scan loops, so it can interrupt a round in
    /// flight. An aborted round's partial derivations are discarded —
    /// the IDB stays exactly as the last completed round left it. A run
    /// stopped by its round cap resumes under a raised one.
    pub fn with_budget(mut self, budget: Budget) -> Self {
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
    /// ([`Evaluator::run`] loops on this; the IC re-check runs exactly
    /// one delta round through it).
    pub(crate) fn step(&mut self) -> Result<bool, EngineError> {
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
            if let Some(cap) = self.budget.max_iterations {
                if self.round >= cap {
                    return Err(EngineError::IterationLimit(cap as usize));
                }
            }
            self.round += 1;
            let fresh = self.stratum_fresh;
            self.stratum_fresh = false;

            let mut stats = std::mem::take(&mut self.stats);
            stats.iterations += 1;
            // The evaluator-owned output buffer is taken out for the
            // round (its field borrow would conflict with the tasks'
            // `&Evaluator`) and restored after.
            let mut buf = std::mem::take(&mut self.round_buf);
            let mut completed = true;
            let prepared = &*self.prepared;
            let tx = self.edb_marks.is_some();
            for (ri, rp) in prepared.plans.iter().enumerate() {
                if prepared.rule_stratum[ri] != self.current_stratum {
                    continue;
                }
                completed = if fresh {
                    kernel::run_task(self, &rp.full, &mut stats, &mut buf)
                } else {
                    (rp.deltas(tx)).all(|plan| kernel::run_task(self, plan, &mut stats, &mut buf))
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
            for (p, m) in self.edb_marks.iter_mut().flatten() {
                if let Some(rel) = self.db.get(*p) {
                    *m = rel.physical_rows() as u32;
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
            if self.current_stratum >= self.prepared.max_stratum {
                return Ok(false);
            }
            self.current_stratum += 1;
            self.stratum_fresh = true;
        }
    }

    /// The cooperative governance check, polled from hot loops behind
    /// [`POLL_MASK`](crate::governor::POLL_MASK). Ungoverned evaluations pay one `Option`
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

    /// The relation `pred` reads and the rows `view` sees of it: an IDB
    /// predicate's views split at its delta window, an EDB predicate's
    /// at the transaction watermark. Predicates the tx never touched —
    /// every predicate of a batch run — have an empty delta.
    fn resolve(&self, pred: Pred, view: View) -> Option<(&Relation, RowRange)> {
        let (rel, split, end) = if self.prepared.idb_preds.contains(&pred) {
            let rel = self.idb.get(&pred)?;
            let (old_end, total_end) = self.marks[&pred];
            (rel, old_end, total_end)
        } else {
            let rel = self.db.get(pred)?;
            let end = rel.all_rows().end;
            let mark = self.edb_marks.as_ref().and_then(|m| m.get(&pred).copied());
            (rel, mark.unwrap_or(end), end)
        };
        let (start, end) = match view {
            View::Full | View::Total => (0, end),
            View::Old => (0, split),
            View::Delta => (split, end),
        };
        Some((rel, RowRange { start, end }))
    }
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
    use semrec_datalog::term::Value;
    use semrec_datalog::Error;

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
    fn a_rule_defining_a_builtin_is_an_error() {
        let unit = parse_unit(
            "plus(X, Y, Z) :- e(X, Y, Z). q(X, Z) :- a(X, Y), plus(X, Y, Z). \
             e(1, 2, 7). a(1, 2).",
        )
        .unwrap();
        let db = Database::from_facts(&unit.facts);
        let (pred, fact) = (Pred::new("plus"), false);
        let want = EngineError::Invalid(Error::DefinesBuiltin { pred, fact });
        let err = evaluate(&db, &unit.program(), Strategy::SemiNaive).err();
        assert_eq!(err, Some(want));
        // A builtin in a body stays the arithmetic it names.
        let sums = parse_unit("q(X, Z) :- a(X, Y), plus(X, Y, Z). a(1, 2).").unwrap();
        let db = Database::from_facts(&sums.facts);
        let res = evaluate(&db, &sums.program(), Strategy::SemiNaive).unwrap();
        assert_eq!(
            res.answers(&parse_atom("q(X, Z)").unwrap()),
            [int_tuple(&[1, 3])]
        );
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
            .with_budget(Budget::unlimited().with_max_iterations(3));
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
        assert!(matches!(err, EngineError::Invalid(Error::NotStratified(_))));
    }

    #[test]
    fn unsafe_negation_is_rejected() {
        let db = chain_db(2);
        let p: Program = "a(X) :- e(X, Y), !ghost(Z).".parse().unwrap();
        let err = match Evaluator::new(&db, &p, Strategy::SemiNaive) {
            Err(e) => e,
            Ok(_) => panic!("expected unsafe-rule error"),
        };
        assert!(err.to_string().starts_with("unsafe rule"), "{err}");
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
        use semrec_datalog::{subst::Subst, symbol::Symbol, term::Term};
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
            Err(EngineError::Invalid(Error::UnsafeRule { .. }))
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
