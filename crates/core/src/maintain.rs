//! Residue-guarded maintenance of an optimized query across EDB updates.
//!
//! The optimizer's output is only equivalent to the rectified program on
//! databases that satisfy the integrity constraints whose residues it
//! pushed. A [`MaintainedQuery`] therefore pairs the incremental engine
//! ([`Materialized`]) with an **IC monitor** scoped to exactly those
//! constraints:
//!
//! - While every monitored IC holds, each transaction is absorbed by
//!   delta propagation / DRed on the *optimized* program's
//!   materialization ([`Route::IncrementalOptimized`]).
//! - The moment a transaction breaks a monitored IC, the optimized
//!   materialization is invalidated — its cached relations may now be
//!   unsound — and the query is re-answered from the *rectified*
//!   program ([`Route::IncrementalInvalidated`]). Subsequent
//!   transactions maintain the rectified materialization incrementally,
//!   re-checking the broken constraints in full until they hold again.
//! - When the violations clear, the optimized materialization is
//!   rebuilt and incremental maintenance of the fast route resumes.
//!
//! The monitor is delta-driven: a constraint that held before the
//! transaction is re-checked only against bindings the transaction's
//! effective delta can have created (see `semrec_engine::incr`), not by
//! re-enumerating the database.
//!
//! Transactions are atomic and run in place, at a cost proportional to
//! their delta: the database and the materialization are mutated under
//! undo logs (`semrec_engine::incr`) and the monitor state is written
//! last, so on any error (budget exhaustion, cancellation, injected
//! fault) the appends are cut, the tombstoned rows revived, and
//! database, materialization, route and monitor are as before.

use std::collections::BTreeMap;
use std::fmt;
use std::time::Instant;

use semrec_datalog::atom::{Atom, Pred};
use semrec_datalog::constraint::Constraint;
use semrec_datalog::error::Error;
use semrec_datalog::program::Program;
use semrec_engine::eval::answer_goal;
use semrec_engine::incr::{ic_still_satisfied, Doomed, TxDelta};
use semrec_engine::{
    AlternativeKind, Budget, CancelToken, CostMemo, Database, EdbStats, EngineError, Materialized,
    Relation, Route, RouteChoice, Tuple, Tx, UpdateStats,
};

use crate::optimizer::{Optimizer, OptimizerConfig, Plan};

/// Setup errors: the optimizer can reject the program/ICs, and the
/// initial materialization can fail in the engine.
#[derive(Debug)]
pub enum MaintainError {
    /// The optimizer rejected the program or constraints.
    Optimizer(Error),
    /// The initial evaluation failed.
    Engine(EngineError),
}

impl fmt::Display for MaintainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MaintainError::Optimizer(e) => write!(f, "optimizer: {e}"),
            MaintainError::Engine(e) => write!(f, "engine: {e}"),
        }
    }
}

impl std::error::Error for MaintainError {}

impl From<Error> for MaintainError {
    fn from(e: Error) -> Self {
        MaintainError::Optimizer(e)
    }
}

impl From<EngineError> for MaintainError {
    fn from(e: EngineError) -> Self {
        MaintainError::Engine(e)
    }
}

/// What one applied transaction did.
#[derive(Clone, Debug)]
pub struct UpdateOutcome {
    /// Which route answers queries after this transaction.
    pub route: Route,
    /// Engine counters for the maintenance work.
    pub stats: UpdateStats,
    /// True when the transaction switched routes and the new route's
    /// materialization was rebuilt from scratch (invalidation or
    /// recovery), rather than maintained by delta propagation.
    pub rebuilt: bool,
    /// Indices (into [`MaintainedQuery::monitored`]) of the constraints
    /// violated after this transaction.
    pub violated: Vec<usize>,
    /// True when this transaction re-consulted the cost planner (route
    /// transition, or EDB drift past the replan threshold) and refreshed
    /// the recorded [`RouteChoice`].
    pub replanned: bool,
}

/// An optimized query kept answerable across EDB transactions, with the
/// optimizer's constraint assumptions monitored per update.
pub struct MaintainedQuery {
    db: Database,
    plan: Plan,
    /// The constraints the optimized route's soundness depends on.
    monitored: Vec<Constraint>,
    /// Per monitored constraint: does it hold on the current database?
    ic_ok: Vec<bool>,
    /// The live materialization — the cost planner's pick among the
    /// *sound* programs: while every monitored IC holds that is the
    /// cheaper of `plan.program` and `plan.rectified`; under a violation
    /// only `plan.rectified` is sound.
    active: Materialized,
    /// Monitor state: every monitored IC holds.
    on_optimized: bool,
    /// Which sound program `active` materializes: true = `plan.program`
    /// (residue-pushed), false = `plan.rectified`.
    active_opt: bool,
    route: Route,
    /// Generation-keyed EDB statistics shared across replanning passes.
    edb_stats: EdbStats,
    /// The planner's latest verdict (None when pricing failed).
    choice: Option<RouteChoice>,
    /// Total EDB rows when the planner last ran; drifting past 2× in
    /// either direction triggers a replan on the next transaction.
    planned_rows: u64,
    /// Planner consultations over this query's lifetime.
    replans: u64,
}

/// Total physical EDB rows (the planner's drift metric).
fn edb_rows(db: &Database) -> u64 {
    db.iter().map(|(_, r)| r.len() as u64).sum()
}

/// Prices the sound alternatives of `plan` on `db`. Under a violation
/// (`ics_hold` false) only the rectified program is sound; otherwise
/// the residue-pushed program (when the optimizer applied anything)
/// competes with it. When pricing fails the fixed IC-driven choice is
/// returned with no recorded verdict.
fn plan_route(
    db: &Database,
    plan: &Plan,
    stats: &mut EdbStats,
    ics_hold: bool,
) -> (AlternativeKind, Option<RouteChoice>) {
    let mut alts: Vec<(AlternativeKind, Program)> = Vec::new();
    if ics_hold && plan.any_applied() {
        alts.push((AlternativeKind::ResiduePushed, plan.program.clone()));
    }
    alts.push((AlternativeKind::Rectified, plan.rectified.clone()));
    match CostMemo::build(db, stats, alts) {
        Ok(memo) => (memo.best().kind, Some(memo.choice())),
        Err(_) => (
            if ics_hold && plan.any_applied() {
                AlternativeKind::ResiduePushed
            } else {
                AlternativeKind::Rectified
            },
            None,
        ),
    }
}

/// The constraints whose residues the plan actually pushed, deduplicated.
/// Rule-level rewrites are not attributed to individual constraints, so
/// a plan that applied any monitors the full constraint set.
fn monitored_ics(plan: &Plan, ics: &[Constraint]) -> Vec<Constraint> {
    if plan.rule_level > 0 {
        return ics.to_vec();
    }
    let mut out: Vec<Constraint> = Vec::new();
    for a in &plan.applied {
        if !out.contains(&a.residue.ic) {
            out.push(a.residue.ic.clone());
        }
    }
    out
}

impl MaintainedQuery {
    /// Optimizes `program` under `ics` and materializes the appropriate
    /// route over `db` (the optimized program if every monitored IC
    /// holds, the rectified program otherwise). The trailing `usize` is
    /// ignored: it is the signature `benchmark/src/bin/layers.rs` calls
    /// (benchmark/README.md, *Frozen surfaces (b)*), to be dropped by
    /// the next benchmark issue.
    pub fn new(
        db: Database,
        program: &Program,
        ics: &[Constraint],
        config: OptimizerConfig,
        _ignored: usize,
    ) -> Result<MaintainedQuery, MaintainError> {
        let plan = Optimizer::new(program)
            .with_constraints(ics)
            .with_config(config)
            .run()?;
        let monitored = monitored_ics(&plan, ics);
        let ic_ok: Vec<bool> = monitored.iter().map(|ic| db.satisfies(ic)).collect();
        let on_optimized = ic_ok.iter().all(|&b| b);
        // Initial consultation: among the sound programs, materialize
        // the planner's pick.
        let mut edb_stats = EdbStats::new();
        let (kind, choice) = plan_route(&db, &plan, &mut edb_stats, on_optimized);
        let active_opt = kind == AlternativeKind::ResiduePushed;
        let active_program = if active_opt {
            &plan.program
        } else {
            &plan.rectified
        };
        let active = Materialized::new(&db, active_program)?;
        let route = if !on_optimized {
            Route::RectifiedFallback
        } else if active_opt {
            Route::Optimized
        } else if plan.any_applied() {
            // ICs hold but the planner priced rectified cheaper: the
            // rectified program answers by choice, not degradation.
            Route::RectifiedFallback
        } else {
            Route::Direct
        };
        let planned_rows = edb_rows(&db);
        Ok(MaintainedQuery {
            db,
            plan,
            monitored,
            ic_ok,
            active,
            on_optimized,
            active_opt,
            route,
            edb_stats,
            choice,
            planned_rows,
            replans: 1,
        })
    }

    /// True when total EDB rows have drifted past 2× (either direction)
    /// since the planner last ran — large transactions can invert the
    /// cost ranking, so the next update re-consults.
    fn stats_drifted(&self) -> bool {
        let rows = edb_rows(&self.db);
        self.planned_rows > 0
            && (rows > self.planned_rows.saturating_mul(2) || rows < self.planned_rows / 2)
    }

    /// Applies `tx` atomically and in place: DRed over-deletion on the
    /// pre-transaction state, the EDB update, the delta IC re-check, a
    /// route transition if the monitored constraints changed truth
    /// value, and incremental (or rebuild) maintenance of the active
    /// materialization. On error everything is undone: database,
    /// materialization and monitor state are as before the call.
    pub fn apply(
        &mut self,
        tx: &Tx,
        budget: Budget,
        cancel: Option<CancelToken>,
    ) -> Result<UpdateOutcome, EngineError> {
        let start = Instant::now();
        let doomed = self
            .active
            .over_delete(&self.db, tx, budget, cancel.as_ref())?;
        let delta = self.db.apply(tx);
        match self.advance(&delta, doomed, budget, cancel, start) {
            Ok(out) => {
                self.db.compact_sparse();
                Ok(out)
            }
            Err(e) => {
                self.db.undo(&delta);
                Err(e)
            }
        }
    }

    /// Everything [`MaintainedQuery::apply`] does once `delta` is
    /// applied to the database. A failing step leaves the
    /// materialization as it was ([`Materialized::apply_delta`] undoes
    /// itself; a rebuild replaces it only when built) and nothing of the
    /// monitor state is written before the last fallible step — so the
    /// caller's only duty on error is to undo the database.
    fn advance(
        &mut self,
        delta: &TxDelta,
        doomed: Doomed,
        budget: Budget,
        cancel: Option<CancelToken>,
        start: Instant,
    ) -> Result<UpdateOutcome, EngineError> {
        // Monitor pass: constraints that held get the delta-driven
        // check; constraints already broken need the full check (any
        // delta class can repair a violation).
        let mut ic_ok = Vec::with_capacity(self.monitored.len());
        for (ic, &was_ok) in self.monitored.iter().zip(&self.ic_ok) {
            ic_ok.push(if was_ok {
                ic_still_satisfied(&self.db, delta, ic)?
            } else {
                self.db.satisfies(ic)
            });
        }
        let now_ok = ic_ok.iter().all(|&b| b);
        let route = if now_ok {
            Route::IncrementalOptimized
        } else {
            Route::IncrementalInvalidated
        };

        // IC state unchanged: maintain the active materialization.
        // Violations cleared: the residue-pushed program is sound again;
        // its cached results were discarded at invalidation, so a switch
        // to it rebuilds from scratch. Newly violated: the optimized
        // materialization's cached relations may be unsound on the
        // updated database — invalidate them and re-answer from the
        // rectified program. Either transition re-consults the planner
        // among the sound set (fresh estimates even when only the
        // rectified program is sound), and staying on the program the
        // planner had already picked just maintains it.
        let mut plan_commit = None;
        let mut want_opt = self.active_opt;
        if now_ok != self.on_optimized {
            let (kind, choice) = plan_route(&self.db, &self.plan, &mut self.edb_stats, now_ok);
            plan_commit = Some((choice, edb_rows(&self.db)));
            want_opt = now_ok && kind == AlternativeKind::ResiduePushed;
        }
        let mut rebuilt = want_opt != self.active_opt;
        let stats = if rebuilt {
            let program = if want_opt {
                &self.plan.program
            } else {
                &self.plan.rectified
            };
            let next = Materialized::new(&self.db, program)?;
            let stats = rebuild_stats(&next, start);
            self.active = next;
            self.active_opt = want_opt;
            stats
        } else {
            self.active
                .apply_delta(&self.db, delta, doomed, budget, cancel)?
        };

        self.ic_ok = ic_ok;
        self.on_optimized = now_ok;
        self.route = route;
        let mut replanned = plan_commit.is_some();
        if let Some((choice, rows)) = plan_commit {
            if choice.is_some() {
                self.choice = choice;
            }
            self.planned_rows = rows;
            self.replans += 1;
        } else {
            (replanned, rebuilt) = self.drift_replan(now_ok);
        }
        Ok(UpdateOutcome {
            route,
            stats,
            rebuilt,
            violated: self.violated(),
            replanned,
        })
    }

    /// Post-commit drift check: when total EDB rows moved past 2× since
    /// the last consultation, re-price the sound alternatives and — if
    /// the ranking inverted — switch the active materialization to the
    /// planner's new pick. The switch is best-effort: a rebuild failure
    /// keeps the current (still consistent) materialization.
    fn drift_replan(&mut self, ics_hold: bool) -> (bool, bool) {
        if !self.stats_drifted() {
            return (false, false);
        }
        let (kind, choice) = plan_route(&self.db, &self.plan, &mut self.edb_stats, ics_hold);
        if choice.is_some() {
            self.choice = choice;
        }
        self.planned_rows = edb_rows(&self.db);
        self.replans += 1;
        let want_opt = kind == AlternativeKind::ResiduePushed;
        let mut rebuilt = false;
        if want_opt != self.active_opt {
            let prog = if want_opt {
                &self.plan.program
            } else {
                &self.plan.rectified
            };
            if let Ok(next) = Materialized::new(&self.db, prog) {
                self.active = next;
                self.active_opt = want_opt;
                rebuilt = true;
            }
        }
        (true, rebuilt)
    }

    /// The current database.
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// The optimizer's plan.
    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    /// The route that answers queries right now.
    pub fn route(&self) -> Route {
        self.route
    }

    /// The cost planner's latest verdict (`None` when every pricing
    /// pass failed).
    pub fn route_choice(&self) -> Option<&RouteChoice> {
        self.choice.as_ref()
    }

    /// Planner consultations over this query's lifetime (initial
    /// materialization, route transitions, drift replans).
    pub fn replans(&self) -> u64 {
        self.replans
    }

    /// The generation-keyed EDB statistics cache the planner reads.
    pub fn edb_stats(&self) -> &EdbStats {
        &self.edb_stats
    }

    /// The constraints the monitor watches (those the optimizer's
    /// rewrites depend on).
    pub fn monitored(&self) -> &[Constraint] {
        &self.monitored
    }

    /// Indices of currently violated monitored constraints.
    pub fn violated(&self) -> Vec<usize> {
        self.ic_ok
            .iter()
            .enumerate()
            .filter_map(|(i, &ok)| (!ok).then_some(i))
            .collect()
    }

    /// True while every monitored constraint holds (the optimized route
    /// is live).
    pub fn on_optimized_route(&self) -> bool {
        self.on_optimized
    }

    /// The active materialization's IDB relations.
    pub fn idb(&self) -> &BTreeMap<Pred, Relation> {
        self.active.idb()
    }

    /// The active materialization's relation for `pred`.
    pub fn relation(&self, pred: impl Into<Pred>) -> Option<&Relation> {
        self.active.relation(pred)
    }

    /// Answers to a goal atom over the active materialization. Bound
    /// goal arguments probe a dictionary index ([`answer_goal`] on an
    /// O(1) snapshot of the relation) instead of filtering a full scan.
    pub fn answers(&self, goal: &Atom) -> Vec<Tuple> {
        let Some(rel) = self.active.relation(goal.pred) else {
            return Vec::new();
        };
        answer_goal(&rel.snapshot(), goal)
    }
}

/// Synthesizes counters for a from-scratch route rebuild.
fn rebuild_stats(next: &Materialized, start: Instant) -> UpdateStats {
    UpdateStats {
        from_scratch: true,
        rounds: next.initial_rounds(),
        elapsed_ms: start.elapsed().as_millis() as u64,
        ..UpdateStats::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semrec_datalog::parser::parse_unit;
    use semrec_engine::int_tuple;

    /// The fanout scenario (guarded reachability): the IC lets the
    /// optimizer eliminate the `witness` subgoal from the recursion, so
    /// the optimized route's soundness depends on every edge target
    /// keeping a witness.
    fn fanout_query() -> MaintainedQuery {
        let unit = parse_unit(
            "reach(X, Y) :- edge(X, Y).\n\
             reach(X, Y) :- edge(X, Z), witness(Z, W), reach(Z, Y).\n\
             ic ic1: edge(X, Z) -> witness(Z, W).",
        )
        .expect("parse");
        let mut db = Database::new();
        for v in 0..6i64 {
            db.insert("edge", int_tuple(&[v, v + 1]));
        }
        for v in 0..=6i64 {
            db.insert("witness", int_tuple(&[v, v * 1000]));
        }
        let q = MaintainedQuery::new(
            db,
            &unit.program(),
            &unit.constraints,
            OptimizerConfig::default(),
            1,
        )
        .expect("maintained query");
        assert!(
            !q.monitored().is_empty(),
            "optimizer should eliminate the witness subgoal under ic1"
        );
        q
    }

    fn scratch_answers(q: &MaintainedQuery, goal: &Atom) -> Vec<Tuple> {
        let res = semrec_engine::evaluate(
            q.db(),
            &q.plan().rectified,
            semrec_engine::Strategy::SemiNaive,
        )
        .expect("scratch eval");
        let mut a = res.answers(goal);
        a.sort();
        a
    }

    fn goal(src: &str) -> Atom {
        semrec_datalog::parser::parse_atom(src).expect("goal parse")
    }

    #[test]
    fn clean_inserts_stay_on_optimized_route() {
        let mut q = fanout_query();
        assert_eq!(q.route(), Route::Optimized);
        assert!(q.on_optimized_route());
        // Extend the chain with a witnessed node: the IC keeps holding.
        let mut tx = Tx::new();
        tx.insert("edge", int_tuple(&[6, 7]));
        tx.insert("witness", int_tuple(&[7, 7000]));
        let out = q.apply(&tx, Budget::unlimited(), None).expect("apply");
        assert_eq!(out.route, Route::IncrementalOptimized);
        assert!(!out.rebuilt);
        assert!(out.violated.is_empty());
        assert!(!out.stats.from_scratch);
        let g = goal("reach(0, Y)");
        let mut got = q.answers(&g);
        got.sort();
        assert_eq!(got, scratch_answers(&q, &g));
        assert!(got.contains(&int_tuple(&[0, 7])));
    }

    #[test]
    fn violating_insert_invalidates_then_recovers() {
        let mut q = fanout_query();
        let g = goal("reach(0, Y)");

        // Insert an edge to a witness-less node: ic1 breaks, the
        // optimized materialization is invalidated, and the rectified
        // program answers (it still sees the new edge).
        let mut tx = Tx::new();
        tx.insert("edge", int_tuple(&[2, 50]));
        let out = q.apply(&tx, Budget::unlimited(), None).expect("apply");
        assert_eq!(out.route, Route::IncrementalInvalidated);
        assert!(out.rebuilt);
        assert_eq!(out.violated, vec![0]);
        let mut got = q.answers(&g);
        got.sort();
        assert_eq!(got, scratch_answers(&q, &g));
        assert!(got.contains(&int_tuple(&[0, 50])));

        // While violated, further updates maintain the rectified
        // materialization incrementally. The optimized program would
        // (unsoundly) recurse through the witness-less node 50 and
        // derive reach(0, 60); the rectified route must not.
        let mut tx = Tx::new();
        tx.insert("edge", int_tuple(&[50, 60]));
        let out = q.apply(&tx, Budget::unlimited(), None).expect("apply");
        assert_eq!(out.route, Route::IncrementalInvalidated);
        assert!(!out.rebuilt);
        let mut got = q.answers(&g);
        got.sort();
        assert_eq!(got, scratch_answers(&q, &g));
        assert!(!got.contains(&int_tuple(&[0, 60])));

        // Deleting the offending edges clears the violation; the
        // optimized route is rebuilt and answering again.
        let mut tx = Tx::new();
        tx.delete("edge", int_tuple(&[2, 50]));
        tx.delete("edge", int_tuple(&[50, 60]));
        let out = q.apply(&tx, Budget::unlimited(), None).expect("apply");
        assert_eq!(out.route, Route::IncrementalOptimized);
        assert!(out.rebuilt);
        assert!(out.violated.is_empty());
        assert!(q.on_optimized_route());
        let mut got = q.answers(&g);
        got.sort();
        assert_eq!(got, scratch_answers(&q, &g));
        assert!(!got.contains(&int_tuple(&[0, 50])));
    }

    #[test]
    fn budget_error_rolls_back_monitor_and_database() {
        let mut q = fanout_query();
        let before_edges = q.db().get("edge".into()).map(|r| r.len()).unwrap_or(0);
        let before = q.answers(&goal("reach(0, Y)")).len();
        let mut tx = Tx::new();
        tx.insert("edge", int_tuple(&[6, 7]));
        tx.insert("witness", int_tuple(&[7, 7000]));
        let err = q
            .apply(&tx, Budget::unlimited().with_max_iterations(0), None)
            .expect_err("zero iteration budget must fail");
        assert!(matches!(err, EngineError::IterationLimit(_)));
        assert_eq!(
            q.db().get("edge".into()).map(|r| r.len()).unwrap_or(0),
            before_edges
        );
        assert_eq!(q.route(), Route::Optimized);
        assert!(q.violated().is_empty());
        assert_eq!(q.answers(&goal("reach(0, Y)")).len(), before);
    }

    /// The delete twin: the tx tombstones EDB rows and a dozen `reach`
    /// rows, re-derives, and trips its row budget some rounds into the
    /// propagation — everything it did in place must be undone.
    #[test]
    fn budget_error_mid_propagation_undoes_deletes_and_appends() {
        let mut q = fanout_query();
        let g = goal("reach(X, Y)");
        let state = |q: &MaintainedQuery| {
            let rels = q.db().iter().chain(q.idb().iter().map(|(&p, r)| (p, r)));
            let tuples: Vec<_> = rels.map(|(p, r)| (p, r.sorted_tuples())).collect();
            (tuples, q.route(), q.violated(), q.on_optimized_route())
        };
        let before = state(&q);
        assert_eq!(q.relation("reach").unwrap().len(), 21);

        // Reroute 2 -> 3 through a new node; and delete an edge only to
        // re-insert it beside a chain extension. Both end at 28 rows.
        let mut reroute = Tx::new();
        reroute.delete("edge", int_tuple(&[2, 3]));
        reroute.insert("edge", int_tuple(&[2, 10]));
        reroute.insert("edge", int_tuple(&[10, 3]));
        reroute.insert("witness", int_tuple(&[10, 10_000]));
        let mut reinsert = Tx::new();
        reinsert.delete("edge", int_tuple(&[3, 4]));
        reinsert.delete("witness", int_tuple(&[4, 4000]));
        reinsert.insert("edge", int_tuple(&[3, 4]));
        reinsert.insert("witness", int_tuple(&[4, 4000]));
        reinsert.insert("edge", int_tuple(&[6, 7]));
        reinsert.insert("witness", int_tuple(&[7, 7000]));
        for tx in [&reroute, &reinsert] {
            let err = q
                .apply(tx, Budget::unlimited().with_max_idb_rows(21), None)
                .expect_err("28 rows do not fit a budget of 21");
            assert!(
                matches!(err, EngineError::BudgetExceeded { used, .. } if used > 21),
                "{err:?}"
            );
            assert_eq!(state(&q), before);
            for (p, rel) in q.db().iter().chain(q.idb().iter().map(|(&p, r)| (p, r))) {
                rel.check_invariant()
                    .unwrap_or_else(|e| panic!("{p} after rollback: {e}"));
                assert!(!rel.has_tombstones(), "{p}: every tombstone revived");
            }
            let mut got = q.answers(&g);
            got.sort();
            assert_eq!(got, scratch_answers(&q, &g));
        }
        // The same transactions commit once the budget allows.
        for (tx, rows) in [(&reroute, 28), (&reinsert, 36)] {
            let out = q.apply(tx, Budget::unlimited(), None).expect("apply");
            assert_eq!(out.route, Route::IncrementalOptimized);
            assert!(out.stats.over_deleted >= 12 && !out.rebuilt);
            let mut got = q.answers(&g);
            got.sort();
            assert_eq!(got, scratch_answers(&q, &g));
            assert_eq!(got.len(), rows);
        }
    }
}
