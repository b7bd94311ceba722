//! Residue-guarded maintenance of an optimized query across EDB updates.
//!
//! The optimizer's output is only equivalent to the rectified program on
//! databases that satisfy the integrity constraints whose residues it
//! pushed. A [`MaintainedQuery`] therefore pairs the incremental engine
//! ([`Materialized`]) with an **IC monitor** scoped to exactly those
//! constraints:
//!
//! - While every monitored IC holds, each transaction is absorbed by
//!   delta propagation / DRed on the materialization of the cost
//!   planner's pick between the *optimized* and the rectified program
//!   ([`Route::IncrementalOptimized`]).
//! - The moment a transaction breaks a monitored IC, the optimized
//!   materialization is invalidated — its cached relations may now be
//!   unsound — and the query is re-answered from the *rectified*
//!   program ([`Route::IncrementalInvalidated`]), maintained
//!   incrementally while the broken constraints are re-checked in full.
//! - When the violations clear, the planner picks between both again,
//!   each sound program compiled once: the pick's priced plans run.
//!
//! The monitor is delta-driven: each constraint is compiled once into
//! denial rules on the engine's rule executor (`semrec_engine::incr::IcCheck`),
//! and one that held before the transaction is re-checked only against
//! bindings the transaction's effective delta can have created, not by
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
use semrec_engine::eval::scan_goal;
use semrec_engine::incr::{Doomed, IcCheck, TxDelta};
use semrec_engine::{
    AlternativeKind, Budget, CancelToken, CostMemo, Database, EdbStats, EngineError, Materialized,
    Prepared, Relation, Route, RouteChoice, Stats, Tuple, Tx, UpdateStats,
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
    /// Their denial rules, compiled once, parallel to `monitored`.
    checks: Vec<IcCheck>,
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

/// One planner consultation: whether it picked the residue-pushed
/// program, its verdict (`None` when no sound program compiled and the
/// pick is the IC-driven default) and the EDB rows it read.
struct Consult {
    opt: bool,
    choice: Option<RouteChoice>,
    rows: u64,
}

/// Prices the sound programs of `plan` on `db`, each compiled once, and
/// materializes the pick from those plans unless `live` (the live one is
/// the residue-pushed program) already is it. Under a violation
/// (`ics_hold` false) only the rectified program is sound; otherwise the
/// residue-pushed program (if the optimizer applied anything) competes.
fn switch_route(
    db: &Database,
    plan: &Plan,
    stats: &mut EdbStats,
    ics_hold: bool,
    live: Option<bool>,
) -> (Consult, Option<Result<Materialized, EngineError>>) {
    let start = Instant::now();
    let pushed = ics_hold && plan.any_applied();
    let sound = [
        (pushed, AlternativeKind::ResiduePushed, &plan.program),
        (true, AlternativeKind::Rectified, &plan.rectified),
    ];
    let (mut compiled, mut err) = (Vec::new(), None);
    for (_, kind, program) in sound.into_iter().filter(|s| s.0) {
        match Prepared::compile(db, program, &[], &BTreeMap::new()) {
            Ok(plans) => compiled.push((kind, plans)),
            Err(e) => err = err.or(Some(e)),
        }
    }
    let (opt, choice, plans) = match CostMemo::price(db, stats, compiled, start) {
        Some(memo) => {
            let (choice, best) = (memo.choice(), memo.best().kind);
            let mut alts = memo.alternatives.into_iter();
            let plans = alts.find(|a| a.kind == best).expect("the pick").plans;
            let opt = best == AlternativeKind::ResiduePushed;
            (opt, Some(choice), Ok(plans))
        }
        None => (pushed, None, Err(err.expect("a sound program failed"))),
    };
    let next = (live != Some(opt)).then(|| plans.and_then(|p| Materialized::adopt(db, p)));
    let rows = edb_rows(db);
    (Consult { opt, choice, rows }, next)
}

/// The constraints whose residues the plan actually pushed, deduplicated.
fn monitored_ics(plan: &Plan) -> Vec<Constraint> {
    let mut out: Vec<Constraint> = Vec::new();
    for a in &plan.applied {
        if !out.contains(&*a.residue.ic) {
            out.push(Constraint::clone(&a.residue.ic));
        }
    }
    out
}

impl MaintainedQuery {
    /// [`MaintainedQuery::from_plan`] of the optimizer's plan of `program`
    /// under `ics` and `config`. The trailing `usize` is ignored: it is the
    /// signature `benchmark/src/bin/layers.rs` calls (benchmark/README.md,
    /// *Frozen surfaces (b)*), to be dropped by the next benchmark change.
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
        Ok(MaintainedQuery::from_plan(db, plan)?)
    }

    /// Materializes over `db` the route of `plan` that is sound: the
    /// optimized program if every monitored IC holds, else the rectified.
    pub fn from_plan(db: Database, plan: Plan) -> Result<MaintainedQuery, EngineError> {
        let monitored = monitored_ics(&plan);
        let checks: Vec<IcCheck> = monitored.iter().map(|ic| IcCheck::new(&db, ic)).collect();
        let unlimited = Budget::unlimited();
        let holds = |c: &IcCheck| c.holds(&db, None, &unlimited, None).map(|(ok, _)| ok);
        let ic_ok = checks.iter().map(holds).collect::<Result<Vec<bool>, _>>()?;
        let on_optimized = ic_ok.iter().all(|&b| b);
        // Initial consultation: among the sound programs, materialize
        // the planner's pick.
        let mut edb_stats = EdbStats::new();
        let (consult, active) = switch_route(&db, &plan, &mut edb_stats, on_optimized, None);
        let active = active.expect("nothing is live yet")?;
        let route = if !on_optimized {
            Route::RectifiedFallback
        } else if consult.opt {
            Route::Optimized
        } else if plan.any_applied() {
            // ICs hold but the planner priced rectified cheaper: the
            // rectified program answers by choice, not degradation.
            Route::RectifiedFallback
        } else {
            Route::Direct
        };
        Ok(MaintainedQuery {
            db,
            plan,
            monitored,
            checks,
            ic_ok,
            active,
            on_optimized,
            active_opt: consult.opt,
            route,
            edb_stats,
            choice: consult.choice,
            planned_rows: consult.rows,
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
        let mut ic_stats = Stats::default();
        for (check, &was_ok) in self.checks.iter().zip(&self.ic_ok) {
            let delta = was_ok.then_some(delta);
            let (ok, stats) = check.holds(&self.db, delta, &budget, cancel.as_ref())?;
            ic_ok.push(ok);
            ic_stats += stats;
        }
        let now_ok = ic_ok.iter().all(|&b| b);
        let route = if now_ok {
            Route::IncrementalOptimized
        } else {
            Route::IncrementalInvalidated
        };

        // IC state unchanged: maintain the live materialization. A
        // transition re-consults the planner among the sound set: newly
        // violated, the optimized relations may be unsound and only the
        // rectified program is; cleared, the residue-pushed program is
        // sound again, rebuilt from scratch if picked. A live pick is
        // just maintained.
        let live = Some(self.active_opt);
        let (consult, next) = (now_ok != self.on_optimized)
            .then(|| switch_route(&self.db, &self.plan, &mut self.edb_stats, now_ok, live))
            .unzip();
        let next = next.flatten().transpose()?;
        let mut stats = match &next {
            Some(next) => rebuild_stats(next, start, doomed.stats()),
            None => (self.active).apply_delta(&self.db, delta, doomed, budget, cancel)?,
        };
        stats.stats += ic_stats;

        self.ic_ok = ic_ok;
        self.on_optimized = now_ok;
        self.route = route;
        let (replanned, rebuilt) = match consult {
            Some(consult) => (true, self.commit_route(consult, next)),
            None => self.drift_replan(now_ok),
        };
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
        let live = Some(self.active_opt);
        let (consult, next) =
            switch_route(&self.db, &self.plan, &mut self.edb_stats, ics_hold, live);
        (true, self.commit_route(consult, next.and_then(Result::ok)))
    }

    /// Records a consultation and, given `next` (its pick materialized),
    /// switches the live route to it: true when it switched.
    fn commit_route(&mut self, consult: Consult, next: Option<Materialized>) -> bool {
        let switched = next.is_some();
        if let Some(next) = next {
            self.active = next;
            self.active_opt = consult.opt;
        }
        if consult.choice.is_some() {
            self.choice = consult.choice;
        }
        self.planned_rows = consult.rows;
        self.replans += 1;
        switched
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

    /// Answers to a goal atom over the active materialization, by one
    /// filtered scan ([`scan_goal`]).
    pub fn answers(&self, goal: &Atom) -> Vec<Tuple> {
        self.active
            .relation(goal.pred)
            .map_or_else(Vec::new, |rel| scan_goal(rel, goal))
    }
}

/// Counters for a from-scratch route rebuild after an over-deletion.
fn rebuild_stats(next: &Materialized, start: Instant, stats: Stats) -> UpdateStats {
    UpdateStats {
        from_scratch: true,
        rounds: next.initial_rounds(),
        elapsed_ms: start.elapsed().as_millis() as u64,
        stats,
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

    /// Of many constraints only `u` rewrites anything — the non-recursive
    /// view, a one-rule block — so only `u` is monitored, and each commit
    /// re-checks it alone: inserts that break the other constraints leave
    /// the optimized route in place, one that breaks `u` does not.
    #[test]
    fn only_the_constraint_of_an_applied_one_rule_residue_is_monitored() {
        let unit = parse_unit(
            "v(X, Z) :- e(X, Z), w(Z, W).\n\
             r(X) :- a(X, Y), b(Y).\n\
             ic u: e(X, Z) -> w(Z, W).\n\
             ic k: e(X, Z) -> f(X).\n\
             ic h: e(X, X) -> .\n\
             ic s: a(X, Y) -> c(Y).\n\
             ic n: q(X), p(X) -> .",
        )
        .expect("parse");
        let mut db = Database::new();
        for v in 0..4i64 {
            db.insert("e", int_tuple(&[v, v + 1]));
            db.insert("w", int_tuple(&[v + 1, 0]));
            db.insert("f", int_tuple(&[v]));
        }
        let config = OptimizerConfig::default();
        let mut q = MaintainedQuery::new(db, &unit.program(), &unit.constraints, config, 1)
            .expect("maintained query");
        let names = |q: &MaintainedQuery| -> Vec<&str> {
            q.monitored()
                .iter()
                .map(|ic| ic.name.unwrap().as_str())
                .collect()
        };
        assert_eq!(names(&q), ["u"]);
        assert_eq!(q.route(), Route::Optimized);
        let g = goal("v(X, Z)");

        // e(7, 7) breaks h, e(8, 9) breaks k (no f(8)), a(1, 2) breaks s.
        let mut tx = Tx::new();
        tx.insert("e", int_tuple(&[7, 7]));
        tx.insert("w", int_tuple(&[7, 0]));
        tx.insert("e", int_tuple(&[8, 9]));
        tx.insert("w", int_tuple(&[9, 0]));
        tx.insert("a", int_tuple(&[1, 2]));
        let out = q.apply(&tx, Budget::unlimited(), None).expect("apply");
        assert_eq!(out.route, Route::IncrementalOptimized);
        assert!(out.violated.is_empty());
        assert_eq!((q.checks.len(), q.ic_ok.len()), (1, 1), "one IC re-checked");
        let mut got = q.answers(&g);
        got.sort();
        assert_eq!(got, scratch_answers(&q, &g));

        // e(5, 6) with no w(6, _) breaks u: the view answers from the
        // rectified program, which does not see (5, 6).
        let mut tx = Tx::new();
        tx.insert("e", int_tuple(&[5, 6]));
        let out = q.apply(&tx, Budget::unlimited(), None).expect("apply");
        assert_eq!(out.route, Route::IncrementalInvalidated);
        assert_eq!(out.violated, [0]);
        assert_eq!((q.checks.len(), q.ic_ok.len()), (1, 1), "one IC re-checked");
        let mut got = q.answers(&g);
        got.sort();
        assert_eq!(got, scratch_answers(&q, &g));
        assert!(!got.contains(&int_tuple(&[5, 6])));
    }
}
