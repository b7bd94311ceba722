//! The plan-alternative memo: enumerated rewrite variants of one query,
//! priced by the estimator, with the cheapest selected as the route.
//!
//! The alternatives come from the semantic optimizer in `semrec-core`
//! (original / residue-pushed programs, plus magic sets and factoring of
//! the original and the pushed program for a goal; a maintained query
//! prices the rectified program as its sound one); this
//! module prices and ranks them, each compiled once by the evaluator's
//! compile step, and the plans priced are the plans the pick runs: batch
//! ones from [`CostMemo::build`], or a maintained query's incremental
//! ones via [`CostMemo::price`].

use super::estimate::{Estimator, ProgramEstimate};
use super::stats::EdbStats;
use crate::database::Database;
use crate::error::EngineError;
use crate::eval::{Prepared, Route};
use semrec_datalog::program::Program;
use std::collections::BTreeMap;
use std::time::Instant;

/// Which rewrite an alternative is.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AlternativeKind {
    /// The program as written.
    Original,
    /// The rectified program (equivalent normal form, no residues): the
    /// sound program of a maintained query under a violation.
    Rectified,
    /// The residue-pushed (semantically optimized) program.
    ResiduePushed,
    /// The magic-sets rewriting toward a goal, of the program as written
    /// or, when `pushed`, of the residue-pushed program (E7's
    /// composition).
    Magic {
        /// Rewrites the residue-pushed program.
        pushed: bool,
    },
    /// Factoring toward a goal (`magic::factor_rewrite`), of the program
    /// as written or, when `pushed`, of the residue-pushed program.
    Factored {
        /// Rewrites the residue-pushed program.
        pushed: bool,
    },
}

impl AlternativeKind {
    /// The [`Route`] label evaluation reports when this alternative
    /// answers.
    pub fn route(self) -> Route {
        match self {
            // A goal-directed rewrite reports the route of the program
            // it rewrote.
            AlternativeKind::Original
            | AlternativeKind::Magic { pushed: false }
            | AlternativeKind::Factored { pushed: false } => Route::Direct,
            AlternativeKind::Rectified => Route::RectifiedFallback,
            AlternativeKind::ResiduePushed
            | AlternativeKind::Magic { pushed: true }
            | AlternativeKind::Factored { pushed: true } => Route::Optimized,
        }
    }

    /// True for the rewrites that answer one goal only, under the
    /// adorned predicate `route_alternatives` names.
    pub fn is_goal_directed(self) -> bool {
        matches!(
            self,
            AlternativeKind::Magic { .. } | AlternativeKind::Factored { .. }
        )
    }

    /// Tie-break rank: among cost-indistinguishable alternatives the
    /// residue-pushed program wins (the paper's default), then the
    /// original, then rectified, then the goal-directed rewrites,
    /// factoring before magic and pushed before as written.
    fn rank(self) -> u8 {
        match self {
            AlternativeKind::ResiduePushed => 0,
            AlternativeKind::Original => 1,
            AlternativeKind::Rectified => 2,
            AlternativeKind::Factored { pushed: true } => 3,
            AlternativeKind::Factored { pushed: false } => 4,
            AlternativeKind::Magic { pushed: true } => 5,
            AlternativeKind::Magic { pushed: false } => 6,
        }
    }

    /// Stable lowercase name (JSON / `semrec explain`).
    pub fn name(self) -> &'static str {
        match self {
            AlternativeKind::Original => "original",
            AlternativeKind::Rectified => "rectified",
            AlternativeKind::ResiduePushed => "residue_pushed",
            AlternativeKind::Magic { pushed: false } => "magic",
            AlternativeKind::Magic { pushed: true } => "pushed_magic",
            AlternativeKind::Factored { pushed: false } => "factored",
            AlternativeKind::Factored { pushed: true } => "pushed_factored",
        }
    }
}

impl std::fmt::Display for AlternativeKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One priced alternative.
pub struct PlanAlternative {
    /// Which rewrite this is.
    pub kind: AlternativeKind,
    /// The program that would run.
    pub program: Program,
    /// Its estimate.
    pub estimate: ProgramEstimate,
    /// Its plans, compiled once against the memo's database: the pick
    /// runs them ([`crate::Evaluator::from_prepared_batch`]).
    pub plans: Prepared,
}

/// The memo: every enumerated alternative with its estimate, plus the
/// planning telemetry the bench gates read.
pub struct CostMemo {
    /// Priced alternatives, in enumeration order.
    pub alternatives: Vec<PlanAlternative>,
    /// Wall nanoseconds spent compiling and estimating all alternatives.
    pub plan_nanos: u64,
}

impl CostMemo {
    /// Compiles `alternatives` in batch mode and prices them against
    /// `db`'s statistics. An alternative that fails to compile (a rewrite
    /// with a rule the planner rejects) is dropped rather than failing
    /// the memo; an error is returned only when *no* alternative prices.
    pub fn build(
        db: &Database,
        stats: &mut EdbStats,
        alternatives: Vec<(AlternativeKind, Program)>,
    ) -> Result<CostMemo, EngineError> {
        let (start, mut compiled, mut last_err) = (Instant::now(), Vec::new(), None);
        for (kind, program) in alternatives {
            match Prepared::batch(db, program, &BTreeMap::new()) {
                Ok(plans) => compiled.push((kind, plans)),
                Err(e) => last_err = Some(e),
            }
        }
        CostMemo::price(db, stats, compiled, start).ok_or_else(|| {
            last_err.unwrap_or(EngineError::ArityMismatch(
                "cost memo built with no alternatives".to_owned(),
            ))
        })
    }

    /// Prices alternatives their caller compiled, in either mode, against
    /// `db`'s statistics, planning having begun at `start`; `None` when
    /// there are none.
    pub fn price(
        db: &Database,
        stats: &mut EdbStats,
        compiled: Vec<(AlternativeKind, Prepared)>,
        start: Instant,
    ) -> Option<CostMemo> {
        let mut est = Estimator::new(db, stats);
        let alternatives: Vec<PlanAlternative> = (compiled.into_iter())
            .map(|(kind, plans)| PlanAlternative {
                kind,
                estimate: est.estimate(&plans),
                program: plans.program().clone(),
                plans,
            })
            .collect();
        (!alternatives.is_empty()).then(|| CostMemo {
            alternatives,
            plan_nanos: start.elapsed().as_nanos() as u64,
        })
    }

    /// The cheapest alternative by estimated work; estimates within 0.1%
    /// of the minimum tie-break by [`AlternativeKind::rank`], so the
    /// choice is deterministic and prefers the paper's rewrite when cost
    /// cannot distinguish.
    pub fn best(&self) -> &PlanAlternative {
        let min = self
            .alternatives
            .iter()
            .map(|a| a.estimate.work)
            .fold(f64::INFINITY, f64::min);
        self.alternatives
            .iter()
            .filter(|a| a.estimate.work <= min * 1.001 + 1e-9)
            .min_by_key(|a| a.kind.rank())
            .expect("memo is non-empty")
    }

    /// The best alternative *other than* the chosen one (the choice the
    /// router would fall back to), if more than one was enumerated.
    pub fn runner_up(&self) -> Option<&PlanAlternative> {
        let chosen = self.best().kind;
        self.alternatives
            .iter()
            .filter(|a| a.kind != chosen)
            .min_by(|a, b| {
                a.estimate
                    .work
                    .partial_cmp(&b.estimate.work)
                    .expect("estimates are finite")
                    .then(a.kind.rank().cmp(&b.kind.rank()))
            })
    }

    /// The route-choice record evaluation results carry.
    pub fn choice(&self) -> RouteChoice {
        let best = self.best();
        RouteChoice {
            chosen: best.kind,
            predicted_rows: best.estimate.rows,
            predicted_work: best.estimate.work,
            runner_up: self.runner_up().map(|a| (a.kind, a.estimate.work)),
            plan_nanos: self.plan_nanos,
        }
    }
}

/// The planner's verdict, carried on [`crate::eval::EvalResult`] and
/// surfaced by `semrec explain` and the bench harness's routing section.
#[derive(Clone, Debug)]
pub struct RouteChoice {
    /// The selected alternative.
    pub chosen: AlternativeKind,
    /// Its estimated fixpoint cardinality (rows).
    pub predicted_rows: f64,
    /// Its estimated cost (cumulative rows touched).
    pub predicted_work: f64,
    /// The next-best alternative and its estimated cost.
    pub runner_up: Option<(AlternativeKind, f64)>,
    /// Wall nanoseconds the planning pass took.
    pub plan_nanos: u64,
}

impl RouteChoice {
    /// Misprediction ratio against a measured cardinality:
    /// `max(pred, actual) / min(pred, actual)` (1.0 = exact), infinite
    /// when one side is zero and the other is not.
    pub fn misprediction(&self, actual_rows: u64) -> f64 {
        let (p, a) = (self.predicted_rows, actual_rows as f64);
        if p <= 0.0 && a <= 0.0 {
            return 1.0;
        }
        (p.max(a)) / (p.min(a)).max(f64::MIN_POSITIVE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::int_tuple;

    fn parse_program(src: &str) -> Result<Program, semrec_datalog::Error> {
        Ok(semrec_datalog::parser::parse_unit(src)?.program())
    }

    fn chain_db(n: i64) -> Database {
        let mut db = Database::new();
        for i in 0..n {
            db.insert("edge", int_tuple(&[i, i + 1]));
            db.insert("witness", int_tuple(&[i + 1, i + 1]));
        }
        db
    }

    #[test]
    fn memo_prefers_the_cheaper_alternative() {
        // The "optimized" variant drops the witness probe: strictly less
        // work, so the memo must pick it.
        let original = parse_program(
            "reach(X, Y) :- edge(X, Y).\n\
             reach(X, Y) :- edge(X, Z), witness(Z, W), reach(Z, Y).",
        )
        .unwrap();
        let optimized = parse_program(
            "reach(X, Y) :- edge(X, Y).\n\
             reach(X, Y) :- edge(X, Z), reach(Z, Y).",
        )
        .unwrap();
        let db = chain_db(30);
        let mut stats = EdbStats::new();
        let memo = CostMemo::build(
            &db,
            &mut stats,
            vec![
                (AlternativeKind::Rectified, original),
                (AlternativeKind::ResiduePushed, optimized),
            ],
        )
        .unwrap();
        assert_eq!(memo.alternatives.len(), 2);
        let best = memo.best();
        assert_eq!(best.kind, AlternativeKind::ResiduePushed);
        assert!(best.estimate.work <= memo.runner_up().unwrap().estimate.work);
        let choice = memo.choice();
        assert_eq!(choice.chosen, AlternativeKind::ResiduePushed);
        assert!(choice.plan_nanos > 0);
        assert_eq!(
            choice.runner_up.map(|(k, _)| k),
            Some(AlternativeKind::Rectified)
        );
    }

    #[test]
    fn single_alternative_memo_has_no_runner_up() {
        let prog = parse_program("reach(X, Y) :- edge(X, Y).").unwrap();
        let db = chain_db(3);
        let mut stats = EdbStats::new();
        let memo =
            CostMemo::build(&db, &mut stats, vec![(AlternativeKind::Original, prog)]).unwrap();
        assert!(memo.runner_up().is_none());
        assert_eq!(memo.best().kind, AlternativeKind::Original);
    }

    #[test]
    fn misprediction_ratio_is_symmetric() {
        let c = RouteChoice {
            chosen: AlternativeKind::Original,
            predicted_rows: 200.0,
            predicted_work: 0.0,
            runner_up: None,
            plan_nanos: 0,
        };
        assert!((c.misprediction(100) - 2.0).abs() < 1e-9);
        let c2 = RouteChoice {
            predicted_rows: 50.0,
            ..c
        };
        assert!((c2.misprediction(100) - 2.0).abs() < 1e-9);
    }
}
