//! The evaluation-based semantic optimization baseline (Chakravarthy,
//! Grant & Minker TODS'90; Lee & Han ICDE'88).
//!
//! The evaluation paradigm "applies the residues to the subqueries being
//! computed in each iteration of the bottom-up evaluation" (§1). Two
//! consequences the paper contrasts against:
//!
//! 1. residues are computed w.r.t. *rules* (the per-iteration subqueries),
//!    not expansion sequences — so sequence-spanning optimizations like
//!    Examples 3.2/4.1/4.3 are simply out of reach;
//! 2. the residue computation and application happen at *run time*, every
//!    iteration, instead of once at compile time.
//!
//! [`evaluate_with_runtime_semantics`] models this honestly: each fixpoint
//! round recomputes the CGM rule-level residues (partial subsumption of the
//! expanded ICs against every rule), rewrites the rule set with the
//! directly-usable ones, recompiles it, and only then runs the round —
//! one [`Evaluator::run`] under a round cap raised by one each time. The
//! rewrite is a pure function of (program, ICs), so the recompiled plans
//! equal the running ones; the compile is the run-time work measured.
//! The reported [`BaselineOutcome`] separates optimization time from
//! evaluation work.

use semrec_core::occurs::IcIndex;
use semrec_core::optimizer::rule_level_rewrite_with;
use semrec_core::push::PushPolicy;
use semrec_datalog::constraint::Constraint;
use semrec_datalog::program::Program;
use semrec_engine::eval::{EvalResult, Evaluator, Strategy};
use semrec_engine::{Budget, Database, EngineError};
use std::time::{Duration, Instant};

/// The outcome of an evaluation-based optimized run.
#[derive(Debug)]
pub struct BaselineOutcome {
    /// The computed IDB and engine counters.
    pub result: EvalResult,
    /// Total time spent in per-iteration residue computation, rewriting,
    /// and plan recompilation — the run-time overhead the program-
    /// transformation approach avoids.
    pub optimization_time: Duration,
    /// Number of fixpoint rounds.
    pub rounds: u64,
    /// Number of (IC, rule) residue computations performed across rounds.
    pub residue_computations: u64,
    /// Number of rule-level optimizations that were applicable.
    pub rule_level_optimizations: usize,
}

/// Rewrites `program` with the directly-usable rule-level residues of
/// `ics`. Returns the rewritten program, the number of (IC, rule) residue
/// computations performed, and the number of optimizations applied.
pub fn rule_level_rewrite(program: &Program, ics: &[Constraint]) -> (Program, u64, usize) {
    rule_level_rewrite_with(program, &IcIndex::new(ics), &PushPolicy::default(), None)
}

/// Evaluates `program` with per-iteration (run-time) semantic optimization.
pub fn evaluate_with_runtime_semantics(
    db: &Database,
    program: &Program,
    ics: &[Constraint],
) -> Result<BaselineOutcome, EngineError> {
    let mut optimization_time = Duration::ZERO;
    let mut residue_computations = 0u64;
    let mut rule_level_optimizations = 0usize;

    // Initial rewrite + engine setup.
    let t0 = Instant::now();
    let (rewritten, comps, opts) = rule_level_rewrite(program, ics);
    residue_computations += comps;
    rule_level_optimizations = rule_level_optimizations.max(opts);
    let mut ev = Evaluator::new(db, &rewritten, Strategy::SemiNaive)?;
    optimization_time += t0.elapsed();

    let mut rounds = 0u64;
    loop {
        rounds += 1;
        // One more round: the run stops at the raised cap, or earlier at
        // the fixpoint.
        let cap = Budget::unlimited().with_max_iterations(ev.rounds() + 1);
        ev = ev.with_budget(cap);
        match ev.run() {
            Ok(()) => break,
            Err(EngineError::IterationLimit(_)) => {}
            Err(e) => return Err(e),
        }
        // The evaluation paradigm redoes the residue work against the next
        // round's subqueries; the subqueries repeat for linear rules, so
        // this is pure overhead — which is the point of the comparison.
        let t = Instant::now();
        let (rewritten, comps, opts) = rule_level_rewrite(program, ics);
        residue_computations += comps;
        rule_level_optimizations = rule_level_optimizations.max(opts);
        drop(Evaluator::new(db, &rewritten, Strategy::SemiNaive)?);
        optimization_time += t.elapsed();
    }

    Ok(BaselineOutcome {
        result: ev.finish(),
        optimization_time,
        rounds,
        residue_computations,
        rule_level_optimizations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use semrec_datalog::parser::parse_unit;
    use semrec_engine::evaluate;

    #[test]
    fn baseline_matches_plain_evaluation() {
        let unit = parse_unit(
            "anc(X, Xa, Y, Ya) :- par(X, Xa, Y, Ya).
             anc(X, Xa, Y, Ya) :- anc(X, Xa, Z, Za), par(Z, Za, Y, Ya).
             ic: Ya <= 50, par(Z, Za, Y, Ya), par(Z1, Z1a, Z, Za), par(Z2, Z2a, Z1, Z1a) -> .",
        )
        .unwrap();
        let program = unit.program();
        let mut db = Database::new();
        for g in 0..5i64 {
            db.insert(
                "par",
                vec![
                    semrec_datalog::Value::Int(g),
                    semrec_datalog::Value::Int(20 + g * 30),
                    semrec_datalog::Value::Int(g + 1),
                    semrec_datalog::Value::Int(20 + (g + 1) * 30),
                ],
            );
        }
        let base = evaluate(&db, &program, Strategy::SemiNaive).unwrap();
        let rt = evaluate_with_runtime_semantics(&db, &program, &unit.constraints).unwrap();
        assert_eq!(
            base.relation("anc").unwrap().sorted_tuples(),
            rt.result.relation("anc").unwrap().sorted_tuples()
        );
        // Five generations: five deriving rounds and the empty one that
        // finds the fixpoint, each after a rewrite over both rules.
        assert_eq!(rt.rounds, 6);
        assert_eq!(rt.residue_computations, 12);
    }
}
