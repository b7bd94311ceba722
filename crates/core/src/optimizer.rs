//! The end-to-end compile-time pipeline: validate → rectify → detect
//! residues (Algorithm 3.1) → choose a sequence per recursive predicate →
//! push (isolate + optimize) → cleanup.

use crate::cleanup::IdbLiveness;
use crate::detect::{subgoal_preds, DetectStats, Detection, DetectionMethod, Detector};
use crate::occurs::IcIndex;
use crate::push::{replace_blocks, Applied, PushPolicy, Pusher, Skipped};
use semrec_datalog::analysis::{rectify, validate};
use semrec_datalog::atom::{Atom, Pred};
use semrec_datalog::constraint::Constraint;
use semrec_datalog::error::Error;
use semrec_datalog::program::Program;
use semrec_datalog::rule::Rule;
use semrec_engine::{AlternativeKind, CostMemo, EdbStats};
use std::collections::BTreeMap;
use std::fmt;

/// Configuration for [`Optimizer`].
#[derive(Clone, Debug)]
pub struct OptimizerConfig {
    /// How to detect residues.
    pub method: DetectionMethod,
    /// Padding depth for the usefulness search (see [`mod@crate::detect`]).
    pub pad: usize,
    /// Pushing policy (enabled optimizations, small relations).
    pub policy: PushPolicy,
    /// Run structural minimization ([`crate::minimize`]) on the optimized
    /// program (removes redundant atoms and subsumed rules).
    pub minimize: bool,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        OptimizerConfig {
            method: DetectionMethod::SdGraph,
            pad: 3,
            policy: PushPolicy::default(),
            minimize: false,
        }
    }
}

/// The semantic optimizer.
pub struct Optimizer {
    program: Program,
    ics: Vec<Constraint>,
    config: OptimizerConfig,
}

/// The outcome of optimization.
#[derive(Clone, Debug)]
pub struct Plan {
    /// The input program after rectification (the reference semantics).
    pub rectified: Program,
    /// The optimized program, equivalent to `rectified` on every database
    /// satisfying the constraints.
    pub program: Program,
    /// All detected residues, per predicate.
    pub detections: Vec<(Pred, Detection)>,
    /// What detecting them cost, in exact work counts.
    pub detect_stats: DetectStats,
    /// The sequence chosen for each optimized predicate.
    pub chosen: BTreeMap<Pred, Vec<usize>>,
    /// Successfully pushed residues.
    pub applied: Vec<Applied>,
    /// Residues that were detected but not pushed, with reasons.
    pub skipped: Vec<Skipped>,
    /// Number of rule-level (non-recursive) optimizations applied.
    pub rule_level: usize,
}

impl Plan {
    /// True if at least one optimization was applied.
    pub fn any_applied(&self) -> bool {
        !self.applied.is_empty() || self.rule_level > 0
    }
}

impl fmt::Display for Plan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "— optimization plan —")?;
        for (p, seq) in &self.chosen {
            writeln!(f, "predicate {p}: isolated sequence {seq:?}")?;
        }
        for a in &self.applied {
            writeln!(f, "applied {}: {} [{}]", a.kind, a.residue, a.note)?;
        }
        for s in &self.skipped {
            writeln!(f, "skipped {}: {}", s.residue, s.reason)?;
        }
        if self.rule_level > 0 {
            writeln!(
                f,
                "applied {} rule-level optimization(s) to non-recursive rules",
                self.rule_level
            )?;
        }
        writeln!(f, "— optimized program —")?;
        write!(f, "{}", self.program)
    }
}

impl Optimizer {
    /// Creates an optimizer for `program` (validated lazily in [`run`]).
    ///
    /// [`run`]: Optimizer::run
    pub fn new(program: &Program) -> Optimizer {
        Optimizer {
            program: program.clone(),
            ics: Vec::new(),
            config: OptimizerConfig::default(),
        }
    }

    /// Adds integrity constraints.
    pub fn with_constraints(mut self, ics: &[Constraint]) -> Self {
        self.ics.extend(ics.iter().cloned());
        self
    }

    /// Overrides the configuration.
    pub fn with_config(mut self, config: OptimizerConfig) -> Self {
        self.config = config;
        self
    }

    /// Runs the pipeline. Work is linear in rules + constraints: what
    /// depends on the whole program (validation, the constraint index,
    /// IDB liveness) is done once, what depends on a recursive predicate
    /// (SD-graph, push, cleanup) once per predicate, and detection itself
    /// only for the constraints whose body predicates all occur among
    /// that predicate's subgoals.
    pub fn run(self) -> Result<Plan, Error> {
        #[cfg(feature = "failpoints")]
        semrec_engine::failpoint::hit("optimizer.push").map_err(Error::analysis)?;
        validate(&self.program, &self.ics)?;
        let (rectified, _) = rectify(&self.program);
        let infos = validate(&rectified, &self.ics)?;
        let config = &self.config;
        let policy = &config.policy;

        let index = IcIndex::new(&self.ics);
        let liveness = IdbLiveness::new(&rectified);
        let mut stats = DetectStats {
            ics: self.ics.len(),
            ..DetectStats::default()
        };
        let mut detections: Vec<(Pred, Detection)> = Vec::new();
        let mut applied = Vec::new();
        let mut skipped = Vec::new();
        let mut chosen: BTreeMap<Pred, Vec<usize>> = BTreeMap::new();
        let mut per_pred_rules: BTreeMap<Pred, Vec<Rule>> = BTreeMap::new();

        for info in &infos {
            let candidates = index.candidates(&subgoal_preds(&rectified, info));
            if candidates.is_empty() {
                continue;
            }
            stats.candidate_pairs += candidates.len();
            let mut detector =
                Detector::new(&rectified, info, config.method, config.pad, &mut stats);
            let first = detections.len();
            for ic in candidates {
                for d in detector.detect(ic)? {
                    detections.push((info.pred, d));
                }
            }
            // This predicate's detections: score per sequence, choose, push.
            let mine: Vec<&Detection> = detections[first..].iter().map(|(_, d)| d).collect();
            if mine.is_empty() {
                continue;
            }
            let Some(seq) = choose_sequence(&mine, policy) else {
                // Nothing pushable: record all as skipped via a dry run on
                // their own sequences.
                for d in mine {
                    let u = detector.unfolding(&d.residue.seq)?;
                    let mut pusher = Pusher::new(&rectified, info, u);
                    pusher.push(&d.residue, policy);
                    skipped.extend(pusher.outcomes().1.iter().cloned());
                }
                continue;
            };
            let u = detector.unfolding(&seq)?;
            let mut pusher = Pusher::new(&rectified, info, u);
            for d in &mine {
                if d.residue.seq == seq {
                    pusher.push(&d.residue, policy);
                }
            }
            let res = pusher.finish();
            skipped.extend(res.skipped);
            if res.applied.is_empty() {
                continue;
            }
            chosen.insert(info.pred, seq);
            applied.extend(res.applied);
            per_pred_rules.insert(info.pred, liveness.clean_block(info.pred, res.rules));
        }

        // Merge: untouched rules + per-predicate transformed structures.
        let program = replace_blocks(&rectified, per_pred_rules);

        // Non-recursive rules need no isolation: push rule-level residues
        // (the k = 1 case, e.g. Example 4.2's eval_support rule) directly,
        // at compile time.
        let recursive: std::collections::BTreeSet<Pred> = infos.iter().map(|i| i.pred).collect();
        let non_recursive: std::collections::BTreeSet<Pred> = program
            .idb_preds()
            .into_iter()
            .filter(|p| !recursive.contains(p) && !p.name().contains('@'))
            .collect();
        let (program, _, rule_level_applied) = crate::baseline::rule_level_rewrite_with(
            &program,
            &index,
            policy,
            Some(&non_recursive),
        );
        let program = if config.minimize {
            crate::minimize::minimize_program(&program)
        } else {
            program
        };

        Ok(Plan {
            rectified,
            program,
            detections,
            detect_stats: stats,
            chosen,
            applied,
            skipped,
            rule_level: rule_level_applied,
        })
    }
}

/// Scores sequences by the optimizations their residues could drive and
/// returns the best one (ties: shorter, then lexicographically smaller).
pub fn choose_sequence(detections: &[&Detection], policy: &PushPolicy) -> Option<Vec<usize>> {
    let mut scores: BTreeMap<Vec<usize>, i64> = BTreeMap::new();
    for d in detections {
        let r = &d.residue;
        let score = match &r.head {
            crate::residue::ResidueHead::Null => {
                if policy.pruning {
                    3
                } else {
                    0
                }
            }
            crate::residue::ResidueHead::Atom(a) => {
                if r.useful_at.is_some() && policy.elimination {
                    2
                } else if policy.small_relations.contains(&a.pred) && policy.introduction {
                    1
                } else {
                    0
                }
            }
            crate::residue::ResidueHead::Cmp(_) => {
                if policy.introduction {
                    1
                } else {
                    0
                }
            }
        };
        *scores.entry(r.seq.clone()).or_insert(0) += score;
    }
    scores
        .into_iter()
        .filter(|(_, s)| *s > 0)
        .max_by(|(sa, a), (sb, b)| {
            // Shortest sequence first: a residue on a short sequence is
            // more general (it optimizes every unrolling that embeds it)
            // and pays less commitment overhead. Then higher score, then
            // lexicographically larger (prefers all-recursive sequences
            // over exit-closed variants of the same length — they cover
            // arbitrarily deep trees rather than a single depth).
            sb.len().cmp(&sa.len()).then(a.cmp(b)).then(sa.cmp(sb))
        })
        .map(|(seq, _)| seq)
}

/// The outcome of a governed, degradation-aware evaluation: the result
/// (whose [`Route`](semrec_engine::Route) records which program
/// answered) plus, when the optimized route was abandoned, why.
#[derive(Debug)]
pub struct GovernedOutcome {
    /// The answer, from whichever route produced it.
    pub result: semrec_engine::EvalResult,
    /// Why the optimized route did not answer (panic, optimizer error,
    /// or its budget slice running out), when degradation happened.
    pub degraded: Option<String>,
}

/// The rewrite alternatives the cost-based router prices for one query:
/// the program as written, its rectified normal form (when it differs),
/// the residue-pushed program (when the optimizer applied anything), and
/// — when a goal directs evaluation — the magic-sets rewriting. Returns
/// the alternatives plus, when a magic variant was enumerated, the
/// adorned predicate holding the goal's answers.
pub fn route_alternatives(
    program: &Program,
    plan: &Plan,
    goal: Option<&Atom>,
) -> (Vec<(AlternativeKind, Program)>, Option<Pred>) {
    let mut alts = vec![(AlternativeKind::Original, program.clone())];
    if plan.rectified != *program {
        alts.push((AlternativeKind::Rectified, plan.rectified.clone()));
    }
    if plan.any_applied() {
        alts.push((AlternativeKind::ResiduePushed, plan.program.clone()));
    }
    let mut magic_answer = None;
    if let Some(goal) = goal {
        // Magic prices only the goal-relevant subset; an unrewritable
        // program (negation, EDB goal) just isn't enumerated.
        if let Ok(m) = semrec_engine::magic::magic_rewrite(program, goal) {
            magic_answer = Some(m.answer_pred);
            alts.push((AlternativeKind::Magic, m.program));
        }
    }
    (alts, magic_answer)
}

/// Evaluates `program` under `budget` with the paper's semantic
/// optimization — degrading instead of dying. See [`evaluate_routed`];
/// this entry point routes without a goal (so no magic-sets
/// alternative is priced).
pub fn evaluate_governed(
    db: &semrec_engine::Database,
    program: &Program,
    ics: &[Constraint],
    config: OptimizerConfig,
    budget: semrec_engine::Budget,
    cancel: semrec_engine::CancelToken,
) -> Result<GovernedOutcome, semrec_engine::EngineError> {
    evaluate_routed(db, program, ics, config, budget, cancel, None)
}

/// The cost-routed, governed evaluation entry point. The optimizer runs
/// first (residue detection → isolation → push); its rewrite
/// alternatives are then priced by the [`CostMemo`] against the
/// database's statistics, and the *cheapest* alternative — not a fixed
/// ladder — runs under a slice of the budget: half the deadline when
/// one is set, so the fallback always has room to answer. If that route
/// panics, fails to compile, or exhausts its slice, the *rectified*
/// program — the reference semantics the optimization must preserve —
/// is evaluated under the remaining budget. Cancellation is honored,
/// never degraded around: a [`EngineError::Cancelled`] from either
/// route is final.
///
/// The planner's verdict rides on the result:
/// [`EvalResult::choice`](semrec_engine::EvalResult) records every
/// priced alternative and the runner-up, and `stats.plan_nanos` the
/// planning wall time. When pricing itself fails, the fixed ladder
/// (optimized-then-rectified) runs unchanged with no choice recorded.
///
/// [`EngineError::Cancelled`]: semrec_engine::EngineError::Cancelled
pub fn evaluate_routed(
    db: &semrec_engine::Database,
    program: &Program,
    ics: &[Constraint],
    config: OptimizerConfig,
    budget: semrec_engine::Budget,
    cancel: semrec_engine::CancelToken,
    goal: Option<&Atom>,
) -> Result<GovernedOutcome, semrec_engine::EngineError> {
    use semrec_engine::{EngineError, Route};
    use std::panic::{catch_unwind, AssertUnwindSafe};
    let start = std::time::Instant::now();

    // The chosen route's budget slice: half the deadline; row/byte
    // caps apply whole (they bound the same materialized IDB either way).
    let mut slice = budget;
    if let Some(d) = budget.deadline {
        slice.deadline = Some(d / 2);
    }

    let degraded: String;
    let attempt = catch_unwind(AssertUnwindSafe(|| {
        Optimizer::new(program)
            .with_constraints(ics)
            .with_config(config)
            .run()
    }));
    match attempt {
        Ok(Ok(plan)) => {
            let (alts, magic_answer) = route_alternatives(program, &plan, goal);
            let mut stats = EdbStats::new();
            let (run_program, kind, choice) = match CostMemo::build(db, &mut stats, alts) {
                Ok(memo) => {
                    let best = memo.best();
                    (best.program.clone(), best.kind, Some(memo.choice()))
                }
                // Pricing failed: the fixed ladder (optimized program
                // first) runs exactly as before cost routing existed.
                Err(_) => {
                    let kind = if plan.any_applied() {
                        AlternativeKind::ResiduePushed
                    } else {
                        AlternativeKind::Original
                    };
                    (plan.program.clone(), kind, None)
                }
            };
            match run_under(db, &run_program, slice, cancel.clone()) {
                Ok(mut result) => {
                    result.route = kind.route();
                    if let Some(c) = choice {
                        result.stats.plan_nanos = c.plan_nanos;
                        result.choice = Some(c);
                    }
                    // Magic computes the goal's answers under the adorned
                    // predicate; surface them under the goal's own
                    // predicate so `answers(goal)` works unchanged.
                    if kind == AlternativeKind::Magic {
                        if let (Some(goal), Some(ans)) = (goal, magic_answer) {
                            if let Some(rel) = result.idb.get(&ans).cloned() {
                                result.idb.insert(goal.pred, rel);
                            }
                        }
                    }
                    return Ok(GovernedOutcome {
                        result,
                        degraded: None,
                    });
                }
                Err(EngineError::Cancelled) => return Err(EngineError::Cancelled),
                Err(e) => degraded = format!("{kind} route: {e}"),
            }
        }
        Ok(Err(e)) => degraded = format!("optimizer failed: {e}"),
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_owned())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_owned());
            degraded = format!("optimizer panicked: {msg}");
        }
    }

    // Fallback: the rectified program under whatever budget remains.
    let mut remaining = budget;
    if let Some(d) = budget.deadline {
        let left = d.saturating_sub(start.elapsed());
        if left.is_zero() {
            return Err(EngineError::DeadlineExceeded {
                elapsed_ms: start.elapsed().as_millis() as u64,
            });
        }
        remaining.deadline = Some(left);
    }
    let (rectified, _) = rectify(program);
    let mut result = run_under(db, &rectified, remaining, cancel)?;
    result.route = Route::RectifiedFallback;
    Ok(GovernedOutcome {
        result,
        degraded: Some(degraded),
    })
}

/// One budgeted evaluation; a panic inside it is caught and surfaced
/// as [`EngineError::WorkerPanicked`] so the degradation policy treats
/// it like any other failed route.
fn run_under(
    db: &semrec_engine::Database,
    program: &Program,
    budget: semrec_engine::Budget,
    cancel: semrec_engine::CancelToken,
) -> Result<semrec_engine::EvalResult, semrec_engine::EngineError> {
    use semrec_engine::{EngineError, Evaluator, Strategy};
    use std::panic::{catch_unwind, AssertUnwindSafe};
    let run = catch_unwind(AssertUnwindSafe(|| {
        let mut ev = Evaluator::new(db, program, Strategy::SemiNaive)?
            .with_budget(budget)
            .with_cancel_token(cancel);
        ev.run()?;
        Ok(ev.finish())
    }));
    match run {
        Ok(r) => r,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_owned())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_owned());
            Err(EngineError::WorkerPanicked {
                job: "eval".to_owned(),
                payload: msg,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semrec_datalog::parser::parse_unit;
    use semrec_engine::{evaluate, Database, Strategy};

    #[test]
    fn end_to_end_pruning_plan() {
        let unit = parse_unit(
            "anc(X, Xa, Y, Ya) :- par(X, Xa, Y, Ya).
             anc(X, Xa, Y, Ya) :- anc(X, Xa, Z, Za), par(Z, Za, Y, Ya).
             ic: Ya <= 50, par(Z, Za, Y, Ya), par(Z1, Z1a, Z, Za), par(Z2, Z2a, Z1, Z1a) -> .",
        )
        .unwrap();
        let plan = Optimizer::new(&unit.program())
            .with_constraints(&unit.constraints)
            .run()
            .unwrap();
        assert!(plan.any_applied());
        assert_eq!(plan.chosen[&Pred::new("anc")], vec![1, 1, 1]);
        assert!(plan.to_string().contains("subtree pruning"));
    }

    #[test]
    fn end_to_end_elimination_plan() {
        let unit = parse_unit(
            "eval(P, S, T) :- super(P, S, T).
             eval(P, S, T) :- works_with(P, P1), eval(P1, S, T), expert(P, F), field(T, F).
             ic: works_with(P2, P1), expert(P1, F1) -> expert(P2, F1).",
        )
        .unwrap();
        let plan = Optimizer::new(&unit.program())
            .with_constraints(&unit.constraints)
            .run()
            .unwrap();
        assert!(plan.any_applied());
        assert!(plan
            .applied
            .iter()
            .any(|a| a.kind == crate::push::OptKind::AtomElimination));
    }

    #[test]
    fn no_ics_means_no_change() {
        let unit =
            parse_unit("anc(X, Y) :- par(X, Y). anc(X, Y) :- anc(X, Z), par(Z, Y).").unwrap();
        let plan = Optimizer::new(&unit.program()).run().unwrap();
        assert!(!plan.any_applied());
        assert_eq!(plan.program, plan.rectified);
    }

    #[test]
    fn unrelated_ic_means_no_change() {
        let unit = parse_unit(
            "anc(X, Y) :- par(X, Y). anc(X, Y) :- anc(X, Z), par(Z, Y).
             ic: zig(A, B), zag(B, C) -> .",
        )
        .unwrap();
        let plan = Optimizer::new(&unit.program())
            .with_constraints(&unit.constraints)
            .run()
            .unwrap();
        assert!(!plan.any_applied());
    }

    #[test]
    fn optimized_program_evaluates_equivalently() {
        let unit = parse_unit(
            "anc(X, Xa, Y, Ya) :- par(X, Xa, Y, Ya).
             anc(X, Xa, Y, Ya) :- anc(X, Xa, Z, Za), par(Z, Za, Y, Ya).
             ic: Ya <= 50, par(Z, Za, Y, Ya), par(Z1, Z1a, Z, Za), par(Z2, Z2a, Z1, Z1a) -> .",
        )
        .unwrap();
        let plan = Optimizer::new(&unit.program())
            .with_constraints(&unit.constraints)
            .run()
            .unwrap();

        // An IC-satisfying chain of generations (ages +30 per generation).
        let mut db = Database::new();
        for g in 0..6i64 {
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
        for ic in &unit.constraints {
            assert!(db.satisfies(ic));
        }
        let base = evaluate(&db, &plan.rectified, Strategy::SemiNaive).unwrap();
        let opt = evaluate(&db, &plan.program, Strategy::SemiNaive).unwrap();
        assert_eq!(
            base.relation("anc").unwrap().sorted_tuples(),
            opt.relation("anc").unwrap().sorted_tuples()
        );
    }

    #[test]
    fn ablation_flags_disable_optimizations() {
        let unit = parse_unit(
            "anc(X, Xa, Y, Ya) :- par(X, Xa, Y, Ya).
             anc(X, Xa, Y, Ya) :- anc(X, Xa, Z, Za), par(Z, Za, Y, Ya).
             ic: Ya <= 50, par(Z, Za, Y, Ya), par(Z1, Z1a, Z, Za), par(Z2, Z2a, Z1, Z1a) -> .",
        )
        .unwrap();
        let mut config = OptimizerConfig::default();
        config.policy.pruning = false;
        let plan = Optimizer::new(&unit.program())
            .with_constraints(&unit.constraints)
            .with_config(config)
            .run()
            .unwrap();
        assert!(!plan.any_applied());
    }
}

#[cfg(test)]
mod minimize_integration_tests {
    use super::*;
    use semrec_datalog::parser::parse_unit;
    use semrec_engine::{evaluate, int_tuple, Database, Strategy};

    #[test]
    fn minimize_flag_tidies_the_output() {
        // A program with a redundant duplicate atom survives optimization
        // untouched without the flag and loses it with the flag.
        let unit = parse_unit(
            "t(X, Y) :- e(X, Y), e(X, Y).
             t(X, Y) :- e(X, Z), t(Z, Y).",
        )
        .unwrap();
        let plain = Optimizer::new(&unit.program()).run().unwrap();
        let config = OptimizerConfig {
            minimize: true,
            ..OptimizerConfig::default()
        };
        let tidy = Optimizer::new(&unit.program())
            .with_config(config)
            .run()
            .unwrap();
        let atoms = |p: &Program| -> usize { p.rules.iter().map(|r| r.body.len()).sum() };
        assert!(atoms(&tidy.program) < atoms(&plain.program));

        let mut db = Database::new();
        for (a, b) in [(0, 1), (1, 2), (2, 3)] {
            db.insert("e", int_tuple(&[a, b]));
        }
        let x = evaluate(&db, &plain.program, Strategy::SemiNaive).unwrap();
        let y = evaluate(&db, &tidy.program, Strategy::SemiNaive).unwrap();
        assert_eq!(
            x.relation("t").unwrap().sorted_tuples(),
            y.relation("t").unwrap().sorted_tuples()
        );
    }
}
