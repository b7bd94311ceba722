//! The end-to-end compile-time pipeline: validate → rectify → detect
//! residues (Algorithm 3.1) → choose a sequence per block (a recursive
//! predicate, or a non-recursive rule on its own) → push (isolate +
//! optimize) → cleanup.

use crate::cleanup::IdbLiveness;
use crate::detect::{
    blocks, subgoal_preds, DetectStats, DetectWork, DetectionMethod, Detector, PAD,
};
use crate::occurs::IcIndex;
use crate::push::{action, replace_blocks, Applied, OptKind, Pusher, Skipped};
use crate::residue::Residue;
use semrec_datalog::analysis::{rectify, validate, Checked};
use semrec_datalog::atom::{Atom, Pred};
use semrec_datalog::constraint::Constraint;
use semrec_datalog::error::Error;
use semrec_datalog::program::Program;
use semrec_datalog::rule::Rule;
use semrec_engine::{AlternativeKind, CostMemo, EdbStats};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

/// Configuration for [`Optimizer`].
#[derive(Clone, Debug)]
pub struct OptimizerConfig {
    /// How to detect residues.
    pub method: DetectionMethod,
    /// EDB predicates small enough for atom introduction (§4(2)).
    pub small_relations: BTreeSet<Pred>,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        OptimizerConfig {
            method: DetectionMethod::SdGraph,
            small_relations: BTreeSet::new(),
        }
    }
}

/// The semantic optimizer. It borrows its program and constraints: the
/// plan it returns owns only what the compile step built.
pub struct Optimizer<'a> {
    program: &'a Program,
    ics: &'a [Constraint],
    config: OptimizerConfig,
    /// [`check`](semrec_datalog::analysis::check) of `program` and
    /// `ics`, when the caller already has it.
    checked: Option<&'a Checked>,
}

/// The outcome of optimization.
#[derive(Clone, Debug)]
pub struct Plan {
    /// The input program after rectification (the reference semantics).
    pub rectified: Program,
    /// The optimized program, equivalent to `rectified` on every database
    /// satisfying the constraints.
    pub program: Program,
    /// All detected residues, with the predicate of their block.
    pub detections: Vec<(Pred, Residue)>,
    /// What detecting them cost, in exact work counts.
    pub detect_stats: DetectStats,
    /// The sequence chosen for each optimized recursive predicate.
    pub chosen: BTreeMap<Pred, Vec<usize>>,
    /// Successfully pushed residues.
    pub applied: Vec<Applied>,
    /// Residues that were detected but not pushed, with reasons.
    pub skipped: Vec<Skipped>,
}

impl Plan {
    /// True if at least one optimization was applied.
    pub fn any_applied(&self) -> bool {
        !self.applied.is_empty()
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
        writeln!(f, "— optimized program —")?;
        write!(f, "{}", self.program)
    }
}

impl<'a> Optimizer<'a> {
    /// Creates an optimizer for `program` (validated lazily in [`run`]).
    ///
    /// [`run`]: Optimizer::run
    pub fn new(program: &'a Program) -> Optimizer<'a> {
        Optimizer {
            program,
            ics: &[],
            config: OptimizerConfig::default(),
            checked: None,
        }
    }

    /// Reads the paper's class off `checked`, the caller's
    /// [`check`](semrec_datalog::analysis::check) of this program and
    /// these constraints, instead of judging them again.
    pub fn with_checked(mut self, checked: &'a Checked) -> Self {
        self.checked = Some(checked);
        self
    }

    /// Sets the integrity constraints.
    pub fn with_constraints(mut self, ics: &'a [Constraint]) -> Self {
        self.ics = ics;
        self
    }

    /// Overrides the configuration.
    pub fn with_config(mut self, config: OptimizerConfig) -> Self {
        self.config = config;
        self
    }

    /// Runs the pipeline. Work is linear in rules + constraints: what
    /// depends on the whole program (validation, unless the caller gave
    /// its judgment; the constraint index; IDB liveness) is done once,
    /// what depends on a block (SD-graph, push, cleanup) once per block,
    /// and detection itself only for the constraints whose body
    /// predicates all occur among that block's subgoals. A block is a
    /// recursive predicate, or a non-recursive rule on its own: the k = 1
    /// case (e.g. Example 4.2's `eval_support`), whose one sequence is the
    /// rule and whose push emits only the rule's rewritten copies.
    pub fn run(self) -> Result<Plan, Error> {
        #[cfg(feature = "failpoints")]
        semrec_engine::failpoint::hit("optimizer.push").map_err(Error::analysis)?;
        // Judged as written, so that an error names the user's rules.
        // Rectification keeps each rule in its place and its class, so the
        // written program's blocks are the rectified one's: judging that
        // again would refuse every head constant, whose new equality
        // shares no variable with the body.
        let infos = match self.checked {
            Some(checked) => checked.paper_class()?.to_vec(),
            None => validate(self.program, self.ics)?,
        };
        let (rectified, _) = rectify(self.program);
        let blocks = blocks(&rectified, infos);
        let config = &self.config;
        let small = &config.small_relations;

        let index = IcIndex::new(self.ics);
        let liveness = IdbLiveness::new(&rectified);
        let mut work = DetectWork::default();
        work.stats.ics = self.ics.len();
        let mut detections: Vec<(Pred, Residue)> = Vec::new();
        let mut applied = Vec::new();
        let mut skipped = Vec::new();
        let mut chosen: BTreeMap<Pred, Vec<usize>> = BTreeMap::new();
        let mut per_pred_rules: BTreeMap<Pred, Vec<Rule>> = BTreeMap::new();
        // The rewritten copies of each rewritten non-recursive rule.
        let mut rewritten: BTreeMap<usize, Vec<Rule>> = BTreeMap::new();
        // One shared copy per constraint detection runs on: every residue
        // of it points there.
        let mut shared: Vec<Option<Arc<Constraint>>> = vec![None; self.ics.len()];

        for info in &blocks {
            let candidates = index.candidate_ids(&subgoal_preds(&rectified, info));
            if candidates.is_empty() {
                continue;
            }
            work.stats.candidate_pairs += candidates.len();
            let mut detector = Detector::new(&rectified, info, config.method, PAD, &mut work);
            let first = detections.len();
            for i in candidates {
                let ic = shared[i].get_or_insert_with(|| Arc::new(self.ics[i].clone()));
                for r in detector.detect(ic)? {
                    detections.push((info.pred, r));
                }
            }
            // This block's detections: score per sequence, choose, push.
            let mine: Vec<&Residue> = detections[first..].iter().map(|(_, r)| r).collect();
            if mine.is_empty() {
                continue;
            }
            let Some(seq) = choose_sequence(&mine, small) else {
                // Nothing pushable: each residue's reason is the one
                // `action` gives it.
                for r in mine {
                    if let Err(reason) = action(r, small) {
                        let residue = r.clone();
                        skipped.push(Skipped { residue, reason });
                    }
                }
                continue;
            };
            let u = detector.unfolding(seq)?;
            let mut pusher = Pusher::new(&rectified, info, u);
            for r in &mine {
                if r.seq == seq {
                    pusher.push(r, small);
                }
            }
            let res = pusher.finish();
            skipped.extend(res.skipped);
            if res.applied.is_empty() {
                continue;
            }
            applied.extend(res.applied);
            let rules = liveness.clean_block(info.pred, res.rules);
            if info.recursive_rules.is_empty() {
                rewritten.insert(info.exit_rules[0], rules);
            } else {
                chosen.insert(info.pred, seq.to_vec());
                per_pred_rules.insert(info.pred, rules);
            }
        }

        // A rewritten non-recursive predicate's block: each of its rules
        // as rewritten, or as written.
        let touched: BTreeSet<Pred> = (rewritten.keys())
            .map(|&i| rectified.rules[i].head.pred)
            .collect();
        for (i, rule) in rectified.rules.iter().enumerate() {
            if touched.contains(&rule.head.pred) {
                let rules = rewritten.remove(&i).unwrap_or_else(|| vec![rule.clone()]);
                per_pred_rules
                    .entry(rule.head.pred)
                    .or_default()
                    .extend(rules);
            }
        }
        let program = replace_blocks(&rectified, per_pred_rules);

        Ok(Plan {
            rectified,
            program,
            detections,
            detect_stats: work.stats,
            chosen,
            applied,
            skipped,
        })
    }
}

/// Scores sequences by the optimizations their residues could drive, as
/// [`action`] decides them (pruning 3, elimination 2, introduction 1),
/// and returns the best one, borrowed from its residues (ties: shorter,
/// then lexicographically smaller); `None` when no residue drives
/// anything.
pub fn choose_sequence<'r>(
    residues: &[&'r Residue],
    small: &BTreeSet<Pred>,
) -> Option<&'r [usize]> {
    let mut scores: BTreeMap<&'r [usize], i64> = BTreeMap::new();
    for r in residues {
        let score = match action(r, small) {
            Ok(OptKind::SubtreePruning) => 3,
            Ok(OptKind::AtomElimination) => 2,
            Ok(OptKind::AtomIntroduction) => 1,
            Err(_) => 0,
        };
        *scores.entry(&r.seq).or_insert(0) += score;
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
    /// The optimizer's plan, unless the optimizer itself failed.
    pub plan: Option<Plan>,
}

/// The rewrite alternatives the cost-based router prices for one query:
/// the program as written and the residue-pushed program (when the
/// optimizer applied anything). The rectified program is not among them:
/// it only moves head constants into body equalities, prices as the
/// original does and loses the tie. When a goal directs evaluation, the
/// original and the pushed program are also rewritten toward it, by
/// magic sets and, where it applies, by factoring. Returns
/// the alternatives plus, when a goal-directed one was enumerated, the
/// adorned predicate (`p@<ad>`, the same for every such rewrite) holding
/// the goal's answers.
pub fn route_alternatives(
    program: &Program,
    plan: &Plan,
    goal: Option<&Atom>,
) -> (Vec<(AlternativeKind, Program)>, Option<Pred>) {
    use semrec_engine::magic::{factor_rewrite, magic_rewrite};
    let mut alts = vec![(AlternativeKind::Original, program.clone())];
    if plan.any_applied() {
        alts.push((AlternativeKind::ResiduePushed, plan.program.clone()));
    }
    let mut answer = None;
    let Some(goal) = goal else {
        return (alts, answer);
    };
    let mut bases = vec![(false, program)];
    if plan.any_applied() {
        bases.push((true, &plan.program));
    }
    for (pushed, base) in bases {
        if let Some(m) = magic_rewrite(base, goal) {
            answer = Some(m.answer_pred);
            alts.push((AlternativeKind::Magic { pushed }, m.program));
        }
        if let Some(f) = factor_rewrite(base, goal) {
            answer = Some(f.answer_pred);
            alts.push((AlternativeKind::Factored { pushed }, f.program));
        }
    }
    (alts, answer)
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
/// With a `goal`, the goal-directed rewrites of [`route_alternatives`]
/// are priced as well. When one of them answers, the result's IDB holds
/// the goal's answers under `goal.pred` and the rewrite's auxiliaries
/// beside them — not the program's other relations — so a caller that
/// needs whole relations routes without a goal.
///
/// `checked` is the caller's [`check`](semrec_datalog::analysis::check)
/// of `program` and `ics`; the optimizer reads the paper's class off it,
/// and the fallback its strata, rather than judging the program again.
///
/// The planner's verdict rides on the result:
/// [`EvalResult::choice`](semrec_engine::EvalResult) records the chosen
/// alternative and the runner-up, and `stats.plan_nanos` the planning
/// wall time. Pricing compiles each alternative as evaluation does, and
/// the chosen alternative runs those plans; the rectified program is
/// always priced, so pricing fails only where evaluation would: its
/// error takes the fallback like a failed route.
///
/// [`EngineError::Cancelled`]: semrec_engine::EngineError::Cancelled
#[allow(clippy::too_many_arguments)]
pub fn evaluate_routed(
    db: &semrec_engine::Database,
    program: &Program,
    ics: &[Constraint],
    checked: &Checked,
    config: OptimizerConfig,
    budget: semrec_engine::Budget,
    cancel: semrec_engine::CancelToken,
    goal: Option<&Atom>,
) -> Result<GovernedOutcome, semrec_engine::EngineError> {
    use semrec_engine::{EngineError, Prepared, Route};
    use std::panic::{catch_unwind, AssertUnwindSafe};
    let start = std::time::Instant::now();

    // The chosen route's budget slice: half the deadline; row/byte
    // caps apply whole (they bound the same materialized IDB either way).
    let mut slice = budget;
    if let Some(d) = budget.deadline {
        slice.deadline = Some(d / 2);
    }

    let degraded: String;
    let mut kept_plan = None;
    let attempt = catch_unwind(AssertUnwindSafe(|| {
        Optimizer::new(program)
            .with_constraints(ics)
            .with_checked(checked)
            .with_config(config)
            .run()
    }));
    match attempt {
        Ok(Ok(plan)) => {
            let (alts, answer) = route_alternatives(program, &plan, goal);
            degraded = 'route: {
                let memo = match CostMemo::build(db, &mut EdbStats::new(), alts) {
                    Ok(memo) => memo,
                    Err(e) => break 'route format!("pricing failed: {e}"),
                };
                let best = memo.best();
                let kind = best.kind;
                let run = run_under(db, &best.plans, slice, cancel.clone());
                let mut result = match run {
                    Ok(result) => result,
                    Err(EngineError::Cancelled) => return Err(EngineError::Cancelled),
                    Err(e) => break 'route format!("{kind} route: {e}"),
                };
                let choice = memo.choice();
                result.route = kind.route();
                result.stats.plan_nanos = choice.plan_nanos;
                result.choice = Some(choice);
                // A goal-directed rewrite computes the goal's answers
                // under the adorned predicate; surface them under the
                // goal's own predicate so `answers(goal)` works
                // unchanged.
                if kind.is_goal_directed() {
                    if let (Some(goal), Some(ans)) = (goal, answer) {
                        if let Some(rel) = result.idb.remove(&ans) {
                            result.idb.insert(goal.pred, rel);
                        }
                    }
                }
                return Ok(GovernedOutcome {
                    result,
                    degraded: None,
                    plan: Some(plan),
                });
            };
            kept_plan = Some(plan);
        }
        Ok(Err(e)) => degraded = format!("optimizer failed: {e}"),
        Err(payload) => degraded = format!("optimizer panicked: {}", panic_message(&*payload)),
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
    // Rectification keeps each rule in its place, and so its stratum.
    let rectified =
        (kept_plan.as_ref()).map_or_else(|| rectify(program).0, |p| p.rectified.clone());
    let plans = Prepared::batch(db, rectified, &checked.strata)?;
    let mut result = run_under(db, &plans, remaining, cancel)?;
    result.route = Route::RectifiedFallback;
    Ok(GovernedOutcome {
        result,
        degraded: Some(degraded),
        plan: kept_plan,
    })
}

/// One budgeted run of `plans` over `db`; a panic inside it is caught
/// and surfaced as [`EngineError::WorkerPanicked`] so the degradation
/// policy treats it like any other failed route.
fn run_under(
    db: &semrec_engine::Database,
    plans: &semrec_engine::Prepared,
    budget: semrec_engine::Budget,
    cancel: semrec_engine::CancelToken,
) -> Result<semrec_engine::EvalResult, semrec_engine::EngineError> {
    use semrec_engine::{EngineError, Evaluator};
    use std::panic::{catch_unwind, AssertUnwindSafe};
    let run = catch_unwind(AssertUnwindSafe(|| {
        let ev = Evaluator::from_prepared_batch(db, plans, None).with_budget(budget);
        let mut ev = ev.with_cancel_token(cancel);
        ev.run()?;
        Ok(ev.finish())
    }));
    match run {
        Ok(r) => r,
        Err(payload) => Err(EngineError::WorkerPanicked {
            job: "eval".to_owned(),
            payload: panic_message(&*payload),
        }),
    }
}

/// The message a `catch_unwind` payload carries, when it is a string.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;
    use semrec_datalog::parser::parse_unit;
    use semrec_engine::{evaluate, Database, Strategy};

    /// The plan of `src`'s rules under its constraints.
    fn plan_of(src: &str) -> Plan {
        let unit = parse_unit(src).unwrap();
        let program = unit.program();
        let optimizer = Optimizer::new(&program).with_constraints(&unit.constraints);
        optimizer.run().unwrap()
    }

    /// The rules of `pred` in `plan`'s program, as text.
    fn rules_of(plan: &Plan, pred: &str) -> Vec<String> {
        let rules = plan.program.rules.iter();
        let mine = rules.filter(|r| r.head.pred == Pred::new(pred));
        mine.map(ToString::to_string).collect()
    }

    /// Non-recursive rules are one-rule blocks: a null residue the rule's
    /// own comparison discharges drops the rule, a conditional one keeps
    /// only the complement, and neither is a chosen sequence.
    #[test]
    fn one_rule_blocks_prune() {
        let plan = plan_of(
            "q(X) :- p(X, Y), Y > 100.
             r(X) :- p(X, Y).
             ic: p(A, B), B > 100 -> .",
        );
        assert!(rules_of(&plan, "q").is_empty(), "{}", plan.program);
        assert_eq!(rules_of(&plan, "r"), ["r(X) :- p(X, Y~1), Y~1 <= 100."]);
        assert!(plan.chosen.is_empty());
        let seqs: Vec<&[usize]> = plan.applied.iter().map(|a| &a.residue.seq[..]).collect();
        assert_eq!(seqs, [[0], [1]]);

        let mut db = Database::new();
        db.insert("p", semrec_engine::int_tuple(&[1, 50]));
        let a = evaluate(&db, &plan.rectified, Strategy::SemiNaive).unwrap();
        let b = evaluate(&db, &plan.program, Strategy::SemiNaive).unwrap();
        assert_eq!(a.idb.len(), 2);
        for p in ["q", "r"] {
            let rows = |r: &semrec_engine::EvalResult| r.relation(p).map(|r| r.sorted_tuples());
            assert_eq!(rows(&a).unwrap_or_default(), rows(&b).unwrap_or_default());
        }
    }

    #[test]
    fn existential_head_vars_cannot_capture_shared_rule_vars() {
        // ic: edge(X, Z) -> witness(Z, W) guarantees only ∃W. If the
        // rule's W is shared with another atom, eliminating witness(Z, W)
        // would be unsound even though the names coincide.
        let plan = plan_of(
            "bad(X, Y) :- edge(X, Z), witness(Z, W), uses(W, Y).
             ic: edge(X, Z) -> witness(Z, W).",
        );
        assert!(!plan.any_applied(), "{}", plan.program);

        // With W local to the witness atom, the elimination is sound and
        // must fire.
        let plan = plan_of(
            "ok(X, Y) :- edge(X, Z), witness(Z, W), reach(Z, Y).
             ic: edge(X, Z) -> witness(Z, W).",
        );
        assert_eq!(
            rules_of(&plan, "ok"),
            ["ok(X, Y) :- edge(X, Z~1), reach(Z~1, Y)."]
        );
    }

    #[test]
    fn one_rule_elimination_applies_when_syntactic() {
        // boss/experienced inside one rule, IC premise inside the same
        // rule; the rule's own `R = executive` discharges the condition.
        let plan = plan_of(
            "t(E) :- boss(E, B, R), R = executive, experienced(B), big(B).
             ic: boss(E, B, R), R = executive -> experienced(B).",
        );
        assert_eq!(
            rules_of(&plan, "t"),
            ["t(E) :- boss(E, B~1, R~1), R~1 = executive, big(B~1)."]
        );
        assert_eq!(plan.applied[0].kind, crate::push::OptKind::AtomElimination);
    }

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
}
