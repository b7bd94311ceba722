//! The end-to-end compile-time pipeline: validate → rectify → detect
//! residues (Algorithm 3.1) → choose a sequence per recursive predicate →
//! push (isolate + optimize) → cleanup.

use crate::cleanup::IdbLiveness;
use crate::detect::{subgoal_preds, DetectStats, Detection, DetectionMethod, Detector};
use crate::expand::{rule_residues, StdResidue};
use crate::occurs::IcIndex;
use crate::push::{replace_blocks, Applied, PushPolicy, Pusher, Skipped};
use crate::residue::ResidueHead;
use semrec_datalog::analysis::{rectify, safety, validate};
use semrec_datalog::atom::{Atom, Pred};
use semrec_datalog::constraint::Constraint;
use semrec_datalog::error::Error;
use semrec_datalog::literal::Literal;
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
    /// Padding depth for the usefulness search (see [`mod@crate::detect`]).
    pub pad: usize,
    /// Pushing policy (enabled optimizations, small relations).
    pub policy: PushPolicy,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        OptimizerConfig {
            method: DetectionMethod::SdGraph,
            pad: 3,
            policy: PushPolicy::default(),
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
        // One shared copy per constraint detection runs on: every residue
        // of it points there.
        let mut shared: Vec<Option<Arc<Constraint>>> = vec![None; self.ics.len()];

        for info in &infos {
            let candidates = index.candidate_ids(&subgoal_preds(&rectified, info));
            if candidates.is_empty() {
                continue;
            }
            stats.candidate_pairs += candidates.len();
            let mut detector =
                Detector::new(&rectified, info, config.method, config.pad, &mut stats);
            let first = detections.len();
            for i in candidates {
                let ic = shared[i].get_or_insert_with(|| Arc::new(self.ics[i].clone()));
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
        let recursive: BTreeSet<Pred> = infos.iter().map(|i| i.pred).collect();
        let non_recursive: BTreeSet<Pred> = program
            .idb_preds()
            .into_iter()
            .filter(|p| !recursive.contains(p) && !p.name().contains('@'))
            .collect();
        let (program, _, rule_level_applied) =
            rule_level_rewrite_with(&program, &index, policy, Some(&non_recursive));

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

/// Rewrites `program` with the directly-usable rule-level (CGM) residues
/// of `ics` under `policy`, optionally restricted to rules of particular
/// head predicates ([`Optimizer::run`] uses this for the *non-recursive*
/// rules, which need no isolation: the k = 1 case). Returns the
/// rewritten program, the number of (IC, rule) residue computations
/// performed, and the number of optimizations applied.
///
/// A residue is only used when no database atom of the constraint stays
/// unmatched, so per rule only the constraints whose body predicates all
/// occur in the rule's body are tried (and counted).
pub fn rule_level_rewrite_with(
    program: &Program,
    ics: &IcIndex,
    policy: &PushPolicy,
    only_preds: Option<&BTreeSet<Pred>>,
) -> (Program, u64, usize) {
    let mut computations = 0u64;
    let mut applied = 0usize;
    let mut out: Vec<Rule> = Vec::new();
    for rule in &program.rules {
        if let Some(preds) = only_preds {
            if !preds.contains(&rule.head.pred) {
                out.push(rule.clone());
                continue;
            }
        }
        let mut variants: Vec<Rule> = vec![rule.clone()];
        let body_preds = rule.body_atoms().map(|a| a.pred).collect();
        for ic in ics.candidates(&body_preds) {
            computations += 1;
            for residue in rule_residues(ic, rule) {
                if !residue.directly_usable() || residue.is_trivial() {
                    continue;
                }
                let before = variants.len();
                variants = variants
                    .into_iter()
                    .flat_map(|v| apply_std_residue_with(&v, &residue, policy))
                    .collect();
                if variants.len() != before
                    || variants.iter().any(|v| v.body.len() != rule.body.len())
                {
                    applied += 1;
                }
            }
        }
        out.append(&mut variants);
    }
    (Program::new(out), computations, applied)
}

/// Applies one directly-usable CGM residue to a rule, producing the variant
/// rules (identity if not applicable).
fn apply_std_residue_with(rule: &Rule, residue: &StdResidue, policy: &PushPolicy) -> Vec<Rule> {
    debug_assert!(residue.body_atoms.is_empty());
    let conds = &residue.body_cmps;
    match &residue.head {
        // Null residue: the rule derives nothing when the conditions hold —
        // keep only the ¬E complements.
        ResidueHead::Null => {
            if !policy.pruning {
                return vec![rule.clone()];
            }
            let mut out = Vec::new();
            for j in 0..conds.len() {
                let mut v = rule.clone();
                for c in conds.iter().take(j) {
                    v.body.push(Literal::Cmp(*c));
                }
                v.body.push(Literal::Cmp(conds[j].negate()));
                out.push(v);
            }
            // Unconditional null: the rule is dropped entirely.
            out
        }
        // Implied comparison: add it as a (redundant but restricting)
        // filter on the E-branch.
        ResidueHead::Cmp(h) => {
            if !policy.introduction {
                return vec![rule.clone()];
            }
            if conds.is_empty() {
                let mut v = rule.clone();
                v.body.push(Literal::Cmp(*h));
                vec![v]
            } else {
                let mut out = Vec::new();
                let mut yes = rule.clone();
                for c in conds {
                    yes.body.push(Literal::Cmp(*c));
                }
                yes.body.push(Literal::Cmp(*h));
                out.push(yes);
                for j in 0..conds.len() {
                    let mut no = rule.clone();
                    for c in conds.iter().take(j) {
                        no.body.push(Literal::Cmp(*c));
                    }
                    no.body.push(Literal::Cmp(conds[j].negate()));
                    out.push(no);
                }
                out
            }
        }
        // Implied atom: eliminate it if it occurs in the rule body — either
        // syntactically, or with IC-existential positions (marked `` `ic ``
        // variables left unbound by the subsumption) matching rule
        // variables that occur nowhere else, so the existential witness is
        // free to take their value. Otherwise introduce it when the policy
        // marks the relation small.
        ResidueHead::Atom(a) => {
            let Some(pos) = find_eliminable(rule, a) else {
                if policy.introduction && policy.small_relations.contains(&a.pred) {
                    return introduce_atom(rule, a, conds);
                }
                return vec![rule.clone()];
            };
            if !policy.elimination {
                return vec![rule.clone()];
            }
            let mut yes = rule.clone();
            yes.body.remove(pos);
            for c in conds {
                yes.body.push(Literal::Cmp(*c));
            }
            if !yes.is_range_restricted() || !safety::unsafe_vars(&yes).is_empty() {
                return vec![rule.clone()];
            }
            if conds.is_empty() {
                return vec![yes];
            }
            let mut out = vec![yes];
            for j in 0..conds.len() {
                let mut no = rule.clone();
                for c in conds.iter().take(j) {
                    no.body.push(Literal::Cmp(*c));
                }
                no.body.push(Literal::Cmp(conds[j].negate()));
                out.push(no);
            }
            out
        }
    }
}

/// Finds a body literal that the residue-head atom `a` makes redundant.
/// A position matches when its arguments are equal, or when `a` holds an
/// unbound IC-existential (a `` `ic ``-marked variable) and the rule's
/// argument is a variable occurring exactly once in the entire rule — the
/// IC's existential witness can then absorb that variable's value.
fn find_eliminable(rule: &Rule, a: &Atom) -> Option<usize> {
    use semrec_datalog::term::Term;
    let mut occurrences: BTreeMap<semrec_datalog::Symbol, usize> = BTreeMap::new();
    for v in rule.head.vars() {
        *occurrences.entry(v).or_insert(0) += 1;
    }
    for l in &rule.body {
        for v in l.vars() {
            *occurrences.entry(v).or_insert(0) += 1;
        }
    }
    'lits: for (i, l) in rule.body.iter().enumerate() {
        let Some(b) = l.as_atom() else { continue };
        if b.pred != a.pred || b.arity() != a.arity() {
            continue;
        }
        let mut used_wildcards: BTreeSet<semrec_datalog::Symbol> = BTreeSet::new();
        for (&at, &bt) in a.args.iter().zip(&b.args) {
            if at == bt {
                continue;
            }
            let existential = matches!(at, Term::Var(v) if v.as_str().ends_with("`ic"));
            let absorbable = matches!(
                bt,
                Term::Var(v) if occurrences.get(&v).copied() == Some(1)
            );
            let fresh_wildcard = match at {
                Term::Var(v) => used_wildcards.insert(v),
                Term::Const(_) => false,
            };
            if !(existential && absorbable && fresh_wildcard) {
                continue 'lits;
            }
        }
        return Some(i);
    }
    None
}

/// Conditional atom introduction at the rule level: the `E`-branch gains
/// the implied atom (IC-existential variables become fresh locals), the
/// complements carry `¬E`.
fn introduce_atom(rule: &Rule, atom: &Atom, conds: &[semrec_datalog::literal::Cmp]) -> Vec<Rule> {
    use semrec_datalog::subst::Subst;
    use semrec_datalog::symbol::Symbol;
    use semrec_datalog::term::Term;

    let rule_vars = rule.vars();
    let mut fresh = Subst::new();
    for v in atom.vars() {
        if !rule_vars.contains(&v) {
            fresh.insert(v, Term::Var(Symbol::fresh(v.as_str())));
        }
    }
    let atom = fresh.apply_atom(atom);

    let mut yes = rule.clone();
    for c in conds {
        yes.body.push(Literal::Cmp(*c));
    }
    yes.body.push(Literal::Atom(atom));
    if conds.is_empty() {
        return vec![yes];
    }
    let mut out = vec![yes];
    for j in 0..conds.len() {
        let mut no = rule.clone();
        for c in conds.iter().take(j) {
            no.body.push(Literal::Cmp(*c));
        }
        no.body.push(Literal::Cmp(conds[j].negate()));
        out.push(no);
    }
    out
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
/// the program as written, its rectified normal form (when it differs)
/// and the residue-pushed program (when the optimizer applied anything).
/// When a goal directs evaluation, each base program that is not merely
/// rectified — the original and the pushed one — is also rewritten
/// toward it, by magic sets and, where it applies, by factoring. Returns
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
    if plan.rectified != *program {
        alts.push((AlternativeKind::Rectified, plan.rectified.clone()));
    }
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
        // An unrewritable program (negation, EDB goal) just isn't
        // enumerated for magic; factoring says itself where it applies.
        if let Ok(m) = magic_rewrite(base, goal) {
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
    let mut kept_plan = None;
    let attempt = catch_unwind(AssertUnwindSafe(|| {
        Optimizer::new(program)
            .with_constraints(ics)
            .with_config(config)
            .run()
    }));
    match attempt {
        Ok(Ok(plan)) => {
            let (alts, answer) = route_alternatives(program, &plan, goal);
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
                }
                Err(EngineError::Cancelled) => return Err(EngineError::Cancelled),
                Err(e) => degraded = format!("{kind} route: {e}"),
            }
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
    let (rectified, _) = rectify(program);
    let mut result = run_under(db, &rectified, remaining, cancel)?;
    result.route = Route::RectifiedFallback;
    Ok(GovernedOutcome {
        result,
        degraded: Some(degraded),
        plan: kept_plan,
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

    /// Every rule rewritten under the default policy.
    fn rule_level_rewrite(program: &Program, ics: &[Constraint]) -> (Program, u64, usize) {
        rule_level_rewrite_with(program, &IcIndex::new(ics), &PushPolicy::default(), None)
    }

    #[test]
    fn rule_level_null_residue_prunes_rule() {
        // An IC that contradicts a rule's own condition at the rule level.
        let unit = parse_unit(
            "q(X) :- p(X, Y), Y > 100.
             ic: p(A, B), B > 100 -> .",
        )
        .unwrap();
        let (rw, _, applied) = rule_level_rewrite(&unit.program(), &unit.constraints);
        assert!(applied >= 1);
        // The rule splits into a complement that now carries both Y > 100
        // and Y <= 100 — dead, but correct; plain evaluation agrees.
        let mut db = Database::new();
        db.insert(
            "p",
            vec![
                semrec_datalog::Value::Int(1),
                semrec_datalog::Value::Int(50),
            ],
        );
        let a = evaluate(&db, &unit.program(), Strategy::SemiNaive).unwrap();
        let b = evaluate(&db, &rw, Strategy::SemiNaive).unwrap();
        assert_eq!(
            a.relation("q").unwrap().sorted_tuples(),
            b.relation("q").unwrap().sorted_tuples()
        );
    }

    #[test]
    fn existential_head_vars_cannot_capture_shared_rule_vars() {
        // ic: edge(X, Z) -> witness(Z, W) guarantees only ∃W. If the
        // rule's W is shared with another atom, eliminating witness(Z, W)
        // would be unsound even though the names coincide.
        let unit = parse_unit(
            "bad(X, Y) :- edge(X, Z), witness(Z, W), uses(W, Y).
             ic: edge(X, Z) -> witness(Z, W).",
        )
        .unwrap();
        let (rw, _, _) = rule_level_rewrite(&unit.program(), &unit.constraints);
        assert!(
            rw.rules
                .iter()
                .all(|r| r.body_atoms().any(|a| a.pred.name() == "witness")),
            "witness must not be eliminated when W is shared:\n{rw}"
        );

        // With W local to the witness atom, the elimination is sound and
        // must fire.
        let unit = parse_unit(
            "ok(X, Y) :- edge(X, Z), witness(Z, W), reach(Z, Y).
             ic: edge(X, Z) -> witness(Z, W).",
        )
        .unwrap();
        let (rw, _, applied) = rule_level_rewrite(&unit.program(), &unit.constraints);
        assert!(applied >= 1);
        assert!(rw
            .rules
            .iter()
            .any(|r| !r.body_atoms().any(|a| a.pred.name() == "witness")));
    }

    #[test]
    fn rule_level_elimination_applies_when_syntactic() {
        // boss/experienced inside one rule, IC premise inside the same rule.
        let unit = parse_unit(
            "t(E) :- boss(E, B, R), R = executive, experienced(B), big(B).
             ic: boss(E, B, R), R = executive -> experienced(B).",
        )
        .unwrap();
        let (rw, _, applied) = rule_level_rewrite(&unit.program(), &unit.constraints);
        assert!(applied >= 1, "rewritten:\n{rw}");
        // experienced(B) disappears from some variant.
        assert!(rw
            .rules
            .iter()
            .any(|r| !r.body_atoms().any(|a| a.pred.name() == "experienced")));
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
