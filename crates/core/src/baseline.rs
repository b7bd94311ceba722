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
//! directly-usable ones, reinstalls it into the engine, and only then runs
//! the round. The reported [`BaselineOutcome`] separates optimization time
//! from evaluation work.

use crate::expand::{rule_residues, StdResidue};
use crate::occurs::IcIndex;
use crate::residue::ResidueHead;
use semrec_datalog::analysis::safety;
use semrec_datalog::constraint::Constraint;
use semrec_datalog::literal::Literal;
use semrec_datalog::program::Program;
use semrec_datalog::rule::Rule;
use semrec_engine::eval::{EvalResult, Evaluator, Strategy};
use semrec_engine::{Database, EngineError};
use std::time::{Duration, Instant};

/// The outcome of an evaluation-based optimized run.
#[derive(Debug)]
pub struct BaselineOutcome {
    /// The computed IDB and engine counters.
    pub result: EvalResult,
    /// Total time spent in per-iteration residue computation, rewriting,
    /// and plan reinstallation — the run-time overhead the program-
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
    rule_level_rewrite_with(
        program,
        &IcIndex::new(ics),
        &crate::push::PushPolicy::default(),
        None,
    )
}

/// Like [`rule_level_rewrite`], with an explicit [`PushPolicy`] (enabling
/// e.g. small-relation atom introduction) and an optional restriction to
/// rules of particular head predicates (the compile-time optimizer uses
/// this for the *non-recursive* rules, which need no isolation).
///
/// A residue is only used when no database atom of the constraint stays
/// unmatched, so per rule only the constraints whose body predicates all
/// occur in the rule's body are tried (and counted).
///
/// [`PushPolicy`]: crate::push::PushPolicy
pub fn rule_level_rewrite_with(
    program: &Program,
    ics: &IcIndex,
    policy: &crate::push::PushPolicy,
    only_preds: Option<&std::collections::BTreeSet<semrec_datalog::atom::Pred>>,
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
fn apply_std_residue_with(
    rule: &Rule,
    residue: &StdResidue,
    policy: &crate::push::PushPolicy,
) -> Vec<Rule> {
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
fn find_eliminable(rule: &Rule, a: &semrec_datalog::atom::Atom) -> Option<usize> {
    use semrec_datalog::term::Term;
    let mut occurrences: std::collections::BTreeMap<semrec_datalog::Symbol, usize> =
        std::collections::BTreeMap::new();
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
        let mut used_wildcards: std::collections::BTreeSet<semrec_datalog::Symbol> =
            std::collections::BTreeSet::new();
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
fn introduce_atom(
    rule: &Rule,
    atom: &semrec_datalog::atom::Atom,
    conds: &[semrec_datalog::literal::Cmp],
) -> Vec<Rule> {
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

/// Evaluates `program` with per-iteration (run-time) semantic optimization.
pub fn evaluate_with_runtime_semantics(
    db: &Database,
    program: &Program,
    ics: &[Constraint],
    strategy: Strategy,
) -> Result<BaselineOutcome, EngineError> {
    let mut optimization_time = Duration::ZERO;
    let mut residue_computations = 0u64;
    let mut rule_level_optimizations = 0usize;

    // Initial rewrite + engine setup.
    let t0 = Instant::now();
    let (rewritten, comps, opts) = rule_level_rewrite(program, ics);
    residue_computations += comps;
    rule_level_optimizations = rule_level_optimizations.max(opts);
    let mut ev = Evaluator::new(db, &rewritten, strategy)?;
    optimization_time += t0.elapsed();

    let mut rounds = 0u64;
    loop {
        rounds += 1;
        let changed = ev.step()?;
        if !changed {
            break;
        }
        // The evaluation paradigm redoes the residue work against the next
        // round's subqueries; the subqueries repeat for linear rules, so
        // this is pure overhead — which is the point of the comparison.
        let t = Instant::now();
        let (rewritten, comps, opts) = rule_level_rewrite(program, ics);
        residue_computations += comps;
        rule_level_optimizations = rule_level_optimizations.max(opts);
        ev.set_program(&rewritten)?;
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
        let rt =
            evaluate_with_runtime_semantics(&db, &program, &unit.constraints, Strategy::SemiNaive)
                .unwrap();
        assert_eq!(
            base.relation("anc").unwrap().sorted_tuples(),
            rt.result.relation("anc").unwrap().sorted_tuples()
        );
        assert!(rt.residue_computations >= rt.rounds);
        assert!(rt.rounds > 1);
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
}
