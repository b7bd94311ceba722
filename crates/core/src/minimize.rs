//! Structural program minimization: removing redundant body atoms and
//! subsumed rules.
//!
//! This is the *syntactic* (constraint-free) counterpart of the residue
//! machinery, corresponding to the optimization line the paper builds on
//! (Sagiv's datalog minimization \[13\]; Lakshmanan & Hernández's redundant
//! subgoal elimination \[6\]): a body atom is redundant when a folding
//! homomorphism fixing the rule's exported variables maps the body into
//! the body without it, and a rule is redundant when another rule for the
//! same head subsumes it. Combined with the IC-driven `push` and rule-level
//! rewrites, this keeps transformed programs tidy.

use crate::hom::{extend_hom, match_into};
use semrec_datalog::atom::Atom;
use semrec_datalog::literal::Literal;
use semrec_datalog::program::Program;
use semrec_datalog::rule::Rule;
use semrec_datalog::subst::Subst;
use semrec_datalog::symbol::Symbol;
use std::collections::BTreeSet;

/// Variables a body-atom-removal homomorphism must fix: everything
/// exported (head) or consumed by a comparison. Variables of other atoms
/// may be remapped — consistently — which is exactly what makes e.g.
/// `e(X, Y), e(X, Z)` minimizable to `e(X, Y)` when `Z` is otherwise
/// unused.
fn exported_vars(rule: &Rule) -> BTreeSet<Symbol> {
    let mut out: BTreeSet<Symbol> = rule.head.vars().collect();
    for c in rule.body_cmps() {
        out.extend(c.vars());
    }
    out
}

/// Removes redundant body atoms from one rule (to a fixpoint). Comparisons
/// are never removed.
pub fn minimize_rule(rule: &Rule) -> Rule {
    let mut rule = rule.clone();
    let protected = exported_vars(&rule);
    loop {
        let atoms: Vec<(usize, Atom)> = rule
            .body
            .iter()
            .enumerate()
            .filter_map(|(i, l)| l.as_atom().map(|a| (i, a.clone())))
            .collect();
        let mut removed = None;
        'candidates: for &(bi, ref b) in &atoms {
            // Sources: every atom; targets: every atom except B. The
            // homomorphism must fix protected vars; if it exists, B's
            // constraint is implied by the rest.
            let targets: Vec<&Atom> = atoms
                .iter()
                .filter(|(i, _)| *i != bi)
                .map(|(_, a)| a)
                .collect();
            if targets.is_empty() {
                continue;
            }
            let sources: Vec<&Atom> = atoms.iter().map(|(_, a)| a).collect();
            // Seed: h(B) must land on a target (try each); the rest of the
            // body must follow.
            for t in &targets {
                if let Some(h) = match_into(b, t, &Subst::new(), &protected) {
                    let others: Vec<&Atom> = sources
                        .iter()
                        .copied()
                        .filter(|a| !std::ptr::eq(*a, b as &Atom))
                        .collect();
                    if extend_hom(&others, 0, &h, &protected, &targets) {
                        removed = Some(bi);
                        break 'candidates;
                    }
                }
            }
        }
        match removed {
            Some(bi) => {
                rule.body.remove(bi);
            }
            None => return rule,
        }
    }
}

/// True if `general` subsumes `specific`: a substitution θ of `general`'s
/// variables with `head(general)·θ = head(specific)` and every body
/// literal of `general`·θ occurring in `specific`'s body. Then `specific`
/// derives nothing `general` would not.
pub fn rule_subsumes(general: &Rule, specific: &Rule) -> bool {
    if general.head.pred != specific.head.pred || general.head.arity() != specific.head.arity() {
        return false;
    }
    let mut theta = Subst::new();
    if !semrec_datalog::unify::match_atom(&mut theta, &general.head, &specific.head) {
        return false;
    }
    subsume_body(general, specific, 0, theta)
}

fn subsume_body(general: &Rule, specific: &Rule, i: usize, theta: Subst) -> bool {
    let Some(lit) = general.body.get(i) else {
        return true;
    };
    match lit {
        Literal::Atom(a) => {
            for target in specific.body_atoms() {
                let mut t2 = theta.clone();
                if semrec_datalog::unify::match_atom(&mut t2, a, target)
                    && subsume_body(general, specific, i + 1, t2)
                {
                    return true;
                }
            }
            false
        }
        // Negated subgoals must map onto identical negated subgoals; be
        // conservative and require syntactic presence after instantiation.
        Literal::Neg(a) => {
            let inst = theta.apply_atom(a);
            if specific.body.iter().any(|l| l.as_neg() == Some(&inst))
                && inst.vars().all(|v| specific.vars().contains(&v))
            {
                subsume_body(general, specific, i + 1, theta)
            } else {
                false
            }
        }
        Literal::Cmp(c) => {
            // Comparisons must map onto identical comparisons (or be
            // trivially true after instantiation).
            let inst = theta.apply_cmp(c);
            if inst.is_trivially_true() {
                return subsume_body(general, specific, i + 1, theta);
            }
            let present = specific.body_cmps().any(|sc| {
                *sc == inst || (sc.lhs == inst.rhs && sc.rhs == inst.lhs && sc.op == inst.op.flip())
            });
            if present
                && inst
                    .vars()
                    .all(|v| theta.get(v).is_some() || specific.vars().contains(&v))
            {
                subsume_body(general, specific, i + 1, theta)
            } else {
                false
            }
        }
    }
}

/// Minimizes every rule and drops rules subsumed by another rule of the
/// program (first occurrence wins on mutual subsumption).
pub fn minimize_program(program: &Program) -> Program {
    let minimized: Vec<Rule> = program.rules.iter().map(minimize_rule).collect();
    let mut keep: Vec<bool> = vec![true; minimized.len()];
    for i in 0..minimized.len() {
        if !keep[i] {
            continue;
        }
        for j in 0..minimized.len() {
            if i == j || !keep[j] {
                continue;
            }
            if rule_subsumes(&minimized[i], &minimized[j]) {
                // Keep the earlier rule on mutual (variant) subsumption.
                if !(j < i && rule_subsumes(&minimized[j], &minimized[i])) {
                    keep[j] = false;
                }
            }
        }
    }
    Program::new(
        minimized
            .into_iter()
            .zip(keep)
            .filter(|(_, k)| *k)
            .map(|(r, _)| r)
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use semrec_datalog::parser::{parse_rule, parse_unit};
    use semrec_engine::{evaluate, int_tuple, Database, Strategy};

    #[test]
    fn removes_duplicate_atom() {
        let r = parse_rule("p(X, Y) :- e(X, Y), e(X, Y).").unwrap();
        let m = minimize_rule(&r);
        assert_eq!(m.to_string(), "p(X, Y) :- e(X, Y).");
    }

    #[test]
    fn removes_existentially_weaker_atom() {
        // e(X, Z) with Z unused elsewhere is implied by e(X, Y).
        let r = parse_rule("p(X, Y) :- e(X, Y), e(X, Z).").unwrap();
        let m = minimize_rule(&r);
        assert_eq!(m.body.len(), 1);
    }

    #[test]
    fn keeps_atoms_bound_to_head_or_cmps() {
        let r = parse_rule("p(X, Y, Z) :- e(X, Y), e(X, Z).").unwrap();
        assert_eq!(minimize_rule(&r).body.len(), 2);
        let r = parse_rule("p(X, Y) :- e(X, Y), e(X, Z), Z > 3.").unwrap();
        assert_eq!(minimize_rule(&r).body.len(), 3);
    }

    #[test]
    fn chain_atoms_are_not_removed() {
        let r = parse_rule("p(X, Y) :- e(X, Z), e(Z, Y).").unwrap();
        assert_eq!(minimize_rule(&r).body.len(), 2);
    }

    #[test]
    fn folding_cascade_is_found() {
        // e(X, Y), e(X, Z), f(Z, W): {e(X,Z), f(Z,W)} folds onto
        // {e(X,Y), f(Y,W')}? No f(Y, …) exists — so nothing is removable.
        let r = parse_rule("p(X, Y) :- e(X, Y), e(X, Z), f(Z, W).").unwrap();
        assert_eq!(minimize_rule(&r).body.len(), 3);
        // But with f on Y too, the Z-branch folds away entirely… one atom
        // at a time: first f(Z,W) → f(Y,V) (Z↦Y, W↦V), then e(X,Z) → e(X,Y).
        let r = parse_rule("p(X, Y) :- e(X, Y), f(Y, V), e(X, Z), f(Z, W).").unwrap();
        assert_eq!(minimize_rule(&r).body.len(), 2);
    }

    #[test]
    fn rule_subsumption_drops_specializations() {
        let p = parse_unit(
            "q(X) :- e(X, Y).
             q(X) :- e(X, Y), f(Y).",
        )
        .unwrap()
        .program();
        let m = minimize_program(&p);
        assert_eq!(m.len(), 1);
        assert_eq!(m.rules[0].to_string(), "q(X) :- e(X, Y).");
    }

    #[test]
    fn variant_rules_keep_one_copy() {
        let p = parse_unit(
            "q(X) :- e(X, Y).
             q(A) :- e(A, B).",
        )
        .unwrap()
        .program();
        assert_eq!(minimize_program(&p).len(), 1);
    }

    #[test]
    fn cmp_guarded_rules_are_not_subsumed_by_cmpless_ones() {
        // The guarded rule IS subsumed by the unguarded one (it derives a
        // subset), and must be dropped; the reverse direction must not
        // drop the unguarded rule.
        let p = parse_unit(
            "q(X) :- e(X, Y), Y > 3.
             q(X) :- e(X, Y).",
        )
        .unwrap()
        .program();
        let m = minimize_program(&p);
        assert_eq!(m.len(), 1);
        assert!(m.rules[0].body_cmps().count() == 0);
    }

    #[test]
    fn minimization_preserves_semantics() {
        let p = parse_unit(
            "t(X, Y) :- e(X, Y), e(X, Z).
             t(X, Y) :- e(X, W), t(W, Y), t(W, Y).",
        )
        .unwrap()
        .program();
        let m = minimize_program(&p);
        assert!(
            m.rules.iter().map(|r| r.body.len()).sum::<usize>()
                < p.rules.iter().map(|r| r.body.len()).sum::<usize>()
        );
        let mut db = Database::new();
        for (a, b) in [(0, 1), (1, 2), (2, 0), (1, 3)] {
            db.insert("e", int_tuple(&[a, b]));
        }
        let x = evaluate(&db, &p, Strategy::SemiNaive).unwrap();
        let y = evaluate(&db, &m, Strategy::SemiNaive).unwrap();
        assert_eq!(
            x.relation("t").unwrap().sorted_tuples(),
            y.relation("t").unwrap().sorted_tuples()
        );
    }
}

#[cfg(test)]
mod negation_tests {
    use super::*;
    use semrec_datalog::parser::parse_unit;

    #[test]
    fn negated_subgoals_block_subsumption_unless_identical() {
        let p = parse_unit(
            "q(X) :- e(X, Y), !bad(X).
             q(X) :- e(X, Y), !bad(X), f(Y).",
        )
        .unwrap()
        .program();
        // The first rule subsumes the second (same negation, fewer atoms).
        let m = minimize_program(&p);
        assert_eq!(m.len(), 1);

        let p = parse_unit(
            "q(X) :- e(X, Y).
             q(X) :- e(X, Y), !bad(X).",
        )
        .unwrap()
        .program();
        // Rule 2 ⊆ rule 1 (extra negative condition): rule 2 is dropped.
        let m = minimize_program(&p);
        assert_eq!(m.len(), 1);
        assert!(m.rules[0].body.iter().all(|l| l.as_neg().is_none()));
    }

    #[test]
    fn negation_is_never_removed_as_redundant() {
        let p = parse_unit("q(X) :- e(X, Y), !e(Y, X).").unwrap().program();
        let m = minimize_program(&p);
        assert_eq!(m.rules[0].body.len(), 2);
    }
}
