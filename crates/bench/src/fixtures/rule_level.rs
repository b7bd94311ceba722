//! The Chakravarthy–Grant–Minker rule-level rewrite: each rule rewritten
//! on its own with the directly usable expanded-form residues of
//! [`super::expand`] (no unmatched database atom, no variable-to-variable
//! equality left). The product handles a non-recursive rule as a one-rule
//! block on the free-residue path instead (§2); this rewrite is what E4's
//! run-time baseline applies every round, and what the compile suites
//! hold the free path's k = 1 rewrites against.

use super::expand::{rule_residues, StdResidue};
use semrec_core::occurs::IcIndex;
use semrec_core::push::OptKind;
use semrec_core::residue::ResidueHead;
use semrec_datalog::analysis::safety;
use semrec_datalog::atom::{Atom, Pred};
use semrec_datalog::constraint::Constraint;
use semrec_datalog::literal::Literal;
use semrec_datalog::program::Program;
use semrec_datalog::rule::Rule;
use std::collections::{BTreeMap, BTreeSet};

/// Rewrites `program` with the directly-usable rule-level (CGM) residues
/// of `ics`, introducing atoms only over the `small` relations. Returns
/// the rewritten program, the number of (IC, rule) residue computations
/// performed, and per rule of `program` the kind of each residue that
/// changed it, in the order applied.
///
/// A residue is only used when no database atom of the constraint stays
/// unmatched, so per rule only the constraints whose body predicates all
/// occur in the rule's body are tried (and counted).
pub fn rule_level_rewrite_with(
    program: &Program,
    ics: &[Constraint],
    small: &BTreeSet<Pred>,
) -> (Program, u64, Vec<Vec<OptKind>>) {
    let index = IcIndex::new(ics);
    let mut computations = 0u64;
    let mut kinds = Vec::with_capacity(program.len());
    let mut out: Vec<Rule> = Vec::new();
    for rule in &program.rules {
        let mut variants: Vec<Rule> = vec![rule.clone()];
        let mut applied = Vec::new();
        let body_preds = rule.body_atoms().map(|a| a.pred).collect();
        for i in index.candidate_ids(&body_preds) {
            computations += 1;
            for residue in rule_residues(&ics[i], rule) {
                if !residue.directly_usable() || residue.is_trivial() {
                    continue;
                }
                let next: Vec<Rule> = variants
                    .iter()
                    .flat_map(|v| apply_std_residue_with(v, &residue, small))
                    .collect();
                if next != variants {
                    applied.push(match &residue.head {
                        ResidueHead::Null => OptKind::SubtreePruning,
                        ResidueHead::Atom(a) if find_eliminable(rule, a).is_some() => {
                            OptKind::AtomElimination
                        }
                        _ => OptKind::AtomIntroduction,
                    });
                }
                variants = next;
            }
        }
        out.append(&mut variants);
        kinds.push(applied);
    }
    (Program::new(out), computations, kinds)
}

/// Applies one directly-usable CGM residue to a rule, producing the variant
/// rules (identity if not applicable).
fn apply_std_residue_with(rule: &Rule, residue: &StdResidue, small: &BTreeSet<Pred>) -> Vec<Rule> {
    debug_assert!(residue.body_atoms.is_empty());
    let conds = &residue.body_cmps;
    match &residue.head {
        // Null residue: the rule derives nothing when the conditions hold —
        // keep only the ¬E complements.
        ResidueHead::Null => {
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
        // free to take their value. Otherwise introduce it when the
        // relation is small.
        ResidueHead::Atom(a) => {
            let Some(pos) = find_eliminable(rule, a) else {
                if small.contains(&a.pred) {
                    return introduce_atom(rule, a, conds);
                }
                return vec![rule.clone()];
            };
            let mut yes = rule.clone();
            yes.body.remove(pos);
            for c in conds {
                yes.body.push(Literal::Cmp(*c));
            }
            if safety::unsafe_detail(&yes).is_some() {
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

#[cfg(test)]
mod tests {
    use super::*;
    use semrec_datalog::parser::parse_unit;
    use semrec_engine::{evaluate, Database, Strategy};

    /// Every rule rewritten with no small relations, and how many
    /// residues changed it.
    fn rule_level_rewrite(program: &Program, ics: &[Constraint]) -> (Program, u64, usize) {
        let (rw, computations, kinds) = rule_level_rewrite_with(program, ics, &BTreeSet::new());
        (rw, computations, kinds.iter().map(Vec::len).sum())
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
