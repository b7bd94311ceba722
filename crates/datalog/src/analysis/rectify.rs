//! Rectification (Ullman): all rules defining the same predicate get an
//! identical head `p(X1, …, Xn)` of distinct variables, with `Xi` in column
//! `i`. Constants and repeated variables in original heads become equality
//! comparisons in the body. The paper assumes rectified programs throughout
//! §3–§4 ("This assumption is not restrictive since it is well known that
//! all programs can be rectified").

use crate::atom::{Atom, Pred};
use crate::literal::{Cmp, CmpOp, Literal};
use crate::program::Program;
use crate::rule::Rule;
use crate::subst::Subst;
use crate::symbol::Symbol;
use crate::term::Term;
use std::collections::BTreeMap;

/// The canonical head variables chosen for each rectified predicate.
#[derive(Clone, Debug, Default)]
pub struct HeadVars {
    /// For each IDB predicate, the head variable of each column.
    pub vars: BTreeMap<Pred, Vec<Symbol>>,
}

/// Rectifies every rule of the program. Returns the transformed program and
/// the canonical head variables. Idempotent on already-rectified programs
/// *up to renaming*; rules that are already in canonical shape with
/// consistent head variables are left byte-identical.
pub fn rectify(program: &Program) -> (Program, HeadVars) {
    let mut head_vars = HeadVars::default();

    // Pass 1: pick canonical head variables per predicate. Reuse the head
    // variables of the first rule whose head is already all-distinct
    // variables, so typical hand-written programs survive unchanged.
    for r in &program.rules {
        let p = r.head.pred;
        if head_vars.vars.contains_key(&p) {
            continue;
        }
        let vars: Vec<Symbol> = r.head.args.iter().filter_map(|t| t.as_var()).collect();
        let all_distinct_vars = vars.len() == r.head.arity() && {
            let mut seen = std::collections::BTreeSet::new();
            vars.iter().all(|v| seen.insert(*v))
        };
        let chosen = if all_distinct_vars {
            vars
        } else {
            (0..r.head.arity())
                .map(|i| Symbol::fresh(&format!("{}@{}", p.name(), i)))
                .collect()
        };
        head_vars.vars.insert(p, chosen);
    }

    // Pass 2: rewrite each rule against the canonical head.
    let rules = program
        .rules
        .iter()
        .map(|r| rectify_rule(r, &head_vars.vars[&r.head.pred]))
        .collect();
    (Program::new(rules), head_vars)
}

fn rectify_rule(rule: &Rule, canon: &[Symbol]) -> Rule {
    // Rename any body-local variable that collides with a canonical head
    // variable it does not already stand for.
    let mut rename = Subst::new();
    let mut extra: Vec<Literal> = Vec::new();

    // First map original head variables: the first occurrence of a variable
    // in the head is renamed to the canonical name of its column.
    let mut mapped: BTreeMap<Symbol, Symbol> = BTreeMap::new();
    for (i, t) in rule.head.args.iter().enumerate() {
        if let Term::Var(v) = t {
            if !mapped.contains_key(v) {
                mapped.insert(*v, canon[i]);
            }
        }
    }

    // Protect body variables that accidentally equal a canonical name but
    // are not that head variable.
    for v in rule.vars() {
        if mapped.contains_key(&v) {
            continue;
        }
        if canon.contains(&v) {
            rename.insert(v, Term::Var(Symbol::fresh(v.as_str())));
        }
    }
    for (v, c) in &mapped {
        rename.insert(*v, Term::Var(*c));
    }

    let renamed = rename.apply_rule(rule);

    // Build the canonical head; emit equalities for constants and repeated
    // variables.
    let mut head_args = Vec::with_capacity(canon.len());
    for (i, t) in renamed.head.args.iter().enumerate() {
        let xi = Term::Var(canon[i]);
        match t {
            Term::Var(v) if *v == canon[i] => head_args.push(xi),
            other => {
                head_args.push(xi);
                extra.push(Literal::Cmp(Cmp::new(xi, CmpOp::Eq, *other)));
            }
        }
    }

    let mut body = renamed.body;
    body.extend(extra);
    Rule::new(Atom::new(rule.head.pred, head_args), body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_unit;

    fn prog(src: &str) -> Program {
        parse_unit(src).unwrap().program()
    }

    #[test]
    fn already_rectified_is_untouched() {
        let p = prog("anc(X,Y) :- par(X,Y). anc(X,Y) :- anc(X,Z), par(Z,Y).");
        let (q, hv) = rectify(&p);
        assert_eq!(p, q);
        assert_eq!(
            hv.vars[&Pred::new("anc")],
            vec![Symbol::intern("X"), Symbol::intern("Y")]
        );
    }

    #[test]
    fn mixed_head_names_are_unified() {
        let p = prog("p(X,Y) :- e(X,Y). p(A,B) :- e(A,C), p(C,B).");
        let (q, _) = rectify(&p);
        assert_eq!(q.rules[0].head, q.rules[1].head);
        // Second rule's variables got renamed consistently: A→X, B→Y, C kept.
        assert_eq!(q.rules[1].to_string(), "p(X, Y) :- e(X, C), p(C, Y).");
    }

    #[test]
    fn constant_in_head_becomes_equality() {
        let p = prog("p(X, 3) :- e(X).");
        let (q, _) = rectify(&p);
        let r = &q.rules[0];
        assert_eq!(r.head.arity(), 2);
        assert!(r.head.args.iter().all(|t| t.is_var()));
        assert_eq!(r.body_cmps().count(), 1);
        let c = r.body_cmps().next().unwrap();
        assert_eq!(c.op, CmpOp::Eq);
        assert_eq!(c.rhs, Term::int(3));
    }

    #[test]
    fn repeated_head_var_becomes_equality() {
        let p = prog("p(X, X) :- e(X).");
        let (q, _) = rectify(&p);
        let r = &q.rules[0];
        let head_vars: Vec<_> = r.head.args.iter().map(|t| t.as_var().unwrap()).collect();
        assert_ne!(head_vars[0], head_vars[1]);
        assert_eq!(r.body_cmps().count(), 1);
    }

    #[test]
    fn colliding_local_var_is_protected() {
        // Second rule uses Y as a local, but column 1 canonical var is X and
        // column 2 is Y taken from rule 1; the local Y in rule 2's body (at
        // column-independent position) must not be captured.
        let p = prog("p(X, Y) :- e(X, Y). p(A, B) :- f(A, Y), g(Y, B), p(B, A).");
        let (q, _) = rectify(&p);
        let r = &q.rules[1];
        // Head is p(X, Y); the old local Y must have been renamed away.
        let f_atom = r.body[0].as_atom().unwrap();
        let local = f_atom.args[1].as_var().unwrap();
        assert_ne!(local, Symbol::intern("Y"));
        // And the recursive call carries the canonical names swapped.
        let rec = r.body[2].as_atom().unwrap();
        assert_eq!(rec.args[0], Term::var("Y"));
        assert_eq!(rec.args[1], Term::var("X"));
    }

    #[test]
    fn rectified_rules_share_identical_heads() {
        let p = prog(
            "t(X, Y, Z) :- base(X, Y, Z).
             t(A, A, C) :- step(A, C), t(A, A, C).",
        );
        let (q, _) = rectify(&p);
        assert_eq!(q.rules[0].head, q.rules[1].head);
        for r in &q.rules {
            assert_eq!(crate::analysis::unsafe_detail(r), None, "{r}");
        }
    }
}
