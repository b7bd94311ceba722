//! Safety analysis for bottom-up evaluation.
//!
//! The paper only requires *range restriction* (every head variable occurs
//! in the body). For a finite bottom-up evaluation we need slightly more:
//! every variable of the rule must be *bindable* — it occurs in a positive
//! database/IDB subgoal, or it is connected by a chain of `=` comparisons to
//! a bindable term or a constant. Comparisons other than `=` never bind.

use crate::literal::{CmpOp, Literal};
use crate::program::Program;
use crate::rule::Rule;
use crate::symbol::Symbol;
use crate::term::Term;
use std::collections::BTreeSet;

/// Returns the set of bindable variables of a rule body.
pub fn bindable_vars(rule: &Rule) -> BTreeSet<Symbol> {
    let mut bound: BTreeSet<Symbol> = BTreeSet::new();
    for l in &rule.body {
        if let Literal::Atom(a) = l {
            bound.extend(a.vars());
        }
    }
    // Propagate through equality comparisons to a fixpoint.
    loop {
        let mut changed = false;
        for l in &rule.body {
            if let Literal::Cmp(c) = l {
                if c.op != CmpOp::Eq {
                    continue;
                }
                let lhs_ok = match c.lhs {
                    Term::Const(_) => true,
                    Term::Var(v) => bound.contains(&v),
                };
                let rhs_ok = match c.rhs {
                    Term::Const(_) => true,
                    Term::Var(v) => bound.contains(&v),
                };
                if lhs_ok && !rhs_ok {
                    if let Term::Var(v) = c.rhs {
                        changed |= bound.insert(v);
                    }
                }
                if rhs_ok && !lhs_ok {
                    if let Term::Var(v) = c.lhs {
                        changed |= bound.insert(v);
                    }
                }
            }
        }
        if !changed {
            return bound;
        }
    }
}

/// Checks that every variable of the rule is bindable. Returns the set of
/// unsafe variables (empty = safe).
pub fn unsafe_vars(rule: &Rule) -> BTreeSet<Symbol> {
    let bound = bindable_vars(rule);
    let vars = rule
        .head
        .vars()
        .chain(rule.body.iter().flat_map(Literal::var_iter));
    vars.filter(|v| !bound.contains(v)).collect()
}

/// True if every rule of the program is safe.
pub fn program_is_safe(program: &Program) -> bool {
    program.rules.iter().all(|r| unsafe_vars(r).is_empty())
}

/// Returns an error message naming the first unsafe rule, if any.
pub fn check_program_safety(program: &Program) -> Result<(), crate::error::Error> {
    for (i, r) in program.rules.iter().enumerate() {
        let bad = unsafe_vars(r);
        if !bad.is_empty() {
            let names: Vec<_> = bad.iter().map(|s| s.as_str()).collect();
            return Err(crate::error::Error::analysis(format!(
                "rule {i} (`{r}`) is unsafe: variables {{{}}} cannot be bound",
                names.join(", ")
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_rule;

    #[test]
    fn atom_bound_vars_are_safe() {
        let r = parse_rule("p(X,Y) :- e(X,Y), X < Y.").unwrap();
        assert!(unsafe_vars(&r).is_empty());
    }

    #[test]
    fn equality_chain_binds() {
        let r = parse_rule("p(X,Y) :- e(X), Y = X.").unwrap();
        assert!(unsafe_vars(&r).is_empty());
        let r = parse_rule("p(X,Y) :- e(X), Y = 3.").unwrap();
        assert!(unsafe_vars(&r).is_empty());
        let r = parse_rule("p(X,Y) :- e(X), Y = Z, Z = X.").unwrap();
        assert!(unsafe_vars(&r).is_empty());
    }

    #[test]
    fn inequality_does_not_bind() {
        let r = parse_rule("p(X,Y) :- e(X), Y < 3.").unwrap();
        let bad = unsafe_vars(&r);
        assert_eq!(bad.len(), 1);
        assert!(bad.contains(&Symbol::intern("Y")));
    }

    #[test]
    fn head_only_var_is_unsafe() {
        let r = parse_rule("p(X,Y) :- e(X).").unwrap();
        assert!(!unsafe_vars(&r).is_empty());
    }

    #[test]
    fn program_check_message() {
        let p: Program = "p(X) :- e(X). q(Y) :- f(Z), Y > Z.".parse().unwrap();
        let err = check_program_safety(&p).unwrap_err();
        assert!(err.to_string().contains("rule 1"));
        assert!(err.to_string().contains('Y'));
    }
}
