//! Unification and one-way matching for the function-free language.
//!
//! With no function symbols, unification needs no occurs check and a most
//! general unifier is a variable-to-term map closed under itself.

use crate::atom::Atom;
use crate::subst::Subst;
use crate::symbol::Symbol;
use crate::term::Term;

/// Resolves `t` through `s` repeatedly until it is a constant or an unbound
/// variable. Terminates because each step strictly follows a binding and
/// bindings form a forest (we never insert cycles in [`unify_terms`]).
fn walk(s: &Subst, mut t: Term) -> Term {
    while let Term::Var(v) = t {
        match s.get(v) {
            Some(next) if next != t => t = next,
            _ => break,
        }
    }
    t
}

/// Extends `s` to a unifier of `a` and `b`. Returns `false` (leaving `s` in
/// an unspecified but safe state) if they don't unify.
pub fn unify_terms(s: &mut Subst, a: Term, b: Term) -> bool {
    let a = walk(s, a);
    let b = walk(s, b);
    match (a, b) {
        (Term::Const(x), Term::Const(y)) => x == y,
        (Term::Var(v), t) | (t, Term::Var(v)) => {
            if Term::Var(v) == t {
                true
            } else {
                s.insert(v, t);
                true
            }
        }
    }
}

/// Most general unifier of two atoms, if any.
pub fn unify_atoms(a: &Atom, b: &Atom) -> Option<Subst> {
    if a.pred != b.pred || a.arity() != b.arity() {
        return None;
    }
    let mut s = Subst::new();
    for (&x, &y) in a.args.iter().zip(&b.args) {
        if !unify_terms(&mut s, x, y) {
            return None;
        }
    }
    // Close the substitution under itself so `apply` needs no chasing.
    Some(resolve(&s))
}

/// Fully resolves every binding in `s` (paths like `X ↦ Y, Y ↦ 3` become
/// `X ↦ 3, Y ↦ 3`).
pub fn resolve(s: &Subst) -> Subst {
    s.iter().map(|(v, _)| (v, walk(s, Term::Var(v)))).collect()
}

/// One-way matching: extends `s` so that `pattern·s = target`, binding only
/// variables of `pattern`, each recorded on `trail`. The target is treated
/// as fixed (its variables are constants for the purpose of the match).
/// Returns `false` on mismatch; `s` may then hold partial bindings.
pub fn match_term(s: &mut Subst, pattern: Term, target: Term, trail: &mut Vec<Symbol>) -> bool {
    match pattern {
        Term::Const(c) => target == Term::Const(c),
        Term::Var(v) => match s.get(v) {
            Some(bound) => bound == target,
            None => {
                s.bind(v, target, trail);
                true
            }
        },
    }
}

/// One-way matching of atoms: extends `s` with bindings for `pattern`'s
/// variables so that `pattern·s = target`, recording them on `trail`.
pub fn match_atom(s: &mut Subst, pattern: &Atom, target: &Atom, trail: &mut Vec<Symbol>) -> bool {
    if pattern.pred != target.pred || pattern.arity() != target.arity() {
        return false;
    }
    pattern
        .args
        .iter()
        .zip(&target.args)
        .all(|(&p, &t)| match_term(s, p, t, trail))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(p: &str, args: &[Term]) -> Atom {
        Atom::new(p, args.to_vec())
    }

    #[test]
    fn unify_simple() {
        let s = unify_atoms(
            &a("p", &[Term::var("X"), Term::int(3)]),
            &a("p", &[Term::int(1), Term::var("Y")]),
        )
        .unwrap();
        assert_eq!(s.apply_term(Term::var("X")), Term::int(1));
        assert_eq!(s.apply_term(Term::var("Y")), Term::int(3));
    }

    #[test]
    fn unify_chained_vars_resolve() {
        // p(X, X) with p(Y, 3) must give X=3, Y=3.
        let s = unify_atoms(
            &a("p", &[Term::var("X"), Term::var("X")]),
            &a("p", &[Term::var("Y"), Term::int(3)]),
        )
        .unwrap();
        assert_eq!(s.apply_term(Term::var("X")), Term::int(3));
        assert_eq!(s.apply_term(Term::var("Y")), Term::int(3));
    }

    #[test]
    fn unify_failures() {
        assert!(unify_atoms(&a("p", &[Term::int(1)]), &a("p", &[Term::int(2)])).is_none());
        assert!(unify_atoms(&a("p", &[Term::int(1)]), &a("q", &[Term::int(1)])).is_none());
        // p(X, X) with p(1, 2) must fail.
        assert!(unify_atoms(
            &a("p", &[Term::var("X"), Term::var("X")]),
            &a("p", &[Term::int(1), Term::int(2)])
        )
        .is_none());
    }

    #[test]
    fn matching_is_one_way() {
        let mut s = Subst::new();
        // pattern p(X, X) matches target p(Y, Y) with X ↦ Y …
        assert!(match_atom(
            &mut s,
            &a("p", &[Term::var("X"), Term::var("X")]),
            &a("p", &[Term::var("Y"), Term::var("Y")]),
            &mut Vec::new(),
        ));
        assert_eq!(s.get(Symbol::intern("X")), Some(Term::var("Y")));

        // … but target variables are never bound: p(Z) does not match p(1)
        // in the reverse direction.
        let mut s = Subst::new();
        assert!(match_atom(
            &mut s,
            &a("p", &[Term::var("Z")]),
            &a("p", &[Term::int(1)]),
            &mut Vec::new(),
        ));
        let mut s2 = Subst::new();
        assert!(!match_atom(
            &mut s2,
            &a("p", &[Term::int(1)]),
            &a("p", &[Term::var("Z")]),
            &mut Vec::new(),
        ));
    }

    #[test]
    fn matching_consistency() {
        let mut s = Subst::new();
        // p(X, X) cannot match p(1, 2).
        assert!(!match_atom(
            &mut s,
            &a("p", &[Term::var("X"), Term::var("X")]),
            &a("p", &[Term::int(1), Term::int(2)]),
            &mut Vec::new(),
        ));
    }
}
