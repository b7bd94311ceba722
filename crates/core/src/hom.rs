//! Homomorphism search over conjunctions of atoms, used by the residue
//! usefulness check ([`crate::residue`]).
//!
//! A *folding homomorphism* here is an idempotent variable mapping `h`
//! that fixes a set of protected variables and sends every source atom
//! onto some target atom under a single application. Idempotency (every
//! variable in `h`'s range is frozen to itself) makes single application
//! well-defined during the backtracking search: once a variable is bound —
//! possibly to itself — later atoms can never silently invalidate earlier
//! matches.

use semrec_datalog::atom::Atom;
use semrec_datalog::subst::Subst;
use semrec_datalog::symbol::Symbol;
use semrec_datalog::term::Term;
use std::collections::BTreeSet;

/// Extends `h` with `v ↦ t`, keeping the mapping idempotent. Returns
/// `false` on conflict.
pub fn bind(h: &mut Subst, v: Symbol, t: Term) -> bool {
    match h.get(v) {
        Some(prev) => prev == t,
        None => {
            if let Term::Var(w) = t {
                if w != v {
                    match h.get(w) {
                        Some(p) if p != Term::Var(w) => return false,
                        Some(_) => {}
                        None => {
                            h.insert(w, Term::Var(w));
                        }
                    }
                }
            }
            h.insert(v, t);
            true
        }
    }
}

/// Matches `h(source)` onto `target`, binding remaining unprotected
/// variables (identity bindings included), returning the extended mapping.
pub fn match_into(
    source: &Atom,
    target: &Atom,
    h: &Subst,
    protected: &BTreeSet<Symbol>,
) -> Option<Subst> {
    if source.pred != target.pred || source.arity() != target.arity() {
        return None;
    }
    let mut h2 = h.clone();
    for (&st, &tt) in source.args.iter().zip(&target.args) {
        match st {
            Term::Const(_) => {
                if st != tt {
                    return None;
                }
            }
            Term::Var(v) if protected.contains(&v) => {
                if Term::Var(v) != tt {
                    return None;
                }
            }
            Term::Var(v) => {
                if !bind(&mut h2, v, tt) {
                    return None;
                }
            }
        }
    }
    Some(h2)
}

/// Backtracking search: can `h` (fixing `protected`) be extended so every
/// atom of `sources` maps into `targets`?
pub fn extend_hom(
    sources: &[&Atom],
    i: usize,
    h: &Subst,
    protected: &BTreeSet<Symbol>,
    targets: &[&Atom],
) -> bool {
    let Some(atom) = sources.get(i) else {
        return true;
    };
    for target in targets {
        if let Some(h2) = match_into(atom, target, h, protected) {
            if extend_hom(sources, i + 1, &h2, protected, targets) {
                return true;
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use semrec_datalog::parser::parse_atom;

    fn a(s: &str) -> Atom {
        parse_atom(s).unwrap()
    }

    fn protected(names: &[&str]) -> BTreeSet<Symbol> {
        names.iter().map(|n| Symbol::intern(n)).collect()
    }

    #[test]
    fn bind_is_idempotent() {
        let mut h = Subst::new();
        assert!(bind(&mut h, Symbol::intern("A"), Term::var("B")));
        // B is frozen to itself; remapping it fails.
        assert!(!bind(&mut h, Symbol::intern("B"), Term::int(3)));
        // Rebinding A consistently succeeds, inconsistently fails.
        assert!(bind(&mut h, Symbol::intern("A"), Term::var("B")));
        assert!(!bind(&mut h, Symbol::intern("A"), Term::var("C")));
    }

    #[test]
    fn extend_hom_folds_chain() {
        // e(X, Y), e(Y, Z) with protected {X} folds into e(X, Y) by
        // Y ↦ … no: e(Y,Z) must land on e(X,Y), needing Y ↦ X — but X is
        // only protected as a *domain* restriction; Y ↦ X is allowed.
        let s1 = a("e(X, Y)");
        let s2 = a("e(Y, Z)");
        let t = a("e(X, Y)");
        let sources = vec![&s1, &s2];
        let targets = vec![&t];
        // h must send e(Y,Z) onto e(X,Y): Y↦X conflicts with s1's Y↦Y
        // binding (s1 maps onto t binding X↦X, Y↦Y). So this fails …
        assert!(!extend_hom(
            &sources,
            0,
            &Subst::new(),
            &protected(&["X"]),
            &targets
        ));
        // … but a triangle folds: e(X, Y), e(Y, Y) into targets {e(X,Y), e(Y,Y)}.
        let s3 = a("e(Y, Y)");
        let sources = vec![&s1, &s3];
        let t2 = a("e(Y, Y)");
        let targets = vec![&t, &t2];
        assert!(extend_hom(
            &sources,
            0,
            &Subst::new(),
            &protected(&["X"]),
            &targets
        ));
    }

    #[test]
    fn protected_vars_must_map_identically() {
        let s = a("p(X)");
        let t = a("p(Y)");
        let sources = vec![&s];
        let targets = vec![&t];
        assert!(!extend_hom(
            &sources,
            0,
            &Subst::new(),
            &protected(&["X"]),
            &targets
        ));
        assert!(extend_hom(
            &sources,
            0,
            &Subst::new(),
            &protected(&[]),
            &targets
        ));
    }
}
