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

/// Extends `h` with `v ↦ t`, keeping the mapping idempotent and recording
/// new bindings on `trail`. Returns `false` on conflict.
pub fn bind_idempotent(h: &mut Subst, v: Symbol, t: Term, trail: &mut Vec<Symbol>) -> bool {
    match h.get(v) {
        Some(prev) => prev == t,
        None => {
            if let Term::Var(w) = t {
                if w != v {
                    match h.get(w) {
                        Some(p) if p != Term::Var(w) => return false,
                        Some(_) => {}
                        None => h.bind(w, Term::Var(w), trail),
                    }
                }
            }
            h.bind(v, t, trail);
            true
        }
    }
}

/// Matches `h(source)` onto `target` in place, binding remaining
/// unprotected variables (identity bindings included). On `false`, `h`
/// may hold partial bindings, recorded on `trail`.
fn match_into(
    source: &Atom,
    target: &Atom,
    h: &mut Subst,
    trail: &mut Vec<Symbol>,
    protected: &impl Fn(Symbol) -> bool,
) -> bool {
    let mut args = source.args.iter().zip(&target.args);
    source.pred == target.pred
        && source.arity() == target.arity()
        && args.all(|(&st, &tt)| match st {
            Term::Const(_) => st == tt,
            Term::Var(v) if protected(v) => st == tt,
            Term::Var(v) => bind_idempotent(h, v, tt, trail),
        })
}

/// Backtracking search: can `h` (fixing the variables `protected` holds) be
/// extended so every atom of `sources` maps into one of `targets()`? One
/// `h` is bound in place; a failed candidate's bindings are undone.
pub fn extend_hom<'t, T: Iterator<Item = &'t Atom>>(
    mut sources: impl Iterator<Item = &'t Atom> + Clone,
    h: &mut Subst,
    trail: &mut Vec<Symbol>,
    protected: &impl Fn(Symbol) -> bool,
    targets: &impl Fn() -> T,
) -> bool {
    let Some(atom) = sources.next() else {
        return true;
    };
    for target in targets() {
        let mark = trail.len();
        if match_into(atom, target, h, trail, protected)
            && extend_hom(sources.clone(), h, trail, protected, targets)
        {
            return true;
        }
        h.undo(trail, mark);
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

    fn protected(names: &[&str]) -> Vec<Symbol> {
        names.iter().map(|n| Symbol::intern(n)).collect()
    }

    /// Whether the empty mapping extends to a homomorphism.
    fn extends(sources: &[&Atom], protected: &[Symbol], targets: &[&Atom]) -> bool {
        let (mut h, mut trail) = (Subst::new(), Vec::new());
        let targets = || targets.iter().copied();
        let protected = |v| protected.contains(&v);
        extend_hom(
            sources.iter().copied(),
            &mut h,
            &mut trail,
            &protected,
            &targets,
        )
    }

    #[test]
    fn bind_is_idempotent() {
        let (mut h, mut trail) = (Subst::new(), Vec::new());
        assert!(bind_idempotent(
            &mut h,
            Symbol::intern("A"),
            Term::var("B"),
            &mut trail
        ));
        // B is frozen to itself; remapping it fails.
        assert!(!bind_idempotent(
            &mut h,
            Symbol::intern("B"),
            Term::int(3),
            &mut trail
        ));
        // Rebinding A consistently succeeds, inconsistently fails.
        assert!(bind_idempotent(
            &mut h,
            Symbol::intern("A"),
            Term::var("B"),
            &mut trail
        ));
        assert!(!bind_idempotent(
            &mut h,
            Symbol::intern("A"),
            Term::var("C"),
            &mut trail
        ));
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
        assert!(!extends(&sources, &protected(&["X"]), &targets));
        // … but a triangle folds: e(X, Y), e(Y, Y) into targets {e(X,Y), e(Y,Y)}.
        let s3 = a("e(Y, Y)");
        let sources = vec![&s1, &s3];
        let t2 = a("e(Y, Y)");
        let targets = vec![&t, &t2];
        assert!(extends(&sources, &protected(&["X"]), &targets));
    }

    #[test]
    fn protected_vars_must_map_identically() {
        let s = a("p(X)");
        let t = a("p(Y)");
        let sources = vec![&s];
        let targets = vec![&t];
        assert!(!extends(&sources, &protected(&["X"]), &targets));
        assert!(extends(&sources, &protected(&[]), &targets));
    }
}
