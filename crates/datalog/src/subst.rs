//! Substitutions: finite maps from variables to terms.

use crate::atom::Atom;
use crate::literal::{Cmp, Literal};
use crate::rule::Rule;
use crate::symbol::Symbol;
use crate::term::Term;
use std::fmt;

/// A substitution `{X1 ↦ t1, …}`. Application replaces free occurrences of
/// the mapped variables; unmapped variables are left untouched.
///
/// Bindings sorted by variable, so iteration order (and `Display`) is
/// deterministic and a few bindings are one allocation. A backtracking
/// search binds in place with [`Subst::bind`], which records each new
/// variable on a trail, and takes bindings back with [`Subst::undo`].
#[derive(Clone, Default, PartialEq, Eq, Debug)]
pub struct Subst {
    pairs: Vec<(Symbol, Term)>,
}

impl Subst {
    /// The empty substitution.
    pub fn new() -> Subst {
        Subst::default()
    }

    /// Builds a substitution from pairs. Later pairs overwrite earlier ones.
    pub fn from_pairs(pairs: impl IntoIterator<Item = (Symbol, Term)>) -> Subst {
        let mut s = Subst::new();
        s.assign(pairs);
        s
    }

    /// Replaces every binding by `pairs`, as [`Subst::from_pairs`] builds
    /// them, in the allocation `self` already has.
    pub fn assign(&mut self, pairs: impl IntoIterator<Item = (Symbol, Term)>) {
        let pairs_of = &mut self.pairs;
        pairs_of.clear();
        pairs_of.extend(pairs);
        // Reversed, a stable sort puts the last pair of a variable first,
        // where the dedup keeps it.
        pairs_of.reverse();
        pairs_of.sort_by_key(|&(v, _)| v);
        pairs_of.dedup_by_key(|&mut (v, _)| v);
    }

    /// Number of bindings.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// True if no variable is bound.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    fn find(&self, v: Symbol) -> Result<usize, usize> {
        self.pairs.binary_search_by_key(&v, |&(w, _)| w)
    }

    /// The binding for `v`, if any.
    pub fn get(&self, v: Symbol) -> Option<Term> {
        self.find(v).ok().map(|i| self.pairs[i].1)
    }

    /// Binds `v ↦ t`, returning the previous binding if one existed.
    pub fn insert(&mut self, v: Symbol, t: Term) -> Option<Term> {
        match self.find(v) {
            Ok(i) => Some(std::mem::replace(&mut self.pairs[i].1, t)),
            Err(i) => {
                self.pairs.insert(i, (v, t));
                None
            }
        }
    }

    /// Binds the unbound `v ↦ t` and records `v` on `trail`.
    pub fn bind(&mut self, v: Symbol, t: Term, trail: &mut Vec<Symbol>) {
        let prev = self.insert(v, t);
        assert!(prev.is_none(), "{v} bound twice: undo could not restore it");
        trail.push(v);
    }

    /// Takes back the bindings recorded on `trail` from `mark` on.
    pub fn undo(&mut self, trail: &mut Vec<Symbol>, mark: usize) {
        for v in trail.drain(mark..) {
            let i = self.find(v).expect("a trailed variable is bound");
            self.pairs.remove(i);
        }
    }

    /// Iterator over bindings in deterministic order.
    pub fn iter(&self) -> impl Iterator<Item = (Symbol, Term)> + '_ {
        self.pairs.iter().copied()
    }

    /// Applies the substitution to a term.
    pub fn apply_term(&self, t: Term) -> Term {
        match t {
            Term::Var(v) => self.get(v).unwrap_or(t),
            Term::Const(_) => t,
        }
    }

    /// Applies the substitution to every argument of an atom.
    pub fn apply_atom(&self, a: &Atom) -> Atom {
        Atom {
            pred: a.pred,
            args: a.args.iter().map(|&t| self.apply_term(t)).collect(),
        }
    }

    /// Applies the substitution to a comparison.
    pub fn apply_cmp(&self, c: &Cmp) -> Cmp {
        Cmp {
            lhs: self.apply_term(c.lhs),
            op: c.op,
            rhs: self.apply_term(c.rhs),
        }
    }

    /// Applies the substitution to a literal.
    pub fn apply_literal(&self, l: &Literal) -> Literal {
        match l {
            Literal::Atom(a) => Literal::Atom(self.apply_atom(a)),
            Literal::Neg(a) => Literal::Neg(self.apply_atom(a)),
            Literal::Cmp(c) => Literal::Cmp(self.apply_cmp(c)),
        }
    }

    /// Applies the substitution to a whole rule.
    pub fn apply_rule(&self, r: &Rule) -> Rule {
        Rule {
            head: self.apply_atom(&r.head),
            body: r.body.iter().map(|l| self.apply_literal(l)).collect(),
        }
    }

    /// Composition: `(self ∘ other)(t) = other(self(t))` — i.e. first apply
    /// `self`'s bindings, then rewrite the results with `other`; variables
    /// bound only by `other` are also carried over.
    pub fn compose(&self, other: &Subst) -> Subst {
        let mine = self.iter().map(|(v, t)| (v, other.apply_term(t)));
        Subst::from_pairs(other.iter().chain(mine))
    }
}

impl fmt::Display for Subst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (v, t)) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}/{t}")?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<(Symbol, Term)> for Subst {
    fn from_iter<I: IntoIterator<Item = (Symbol, Term)>>(iter: I) -> Self {
        Subst::from_pairs(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::literal::CmpOp;

    fn s(name: &str) -> Symbol {
        Symbol::intern(name)
    }

    #[test]
    fn apply_basics() {
        let sub = Subst::from_pairs([(s("X"), Term::int(1)), (s("Y"), Term::var("Z"))]);
        assert_eq!(sub.apply_term(Term::var("X")), Term::int(1));
        assert_eq!(sub.apply_term(Term::var("Y")), Term::var("Z"));
        assert_eq!(sub.apply_term(Term::var("W")), Term::var("W"));
        let a = Atom::new("p", vec![Term::var("X"), Term::var("W")]);
        assert_eq!(sub.apply_atom(&a).to_string(), "p(1, W)");
    }

    #[test]
    fn compose_order() {
        // self = {X -> Y}, other = {Y -> 3}: compose applies self then other.
        let s1 = Subst::from_pairs([(s("X"), Term::var("Y"))]);
        let s2 = Subst::from_pairs([(s("Y"), Term::int(3))]);
        let c = s1.compose(&s2);
        assert_eq!(c.apply_term(Term::var("X")), Term::int(3));
        assert_eq!(c.apply_term(Term::var("Y")), Term::int(3));
    }

    #[test]
    fn apply_cmp() {
        let sub = Subst::from_pairs([(s("X"), Term::int(9))]);
        let c = Cmp::new(Term::var("X"), CmpOp::Gt, Term::int(3));
        assert_eq!(sub.apply_cmp(&c).eval_ground(), Some(true));
    }

    #[test]
    fn display_is_deterministic() {
        // Bindings sort by symbol, that is by interning order: intern A
        // before B, as a source naming them in that order would.
        let (a, b) = (s("A"), s("B"));
        let sub = Subst::from_pairs([(b, Term::int(2)), (a, Term::int(1))]);
        assert_eq!(sub.to_string(), "{A/1, B/2}");
    }

    /// SplitMix64, for the seeded model test.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % n
        }
    }

    /// The model: the map the substitution used to be.
    type Model = std::collections::BTreeMap<Symbol, Term>;

    fn term(rng: &mut Rng) -> Term {
        match rng.below(3) {
            0 => Term::int(rng.below(4) as i64),
            _ => Term::var(&format!("M{}", rng.below(8))),
        }
    }

    fn pairs(rng: &mut Rng) -> Vec<(Symbol, Term)> {
        let n = rng.below(7);
        (0..n)
            .map(|_| (s(&format!("M{}", rng.below(8))), term(rng)))
            .collect()
    }

    fn model_display(m: &Model) -> String {
        let parts: Vec<String> = m.iter().map(|(v, t)| format!("{v}/{t}")).collect();
        format!("{{{}}}", parts.join(", "))
    }

    fn model_apply(m: &Model, t: Term) -> Term {
        t.as_var().and_then(|v| m.get(&v).copied()).unwrap_or(t)
    }

    /// Every operation agrees with a `BTreeMap` model over random
    /// sequences, and undoing a trail restores the state before the
    /// bindings it recorded.
    #[test]
    fn agrees_with_a_map_model() {
        for case in 0u64..300 {
            let rng = &mut Rng(case);
            let (ps, qs) = (pairs(rng), pairs(rng));
            let (a, b) = (Subst::from_pairs(ps.clone()), Subst::from_pairs(qs.clone()));
            let (ma, mb): (Model, Model) = (ps.into_iter().collect(), qs.into_iter().collect());
            let what = format!("case {case}: {a} {b}");
            assert_eq!(
                a.iter().collect::<Vec<_>>(),
                ma.clone().into_iter().collect::<Vec<_>>()
            );
            assert_eq!(
                (a.len(), a.to_string()),
                (ma.len(), model_display(&ma)),
                "{what}"
            );
            assert_eq!(a == b, ma == mb, "{what}");
            let mut composed: Model = ma.iter().map(|(&v, &t)| (v, model_apply(&mb, t))).collect();
            for (&v, &t) in &mb {
                composed.entry(v).or_insert(t);
            }
            assert_eq!(
                model_display(&composed),
                a.compose(&b).to_string(),
                "{what}"
            );
            let atom = Atom::new("p", (0..4).map(|_| term(rng)).collect());
            let applied: Vec<Term> = atom.args.iter().map(|&t| model_apply(&ma, t)).collect();
            assert_eq!(a.apply_atom(&atom).args, applied, "{what}");
            let cmp = Cmp::new(term(rng), crate::literal::CmpOp::Lt, term(rng));
            let want = Cmp::new(model_apply(&ma, cmp.lhs), cmp.op, model_apply(&ma, cmp.rhs));
            assert_eq!(a.apply_cmp(&cmp), want, "{what}");

            // Insert and get, step by step; then bind fresh variables on
            // a trail at two levels and undo the inner, then the outer.
            let (mut sub, mut model) = (a.clone(), ma.clone());
            for _ in 0..4 {
                let (v, t) = (s(&format!("M{}", rng.below(8))), term(rng));
                assert_eq!(sub.insert(v, t), model.insert(v, t), "{what}");
                let probe = s(&format!("M{}", rng.below(8)));
                assert_eq!(sub.get(probe), model.get(&probe).copied(), "{what}");
            }
            let before = sub.clone();
            let mut trail = vec![s("unrelated")];
            let fresh = |k: u64| s(&format!("F{k}"));
            sub.bind(fresh(0), term(rng), &mut trail);
            let (outer, mark) = (sub.clone(), trail.len());
            sub.bind(fresh(1), term(rng), &mut trail);
            sub.bind(fresh(2), Term::var("F0"), &mut trail);
            sub.undo(&mut trail, mark);
            assert_eq!((&sub, trail.len()), (&outer, mark), "{what}");
            sub.undo(&mut trail, 1);
            assert_eq!(sub, before, "{what}");
            assert_eq!(sub.to_string(), model_display(&model), "{what}");
        }
    }
}
