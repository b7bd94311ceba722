//! Algebraic laws of substitutions and unification, tested over randomized
//! inputs.
//!
//! Seeded-loop rewrite of a former `proptest` suite (offline-build policy:
//! no registry deps for `cargo test -q`). `semrec-datalog` sits below
//! `semrec-gen` in the crate graph, so this file carries its own tiny
//! SplitMix64 instead of using `semrec_gen::rng`.

use semrec_datalog::atom::Atom;
use semrec_datalog::subst::Subst;
use semrec_datalog::symbol::Symbol;
use semrec_datalog::term::{Term, Value};
use semrec_datalog::unify::{match_atom, unify_atoms};

/// Minimal SplitMix64 — same algorithm as `semrec_gen::rng::Rng`.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        ((u128::from(self.next()) * u128::from(bound)) >> 64) as u64
    }
}

fn random_term(rng: &mut Rng) -> Term {
    if rng.below(2) == 0 {
        Term::var(&format!("V{}", rng.below(6)))
    } else {
        Term::int(rng.below(5) as i64)
    }
}

fn random_atom(rng: &mut Rng, pred: &str) -> Atom {
    let arity = 1 + rng.below(3) as usize;
    Atom::new(pred, (0..arity).map(|_| random_term(rng)).collect())
}

fn random_subst(rng: &mut Rng) -> Subst {
    let n = rng.below(5) as usize;
    Subst::from_pairs((0..n).map(|_| {
        let v = Symbol::intern(&format!("V{}", rng.below(6)));
        (v, random_term(rng))
    }))
}

/// compose agrees with sequential application pointwise.
#[test]
fn compose_is_sequential_application() {
    for case in 0u64..128 {
        let rng = &mut Rng(0x10 + case);
        let s1 = random_subst(rng);
        let s2 = random_subst(rng);
        let t = random_term(rng);
        let c = s1.compose(&s2);
        assert_eq!(
            c.apply_term(t),
            s2.apply_term(s1.apply_term(t)),
            "case {case}"
        );
    }
}

/// The empty substitution is a left and right identity of compose.
#[test]
fn identity_laws() {
    for case in 0u64..128 {
        let rng = &mut Rng(0x20 + case);
        let s = random_subst(rng);
        let t = random_term(rng);
        let id = Subst::new();
        assert_eq!(id.compose(&s).apply_term(t), s.apply_term(t), "case {case}");
        assert_eq!(s.compose(&id).apply_term(t), s.apply_term(t), "case {case}");
    }
}

/// A successful unifier really unifies (mgu soundness).
#[test]
fn unifier_unifies() {
    for case in 0u64..128 {
        let rng = &mut Rng(0x30 + case);
        let a = random_atom(rng, "p");
        let b = random_atom(rng, "p");
        if a.arity() == b.arity() {
            if let Some(mgu) = unify_atoms(&a, &b) {
                assert_eq!(mgu.apply_atom(&a), mgu.apply_atom(&b), "case {case}");
            }
        }
    }
}

/// Unification is symmetric in success.
#[test]
fn unification_symmetry() {
    for case in 0u64..128 {
        let rng = &mut Rng(0x40 + case);
        let a = random_atom(rng, "p");
        let b = random_atom(rng, "p");
        assert_eq!(
            unify_atoms(&a, &b).is_some(),
            unify_atoms(&b, &a).is_some(),
            "case {case}"
        );
    }
}

/// Matching is sound: pattern·θ = target.
#[test]
fn matching_soundness() {
    for case in 0u64..128 {
        let rng = &mut Rng(0x50 + case);
        let pattern = random_atom(rng, "p");
        let target = random_atom(rng, "p");
        let mut theta = Subst::new();
        if match_atom(&mut theta, &pattern, &target, &mut Vec::new()) {
            assert_eq!(theta.apply_atom(&pattern), target, "case {case}");
        }
    }
}

/// Matching implies unifiability (one-way is stricter than two-way)
/// when pattern and target share no variables.
#[test]
fn matching_implies_unification_on_disjoint_vars() {
    for case in 0u64..128 {
        let rng = &mut Rng(0x60 + case);
        let pattern = random_atom(rng, "p");
        let arity = 1 + rng.below(3) as usize;
        let target = Atom::new(
            "p",
            (0..arity).map(|_| Term::int(rng.below(5) as i64)).collect(),
        );
        if pattern.arity() == target.arity() {
            let mut theta = Subst::new();
            if match_atom(&mut theta, &pattern, &target, &mut Vec::new()) {
                assert!(unify_atoms(&pattern, &target).is_some(), "case {case}");
            }
        }
    }
}

/// Value ordering is total and antisymmetric; ints sort before strings.
#[test]
fn value_order_total() {
    for case in 0u64..128 {
        let rng = &mut Rng(0x70 + case);
        let x = Value::Int(rng.below(100) as i64);
        let y = Value::Int(rng.below(100) as i64);
        let s: String = (0..1 + rng.below(4))
            .map(|_| (b'a' + rng.below(26) as u8) as char)
            .collect();
        let z = Value::str(&s);
        assert_eq!(x.cmp(&y).reverse(), y.cmp(&x), "case {case}");
        assert!(x < z, "ints sort before strings (case {case})");
    }
}
