//! Random linear-recursive program generation, for property-testing the
//! transformations on programs beyond the hand-written scenarios, and
//! [`multi_block`], a seeded many-block source for the compile step.
//!
//! Every program [`random_linear`] generates satisfies the paper's
//! assumptions by construction: rectified heads, range-restricted,
//! connected (the body is a chain of binary atoms over a shuffled variable
//! list), safe, and linearly recursive with one exit rule.

use crate::rng::Rng;
use semrec_datalog::atom::{Atom, Pred};
use semrec_datalog::literal::Literal;
use semrec_datalog::program::Program;
use semrec_datalog::rule::Rule;
use semrec_datalog::term::Term;
use std::fmt::Write;

/// Parameters for [`random_linear`].
#[derive(Clone, Copy, Debug)]
pub struct RandomLinearParams {
    /// Arity of the recursive predicate (2..=4 recommended).
    pub arity: usize,
    /// Number of recursive rules (1..=3 recommended).
    pub recursive_rules: usize,
    /// Local variables per recursive rule (0..=2 recommended).
    pub locals: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for RandomLinearParams {
    fn default() -> Self {
        RandomLinearParams {
            arity: 2,
            recursive_rules: 1,
            locals: 1,
            seed: 42,
        }
    }
}

/// Generates a random linear program over predicate `p`, with EDB
/// predicates `e0` (the exit relation, arity = `arity`) and `b<r>x<i>`
/// (binary chain relations of rule `r`).
pub fn random_linear(params: &RandomLinearParams) -> Program {
    let mut rng = Rng::seed_from_u64(params.seed);
    let n = params.arity.clamp(1, 6);
    let head_vars: Vec<Term> = (0..n).map(|i| Term::var(&format!("X{i}"))).collect();
    let head = Atom::new("p", head_vars.clone());

    let mut rules = vec![Rule::new(
        head.clone(),
        vec![Literal::Atom(Atom::new("e0", head_vars.clone()))],
    )];

    for r in 0..params.recursive_rules.max(1) {
        let mut vars = head_vars.clone();
        for l in 0..params.locals {
            vars.push(Term::var(&format!("L{r}x{l}")));
        }
        // A chain of binary atoms over a shuffled copy covers every
        // variable and keeps the body connected.
        let mut shuffled = vars.clone();
        rng.shuffle(&mut shuffled);
        let mut body: Vec<Literal> = Vec::new();
        if shuffled.len() == 1 {
            body.push(Literal::Atom(Atom::new(
                format!("b{r}x0").as_str(),
                vec![shuffled[0], shuffled[0]],
            )));
        }
        for (i, w) in shuffled.windows(2).enumerate() {
            body.push(Literal::Atom(Atom::new(
                format!("b{r}x{i}").as_str(),
                vec![w[0], w[1]],
            )));
        }
        // Recursive call: each position picks any variable (bound by the
        // chain, so the rule stays safe).
        let call_args: Vec<Term> = (0..n).map(|_| vars[rng.gen_range(0..vars.len())]).collect();
        body.push(Literal::Atom(Atom::new("p", call_args)));
        rules.push(Rule::new(head.clone(), body));
    }
    Program::new(rules)
}

/// The small relations of [`multi_block`]'s programs (atom introduction).
pub fn multi_block_small(blocks: u32) -> impl Iterator<Item = Pred> {
    (0..blocks).map(|i| Pred::new(&format!("f{i}")))
}

/// `blocks` (a multiple of 4, at least 12) recursive predicates in four
/// shapes, covering what the benchmark's `compile_cli` input does not.
/// Per block the work is constant and no constraint matches more than
/// two blocks, so every detection counter is linear in `blocks`; the
/// seed picks the partner of each partial-overlap constraint and the
/// constants.
///
/// * `i % 4 == 0`: witness elimination as in `compile_cli` beside a
///   conditional comparison to introduce, plus a non-recursive view over
///   the same atoms (a rule-level residue);
/// * `1`: recursion over `s{i/4}`, an EDB predicate the next block reads
///   too, with the previous block called as a subgoal; its one residue
///   sits on a two-step sequence, so the push builds `@` auxiliaries;
/// * `2`: a predicate repeated inside one rule; its last constraint is
///   listed under `s{i/4}`, out of order with those under `r{i}`;
/// * `3`: every rule dies in cleanup (false exit rule, dead callee).
///
/// Each block also gets a constraint over its own main predicate *and*
/// that of a block in another group: some, never all, of its body
/// predicates occur in either block.
pub fn multi_block(seed: u64, blocks: u32) -> String {
    assert!(blocks >= 12 && blocks.is_multiple_of(4));
    let mut rng = Rng::seed_from_u64(seed);
    let main = |i: u32| match i % 4 {
        1 => format!("s{}", i / 4),
        2 => format!("r{i}"),
        _ => format!("e{i}"),
    };
    let mut t = String::new();
    for i in 0..blocks {
        let (g, c) = (i / 4, rng.gen_range(0..1000i64));
        let _ = match i % 4 {
            0 => writeln!(
                t,
                "p{i}(X, Y) :- e{i}(X, Y).
                 p{i}(X, Y) :- e{i}(X, Z), w{i}(Z, W), p{i}(Z, Y).
                 v{i}(X, Z) :- e{i}(X, Z), w{i}(Z, W).
                 ic u{i}: e{i}(X, Z) -> w{i}(Z, W).
                 ic c{i}: e{i}(X, Z), Z > {c} -> X < Z."
            ),
            1 => writeln!(
                t,
                "p{i}(X, Y) :- s{g}(X, Y).
                 p{i}(X, Y) :- s{g}(X, Z), p{}(Z, V), p{i}(Z, Y).
                 ic a{i}: s{g}(X, Y), s{g}(Y, Z) -> .",
                i - 1
            ),
            2 => writeln!(
                t,
                "p{i}(X, Y) :- s{g}(X, Y).
                 p{i}(X, Y) :- r{i}(X, M), r{i}(M, Z), p{i}(Z, Y).
                 ic a{i}: r{i}(A, B), r{i}(B, C) -> f{i}(A, C).
                 ic b{i}: r{i}(A, B), B > {c} -> .
                 ic c{i}: s{g}(B, C), r{i}(A, B) -> ."
            ),
            _ => writeln!(
                t,
                "d{i}(X) :- e{i}(X, X), 1 > 2.
                 p{i}(X, Y) :- e{i}(X, Y), 1 > 2.
                 p{i}(X, Y) :- e{i}(X, Z), w{i}(Z, W), d{i}(Z), p{i}(Z, Y).
                 ic u{i}: e{i}(X, Z) -> w{i}(Z, W)."
            ),
        };
        let j = (i + 4 + rng.gen_range(0..(blocks - 8) as usize) as u32) % blocks;
        let _ = writeln!(t, "ic n{i}: {}(X, Z), {}(Z, V) -> .", main(i), main(j));
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use semrec_datalog::analysis::{classify_linear_pred, validate};
    use semrec_datalog::Pred;

    #[test]
    fn generated_programs_satisfy_the_assumptions() {
        for seed in 0..50 {
            let p = random_linear(&RandomLinearParams {
                arity: 1 + (seed as usize % 4),
                recursive_rules: 1 + (seed as usize % 3),
                locals: seed as usize % 3,
                seed,
            });
            validate(&p, &[]).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{p}"));
            let info = classify_linear_pred(&p, Pred::new("p")).unwrap();
            assert_eq!(info.exit_rules.len(), 1);
            assert!(!info.recursive_rules.is_empty());
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let a = random_linear(&RandomLinearParams::default());
        let b = random_linear(&RandomLinearParams::default());
        assert_eq!(a, b);
    }
}
